//! The metric catalog and the result line. `BENCHMARK.json` at the
//! repository root lists the same names and units.

use std::collections::BTreeMap;

use crate::Res;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
}

fn catalog(list: &[(&str, &'static str)]) -> Vec<Metric> {
    list.iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            unit,
        })
        .collect()
}

/// Printed by every untraced run (`--trace 0`).
pub fn end_to_end() -> Vec<Metric> {
    catalog(&[
        ("pipeline_s", "s"),
        ("pipeline_cpu_s", "s"),
        ("peak_rss_mb", "MiB"),
        ("artifact_bytes_per_event", "B/event"),
        ("query_p50_ms", "ms"),
        ("query_p95_ms", "ms"),
        ("setup_s", "s"),
    ])
}

/// Layers whose cost per record is compared at full and quarter size
/// (the paper's Table 1 flatness, per layer).
pub const SHAPE_LAYERS: [&str; 8] = [
    "cluster", "rawtrace", "convert", "merge", "format", "slog", "stats", "store",
];

/// Printed by every traced run (`--trace 1`).
pub fn per_layer() -> Vec<Metric> {
    let mut m = catalog(&[
        ("cluster.simulate_ns", "ns"),
        ("cluster.records", "count"),
        ("rawtrace.encode_ns", "ns"),
        ("rawtrace.decode_ns", "ns"),
        ("rawtrace.bytes", "B"),
        ("convert.ns", "ns"),
        ("convert.records_in", "count"),
        ("convert.intervals_out", "count"),
        ("merge.clockfit_ns", "ns"),
        ("merge.kway_ns", "ns"),
        ("merge.records_in", "count"),
        ("merge.records_out", "count"),
        ("pipeline.speedup", "ratio"),
        ("pipeline.permit_wait_ns", "ns"),
        ("pipeline.recv_wait_ns", "ns"),
        ("format.ivl_decode_ns", "ns"),
        ("format.ivl_bytes", "B"),
        ("slog.build_ns", "ns"),
        ("slog.encode_ns", "ns"),
        ("slog.decode_ns", "ns"),
        ("slog.bytes", "B"),
        ("slog.frames", "count"),
        ("stats.eval_ns", "ns"),
        ("stats.records", "count"),
        ("analyze.load_ns", "ns"),
        ("analyze.load_full_ns", "ns"),
        ("analyze.diag_ns", "ns"),
        ("view.build_ns", "ns"),
        ("view.render_ns", "ns"),
        ("view.preview_ns", "ns"),
        ("store.write_temp_ns", "ns"),
        ("store.promote_ns", "ns"),
        ("store.journal_append_ns", "ns"),
        ("store.artifacts", "count"),
        ("store.bytes", "B"),
        ("unattributed_frac", "ratio"),
        ("trace_overhead_frac", "ratio"),
    ]);
    for layer in SHAPE_LAYERS {
        for (suffix, unit) in [
            ("ns_per_record", "ns/record"),
            ("ns_per_record_q", "ns/record"),
            ("shape_ratio", "ratio"),
        ] {
            m.push(Metric {
                name: format!("{layer}.{suffix}"),
                unit,
            });
        }
    }
    m
}

/// Metric and workload names: 1-64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_name(s: &str) -> bool {
    (1..=64).contains(&s.len())
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: 1-16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The final stdout line: every metric of `catalog`, nothing else.
pub fn result_line(
    attempted: usize,
    failed: usize,
    catalog: &[Metric],
    values: &BTreeMap<String, f64>,
) -> Res<String> {
    let mut body = Vec::new();
    for m in catalog {
        if !valid_name(&m.name) || !valid_unit(m.unit) {
            return Err(format!("malformed metric {} [{}]", m.name, m.unit));
        }
        let v = values
            .get(&m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is {v}", m.name));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    if let Some(extra) = values
        .keys()
        .find(|k| !catalog.iter().any(|m| &m.name == *k))
    {
        return Err(format!("metric {extra} is not in the catalog"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in end_to_end().into_iter().chain(per_layer()) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn name_check_rejects_what_the_pattern_excludes() {
        for good in ["setup_s", "merge.kway_ns", "a-b.c_d", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "has space",
            "semi;colon",
            "_lead",
            ".lead",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("ns/record") && valid_unit("%") && !valid_unit("m s"));
    }

    #[test]
    fn result_line_has_every_metric_and_nothing_else() {
        let cat = end_to_end();
        let mut v: BTreeMap<String, f64> = cat.iter().map(|m| (m.name.clone(), 1.5)).collect();
        let line = result_line(3, 0, &cat, &v).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        v.insert("stray".into(), 1.0);
        assert!(result_line(3, 0, &cat, &v).is_err());
        v.remove("stray");
        v.remove("setup_s");
        assert!(result_line(3, 0, &cat, &v).is_err());
    }

    #[test]
    fn benchmark_json_declares_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = start + text[start..].find(']').expect("closing bracket");
            text[start..end]
                .split('{')
                .skip(1)
                .map(|obj| (field(obj, "name"), field(obj, "unit")))
                .collect()
        };
        let want = |c: Vec<Metric>| -> Vec<(String, String)> {
            c.into_iter()
                .map(|m| (m.name, m.unit.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), want(end_to_end()));
        assert_eq!(section("per_layer"), want(per_layer()));
    }

    /// The string value of `"key": "..."` inside one flat JSON object.
    fn field(obj: &str, key: &str) -> String {
        let at = obj.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("value") + 1;
        let close = open + rest[open..].find('"').expect("end of value");
        rest[open..close].to_string()
    }
}
