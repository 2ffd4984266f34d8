//! The traced run (`--trace 1`): the per-layer ledger.
//!
//! It replays the pipeline and the queries through [`crate::layers`]
//! with a span around every layer call, adds the probes that need
//! their own timing (the same replay with spans off, clock fitting
//! alone, convert+merge at `--jobs 1` and at `--jobs nproc`), and
//! reduces the spans to per-layer figures. Every figure is a median
//! over its repetitions.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::ingest::Reference;
use crate::layers::{self, IngestCounts};
use crate::session::{self, Order};
use crate::spans::{self, Tracer};
use crate::workload::{Input, Kind};
use crate::{
    ingest, jobs, metrics, report, set_up, stats, Opts, Res, Tally, WorkDir, PHASE_CAP_SECS,
};

/// Traced full-size pipelines at least made per traced run, each paired
/// with one replay with spans off. Two neighbouring pipelines differ by
/// up to a tenth, so `trace_overhead_frac` needs a few pairs.
const MIN_TRACED_PIPELINES: usize = 5;
/// Quarter-size traced pipelines, clock-fit probes, and convert+merge
/// timings per `--jobs` value that a traced run makes.
const SIDE_REPS: usize = 3;

/// How long a phase of the traced run lasts: until both `min`
/// operations are attempted and `secs` have passed, or
/// [`PHASE_CAP_SECS`] is reached.
#[derive(Clone, Copy)]
struct Budget {
    min: usize,
    secs: f64,
}

impl Budget {
    fn more(&self, done: usize, since: Instant) -> bool {
        let t = since.elapsed().as_secs_f64();
        t < PHASE_CAP_SECS && (done < self.min || t < self.secs)
    }
}

/// The traced run's budgets for full-size pipelines and for queries: an
/// ingest workload spends half of `--seconds` on pipelines and makes
/// `min_queries`; `view_session` the reverse. Per-layer figures have no
/// bound, so half the untraced budget is enough.
fn budgets(opts: &Opts, min_pipelines: usize, min_queries: usize) -> (Budget, Budget) {
    let secs = opts.seconds / 2.0;
    let (p, q) = match opts.kind {
        Kind::ViewSession => (0.0, secs),
        Kind::Table1Deep => (secs, 0.0),
    };
    (
        Budget {
            min: min_pipelines,
            secs: p,
        },
        Budget {
            min: min_queries,
            secs: q,
        },
    )
}

/// Span durations under `root`, summed by kind (the name up to its
/// first space).
fn sums(spans: &[spans::Span], kids: &[Vec<usize>], root: usize) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut todo = vec![root];
    while let Some(id) = todo.pop() {
        todo.extend(&kids[id]);
        let s = &spans[id];
        let kind = s.name.split(' ').next().unwrap_or("").to_string();
        *out.entry(kind).or_insert(0.0) += s.dur_ns() as f64;
    }
    out
}

/// Per-layer figures of one traced pipeline run.
fn ingest_sample(
    spans: &[spans::Span],
    kids: &[Vec<usize>],
    root: usize,
    n: &IngestCounts,
) -> BTreeMap<String, f64> {
    let s = sums(spans, kids, root);
    let t = |k: &str| s.get(k).copied().unwrap_or(0.0);
    let per = |ns: f64, count: u64| ns / count.max(1) as f64;
    let records = n.records;
    let store_ns = t("store.write_temp") + t("store.promote") + t("store.journal_append");
    let mut v = BTreeMap::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    put("cluster.simulate_ns", t("cluster.simulate"));
    put("cluster.records", records as f64);
    put("rawtrace.encode_ns", t("rawtrace.encode"));
    put("rawtrace.decode_ns", t("rawtrace.decode"));
    put("rawtrace.bytes", n.raw_bytes as f64);
    put("convert.ns", t("convert.convert_job_pooled"));
    put("convert.records_in", n.convert_in as f64);
    put("convert.intervals_out", n.convert_out as f64);
    put("merge.kway_ns", t("merge.merge_files_jobs"));
    put("merge.records_in", n.merge_in as f64);
    put("merge.records_out", n.merge_out as f64);
    put("pipeline.permit_wait_ns", n.permit_wait_ns as f64);
    put("pipeline.recv_wait_ns", n.recv_wait_ns as f64);
    put("format.ivl_decode_ns", t("format.ivl_decode"));
    put("format.ivl_bytes", n.ivl_bytes as f64);
    put("slog.build_ns", t("slog.slogmerge_jobs"));
    put("slog.encode_ns", t("slog.encode"));
    put("slog.bytes", n.slog_bytes as f64);
    put("slog.frames", n.slog_frames as f64);
    put("stats.eval_ns", t("stats.run_tables"));
    put("stats.records", n.stats_records as f64);
    put("store.write_temp_ns", t("store.write_temp"));
    put("store.promote_ns", t("store.promote"));
    put("store.journal_append_ns", t("store.journal_append"));
    put("store.artifacts", n.artifacts as f64);
    put("store.bytes", n.store_bytes as f64);
    put(
        "unattributed_frac",
        spans::attribute(spans, kids, root).unattributed_frac,
    );
    put("cluster.ns_per_record", per(t("cluster.simulate"), records));
    put(
        "rawtrace.ns_per_record",
        per(t("rawtrace.encode") + t("rawtrace.decode"), records),
    );
    put(
        "convert.ns_per_record",
        per(t("convert.convert_job_pooled"), n.convert_in),
    );
    put(
        "merge.ns_per_record",
        per(t("merge.merge_files_jobs"), n.merge_in),
    );
    put(
        "format.ns_per_record",
        per(t("format.ivl_decode"), n.stats_records),
    );
    put(
        "slog.ns_per_record",
        per(t("slog.slogmerge_jobs") + t("slog.encode"), n.slog_in),
    );
    put(
        "stats.ns_per_record",
        per(t("stats.run_tables"), n.stats_records),
    );
    put("store.ns_per_record", per(store_ns, records));
    v
}

/// Per-key medians over samples that have the key.
fn medians(samples: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut by_key: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in samples {
        for (k, &x) in s {
            by_key.entry(k.clone()).or_default().push(x);
        }
    }
    by_key
        .into_iter()
        .map(|(k, xs)| (k, stats::median(&xs)))
        .collect()
}

/// The traced run of `--trace 1`; returns the result line.
pub fn run(opts: &Opts, work: &mut WorkDir, input: &Input, tr: &mut Tracer) -> Res<String> {
    let setup = set_up(work, input, opts.seed)?;
    let mut tally = Tally::default();
    let (full_budget, query_budget) = budgets(opts, MIN_TRACED_PIPELINES, 2 * session::POOL_SIZE);

    // Each traced pipeline is paired with the same replay with spans
    // off, in the same process, run next to it; which goes first
    // alternates. The overhead is the median of the pairs' ratios, so a
    // drift in the machine's speed cancels within each pair.
    let mut off = Tracer::off();
    let mut full = Vec::new();
    let mut overheads = Vec::new();
    let mut traced_dir = None;
    let t = Instant::now();
    for i in 0.. {
        if !full_budget.more(i, t) {
            break;
        }
        let mut wall_ns = [None; 2];
        for traced in [i % 2 == 0, i % 2 == 1] {
            let dir = work.next(if traced { "traced" } else { "untraced" });
            let t0 = Instant::now();
            let r = layers::traced_pipeline(
                if traced { &mut *tr } else { &mut off },
                &dir,
                input,
                jobs(),
            );
            let ns = t0.elapsed().as_nanos() as f64;
            let r = r.and_then(|(root, n)| {
                if traced {
                    full.push((root, n));
                }
                ingest::verify(&dir, &setup.reference)
            });
            if tally.check("replayed pipeline", r) {
                wall_ns[usize::from(traced)] = Some(ns);
                if traced {
                    traced_dir = Some(dir);
                }
            }
        }
        if let [Some(off_ns), Some(on_ns)] = wall_ns {
            overheads.push(on_ns / off_ns - 1.0);
        }
    }
    // Clock fits and queries read the last correct traced run.
    let traced_dir = traced_dir.ok_or("no traced pipeline run succeeded")?;

    let mut quarter = Vec::new();
    let mut quarter_ref: Option<Reference> = None;
    for _ in 0..SIDE_REPS {
        let dir = work.next("quarter");
        let r =
            layers::traced_pipeline(tr, &dir, &input.quarter(), jobs()).and_then(|(root, n)| {
                quarter.push((root, n));
                let got = Reference::scan(&dir)?;
                match quarter_ref.get_or_insert_with(|| got.clone()) == &got {
                    true => Ok(()),
                    false => Err("quarter-size runs disagree".to_string()),
                }
            });
        tally.check("traced quarter-size pipeline", r);
    }

    let mut clockfits = Vec::new();
    for _ in 0..SIDE_REPS {
        let r = layers::traced_clockfit(tr, &traced_dir).map(|root| clockfits.push(root));
        tally.check("clock fit", r);
    }

    let raw = layers::RawInputs::load(&setup.dir)?;
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    for rep in 0..SIDE_REPS {
        // Alternate which side runs first.
        let order = if rep % 2 == 0 {
            [1, jobs()]
        } else {
            [jobs(), 1]
        };
        for j in order {
            let r = raw.convert_merge(j).and_then(|(ns, hash)| {
                match j {
                    1 => serial.push(ns),
                    _ => parallel.push(ns),
                }
                match Some(hash) == setup.reference.merged_hash() {
                    true => Ok(()),
                    false => Err(format!("convert+merge at --jobs {j} differs")),
                }
            });
            tally.check("convert+merge", r);
        }
    }

    let mut queries = Vec::new();
    let mut order = Order::new(opts.seed);
    let t = Instant::now();
    for n in 0.. {
        if !query_budget.more(n, t) {
            break;
        }
        let i = order.next_index();
        let r = layers::traced_query(tr, &traced_dir, &setup.pool[i]).and_then(|(root, a)| {
            queries.push(root);
            match a == setup.answers[i] {
                true => Ok(()),
                false => Err(format!("{:?} answered differently", setup.pool[i])),
            }
        });
        tally.check("traced query", r);
    }

    let spans = tr.spans();
    let kids = spans::children(spans);
    let sample = |set: &[(usize, IngestCounts)]| -> Vec<BTreeMap<String, f64>> {
        set.iter()
            .map(|(root, n)| ingest_sample(spans, &kids, *root, n))
            .collect()
    };
    let full_m = medians(&sample(&full));
    let quarter_m = medians(&sample(&quarter));
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for m in metrics::per_layer() {
        if let Some(&v) = full_m.get(&m.name) {
            values.insert(m.name, v);
        }
    }
    for layer in metrics::SHAPE_LAYERS {
        let key = format!("{layer}.ns_per_record");
        if let (Some(f), Some(q)) = (full_m.get(&key), quarter_m.get(&key)) {
            values.insert(format!("{key}_q"), *q);
            values.insert(format!("{layer}.shape_ratio"), f / q);
        }
    }
    if !overheads.is_empty() {
        values.insert("trace_overhead_frac".into(), stats::median(&overheads));
    }
    if !serial.is_empty() && !parallel.is_empty() {
        values.insert(
            "pipeline.speedup".into(),
            stats::median(&serial) / stats::median(&parallel),
        );
    }
    let per_root = |roots: &[usize], root_name: &str, kind: &str| -> Option<f64> {
        let xs: Vec<f64> = roots
            .iter()
            .filter(|&&r| root_name.is_empty() || spans[r].name == root_name)
            .filter_map(|&r| sums(spans, &kids, r).get(kind).copied())
            .collect();
        (!xs.is_empty()).then(|| stats::median(&xs))
    };
    for (metric, roots, root_name, kind) in [
        ("merge.clockfit_ns", &clockfits, "", "merge.clockfit"),
        ("slog.decode_ns", &queries, "", "slog.decode"),
        ("view.build_ns", &queries, "", "view.build"),
        ("view.render_ns", &queries, "", "view.render"),
        ("view.preview_ns", &queries, "", "view.preview"),
        (
            "analyze.load_ns",
            &queries,
            "query.analyze",
            "analyze.load_table",
        ),
        (
            "analyze.diag_ns",
            &queries,
            "query.analyze",
            "analyze.run_all",
        ),
        (
            "analyze.load_full_ns",
            &queries,
            "query.analyze_full",
            "analyze.load_table",
        ),
    ] {
        if let Some(v) = per_root(roots, root_name, kind) {
            values.insert(metric.to_string(), v);
        }
    }

    eprintln!(
        "utebench: {} traced pipelines ({} quarter-size), {} paired with spans off, \
         {} queries; {} of {} operations failed",
        full.len(),
        quarter.len(),
        overheads.len(),
        queries.len(),
        tally.failed,
        tally.attempted
    );
    if let Some((root, _)) = full.last() {
        attribution_report(spans, &kids, *root);
    }
    report(&metrics::per_layer(), &values);
    metrics::result_line(
        tally.attempted,
        tally.failed,
        &metrics::per_layer(),
        &values,
    )
}

/// Prints where one traced pipeline's wall time went: self time per
/// layer, and each kind of benchmark-side work no layer call covers.
fn attribution_report(spans: &[spans::Span], kids: &[Vec<usize>], root: usize) {
    let a = spans::attribute(spans, kids, root);
    let ms = |ns: u64| ns as f64 / 1e6;
    let pct = |ns: u64| 100.0 * ns as f64 / a.wall_ns.max(1) as f64;
    eprintln!(
        "  traced pipeline wall {:.1} ms; self time by layer:",
        ms(a.wall_ns)
    );
    for (layer, &ns) in &a.layer_self_ns {
        eprintln!("    {layer:<12} {:>9.1} ms {:>5.1}%", ms(ns), pct(ns));
    }
    eprintln!(
        "  not covered by a layer call ({:.2}% of wall):",
        100.0 * a.unattributed_frac
    );
    for (name, &ns) in &a.uncovered_by_name {
        eprintln!("    {name:<20} {:>9.3} ms", ms(ns));
    }
}
