//! Runs every workload at `--tiny` size, untraced and traced, and checks
//! that the result line carries every metric of the binary's catalog,
//! with its unit, and that no operation failed. (A unit test in
//! `src/metrics.rs` checks that the catalog is what BENCHMARK.json
//! declares.)
//!
//! Slow in a debug build; run with `cargo test --release`.

use std::process::Command;

use utebench::metrics::{end_to_end, per_layer, Metric};

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_utebench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .output()
        .expect("run utebench");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: &str, catalog: &[Metric]) {
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, ") && line.contains("\"failed\": 0, "),
        "{line}"
    );
    for Metric { name, unit } in catalog {
        let at = line
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {line}"));
        let obj = &line[at..at + line[at..].find('}').expect("end of metric")];
        let value = obj.split("\"value\": ").nth(1).expect("value");
        let number = value.split(',').next().expect("number");
        assert!(number.parse::<f64>().is_ok(), "{name}: {number}");
        assert!(
            obj.ends_with(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} lacks unit {unit}: {obj}"
        );
    }
}

const WORKLOADS: [&str; 2] = ["table1_deep", "view_session"];

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        check(w, "0", &end_to_end());
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in WORKLOADS {
        check(w, "1", &per_layer());
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "table1_deep", "--seed", "1", "--seconds", "1"],
        &[
            "--workload",
            "table1_deep",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_utebench"))
            .args(args)
            .output()
            .expect("run utebench");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
