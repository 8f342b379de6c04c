//! Runs every workload named in `BENCHMARK.json` at a tiny size, untraced
//! and traced, and checks that the result line carries every metric the
//! file names for that mode, with its unit, and that the run's own checks
//! passed.

use std::process::Command;

use wfit_core::json::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn metrics(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{section} is a list"))
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{section} entry lacks {k}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--phase-len", "2"])
        .arg("--out")
        .arg(std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let doc = Json::parse(last).expect("the last line is one JSON object");
    (out.status.success(), doc)
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let bench = benchmark_json();
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads is a list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert!(workloads.len() >= 2);
    for workload in &workloads {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let (ok, doc) = run(workload, trace);
            assert!(ok, "{workload} --trace {trace} exited with an error");
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{workload}");
            let attempted = doc.get("attempted").and_then(Json::as_f64).unwrap();
            assert!(attempted >= 1.0, "{workload}: nothing attempted");
            assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
            let printed = doc.get("metrics").expect("a metrics object");
            let expected = metrics(&bench, section);
            for (name, unit) in &expected {
                let metric = printed
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace}: {name} missing"));
                assert!(
                    metric.get("value").and_then(Json::as_f64).is_some(),
                    "{workload}: {name} has no numeric value"
                );
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{workload}: {name} unit"
                );
            }
            let Json::Obj(fields) = printed else {
                panic!("metrics is an object")
            };
            assert_eq!(fields.len(), expected.len(), "{workload}: extra metrics");
        }
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
