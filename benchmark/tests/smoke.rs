//! Self-test of the benchmark: each workload runs a few ops in smoke
//! mode, untraced and traced. Every metric `BENCHMARK.json` names must be
//! printed with its unit, no op may fail, and the output digest must
//! repeat for a seed and change with it.

use std::path::{Path, PathBuf};
use std::process::Command;

use redistrib_service::Json;

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Json::as_str).unwrap_or_default().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// A scratch checkout root per call, so parallel tests share no files.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs the benchmark in smoke mode; returns its stdout lines.
fn run(workload: &str, seed: u64, trace: u8) -> Vec<String> {
    let dir = scratch(&format!("{workload}-{seed}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_redistrib-benchmark"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().map(str::to_string).collect()
}

fn check_result(lines: &[String], expected: &[(String, String)], what: &str) {
    let last = lines.last().expect("some output");
    let result =
        Json::parse(last).unwrap_or_else(|e| panic!("{what}: last line {last}: {}", e.msg));
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{what}: {last}");
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{what}: {last}");
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1, "{what}");
    let metrics = result.get("metrics").and_then(Json::as_obj).expect("metrics object");
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(printed, wanted, "{what}: metric names");
    for (name, unit) in expected {
        let m = result.get("metrics").and_then(|ms| ms.get(name)).expect("metric present");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{what}: {name}");
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{what}: {name} value");
        // Each metric is also printed with its sample count.
        assert!(
            lines.iter().any(|l| l.starts_with(&format!("metric\t{name}\t"))),
            "{what}: no sample line for {name}"
        );
    }
}

fn digest(lines: &[String]) -> String {
    lines.iter().find(|l| l.starts_with("digest\t")).expect("a digest line").clone()
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    let spec = spec();
    let end_to_end = names(&spec, "end_to_end");
    for w in spec.get("workloads").and_then(Json::as_arr).expect("workloads") {
        let workload = w.get("name").and_then(Json::as_str).expect("workload name");
        check_result(&run(workload, 1, 0), &end_to_end, workload);
    }
}

#[test]
fn traced_run_prints_every_layer_metric() {
    let spec = spec();
    let lines = run("campaign", 1, 1);
    check_result(&lines, &names(&spec, "per_layer"), "traced");
}

#[test]
fn digests_repeat_for_a_seed_and_change_with_it() {
    for workload in ["campaign", "serve", "failover"] {
        let a = digest(&run(workload, 7, 0));
        assert_eq!(a, digest(&run(workload, 7, 0)), "{workload}: same seed");
        assert_ne!(a, digest(&run(workload, 8, 0)), "{workload}: other seed");
    }
}
