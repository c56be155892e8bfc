//! Bench-regression gate: compares a fresh `perf` quick-profile against a
//! committed `BENCH_*.json` baseline and fails when any scenario regresses
//! below a threshold.
//!
//! The baseline record stores each scenario's committed timing as
//! `after_seconds` (the number measured when the record was created); a
//! plain `perf` output stores `mean_seconds`. For every scenario present in
//! *both* files the gate computes `ratio = baseline / fresh` (> 1 means the
//! fresh build is faster) and fails if `ratio < --min-ratio` (default 0.9,
//! i.e. a fresh build may be at most ~11 % slower before the gate trips —
//! headroom for CI machine jitter). Scenarios present in only one file are
//! reported but never fail the gate, so adding scenarios does not break
//! older baselines.
//!
//! CI machines vary in raw speed, which makes a fixed threshold fragile:
//! a uniformly 20 % slower runner would trip every scenario. With
//! `--normalize PREFIX` the gate first estimates the runner-speed factor
//! as the *median* of `fresh / baseline` over the scenarios whose name
//! starts with `PREFIX` (the `engine_loop_*` scenarios are pure event-loop
//! work with no policy cost — a stable machine-speed probe), then divides
//! it out of every ratio before applying the threshold. A real regression
//! shows up *relative* to the probe scenarios and still fails; uniform
//! machine slowness cancels. Machine slowness and a probe-path code
//! regression are indistinguishable from one timing, so three bounds keep
//! the blind spot small: the factor is clamped to ±50 %, the probe
//! scenarios themselves are gated with a hard *unnormalized* floor of
//! `min_ratio × 2/3`, and a factor far from 1.0 prints a `WARN` asking a
//! human to compare absolute probe times.
//!
//! With `--write-baseline FILE` the gate additionally emits a *rolling
//! per-runner baseline*: the element-wise best (minimum) timing of the
//! baseline and the fresh profile, plus any scenario present on only one
//! side. A runner that re-reads its own rolling artifact on the next run
//! compares against timings measured *on its own hardware*, so the
//! committed cross-machine record never has to absorb runner-speed skew —
//! the `--normalize` escape hatch stays for the first run of an unseen
//! machine (see README "Performance").
//!
//! Usage:
//! `cargo run --release -p redistrib-bench --bin benchcmp -- \
//!     --baseline BENCH_PR10.json --fresh bench-ci.json [--min-ratio 0.9] \
//!     [--normalize engine_loop_] [--write-baseline rolling.json]`

use std::collections::BTreeMap;
use std::process::exit;

/// Minimal JSON scraping for the two known record shapes — the compact
/// one-scenario-per-line `perf` output and the pretty-printed committed
/// `BENCH_*` records. Extracts each scenario's first value among `keys`.
/// The records are machine-written, so a line-oriented parse is reliable
/// and keeps the gate dependency-free.
fn scenario_times(text: &str, keys: &[&str]) -> BTreeMap<String, f64> {
    let grab = |rest: &str, key: &str| -> Option<f64> {
        let needle = format!("\"{key}\":");
        let pos = rest.find(&needle)?;
        let num: String = rest[pos + needle.len()..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
            .collect();
        num.parse::<f64>().ok()
    };
    let structural = ["scenarios", "iters", "machine"];
    let mut out = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        let trimmed = line.trim();
        let Some((head, rest)) = trimmed.split_once(':') else { continue };
        let name = head.trim().trim_matches('"');
        if rest.trim_start().starts_with('{') && !structural.contains(&name) {
            // A scenario object opens; compact records carry the value on
            // the same line.
            current = Some(name.to_string());
            if let Some(v) = keys.iter().find_map(|k| grab(rest, k)) {
                out.insert(name.to_string(), v);
            }
        } else if keys.contains(&name) {
            // Pretty-printed records put each key on its own line.
            if let (Some(cur), Some(v)) = (&current, keys.iter().find_map(|k| grab(trimmed, k)))
            {
                out.entry(cur.clone()).or_insert(v);
            }
        }
    }
    out
}

/// Correction band of the runner-speed factor. The probes are the repo's
/// own event-loop code, not an external machine-speed reference: an
/// unclamped factor would let a *uniform* code regression (which slows the
/// probes too) normalize itself away. Clamping to ±50 % covers realistic
/// CI-machine variance while a 2× across-the-board regression still fails
/// the gate.
const FACTOR_MIN: f64 = 1.0 / 1.5;
const FACTOR_MAX: f64 = 1.5;

/// Runner-speed factor: the median of `fresh / baseline` over the common
/// scenarios whose name starts with `prefix`, clamped to
/// `[FACTOR_MIN, FACTOR_MAX]`. `1.0` (no correction) when no probe
/// scenario is present on both sides.
fn speed_factor(
    baseline: &BTreeMap<String, f64>,
    fresh: &BTreeMap<String, f64>,
    prefix: &str,
) -> (f64, usize) {
    let mut ratios: Vec<f64> = baseline
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .filter_map(|(name, &base)| fresh.get(name).map(|&new| new / base))
        .collect();
    if ratios.is_empty() {
        return (1.0, 0);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = ratios.len() / 2;
    let median =
        if ratios.len() % 2 == 1 { ratios[mid] } else { (ratios[mid - 1] + ratios[mid]) / 2.0 };
    (median.clamp(FACTOR_MIN, FACTOR_MAX), ratios.len())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut baseline_path = None;
    let mut fresh_path = None;
    let mut min_ratio = 0.9f64;
    let mut normalize: Option<String> = None;
    let mut write_baseline: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                baseline_path = Some(args[i + 1].clone());
                i += 2;
            }
            "--fresh" => {
                fresh_path = Some(args[i + 1].clone());
                i += 2;
            }
            "--min-ratio" => {
                min_ratio = args[i + 1].parse().expect("numeric min-ratio");
                i += 2;
            }
            "--normalize" => {
                normalize = Some(args[i + 1].clone());
                i += 2;
            }
            "--write-baseline" => {
                write_baseline = Some(args[i + 1].clone());
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    let baseline_path = baseline_path.expect("--baseline FILE is required");
    let fresh_path = fresh_path.expect("--fresh FILE is required");

    let baseline_text = std::fs::read_to_string(&baseline_path).expect("read baseline");
    let fresh_text = std::fs::read_to_string(&fresh_path).expect("read fresh profile");
    // A committed BENCH_* record stores `after_seconds`; a plain perf
    // output stores `mean_seconds` — accept either on both sides.
    let baseline = scenario_times(&baseline_text, &["after_seconds", "mean_seconds"]);
    let fresh = scenario_times(&fresh_text, &["mean_seconds", "after_seconds"]);
    assert!(!baseline.is_empty(), "no scenarios found in {baseline_path}");
    assert!(!fresh.is_empty(), "no scenarios found in {fresh_path}");

    let factor = match &normalize {
        Some(prefix) => {
            let (factor, probes) = speed_factor(&baseline, &fresh, prefix);
            if probes == 0 {
                println!("NORM  no common '{prefix}*' scenarios; factor 1.000 (unnormalized)");
            } else {
                println!(
                    "NORM  runner-speed factor {factor:.3} \
                     (median fresh/baseline over {probes} '{prefix}*' scenarios)"
                );
                if !(0.87..=1.15).contains(&factor) {
                    // Machine slowness and a probe-path code regression are
                    // indistinguishable from one timing; surface the
                    // anomaly instead of silently normalizing it away.
                    println!(
                        "WARN  factor {factor:.3} is far from 1.0 — slow runner, or a \
                         '{prefix}*' hot-path regression; compare absolute probe times"
                    );
                }
            }
            factor
        }
        None => 1.0,
    };

    let mut failures = Vec::new();
    let mut compared = 0;
    for (name, &base) in &baseline {
        let Some(&new) = fresh.get(name) else {
            println!("SKIP  {name}: not in fresh profile");
            continue;
        };
        compared += 1;
        // Probe scenarios measure the machine, so they cannot be gated
        // against their own normalization: they get a hard *unnormalized*
        // floor instead (min_ratio × FACTOR_MIN — beyond what any
        // accepted machine variance explains, so a gross probe-path
        // regression fails outright).
        let is_probe =
            normalize.as_ref().is_some_and(|prefix| name.starts_with(prefix.as_str()));
        let (ratio, floor) = if is_probe {
            (base / new, min_ratio * FACTOR_MIN)
        } else {
            (base / new * factor, min_ratio)
        };
        let verdict = if ratio < floor { "FAIL" } else { "ok" };
        println!("{verdict:<5} {name}: baseline {base:.6e}s fresh {new:.6e}s ratio {ratio:.3}");
        if ratio < floor {
            failures.push(name.clone());
        }
    }
    for name in fresh.keys().filter(|n| !baseline.contains_key(*n)) {
        println!("NEW   {name}: no baseline yet");
    }
    assert!(compared > 0, "no common scenarios between baseline and fresh profile");

    if let Some(path) = &write_baseline {
        // Rolling per-runner baseline: element-wise best of both sides
        // (noise can only tighten a floor toward the true best), new
        // scenarios adopted as-is. Written in the plain `perf` shape so it
        // feeds straight back into `--baseline` on the next run.
        let mut merged = baseline.clone();
        for (name, &new) in &fresh {
            merged.entry(name.clone()).and_modify(|v| *v = v.min(new)).or_insert(new);
        }
        let mut json = String::from("{\n  \"note\": \"rolling per-runner baseline (element-wise best; see benchcmp --write-baseline)\",\n  \"scenarios\": {\n");
        for (k, (name, secs)) in merged.iter().enumerate() {
            let comma = if k + 1 < merged.len() { "," } else { "" };
            json.push_str(&format!("    \"{name}\": {{\"mean_seconds\": {secs:.9}}}{comma}\n"));
        }
        json.push_str("  }\n}\n");
        std::fs::write(path, json).expect("write rolling baseline");
        println!("WROTE rolling baseline ({} scenarios) to {path}", merged.len());
    }

    if failures.is_empty() {
        println!("bench-compare: {compared} scenarios within {min_ratio}x of baseline");
    } else {
        eprintln!(
            "bench-compare: {} of {compared} scenarios regressed below {min_ratio}x: {}",
            failures.len(),
            failures.join(", ")
        );
        exit(1);
    }
}
