//! End-to-end and per-layer benchmark of the redistrib workspace.
//!
//! ```text
//! redistrib-benchmark --workload <campaign|serve|failover> --seed N \
//!     --seconds S --trace <0|1> [--smoke]
//! ```
//!
//! With `--trace 0` the named workload runs in this process and the last
//! stdout line is one JSON object holding every end-to-end metric. With
//! `--trace 1` the traced pass of each of the three workloads runs in a
//! child process of its own, each for a third of `--seconds`, and the
//! last line holds every per-layer metric. `--smoke` runs a few
//! operations with a small fleet, for the self-test. Lines before the
//! last one describe the run: hygiene readings, output checks, digests
//! and each metric's sample count. `README.md` gives each workload's
//! reason and what each metric should move.

mod campaign;
mod failover;
mod serve;
mod stats;
mod sys;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use stats::Samples;

/// The workloads, in the order a traced run measures them.
const WORKLOADS: [&str; 3] = ["campaign", "serve", "failover"];

/// Scratch directory (relative to the checkout) holding each process's
/// archives; a private tmpfs is mounted on it where the kernel allows.
const WORK_DIR: &str = ".bench_work";
/// Where traced passes write their spans.
const TRACE_DIR: &str = ".bench_trace";

/// Operations per statistics window. A run that completes at least one
/// window reports each rate and percentile as the median over its
/// complete windows, so that a few seconds of host interference (steal)
/// move it less; a shorter run is one window over all its ops.
const WINDOW_OPS: usize = 5000;

/// Times the set-up runs in one untraced run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Run options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// A few operations on a small fleet, for the self-test.
    pub smoke: bool,
    /// Scratch directory of this process (archives); removed at exit.
    pub work: PathBuf,
}

impl Opts {
    /// Number of set-ups an untraced run performs.
    #[must_use]
    pub fn setups(&self) -> usize {
        self.scale(SETUPS, 1)
    }

    /// `full` normally, `smoke` in smoke mode.
    #[must_use]
    pub fn scale(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// The measured window: runs until `seconds` have passed and at least
/// `min_ops` operations completed, and reads wall and process CPU time.
/// Work run through [`Window::exclude`] counts toward neither.
pub struct Window {
    start: Instant,
    cpu0: Duration,
    seconds: f64,
    min_ops: u64,
    excluded: Duration,
    excluded_cpu: Duration,
}

impl Window {
    /// Opens the window now.
    #[must_use]
    pub fn open(seconds: f64, min_ops: u64) -> Self {
        Self {
            start: Instant::now(),
            cpu0: sys::process_cpu(),
            seconds,
            min_ops,
            excluded: Duration::ZERO,
            excluded_cpu: Duration::ZERO,
        }
    }

    /// Seconds the window has measured so far.
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        (self.start.elapsed() - self.excluded).as_secs_f64()
    }

    /// Whether the window is over after `ops` operations.
    #[must_use]
    pub fn done(&self, ops: u64) -> bool {
        ops >= self.min_ops && self.elapsed_s() >= self.seconds
    }

    /// Runs `f` with the window paused: its wall and CPU time are taken
    /// out of the window's readings.
    pub fn exclude<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (t, cpu) = (Instant::now(), sys::process_cpu());
        let out = f();
        self.excluded += t.elapsed();
        self.excluded_cpu += sys::process_cpu().saturating_sub(cpu);
        out
    }

    /// Closes the window: `(wall seconds, CPU seconds)`.
    #[must_use]
    pub fn close(self) -> (f64, f64) {
        let cpu = sys::process_cpu().saturating_sub(self.cpu0 + self.excluded_cpu);
        (self.elapsed_s(), cpu.as_secs_f64())
    }
}

/// What an untraced workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Duration of each set-up, in seconds.
    pub setups_s: Vec<f64>,
    /// Operations completed.
    pub ops: u64,
    /// Latencies, in milliseconds, of the operations since the last
    /// complete statistics window.
    pub latencies_ms: Vec<f64>,
    /// `[ops per second, p50, p90, p99]` of each complete window.
    windows: Vec<[f64; 4]>,
    /// When the last complete window ended, in seconds since the measured
    /// window opened.
    windows_end_s: f64,
    /// Operations attempted, including the output checks' failures.
    pub attempted: u64,
    /// Operations whose status or output was wrong.
    pub failed: u64,
    /// Wall time of the measured window.
    pub wall_s: f64,
    /// Process CPU time (all threads) during the window.
    pub cpu_s: f64,
    /// Digest of the outputs of the first `digest_ops` operations.
    pub digest: u64,
    /// Operations the digest covers (the same in every run).
    pub digest_ops: u64,
    /// One line per output check.
    pub notes: Vec<String>,
}

/// Runs `setup` `opts.setups()` times, timing each, and keeps the last
/// result. The previous result is dropped before the next set-up starts,
/// so tearing it down is not timed.
///
/// # Errors
/// The first set-up error.
pub fn repeat_setup<T>(
    opts: &Opts,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let (mut last, mut secs) = (None, Vec::new());
    for n in 0..opts.setups() {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(n)?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.ok_or("no set-up ran")?, secs))
}

impl Measured {
    /// Records one completed operation.
    pub fn record(&mut self, window: &Window, latency_ms: f64) {
        self.record_at(window.elapsed_s(), latency_ms);
    }

    /// Records an operation that ended `end_s` into the window. Each
    /// complete statistics window is summarised and its latencies
    /// dropped, so that the samples' memory stays constant and out of
    /// `rss_peak_mib`.
    fn record_at(&mut self, end_s: f64, latency_ms: f64) {
        self.ops += 1;
        self.latencies_ms.push(latency_ms);
        if self.latencies_ms.len() == WINDOW_OPS {
            let rate = WINDOW_OPS as f64 / (end_s - self.windows_end_s).max(1e-9);
            self.windows.push(summary(rate, std::mem::take(&mut self.latencies_ms)));
            self.windows_end_s = end_s;
        }
    }
}

/// `[rate, p50, p90, p99]` of one statistics window.
fn summary(rate: f64, latencies_ms: Vec<f64>) -> [f64; 4] {
    let s = Samples::new(latencies_ms);
    [rate, s.median(), s.quantile(0.90), s.quantile(0.99)]
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) -> Self {
        Self { name: name.into(), value, unit, samples }
    }
}

/// What a traced workload pass reports.
#[derive(Debug, Default)]
pub struct Layers {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Operations attempted in the pass.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Free-form lines (digests, checks).
    pub notes: Vec<String>,
    /// Spans recorded by the pass, written out at the end.
    pub trace: trace::Trace,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Internal: run only this workload's traced pass (a child of a
    /// traced run).
    layer_pass: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        layer_pass: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--layer-pass" => args.layer_pass = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// `[ops per second, p50, p90, p99]` of each statistics window: the
/// complete ones, or one over every op when none completed.
fn windows(m: &Measured) -> Vec<[f64; 4]> {
    if m.windows.is_empty() {
        vec![summary(m.ops as f64 / m.wall_s.max(1e-9), m.latencies_ms.clone())]
    } else {
        m.windows.clone()
    }
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let ops = m.ops as usize;
    let windows = windows(m);
    let median = |k: usize| Samples::new(windows.iter().map(|w| w[k]).collect()).median();
    println!(
        "whole_run\tops={ops} windows={} throughput_per_s={}",
        windows.len(),
        ops as f64 / m.wall_s.max(1e-9),
    );
    let cpu_per_op = if ops == 0 { 0.0 } else { m.cpu_s * 1e3 / ops as f64 };
    vec![
        Metric::new(
            "setup_s",
            Samples::new(m.setups_s.clone()).median(),
            "s",
            m.setups_s.len(),
        ),
        Metric::new("throughput_per_s", median(0), "1/s", ops),
        Metric::new("p50_ms", median(1), "ms", ops),
        Metric::new("p90_ms", median(2), "ms", ops),
        Metric::new("p99_ms", median(3), "ms", ops),
        Metric::new("cpu_ms_per_op", cpu_per_op, "ms", ops),
        Metric::new("rss_peak_mib", sys::peak_rss_mib(), "MiB", 1),
    ]
}

fn run_workload(name: &str, opts: &Opts) -> Result<Measured, String> {
    match name {
        "campaign" => campaign::measure(opts),
        "serve" => serve::measure(opts),
        _ => failover::measure(opts),
    }
}

fn trace_workload(name: &str, opts: &Opts) -> Result<Layers, String> {
    match name {
        "campaign" => campaign::traced(opts),
        "serve" => serve::traced(opts),
        _ => failover::traced(opts),
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("metric\t{}\t{}\t{}\t{}", m.name, m.value, m.unit, m.samples);
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Untraced run of one workload.
fn untraced(args: &Args, opts: &Opts) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let measured = run_workload(&args.workload, opts)?;
    for note in &measured.notes {
        println!("check\t{note}");
    }
    println!("digest\t{:016x}\tover the first {} ops", measured.digest, measured.digest_ops);
    println!("setups\t{:?}", measured.setups_s);
    let metrics = end_to_end(&measured);
    print_metrics(&metrics);
    Ok((measured.failed == 0, measured.attempted, measured.failed, metrics))
}

/// Child of a traced run: one workload's traced pass, reported as
/// `metric` lines plus a closing `pass` line.
fn layer_pass(args: &Args, opts: &Opts) -> Result<(), String> {
    let layers = trace_workload(&args.workload, opts)?;
    for note in &layers.notes {
        println!("check\t{note}");
    }
    print_metrics(&layers.metrics);
    let dir = Path::new(TRACE_DIR);
    // One file per workload, overwritten by the next traced run.
    let out = dir.join(format!("trace-{}.tsv", args.workload));
    std::fs::create_dir_all(dir)
        .and_then(|()| layers.trace.write_tsv(&out))
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("spans\t{}\twritten to {}", layers.trace.spans.len(), out.display());
    println!("pass\t{}\t{}", layers.attempted, layers.failed);
    Ok(())
}

/// Traced run: every workload's traced pass in a child process of its
/// own, sequentially, each for a third of the time.
fn traced(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
    let (mut attempted, mut failed, mut metrics) = (0u64, 0u64, Vec::new());
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload, "--layer-pass"])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / 3.0).to_string()]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().map_err(|e| format!("spawning the {workload} pass: {e}"))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        if !out.status.success() {
            return Err(format!("the {workload} pass exited with {}", out.status));
        }
        let mut closed = false;
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["metric", name, value, unit, samples] => {
                    let unit = ["ms", "count", "ratio"]
                        .into_iter()
                        .find(|u| u == unit)
                        .ok_or_else(|| format!("unexpected unit {unit}"))?;
                    metrics.push(Metric::new(
                        *name,
                        value.parse().map_err(|e| format!("{name}: {e}"))?,
                        unit,
                        samples.parse().unwrap_or(0),
                    ));
                }
                ["pass", a, b] => {
                    attempted += a.parse::<u64>().unwrap_or(0);
                    failed += b.parse::<u64>().unwrap_or(0);
                    closed = true;
                }
                _ => println!("{workload}\t{line}"),
            }
        }
        if !closed {
            return Err(format!("the {workload} pass printed no result"));
        }
    }
    print_metrics(&metrics);
    Ok((failed == 0, attempted, failed, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: redistrib-benchmark --workload <campaign|serve|failover> --seed N \
                 --seconds S --trace <0|1> [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // The traced parent only waits for its children, which pin themselves
    // and mount their own tmpfs.
    let parent = args.trace && !args.layer_pass;
    // Before any thread starts: every later thread inherits these.
    sys::one_malloc_arena();
    let cpu = if parent {
        None
    } else {
        match sys::pin_to_one_cpu() {
            Ok(cpu) => Some(cpu),
            Err(e) => {
                eprintln!("error: cannot pin to one CPU: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let scratch = Path::new(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(scratch) {
        eprintln!("error: cannot create {WORK_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    // Archives go to memory, so that fsync latency on a shared disk stays
    // off the measured path.
    let tmpfs = if parent {
        "not needed".to_string()
    } else {
        sys::private_tmpfs(scratch)
            .map_or_else(|e| format!("unavailable ({e})"), |()| "private".into())
    };
    let work = scratch.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    // Figures with archives on disk would time fsync and could not be
    // compared with figures taken on tmpfs, so such a run reports none.
    let archive_fs = sys::fs_type(&work);
    if !parent && archive_fs != "tmpfs" {
        let _ = std::fs::remove_dir_all(&work);
        eprintln!(
            "error: archives would live on {archive_fs}, not tmpfs (private tmpfs mount: \
             {tmpfs}); the kernel must allow an unprivileged user and mount namespace, or \
             {WORK_DIR} must already be on tmpfs"
        );
        return ExitCode::FAILURE;
    }
    let opts = Opts { seed: args.seed, seconds: args.seconds, smoke: args.smoke, work };
    let steal0 = sys::steal_ticks(cpu);
    println!(
        "run\tworkload={} seed={} seconds={} trace={} smoke={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke
    );

    let outcome = if args.layer_pass {
        layer_pass(&args, &opts).map(|()| None)
    } else if args.trace {
        traced(&args).map(Some)
    } else {
        untraced(&args, &opts).map(Some)
    };

    let steal1 = sys::steal_ticks(cpu);
    println!(
        "hygiene\tnproc={nproc} online_cpus={} pinned_cpu={} archive_fs={} tmpfs={tmpfs} \
         malloc_arenas=1 steal_ticks_all={} steal_ticks_pinned={}",
        sys::online_cpus(),
        cpu.map_or_else(|| "none".into(), |c| c.to_string()),
        archive_fs,
        steal1.0.saturating_sub(steal0.0),
        steal1.1.saturating_sub(steal0.1),
    );
    let _ = std::fs::remove_dir_all(&opts.work);
    match outcome {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some((correct, attempted, failed, metrics))) => {
            println!("{}", result_line(correct, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_runs_report_medians_over_windows() {
        let n = 2 * WINDOW_OPS + 7;
        let mut m = Measured { wall_s: n as f64 * 1e-3, ..Measured::default() };
        for i in 0..n {
            m.record_at((i + 1) as f64 * 1e-3, if i < WINDOW_OPS { 1.0 } else { 3.0 });
        }
        assert_eq!(m.latencies_ms.len(), 7, "only the partial window keeps its samples");
        let w = windows(&m);
        assert_eq!(w.len(), 2, "the partial third window is dropped");
        assert!((w[0][0] - 1000.0).abs() < 1e-6 && (w[1][0] - 1000.0).abs() < 1e-6);
        assert_eq!((w[0][1], w[1][1]), (1.0, 3.0));

        let mut short = Measured { wall_s: 0.5, ..Measured::default() };
        for i in 1..=10 {
            short.record_at(f64::from(i), f64::from(i));
        }
        let w = windows(&short);
        assert_eq!(w.len(), 1);
        assert_eq!((w[0][0], w[0][1]), (20.0, 5.5));
    }
}
