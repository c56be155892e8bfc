//! `campaign`: the paper's evaluation loop.
//!
//! One op is one run of the Fig. 10 point (n = 100, p = 1000, MTBF 25
//! years, D = 60 s) across the six fault-figure variants, through
//! `run_point` with `runs: 1`, so a single worker thread runs it. The
//! engine and the redistribution policies do nearly all the work; no
//! service code runs.

use std::time::Instant;

use redistrib_core::{
    run, EndPolicy, EngineConfig, FaultPolicy, Heuristic, HeuristicCtx, RunOutcome,
};
use redistrib_experiments::figures::fault_figure_variants;
use redistrib_experiments::runner::{run_point, run_seeds, PointConfig, Variant};
use redistrib_experiments::workload::{generate, WorkloadParams};
use redistrib_model::{Platform, TaskId, TimeCalc};
use redistrib_sim::units;

use crate::stats::{mix, Digest, Samples};
use crate::{trace, Layers, Measured, Metric, Opts, Window};

const N: usize = 100;
const P: u32 = 1000;
const MTBF_YEARS: f64 = 25.0;
const DOWNTIME_S: f64 = 60.0;

/// Untimed ops that fill caches and finish lazy set-up before timing.
const WARMUP_OPS: u64 = 24;
/// Set-ups in an untraced run: one before the window, the others spread
/// evenly through it with the window paused, so that the host's speed
/// drift within a run reaches `setup_s` as it reaches the ops.
const SETUPS: usize = 11;
/// Every run completes at least these ops; digests and counts cover them.
const PREFIX_OPS: u64 = 64;
/// Every this many ops within the prefix is rerun on the reference
/// policies after the timed window.
const CHECK_EVERY: u64 = 16;

const STREAM_OPS: u64 = 1;
/// The warm-up runs the same inputs whatever the seed.
const WARMUP_SEED: u64 = 0x5EED;

/// `(metric label, heuristic, faults injected)`, in the order of
/// `fault_figure_variants()`.
const VARIANTS: [(&str, Heuristic, bool); 6] = [
    ("NoRc", Heuristic::NoRedistribution, true),
    ("IG-EG", Heuristic::IteratedGreedyEndGreedy, true),
    ("IG-EL", Heuristic::IteratedGreedyEndLocal, true),
    ("STF-EG", Heuristic::ShortestTasksFirstEndGreedy, true),
    ("STF-EL", Heuristic::ShortestTasksFirstEndLocal, true),
    ("FF-EL", Heuristic::EndLocalOnly, false),
];

fn point(base_seed: u64) -> PointConfig {
    PointConfig {
        workload: WorkloadParams::paper_default(N),
        p: P,
        mtbf_years: MTBF_YEARS,
        downtime: DOWNTIME_S,
        runs: 1,
        base_seed,
    }
}

/// The variants, checked against the figure harness, and the op stream.
struct Plan {
    variants: Vec<Variant>,
    seed: u64,
}

impl Plan {
    fn build(opts: &Opts) -> Result<Self, String> {
        let variants = fault_figure_variants();
        let expected: Vec<Variant> = VARIANTS
            .iter()
            .map(|&(_, h, faults)| match (h, faults) {
                (Heuristic::NoRedistribution, true) => Variant::FaultNoRc,
                (h, true) => Variant::Fault(h),
                (h, false) => Variant::FaultFree(h),
            })
            .collect();
        if variants != expected {
            return Err(format!("fault-figure variants changed: {variants:?}"));
        }
        Ok(Self { variants, seed: opts.seed })
    }

    fn op(&self, i: u64) -> PointConfig {
        point(mix(self.seed, STREAM_OPS, i))
    }

    /// One op through the figure harness: the six makespans.
    fn run(&self, cfg: &PointConfig) -> Result<Vec<f64>, String> {
        run_point(cfg, Variant::FaultNoRc, &self.variants)
            .map(|stats| stats.iter().map(|s| s.mean_makespan).collect())
            .map_err(|e| format!("run_point: {e}"))
    }
}

/// Checks the variants and runs the fixed warm-up.
fn setup(opts: &Opts) -> Result<Plan, String> {
    let plan = Plan::build(opts)?;
    for w in 0..opts.scale(WARMUP_OPS as usize, 1) as u64 {
        plan.run(&point(mix(WARMUP_SEED, STREAM_OPS, w)))?;
    }
    Ok(plan)
}

/// Times a policy's calls (a `policies.end` span per call).
#[derive(Debug)]
struct TimedEnd(Box<dyn EndPolicy>, &'static str);

impl EndPolicy for TimedEnd {
    fn on_task_end(&self, ctx: &mut HeuristicCtx<'_>) {
        let _s = trace::span("policies.end", self.1);
        self.0.on_task_end(ctx);
    }

    fn is_noop(&self) -> bool {
        self.0.is_noop()
    }
}

/// Times a policy's calls (a `policies.fault` span per call).
#[derive(Debug)]
struct TimedFault(Box<dyn FaultPolicy>, &'static str);

impl FaultPolicy for TimedFault {
    fn on_fault(&self, ctx: &mut HeuristicCtx<'_>, faulty: TaskId) {
        let _s = trace::span("policies.fault", self.1);
        self.0.on_fault(ctx, faulty);
    }

    fn is_noop(&self) -> bool {
        self.0.is_noop()
    }
}

/// The body of one `run_point` run, replayed through public functions so
/// that each stage gets a span and the policies can be wrapped.
/// `reference` runs the from-scratch reference policies instead.
fn replay(cfg: &PointConfig, reference: bool) -> Result<Vec<RunOutcome>, String> {
    let platform =
        Platform::with_mtbf(cfg.p, units::years(cfg.mtbf_years)).downtime(cfg.downtime);
    let (workload_seed, fault_seed) = run_seeds(cfg.base_seed, 0);
    let workload = {
        let _s = trace::span("experiments.generate", "");
        generate(&cfg.workload, workload_seed)
    };
    let fault_calc = {
        let _s = trace::span("model.calc_build", "fault");
        TimeCalc::new(workload.clone(), platform)
    };
    let ff_calc = {
        let _s = trace::span("model.calc_build", "fault_free");
        TimeCalc::fault_free(workload, platform)
    };
    VARIANTS
        .iter()
        .map(|&(label, h, faults)| {
            let (calc, mut ecfg) = if faults {
                (&fault_calc, EngineConfig::with_faults(fault_seed, platform.proc_mtbf))
            } else {
                (&ff_calc, EngineConfig::fault_free())
            };
            ecfg.reference_policies = reference;
            let _s = trace::span("core.run", label);
            run(
                calc,
                &TimedEnd(h.end_policy(), label),
                &TimedFault(h.fault_policy(), label),
                &ecfg,
            )
            .map_err(|e| format!("{label}: {e}"))
        })
        .collect()
}

/// Reruns the sampled ops on the reference policies and compares
/// makespans bit for bit. Returns the number of mismatches.
fn check(plan: &Plan, sampled: &[(u64, Vec<f64>)], notes: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for (i, makespans) in sampled {
        let same = replay(&plan.op(*i), true).is_ok_and(|outs| {
            outs.iter().map(|o| o.makespan.to_bits()).eq(makespans.iter().map(|m| m.to_bits()))
        });
        if !same {
            failed += 1;
            notes.push(format!("op {i}: reference-policy makespans differ"));
        }
    }
    notes.push(format!(
        "{} sampled ops rerun on reference policies, {failed} mismatches",
        sampled.len()
    ));
    failed
}

fn fold(digest: &mut Digest, i: u64, makespans: &[f64]) {
    digest.word(i);
    for m in makespans {
        digest.word(m.to_bits());
    }
}

/// Times one set-up into `out.setups_s`.
fn timed_setup(opts: &Opts, out: &mut Measured) -> Result<Plan, String> {
    let t = Instant::now();
    let plan = setup(opts)?;
    out.setups_s.push(t.elapsed().as_secs_f64());
    Ok(plan)
}

/// Untraced ops from index 0 until the window closes, with the remaining
/// set-ups spread through the window.
fn timed_ops(
    plan: &Plan,
    opts: &Opts,
    prefix: u64,
    out: &mut Measured,
) -> Result<Vec<(u64, Vec<f64>)>, String> {
    let setups = opts.scale(SETUPS, 1);
    let mut digest = Digest::default();
    let mut sampled = Vec::new();
    let mut window = Window::open(opts.seconds, prefix);
    let mut i = 0;
    while !window.done(i) {
        let due = out.setups_s.len() as f64 * opts.seconds / setups as f64;
        if out.setups_s.len() < setups && window.elapsed_s() >= due {
            window.exclude(|| timed_setup(opts, out).map(drop))?;
            continue;
        }
        let cfg = plan.op(i);
        let t = Instant::now();
        let result = plan.run(&cfg);
        out.record(&window, t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match result {
            Ok(makespans) if i < prefix => {
                fold(&mut digest, i, &makespans);
                if i.is_multiple_of(CHECK_EVERY) {
                    sampled.push((i, makespans));
                }
            }
            Ok(_) => {}
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("op {i}: {e}"));
            }
        }
        i += 1;
    }
    (out.wall_s, out.cpu_s) = window.close();
    out.digest = digest.value();
    out.digest_ops = prefix;
    // A window cut short by few ops still reports every set-up.
    while out.setups_s.len() < setups {
        timed_setup(opts, out)?;
    }
    Ok(sampled)
}

/// The untraced run.
pub fn measure(opts: &Opts) -> Result<Measured, String> {
    let mut out = Measured::default();
    let plan = timed_setup(opts, &mut out)?;
    let prefix = opts.scale(PREFIX_OPS as usize, 3) as u64;
    let sampled = timed_ops(&plan, opts, prefix, &mut out)?;
    out.failed += check(&plan, &sampled, &mut out.notes);
    Ok(out)
}

/// The traced pass. Each op runs twice: untraced through `run_point`,
/// then replayed with spans around generation, time-table builds, each
/// variant's engine run and every policy call. Alternating keeps host
/// drift out of the tracing overhead, and the two runs' makespans must
/// agree.
pub fn traced(opts: &Opts) -> Result<Layers, String> {
    let plan = setup(opts)?;
    let prefix = opts.scale(PREFIX_OPS as usize, 3) as u64;
    let mut layers = Layers::default();
    let mut plain_ms = Vec::new();
    let mut sampled = Vec::new();
    let mut digest = Digest::default();
    let (mut redistributions, mut handled, mut discarded) = (0u64, 0u64, 0u64);
    trace::begin();
    let window = Window::open(opts.seconds, prefix);
    let mut i = 0;
    while !window.done(i) {
        let cfg = plan.op(i);
        trace::set_op(i, false);
        let t = Instant::now();
        let plain = plan.run(&cfg);
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        trace::set_op(i, true);
        let replayed = {
            let _op = trace::span("campaign.op", "");
            replay(&cfg, false)
        };
        layers.attempted += 2;
        match (plain, replayed) {
            (Ok(makespans), Ok(outs))
                if outs
                    .iter()
                    .map(|o| o.makespan.to_bits())
                    .eq(makespans.iter().map(|m| m.to_bits())) =>
            {
                if i < prefix {
                    fold(&mut digest, i, &makespans);
                    if i.is_multiple_of(CHECK_EVERY) {
                        sampled.push((i, makespans));
                    }
                    for o in &outs {
                        redistributions += o.redistributions;
                        handled += o.handled_faults;
                        discarded += o.discarded_faults;
                    }
                }
            }
            (plain, replayed) => {
                layers.failed += 1;
                let replayed =
                    replayed.map(|outs| outs.iter().map(|o| o.makespan).collect::<Vec<_>>());
                layers
                    .notes
                    .push(format!("op {i}: run_point {plain:?}, traced replay {replayed:?}"));
            }
        }
        i += 1;
    }
    let _ = window.close();
    let t = trace::end();
    layers.failed += check(&plan, &sampled, &mut layers.notes);
    layers.notes.push(format!("digest {:016x} over the first {prefix} ops", digest.value()));

    let ops = i.max(1) as f64;
    let n = i as usize;
    let per_op = |ms: f64| ms / ops;
    let p = prefix as f64;
    let mut m = Vec::new();
    for &(label, h, faults) in &VARIANTS {
        if !h.end_policy().is_noop() {
            let v = per_op(t.total_ms("policies.end", Some(label)));
            m.push(Metric::new(format!("policies.end_ms.{label}"), v, "ms", n));
        }
        if faults && !h.fault_policy().is_noop() {
            let v = per_op(t.total_ms("policies.fault", Some(label)));
            m.push(Metric::new(format!("policies.fault_ms.{label}"), v, "ms", n));
        }
    }
    let end_calls = t.count_before("policies.end", None, prefix) as f64;
    let fault_calls = t.count_before("policies.fault", None, prefix) as f64;
    m.push(Metric::new("policies.end_calls", end_calls / p, "count", prefix as usize));
    m.push(Metric::new("policies.fault_calls", fault_calls / p, "count", prefix as usize));
    for &(label, _, _) in &VARIANTS {
        let v = per_op(t.total_ms("core.run", Some(label)));
        m.push(Metric::new(format!("core.run_ms.{label}"), v, "ms", n));
    }
    m.push(Metric::new("core.engine_self_ms", per_op(t.self_ms("core.run", None)), "ms", n));
    m.push(Metric::new(
        "core.redistributions",
        redistributions as f64 / p,
        "count",
        prefix as usize,
    ));
    m.push(Metric::new("sim.faults_handled", handled as f64 / p, "count", prefix as usize));
    m.push(Metric::new("sim.faults_discarded", discarded as f64 / p, "count", prefix as usize));
    let calls = (end_calls + fault_calls).max(1.0);
    m.push(Metric::new(
        "policies.commit_ratio",
        redistributions as f64 / calls,
        "ratio",
        prefix as usize,
    ));
    m.push(Metric::new(
        "experiments.generate_ms",
        per_op(t.total_ms("experiments.generate", None)),
        "ms",
        n,
    ));
    m.push(Metric::new(
        "model.calc_build_ms",
        per_op(t.total_ms("model.calc_build", None)),
        "ms",
        n,
    ));
    let traced_p50 = Samples::new(t.durations_ms("campaign.op", None)).median();
    let plain_p50 = Samples::new(plain_ms).median();
    m.push(Metric::new("trace.overhead_p50_ms.campaign", traced_p50 - plain_p50, "ms", n));
    layers.metrics = m;
    layers.trace = t;
    Ok(layers)
}
