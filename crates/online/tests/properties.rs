//! Property-based tests of the online co-scheduler: processor
//! conservation, no lost jobs, and determinism — over randomized arrival
//! streams, platforms, strategies and fault seeds.

use std::sync::Arc;

use proptest::prelude::*;

use redistrib_core::Heuristic;
use redistrib_model::{PaperModel, Platform};
use redistrib_online::{
    generate_jobs, BurstyArrivals, JobSizeModel, OnlineConfig, OnlineOutcome, OnlineStrategy,
    PackStaging, PoissonArrivals, Scheduler,
};
use redistrib_sim::trace::TraceEvent;
use redistrib_sim::units;

/// The first four strategies are exact policy combinations (safe for the
/// incremental ≡ reference equivalence tests); the fifth is the opt-in
/// *approximate* WarmGreedy variant — covered by the conservation,
/// completion and determinism properties, but deliberately excluded from
/// reference-equality assertions (it is allowed to decide differently).
const STRATEGIES: [fn() -> OnlineStrategy; 5] = [
    OnlineStrategy::no_resize,
    || OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal),
    || OnlineStrategy::resizing(Heuristic::ShortestTasksFirstEndGreedy),
    || OnlineStrategy::resizing(Heuristic::IteratedGreedyEndGreedy),
    || OnlineStrategy::resizing(Heuristic::WarmGreedy),
];

/// Strategies with exact reference counterparts (see [`STRATEGIES`]).
const EXACT_STRATEGIES: usize = 4;

fn run_case(
    seed: u64,
    n_jobs: usize,
    p: u32,
    mtbf_years: f64,
    strategy: &OnlineStrategy,
) -> OnlineOutcome {
    let mut arrivals = PoissonArrivals::new(seed, 5_000.0);
    let jobs = generate_jobs(&mut arrivals, n_jobs, &JobSizeModel::paper_default(), seed);
    let platform = Platform::with_mtbf(p, units::years(mtbf_years));
    Scheduler::on(platform)
        .speedup(Arc::new(PaperModel::default()))
        .strategy(*strategy)
        .config(OnlineConfig::with_faults(seed ^ 0xFA17, platform.proc_mtbf).recording())
        .run(&jobs)
        .expect("run completes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Processor conservation, replayed *from the event log alone*: summing
    /// allocations over job_start / redistribution / task_end records never
    /// exceeds `p`, and every allocation stays even and ≥ 2 while running.
    #[test]
    fn allocations_never_exceed_platform(
        seed in any::<u64>(),
        n_jobs in 3..10usize,
        extra_pairs in 0..12u32,
        strategy_idx in 0..STRATEGIES.len(),
    ) {
        let p = 8 + 2 * extra_pairs;
        let out = run_case(seed, n_jobs, p, 6.0, &STRATEGIES[strategy_idx]());
        let mut alloc: Vec<u32> = vec![0; n_jobs];
        let mut last_time = 0.0f64;
        for e in out.trace.events() {
            // The log is globally time-ordered, so the event-order sum
            // below is also the wall-clock processor usage.
            prop_assert!(e.time() >= last_time, "trace went back in time");
            last_time = e.time();
            match *e {
                TraceEvent::JobStart { job, alloc: a, .. } => {
                    prop_assert_eq!(alloc[job], 0, "job started twice");
                    prop_assert!(a >= 2 && a % 2 == 0, "odd or empty start alloc {}", a);
                    alloc[job] = a;
                }
                TraceEvent::Redistribution { task, from, to, .. } => {
                    prop_assert_eq!(alloc[task], from, "redistribution from stale alloc");
                    prop_assert!(to >= 2 && to % 2 == 0, "odd target alloc {}", to);
                    alloc[task] = to;
                }
                TraceEvent::TaskEnd { task, .. } => {
                    prop_assert!(alloc[task] > 0, "completion of a never-started job");
                    alloc[task] = 0;
                }
                _ => {}
            }
            let used: u32 = alloc.iter().sum();
            prop_assert!(used <= p, "over-allocation: {} of {}", used, p);
        }
        prop_assert!(alloc.iter().all(|&a| a == 0), "processors leaked at the end");
    }

    /// No lost jobs: every submitted job arrives, starts after its release,
    /// and completes after its start — whatever the strategy and fault
    /// pressure.
    #[test]
    fn every_arrival_eventually_completes(
        seed in any::<u64>(),
        n_jobs in 2..9usize,
        mtbf_years in 2.0..50.0f64,
        strategy_idx in 0..STRATEGIES.len(),
    ) {
        let out = run_case(seed, n_jobs, 16, mtbf_years, &STRATEGIES[strategy_idx]());
        prop_assert_eq!(out.jobs.len(), n_jobs);
        let arrivals = out
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::JobArrival { .. }))
            .count();
        let ends = out
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::TaskEnd { .. }))
            .count();
        prop_assert_eq!(arrivals, n_jobs);
        prop_assert_eq!(ends, n_jobs);
        for j in &out.jobs {
            prop_assert!(j.start >= j.release, "job {} started early", j.job);
            prop_assert!(j.completion > j.start, "job {} never ran", j.job);
            prop_assert!(j.stretch() >= 1.0 - 1e-9,
                "job {} beat its dedicated-platform reference: {}", j.job, j.stretch());
        }
        prop_assert!(out.makespan >= out.jobs.iter().map(|j| j.completion).fold(0.0, f64::max));
    }

    /// The event log stays in time order, for every strategy, under flat
    /// FIFO and staged admission. This pins the online engine's window-end
    /// mode: completing the jobs that end inside a recovery window at the
    /// fault, as the static engine does, would log their ends ahead of
    /// events due earlier, such as a job starting on processors they still
    /// hold.
    #[test]
    fn trace_times_never_decrease(
        seed in any::<u64>(),
        p_idx in 0..3usize,
        mtbf_years in 1.0..4.0f64,
    ) {
        let p = [16u32, 24, 40][p_idx];
        // Bursts of p/2 + 1 jobs oversubscribe an idle platform, so the
        // staged sessions really stage.
        let mut arrivals = BurstyArrivals::new(seed, p as usize / 2 + 1, 20_000.0);
        let jobs = generate_jobs(&mut arrivals, 24, &JobSizeModel::paper_default(), seed);
        let platform = Platform::with_mtbf(p, units::years(mtbf_years));
        let cfg = OnlineConfig::with_faults(seed ^ 0xFA17, platform.proc_mtbf).recording();
        for strategy in STRATEGIES {
            for staging in [PackStaging::FlatFifo, PackStaging::oversubscribed()] {
                let out = Scheduler::on(platform)
                    .speedup(Arc::new(PaperModel::default()))
                    .strategy(strategy())
                    .config(cfg)
                    .staging(staging)
                    .run(&jobs)
                    .expect("run completes");
                let mut last = 0.0f64;
                for e in out.trace.events() {
                    prop_assert!(e.time() >= last, "{:?} logged after an event at {}", e, last);
                    last = e.time();
                }
            }
        }
    }

    /// Determinism: the same seed produces a byte-identical event log; the
    /// metrics follow.
    #[test]
    fn same_seed_same_event_log(
        seed in any::<u64>(),
        strategy_idx in 0..STRATEGIES.len(),
    ) {
        let strategy = STRATEGIES[strategy_idx]();
        let a = run_case(seed, 6, 20, 5.0, &strategy);
        let b = run_case(seed, 6, 20, 5.0, &strategy);
        prop_assert_eq!(a.trace.to_csv(), b.trace.to_csv());
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.handled_faults, b.handled_faults);
        prop_assert_eq!(a.redistributions, b.redistributions);
        prop_assert_eq!(a.metrics.mean_stretch, b.metrics.mean_stretch);
        prop_assert_eq!(a.metrics.utilization, b.metrics.utilization);
    }

    /// The fault trace is strategy-independent: the set of fault times the
    /// platform generates does not depend on scheduling decisions (handled
    /// + discarded counts may differ per strategy, but the underlying
    /// stream replays identically, so two runs of the *same* strategy on
    /// different job streams share no state).
    #[test]
    fn utilization_is_a_fraction(seed in any::<u64>(), strategy_idx in 0..STRATEGIES.len()) {
        let out = run_case(seed, 5, 12, 8.0, &STRATEGIES[strategy_idx]());
        prop_assert!(out.metrics.utilization > 0.0);
        prop_assert!(out.metrics.utilization <= 1.0 + 1e-9,
            "utilization {} above 1", out.metrics.utilization);
    }

    /// Incremental ≡ reference on the online engine: arrival, completion
    /// and fault decisions through the live-view policy paths produce the
    /// same event log as the materialized-list reference paths, over
    /// random arrival streams, platforms and strategies.
    #[test]
    fn incremental_equals_reference_online(
        seed in any::<u64>(),
        n_jobs in 2..10usize,
        extra_pairs in 0..10u32,
        mtbf_years in 2.0..12.0f64,
        strategy_idx in 0..EXACT_STRATEGIES,
    ) {
        let p = 8 + 2 * extra_pairs;
        let strategy = STRATEGIES[strategy_idx]();
        let mut arrivals = PoissonArrivals::new(seed, 5_000.0);
        let jobs = generate_jobs(&mut arrivals, n_jobs, &JobSizeModel::paper_default(), seed);
        let platform = Platform::with_mtbf(p, units::years(mtbf_years));
        let base = OnlineConfig::with_faults(seed ^ 0xFA17, platform.proc_mtbf).recording();
        let speedup = Arc::new(PaperModel::default());
        let a = Scheduler::on(platform)
            .speedup(speedup.clone())
            .strategy(strategy)
            .config(base)
            .run(&jobs)
            .expect("incremental run completes");
        let reference = OnlineConfig { reference_policies: true, ..base };
        let b = Scheduler::on(platform)
            .speedup(speedup)
            .strategy(strategy)
            .config(reference)
            .run(&jobs)
            .expect("reference run completes");
        prop_assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        prop_assert_eq!(a.handled_faults, b.handled_faults);
        prop_assert_eq!(a.discarded_faults, b.discarded_faults);
        prop_assert_eq!(a.redistributions, b.redistributions);
        prop_assert_eq!(a.trace.to_csv(), b.trace.to_csv(), "online event logs diverge");
    }

    /// Greedy policies on the online engine under fault/completion storms:
    /// the live eligible view admits exactly the jobs of the listed one.
    /// Both run the same exact reset, so only the participant query
    /// differs; a short MTBF drives dense rollback / arrival-rebalance /
    /// completion interleavings through the view's membership filters
    /// (protected window, recovery anchor, skipped faulty job).
    #[test]
    fn greedy_live_eligibility_equals_listed_online_storms(
        seed in any::<u64>(),
        n_jobs in 2..8usize,
        extra_pairs in 0..8u32,
        mtbf_years in 0.5..3.0f64,
        greedy_idx in 0..2usize,
    ) {
        let p = 8 + 2 * extra_pairs;
        let strategy = [
            OnlineStrategy::resizing(Heuristic::IteratedGreedyEndGreedy),
            OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal),
        ][greedy_idx];
        let mut arrivals = PoissonArrivals::new(seed, 3_000.0);
        let jobs = generate_jobs(&mut arrivals, n_jobs, &JobSizeModel::paper_default(), seed);
        let platform = Platform::with_mtbf(p, units::years(mtbf_years));
        let base = OnlineConfig::with_faults(seed ^ 0x57_0431, platform.proc_mtbf).recording();
        let speedup = Arc::new(PaperModel::default());
        let a = Scheduler::on(platform)
            .speedup(speedup.clone())
            .strategy(strategy)
            .config(base)
            .run(&jobs)
            .expect("incremental run completes");
        let reference = OnlineConfig { reference_policies: true, ..base };
        let b = Scheduler::on(platform)
            .speedup(speedup)
            .strategy(strategy)
            .config(reference)
            .run(&jobs)
            .expect("reference run completes");
        prop_assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        prop_assert_eq!(a.redistributions, b.redistributions);
        prop_assert_eq!(a.trace.to_csv(), b.trace.to_csv(), "storm event logs diverge");
    }
}
