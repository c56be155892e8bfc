//! Snapshot/restore round-trip properties: interrupting a session at an
//! arbitrary event boundary, snapshotting, and resuming from the snapshot
//! must replay the *byte-identical* remaining run — same trace CSV, same
//! makespan bits — across the full strategy × staging × fault grid,
//! including the approximate WarmGreedy variant (approximate decisions
//! are still deterministic, so the replay contract holds for it too).

use std::sync::Arc;

use proptest::prelude::*;

use redistrib_core::{Heuristic, ScheduleError};
use redistrib_model::{JobSpec, PaperModel, Platform, TaskSpec};
use redistrib_online::{
    generate_jobs, JobSizeModel, OnlineConfig, OnlineStrategy, PackPartitioner, PackStaging,
    PoissonArrivals, Scheduler, Session,
};
use redistrib_sim::units;

const STRATEGIES: [fn() -> OnlineStrategy; 8] = [
    OnlineStrategy::no_resize,
    || OnlineStrategy::resizing(Heuristic::IteratedGreedyEndGreedy),
    || OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal),
    || OnlineStrategy::resizing(Heuristic::ShortestTasksFirstEndGreedy),
    || OnlineStrategy::resizing(Heuristic::ShortestTasksFirstEndLocal),
    || OnlineStrategy::resizing(Heuristic::EndLocalOnly),
    || OnlineStrategy::resizing(Heuristic::EndGreedyOnly),
    || OnlineStrategy::resizing(Heuristic::WarmGreedy),
];

fn build(
    seed: u64,
    n_jobs: usize,
    p: u32,
    strategy: OnlineStrategy,
    staged: bool,
    faulty: bool,
    reference: bool,
) -> Session {
    let mut arrivals = PoissonArrivals::new(seed, 5_000.0);
    let jobs = generate_jobs(&mut arrivals, n_jobs, &JobSizeModel::paper_default(), seed);
    let platform = Platform::with_mtbf(p, units::years(8.0));
    let mut config = if faulty {
        OnlineConfig::with_faults(seed ^ 0xFA17, platform.proc_mtbf).recording()
    } else {
        OnlineConfig::fault_free().recording()
    };
    config.reference_policies = reference;
    let staging = if staged {
        PackStaging::Oversubscribed { partitioner: PackPartitioner::LptBalanced }
    } else {
        PackStaging::FlatFifo
    };
    Scheduler::on(platform)
        .speedup(Arc::new(PaperModel::default()))
        .strategy(strategy)
        .config(config)
        .staging(staging)
        .session(&jobs)
        .expect("session builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Interrupt anywhere, resume, finish: the full trace (prefix recorded
    /// before the snapshot + replayed suffix) is byte-identical to the
    /// uninterrupted run, and the makespan matches to the bit.
    #[test]
    fn resumed_session_replays_byte_identically(
        seed in any::<u64>(),
        n_jobs in 2usize..10,
        p in 4u32..40,
        strategy_idx in 0usize..STRATEGIES.len(),
        cut in 0u64..60,
        staged in any::<bool>(),
        faulty in any::<bool>(),
        reference in any::<bool>(),
    ) {
        let strategy = STRATEGIES[strategy_idx]();
        let baseline = build(seed, n_jobs, p, strategy, staged, faulty, reference)
            .run_to_completion()
            .expect("baseline run completes");

        let mut session = build(seed, n_jobs, p, strategy, staged, faulty, reference);
        let mut taken = 0;
        while taken < cut && !session.is_done() {
            session.step().expect("prefix step");
            taken += 1;
        }
        let snap = session.snapshot();
        let resumed = Session::resume(snap, Arc::new(PaperModel::default()))
            .expect("snapshot passes resume validation")
            .run_to_completion()
            .expect("resumed run completes");

        prop_assert_eq!(resumed.trace.to_csv(), baseline.trace.to_csv());
        prop_assert_eq!(resumed.makespan.to_bits(), baseline.makespan.to_bits());
        prop_assert_eq!(resumed.redistributions, baseline.redistributions);
        prop_assert_eq!(resumed.handled_faults, baseline.handled_faults);
        prop_assert_eq!(resumed.discarded_faults, baseline.discarded_faults);
        prop_assert_eq!(resumed.packs, baseline.packs);

        // The interrupted original, driven on, agrees too.
        let continued = session.run_to_completion().expect("continued run completes");
        prop_assert_eq!(continued.trace.to_csv(), baseline.trace.to_csv());
        prop_assert_eq!(continued.makespan.to_bits(), baseline.makespan.to_bits());
    }

    /// Snapshots compose: snapshotting a *resumed* session and resuming
    /// again still replays the identical run (no state is lost across
    /// generations of snapshots).
    #[test]
    fn double_snapshot_still_replays(
        seed in any::<u64>(),
        n_jobs in 2usize..8,
        p in 4u32..24,
        strategy_idx in 0usize..STRATEGIES.len(),
        first_cut in 0u64..20,
        second_cut in 0u64..20,
    ) {
        let strategy = STRATEGIES[strategy_idx]();
        let baseline = build(seed, n_jobs, p, strategy, false, true, false)
            .run_to_completion()
            .expect("baseline run completes");

        let mut session = build(seed, n_jobs, p, strategy, false, true, false);
        let mut taken = 0;
        while taken < first_cut && !session.is_done() {
            session.step().expect("first prefix step");
            taken += 1;
        }
        let mut resumed = Session::resume(session.snapshot(), Arc::new(PaperModel::default()))
            .expect("first resume");
        taken = 0;
        while taken < second_cut && !resumed.is_done() {
            resumed.step().expect("second prefix step");
            taken += 1;
        }
        let finished = Session::resume(resumed.snapshot(), Arc::new(PaperModel::default()))
            .expect("second resume")
            .run_to_completion()
            .expect("final run completes");

        prop_assert_eq!(finished.trace.to_csv(), baseline.trace.to_csv());
        prop_assert_eq!(finished.makespan.to_bits(), baseline.makespan.to_bits());
    }
}

/// Mid-run submission survives the snapshot boundary: submitting after
/// resume behaves exactly like submitting into the uninterrupted session.
#[test]
fn submission_after_resume_matches_uninterrupted() {
    let late_job = JobSpec { task: TaskSpec { size: 6_000.0, ckpt_unit: 1.0 }, release: 1.0e7 };

    let strategy = OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal);
    let mut baseline = build(7, 5, 16, strategy, false, true, false);
    for _ in 0..4 {
        baseline.step().unwrap();
    }
    baseline.submit(std::slice::from_ref(&late_job)).unwrap();
    let baseline = baseline.run_to_completion().unwrap();

    let mut session = build(7, 5, 16, strategy, false, true, false);
    for _ in 0..4 {
        session.step().unwrap();
    }
    let mut resumed =
        Session::resume(session.snapshot(), Arc::new(PaperModel::default())).unwrap();
    resumed.submit(std::slice::from_ref(&late_job)).unwrap();
    let resumed = resumed.run_to_completion().unwrap();

    assert_eq!(resumed.trace.to_csv(), baseline.trace.to_csv());
    assert_eq!(resumed.makespan.to_bits(), baseline.makespan.to_bits());
    assert_eq!(resumed.jobs.len(), 6);
}

/// `sigma_hi` is the policies' upper bound on every allocation (EndLocal
/// and STF prune on it), so a restored value below a held allocation would
/// silently drop improving moves: resume must refuse it.
#[test]
fn resume_rejects_sigma_hi_below_an_allocation() {
    let strategy = OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal);
    let mut session = build(3, 4, 32, strategy, false, true, false);
    while session.snapshot().state.task_procs.iter().all(Vec::is_empty) {
        session.step().unwrap();
    }
    let mut snap = session.snapshot();
    snap.state.sigma_hi = 0;
    let err = Session::resume(snap, Arc::new(PaperModel::default())).unwrap_err();
    assert!(matches!(err, ScheduleError::CorruptSnapshot { .. }), "{err}");
}
