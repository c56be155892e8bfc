//! Sequential execution of a pack partition on the resilient engine: the
//! outcome type and per-pack fault seeds behind
//! [`PackRunner`](crate::PackRunner).
//!
//! Packs run one after the other: pack `k + 1` starts when the last task of
//! pack `k` completes. Each pack is executed by the Algorithm 2 engine with
//! its own derived fault seed. Restarting the per-processor fault streams
//! at pack boundaries is *exactly* distribution-preserving for the paper's
//! exponential law (memorylessness); for Weibull/log-normal extensions it
//! is an approximation, noted here.

use redistrib_core::RunOutcome;
use redistrib_model::{Platform, Workload};
use redistrib_sim::rng::SplitMix64;

/// Outcome of executing a full partition.
#[derive(Debug, Clone)]
pub struct MultiPackOutcome {
    /// Total makespan (sum of pack makespans — packs are sequential).
    pub makespan: f64,
    /// Per-pack outcomes, in execution order.
    pub pack_outcomes: Vec<RunOutcome>,
}

impl MultiPackOutcome {
    /// Total handled faults across packs.
    #[must_use]
    pub fn handled_faults(&self) -> u64 {
        self.pack_outcomes.iter().map(|o| o.handled_faults).sum()
    }

    /// Total committed redistributions across packs.
    #[must_use]
    pub fn redistributions(&self) -> u64 {
        self.pack_outcomes.iter().map(|o| o.redistributions).sum()
    }
}

/// Fault seed of pack `k`, derived from the partition-level `seed`: packs
/// replay independent fault streams in the stepped
/// [`PackSession`](crate::PackSession).
#[must_use]
pub fn pack_seed(seed: u64, k: usize) -> u64 {
    SplitMix64::new(seed ^ (k as u64).wrapping_mul(0x517C_C1B7_2722_0A95)).next_u64()
}

/// Convenience: true when the whole workload fits in one pack on `p`
/// processors (buddy checkpointing: two per task).
#[must_use]
pub fn fits_single_pack(workload: &Workload, platform: Platform) -> bool {
    2 * workload.len() as u64 <= u64::from(platform.num_procs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{chunk_by_capacity, dp_consecutive, single_pack, PackPartition};
    use crate::session::PackRunner;
    use redistrib_core::{run, EngineConfig, Heuristic, ScheduleError};
    use redistrib_model::{PaperModel, TaskSpec, TimeCalc};
    use redistrib_sim::units;
    use std::sync::Arc;

    fn workload(sizes: &[f64]) -> Workload {
        Workload::new(
            sizes.iter().map(|&m| TaskSpec::new(m)).collect(),
            Arc::new(PaperModel::default()),
        )
    }

    fn platform(p: u32) -> Platform {
        Platform::with_mtbf(p, units::years(5.0))
    }

    /// Runs `part` through the stepped pack session.
    fn run_packs(
        w: &Workload,
        plat: Platform,
        part: &PackPartition,
        heuristic: Heuristic,
        fault_seed: Option<u64>,
    ) -> Result<MultiPackOutcome, ScheduleError> {
        let mut runner =
            PackRunner::new(w.clone(), plat).partition(part.clone()).heuristic(heuristic);
        if let Some(seed) = fault_seed {
            runner = runner.faults(seed);
        }
        runner.session().run_to_completion()
    }

    #[test]
    fn single_pack_matches_direct_engine_run() {
        let w = workload(&[2e5, 1.5e5, 1.8e5]);
        let plat = platform(12);
        let part = single_pack(3);
        let multi =
            run_packs(&w, plat, &part, Heuristic::IteratedGreedyEndLocal, Some(9)).unwrap();
        assert_eq!(multi.pack_outcomes.len(), 1);
        // Direct engine run with the derived pack-0 seed must agree.
        let pack_seed = SplitMix64::new(9u64).next_u64();
        let calc = TimeCalc::new(w, plat);
        let h = Heuristic::IteratedGreedyEndLocal;
        let direct = run(
            &calc,
            &*h.end_policy(),
            &*h.fault_policy(),
            &EngineConfig::with_faults(pack_seed, plat.proc_mtbf),
        )
        .unwrap();
        assert_eq!(multi.makespan, direct.makespan);
        assert_eq!(multi.handled_faults(), direct.handled_faults);
    }

    #[test]
    fn partitioning_unlocks_oversubscribed_workloads() {
        // 8 tasks on 8 processors: single pack needs 16 > 8 → error;
        // capacity chunking makes it feasible.
        let sizes = vec![2e5; 8];
        let w = workload(&sizes);
        let plat = platform(8);
        assert!(!fits_single_pack(&w, plat));
        let single = run_packs(&w, plat, &single_pack(8), Heuristic::NoRedistribution, Some(1));
        assert!(single.is_err());
        let part = chunk_by_capacity(&w, 8);
        let multi = run_packs(&w, plat, &part, Heuristic::NoRedistribution, Some(1)).unwrap();
        assert!(multi.makespan > 0.0);
        assert_eq!(multi.pack_outcomes.len(), 2);
    }

    #[test]
    fn fault_free_partition_runs() {
        let w = workload(&[2e5, 1.5e5, 1.8e5, 1.2e5]);
        let part = chunk_by_capacity(&w, 4);
        let out = run_packs(&w, platform(4), &part, Heuristic::EndLocalOnly, None).unwrap();
        assert!(out.makespan > 0.0);
        assert_eq!(out.handled_faults(), 0);
    }

    #[test]
    fn makespan_is_sum_of_pack_makespans() {
        let w = workload(&[2e5, 1.5e5, 1.8e5, 1.2e5]);
        let part = chunk_by_capacity(&w, 4);
        let out =
            run_packs(&w, platform(4), &part, Heuristic::NoRedistribution, Some(3)).unwrap();
        let sum: f64 = out.pack_outcomes.iter().map(|o| o.makespan).sum();
        assert!((out.makespan - sum).abs() < 1e-9);
    }

    #[test]
    fn dp_partition_executes_end_to_end() {
        let w = workload(&[2.4e5, 2.1e5, 1.9e5, 1.6e5, 1.4e5]);
        let plat = platform(6);
        let part = dp_consecutive(&w, plat, 3, true).unwrap();
        let out =
            run_packs(&w, plat, &part, Heuristic::IteratedGreedyEndLocal, Some(5)).unwrap();
        assert!(out.makespan.is_finite());
        assert_eq!(out.pack_outcomes.len(), part.len(), "one engine run per pack");
    }

    #[test]
    fn deterministic() {
        let w = workload(&[2e5, 1.5e5, 1.8e5, 1.2e5, 2.2e5]);
        let plat = platform(6);
        let part = chunk_by_capacity(&w, 6);
        let a =
            run_packs(&w, plat, &part, Heuristic::ShortestTasksFirstEndLocal, Some(8)).unwrap();
        let b =
            run_packs(&w, plat, &part, Heuristic::ShortestTasksFirstEndLocal, Some(8)).unwrap();
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    #[should_panic(expected = "partition must cover")]
    fn rejects_incomplete_partition() {
        let w = workload(&[2e5, 1.5e5]);
        let bad = PackPartition { packs: vec![vec![0]] };
        let _ = run_packs(&w, platform(4), &bad, Heuristic::NoRedistribution, None);
    }
}
