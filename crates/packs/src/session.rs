//! Stepped execution of a pack partition — the offline counterpart of the
//! online `Session` API.
//!
//! A [`PackRunner`] is the builder (workload, platform, partition,
//! heuristic, fault seed); it yields a [`PackSession`] whose
//! [`step`](PackSession::step) executes one pack through the Algorithm 2
//! engine and reports a [`PackEvent`], with live inspection of the pack
//! cursor in between. [`run_to_completion`](PackSession::run_to_completion)
//! drains the remaining packs into the familiar
//! [`MultiPackOutcome`].

use redistrib_core::{run, EngineConfig, Heuristic, ScheduleError};
use redistrib_model::{ExecutionMode, Platform, TaskId, TimeCalc, Workload};

use crate::partition::{single_pack, PackPartition};
use crate::schedule::{pack_seed, MultiPackOutcome};

/// Builder of offline [`PackSession`]s.
#[derive(Debug, Clone)]
pub struct PackRunner {
    workload: Workload,
    platform: Platform,
    partition: PackPartition,
    heuristic: Heuristic,
    fault_seed: Option<u64>,
}

impl PackRunner {
    /// Starts a builder for the given workload and platform. Defaults:
    /// everything in one pack (the paper's setting), no redistribution,
    /// fault-free.
    #[must_use]
    pub fn new(workload: Workload, platform: Platform) -> Self {
        let n = workload.len();
        Self {
            workload,
            platform,
            partition: single_pack(n),
            heuristic: Heuristic::NoRedistribution,
            fault_seed: None,
        }
    }

    /// Sets the pack partition.
    ///
    /// # Panics
    /// Panics if the partition does not cover the workload.
    #[must_use]
    pub fn partition(mut self, partition: PackPartition) -> Self {
        assert!(partition.is_valid(self.workload.len()), "partition must cover the workload");
        self.partition = partition;
        self
    }

    /// Sets the redistribution heuristic run inside every pack.
    #[must_use]
    pub fn heuristic(mut self, heuristic: Heuristic) -> Self {
        self.heuristic = heuristic;
        self
    }

    /// Enables fault injection; pack `k` derives its own seed from
    /// `(seed, k)`.
    #[must_use]
    pub fn faults(mut self, seed: u64) -> Self {
        self.fault_seed = Some(seed);
        self
    }

    /// Disables fault injection.
    #[must_use]
    pub fn fault_free(mut self) -> Self {
        self.fault_seed = None;
        self
    }

    /// Whether sessions built here are fault-aware (unified with the
    /// online builder's marker).
    #[must_use]
    pub fn execution_mode(&self) -> ExecutionMode {
        if self.fault_seed.is_some() {
            ExecutionMode::FaultAware
        } else {
            ExecutionMode::FaultFree
        }
    }

    /// Builds the stepped session.
    #[must_use]
    pub fn session(self) -> PackSession {
        PackSession {
            runner: self,
            next: 0,
            outcome: MultiPackOutcome { makespan: 0.0, pack_outcomes: Vec::new() },
        }
    }
}

/// One executed pack, as reported by [`PackSession::step`].
#[derive(Debug, Clone, PartialEq)]
pub struct PackEvent {
    /// Pack index in execution order.
    pub pack: usize,
    /// Member task ids.
    pub tasks: Vec<TaskId>,
    /// Makespan of this pack alone.
    pub makespan: f64,
    /// Faults handled inside the pack.
    pub handled_faults: u64,
    /// Redistributions committed inside the pack.
    pub redistributions: u64,
}

/// Stepped execution over the packs of a partition, one engine run per
/// step.
#[derive(Debug)]
pub struct PackSession {
    runner: PackRunner,
    next: usize,
    outcome: MultiPackOutcome,
}

impl PackSession {
    /// Packs executed so far.
    #[must_use]
    pub fn packs_done(&self) -> usize {
        self.next
    }

    /// Total packs in the partition.
    #[must_use]
    pub fn pack_count(&self) -> usize {
        self.runner.partition.len()
    }

    /// Whether every pack has executed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.next >= self.runner.partition.len()
    }

    /// Accumulated makespan of the packs executed so far (packs are
    /// sequential: the sum of their makespans).
    #[must_use]
    pub fn makespan_so_far(&self) -> f64 {
        self.outcome.makespan
    }

    /// Member task ids of pack `k`.
    #[must_use]
    pub fn pack_tasks(&self, k: usize) -> Option<&[TaskId]> {
        self.runner.partition.packs.get(k).map(Vec::as_slice)
    }

    /// Executes the next pack through the Algorithm 2 engine and reports
    /// it. Returns `Ok(None)` once every pack has run.
    ///
    /// # Errors
    /// Propagates engine errors (e.g. a pack that does not fit on `p`).
    pub fn step(&mut self) -> Result<Option<PackEvent>, ScheduleError> {
        let k = self.next;
        let Some(pack) = self.runner.partition.packs.get(k) else {
            return Ok(None);
        };
        let sub = Workload::new(
            pack.iter().map(|&t| self.runner.workload.tasks[t].clone()).collect(),
            self.runner.workload.speedup.clone(),
        );
        let platform = self.runner.platform;
        let (calc, cfg) = match self.runner.fault_seed {
            Some(seed) => (
                TimeCalc::new(sub, platform),
                EngineConfig::with_faults(pack_seed(seed, k), platform.proc_mtbf),
            ),
            None => (TimeCalc::fault_free(sub, platform), EngineConfig::fault_free()),
        };
        let h = self.runner.heuristic;
        let out = run(&calc, &*h.end_policy(), &*h.fault_policy(), &cfg)?;
        self.next += 1;
        self.outcome.makespan += out.makespan;
        let event = PackEvent {
            pack: k,
            tasks: pack.clone(),
            makespan: out.makespan,
            handled_faults: out.handled_faults,
            redistributions: out.redistributions,
        };
        self.outcome.pack_outcomes.push(out);
        Ok(Some(event))
    }

    /// Drains the remaining packs and returns the combined outcome.
    ///
    /// # Errors
    /// Propagates [`PackSession::step`] errors.
    pub fn run_to_completion(mut self) -> Result<MultiPackOutcome, ScheduleError> {
        while self.step()?.is_some() {}
        Ok(self.outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::chunk_by_capacity;
    use redistrib_model::{PaperModel, TaskSpec};
    use redistrib_sim::units;
    use std::sync::Arc;

    fn workload(sizes: &[f64]) -> Workload {
        Workload::new(
            sizes.iter().map(|&m| TaskSpec::new(m)).collect(),
            Arc::new(PaperModel::default()),
        )
    }

    #[test]
    fn stepping_executes_packs_in_order() {
        let w = workload(&[2e5, 1.5e5, 1.8e5, 1.2e5]);
        let plat = Platform::with_mtbf(4, units::years(5.0));
        let part = chunk_by_capacity(&w, 4);
        let total = part.len();
        let mut session = PackRunner::new(w, plat)
            .partition(part)
            .heuristic(Heuristic::EndLocalOnly)
            .faults(7)
            .session();
        assert_eq!(session.pack_count(), total);
        let mut seen = 0;
        while let Some(event) = session.step().unwrap() {
            assert_eq!(event.pack, seen);
            assert!(event.makespan > 0.0);
            seen += 1;
            assert_eq!(session.packs_done(), seen);
        }
        assert_eq!(seen, total);
        assert!(session.is_done());
        assert!(session.makespan_so_far() > 0.0);
    }

    #[test]
    fn execution_mode_marker() {
        let w = workload(&[2e5, 1.5e5]);
        let plat = Platform::new(8);
        assert_eq!(PackRunner::new(w.clone(), plat).execution_mode(), ExecutionMode::FaultFree);
        assert_eq!(
            PackRunner::new(w, plat).faults(1).execution_mode(),
            ExecutionMode::FaultAware
        );
    }

    #[test]
    #[should_panic(expected = "partition must cover")]
    fn builder_rejects_incomplete_partition() {
        let w = workload(&[2e5, 1.5e5]);
        let bad = PackPartition { packs: vec![vec![0]] };
        let _ = PackRunner::new(w, Platform::new(4)).partition(bad);
    }
}
