//! The [`Scheduler`] builder: one place to configure platform, speedup
//! profile, redistribution strategy, fault injection, recording flags and
//! multi-pack staging, yielding stepped [`Session`]s over any job stream.
//!
//! ```
//! use std::sync::Arc;
//! use redistrib_core::Heuristic;
//! use redistrib_model::{PaperModel, Platform};
//! use redistrib_online::{
//!     generate_jobs, JobSizeModel, OnlineStrategy, PoissonArrivals, Scheduler,
//! };
//!
//! let mut arrivals = PoissonArrivals::new(42, 20_000.0);
//! let jobs = generate_jobs(&mut arrivals, 10, &JobSizeModel::paper_default(), 42);
//! let platform = Platform::new(32);
//!
//! let outcome = Scheduler::on(platform)
//!     .speedup(Arc::new(PaperModel::default()))
//!     .strategy(OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal))
//!     .faults(7, platform.proc_mtbf)
//!     .session(&jobs)
//!     .unwrap()
//!     .run_to_completion()
//!     .unwrap();
//! assert_eq!(outcome.jobs.len(), 10);
//! ```

use std::sync::Arc;

use redistrib_core::{FaultConfig, Heuristic, ScheduleError};
use redistrib_model::{
    ExecutionMode, JobSpec, PaperModel, Platform, SpeedupModel, TimeCalc, Workload,
};
use redistrib_sim::dist::FaultLaw;
use redistrib_sim::faults::FaultSource;

use crate::arrival::{generate_jobs, ArrivalProcess, JobSizeModel};
use crate::packset::{PackSetState, PackStaging};
use crate::session::{OnlineOutcome, Session};

/// Resizing strategy of the online scheduler: which static-engine policies
/// run at completion and fault events, and whether arrivals trigger a
/// global rebalance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnlineStrategy {
    /// Policy combination reused from the static engine (`end_policy()`
    /// runs at completions, `fault_policy()` at faults).
    pub heuristic: Heuristic,
    /// Whether arrivals trigger a greedy rebuild of the running set.
    pub rebalance_on_arrival: bool,
}

impl OnlineStrategy {
    /// Baseline: allocations never change after a job starts.
    #[must_use]
    pub fn no_resize() -> Self {
        Self { heuristic: Heuristic::NoRedistribution, rebalance_on_arrival: false }
    }

    /// Full malleable resizing with the given heuristic combination plus
    /// arrival-time rebalancing.
    #[must_use]
    pub fn resizing(heuristic: Heuristic) -> Self {
        Self { heuristic, rebalance_on_arrival: true }
    }

    /// Display name.
    #[must_use]
    pub fn name(&self) -> String {
        if self.rebalance_on_arrival {
            format!("{}+arrival", self.heuristic.name())
        } else {
            self.heuristic.name().to_string()
        }
    }
}

/// Engine configuration (mirrors the static `EngineConfig`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Fault injection; `None` simulates a failure-free platform.
    pub faults: Option<FaultConfig>,
    /// Record the full event trace.
    pub record_trace: bool,
    /// Run the policies through the from-scratch reference path (an
    /// eligible list materialized per event) instead of the incremental
    /// live view. Slower; kept for equivalence testing — outcomes are
    /// byte-identical by construction.
    pub reference_policies: bool,
    /// Safety cap on processed events.
    pub max_events: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            faults: None,
            record_trace: false,
            reference_policies: false,
            max_events: 100_000_000,
        }
    }
}

impl OnlineConfig {
    /// Failure-free configuration.
    #[must_use]
    pub fn fault_free() -> Self {
        Self::default()
    }

    /// Exponential faults with the given per-processor MTBF (seconds),
    /// seeded for replay.
    #[must_use]
    pub fn with_faults(seed: u64, proc_mtbf: f64) -> Self {
        Self {
            faults: Some(FaultConfig { seed, law: FaultLaw::Exponential { mtbf: proc_mtbf } }),
            ..Self::default()
        }
    }

    /// Enables trace recording.
    #[must_use]
    pub fn recording(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Whether runs under this configuration are fault-aware (unified with
    /// the multi-pack `execution_mode` marker of `redistrib-packs`).
    #[must_use]
    pub fn execution_mode(&self) -> ExecutionMode {
        if self.faults.is_some() {
            ExecutionMode::FaultAware
        } else {
            ExecutionMode::FaultFree
        }
    }
}

/// Builder of online [`Session`]s: platform, speedup profile,
/// redistribution strategy, fault injection, recording flags and pack
/// staging, assembled once and reusable across job streams.
#[derive(Debug, Clone)]
pub struct Scheduler {
    platform: Platform,
    speedup: Arc<dyn SpeedupModel>,
    strategy: OnlineStrategy,
    config: OnlineConfig,
    staging: PackStaging,
}

impl Scheduler {
    /// Starts a builder for the given platform. Defaults: the paper's
    /// speedup profile, the no-resize strategy, a fault-free
    /// non-recording configuration, flat-FIFO admission.
    #[must_use]
    pub fn on(platform: Platform) -> Self {
        Self {
            platform,
            speedup: Arc::new(PaperModel::default()),
            strategy: OnlineStrategy::no_resize(),
            config: OnlineConfig::default(),
            staging: PackStaging::FlatFifo,
        }
    }

    /// Sets the speedup profile shared by all jobs.
    #[must_use]
    pub fn speedup(mut self, speedup: Arc<dyn SpeedupModel>) -> Self {
        self.speedup = speedup;
        self
    }

    /// Sets the resizing strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: OnlineStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Replaces the whole engine configuration.
    #[must_use]
    pub fn config(mut self, config: OnlineConfig) -> Self {
        self.config = config;
        self
    }

    /// Enables exponential fault injection (per-processor MTBF in seconds,
    /// seeded for replay).
    #[must_use]
    pub fn faults(mut self, seed: u64, proc_mtbf: f64) -> Self {
        self.config.faults =
            Some(FaultConfig { seed, law: FaultLaw::Exponential { mtbf: proc_mtbf } });
        self
    }

    /// Disables fault injection.
    #[must_use]
    pub fn fault_free(mut self) -> Self {
        self.config.faults = None;
        self
    }

    /// Enables event-trace recording.
    #[must_use]
    pub fn recording(mut self) -> Self {
        self.config.record_trace = true;
        self
    }

    /// Routes policies through the from-scratch reference path
    /// (equivalence testing).
    #[must_use]
    pub fn reference_policies(mut self) -> Self {
        self.config.reference_policies = true;
        self
    }

    /// Sets the safety cap on processed events.
    #[must_use]
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.config.max_events = max_events;
        self
    }

    /// Sets the multi-pack staging mode of the admission layer.
    #[must_use]
    pub fn staging(mut self, staging: PackStaging) -> Self {
        self.staging = staging;
        self
    }

    /// Whether sessions built here are fault-aware.
    #[must_use]
    pub fn execution_mode(&self) -> ExecutionMode {
        self.config.execution_mode()
    }

    /// Builds a session over an explicit job stream. Job `i` of `jobs`
    /// keeps the id `i` throughout (trace records, stats); jobs are
    /// processed in release order (ties by submission index).
    ///
    /// # Errors
    /// [`ScheduleError::InsufficientProcessors`] if the platform has fewer
    /// than two processors (the buddy-checkpointing minimum per job).
    ///
    /// # Panics
    /// Panics if `jobs` is empty.
    pub fn session(&self, jobs: &[JobSpec]) -> Result<Session, ScheduleError> {
        assert!(!jobs.is_empty(), "an online run needs at least one job");
        let p = self.platform.num_procs;
        if p < 2 {
            return Err(ScheduleError::InsufficientProcessors { needed: 2, available: p });
        }
        let workload = Workload::from_jobs(jobs, self.speedup.clone());
        let calc = if self.config.faults.is_some() {
            TimeCalc::new(workload, self.platform)
        } else {
            TimeCalc::fault_free(workload, self.platform)
        };
        let faults = self.config.faults.map(|fc| FaultSource::new(fc.seed, p, fc.law));
        let staging = match self.staging {
            PackStaging::FlatFifo => None,
            PackStaging::Oversubscribed { partitioner } => Some(PackSetState::new(partitioner)),
        };
        Ok(Session::new(
            jobs.to_vec(),
            self.speedup.clone(),
            self.platform,
            self.strategy,
            calc,
            faults,
            self.config,
            staging,
        ))
    }

    /// Builds a session over a generated job stream: release times from
    /// `process`, sizes drawn from `sizes` under `seed` — the arrival
    /// source, plugged straight into the builder.
    ///
    /// # Errors
    /// Same as [`Scheduler::session`].
    ///
    /// # Panics
    /// Panics if the process yields no job (exhausted trace).
    pub fn arrivals(
        &self,
        process: &mut dyn ArrivalProcess,
        n: usize,
        sizes: &JobSizeModel,
        seed: u64,
    ) -> Result<Session, ScheduleError> {
        let jobs = generate_jobs(process, n, sizes, seed);
        self.session(&jobs)
    }

    /// Convenience: builds a session over `jobs` and drains it.
    ///
    /// # Errors
    /// Propagates [`Scheduler::session`] and [`Session::step`] errors.
    ///
    /// # Panics
    /// Panics if `jobs` is empty.
    pub fn run(&self, jobs: &[JobSpec]) -> Result<OnlineOutcome, ScheduleError> {
        self.session(jobs)?.run_to_completion()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::PoissonArrivals;
    use redistrib_sim::trace::TraceEvent;
    use redistrib_sim::units;

    fn jobs(n: usize, mean_gap: f64, seed: u64) -> Vec<JobSpec> {
        let mut arrivals = PoissonArrivals::new(seed, mean_gap);
        generate_jobs(&mut arrivals, n, &JobSizeModel::paper_default(), seed)
    }

    fn speedup() -> Arc<PaperModel> {
        Arc::new(PaperModel::default())
    }

    /// Drains a flat-FIFO session over `jobs`.
    fn run(
        jobs: &[JobSpec],
        platform: Platform,
        strategy: OnlineStrategy,
        cfg: OnlineConfig,
    ) -> Result<OnlineOutcome, ScheduleError> {
        Scheduler::on(platform).speedup(speedup()).strategy(strategy).config(cfg).run(jobs)
    }

    #[test]
    fn fault_free_run_completes_all_jobs() {
        let jobs = jobs(12, 20_000.0, 1);
        let out = run(
            &jobs,
            Platform::new(32),
            OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal),
            OnlineConfig::fault_free(),
        )
        .unwrap();
        assert_eq!(out.jobs.len(), 12);
        for j in &out.jobs {
            assert!(j.start >= j.release, "job {} started before release", j.job);
            assert!(j.completion > j.start, "job {} has no runtime", j.job);
            assert!(j.stretch().is_finite() && j.stretch() > 0.0);
        }
        assert!(out.metrics.utilization > 0.0 && out.metrics.utilization <= 1.0 + 1e-9);
        assert_eq!(out.handled_faults, 0);
        assert!(out.packs.is_empty(), "flat-FIFO runs never stage packs");
    }

    #[test]
    fn faulty_run_completes_and_counts() {
        let jobs = jobs(8, 50_000.0, 2);
        let platform = Platform::with_mtbf(24, units::years(3.0));
        let out = run(
            &jobs,
            platform,
            OnlineStrategy::resizing(Heuristic::ShortestTasksFirstEndLocal),
            OnlineConfig::with_faults(11, platform.proc_mtbf),
        )
        .unwrap();
        assert!(out.handled_faults > 0, "3-year MTBF must produce faults");
        assert!(out.makespan > 0.0);
        assert_eq!(out.jobs.len(), 8);
    }

    #[test]
    fn deterministic_replay_is_byte_identical() {
        let jobs = jobs(10, 30_000.0, 3);
        let platform = Platform::with_mtbf(16, units::years(4.0));
        let cfg = OnlineConfig::with_faults(5, platform.proc_mtbf).recording();
        let strategy = OnlineStrategy::resizing(Heuristic::IteratedGreedyEndGreedy);
        let a = run(&jobs, platform, strategy, cfg).unwrap();
        let b = run(&jobs, platform, strategy, cfg).unwrap();
        assert_eq!(a.trace.to_csv(), b.trace.to_csv());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.redistributions, b.redistributions);
    }

    #[test]
    fn saturated_platform_queues_jobs() {
        // 4 processors, simultaneous burst of 6 jobs: at most 2 run at once.
        let burst: Vec<JobSpec> = (0..6)
            .map(|k| {
                JobSpec::new(redistrib_model::TaskSpec::new(1.5e6 + 1e5 * f64::from(k)), 0.0)
            })
            .collect();
        let out = run(
            &burst,
            Platform::new(4),
            OnlineStrategy::no_resize(),
            OnlineConfig::fault_free().recording(),
        )
        .unwrap();
        assert!(out.metrics.max_queue_len >= 4, "queue: {}", out.metrics.max_queue_len);
        let queued = out
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::JobQueued { .. }))
            .count();
        assert!(queued >= 4, "expected queued events, got {queued}");
        // All jobs still complete, in bounded makespan.
        assert!(out.jobs.iter().all(|j| j.completion > 0.0));
        // Later jobs waited.
        assert!(out.metrics.mean_wait > 0.0);
    }

    #[test]
    fn resizing_improves_stretch_over_no_resize() {
        // Sparse arrivals on a big machine: resizing lets early jobs widen
        // and newcomers claim fair shares, so the mean stretch improves.
        let jobs = jobs(10, 10_000.0, 7);
        let platform = Platform::with_mtbf(64, units::years(10.0));
        let cfg = OnlineConfig::with_faults(13, platform.proc_mtbf);
        let base = run(&jobs, platform, OnlineStrategy::no_resize(), cfg).unwrap();
        let resized = run(
            &jobs,
            platform,
            OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal),
            cfg,
        )
        .unwrap();
        assert!(
            resized.metrics.mean_stretch <= base.metrics.mean_stretch * 1.05,
            "resizing {} vs baseline {}",
            resized.metrics.mean_stretch,
            base.metrics.mean_stretch
        );
        assert!(resized.redistributions > 0);
    }

    #[test]
    fn tiny_platform_is_rejected() {
        let jobs = jobs(2, 1000.0, 1);
        let err = run(
            &jobs,
            Platform::new(1),
            OnlineStrategy::no_resize(),
            OnlineConfig::fault_free(),
        )
        .unwrap_err();
        assert_eq!(err, ScheduleError::InsufficientProcessors { needed: 2, available: 1 });
    }

    #[test]
    fn event_limit_guard() {
        let jobs = jobs(4, 10_000.0, 1);
        let cfg = OnlineConfig { max_events: 2, ..OnlineConfig::fault_free() };
        let err = run(&jobs, Platform::new(16), OnlineStrategy::no_resize(), cfg).unwrap_err();
        assert_eq!(err, ScheduleError::EventLimitExceeded { limit: 2 });
    }

    #[test]
    fn strategy_names() {
        assert_eq!(OnlineStrategy::no_resize().name(), "NoRedistribution");
        assert_eq!(
            OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal).name(),
            "IteratedGreedy-EndLocal+arrival"
        );
    }
}
