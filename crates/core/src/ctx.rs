//! Shared context and plumbing for the redistribution heuristics.
//!
//! A [`HeuristicCtx`] is handed to the end/fault policies by the engine at
//! each decision point. It bundles shared access to the time calculator,
//! mutable access to the pack state and the trace, reusable
//! [`PolicyScratch`] buffers (so steady-state policy invocations allocate
//! nothing), and provides the two operations every heuristic of the paper
//! is built from:
//!
//! * evaluating a *candidate* finish time for a task on a different
//!   allocation (including redistribution cost, the post-redistribution
//!   checkpoint, and — for the faulty task — downtime and recovery);
//! * *committing* a set of planned reallocations (processors move, anchors
//!   `tlastR_i`, fractions `α_i` and expected finish times `t^U_i` are
//!   updated, trace records are emitted).

use redistrib_model::{TaskId, TimeCalc};
use redistrib_sim::trace::{TraceEvent, TraceLog};

use crate::heap::LazyMaxHeap;
use crate::incremental::SessionOverlay;
use crate::state::PackState;

/// Persistent policy planning state, owned by the engine and threaded
/// through [`HeuristicCtx`]: after warm-up, policy invocations reuse these
/// allocations instead of building fresh `Vec`s per event, and the
/// incremental policies keep their epoch-invalidated session overlay here
/// across the whole run.
///
/// Policies `std::mem::take` the pieces they need and put them back before
/// returning (the take/restore dance keeps the borrow checker happy while
/// `ctx` methods are called in between).
#[derive(Debug, Default)]
pub struct PolicyScratch {
    /// Per-candidate planning entries.
    pub entries: Vec<PlanEntry>,
    /// Committed plans.
    pub plans: Vec<Plan>,
    /// Heap seed values.
    pub values: Vec<f64>,
    /// Planning heap ("the task with the longest planned finish time").
    pub heap: LazyMaxHeap,
    /// Incremental session overlay (dirty set + stash), persistent across
    /// events with O(1) epoch invalidation.
    pub overlay: SessionOverlay,
}

/// The tasks allowed to participate in a redistribution decision.
///
/// The from-scratch path materializes the list up front (`Listed`); the
/// incremental path derives membership lazily from the pack state
/// (`Live`), so an event only pays for the tasks its decision actually
/// touches. Both views contain exactly the same tasks in ascending-id
/// order: active, started, outside any previous redistribution window
/// (`tlastR_i ≤ now`), not the skipped (faulty) task, and — at a fault —
/// not finishing before `min_t_u`, the recovery anchor (see
/// [`crate::engine::WindowEnds`]).
#[derive(Debug, Clone, Copy)]
pub enum EligibleSet<'a> {
    /// Explicit ascending-id task list (tests, reference replays).
    Listed(&'a [TaskId]),
    /// Membership derived from the pack state at query time.
    Live {
        /// The faulty task, excluded from the participant set.
        skip: Option<TaskId>,
        /// Minimum expected finish time to participate
        /// (`f64::NEG_INFINITY` when unused).
        min_t_u: f64,
    },
}

impl EligibleSet<'static> {
    /// Live view with no excluded task and no finish-time floor (task-end
    /// and arrival decision points).
    #[must_use]
    pub fn live() -> Self {
        EligibleSet::Live { skip: None, min_t_u: f64::NEG_INFINITY }
    }

    /// Live view for a fault decision point: the faulty task is handled
    /// separately by the policy, and tasks finishing before `min_t_u` are
    /// out.
    #[must_use]
    pub fn live_fault(faulty: TaskId, min_t_u: f64) -> Self {
        EligibleSet::Live { skip: Some(faulty), min_t_u }
    }
}

/// One candidate's planning state inside a heuristic invocation (shared by
/// `EndLocal`, `ShortestTasksFirst` and the greedy rebuild).
#[derive(Debug, Clone, Copy)]
pub struct PlanEntry {
    /// The task.
    pub task: TaskId,
    /// Allocation at heuristic entry (`σ_init`; data currently lives here).
    pub sigma_init: u32,
    /// Currently planned allocation.
    pub sigma: u32,
    /// Remaining fraction measured at `now`.
    pub alpha_t: f64,
    /// Currently planned finish time.
    pub t_u: f64,
    /// Whether this is the faulty task.
    pub faulty: bool,
}

/// Mutable view the engine hands to the redistribution policies.
#[derive(Debug)]
pub struct HeuristicCtx<'a> {
    /// Time calculator (mode decides fault-aware vs fault-free math).
    pub calc: &'a TimeCalc,
    /// Pack state (allocation sizes, processor ownership, task runtimes).
    pub state: &'a mut PackState,
    /// Trace sink (may be disabled).
    pub trace: &'a mut TraceLog,
    /// Decision time `t` (a task end or a failure).
    pub now: f64,
    /// Tasks allowed to participate: active, not the faulty task, and not
    /// inside a previous redistribution window (`tlastR_i ≤ now`).
    pub eligible: EligibleSet<'a>,
    /// Reusable planning buffers.
    pub scratch: &'a mut PolicyScratch,
    /// Ablation flag: when true, the faulty task's candidate finish times
    /// omit downtime + recovery, as in the literal pseudocode of
    /// Algorithms 4–5. Default false (follow §3.3.2 text).
    pub pseudocode_fault_bias: bool,
    /// Counter of committed reallocations (one per task whose σ changed).
    pub redistributions: &'a mut u64,
}

/// One task's planned reallocation inside a heuristic invocation.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The task.
    pub task: TaskId,
    /// Allocation at heuristic entry (`σ_init`; data currently lives here).
    pub sigma_init: u32,
    /// Planned allocation.
    pub sigma_new: u32,
    /// Remaining fraction measured at `now` (`α^t_i`; for the faulty task,
    /// the post-rollback `α_f`).
    pub alpha_t: f64,
    /// Whether this is the faulty task (adds downtime + recovery to the
    /// redistribution overhead unless the bias flag is set).
    pub faulty: bool,
}

impl HeuristicCtx<'_> {
    /// Whether task `i` participates in this decision (see
    /// [`EligibleSet`]). For a `Live` view the check reads the pack state;
    /// for a `Listed` view it scans the slice (reference replays only).
    #[must_use]
    pub fn is_eligible(&self, i: TaskId) -> bool {
        match self.eligible {
            EligibleSet::Listed(list) => list.contains(&i),
            EligibleSet::Live { skip, min_t_u } => {
                let rt = self.state.runtime(i);
                Some(i) != skip
                    && !rt.done
                    && self.state.is_started(i)
                    && rt.t_last_r <= self.now
                    && rt.t_u >= min_t_u
            }
        }
    }

    /// Visits every eligible task in ascending-id order (the deterministic
    /// list order all heuristics assume).
    pub fn for_each_eligible(&self, mut f: impl FnMut(TaskId)) {
        match self.eligible {
            EligibleSet::Listed(list) => list.iter().copied().for_each(f),
            EligibleSet::Live { .. } => {
                // Iterate the still-active ids (ascending, a subset of
                // 0..n with identical eligibility outcomes) so the pass
                // scales with the live pack, not every task ever seen.
                for &i in self.state.active_ids() {
                    if self.is_eligible(i) {
                        f(i);
                    }
                }
            }
        }
    }

    /// Remaining fraction of work of a *non-faulty* task measured at `now`
    /// (the `α^t_i` of Algorithms 3–5): the stored `α_i` minus the progress
    /// since the task's anchor, clamped to `[0, α_i]`.
    pub fn alpha_current(&mut self, i: TaskId) -> f64 {
        let rt = *self.state.runtime(i);
        debug_assert!(!rt.done, "alpha_current on a completed task");
        let elapsed = self.now - rt.t_last_r;
        debug_assert!(
            elapsed >= -1e-9,
            "task {i} is mid-redistribution (anchor in the future)"
        );
        let progress = self.calc.progress_nonfaulty(i, self.state.sigma(i), elapsed.max(0.0));
        (rt.alpha - progress).max(0.0)
    }

    /// Extra overhead in front of a redistribution of the faulty task:
    /// downtime plus recovery on the old allocation (§3.3.2 text), or zero
    /// under the pseudocode-bias ablation.
    pub fn fault_overhead(&mut self, i: TaskId, sigma_init: u32) -> f64 {
        if self.pseudocode_fault_bias {
            0.0
        } else {
            self.calc.downtime() + self.calc.recovery_time(i, sigma_init)
        }
    }

    /// Candidate absolute finish time `t^E` of task `i` if its allocation
    /// became `cand` (data moving from `sigma_init`):
    ///
    /// * `cand == sigma_init` — the task simply continues: the finish time
    ///   is `tlastR_i + remaining(σ_init, α_i)` (no cost; Algorithm 5
    ///   line 16);
    /// * otherwise — `now (+ D + R for the faulty task) + RC^{σ_init→cand}
    ///   + C_{i,cand} + remaining(cand, α^t_i)`.
    pub fn candidate_finish(
        &mut self,
        i: TaskId,
        sigma_init: u32,
        cand: u32,
        alpha_t: f64,
        faulty: bool,
    ) -> f64 {
        if cand == sigma_init {
            let rt = *self.state.runtime(i);
            return rt.t_last_r + self.calc.remaining(i, cand, rt.alpha);
        }
        let overhead = if faulty { self.fault_overhead(i, sigma_init) } else { 0.0 };
        // Single parameter fetch for (C, remaining); the addition order is
        // exactly the historical `rc + C + remaining` chain.
        let (ckpt, remaining) = self.calc.ckpt_and_remaining(i, cand, alpha_t);
        self.now + overhead + self.calc.rc_cost(i, sigma_init, cand) + ckpt + remaining
    }

    /// Applies a set of plans: shrinks first (to refill the free pool), then
    /// grows; updates every changed task's `α`, `tlastR`, `t^U`, emits trace
    /// records and bumps the redistribution counter.
    ///
    /// Plans with `sigma_new == sigma_init` are no-ops (the paper only
    /// updates tasks whose allocation actually changed).
    pub fn commit(&mut self, plans: &[Plan]) {
        for plan in plans.iter().filter(|p| p.sigma_new < p.sigma_init) {
            self.state.shrink(plan.task, plan.sigma_init - plan.sigma_new);
            self.apply_bookkeeping(plan);
        }
        for plan in plans.iter().filter(|p| p.sigma_new > p.sigma_init) {
            self.state.grow(plan.task, plan.sigma_new - plan.sigma_init);
            self.apply_bookkeeping(plan);
        }
    }

    /// Commits the planning entries whose allocation changed, using (and
    /// restoring) the scratch plan buffer — the zero-alloc variant of
    /// [`HeuristicCtx::commit`] shared by all policies.
    pub fn commit_entries(&mut self) {
        let mut plans = std::mem::take(&mut self.scratch.plans);
        let entries = std::mem::take(&mut self.scratch.entries);
        plans.clear();
        plans.extend(entries.iter().filter(|e| e.sigma != e.sigma_init).map(|e| Plan {
            task: e.task,
            sigma_init: e.sigma_init,
            sigma_new: e.sigma,
            alpha_t: e.alpha_t,
            faulty: e.faulty,
        }));
        self.commit(&plans);
        self.scratch.plans = plans;
        self.scratch.entries = entries;
    }

    fn apply_bookkeeping(&mut self, plan: &Plan) {
        let rc = self.calc.rc_cost(plan.task, plan.sigma_init, plan.sigma_new);
        let overhead =
            if plan.faulty { self.fault_overhead(plan.task, plan.sigma_init) } else { 0.0 };
        let ckpt = self.calc.checkpoint_cost(plan.task, plan.sigma_new);
        let anchor = self.now + overhead + rc + ckpt;
        let remaining = self.calc.remaining(plan.task, plan.sigma_new, plan.alpha_t);
        let rt = self.state.runtime_mut(plan.task);
        rt.alpha = plan.alpha_t;
        rt.t_last_r = anchor;
        self.state.set_t_u(plan.task, anchor + remaining);
        *self.redistributions += 1;
        self.trace.push(TraceEvent::Redistribution {
            time: self.now,
            task: plan.task,
            from: plan.sigma_init,
            to: plan.sigma_new,
            cost: rc,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redistrib_model::{PaperModel, Platform, TaskSpec, TimeCalc, Workload};
    use redistrib_sim::units;
    use std::sync::Arc;

    fn fixture() -> (TimeCalc, PackState) {
        let workload = Workload::new(
            vec![TaskSpec::new(2.0e6), TaskSpec::new(1.6e6), TaskSpec::new(1.8e6)],
            Arc::new(PaperModel::default()),
        );
        let platform = Platform::with_mtbf(20, units::years(100.0));
        let calc = TimeCalc::new(workload, platform);
        let mut state = PackState::new(20, &[4, 4, 4]);
        for i in 0..3 {
            let tu = calc.remaining(i, 4, 1.0);
            state.set_t_u(i, tu);
        }
        (calc, state)
    }

    fn ctx<'a>(
        calc: &'a TimeCalc,
        state: &'a mut PackState,
        trace: &'a mut TraceLog,
        scratch: &'a mut PolicyScratch,
        now: f64,
        eligible: &'a [TaskId],
        count: &'a mut u64,
    ) -> HeuristicCtx<'a> {
        HeuristicCtx {
            calc,
            state,
            trace,
            now,
            eligible: EligibleSet::Listed(eligible),
            scratch,
            pseudocode_fault_bias: false,
            redistributions: count,
        }
    }

    #[test]
    fn alpha_current_decreases_with_time() {
        let (calc, mut state) = fixture();
        let mut trace = TraceLog::disabled();
        let mut scratch = PolicyScratch::default();
        let mut count = 0;
        let eligible = [0usize, 1, 2];
        let t_half = state.runtime(0).t_u * 0.5;
        let mut c =
            ctx(&calc, &mut state, &mut trace, &mut scratch, t_half, &eligible, &mut count);
        let a = c.alpha_current(0);
        assert!(a > 0.0 && a < 1.0, "alpha = {a}");
    }

    #[test]
    fn alpha_current_zero_elapsed_is_full() {
        let (calc, mut state) = fixture();
        let mut trace = TraceLog::disabled();
        let mut scratch = PolicyScratch::default();
        let mut count = 0;
        let eligible = [0usize];
        let mut c =
            ctx(&calc, &mut state, &mut trace, &mut scratch, 0.0, &eligible, &mut count);
        assert_eq!(c.alpha_current(0), 1.0);
    }

    #[test]
    fn candidate_same_allocation_is_current_tu() {
        let (calc, mut state) = fixture();
        let mut trace = TraceLog::disabled();
        let mut scratch = PolicyScratch::default();
        let mut count = 0;
        let eligible = [0usize, 1, 2];
        let t = 1000.0;
        let tu_before = state.runtime(1).t_u;
        let mut c = ctx(&calc, &mut state, &mut trace, &mut scratch, t, &eligible, &mut count);
        let alpha_t = c.alpha_current(1);
        let te = c.candidate_finish(1, 4, 4, alpha_t, false);
        assert!((te - tu_before).abs() < 1e-6, "{te} vs {tu_before}");
    }

    #[test]
    fn candidate_move_includes_costs() {
        let (calc, mut state) = fixture();
        let mut trace = TraceLog::disabled();
        let mut scratch = PolicyScratch::default();
        let mut count = 0;
        let eligible = [0usize, 1, 2];
        let t = 1000.0;
        let mut c = ctx(&calc, &mut state, &mut trace, &mut scratch, t, &eligible, &mut count);
        let alpha_t = c.alpha_current(0);
        let te = c.candidate_finish(0, 4, 6, alpha_t, false);
        let bare = t + c.calc.remaining(0, 6, alpha_t);
        let rc = c.calc.rc_cost(0, 4, 6);
        let ck = c.calc.checkpoint_cost(0, 6);
        assert!((te - (bare + rc + ck)).abs() < 1e-6);
    }

    #[test]
    fn faulty_candidate_pays_downtime_and_recovery() {
        let (calc, mut state) = fixture();
        let mut trace = TraceLog::disabled();
        let mut scratch = PolicyScratch::default();
        let mut count = 0;
        let eligible = [1usize, 2];
        let t = 1000.0;
        let mut c = ctx(&calc, &mut state, &mut trace, &mut scratch, t, &eligible, &mut count);
        let te_plain = c.candidate_finish(0, 4, 6, 0.9, false);
        let te_faulty = c.candidate_finish(0, 4, 6, 0.9, true);
        let overhead = c.calc.downtime() + c.calc.recovery_time(0, 4);
        assert!((te_faulty - te_plain - overhead).abs() < 1e-6);
    }

    #[test]
    fn bias_flag_removes_fault_overhead() {
        let (calc, mut state) = fixture();
        let mut trace = TraceLog::disabled();
        let mut scratch = PolicyScratch::default();
        let mut count = 0;
        let eligible = [1usize, 2];
        let mut c = HeuristicCtx {
            calc: &calc,
            state: &mut state,
            trace: &mut trace,
            now: 1000.0,
            eligible: EligibleSet::Listed(&eligible),
            scratch: &mut scratch,
            pseudocode_fault_bias: true,
            redistributions: &mut count,
        };
        let te_plain = c.candidate_finish(0, 4, 6, 0.9, false);
        let te_faulty = c.candidate_finish(0, 4, 6, 0.9, true);
        assert!((te_faulty - te_plain).abs() < 1e-9);
    }

    #[test]
    fn commit_moves_processors_and_updates_runtime() {
        let (calc, mut state) = fixture();
        let mut trace = TraceLog::enabled();
        let mut scratch = PolicyScratch::default();
        let mut count = 0;
        let eligible = [0usize, 1, 2];
        let t = 1000.0;
        let mut c = ctx(&calc, &mut state, &mut trace, &mut scratch, t, &eligible, &mut count);
        let a0 = c.alpha_current(0);
        let a1 = c.alpha_current(1);
        // Task 1 donates 2 procs, task 0 gains 2 + 2 free = grows to 8.
        c.commit(&[
            Plan { task: 1, sigma_init: 4, sigma_new: 2, alpha_t: a1, faulty: false },
            Plan { task: 0, sigma_init: 4, sigma_new: 8, alpha_t: a0, faulty: false },
        ]);
        assert_eq!(state.sigma(0), 8);
        assert_eq!(state.sigma(1), 2);
        assert_eq!(state.free_count(), 20 - 8 - 2 - 4);
        assert_eq!(count, 2);
        assert_eq!(trace.redistribution_count(), 2);
        assert!(state.check_invariants());
        // Anchors moved into the future (overheads are positive).
        assert!(state.runtime(0).t_last_r > t);
        assert!(state.runtime(1).t_last_r > t);
        assert!((state.runtime(0).alpha - a0).abs() < 1e-12);
    }

    #[test]
    fn commit_noop_plan_changes_nothing() {
        let (calc, mut state) = fixture();
        let mut trace = TraceLog::enabled();
        let mut scratch = PolicyScratch::default();
        let mut count = 0;
        let eligible = [0usize];
        let tu = state.runtime(0).t_u;
        let mut c =
            ctx(&calc, &mut state, &mut trace, &mut scratch, 10.0, &eligible, &mut count);
        c.commit(&[Plan { task: 0, sigma_init: 4, sigma_new: 4, alpha_t: 0.9, faulty: false }]);
        assert_eq!(state.sigma(0), 4);
        assert_eq!(count, 0);
        assert_eq!(state.runtime(0).t_u, tu);
    }

    #[test]
    fn commit_entries_drains_scratch() {
        let (calc, mut state) = fixture();
        let mut trace = TraceLog::enabled();
        let mut scratch = PolicyScratch::default();
        let mut count = 0;
        let eligible = [0usize, 1];
        scratch.entries.push(PlanEntry {
            task: 0,
            sigma_init: 4,
            sigma: 6,
            alpha_t: 1.0,
            t_u: 0.0,
            faulty: false,
        });
        scratch.entries.push(PlanEntry {
            task: 1,
            sigma_init: 4,
            sigma: 4, // unchanged: must not commit
            alpha_t: 1.0,
            t_u: 0.0,
            faulty: false,
        });
        let mut c =
            ctx(&calc, &mut state, &mut trace, &mut scratch, 10.0, &eligible, &mut count);
        c.commit_entries();
        assert_eq!(state.sigma(0), 6);
        assert_eq!(state.sigma(1), 4);
        assert_eq!(count, 1);
        // Buffers restored for reuse.
        assert!(!scratch.entries.is_empty());
    }

    #[test]
    fn commit_shrinks_before_growing() {
        // Growing by more than the free pool only works because the shrink
        // is applied first.
        let (calc, mut state) = fixture();
        let mut trace = TraceLog::disabled();
        let mut scratch = PolicyScratch::default();
        let mut count = 0;
        let eligible = [0usize, 1];
        state.set_sigma(0, 10); // free pool now 20-10-4-4 = 2
        let mut c =
            ctx(&calc, &mut state, &mut trace, &mut scratch, 10.0, &eligible, &mut count);
        c.commit(&[
            Plan { task: 1, sigma_init: 4, sigma_new: 8, alpha_t: 1.0, faulty: false },
            Plan { task: 0, sigma_init: 10, sigma_new: 4, alpha_t: 1.0, faulty: false },
        ]);
        assert_eq!(state.sigma(0), 4);
        assert_eq!(state.sigma(1), 8);
        assert!(state.check_invariants());
    }
}
