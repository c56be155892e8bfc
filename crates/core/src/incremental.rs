//! Persistent incremental policy state: epoch-invalidated session overlays.
//!
//! The from-scratch heuristics rebuild their planning lists — one entry per
//! eligible task, each needing an `α^t` progress evaluation — at *every*
//! decision event, so a single task end costs `O(n)` even when the paper's
//! redistribution only moves processors between a handful of donors and one
//! recipient. The incremental engine keeps the per-task finish-time keys in
//! the pack state's persistent event queues (committed `t^U_i`, maintained
//! by `set_t_u`/`complete`) and materializes planning entries *lazily*:
//! only tasks actually considered by a decision session — the head chain of
//! `EndLocal`, the donor chain of `ShortestTasksFirst` — are adopted into a
//! [`SessionOverlay`], so per-event work scales with the affected set, not
//! the pack.
//!
//! A session is invalidated in O(1) by bumping an epoch counter
//! ([`IncrementalState::begin_session`]); the arrays indexed by task id are
//! reused across events and never cleared. Entries popped out of the
//! persistent queues during a session (ineligible or adopted tasks) are
//! stashed and re-pushed at session end, so the queues survive the event
//! untouched except for the values the commit rewrites anyway.
//!
//! Correctness is enforced the same way PR 2 guarded the heap/scan swap: in
//! debug builds every incremental decision is replayed from scratch on a
//! cloned pack state (the crate-private `CrossCheck`) and the assignment is
//! compared field-for-field, keeping seeded runs byte-identical by
//! construction.

use redistrib_model::TaskId;

use crate::ctx::PlanEntry;
use crate::heap::StashEntry;

/// Safety margin applied to the analytic redistribution-cost floors below,
/// so that inequalities proven in real arithmetic stay sound under f64
/// rounding (the slack is ~1e-3 relative, orders of magnitude beyond any
/// accumulated ulp error in the few additions involved; the debug
/// cross-checks validate the pruned decisions against the unpruned
/// reference on every event).
///
/// The floors themselves (Eqs. 7/9, `RC^{j→k} = max(min(j,k), |j−k|) ·
/// m/(j·k)`):
///
/// * *growth* `σ → σ+q`, `q ∈ [2, k]`: `RC ≥ m/(σ+k)` — for `q ≤ σ` the
///   cost is exactly `m/(σ+q) ≥ m/(σ+k)`; for `q > σ` it is
///   `q·m/((σ+q)σ) > m/(σ+k)` because `qk > σ²`;
/// * *shrink* `σ → σ−q`, `q ≥ 1`: `RC ≥ m/σ` — the round count
///   `max(σ−q, q) ≥ (σ−q)` gives `RC ≥ m/σ`, and for `q > σ−q` it is
///   larger still.
///
/// Every candidate finish time of a *moving* task is `now + RC + …` with
/// all other terms non-negative, so a task whose committed `t^U − now` is
/// at or below its floor provably cannot strictly improve — the
/// incremental policies drop it (or stop the whole head scan, since heads
/// arrive in decreasing `t^U`) without a single model evaluation.
pub const RC_FLOOR_SAFETY: f64 = 0.999;

/// Epoch-invalidated persistent planning state: reset in O(1) at each
/// decision event, with storage reused across the whole run.
pub trait IncrementalState {
    /// Opens a session over `n` tasks: bumps the epoch (logically clearing
    /// all per-task marks) and sizes the index arrays on first use.
    fn begin_session(&mut self, n: usize);
}

/// One task's session-local planning record.
#[derive(Debug, Clone, Copy)]
pub struct OverlayEntry {
    /// The plan under construction (same shape as the from-scratch lists).
    pub plan: PlanEntry,
    /// Dropped from consideration for the rest of the session (`EndLocal`'s
    /// "cannot improve" removal).
    pub dropped: bool,
}

/// The dirty set of one decision session: tasks whose planned allocation
/// diverged from the committed state, plus the bookkeeping to skip them in
/// persistent-queue queries.
///
/// Only touched slots are written per session; `touched[i] == epoch` marks
/// task `i` as owned by the current session, everything else is stale data
/// from former epochs and never read.
#[derive(Debug, Default)]
pub struct SessionOverlay {
    epoch: u64,
    /// `touched[i] == epoch` ⇔ task `i` has an overlay entry this session.
    touched: Vec<u64>,
    /// Overlay index of touched tasks (valid only when touched).
    slot: Vec<u32>,
    /// Session entries, in adoption order.
    entries: Vec<OverlayEntry>,
    /// Persistent-queue entries popped during this session, re-pushed at
    /// session end (see [`crate::heap::LazyHeapCore::restore`]).
    pub stash: Vec<StashEntry>,
}

impl IncrementalState for SessionOverlay {
    fn begin_session(&mut self, n: usize) {
        self.epoch += 1;
        if self.touched.len() < n {
            self.touched.resize(n, 0);
            self.slot.resize(n, 0);
        }
        self.entries.clear();
        debug_assert!(self.stash.is_empty(), "previous session did not restore its stash");
    }
}

impl SessionOverlay {
    /// Whether task `i` has an overlay entry in the current session.
    #[must_use]
    pub fn is_touched(&self, i: TaskId) -> bool {
        self.touched.get(i).is_some_and(|&e| e == self.epoch)
    }

    /// Adopts a task into the session, returning its overlay slot.
    ///
    /// # Panics
    /// Panics (debug) if the task is already touched.
    pub fn adopt(&mut self, plan: PlanEntry) -> usize {
        let i = plan.task;
        debug_assert!(!self.is_touched(i), "task {i} adopted twice in one session");
        self.touched[i] = self.epoch;
        let slot = self.entries.len();
        self.slot[i] = slot as u32;
        self.entries.push(OverlayEntry { plan, dropped: false });
        slot
    }

    /// The overlay entry at `slot`.
    #[must_use]
    pub fn entry(&self, slot: usize) -> &OverlayEntry {
        &self.entries[slot]
    }

    /// Mutable overlay entry at `slot`.
    pub fn entry_mut(&mut self, slot: usize) -> &mut OverlayEntry {
        &mut self.entries[slot]
    }

    /// Number of entries adopted this session.
    #[must_use]
    pub fn touched_count(&self) -> usize {
        self.entries.len()
    }

    /// The non-dropped overlay entry with the *largest* planned finish
    /// time, `(slot, task, t_u)`; ties toward the lowest task id. Linear in
    /// the overlay — the affected set, not the pack.
    #[must_use]
    pub fn best_max(&self) -> Option<(usize, TaskId, f64)> {
        let mut best: Option<(usize, TaskId, f64)> = None;
        for (s, e) in self.entries.iter().enumerate() {
            if e.dropped {
                continue;
            }
            let (t, v) = (e.plan.task, e.plan.t_u);
            let wins = match best {
                None => true,
                Some((_, bt, bv)) => v > bv || (v == bv && t < bt),
            };
            if wins {
                best = Some((s, t, v));
            }
        }
        best
    }

    /// The overlay donor — non-dropped, non-faulty, planned `σ ≥ 4` — with
    /// the *smallest* planned finish time, `(slot, task, t_u)`; ties toward
    /// the lowest task id (`ShortestTasksFirst`'s steal target).
    #[must_use]
    pub fn best_min_donor(&self) -> Option<(usize, TaskId, f64)> {
        let mut best: Option<(usize, TaskId, f64)> = None;
        for (s, e) in self.entries.iter().enumerate() {
            if e.dropped || e.plan.faulty || e.plan.sigma < 4 {
                continue;
            }
            let (t, v) = (e.plan.task, e.plan.t_u);
            let wins = match best {
                None => true,
                Some((_, bt, bv)) => v < bv || (v == bv && t < bt),
            };
            if wins {
                best = Some((s, t, v));
            }
        }
        best
    }

    /// Drains the session's plans into `out`, sorted by ascending task id —
    /// the commit order the from-scratch heuristics produce (their planning
    /// lists are built over the ascending-id eligible list), which the
    /// deterministic processor moves depend on.
    pub fn drain_plans_sorted(&mut self, out: &mut Vec<PlanEntry>) {
        out.clear();
        out.extend(self.entries.iter().map(|e| e.plan));
        out.sort_unstable_by_key(|e| e.task);
        self.entries.clear();
    }
}

/// Resolves a session's next working entry: the fresh persistent-queue
/// candidate versus the best overlay entry, with ties toward the lowest
/// task id — exactly the order of the reference planning heap over the
/// ascending-id eligible list. A winning fresh candidate is handed to
/// `adopt` (which pops its live queue entry and builds its overlay plan);
/// either way the session entry's slot comes back, or `None` when both
/// sides are exhausted.
///
/// `fresh_beats` is the strict value comparison of the queue's direction
/// (`>` for the latest-finish head chain, `<` for the shortest-donor
/// chain), shared so the two incremental policies cannot drift apart on
/// the arbitration rule.
pub(crate) fn pick_session_entry(
    fresh: Option<(TaskId, f64)>,
    overlay_best: Option<(usize, TaskId, f64)>,
    fresh_beats: impl Fn(f64, f64) -> bool,
    adopt: impl FnOnce(TaskId, f64) -> usize,
) -> Option<usize> {
    match (fresh, overlay_best) {
        (None, None) => None,
        (Some((i, v)), over) => {
            let fresh_wins = match over {
                None => true,
                Some((_, ot, ov)) => fresh_beats(v, ov) || (v == ov && i < ot),
            };
            if fresh_wins {
                Some(adopt(i, v))
            } else {
                Some(over.expect("fresh lost to an overlay entry").0)
            }
        }
        (None, Some((s, _, _))) => Some(s),
    }
}

/// Debug-build replay of an incremental decision against the from-scratch
/// reference implementation, on a cloned pack state — the correctness net
/// that keeps seeded runs byte-identical (PR 2's heap/scan pattern, one
/// level up).
#[cfg(debug_assertions)]
pub(crate) struct CrossCheck {
    state: crate::state::PackState,
    eligible: Vec<TaskId>,
    redistributions_before: u64,
}

#[cfg(debug_assertions)]
impl CrossCheck {
    /// Snapshots the pack state and materializes the eligible list before
    /// the incremental decision runs.
    pub(crate) fn begin(ctx: &crate::ctx::HeuristicCtx<'_>) -> Self {
        let mut eligible = Vec::new();
        ctx.for_each_eligible(|i| eligible.push(i));
        Self {
            state: ctx.state.clone(),
            eligible,
            redistributions_before: *ctx.redistributions,
        }
    }

    /// Replays `run_reference` on the snapshot (from-scratch path, explicit
    /// list) and asserts the outcome matches what the incremental decision
    /// left in `ctx.state` — bit patterns, processor ids and all.
    ///
    /// # Panics
    /// Panics on any divergence.
    pub(crate) fn verify(
        self,
        ctx: &crate::ctx::HeuristicCtx<'_>,
        run_reference: impl FnOnce(&mut crate::ctx::HeuristicCtx<'_>),
    ) {
        let CrossCheck { mut state, eligible, redistributions_before } = self;
        let mut trace = redistrib_sim::trace::TraceLog::disabled();
        let mut scratch = crate::ctx::PolicyScratch::default();
        let mut count = redistributions_before;
        let mut ref_ctx = crate::ctx::HeuristicCtx {
            calc: ctx.calc,
            state: &mut state,
            trace: &mut trace,
            now: ctx.now,
            eligible: crate::ctx::EligibleSet::Listed(&eligible),
            scratch: &mut scratch,
            pseudocode_fault_bias: ctx.pseudocode_fault_bias,
            redistributions: &mut count,
        };
        run_reference(&mut ref_ctx);
        assert_eq!(
            count, *ctx.redistributions,
            "incremental/reference redistribution-count divergence"
        );
        assert!(state.assignment_eq(ctx.state), "incremental/reference state divergence");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(task: TaskId, sigma: u32, t_u: f64) -> PlanEntry {
        PlanEntry { task, sigma_init: sigma, sigma, alpha_t: 1.0, t_u, faulty: false }
    }

    #[test]
    fn epoch_bump_clears_touched_in_o1() {
        let mut o = SessionOverlay::default();
        o.begin_session(4);
        o.adopt(plan(2, 4, 10.0));
        assert!(o.is_touched(2));
        o.begin_session(4);
        assert!(!o.is_touched(2));
        assert_eq!(o.touched_count(), 0);
    }

    #[test]
    fn best_max_ignores_dropped_and_breaks_ties_low() {
        let mut o = SessionOverlay::default();
        o.begin_session(8);
        let s0 = o.adopt(plan(5, 4, 20.0));
        o.adopt(plan(1, 4, 20.0));
        o.adopt(plan(3, 4, 7.0));
        assert_eq!(o.best_max(), Some((1, 1, 20.0)));
        o.entry_mut(1).dropped = true;
        assert_eq!(o.best_max(), Some((s0, 5, 20.0)));
    }

    #[test]
    fn best_min_donor_filters_sigma_and_faulty() {
        let mut o = SessionOverlay::default();
        o.begin_session(8);
        o.adopt(plan(0, 2, 1.0)); // too small to donate
        let mut f = plan(1, 8, 2.0);
        f.faulty = true;
        o.adopt(f); // faulty: never a donor
        let s = o.adopt(plan(2, 4, 3.0));
        assert_eq!(o.best_min_donor(), Some((s, 2, 3.0)));
    }

    #[test]
    fn drain_sorts_by_task_id() {
        let mut o = SessionOverlay::default();
        o.begin_session(8);
        o.adopt(plan(5, 4, 1.0));
        o.adopt(plan(1, 4, 2.0));
        o.adopt(plan(3, 4, 3.0));
        let mut out = Vec::new();
        o.drain_plans_sorted(&mut out);
        let ids: Vec<TaskId> = out.iter().map(|e| e.task).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        assert_eq!(o.touched_count(), 0);
    }

    #[test]
    fn lazily_grows_to_task_count() {
        let mut o = SessionOverlay::default();
        o.begin_session(2);
        o.begin_session(16);
        o.adopt(plan(15, 4, 1.0));
        assert!(o.is_touched(15));
    }
}
