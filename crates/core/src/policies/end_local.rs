//! Algorithm 3: `EndLocal` — local redistribution of released processors.
//!
//! When a task ends, repeatedly consider the (eligible) task with the
//! longest expected finish time: if giving it some of the free processors
//! would strictly improve its finish time — redistribution cost and the
//! post-redistribution checkpoint included — grant it two processors and
//! reconsider; a task that cannot improve drops out of consideration. (The
//! pseudocode's outer loop lacks an emptiness guard on the candidate list;
//! we add it.)
//!
//! Two implementations share the semantics:
//!
//! * [`reference_end_local`] — the from-scratch path: one planning entry
//!   (and one `α^t` evaluation) per eligible task, `O(n)` per event;
//! * the *incremental* path — head queries go straight to the pack state's
//!   persistent latest-finish queue, and a task is only adopted into the
//!   session overlay (paying its `α^t`) when it actually becomes the head.
//!   A task end therefore costs `O((moved + skipped) · log n)` where
//!   `skipped` counts tasks still inside redistribution windows — the
//!   affected set, not the pack.
//!
//! The engine selects the incremental path by passing a live eligible view;
//! explicit lists take the reference path. In debug builds every
//! incremental decision is replayed from scratch on a cloned state and the
//! outcomes are compared bit-for-bit.

use crate::ctx::{EligibleSet, HeuristicCtx, PlanEntry};
use crate::incremental::{pick_session_entry, IncrementalState, RC_FLOOR_SAFETY};

use super::EndPolicy;

/// `EndLocal` policy (Algorithm 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct EndLocal;

impl EndPolicy for EndLocal {
    fn on_task_end(&self, ctx: &mut HeuristicCtx<'_>) {
        match ctx.eligible {
            EligibleSet::Listed(_) => reference_end_local(ctx),
            EligibleSet::Live { .. } => {
                #[cfg(debug_assertions)]
                let check = crate::incremental::CrossCheck::begin(ctx);
                incremental_end_local(ctx);
                #[cfg(debug_assertions)]
                check.verify(ctx, reference_end_local);
            }
        }
    }
}

/// From-scratch `EndLocal` (the reference semantics): materializes one
/// planning entry per eligible task, then runs the grant loop over a
/// planning heap seeded with every entry.
pub fn reference_end_local(ctx: &mut HeuristicCtx<'_>) {
    let mut k = ctx.state.free_count();
    if k < 2 {
        return;
    }

    // Per-candidate planning state, in reused scratch storage.
    let mut entries = std::mem::take(&mut ctx.scratch.entries);
    entries.clear();
    ctx.for_each_eligible(|i| {
        entries.push(PlanEntry {
            task: i,
            sigma_init: ctx.state.sigma(i),
            sigma: ctx.state.sigma(i),
            alpha_t: 0.0, // filled below (needs &mut ctx)
            t_u: ctx.state.runtime(i).t_u,
            faulty: false,
        });
    });
    if entries.is_empty() {
        ctx.scratch.entries = entries;
        return;
    }
    for e in &mut entries {
        e.alpha_t = ctx.alpha_current(e.task);
    }

    // Working list ordered by planned finish time (lazy max-heap; a
    // dropped task leaves the list for good).
    let mut values = std::mem::take(&mut ctx.scratch.values);
    values.clear();
    values.extend(entries.iter().map(|e| e.t_u));
    let mut list = std::mem::take(&mut ctx.scratch.heap);
    list.reset(&values);

    while k >= 2 {
        // Head of L: longest planned finish time.
        let Some((head, t_u)) = list.peek_max() else {
            break;
        };
        let (task, sigma_init, sigma, alpha_t) = {
            let e = &entries[head];
            (e.task, e.sigma_init, e.sigma, e.alpha_t)
        };

        // First strictly improving extension σ(i)+q, q = 2, 4, …, k.
        // The q = 2 evaluation doubles as the post-grant finish time (the
        // grant is always +2), so it is computed exactly once.
        let mut improvable = false;
        let mut q = 2;
        let mut te2 = f64::INFINITY;
        while q <= k {
            let te = ctx.candidate_finish(task, sigma_init, sigma + q, alpha_t, false);
            if q == 2 {
                te2 = te;
            }
            if te < t_u {
                improvable = true;
                break;
            }
            q += 2;
        }

        if improvable {
            entries[head].sigma += 2;
            k -= 2;
            entries[head].t_u = te2;
            list.update(head, te2);
        } else {
            list.remove(head);
        }
    }

    ctx.scratch.values = values;
    ctx.scratch.heap = list;
    ctx.scratch.entries = entries;
    ctx.commit_entries();
}

/// Incremental `EndLocal`: identical decisions, derived from the persistent
/// latest-finish queue plus a session overlay of the tasks actually
/// considered.
fn incremental_end_local(ctx: &mut HeuristicCtx<'_>) {
    let mut k = ctx.state.free_count();
    if k < 2 {
        return;
    }
    let now = ctx.now;
    let EligibleSet::Live { skip, min_t_u } = ctx.eligible else {
        unreachable!("incremental path requires a live eligible view")
    };
    let mut overlay = std::mem::take(&mut ctx.scratch.overlay);
    overlay.begin_session(ctx.state.num_tasks());
    let mut stash = std::mem::take(&mut overlay.stash);
    let mut tails = ctx.state.take_latest_queue();
    // Redistribution-cost floors (see `RC_FLOOR_SAFETY`): a fresh head
    // whose remaining time `t^U − now` is at or below `m/(σ+k)` provably
    // cannot improve, and because heads arrive in decreasing `t^U`, the
    // *global* floor `m_min/(σ_hi+k)` retires the whole untouched side at
    // once — the step that turns "nobody can improve" events from Θ(n)
    // scans into O(1).
    let m_min = ctx.calc.min_task_size();
    let sigma_hi = f64::from(ctx.state.sigma_high_water());
    let mut heap_open = true;

    while k >= 2 {
        // Head of L: the untouched eligible task with the longest committed
        // finish time (straight off the persistent queue) versus the best
        // session entry; ties toward the lowest task id, exactly like the
        // reference planning heap over the ascending-id eligible list.
        let mut heap_best = None;
        while heap_open {
            let picked = {
                let state = &*ctx.state;
                tails.peek_where(&mut stash, |i| {
                    let rt = state.runtime(i);
                    Some(i) != skip
                        && !overlay.is_touched(i)
                        && rt.t_last_r <= now
                        && rt.t_u >= min_t_u
                })
            };
            let Some((i, v)) = picked else {
                heap_open = false;
                break;
            };
            if v - now <= RC_FLOOR_SAFETY * m_min / (sigma_hi + f64::from(k)) {
                // Every untouched head from here down is unimprovable.
                heap_open = false;
                break;
            }
            let sigma_init = ctx.state.sigma(i);
            if v - now <= RC_FLOOR_SAFETY * ctx.calc.task_size(i) / f64::from(sigma_init + k) {
                // This head is unimprovable: drop it without paying α^t.
                tails.take_top(&mut stash);
                let slot = overlay.adopt(PlanEntry {
                    task: i,
                    sigma_init,
                    sigma: sigma_init,
                    alpha_t: 0.0, // never read: the entry is dropped
                    t_u: v,
                    faulty: false,
                });
                overlay.entry_mut(slot).dropped = true;
                continue;
            }
            heap_best = Some((i, v));
            break;
        }
        let over_best = overlay.best_max();
        let picked = pick_session_entry(
            heap_best,
            over_best,
            |a, b| a > b,
            |i, v| {
                // Adopt the head into the session: pop its live queue entry
                // (the overlay owns the task from here) and pay its α^t
                // evaluation — the lazy step that makes cheap events cheap.
                tails.take_top(&mut stash);
                let sigma_init = ctx.state.sigma(i);
                let alpha_t = ctx.alpha_current(i);
                overlay.adopt(PlanEntry {
                    task: i,
                    sigma_init,
                    sigma: sigma_init,
                    alpha_t,
                    t_u: v,
                    faulty: false,
                })
            },
        );
        let Some(slot) = picked else {
            break;
        };

        let (task, sigma_init, sigma, alpha_t, t_u) = {
            let e = &overlay.entry(slot).plan;
            (e.task, e.sigma_init, e.sigma, e.alpha_t, e.t_u)
        };

        // First strictly improving extension σ(i)+q, q = 2, 4, …, k — with
        // the q = 2 evaluation doubling as the post-grant finish time. For
        // an unmoved head (σ == σ_init), extensions q ≥ σ cost at least
        // m/(2σ) in redistribution alone, so when the head's remaining
        // time is below that floor the scan is exactly the range q < σ
        // (see `RC_FLOOR_SAFETY`) — the step that keeps drop decisions
        // O(σ) instead of O(k) as the free pool grows.
        let mut q_cap = k;
        if sigma == sigma_init && sigma >= 2 {
            let shrink_floor =
                RC_FLOOR_SAFETY * ctx.calc.task_size(task) / f64::from(2 * sigma);
            if t_u - now <= shrink_floor {
                q_cap = k.min(sigma.saturating_sub(1));
            }
        }
        let mut improvable = false;
        let mut q = 2;
        let mut te2 = f64::INFINITY;
        while q <= q_cap {
            let te = ctx.candidate_finish(task, sigma_init, sigma + q, alpha_t, false);
            if q == 2 {
                te2 = te;
            }
            if te < t_u {
                improvable = true;
                break;
            }
            q += 2;
        }

        if improvable {
            let e = &mut overlay.entry_mut(slot).plan;
            e.sigma += 2;
            e.t_u = te2;
            k -= 2;
        } else {
            overlay.entry_mut(slot).dropped = true;
        }
    }

    // Session end: the queue gets its skipped entries back, the state gets
    // its queue back, and the commit (ascending task id, the reference
    // order) rewrites the values of the tasks that actually moved.
    tails.restore(&mut stash);
    ctx.state.put_latest_queue(tails);
    overlay.stash = stash;
    let mut entries = std::mem::take(&mut ctx.scratch.entries);
    overlay.drain_plans_sorted(&mut entries);
    ctx.scratch.entries = entries;
    ctx.scratch.overlay = overlay;
    ctx.commit_entries();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::PolicyScratch;
    use crate::state::PackState;
    use redistrib_model::{PaperModel, Platform, TaskSpec, TimeCalc, Workload};
    use redistrib_sim::trace::TraceLog;
    use redistrib_sim::units;
    use std::sync::Arc;

    /// Two running tasks on 4 procs each, 4 free (as if a third task ended).
    fn fixture(p: u32) -> (TimeCalc, PackState) {
        let workload = Workload::new(
            vec![TaskSpec::new(2.2e6), TaskSpec::new(1.6e6)],
            Arc::new(PaperModel::default()),
        );
        let calc = TimeCalc::new(workload, Platform::with_mtbf(p, units::years(100.0)));
        let mut state = PackState::new(p, &[4, 4]);
        for i in 0..2 {
            let tu = calc.remaining(i, 4, 1.0);
            state.set_t_u(i, tu);
        }
        (calc, state)
    }

    fn run_policy(calc: &TimeCalc, state: &mut PackState, now: f64) -> u64 {
        let mut trace = TraceLog::disabled();
        let mut count = 0;
        let eligible: Vec<usize> = state.active_tasks().collect();
        let mut scratch = PolicyScratch::default();
        let mut ctx = HeuristicCtx {
            calc,
            state,
            trace: &mut trace,
            now,
            eligible: EligibleSet::Listed(&eligible),
            scratch: &mut scratch,
            pseudocode_fault_bias: false,
            redistributions: &mut count,
        };
        EndLocal.on_task_end(&mut ctx);
        count
    }

    /// Runs the incremental (live-view) path, with its built-in debug
    /// cross-check against the reference active.
    fn run_policy_live(calc: &TimeCalc, state: &mut PackState, now: f64) -> u64 {
        let mut trace = TraceLog::disabled();
        let mut count = 0;
        let mut scratch = PolicyScratch::default();
        let mut ctx = HeuristicCtx {
            calc,
            state,
            trace: &mut trace,
            now,
            eligible: EligibleSet::live(),
            scratch: &mut scratch,
            pseudocode_fault_bias: false,
            redistributions: &mut count,
        };
        EndLocal.on_task_end(&mut ctx);
        count
    }

    #[test]
    fn distributes_free_processors() {
        let (calc, mut state) = fixture(12);
        let tu_before_0 = state.runtime(0).t_u;
        let count = run_policy(&calc, &mut state, 1000.0);
        assert!(count > 0, "free processors should be granted");
        assert_eq!(state.free_count(), 0, "both tasks improvable at this scale");
        assert!(state.runtime(0).t_u < tu_before_0, "longest task improves");
        assert!(state.check_invariants());
    }

    #[test]
    fn longest_task_served_first() {
        let (calc, mut state) = fixture(10); // one free pair only
        let count = run_policy(&calc, &mut state, 1000.0);
        assert_eq!(count, 1);
        // Task 0 is bigger, hence the longest; it should get the pair.
        assert_eq!(state.sigma(0), 6);
        assert_eq!(state.sigma(1), 4);
    }

    #[test]
    fn no_free_processors_is_noop() {
        let (calc, mut state) = fixture(8);
        let count = run_policy(&calc, &mut state, 1000.0);
        assert_eq!(count, 0);
        assert_eq!(state.sigma(0), 4);
        assert_eq!(state.sigma(1), 4);
    }

    #[test]
    fn never_shrinks_tasks() {
        let (calc, mut state) = fixture(16);
        run_policy(&calc, &mut state, 1000.0);
        assert!(state.sigma(0) >= 4);
        assert!(state.sigma(1) >= 4);
    }

    #[test]
    fn anchors_move_for_changed_tasks_only() {
        let (calc, mut state) = fixture(10);
        run_policy(&calc, &mut state, 1000.0);
        // Task 0 changed: anchor after now. Task 1 unchanged: anchor still 0.
        assert!(state.runtime(0).t_last_r > 1000.0);
        assert_eq!(state.runtime(1).t_last_r, 0.0);
    }

    #[test]
    fn respects_eligibility() {
        let (calc, mut state) = fixture(12);
        let mut trace = TraceLog::disabled();
        let mut count = 0;
        // Only task 1 is eligible; task 0 must not change.
        let eligible = vec![1usize];
        let mut scratch = PolicyScratch::default();
        let mut ctx = HeuristicCtx {
            calc: &calc,
            state: &mut state,
            trace: &mut trace,
            now: 1000.0,
            eligible: EligibleSet::Listed(&eligible),
            scratch: &mut scratch,
            pseudocode_fault_bias: false,
            redistributions: &mut count,
        };
        EndLocal.on_task_end(&mut ctx);
        assert_eq!(state.sigma(0), 4);
        assert!(state.sigma(1) > 4);
    }

    #[test]
    fn improvement_is_strict_with_costs() {
        // With an enormous data size, the redistribution cost dominates any
        // gain, so EndLocal must decline.
        let workload = Workload::new(
            vec![TaskSpec::with_ckpt_unit(3.0e6, 1e-9)],
            // Almost sequential: extra processors barely help.
            Arc::new(PaperModel::new(0.99)),
        );
        let calc = TimeCalc::new(workload, Platform::with_mtbf(8, units::years(100.0)));
        let mut state = PackState::new(8, &[2]);
        let tu = calc.remaining(0, 2, 1.0);
        state.set_t_u(0, tu);
        // Nearly finished: the residual gain cannot repay the data movement.
        let count = run_policy(&calc, &mut state, tu * 0.999);
        assert_eq!(count, 0, "non-beneficial redistribution must be declined");
        assert_eq!(state.sigma(0), 2);
    }

    #[test]
    fn incremental_matches_reference() {
        // Same fixture through both paths (the live path additionally
        // replays its own cross-check in debug builds).
        for p in [10u32, 12, 16, 24] {
            let (calc, mut a) = fixture(p);
            let (_, mut b) = fixture(p);
            let ca = run_policy(&calc, &mut a, 1000.0);
            let cb = run_policy_live(&calc, &mut b, 1000.0);
            assert_eq!(ca, cb, "p={p}");
            assert!(a.assignment_eq(&b), "p={p}");
        }
    }

    #[test]
    fn incremental_skips_windowed_tasks() {
        // A task inside a redistribution window (anchor in the future) is
        // not eligible; the live view must leave it untouched.
        let (calc, mut state) = fixture(12);
        state.runtime_mut(0).t_last_r = 2000.0; // window beyond `now`
        run_policy_live(&calc, &mut state, 1000.0);
        assert_eq!(state.sigma(0), 4, "windowed task must be skipped");
        assert!(state.sigma(1) > 4, "eligible task still absorbs the pool");
        assert!(state.check_invariants());
    }
}
