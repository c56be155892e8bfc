//! Algorithm 5 (`IteratedGreedy`) and its task-end variant (`EndGreedy`).
//!
//! Both rebuild a complete schedule, like Algorithm 1, but accounting for
//! the cost of moving each task away from its current allocation: every
//! participating task is virtually reset to two processors, then the task
//! with the longest planned finish time greedily receives pairs while it
//! can strictly improve. A candidate equal to the task's *current*
//! allocation is free (the task simply continues); any other candidate pays
//! `RC^{σ_init→k}` plus the post-redistribution checkpoint — and, for the
//! faulty task, downtime and recovery (§3.3.2 text; the literal pseudocode
//! omits the latter, see `pseudocode_fault_bias`).
//!
//! The rebuild has one exact path, [`greedy_rebuild`]: the two-processor
//! reset, `Θ(Σσ_i)` per decision (every participant pays an `α^t`
//! evaluation plus the candidate evaluations of its walk from 2 back to at
//! least its committed allocation). Live eligible views and explicit lists
//! run the same code; only the membership query differs.
//! [`Heuristic::WarmGreedy`] opts into the approximate grow-only resume
//! from the committed allocation instead ([`greedy_rebuild_warm`]).
//!
//! [`Heuristic::WarmGreedy`]: crate::policies::Heuristic::WarmGreedy

use redistrib_model::TaskId;

use crate::ctx::{EligibleSet, HeuristicCtx, PlanEntry};
use crate::incremental::{pick_session_entry, IncrementalState, RC_FLOOR_SAFETY};

use super::{EndPolicy, FaultPolicy};

/// Rebuilds the schedule greedily over the eligible tasks (plus the faulty
/// task, if any) — the shared implementation of [`IteratedGreedy`] and
/// [`EndGreedy`]: every participant is virtually reset to two processors,
/// then pairs flow to the longest planned finish time while it strictly
/// improves (Algorithm 5).
pub fn greedy_rebuild(ctx: &mut HeuristicCtx<'_>, faulty: Option<TaskId>) {
    let mut entries = std::mem::take(&mut ctx.scratch.entries);
    entries.clear();
    ctx.for_each_eligible(|i| {
        entries.push(PlanEntry {
            task: i,
            sigma_init: ctx.state.sigma(i),
            sigma: 0,
            alpha_t: 0.0,
            t_u: 0.0,
            faulty: false,
        });
    });
    if let Some(f) = faulty {
        entries.push(PlanEntry {
            task: f,
            sigma_init: ctx.state.sigma(f),
            sigma: 0,
            alpha_t: ctx.state.runtime(f).alpha,
            t_u: 0.0,
            faulty: true,
        });
    }
    if entries.is_empty() {
        ctx.scratch.entries = entries;
        return;
    }

    // Plan every participant at two processors. Non-participating active
    // tasks keep their allocation, so the plannable pool is everything else.
    let participating: u32 = entries.iter().map(|e| e.sigma_init).sum();
    let mut available = ctx.state.free_count() + participating - 2 * entries.len() as u32;
    for e in &mut entries {
        if !e.faulty {
            e.alpha_t = ctx.alpha_current(e.task);
        }
        e.sigma = 2;
        e.t_u = ctx.candidate_finish(e.task, e.sigma_init, 2, e.alpha_t, e.faulty);
    }

    let mut values = std::mem::take(&mut ctx.scratch.values);
    values.clear();
    values.extend(entries.iter().map(|e| e.t_u));
    let mut list = std::mem::take(&mut ctx.scratch.heap);
    list.reset(&values);
    // The current head is held *out* of the heap (the "hand"): about a
    // third of all grants go to the task that was already head, and those
    // re-enter the loop below with zero heap traffic — one comparison
    // against the best of the rest instead of a push plus a stale pop.
    let mut hand: Option<(usize, f64)> = None;
    while available >= 2 {
        // Longest planned finish time first.
        let (head, t_u) = match hand {
            Some(h) => h,
            None => {
                let Some((i, v)) = list.peek_max() else { break };
                // Hold the head out of the heap; every outcome below
                // either re-files it (`update`) or re-hands it.
                list.remove(i);
                (i, v)
            }
        };
        let (task, sigma_init, sigma, alpha_t, is_faulty) = {
            let e = &entries[head];
            (e.task, e.sigma_init, e.sigma, e.alpha_t, e.faulty)
        };

        // First strictly improving candidate in (σ, σ + available]. The
        // first evaluation (σ + 2) doubles as the post-grant finish time —
        // the grant is always one pair.
        let pmax = sigma + available;
        let mut improvable = false;
        let mut cand = sigma + 2;
        let mut te_first = f64::INFINITY;
        while cand <= pmax {
            let te = ctx.candidate_finish(task, sigma_init, cand, alpha_t, is_faulty);
            if cand == sigma + 2 {
                te_first = te;
            }
            if te < t_u {
                improvable = true;
                break;
            }
            cand += 2;
        }

        if improvable {
            entries[head].sigma += 2;
            available -= 2;
            entries[head].t_u = te_first;
            // Still on top? Same tie rule as the heap: larger value first,
            // ties toward the lowest entry index. On a switch, the peeked
            // best-of-rest *is* the next head (the re-filed hand just lost
            // to it), so it moves straight into the hand — exactly one
            // queue query per grant, zero on consecutive same-head grants.
            match list.peek_max() {
                None => hand = Some((head, te_first)),
                Some((j, vj)) => {
                    if te_first > vj || (te_first == vj && head < j) {
                        hand = Some((head, te_first));
                    } else {
                        list.update(head, te_first);
                        list.remove(j);
                        hand = Some((j, vj));
                    }
                }
            }
        } else {
            // The longest task cannot improve: stop allocating entirely
            // (Algorithm 5 line 30).
            break;
        }
    }

    ctx.scratch.values = values;
    ctx.scratch.heap = list;
    ctx.scratch.entries = entries;
    ctx.commit_entries();
}

/// Which session entry is the current head of the warm improvement loop.
enum WarmHead {
    /// An overlay slot (an adopted eligible task).
    Overlay(usize),
    /// The faulty task's separately-held plan.
    Faulty,
}

/// Warm greedy rebuild: resumes the Algorithm 5 improvement loop from the
/// committed allocation, with heads pulled lazily off the persistent
/// latest-finish queue and adopted into the session overlay — per-event
/// work scales with the tasks the loop actually touches, not the pack.
fn warm_greedy_rebuild(ctx: &mut HeuristicCtx<'_>, faulty: Option<TaskId>) {
    let now = ctx.now;
    let EligibleSet::Live { skip, min_t_u } = ctx.eligible else {
        unreachable!("warm path requires a live eligible view")
    };
    debug_assert_eq!(skip, faulty, "fault decisions must skip the faulty task");
    // The faulty task participates unconditionally (Algorithm 5 appends it
    // to the planning list even when ineligible) but is held apart from the
    // overlay: the reference list places it *last*, so on exact
    // finish-time ties the head is the non-faulty entry, and the commit
    // applies its move after every eligible task's.
    let mut f_entry = faulty.map(|f| PlanEntry {
        task: f,
        sigma_init: ctx.state.sigma(f),
        sigma: ctx.state.sigma(f),
        alpha_t: ctx.state.runtime(f).alpha,
        t_u: ctx.state.runtime(f).t_u,
        faulty: true,
    });
    let mut avail = ctx.state.free_count();
    let mut overlay = std::mem::take(&mut ctx.scratch.overlay);
    overlay.begin_session(ctx.state.num_tasks());
    let mut stash = std::mem::take(&mut overlay.stash);
    let mut tails = ctx.state.take_latest_queue();

    while avail >= 2 {
        // Head of the improvement loop: the untouched eligible task with
        // the longest committed finish time (straight off the persistent
        // queue) versus the best session entry versus the faulty plan.
        let fresh = {
            let state = &*ctx.state;
            tails.peek_where(&mut stash, |i| {
                let rt = state.runtime(i);
                Some(i) != skip
                    && !overlay.is_touched(i)
                    && rt.t_last_r <= now
                    && rt.t_u >= min_t_u
            })
        };
        let over_best = overlay.best_max();
        let picked = pick_session_entry(
            fresh,
            over_best,
            |a, b| a > b,
            |i, v| {
                // Adopt the head into the session: pop its live queue entry
                // and pay its α^t — the lazy step that keeps cheap events
                // cheap (tasks never adopted pay nothing at all).
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
        let head = match (picked, &f_entry) {
            (Some(slot), Some(f)) if f.t_u > overlay.entry(slot).plan.t_u => WarmHead::Faulty,
            (Some(slot), _) => WarmHead::Overlay(slot),
            (None, Some(_)) => WarmHead::Faulty,
            (None, None) => break,
        };
        let e: PlanEntry = match head {
            WarmHead::Overlay(slot) => overlay.entry(slot).plan,
            WarmHead::Faulty => *f_entry.as_ref().expect("faulty head implies a faulty entry"),
        };

        // An unmoved head whose remaining time sits at or below the growth
        // floor `m/(σ + avail)` provably has no improving candidate — and a
        // failing head scan stops the *whole* loop (Algorithm 5 line 30),
        // so the common "nobody can improve" event costs O(1) evaluations.
        if e.sigma == e.sigma_init
            && e.t_u - now
                <= RC_FLOOR_SAFETY * ctx.calc.task_size(e.task) / f64::from(e.sigma + avail)
        {
            break;
        }

        // First strictly improving candidate in (σ, σ + avail]; the first
        // evaluation (σ + 2) doubles as the post-grant finish time.
        let pmax = e.sigma + avail;
        let mut improvable = false;
        let mut cand = e.sigma + 2;
        let mut te_first = f64::INFINITY;
        while cand <= pmax {
            let te = ctx.candidate_finish(e.task, e.sigma_init, cand, e.alpha_t, e.faulty);
            if cand == e.sigma + 2 {
                te_first = te;
            }
            if te < e.t_u {
                improvable = true;
                break;
            }
            cand += 2;
        }
        if !improvable {
            break;
        }
        avail -= 2;
        match head {
            WarmHead::Overlay(slot) => {
                let p = &mut overlay.entry_mut(slot).plan;
                p.sigma += 2;
                p.t_u = te_first;
            }
            WarmHead::Faulty => {
                let p = f_entry.as_mut().expect("faulty head implies a faulty entry");
                p.sigma += 2;
                p.t_u = te_first;
            }
        }
    }

    // Session end: the queue gets its skipped entries back, and the commit
    // applies the adopted tasks' moves in ascending id order with the
    // faulty task's last — exactly the reference planning-list order.
    tails.restore(&mut stash);
    ctx.state.put_latest_queue(tails);
    overlay.stash = stash;
    let mut entries = std::mem::take(&mut ctx.scratch.entries);
    overlay.drain_plans_sorted(&mut entries);
    if let Some(f) = f_entry {
        entries.push(f);
    }
    ctx.scratch.entries = entries;
    ctx.scratch.overlay = overlay;
    ctx.commit_entries();
}

/// Opt-in *approximate* greedy rebuild: resumes from the committed
/// allocation unconditionally — no reset — so every decision costs
/// `O(touched · log n)` whatever the pack's phase.
///
/// The explicitly-approximate alternative to the exact reset: the resumed
/// loop only *grows* tasks (free processors flow to the longest planned
/// finish times, redistribution costs included), so unlike Algorithm 5 it
/// cannot shrink a task below its committed allocation — at a fault with
/// an empty free pool it does nothing where the exact rebuild would steal
/// from the shortest tasks. Never selected by the default heuristics;
/// reach it through [`Heuristic::WarmGreedy`] (see `experiments warm` for
/// the measured quality gap). Explicit eligible lists run the exact reset
/// instead, so a `reference_policies` configuration is the exact
/// counterpart on identical seeds.
///
/// [`Heuristic::WarmGreedy`]: crate::policies::Heuristic::WarmGreedy
pub fn greedy_rebuild_warm(ctx: &mut HeuristicCtx<'_>, faulty: Option<TaskId>) {
    match ctx.eligible {
        EligibleSet::Listed(_) => greedy_rebuild(ctx, faulty),
        EligibleSet::Live { .. } => warm_greedy_rebuild(ctx, faulty),
    }
}

/// `IteratedGreedy` fault policy (Algorithm 5): on each failure where the
/// faulty task became the longest, rebuild the whole schedule greedily,
/// redistribution costs included.
#[derive(Debug, Clone, Copy, Default)]
pub struct IteratedGreedy;

impl FaultPolicy for IteratedGreedy {
    fn on_fault(&self, ctx: &mut HeuristicCtx<'_>, faulty: TaskId) {
        greedy_rebuild(ctx, Some(faulty));
    }
}

/// `EndGreedy` end policy: when a task ends, rebuild the whole schedule
/// greedily instead of only handing out the released processors (§5.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct EndGreedy;

impl EndPolicy for EndGreedy {
    fn on_task_end(&self, ctx: &mut HeuristicCtx<'_>) {
        greedy_rebuild(ctx, None);
    }
}

/// Approximate warm fault policy: [`greedy_rebuild_warm`] toward the
/// faulty task (no reset, grow-only; see the function docs for the
/// fidelity trade).
#[derive(Debug, Clone, Copy, Default)]
pub struct IteratedGreedyWarm;

impl FaultPolicy for IteratedGreedyWarm {
    fn on_fault(&self, ctx: &mut HeuristicCtx<'_>, faulty: TaskId) {
        greedy_rebuild_warm(ctx, Some(faulty));
    }
}

/// Approximate warm end policy: [`greedy_rebuild_warm`] over the released
/// processors.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndGreedyWarm;

impl EndPolicy for EndGreedyWarm {
    fn on_task_end(&self, ctx: &mut HeuristicCtx<'_>) {
        greedy_rebuild_warm(ctx, None);
    }
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

    fn fixture(sizes: &[f64], sigmas: &[u32], p: u32) -> (TimeCalc, PackState) {
        let workload = Workload::new(
            sizes.iter().map(|&m| TaskSpec::new(m)).collect(),
            Arc::new(PaperModel::default()),
        );
        let calc = TimeCalc::new(workload, Platform::with_mtbf(p, units::years(100.0)));
        let mut state = PackState::new(p, sigmas);
        for (i, &s) in sigmas.iter().enumerate() {
            let tu = calc.remaining(i, s, 1.0);
            state.set_t_u(i, tu);
        }
        (calc, state)
    }

    fn run_greedy(
        calc: &TimeCalc,
        state: &mut PackState,
        now: f64,
        faulty: Option<TaskId>,
    ) -> u64 {
        let mut trace = TraceLog::disabled();
        let mut count = 0;
        let eligible: Vec<usize> =
            state.active_tasks().filter(|&i| Some(i) != faulty).collect();
        let mut scratch = PolicyScratch::default();
        let mut ctx = HeuristicCtx {
            calc,
            state,
            trace: &mut trace,
            now,
            eligible: crate::ctx::EligibleSet::Listed(&eligible),
            scratch: &mut scratch,
            pseudocode_fault_bias: false,
            redistributions: &mut count,
        };
        greedy_rebuild(&mut ctx, faulty);
        count
    }

    #[test]
    fn end_variant_absorbs_free_processors() {
        // Two tasks on 4+4 of 16 processors; 8 free.
        let (calc, mut state) = fixture(&[2.2e6, 1.6e6], &[4, 4], 16);
        let mk_before = state.makespan_estimate();
        run_greedy(&calc, &mut state, 1000.0, None);
        assert_eq!(state.free_count(), 0, "all pairs absorbed at this scale");
        assert!(state.makespan_estimate() < mk_before);
        assert!(state.check_invariants());
    }

    #[test]
    fn rebalances_between_tasks() {
        // Task 0 is much larger but starts tiny: the rebuild must shift
        // processors away from the over-provisioned task 1.
        let (calc, mut state) = fixture(&[2.4e6, 1.5e6], &[2, 10], 12);
        let mk_before = state.makespan_estimate();
        let count = run_greedy(&calc, &mut state, 5000.0, None);
        assert!(count >= 2, "both tasks should move");
        assert!(state.sigma(0) > 2, "large task must gain");
        assert!(state.sigma(1) < 10, "small task must shed");
        assert!(state.makespan_estimate() < mk_before);
        assert!(state.check_invariants());
    }

    #[test]
    fn faulty_task_prioritized() {
        let (calc, mut state) = fixture(&[2.0e6, 2.0e6], &[4, 4], 12);
        // Simulate the engine's fault bookkeeping on task 0: it lost work.
        let t = 2000.0;
        let j = state.sigma(0);
        let d = calc.platform().downtime;
        let r = calc.recovery_time(0, j);
        {
            let rt = state.runtime_mut(0);
            rt.alpha = 1.0; // rolled back to start (no checkpoint yet)
            rt.t_last_r = t + d + r;
        }
        let anchor = state.runtime(0).t_last_r;
        let rem = calc.remaining(0, j, 1.0);
        state.runtime_mut(0).t_u = anchor + rem;
        run_greedy(&calc, &mut state, t, Some(0));
        assert!(
            state.sigma(0) >= state.sigma(1),
            "faulty longest task should not end with fewer procs: {} vs {}",
            state.sigma(0),
            state.sigma(1)
        );
        assert!(state.check_invariants());
    }

    #[test]
    fn same_allocation_pays_nothing() {
        // A balanced plan should leave allocations unchanged and commit no
        // redistribution.
        let (calc, mut state) = fixture(&[2.0e6, 2.0e6], &[8, 8], 16);
        let count = run_greedy(&calc, &mut state, 0.0, None);
        assert_eq!(count, 0, "already-optimal schedule must not be touched");
        assert_eq!(state.sigma(0), 8);
        assert_eq!(state.sigma(1), 8);
    }

    #[test]
    fn empty_eligible_is_noop() {
        let (calc, mut state) = fixture(&[2.0e6], &[4], 8);
        let mut trace = TraceLog::disabled();
        let mut count = 0;
        let eligible: Vec<usize> = vec![];
        let mut scratch = PolicyScratch::default();
        let mut ctx = HeuristicCtx {
            calc: &calc,
            state: &mut state,
            trace: &mut trace,
            now: 10.0,
            eligible: crate::ctx::EligibleSet::Listed(&eligible),
            scratch: &mut scratch,
            pseudocode_fault_bias: false,
            redistributions: &mut count,
        };
        greedy_rebuild(&mut ctx, None);
        assert_eq!(count, 0);
    }

    #[test]
    fn ineligible_tasks_keep_processors() {
        let (calc, mut state) = fixture(&[2.0e6, 2.0e6, 2.0e6], &[4, 4, 4], 16);
        let mut trace = TraceLog::disabled();
        let mut count = 0;
        // Task 2 mid-redistribution: not eligible.
        let eligible = vec![0usize, 1];
        let mut scratch = PolicyScratch::default();
        let mut ctx = HeuristicCtx {
            calc: &calc,
            state: &mut state,
            trace: &mut trace,
            now: 1000.0,
            eligible: crate::ctx::EligibleSet::Listed(&eligible),
            scratch: &mut scratch,
            pseudocode_fault_bias: false,
            redistributions: &mut count,
        };
        greedy_rebuild(&mut ctx, None);
        assert_eq!(state.sigma(2), 4, "ineligible task must be untouched");
        assert!(state.check_invariants());
    }

    #[test]
    fn approx_warm_policy_is_deterministic_and_conserves() {
        // The opt-in approximate variant: grow-only resumes from the
        // committed allocation. It must stay deterministic, keep the
        // processor assignment sound, and absorb free pairs when growth
        // genuinely improves (mid-run, plenty left to gain).
        let (calc, mut a) = fixture(&[2.2e6, 1.6e6], &[4, 4], 16);
        let (_, mut b) = fixture(&[2.2e6, 1.6e6], &[4, 4], 16);
        let run_warm = |calc: &TimeCalc, state: &mut PackState| {
            let mut trace = TraceLog::disabled();
            let mut count = 0;
            let mut scratch = PolicyScratch::default();
            let mut ctx = HeuristicCtx {
                calc,
                state,
                trace: &mut trace,
                now: 1000.0,
                eligible: EligibleSet::live(),
                scratch: &mut scratch,
                pseudocode_fault_bias: false,
                redistributions: &mut count,
            };
            EndGreedyWarm.on_task_end(&mut ctx);
            count
        };
        let ca = run_warm(&calc, &mut a);
        let cb = run_warm(&calc, &mut b);
        assert_eq!(ca, cb);
        assert!(a.assignment_eq(&b));
        assert!(ca > 0, "free pairs improve mid-run tasks");
        assert_eq!(a.free_count(), 0, "all pairs absorbed at this scale");
        assert!(a.check_invariants());
    }
}
