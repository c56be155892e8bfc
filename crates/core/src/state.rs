//! Runtime state of a pack under execution: per-task bookkeeping and the
//! explicit processor-to-task assignment.
//!
//! The paper reasons about allocation *sizes* `σ(i)`; the simulator also
//! tracks *which* physical processors belong to each task, because faults
//! strike processor ids (§3.1: the MTBF of a task on `j` processors is
//! `µ/j`, which emerges mechanically from per-processor fault streams).
//! Processor moves are deterministic — lowest free ids are assigned first,
//! highest owned ids are released first — so runs are exactly reproducible.

use redistrib_model::TaskId;
use redistrib_sim::stddev_population;

use crate::error::ScheduleError;
use crate::heap::{LazyMaxHeap, LazyMinHeap};

/// The pool of free processor ids, as a fixed-size bitset with a
/// first-set-word hint: `take_lowest`/`insert` are the commit path's
/// per-processor operations, and the bitset makes them O(1) amortized
/// where the former `BTreeSet<u32>` paid a tree walk per id. Identical
/// deterministic semantics: ids leave lowest-first and re-enter anywhere.
#[derive(Debug, Clone, Default)]
struct FreePool {
    words: Vec<u64>,
    count: u32,
    /// Index of the lowest word that may contain a set bit.
    hint: usize,
}

impl FreePool {
    fn new(p: u32) -> Self {
        Self { words: vec![0; (p as usize).div_ceil(64)], count: 0, hint: 0 }
    }

    fn len(&self) -> u32 {
        self.count
    }

    fn insert(&mut self, k: u32) {
        let w = (k / 64) as usize;
        let bit = 1u64 << (k % 64);
        debug_assert_eq!(self.words[w] & bit, 0, "processor {k} freed twice");
        self.words[w] |= bit;
        self.count += 1;
        self.hint = self.hint.min(w);
    }

    /// Removes the `n` lowest free ids, appending them in ascending order.
    ///
    /// # Panics
    /// Panics if fewer than `n` ids are free.
    fn take_lowest_n(&mut self, n: u32, out: &mut Vec<u32>) {
        let mut remaining = n;
        while remaining > 0 {
            assert!(self.hint < self.words.len(), "free pool is empty");
            let before = self.words[self.hint];
            if before == 0 {
                self.hint += 1;
                continue;
            }
            let base = self.hint as u32 * 64;
            let mut bits = before;
            while bits != 0 && remaining > 0 {
                out.push(base + bits.trailing_zeros());
                bits &= bits - 1; // clear lowest set bit
                remaining -= 1;
            }
            self.count -= before.count_ones() - bits.count_ones();
            self.words[self.hint] = bits;
        }
    }

    /// Ascending iteration (invariant checks and tests).
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter(move |b| w & (1 << b) != 0).map(move |b| wi as u32 * 64 + b)
        })
    }
}

/// Per-task runtime bookkeeping (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRuntime {
    /// Remaining fraction of work `α_i ∈ [0, 1]`.
    pub alpha: f64,
    /// Anchor `tlastR_i`: time of the last redistribution or failure (plus
    /// its overheads); work accounting restarts from a period boundary here.
    pub t_last_r: f64,
    /// Current expected finish time `t^U_i` (absolute).
    pub t_u: f64,
    /// Whether the task has completed.
    pub done: bool,
    /// Completion time (meaningful once `done`).
    pub completion_time: f64,
}

impl TaskRuntime {
    fn initial() -> Self {
        Self { alpha: 1.0, t_last_r: 0.0, t_u: 0.0, done: false, completion_time: 0.0 }
    }
}

/// Mutable state of a pack: task runtimes plus the processor assignment.
#[derive(Debug, Clone)]
pub struct PackState {
    runtimes: Vec<TaskRuntime>,
    /// `proc_owner[k]` is the task currently running on processor `k`.
    proc_owner: Vec<Option<TaskId>>,
    /// Ascending processor ids owned by each task.
    task_procs: Vec<Vec<u32>>,
    /// Free processors.
    free: FreePool,
    /// Number of tasks not yet completed (maintained incrementally).
    active: usize,
    /// Ascending ids of tasks not yet completed — the iteration set of the
    /// live eligibility views, so a per-event pass scales with the tasks
    /// still running instead of every task ever submitted.
    active_ids: Vec<TaskId>,
    /// Monotone high-water mark of any single task's allocation size —
    /// a cheap *upper bound* on every active `σ(i)` (it never decreases,
    /// so shrinks and completions keep it valid), used by the incremental
    /// policies' redistribution-cost floor.
    sigma_hi: u32,
    /// End-event queue: expected finish times of *started* tasks, entered
    /// via [`PackState::set_t_u`] and lazily deleted on completion. Gives
    /// `O(log n)` [`PackState::earliest_active`] instead of a linear scan.
    ends: LazyMinHeap,
    /// Latest-finish queue: the max-direction mirror of `ends`, maintained
    /// by the same two entry points. Gives `O(log n)` "is the faulty task
    /// now the longest?" checks and seeds the incremental policies' head
    /// queries without a per-event rebuild.
    tails: LazyMaxHeap,
}

/// Serializable view of a [`PackState`] — the stable snapshot encoding the
/// session snapshot/restore machinery round-trips through.
///
/// Only *logical* state is captured: the heap queues are represented by
/// their authoritative value arrays (`NaN` = absent) and rebuilt
/// canonically on restore. This is exact by construction: every queue pick
/// is a pure function of the authoritative array under a total-order
/// comparator, so the internal heap layout — the one thing a restore does
/// not reproduce — can never change a decision.
#[derive(Debug, Clone)]
pub struct PackStateSnapshot {
    /// Platform size `p`.
    pub p: u32,
    /// Per-task runtime records, verbatim.
    pub runtimes: Vec<TaskRuntime>,
    /// Ascending processor ids owned by each task.
    pub task_procs: Vec<Vec<u32>>,
    /// Monotone allocation-size high-water mark.
    pub sigma_hi: u32,
    /// End-event queue values (`NaN` = not started / completed).
    pub ends: Vec<f64>,
    /// Latest-finish queue values (same membership as `ends`).
    pub tails: Vec<f64>,
}

impl PackState {
    /// Captures the logical state as a [`PackStateSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> PackStateSnapshot {
        let n = self.runtimes.len();
        PackStateSnapshot {
            p: self.num_procs(),
            runtimes: self.runtimes.clone(),
            task_procs: self.task_procs.clone(),
            sigma_hi: self.sigma_hi,
            ends: (0..n).map(|i| self.ends.value(i)).collect(),
            tails: (0..n).map(|i| self.tails.value(i)).collect(),
        }
    }

    /// Rebuilds a state from a snapshot, validating internal consistency.
    ///
    /// # Errors
    /// [`ScheduleError::CorruptSnapshot`] on inconsistent lengths, processor
    /// ids out of range or owned twice, completed tasks owning processors,
    /// a `sigma_hi` below the largest allocation, or queue membership
    /// contradicting the runtime records.
    pub fn from_snapshot(snap: &PackStateSnapshot) -> Result<Self, ScheduleError> {
        let n = snap.runtimes.len();
        let corrupt = |reason| Err(ScheduleError::CorruptSnapshot { reason });
        if snap.task_procs.len() != n || snap.ends.len() != n || snap.tails.len() != n {
            return corrupt("per-task arrays disagree on the task count");
        }
        let p = snap.p as usize;
        let mut proc_owner: Vec<Option<TaskId>> = vec![None; p];
        for (i, procs) in snap.task_procs.iter().enumerate() {
            if snap.runtimes[i].done && !procs.is_empty() {
                return corrupt("a completed task still owns processors");
            }
            for &k in procs {
                if k as usize >= p {
                    return corrupt("processor id out of range");
                }
                if proc_owner[k as usize].replace(i).is_some() {
                    return corrupt("processor owned by two tasks");
                }
            }
        }
        let mut free = FreePool::new(snap.p);
        for k in 0..snap.p {
            if proc_owner[k as usize].is_none() {
                free.insert(k);
            }
        }
        let mut ends = LazyMinHeap::with_len(n);
        let mut tails = LazyMaxHeap::with_len(n);
        for i in 0..n {
            if snap.ends[i].is_nan() != snap.tails[i].is_nan() {
                return corrupt("end/latest queues disagree on membership");
            }
            if !snap.ends[i].is_nan() {
                if snap.runtimes[i].done {
                    return corrupt("a completed task is still queued");
                }
                ends.update(i, snap.ends[i]);
                tails.update(i, snap.tails[i]);
            }
        }
        let active_ids: Vec<TaskId> = (0..n).filter(|&i| !snap.runtimes[i].done).collect();
        let state = Self {
            runtimes: snap.runtimes.clone(),
            proc_owner,
            task_procs: snap.task_procs.clone(),
            free,
            active: active_ids.len(),
            active_ids,
            sigma_hi: snap.sigma_hi,
            ends,
            tails,
        };
        if !state.check_invariants() {
            return corrupt("restored state fails the pack invariants");
        }
        Ok(state)
    }

    /// Appends `k` fresh, unstarted, unallocated tasks (ids continue from
    /// the current count) — the growth path behind mid-run job submission.
    /// New tasks own no processors and sit outside every queue until the
    /// admission layer starts them, exactly like the tail of
    /// [`PackState::unallocated`].
    pub fn add_tasks(&mut self, k: usize) {
        let old = self.runtimes.len();
        let n = old + k;
        self.runtimes.resize(n, TaskRuntime::initial());
        self.task_procs.resize_with(n, Vec::new);
        self.active += k;
        self.active_ids.extend(old..n);
        self.ends.grow_len(n);
        self.tails.grow_len(n);
    }

    /// Creates the state for `p` processors with the given initial
    /// allocation sizes (task `0` receives the lowest ids, and so on).
    ///
    /// # Panics
    /// Panics if the allocations exceed `p`.
    #[must_use]
    pub fn new(p: u32, sigmas: &[u32]) -> Self {
        let total: u32 = sigmas.iter().sum();
        assert!(total <= p, "allocations ({total}) exceed platform size ({p})");
        let mut proc_owner = vec![None; p as usize];
        let mut task_procs = Vec::with_capacity(sigmas.len());
        let mut next = 0u32;
        for (i, &s) in sigmas.iter().enumerate() {
            let procs: Vec<u32> = (next..next + s).collect();
            for &k in &procs {
                proc_owner[k as usize] = Some(i);
            }
            next += s;
            task_procs.push(procs);
        }
        let mut free = FreePool::new(p);
        for k in next..p {
            free.insert(k);
        }
        Self {
            runtimes: vec![TaskRuntime::initial(); sigmas.len()],
            proc_owner,
            task_procs,
            free,
            active: sigmas.len(),
            active_ids: (0..sigmas.len()).collect(),
            sigma_hi: sigmas.iter().copied().max().unwrap_or(0),
            ends: LazyMinHeap::with_len(sigmas.len()),
            tails: LazyMaxHeap::with_len(sigmas.len()),
        }
    }

    /// Creates the state for `p` processors and `n` tasks that own *no*
    /// processors yet.
    ///
    /// This is the entry state of the online co-scheduler: jobs exist in the
    /// bookkeeping from the start but are only granted processors when the
    /// admission layer starts them ([`PackState::grow`]). An unallocated
    /// task must be kept out of the policies' `eligible` sets until started.
    #[must_use]
    pub fn unallocated(p: u32, n: usize) -> Self {
        Self::new(p, &vec![0; n])
    }

    /// Number of tasks.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.runtimes.len()
    }

    /// Platform size `p`.
    #[must_use]
    pub fn num_procs(&self) -> u32 {
        self.proc_owner.len() as u32
    }

    /// Immutable access to a task's runtime record.
    #[must_use]
    pub fn runtime(&self, i: TaskId) -> &TaskRuntime {
        &self.runtimes[i]
    }

    /// Mutable access to a task's runtime record.
    ///
    /// `t_u` must **not** be written through this accessor — use
    /// [`PackState::set_t_u`], which keeps the end-event queue in sync.
    pub fn runtime_mut(&mut self, i: TaskId) -> &mut TaskRuntime {
        &mut self.runtimes[i]
    }

    /// Sets task `i`'s expected finish time, entering it into the
    /// end-event queue (first call marks the task *started*).
    ///
    /// # Panics
    /// Panics if `t_u` is NaN.
    pub fn set_t_u(&mut self, i: TaskId, t_u: f64) {
        debug_assert_eq!(
            self.ends.len(),
            self.runtimes.len(),
            "set_t_u while an event queue is taken for a policy session"
        );
        self.runtimes[i].t_u = t_u;
        self.ends.update(i, t_u);
        self.tails.update(i, t_u);
    }

    /// Whether task `i` has been started (its first expected finish time
    /// set). Queued online jobs are unstarted; every task of the static
    /// engine is started at t = 0.
    #[must_use]
    pub fn is_started(&self, i: TaskId) -> bool {
        self.ends.contains(i)
    }

    /// Current allocation size `σ(i)`.
    #[must_use]
    pub fn sigma(&self, i: TaskId) -> u32 {
        self.task_procs[i].len() as u32
    }

    /// The task currently running on processor `k`, if any.
    #[must_use]
    pub fn owner(&self, proc: u32) -> Option<TaskId> {
        self.proc_owner[proc as usize]
    }

    /// Number of free processors.
    #[must_use]
    pub fn free_count(&self) -> u32 {
        self.free.len()
    }

    /// Number of processors currently owned by tasks (`p − free`).
    #[must_use]
    pub fn used_count(&self) -> u32 {
        self.num_procs() - self.free_count()
    }

    /// Grows task `i` by `by` processors, taking the lowest free ids.
    ///
    /// # Panics
    /// Panics if fewer than `by` processors are free or the task is done.
    pub fn grow(&mut self, i: TaskId, by: u32) {
        assert!(!self.runtimes[i].done, "cannot grow a completed task");
        assert!(
            self.free.len() >= by,
            "not enough free processors: need {by}, have {}",
            self.free.len()
        );
        let start = self.task_procs[i].len();
        self.free.take_lowest_n(by, &mut self.task_procs[i]);
        for x in start..self.task_procs[i].len() {
            self.proc_owner[self.task_procs[i][x] as usize] = Some(i);
        }
        self.task_procs[i].sort_unstable();
        self.sigma_hi = self.sigma_hi.max(self.task_procs[i].len() as u32);
    }

    /// Monotone upper bound on every task's current allocation size (the
    /// largest `σ` any single task has ever held).
    #[must_use]
    pub fn sigma_high_water(&self) -> u32 {
        debug_assert!(self.task_procs.iter().all(|p| p.len() as u32 <= self.sigma_hi));
        self.sigma_hi
    }

    /// Shrinks task `i` by `by` processors, releasing its highest ids.
    ///
    /// # Panics
    /// Panics if the task owns fewer than `by` processors.
    pub fn shrink(&mut self, i: TaskId, by: u32) {
        assert!(
            self.task_procs[i].len() >= by as usize,
            "cannot shrink task {i} by {by}: owns {}",
            self.task_procs[i].len()
        );
        for _ in 0..by {
            let k = self.task_procs[i].pop().expect("non-empty");
            self.proc_owner[k as usize] = None;
            self.free.insert(k);
        }
    }

    /// Sets task `i`'s allocation to exactly `new_sigma` processors.
    pub fn set_sigma(&mut self, i: TaskId, new_sigma: u32) {
        let cur = self.sigma(i);
        match new_sigma.cmp(&cur) {
            std::cmp::Ordering::Greater => self.grow(i, new_sigma - cur),
            std::cmp::Ordering::Less => self.shrink(i, cur - new_sigma),
            std::cmp::Ordering::Equal => {}
        }
    }

    /// Marks task `i` completed at `time` and releases all its processors.
    pub fn complete(&mut self, i: TaskId, time: f64) {
        debug_assert!(!self.runtimes[i].done, "task {i} completed twice");
        let cur = self.sigma(i);
        self.shrink(i, cur);
        let rt = &mut self.runtimes[i];
        rt.done = true;
        rt.alpha = 0.0;
        rt.completion_time = time;
        self.active -= 1;
        let pos = self.active_ids.binary_search(&i).expect("completed task was active");
        self.active_ids.remove(pos);
        self.ends.remove(i);
        self.tails.remove(i);
    }

    /// Iterates over the ids of tasks still running.
    pub fn active_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.active_ids.iter().copied()
    }

    /// Ascending ids of tasks not yet completed (O(1) access; maintained
    /// incrementally by [`PackState::complete`]).
    #[must_use]
    pub fn active_ids(&self) -> &[TaskId] {
        debug_assert_eq!(self.active_ids.len(), self.active);
        &self.active_ids
    }

    /// Number of tasks still running (O(1), maintained incrementally).
    #[must_use]
    pub fn active_count(&self) -> usize {
        debug_assert_eq!(self.active, self.runtimes.iter().filter(|r| !r.done).count());
        self.active
    }

    /// The *started* active task with the latest expected finish time, if
    /// any (ties broken toward the lowest id). `O(log n)` via the
    /// latest-finish queue; in debug builds the pick is cross-checked
    /// against [`PackState::longest_active_scan`].
    pub fn longest_active(&mut self) -> Option<(TaskId, f64)> {
        let picked = self.tails.peek_max();
        debug_assert_eq!(picked, self.longest_active_scan(), "latest-queue/scan divergence");
        picked
    }

    /// Reference implementation of [`PackState::longest_active`]: a linear
    /// scan over started active tasks. Kept for equivalence tests and
    /// debug cross-checking.
    #[must_use]
    pub fn longest_active_scan(&self) -> Option<(TaskId, f64)> {
        let mut best: Option<(TaskId, f64)> = None;
        for i in self.active_tasks() {
            if !self.ends.contains(i) {
                continue;
            }
            let tu = self.runtimes[i].t_u;
            if best.is_none_or(|(_, b)| tu > b) {
                best = Some((i, tu));
            }
        }
        best
    }

    /// Whether every started active task's expected finish time is `≤
    /// bound` — the engines' "did the faulty task become the longest?"
    /// test, `O(1)` amortized via the latest-finish queue instead of a
    /// linear scan (the faulty task itself sits in the queue at its
    /// post-rollback time, which never exceeds its own bound).
    pub fn none_later_than(&mut self, bound: f64) -> bool {
        self.longest_active().is_none_or(|(_, tu)| tu <= bound)
    }

    /// Collects (ascending id) and unqueues the started active tasks with
    /// an expected finish time strictly before `t` — the fault handler's
    /// "tasks finishing inside the recovery window" set, found in
    /// `O(found · log n)` instead of an `O(n)` scan.
    ///
    /// The caller must [`PackState::complete`] every returned task before
    /// the next queue query: the tasks are already removed from the event
    /// queues, so leaving one active would desynchronize the queue views.
    pub fn drain_ending_before(&mut self, t: f64, out: &mut Vec<TaskId>) {
        out.clear();
        #[cfg(debug_assertions)]
        let expect: Vec<TaskId> = {
            let mut v: Vec<TaskId> = self
                .active_tasks()
                .filter(|&i| self.ends.contains(i) && self.runtimes[i].t_u < t)
                .collect();
            v.sort_unstable();
            v
        };
        while let Some((i, tu)) = self.ends.peek_min() {
            if tu >= t {
                break;
            }
            self.ends.remove(i);
            self.tails.remove(i);
            out.push(i);
        }
        // The queue yields (t_u, id) order; the engines complete the
        // finishing tasks in ascending id order (the historical event-log
        // order), so normalize here.
        out.sort_unstable();
        #[cfg(debug_assertions)]
        debug_assert_eq!(*out, expect, "drain/scan divergence");
    }

    /// Takes the end-event (min) queue out of the state for a policy
    /// decision session (filtered donor queries borrow the pack state
    /// read-only while mutating the queue). The caller must hand it back
    /// via [`PackState::put_end_queue`] before committing any plan.
    #[must_use]
    pub fn take_end_queue(&mut self) -> LazyMinHeap {
        debug_assert_eq!(self.ends.len(), self.runtimes.len(), "end queue already taken");
        std::mem::take(&mut self.ends)
    }

    /// Returns the end-event queue taken by [`PackState::take_end_queue`].
    pub fn put_end_queue(&mut self, q: LazyMinHeap) {
        debug_assert_eq!(q.len(), self.runtimes.len(), "returning a foreign end queue");
        self.ends = q;
    }

    /// Takes the latest-finish (max) queue for a policy decision session;
    /// hand it back via [`PackState::put_latest_queue`] before committing.
    #[must_use]
    pub fn take_latest_queue(&mut self) -> LazyMaxHeap {
        debug_assert_eq!(self.tails.len(), self.runtimes.len(), "latest queue already taken");
        std::mem::take(&mut self.tails)
    }

    /// Returns the latest-finish queue taken by
    /// [`PackState::take_latest_queue`].
    pub fn put_latest_queue(&mut self, q: LazyMaxHeap) {
        debug_assert_eq!(q.len(), self.runtimes.len(), "returning a foreign latest queue");
        self.tails = q;
    }

    /// The *started* active task with the earliest expected finish time, if
    /// any (ties toward the lowest id). `O(log n)` via the lazy-deletion
    /// end-event queue; in debug builds the pick is cross-checked against
    /// [`PackState::earliest_active_scan`].
    ///
    /// Tasks enter consideration at their first [`PackState::set_t_u`]
    /// (the online engine keeps queued jobs out this way) and leave on
    /// [`PackState::complete`].
    pub fn earliest_active(&mut self) -> Option<(TaskId, f64)> {
        let picked = self.ends.peek_min();
        debug_assert_eq!(picked, self.earliest_active_scan(), "heap/scan divergence");
        picked
    }

    /// Reference implementation of [`PackState::earliest_active`]: a linear
    /// scan over started active tasks. Kept for equivalence tests and
    /// debug cross-checking.
    #[must_use]
    pub fn earliest_active_scan(&self) -> Option<(TaskId, f64)> {
        let mut best: Option<(TaskId, f64)> = None;
        for i in self.active_tasks() {
            if !self.ends.contains(i) {
                continue;
            }
            let tu = self.runtimes[i].t_u;
            if best.is_none_or(|(_, b)| tu < b) {
                best = Some((i, tu));
            }
        }
        best
    }

    /// Current makespan estimate: the maximum of completed tasks'
    /// completion times and active tasks' expected finish times (Fig. 9a).
    #[must_use]
    pub fn makespan_estimate(&self) -> f64 {
        self.runtimes
            .iter()
            .map(|r| if r.done { r.completion_time } else { r.t_u })
            .fold(0.0, f64::max)
    }

    /// Population standard deviation of active tasks' allocation sizes
    /// (Fig. 9b).
    #[must_use]
    pub fn alloc_stddev(&self) -> f64 {
        let sizes: Vec<f64> = self.active_tasks().map(|i| f64::from(self.sigma(i))).collect();
        stddev_population(&sizes)
    }

    /// Whether two states agree down to the physical processor assignment
    /// and the *bit patterns* of every runtime field — the equivalence the
    /// incremental policies' debug cross-checks and the property tests
    /// assert against the from-scratch reference path.
    #[must_use]
    pub fn assignment_eq(&self, other: &Self) -> bool {
        self.proc_owner == other.proc_owner
            && self.task_procs == other.task_procs
            && self.free.count == other.free.count
            && self.free.words == other.free.words
            && self.active == other.active
            && self.runtimes.len() == other.runtimes.len()
            && self.runtimes.iter().zip(&other.runtimes).all(|(a, b)| {
                a.done == b.done
                    && a.alpha.to_bits() == b.alpha.to_bits()
                    && a.t_last_r.to_bits() == b.t_last_r.to_bits()
                    && a.t_u.to_bits() == b.t_u.to_bits()
                    && a.completion_time.to_bits() == b.completion_time.to_bits()
            })
    }

    /// Debug invariant: ownership tables are mutually consistent, every
    /// allocation is even, and none exceeds the `sigma_hi` high-water mark.
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        let mut counted = 0usize;
        for (i, procs) in self.task_procs.iter().enumerate() {
            if self.runtimes[i].done && !procs.is_empty() {
                return false;
            }
            if procs.len() % 2 != 0 || procs.len() as u32 > self.sigma_hi {
                return false;
            }
            counted += procs.len();
            let mut last = None;
            for &k in procs {
                if self.proc_owner[k as usize] != Some(i) {
                    return false;
                }
                if let Some(prev) = last {
                    if k <= prev {
                        return false;
                    }
                }
                last = Some(k);
            }
        }
        for k in self.free.iter() {
            if self.proc_owner[k as usize].is_some() {
                return false;
            }
        }
        counted + self.free.len() as usize == self.proc_owner.len()
            && self.proc_owner.iter().filter(|o| o.is_some()).count() == counted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> PackState {
        PackState::new(10, &[2, 4, 2])
    }

    #[test]
    fn initial_assignment_is_contiguous() {
        let s = state();
        assert_eq!(s.sigma(0), 2);
        assert_eq!(s.sigma(1), 4);
        assert_eq!(s.sigma(2), 2);
        assert_eq!(s.free_count(), 2);
        assert_eq!(s.owner(0), Some(0));
        assert_eq!(s.owner(2), Some(1));
        assert_eq!(s.owner(6), Some(2));
        assert_eq!(s.owner(8), None);
        assert!(s.check_invariants());
    }

    #[test]
    fn grow_takes_lowest_free_ids() {
        let mut s = state();
        s.grow(0, 2);
        assert_eq!(s.sigma(0), 4);
        assert_eq!(s.owner(8), Some(0));
        assert_eq!(s.owner(9), Some(0));
        assert_eq!(s.free_count(), 0);
        assert!(s.check_invariants());
    }

    #[test]
    fn shrink_releases_highest_ids() {
        let mut s = state();
        s.shrink(1, 2);
        assert_eq!(s.sigma(1), 2);
        assert_eq!(s.owner(4), None);
        assert_eq!(s.owner(5), None);
        assert_eq!(s.free_count(), 4);
        assert!(s.check_invariants());
    }

    #[test]
    fn moves_are_deterministic() {
        let mut a = state();
        let mut b = state();
        for s in [&mut a, &mut b] {
            s.shrink(1, 2);
            s.grow(2, 2);
            s.set_sigma(0, 4);
        }
        for k in 0..10 {
            assert_eq!(a.owner(k), b.owner(k));
        }
    }

    #[test]
    fn set_sigma_both_directions() {
        let mut s = state();
        s.set_sigma(1, 2);
        assert_eq!(s.sigma(1), 2);
        s.set_sigma(1, 6);
        assert_eq!(s.sigma(1), 6);
        s.set_sigma(1, 6);
        assert_eq!(s.sigma(1), 6);
        assert!(s.check_invariants());
    }

    #[test]
    fn complete_releases_everything() {
        let mut s = state();
        s.set_t_u(1, 5.0);
        s.complete(1, 5.0);
        assert!(s.runtime(1).done);
        assert_eq!(s.runtime(1).completion_time, 5.0);
        assert_eq!(s.runtime(1).alpha, 0.0);
        assert_eq!(s.sigma(1), 0);
        assert_eq!(s.free_count(), 6);
        assert_eq!(s.active_count(), 2);
        assert!(s.check_invariants());
    }

    #[test]
    fn longest_and_earliest() {
        let mut s = state();
        s.set_t_u(0, 10.0);
        s.set_t_u(1, 30.0);
        s.set_t_u(2, 20.0);
        assert_eq!(s.longest_active(), Some((1, 30.0)));
        assert_eq!(s.earliest_active(), Some((0, 10.0)));
        s.complete(1, 30.0);
        assert_eq!(s.longest_active(), Some((2, 20.0)));
    }

    #[test]
    fn longest_tie_breaks_to_lowest_id() {
        let mut s = state();
        for i in 0..3 {
            s.set_t_u(i, 7.0);
        }
        assert_eq!(s.longest_active(), Some((0, 7.0)));
    }

    #[test]
    fn makespan_estimate_mixes_done_and_active() {
        let mut s = state();
        s.set_t_u(0, 10.0);
        s.set_t_u(1, 30.0);
        s.set_t_u(2, 20.0);
        s.complete(1, 31.5);
        assert_eq!(s.makespan_estimate(), 31.5);
        s.set_t_u(0, 40.0);
        assert_eq!(s.makespan_estimate(), 40.0);
    }

    #[test]
    fn alloc_stddev_over_active_only() {
        let mut s = state();
        // σ = [2, 4, 2]: mean 8/3, population stddev = sqrt(8/9).
        let expected = (8.0f64 / 9.0).sqrt();
        assert!((s.alloc_stddev() - expected).abs() < 1e-12);
        s.complete(1, 1.0);
        assert_eq!(s.alloc_stddev(), 0.0);
    }

    #[test]
    fn unallocated_state_starts_empty() {
        let mut s = PackState::unallocated(8, 3);
        assert_eq!(s.num_tasks(), 3);
        assert_eq!(s.free_count(), 8);
        assert_eq!(s.used_count(), 0);
        for i in 0..3 {
            assert_eq!(s.sigma(i), 0);
            assert!(!s.runtime(i).done);
        }
        assert!(s.check_invariants());
        // Tasks can be started later by growing from zero.
        s.grow(1, 4);
        assert_eq!(s.sigma(1), 4);
        assert_eq!(s.used_count(), 4);
        assert!(s.check_invariants());
    }

    #[test]
    #[should_panic(expected = "exceed platform size")]
    fn rejects_over_allocation() {
        let _ = PackState::new(4, &[2, 4]);
    }

    #[test]
    #[should_panic(expected = "not enough free processors")]
    fn grow_rejects_when_pool_empty() {
        let mut s = state();
        s.grow(0, 4);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn shrink_rejects_underflow() {
        let mut s = state();
        s.shrink(0, 4);
    }
}
