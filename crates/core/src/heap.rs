//! Lazy-deletion priority queues over `(value, index)` pairs.
//!
//! The greedy loops of Algorithms 1, 3 and 5 repeatedly need "the task with
//! the longest expected finish time", and the engines' event loops need
//! "the active task with the earliest end", with values that change as
//! processors are granted or events land. A `BinaryHeap` with stale-entry
//! skipping gives `O(log n)` per operation: updates push a fresh entry, and
//! `peek` discards entries whose value no longer matches the authoritative
//! `current` array.
//!
//! One generic core ([`LazyHeapCore`]) serves both directions through an
//! ordering marker: [`LazyMaxHeap`] (heuristic planning lists, the pack's
//! latest-finish queue) and [`LazyMinHeap`] (the engines' end-event
//! queues). Ties break toward the lowest index in both, matching the
//! deterministic list order used throughout (`head(L)` on equal times is
//! the earliest task) — so the heaps return bit-identical picks to the
//! linear scans they replace.
//!
//! Two features beyond a plain lazy heap:
//!
//! * **small-n cutover** — below [`SMALL_N`] indices the `BinaryHeap` is
//!   bypassed entirely and every query is a linear scan over the
//!   authoritative array. For tiny packs the scan is faster than heap
//!   maintenance (no allocation, no stale-entry traffic) and the pick is
//!   identical by construction;
//! * **session filtering** ([`LazyHeapCore::peek_where`]) — the incremental
//!   policies query "the best index satisfying a predicate" against the
//!   *persistent* queues without rebuilding them per event. Non-matching
//!   live entries are popped into a caller-owned stash and re-pushed by
//!   [`LazyHeapCore::restore`] when the decision session ends; the
//!   predicate must therefore only shrink during a session (eligibility is
//!   fixed at the event timestamp and the touched-set only grows).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::marker::PhantomData;

/// Below this many indices the queues skip the `BinaryHeap` and answer
/// every query with a linear scan over the authoritative array.
pub const SMALL_N: usize = 32;

/// Direction marker for [`LazyHeapCore`].
pub trait HeapOrder {
    /// Whether value `a` is *strictly* better than `b` for the top spot.
    fn beats(a: f64, b: f64) -> bool;
}

/// Max-first ordering (longest expected finish time).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxOrder;

/// Min-first ordering (earliest end event).
#[derive(Debug, Clone, Copy, Default)]
pub struct MinOrder;

impl HeapOrder for MaxOrder {
    fn beats(a: f64, b: f64) -> bool {
        a > b
    }
}

impl HeapOrder for MinOrder {
    fn beats(a: f64, b: f64) -> bool {
        a < b
    }
}

/// A stashed live entry popped during a filtered session query; re-pushed
/// by [`LazyHeapCore::restore`].
pub type StashEntry = (usize, f64);

#[derive(Debug, Clone, Copy)]
struct Entry<O> {
    val: f64,
    idx: usize,
    _order: PhantomData<O>,
}

impl<O> Entry<O> {
    fn new(idx: usize, val: f64) -> Self {
        Self { val, idx, _order: PhantomData }
    }
}

impl<O: HeapOrder> PartialEq for Entry<O> {
    fn eq(&self, other: &Self) -> bool {
        self.val == other.val && self.idx == other.idx
    }
}
impl<O: HeapOrder> Eq for Entry<O> {}

impl<O: HeapOrder> Ord for Entry<O> {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` pops the greatest entry. Order values so the better
        // (per `O`) value compares greater; ties prefer the lowest index
        // (reverse idx so the lower index compares greater).
        let value_order = if O::beats(1.0, 0.0) {
            self.val.partial_cmp(&other.val).expect("heap values are never NaN")
        } else {
            other.val.partial_cmp(&self.val).expect("heap values are never NaN")
        };
        value_order.then_with(|| other.idx.cmp(&self.idx))
    }
}
impl<O: HeapOrder> PartialOrd for Entry<O> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lazy-deletion priority queue with *membership*: indices may be absent
/// (NaN in the authoritative array) and only participate while present.
///
/// Two construction styles:
/// * [`LazyHeapCore::with_len`] — all indices start absent; they enter at
///   their first [`LazyHeapCore::update`] (the engines' event queues);
/// * [`LazyHeapCore::new`] / [`LazyHeapCore::reset`] — every index present
///   with the given seed value (heuristic planning lists).
#[derive(Debug, Clone)]
pub struct LazyHeapCore<O: HeapOrder> {
    heap: BinaryHeap<Entry<O>>,
    /// Authoritative values; NaN marks "absent".
    current: Vec<f64>,
    /// Small-n mode: no heap traffic, every query scans `current`.
    small: bool,
}

impl<O: HeapOrder> Default for LazyHeapCore<O> {
    fn default() -> Self {
        Self { heap: BinaryHeap::new(), current: Vec::new(), small: true }
    }
}

/// Max-first lazy queue (planning lists, latest-finish queue).
pub type LazyMaxHeap = LazyHeapCore<MaxOrder>;

/// Min-first lazy queue (the engines' end-event queues).
pub type LazyMinHeap = LazyHeapCore<MinOrder>;

impl<O: HeapOrder> LazyHeapCore<O> {
    /// Creates a queue for indices `0..n`, all initially absent.
    #[must_use]
    pub fn with_len(n: usize) -> Self {
        Self { heap: BinaryHeap::new(), current: vec![f64::NAN; n], small: n < SMALL_N }
    }

    /// Builds a queue over `values` (index `i` carries `values[i]`).
    ///
    /// # Panics
    /// Panics if any value is NaN.
    #[must_use]
    pub fn new(values: &[f64]) -> Self {
        let mut h = Self::default();
        h.reset(values);
        h
    }

    /// Reinitializes the queue over `values`, retaining allocations — the
    /// zero-alloc path used by policy scratch buffers.
    ///
    /// Infinities are allowed (degenerate platforms can produce infinite
    /// expected times; they flowed through the pre-heap linear scans too);
    /// NaN is rejected — it is the lazy-deletion sentinel.
    ///
    /// # Panics
    /// Panics if any value is NaN.
    pub fn reset(&mut self, values: &[f64]) {
        assert!(values.iter().all(|v| !v.is_nan()), "heap values must not be NaN");
        self.small = values.len() < SMALL_N;
        let mut storage = std::mem::take(&mut self.heap).into_vec();
        storage.clear();
        if !self.small {
            storage.extend(values.iter().enumerate().map(|(idx, &val)| Entry::new(idx, val)));
        }
        // O(n) Floyd heapify instead of n sift-up pushes; the internal
        // layout is irrelevant to picks (the comparator is a total order).
        self.heap = BinaryHeap::from(storage);
        self.current.clear();
        self.current.extend_from_slice(values);
    }

    /// Number of indices the queue is sized for (present or absent).
    #[must_use]
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// Extends the index space to `new_len`; new indices start absent.
    /// Crossing the small-n cutover populates the heap from the live
    /// entries, so picks stay identical to the linear scan they replace
    /// (the comparator is a total order — internal layout never matters).
    ///
    /// # Panics
    /// Panics if `new_len` shrinks the queue.
    pub fn grow_len(&mut self, new_len: usize) {
        assert!(new_len >= self.current.len(), "queues never shrink");
        self.current.resize(new_len, f64::NAN);
        if self.small && new_len >= SMALL_N {
            self.small = false;
            self.heap.extend(
                self.current
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| !v.is_nan())
                    .map(|(idx, &val)| Entry::new(idx, val)),
            );
        }
    }

    /// Whether no index is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.current.iter().all(|v| v.is_nan())
    }

    /// Sets `idx`'s value (inserting it on first touch).
    ///
    /// # Panics
    /// Panics if `val` is NaN.
    pub fn update(&mut self, idx: usize, val: f64) {
        assert!(!val.is_nan(), "heap values must not be NaN");
        self.current[idx] = val;
        if !self.small {
            self.heap.push(Entry::new(idx, val));
        }
    }

    /// Removes `idx` from consideration.
    pub fn remove(&mut self, idx: usize) {
        self.current[idx] = f64::NAN;
    }

    /// Whether `idx` currently participates.
    #[must_use]
    pub fn contains(&self, idx: usize) -> bool {
        !self.current[idx].is_nan()
    }

    /// Current value of `idx` (NaN if absent).
    #[must_use]
    pub fn value(&self, idx: usize) -> f64 {
        self.current[idx]
    }

    /// Returns the best `(index, value)` without removing it, discarding
    /// stale heap entries along the way. `None` when empty.
    pub fn peek(&mut self) -> Option<(usize, f64)> {
        if self.small {
            return self.scan(|_| true);
        }
        while let Some(top) = self.heap.peek() {
            if self.current[top.idx] == top.val {
                return Some((top.idx, top.val));
            }
            self.heap.pop();
        }
        None
    }

    /// Returns the best `(index, value)` among present indices satisfying
    /// `pred`, for a decision *session* against a persistent queue.
    ///
    /// Live entries failing `pred` are popped into `stash` (so repeated
    /// session queries skip them in O(1)); the caller must hand the same
    /// stash to [`LazyHeapCore::restore`] when the session ends. `pred`
    /// must only shrink over a session: an index rejected once must stay
    /// rejected until `restore`.
    pub fn peek_where(
        &mut self,
        stash: &mut Vec<StashEntry>,
        mut pred: impl FnMut(usize) -> bool,
    ) -> Option<(usize, f64)> {
        if self.small {
            return self.scan(pred);
        }
        while let Some(top) = self.heap.peek() {
            let (idx, val) = (top.idx, top.val);
            if self.current[idx] != val {
                self.heap.pop(); // stale
            } else if pred(idx) {
                return Some((idx, val));
            } else {
                self.heap.pop();
                stash.push((idx, val));
            }
        }
        None
    }

    /// Pops the live top entry returned by an immediately-preceding
    /// successful [`LazyHeapCore::peek_where`] into `stash`, so the session
    /// stops seeing it while the queue keeps its authoritative value (the
    /// caller tracks the index in its own overlay from here on).
    ///
    /// No-op in small-n mode — there the caller's predicate is the only
    /// filter, and it must exclude adopted indices on its own.
    pub fn take_top(&mut self, stash: &mut Vec<StashEntry>) {
        if self.small {
            return;
        }
        while let Some(top) = self.heap.pop() {
            if self.current[top.idx] == top.val {
                stash.push((top.idx, top.val));
                return;
            }
        }
        debug_assert!(false, "take_top on an empty queue");
    }

    /// Ends a session: re-pushes every stashed entry. Entries whose index
    /// was recommitted meanwhile are stale duplicates and get discarded by
    /// the normal lazy machinery.
    pub fn restore(&mut self, stash: &mut Vec<StashEntry>) {
        if !self.small {
            self.heap.extend(stash.iter().map(|&(idx, val)| Entry::new(idx, val)));
        }
        stash.clear();
    }

    /// Linear-scan pick (small-n mode and reference cross-checks): the best
    /// present value passing `pred`, ties toward the lowest index.
    fn scan(&self, mut pred: impl FnMut(usize) -> bool) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (idx, &val) in self.current.iter().enumerate() {
            if val.is_nan() || !pred(idx) {
                continue;
            }
            if best.is_none_or(|(_, b)| O::beats(val, b)) {
                best = Some((idx, val));
            }
        }
        best
    }
}

impl LazyMaxHeap {
    /// Max-direction alias of [`LazyHeapCore::peek`].
    pub fn peek_max(&mut self) -> Option<(usize, f64)> {
        self.peek()
    }
}

impl LazyMinHeap {
    /// Min-direction alias of [`LazyHeapCore::peek`].
    pub fn peek_min(&mut self) -> Option<(usize, f64)> {
        self.peek()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forces heap mode regardless of size (exercises the lazy machinery
    /// even below the small-n cutover).
    fn heap_mode<O: HeapOrder>(mut h: LazyHeapCore<O>) -> LazyHeapCore<O> {
        if h.small {
            h.small = false;
            h.heap.extend(
                h.current
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| !v.is_nan())
                    .map(|(idx, &val)| Entry::new(idx, val)),
            );
        }
        h
    }

    #[test]
    fn peek_returns_max() {
        for force_heap in [false, true] {
            let mut h = LazyMaxHeap::new(&[3.0, 9.0, 5.0]);
            if force_heap {
                h = heap_mode(h);
            }
            assert_eq!(h.peek_max(), Some((1, 9.0)));
            // Peek does not remove.
            assert_eq!(h.peek_max(), Some((1, 9.0)));
        }
    }

    #[test]
    fn update_moves_entries() {
        for force_heap in [false, true] {
            let mut h = LazyMaxHeap::new(&[3.0, 9.0, 5.0]);
            if force_heap {
                h = heap_mode(h);
            }
            h.update(1, 1.0);
            assert_eq!(h.peek_max(), Some((2, 5.0)));
            h.update(0, 50.0);
            assert_eq!(h.peek_max(), Some((0, 50.0)));
        }
    }

    #[test]
    fn remove_skips_entries() {
        for force_heap in [false, true] {
            let mut h = LazyMaxHeap::new(&[3.0, 9.0, 5.0]);
            if force_heap {
                h = heap_mode(h);
            }
            h.remove(1);
            assert_eq!(h.peek_max(), Some((2, 5.0)));
            h.remove(2);
            assert_eq!(h.peek_max(), Some((0, 3.0)));
            h.remove(0);
            assert_eq!(h.peek_max(), None);
        }
    }

    #[test]
    fn ties_break_to_lowest_index() {
        for force_heap in [false, true] {
            let mut h = LazyMaxHeap::new(&[7.0, 7.0, 7.0]);
            if force_heap {
                h = heap_mode(h);
            }
            assert_eq!(h.peek_max(), Some((0, 7.0)));
            h.remove(0);
            assert_eq!(h.peek_max(), Some((1, 7.0)));
        }
    }

    #[test]
    fn stale_entries_do_not_resurrect() {
        let mut h = heap_mode(LazyMaxHeap::new(&[10.0, 1.0]));
        h.update(0, 0.5);
        h.update(0, 0.7);
        assert_eq!(h.peek_max(), Some((1, 1.0)));
        h.remove(1);
        assert_eq!(h.peek_max(), Some((0, 0.7)));
    }

    #[test]
    fn empty_heap() {
        let mut h = LazyMaxHeap::new(&[]);
        assert_eq!(h.peek_max(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn reset_reuses_allocation() {
        let mut h = LazyMaxHeap::new(&[1.0, 2.0]);
        assert_eq!(h.peek_max(), Some((1, 2.0)));
        h.reset(&[5.0, 4.0, 3.0]);
        assert_eq!(h.peek_max(), Some((0, 5.0)));
        h.remove(0);
        assert_eq!(h.peek_max(), Some((1, 4.0)));
    }

    #[test]
    fn small_n_cutover_matches_len() {
        assert!(LazyMinHeap::with_len(SMALL_N - 1).small);
        assert!(!LazyMinHeap::with_len(SMALL_N).small);
        let big: Vec<f64> = (0..SMALL_N).map(|i| i as f64).collect();
        assert!(!LazyMaxHeap::new(&big).small);
        // Small mode keeps the heap storage empty.
        let mut h = LazyMaxHeap::new(&[1.0, 2.0]);
        h.update(0, 9.0);
        assert!(h.heap.is_empty());
        assert_eq!(h.peek_max(), Some((0, 9.0)));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan_values() {
        let _ = LazyMaxHeap::new(&[f64::NAN]);
    }

    #[test]
    fn infinite_values_are_ordered_not_rejected() {
        // Degenerate platforms can overflow expected times to +∞; the old
        // linear scans handled that, so the heaps must too.
        let mut h = heap_mode(LazyMaxHeap::new(&[1.0, f64::INFINITY, 2.0]));
        assert_eq!(h.peek_max(), Some((1, f64::INFINITY)));
        h.remove(1);
        assert_eq!(h.peek_max(), Some((2, 2.0)));
        let mut m = heap_mode(LazyMinHeap::with_len(3));
        m.update(0, f64::INFINITY);
        m.update(1, 5.0);
        assert_eq!(m.peek_min(), Some((1, 5.0)));
        m.remove(1);
        assert_eq!(m.peek_min(), Some((0, f64::INFINITY)));
    }

    #[test]
    fn min_heap_membership_and_order() {
        for force_heap in [false, true] {
            let mut h = LazyMinHeap::with_len(4);
            if force_heap {
                h = heap_mode(h);
            }
            assert_eq!(h.peek_min(), None);
            h.update(2, 5.0);
            h.update(0, 7.0);
            assert!(h.contains(0) && !h.contains(1));
            assert_eq!(h.peek_min(), Some((2, 5.0)));
            h.update(2, 9.0);
            assert_eq!(h.peek_min(), Some((0, 7.0)));
            h.remove(0);
            assert_eq!(h.peek_min(), Some((2, 9.0)));
            h.remove(2);
            assert_eq!(h.peek_min(), None);
        }
    }

    #[test]
    fn min_heap_ties_break_to_lowest_index() {
        for force_heap in [false, true] {
            let mut h = LazyMinHeap::with_len(3);
            if force_heap {
                h = heap_mode(h);
            }
            h.update(2, 4.0);
            h.update(1, 4.0);
            h.update(0, 4.0);
            assert_eq!(h.peek_min(), Some((0, 4.0)));
            h.remove(0);
            assert_eq!(h.peek_min(), Some((1, 4.0)));
        }
    }

    #[test]
    fn peek_where_skips_and_restores() {
        for force_heap in [false, true] {
            let mut h = LazyMaxHeap::new(&[3.0, 9.0, 5.0, 7.0]);
            if force_heap {
                h = heap_mode(h);
            }
            let mut stash = Vec::new();
            // Session: indices 1 and 3 are filtered out.
            let blocked = [1usize, 3];
            assert_eq!(
                h.peek_where(&mut stash, |i| !blocked.contains(&i)),
                Some((2, 5.0)),
                "force_heap={force_heap}"
            );
            // Repeat query: already-stashed entries stay skipped.
            assert_eq!(h.peek_where(&mut stash, |i| !blocked.contains(&i)), Some((2, 5.0)));
            h.restore(&mut stash);
            assert!(stash.is_empty());
            // After restore, the full queue is intact.
            assert_eq!(h.peek_max(), Some((1, 9.0)));
        }
    }

    #[test]
    fn take_top_adopts_head_then_restore_is_clean() {
        for force_heap in [false, true] {
            let mut h = LazyMaxHeap::new(&[3.0, 9.0, 5.0]);
            if force_heap {
                h = heap_mode(h);
            }
            let mut stash = Vec::new();
            let mut adopted: Vec<usize> = Vec::new();
            // Adopt the two best heads one after the other (the caller's
            // predicate hides already-adopted indices, which is what makes
            // the small-n no-op `take_top` correct).
            for _ in 0..2 {
                let (i, _) = h.peek_where(&mut stash, |i| !adopted.contains(&i)).unwrap();
                h.take_top(&mut stash);
                adopted.push(i);
            }
            assert_eq!(adopted, vec![1, 2]);
            assert_eq!(h.peek_where(&mut stash, |i| !adopted.contains(&i)), Some((0, 3.0)));
            h.restore(&mut stash);
            assert_eq!(h.peek_max(), Some((1, 9.0)));
        }
    }

    #[test]
    fn restored_stale_entries_do_not_resurrect() {
        // An adopted index is recommitted with a new value before restore:
        // the stashed original must not bring the old value back.
        let mut h = heap_mode(LazyMaxHeap::new(&[3.0, 9.0, 5.0]));
        let mut stash = Vec::new();
        let (i, _) = h.peek_where(&mut stash, |_| true).unwrap();
        assert_eq!(i, 1);
        h.take_top(&mut stash);
        h.update(1, 4.0); // commit with a different value
        h.restore(&mut stash);
        assert_eq!(h.peek_max(), Some((2, 5.0)));
        h.remove(2);
        assert_eq!(h.peek_max(), Some((1, 4.0)));
    }

    #[test]
    fn heap_and_scan_agree_on_random_ops() {
        // Reference equivalence: after arbitrary update/remove sequences the
        // heap pick equals the linear-scan pick (value, ties lowest index),
        // in both directions and both modes.
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let n = 16usize;
        let mut small = LazyMinHeap::with_len(n);
        let mut big = heap_mode(LazyMinHeap::with_len(n));
        let mut vals: Vec<Option<f64>> = vec![None; n];
        for _ in 0..2000 {
            let idx = (next() as usize) % n;
            if next() % 4 == 0 {
                small.remove(idx);
                big.remove(idx);
                vals[idx] = None;
            } else {
                let v = (next() % 1000) as f64;
                small.update(idx, v);
                big.update(idx, v);
                vals[idx] = Some(v);
            }
            let scan = vals
                .iter()
                .enumerate()
                .filter_map(|(i, v)| v.map(|v| (i, v)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
            assert_eq!(small.peek_min(), scan);
            assert_eq!(big.peek_min(), scan);
        }
    }

    #[test]
    fn filtered_sessions_agree_with_filtered_scan() {
        let mut state = 0xDEAD_BEEF_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let n = 24usize;
        for force_heap in [false, true] {
            let mut h = LazyMaxHeap::with_len(n);
            if force_heap {
                h = heap_mode(h);
            }
            let mut vals: Vec<Option<f64>> = vec![None; n];
            for round in 0..200 {
                let idx = (next() as usize) % n;
                let v = (next() % 500) as f64;
                h.update(idx, v);
                vals[idx] = Some(v);
                // A session with a fixed pseudo-random filter.
                let mask = next();
                let keep = |i: usize| mask & (1 << (i % 48)) != 0;
                let mut stash = Vec::new();
                let got = h.peek_where(&mut stash, keep);
                let want = vals
                    .iter()
                    .enumerate()
                    .filter_map(|(i, v)| v.map(|v| (i, v)))
                    .filter(|&(i, _)| keep(i))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0)));
                assert_eq!(got, want, "round={round} force_heap={force_heap}");
                h.restore(&mut stash);
            }
        }
    }
}
