//! The event-queue core of the simulator: [`HeapQueue`], a binary heap of
//! timestamped events with tombstone cancellation.
//!
//! # The scheduler contract
//!
//! The queue stores `(time, seq, item)` entries, where `seq` is a
//! caller-owned sequence number, unique among live entries (the simulator
//! assigns one per scheduled event).  [`HeapQueue::pop`] returns entries in
//! ascending `(time, seq)` order — time first, `seq` within a time.  Entries
//! may be scheduled at times *behind* the last popped entry's time: the
//! domain-sharded runtime replays cross-domain handoffs and deferred
//! cut-link events with their original timestamps, which lie behind the
//! shard's clock at the window boundary.  A late insert simply pops next (in
//! `(time, seq)` order among the remaining entries); it cannot, of course,
//! retroactively order before entries that were already popped.
//!
//! # Cancellation
//!
//! Entries are cancelled by their `(time, seq)` key via
//! [`HeapQueue::cancel`].  The caller (the simulator's timer table) only
//! cancels entries it knows are still queued.  The queue records the key in
//! a tombstone set and silently drains tombstoned entries when they surface
//! at the top of the heap, so the set never holds more than the number of
//! cancelled entries still queued.  The set is itself a min-heap of keys:
//! every tombstone is a queued key, so the queue's head is cancelled exactly
//! when it equals the smallest tombstone, and checking costs one comparison.
//! A cancelled entry is never returned from `pop` and is not counted by
//! [`HeapQueue::len`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One queued entry.
#[derive(Debug)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulator's event queue: `O(log n)` push/pop on a `BinaryHeap`,
/// cancellation via tombstones drained on pop.
///
/// # Determinism
///
/// `BinaryHeap` is not a stable heap, but entries are ordered by the full
/// `(time, seq)` key and `seq` is unique, so the pop order is total and
/// deterministic: ascending time, insertion order within a time.
///
/// # Example: schedule/cancel round-trip
///
/// ```
/// use netsim::events::HeapQueue;
/// use netsim::time::SimTime;
///
/// let mut q = HeapQueue::new();
/// q.schedule(SimTime::from_secs(0.3), 0, "late");
/// q.schedule(SimTime::from_secs(0.1), 1, "early");
/// q.schedule(SimTime::from_secs(0.2), 2, "cancelled");
/// q.cancel(SimTime::from_secs(0.2), 2);
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.pop().map(|(_, _, item)| item), Some("early"));
/// assert_eq!(q.pop_due(SimTime::from_secs(0.25)), None); // "late" is not due
/// assert_eq!(q.pop().map(|(_, _, item)| item), Some("late"));
/// assert_eq!(q.pop(), None);
/// assert_eq!(q.tombstones(), 0); // drained when the entry surfaced
/// ```
#[derive(Debug)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    /// Keys of cancelled entries still inside the heap, smallest on top;
    /// drained as the entries surface at the top (in
    /// `pop`/`pop_due`/`peek_time`), so the set stays bounded by the number
    /// of cancelled entries still queued.
    tombstones: BinaryHeap<Reverse<(SimTime, u64)>>,
}

impl<T> HeapQueue<T> {
    /// Creates an empty heap queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(1024),
            tombstones: BinaryHeap::new(),
        }
    }

    /// Enqueues `item` at `time`.  `seq` must be unique among live entries;
    /// `time` may lie behind the last popped entry's time (a late insert
    /// pops next, see the [module documentation](self)).
    pub fn schedule(&mut self, time: SimTime, seq: u64, item: T) {
        self.heap.push(Reverse(Entry { time, seq, item }));
    }

    /// Removes and returns the entry with the smallest `(time, seq)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.drain_tombstones();
        self.heap.pop().map(|Reverse(e)| (e.time, e.seq, e.item))
    }

    /// Removes and returns the entry with the smallest `(time, seq)` if its
    /// time is at or before `until`; leaves the queue untouched otherwise.
    pub fn pop_due(&mut self, until: SimTime) -> Option<(SimTime, u64, T)> {
        self.drain_tombstones();
        if self.heap.peek()?.0.time > until {
            return None;
        }
        self.heap.pop().map(|Reverse(e)| (e.time, e.seq, e.item))
    }

    /// The time of the entry [`Self::pop`] would return, without removing
    /// it.  Takes `&mut self` to drain cancelled entries while looking.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.drain_tombstones();
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Cancels the queued entry with exactly this `(time, seq)` key.  The
    /// caller must only cancel keys it has scheduled and not yet popped or
    /// cancelled; the entry will never be returned from [`Self::pop`].
    pub fn cancel(&mut self, time: SimTime, seq: u64) {
        self.tombstones.push(Reverse((time, seq)));
    }

    /// Number of live (scheduled, not yet popped or cancelled) entries.
    pub fn len(&self) -> usize {
        self.heap.len() - self.tombstones.len()
    }

    /// True when no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of cancelled-but-still-stored entries (tombstones).
    pub fn tombstones(&self) -> usize {
        self.tombstones.len()
    }

    /// Drops cancelled entries sitting at the top of the heap.  Every
    /// tombstone is a queued key, so none is smaller than the head: the head
    /// is cancelled exactly when it equals the smallest tombstone.
    fn drain_tombstones(&mut self) {
        while let Some(&Reverse(dead)) = self.tombstones.peek() {
            match self.heap.peek() {
                Some(Reverse(head)) if head.key() == dead => {
                    self.heap.pop();
                    self.tombstones.pop();
                }
                head => {
                    debug_assert!(
                        head.is_some_and(|Reverse(h)| h.key() < dead),
                        "tombstone {dead:?} does not name a queued entry"
                    );
                    break;
                }
            }
        }
    }
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Drains a queue completely, asserting (time, seq) never goes backward.
    fn drain<T>(q: &mut HeapQueue<T>) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        let mut last: Option<(SimTime, u64)> = None;
        while let Some((time, seq, _)) = q.pop() {
            if let Some(prev) = last {
                assert!(
                    (time, seq) > prev,
                    "pop order went backward: {prev:?} then {:?}",
                    (time, seq)
                );
            }
            last = Some((time, seq));
            out.push((time, seq));
        }
        out
    }

    /// A deterministic pseudo-random stream for the reference-model tests.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The queue accepts inserts behind the last popped entry's time (the
    /// domain-sharded runtime replays cross-domain handoffs and deferred
    /// cut-link events at their original, past timestamps) and surfaces
    /// them next, in `(time, seq)` order among the remaining entries.
    #[test]
    fn accepts_late_inserts_behind_the_clock() {
        let mut q: HeapQueue<u64> = HeapQueue::new();
        q.schedule(t(1.0), 0, 0);
        q.schedule(t(5.0), 1, 1);
        assert_eq!(q.pop().map(|(time, ..)| time), Some(t(1.0)));
        // The clock is at 1.0; replay two handoffs behind it, one of them
        // tying an existing time with a smaller seq band.
        q.schedule(t(0.5), 100, 2);
        q.schedule(t(0.25), 101, 3);
        q.schedule(t(5.0), 50, 4);
        assert_eq!(q.peek_time(), Some(t(0.25)));
        assert_eq!(
            drain(&mut q),
            vec![(t(0.25), 101), (t(0.5), 100), (t(5.0), 1), (t(5.0), 50)]
        );
    }

    /// Queue under test plus a sorted-vector reference model of it.
    struct Paired {
        heap: HeapQueue<u64>,
        /// Kept sorted ascending by `(time, seq)`; the model pops its front.
        model: Vec<(SimTime, u64)>,
        /// Keys eligible for a later cancel.
        cancel_pool: Vec<(SimTime, u64)>,
        seq: u64,
    }

    impl Paired {
        fn schedule(&mut self, at: SimTime) {
            let key = (at, self.seq);
            self.heap.schedule(at, self.seq, self.seq);
            let pos = self.model.partition_point(|&k| k < key);
            self.model.insert(pos, key);
            if self.seq % 7 == 3 {
                self.cancel_pool.push(key);
            }
            self.seq += 1;
        }
    }

    /// Drives a schedule/pop/cancel workload through the heap and through a
    /// sorted-vector reference model and asserts identical pop sequences.
    fn compare_with_reference(seed: u64, prefill: usize, ops: usize) {
        let mut p = Paired {
            heap: HeapQueue::new(),
            model: Vec::new(),
            cancel_pool: Vec::new(),
            seq: 0,
        };
        let mut rng = Mix(seed);
        for _ in 0..prefill {
            p.schedule(t(rng.unit() * 5.0));
        }
        for i in 0..ops {
            let Some((time, s, item)) = p.heap.pop() else {
                assert!(p.model.is_empty(), "heap ran dry before the model");
                break;
            };
            assert_eq!(s, item);
            assert_eq!((time, s), p.model.remove(0), "pop diverged (seed {seed})");
            assert_eq!(p.heap.len(), p.model.len());
            // Reschedule a little ahead, sometimes in bursts, and now and
            // then behind the clock (a late insert, as the sharded runtime
            // makes).
            for _ in 0..1 + (i % 3) {
                p.schedule(t(time.as_secs() + rng.unit() * 2.0));
            }
            if i % 13 == 0 {
                p.schedule(t((time.as_secs() - rng.unit() * 0.5).max(0.0)));
            }
            // Cancel an outstanding entry now and then (skipping any that
            // already popped).
            if i % 5 == 2 {
                while let Some(key) = p.cancel_pool.pop() {
                    if let Ok(pos) = p.model.binary_search(&key) {
                        p.heap.cancel(key.0, key.1);
                        p.model.remove(pos);
                        break;
                    }
                }
            }
        }
        assert_eq!(drain(&mut p.heap), p.model, "drain diverged (seed {seed})");
        assert_eq!(
            p.heap.tombstones(),
            0,
            "tombstones must drain by exhaustion"
        );
    }

    #[test]
    fn heap_pops_like_a_sorted_reference() {
        for seed in [1, 2, 7, 42, 1234] {
            compare_with_reference(seed, 64, 500);
        }
    }

    #[test]
    fn heap_pops_like_a_sorted_reference_at_scale() {
        compare_with_reference(99, 5000, 4000);
    }

    #[test]
    fn identical_times_pop_in_seq_order() {
        let mut q: HeapQueue<u64> = HeapQueue::new();
        for seq in 0..100u64 {
            q.schedule(t(1.0), seq, seq);
        }
        let seqs: Vec<u64> = drain(&mut q).iter().map(|&(_, s)| s).collect();
        assert_eq!(seqs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        let mut q: HeapQueue<u64> = HeapQueue::new();
        q.schedule(t(5_000.0), 0, 0);
        q.schedule(t(90_000.0), 1, 1);
        q.schedule(t(5_500.0), 2, 2);
        assert_eq!(q.peek_time(), Some(t(5_000.0)));
        assert_eq!(
            drain(&mut q),
            vec![(t(5_000.0), 0), (t(5_500.0), 2), (t(90_000.0), 1)]
        );
    }

    /// `run_until` stops at the first event past its horizon; a later insert
    /// *between* the last pop and that event must still pop first.
    #[test]
    fn insert_behind_a_peeked_cursor_is_not_stranded() {
        let mut q: HeapQueue<u64> = HeapQueue::new();
        q.schedule(t(1.0), 0, 0);
        q.schedule(t(2.0), 1, 1);
        assert_eq!(q.pop().map(|(_, s, _)| s), Some(0));
        assert!(q.pop_due(t(1.5)).is_none());
        assert_eq!(q.peek_time(), Some(t(2.0)));
        // Legal insert (>= last popped time) behind the refused head.
        q.schedule(t(1.5), 2, 2);
        assert_eq!(
            q.pop_due(t(1.5)).map(|(ti, s, _)| (ti, s)),
            Some((t(1.5), 2))
        );
        assert_eq!(q.pop().map(|(ti, s, _)| (ti, s)), Some((t(2.0), 1)));
    }

    #[test]
    fn pop_due_is_inclusive_and_skips_tombstones() {
        let mut q: HeapQueue<u64> = HeapQueue::new();
        q.schedule(t(1.0), 0, 0);
        q.schedule(t(2.0), 1, 1);
        q.schedule(t(3.0), 2, 2);
        q.cancel(t(1.0), 0);
        // The cancelled head is drained; the next entry sits exactly on the
        // horizon and is due.
        assert_eq!(q.pop_due(t(2.0)).map(|(_, s, _)| s), Some(1));
        assert_eq!(q.tombstones(), 0);
        assert!(q.pop_due(t(2.0)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cancel_keeps_len_and_tombstones_bounded() {
        let mut q: HeapQueue<u64> = HeapQueue::new();
        for seq in 0..1000u64 {
            q.schedule(t(1.0 + seq as f64), seq, seq);
        }
        for seq in (0..1000u64).filter(|s| s % 2 == 0) {
            q.cancel(t(1.0 + seq as f64), seq);
        }
        assert_eq!(q.len(), 500);
        let order = drain(&mut q);
        assert_eq!(order.len(), 500);
        assert!(order.iter().all(|&(_, s)| s % 2 == 1));
        assert_eq!(q.tombstones(), 0, "tombstones must drain");
    }
}
