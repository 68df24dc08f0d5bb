//! A typed discrete-event queue for snapshot-capable simulations.
//!
//! The closure-based [`Simulator`](crate::Simulator) is ideal for
//! models that never need to pause: an event is a boxed `FnOnce` and
//! the captured environment is the event's payload. It is also exactly
//! why such models *cannot* pause — a closure cannot be serialized, so
//! a simulation built on it cannot checkpoint its pending events.
//!
//! [`EventQueue`] is the snapshot-friendly alternative: events are
//! plain data (any `E` the model chooses), the model runs its own
//! `while let Some((now, ev)) = queue.pop()` loop and matches on the
//! payload. Because every pending event is inspectable, the whole queue
//! can be drained to a canonical serial form and rebuilt later.
//!
//! ## Ordering contract
//!
//! Events fire in ascending `(time, rank, seq)` order:
//!
//! * `time` — the simulated timestamp (same unit discipline as
//!   [`Cycles`]);
//! * `rank` — a caller-chosen class priority for same-time events.
//!   Lower ranks fire first. This exists so a model converted from the
//!   closure kernel can reproduce its historical firing order: there,
//!   same-time order was scheduling order, and pre-scheduled event
//!   classes (e.g. all arrivals, then all crashes) implicitly outranked
//!   dynamically scheduled ones. With lazy scheduling the insertion
//!   order changes, so the class order must be made explicit;
//! * `seq` — a monotone insertion counter breaking remaining ties FIFO,
//!   exactly like the closure kernel.
//!
//! Determinism: replays of the same push sequence pop identically, and
//! [`EventQueue::sorted_events`] yields pending events in precisely the
//! order they would fire — so a queue serialized from that order and
//! re-pushed into a fresh queue (fresh seqs, same order) fires
//! identically. That round-trip is the snapshot/replay foundation.

use crate::time::Cycles;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: Cycles,
    rank: u8,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.rank, self.seq) == (other.time, other.rank, other.seq)
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest pops first.
        (other.time, other.rank, other.seq).cmp(&(self.time, self.rank, self.seq))
    }
}

/// A deterministic priority queue of typed events (see module docs for
/// the `(time, rank, seq)` ordering contract).
pub struct EventQueue<E> {
    now: Cycles,
    seq: u64,
    heap: BinaryHeap<Entry<E>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self { now: Cycles::ZERO, seq: 0, heap: BinaryHeap::new() }
    }

    /// Current simulation time: the timestamp of the last popped event
    /// (or the starting time before any pop).
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Force the clock (used when resuming from a snapshot). Pending
    /// events older than `now` would violate causality; callers restore
    /// the clock before re-pushing events.
    pub fn set_now(&mut self, now: Cycles) {
        self.now = now;
    }

    /// Events still pending.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute `time` with class `rank`.
    ///
    /// # Panics
    /// Panics if `time` is in the past (would violate causality).
    pub fn push(&mut self, time: Cycles, rank: u8, event: E) {
        assert!(time >= self.now, "cannot schedule into the past: {time} < {}", self.now);
        self.heap.push(Entry { time, rank, seq: self.seq, event });
        self.seq += 1;
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let e = self.heap.pop()?;
        debug_assert!(e.time >= self.now, "event queue time went backwards");
        self.now = e.time;
        Some((e.time, e.event))
    }

    /// Clone every pending event in exactly the order it would fire
    /// (`(time, rank, seq)` ascending), leaving the queue untouched.
    /// This is the canonical serial form for snapshots: re-pushing the
    /// yielded `(time, rank, event)` triples into a fresh queue — which
    /// assigns fresh, ascending seqs — reproduces the identical firing
    /// order, and the simulation keeps going after the capture.
    #[must_use]
    pub fn sorted_events(&self) -> Vec<(Cycles, u8, E)>
    where
        E: Clone,
    {
        let mut entries: Vec<(Cycles, u8, u64, E)> =
            self.heap.iter().map(|e| (e.time, e.rank, e.seq, e.event.clone())).collect();
        entries.sort_by_key(|&(t, r, s, _)| (t, r, s));
        entries.into_iter().map(|(t, r, _, e)| (t, r, e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_rank_seq_order() {
        let mut q = EventQueue::new();
        q.push(Cycles(5), 2, "dyn@5");
        q.push(Cycles(5), 0, "arrival@5");
        q.push(Cycles(3), 2, "dyn@3");
        q.push(Cycles(5), 1, "crash@5");
        q.push(Cycles(5), 2, "dyn2@5");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["dyn@3", "arrival@5", "crash@5", "dyn@5", "dyn2@5"]);
    }

    #[test]
    fn rank_beats_insertion_order_at_equal_time() {
        // The exact hazard the rank exists for: a pre-scheduled wake at
        // time t must not outrank a later-inserted arrival at t.
        let mut q = EventQueue::new();
        q.push(Cycles(7), 2, "wake");
        q.push(Cycles(7), 0, "arrival");
        assert_eq!(q.pop().unwrap().1, "arrival");
        assert_eq!(q.pop().unwrap().1, "wake");
    }

    #[test]
    fn repush_in_sorted_order_fires_identically() {
        let mut q = EventQueue::new();
        for (t, r, n) in [(9u64, 2u8, "a"), (4, 1, "b"), (9, 0, "c"), (4, 1, "d"), (2, 2, "e")] {
            q.push(Cycles(t), r, n);
        }
        let mut reference = EventQueue::new();
        for (t, r, n) in [(9u64, 2u8, "a"), (4, 1, "b"), (9, 0, "c"), (4, 1, "d"), (2, 2, "e")] {
            reference.push(Cycles(t), r, n);
        }
        let mut rebuilt = EventQueue::new();
        for (t, r, e) in q.sorted_events() {
            rebuilt.push(t, r, e);
        }
        let a: Vec<_> = std::iter::from_fn(|| reference.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| rebuilt.pop()).collect();
        assert_eq!(a, b, "snapshot round-trip preserves the firing order");
    }

    #[test]
    fn sorted_events_matches_pop_order_and_preserves_queue() {
        let mut q = EventQueue::new();
        for (t, r, n) in [(9u64, 2u8, "a"), (4, 1, "b"), (9, 0, "c"), (4, 1, "d")] {
            q.push(Cycles(t), r, n);
        }
        let peeked: Vec<_> = q.sorted_events().into_iter().map(|(t, _, e)| (t, e)).collect();
        assert_eq!(q.len(), 4, "non-consuming");
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(peeked, popped);
    }

    #[test]
    fn clock_advances_and_resumes() {
        let mut q = EventQueue::new();
        q.push(Cycles(10), 2, ());
        q.pop();
        assert_eq!(q.now(), Cycles(10));
        q.push(Cycles(10), 2, ());
        let mut resumed = EventQueue::new();
        resumed.set_now(Cycles(10));
        resumed.push(Cycles(10), 2, ());
        assert_eq!(q.pop().unwrap().0, resumed.pop().unwrap().0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn past_push_panics() {
        let mut q = EventQueue::new();
        q.push(Cycles(10), 0, ());
        q.pop();
        q.push(Cycles(5), 0, ());
    }
}
