//! The event-driven simulation kernel.
//!
//! A [`Simulator<M>`] owns a priority queue of events; each event is a
//! boxed `FnOnce(&mut Simulator<M>, &mut M)` fired at its scheduled cycle.
//! The model type `M` holds all mutable hardware state (engine status,
//! buffers, counters); callbacks receive both so they can schedule
//! follow-up events.
//!
//! Determinism contract: events at equal timestamps fire in the order
//! they were scheduled (a monotone sequence number breaks ties). Replays
//! of the same model + schedule are bit-identical.

use crate::time::Cycles;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifier of a scheduled event (its tie-breaking sequence number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

type EventFn<M> = Box<dyn FnOnce(&mut Simulator<M>, &mut M)>;

struct Scheduled<M> {
    time: Cycles,
    seq: u64,
    f: EventFn<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (time, seq) pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The discrete-event simulator.
pub struct Simulator<M> {
    now: Cycles,
    seq: u64,
    queue: BinaryHeap<Scheduled<M>>,
}

impl<M> Default for Simulator<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Simulator<M> {
    /// An empty simulator at cycle zero.
    #[must_use]
    pub fn new() -> Self {
        Self { now: Cycles::ZERO, seq: 0, queue: BinaryHeap::new() }
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Schedule `f` at absolute cycle `time`.
    ///
    /// # Panics
    /// Panics if `time` is in the past (would violate causality).
    pub fn schedule_at(
        &mut self,
        time: Cycles,
        f: impl FnOnce(&mut Simulator<M>, &mut M) + 'static,
    ) -> EventId {
        assert!(time >= self.now, "cannot schedule into the past: {time} < {}", self.now);
        let id = EventId(self.seq);
        self.queue.push(Scheduled { time, seq: self.seq, f: Box::new(f) });
        self.seq += 1;
        id
    }

    /// Schedule `f` after `delay` cycles from now.
    pub fn schedule_in(
        &mut self,
        delay: Cycles,
        f: impl FnOnce(&mut Simulator<M>, &mut M) + 'static,
    ) -> EventId {
        self.schedule_at(self.now.saturating_add(delay), f)
    }

    /// Run until the queue drains. Returns the final simulation time.
    pub fn run(&mut self, model: &mut M) -> Cycles {
        while self.step(model) {}
        self.now
    }

    /// Fire the single earliest event. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self, model: &mut M) -> bool {
        match self.queue.pop() {
            Some(ev) => {
                debug_assert!(ev.time >= self.now, "event queue time went backwards");
                self.now = ev.time;
                (ev.f)(self, model);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Log {
        entries: Vec<(u64, &'static str)>,
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulator::<Log>::new();
        let mut log = Log::default();
        sim.schedule_at(Cycles(30), |s, m| m.entries.push((s.now().get(), "c")));
        sim.schedule_at(Cycles(10), |s, m| m.entries.push((s.now().get(), "a")));
        sim.schedule_at(Cycles(20), |s, m| m.entries.push((s.now().get(), "b")));
        sim.run(&mut log);
        assert_eq!(log.entries, vec![(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn equal_time_events_fire_fifo() {
        let mut sim = Simulator::<Log>::new();
        let mut log = Log::default();
        for (i, name) in ["first", "second", "third", "fourth"].iter().enumerate() {
            let _ = i;
            sim.schedule_at(Cycles(5), move |_, m| m.entries.push((5, name)));
        }
        sim.run(&mut log);
        let names: Vec<_> = log.entries.iter().map(|e| e.1).collect();
        assert_eq!(names, vec!["first", "second", "third", "fourth"]);
    }

    #[test]
    fn cascading_events() {
        // An event that schedules more events: a 5-stage chain.
        struct Chain {
            hops: u64,
        }
        fn hop(sim: &mut Simulator<Chain>, m: &mut Chain) {
            m.hops += 1;
            if m.hops < 5 {
                sim.schedule_in(Cycles(7), hop);
            }
        }
        let mut sim = Simulator::new();
        let mut m = Chain { hops: 0 };
        sim.schedule_at(Cycles(0), hop);
        let end = sim.run(&mut m);
        assert_eq!(m.hops, 5);
        assert_eq!(end, Cycles(28)); // 0,7,14,21,28
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn past_scheduling_panics() {
        let mut sim = Simulator::<Log>::new();
        let mut log = Log::default();
        sim.schedule_at(Cycles(10), |s, _m| {
            s.schedule_at(Cycles(5), |_, _| {});
        });
        sim.run(&mut log);
    }

    #[test]
    fn determinism_two_runs_identical() {
        fn build_and_run() -> Vec<(u64, &'static str)> {
            let mut sim = Simulator::<Log>::new();
            let mut log = Log::default();
            // interleaved same-time and cascading events
            sim.schedule_at(Cycles(3), |s, m| {
                m.entries.push((s.now().get(), "x"));
                s.schedule_in(Cycles(0), |s2, m2| m2.entries.push((s2.now().get(), "x-child")));
            });
            sim.schedule_at(Cycles(3), |s, m| m.entries.push((s.now().get(), "y")));
            sim.schedule_at(Cycles(1), |s, m| m.entries.push((s.now().get(), "z")));
            sim.run(&mut log);
            log.entries
        }
        assert_eq!(build_and_run(), build_and_run());
    }

    #[test]
    fn same_time_child_fires_after_existing_same_time_events() {
        // FIFO tie-break: a zero-delay child scheduled during t=3 gets a
        // later sequence number than the pre-existing t=3 event.
        let mut sim = Simulator::<Log>::new();
        let mut log = Log::default();
        sim.schedule_at(Cycles(3), |s, m| {
            m.entries.push((3, "parent"));
            s.schedule_in(Cycles(0), |_, m2| m2.entries.push((3, "child")));
        });
        sim.schedule_at(Cycles(3), |_, m| m.entries.push((3, "sibling")));
        sim.run(&mut log);
        let names: Vec<_> = log.entries.iter().map(|e| e.1).collect();
        assert_eq!(names, vec!["parent", "sibling", "child"]);
    }
}
