//! The double-buffer (ping-pong) overlap scheduler.
//!
//! ProTEA's headline memory optimization: "During each iteration, data
//! for one tile is loaded initially. The PEs then compute on this data…"
//! with the next tile's load overlapped — the reported latency "accounts
//! for the overlap of data loading and computation".
//!
//! With two buffers, the DMA may fetch tile `i+1` while the engine
//! computes on tile `i`, but fetching tile `i+2` must wait until the
//! engine releases the buffer holding tile `i`. Formally:
//!
//! ```text
//! finish_load(i)    = max(finish_load(i−1), finish_compute(i−2)) + L(i)
//! finish_compute(i) = max(finish_compute(i−1), finish_load(i)) + C(i)
//! ```
//!
//! [`simulate_double_buffered`] plays this out on the event kernel (so
//! per-event utilization statistics fall out), and the tests verify the
//! event-driven result equals the closed-form recurrence on random
//! schedules — the kind of redundancy that catches scheduler bugs.

use protea_hwsim::{Cycles, Simulator, Utilization};

/// Outcome of an overlap simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapReport {
    /// End-to-end cycles.
    pub total: Cycles,
    /// Cycles the DMA spent transferring.
    pub load_busy: Cycles,
    /// Cycles the engine spent computing.
    pub compute_busy: Cycles,
    /// Cycles the engine sat idle waiting for data (`total − compute_busy
    /// − trailing idle`); with perfect overlap this approaches the first
    /// load only.
    pub compute_stall: Cycles,
}

#[derive(Default)]
struct State {
    load_done: Vec<bool>,
    compute_done: Vec<bool>,
    next_load: usize,
    next_compute: usize,
    dma_busy: bool,
    engine_busy: bool,
    load_util: Utilization,
    compute_util: Utilization,
}

/// Simulate `accesses` (pairs of load, compute cycles) through a
/// double-buffered engine, event-driven.
#[must_use]
pub fn simulate_double_buffered(accesses: &[(Cycles, Cycles)]) -> OverlapReport {
    let n = accesses.len();
    if n == 0 {
        return OverlapReport {
            total: Cycles::ZERO,
            load_busy: Cycles::ZERO,
            compute_busy: Cycles::ZERO,
            compute_stall: Cycles::ZERO,
        };
    }
    let accesses: Vec<(Cycles, Cycles)> = accesses.to_vec();
    let mut st =
        State { load_done: vec![false; n], compute_done: vec![false; n], ..State::default() };
    let mut sim = Simulator::<State>::new();

    // Try to start the next load / compute if their dependencies hold.
    fn advance(sim: &mut Simulator<State>, st: &mut State, accesses: &[(Cycles, Cycles)]) {
        let n = accesses.len();
        // Start load i when: DMA idle, previous load done (implicit via
        // next_load ordering), and the buffer is free: compute(i-2) done.
        if !st.dma_busy && st.next_load < n {
            let i = st.next_load;
            let buffer_free = i < 2 || st.compute_done[i - 2];
            if buffer_free {
                st.dma_busy = true;
                st.next_load += 1;
                st.load_util.begin(sim.now());
                let dur = accesses[i].0;
                sim.schedule_in(dur, move |sim, st| {
                    st.load_done[i] = true;
                    st.dma_busy = false;
                    st.load_util.end(sim.now());
                    // `accesses` is captured by the outer closure chain via
                    // re-entry below; durations are re-read from the model.
                    // (handled by the caller-side advance wrapper)
                });
            }
        }
        // Start compute i when: engine idle and load(i) done.
        if !st.engine_busy && st.next_compute < n && st.load_done[st.next_compute] {
            let i = st.next_compute;
            st.engine_busy = true;
            st.next_compute += 1;
            st.compute_util.begin(sim.now());
            let dur = accesses[i].1;
            sim.schedule_in(dur, move |sim, st| {
                st.compute_done[i] = true;
                st.engine_busy = false;
                st.compute_util.end(sim.now());
            });
        }
    }

    // Drive: after every event, re-attempt to advance both units. The
    // kernel has no global "on any event" hook, so we interleave manually:
    // run one event, then advance, until quiescent.
    advance(&mut sim, &mut st, &accesses);
    while sim.step(&mut st) {
        advance(&mut sim, &mut st, &accesses);
    }
    debug_assert!(st.compute_done.iter().all(|&d| d), "scheduler deadlocked");
    let total = sim.now();
    let load_busy = st.load_util.busy_cycles();
    let compute_busy = st.compute_util.busy_cycles();
    OverlapReport { total, load_busy, compute_busy, compute_stall: total - compute_busy }
}

/// The intervals one access occupied on the DMA and engine timelines.
///
/// Produced by [`simulate_double_buffered_spans`] /
/// [`simulate_serial_spans`] for trace export: the load interval is a
/// DMA-burst span, the compute interval a tile-visit span. Invariants
/// (tested): per-unit intervals never overlap across accesses, and
/// `compute_start >= load_end` for each access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSpans {
    /// DMA burst start.
    pub load_start: Cycles,
    /// DMA burst end (`load_start + L`).
    pub load_end: Cycles,
    /// Engine visit start (never before `load_end`).
    pub compute_start: Cycles,
    /// Engine visit end (`compute_start + C`).
    pub compute_end: Cycles,
}

/// [`simulate_double_buffered`] plus the per-access timeline.
///
/// The schedule is played out through the same recurrence the event
/// kernel obeys (cross-checked in tests), so the returned report is
/// identical to the event-driven one — callers that only want spans for
/// tracing pay no behavioral difference for asking.
#[must_use]
pub fn simulate_double_buffered_spans(
    accesses: &[(Cycles, Cycles)],
) -> (OverlapReport, Vec<AccessSpans>) {
    let n = accesses.len();
    let mut spans: Vec<AccessSpans> = Vec::with_capacity(n);
    let mut load_busy = Cycles::ZERO;
    let mut compute_busy = Cycles::ZERO;
    for (i, &(l, c)) in accesses.iter().enumerate() {
        let prev_load = if i > 0 { spans[i - 1].load_end } else { Cycles::ZERO };
        let buffer_free = if i >= 2 { spans[i - 2].compute_end } else { Cycles::ZERO };
        let load_start = prev_load.max(buffer_free);
        let load_end = load_start.saturating_add(l);
        let prev_compute = if i > 0 { spans[i - 1].compute_end } else { Cycles::ZERO };
        let compute_start = prev_compute.max(load_end);
        let compute_end = compute_start.saturating_add(c);
        spans.push(AccessSpans { load_start, load_end, compute_start, compute_end });
        load_busy = load_busy.saturating_add(l);
        compute_busy = compute_busy.saturating_add(c);
    }
    let total = spans.last().map_or(Cycles::ZERO, |s| s.compute_end);
    (OverlapReport { total, load_busy, compute_busy, compute_stall: total - compute_busy }, spans)
}

/// [`simulate_serial`] plus the per-access timeline.
#[must_use]
pub fn simulate_serial_spans(accesses: &[(Cycles, Cycles)]) -> (OverlapReport, Vec<AccessSpans>) {
    let mut spans = Vec::with_capacity(accesses.len());
    let mut now = Cycles::ZERO;
    for &(l, c) in accesses {
        let load_start = now;
        let load_end = load_start.saturating_add(l);
        let compute_end = load_end.saturating_add(c);
        spans.push(AccessSpans { load_start, load_end, compute_start: load_end, compute_end });
        now = compute_end;
    }
    (simulate_serial(accesses), spans)
}

/// The closed-form recurrence (documentation + cross-check oracle).
#[must_use]
pub fn analytic_double_buffered(accesses: &[(Cycles, Cycles)]) -> Cycles {
    let n = accesses.len();
    if n == 0 {
        return Cycles::ZERO;
    }
    let mut finish_load = vec![Cycles::ZERO; n];
    let mut finish_compute = vec![Cycles::ZERO; n];
    for i in 0..n {
        let prev_load = if i > 0 { finish_load[i - 1] } else { Cycles::ZERO };
        let buffer_free = if i >= 2 { finish_compute[i - 2] } else { Cycles::ZERO };
        finish_load[i] = prev_load.max(buffer_free).saturating_add(accesses[i].0);
        let prev_compute = if i > 0 { finish_compute[i - 1] } else { Cycles::ZERO };
        finish_compute[i] = prev_compute.max(finish_load[i]).saturating_add(accesses[i].1);
    }
    finish_compute[n - 1]
}

/// No overlap at all: every access loads then computes, serially. The
/// ablation baseline ("double buffering off").
#[must_use]
pub fn simulate_serial(accesses: &[(Cycles, Cycles)]) -> OverlapReport {
    let mut total = Cycles::ZERO;
    let mut load_busy = Cycles::ZERO;
    let mut compute_busy = Cycles::ZERO;
    for &(l, c) in accesses {
        total = total.saturating_add(l).saturating_add(c);
        load_busy = load_busy.saturating_add(l);
        compute_busy = compute_busy.saturating_add(c);
    }
    OverlapReport { total, load_busy, compute_busy, compute_stall: total - compute_busy }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cy(v: u64) -> Cycles {
        Cycles(v)
    }

    #[test]
    fn single_access_no_overlap_possible() {
        let r = simulate_double_buffered(&[(cy(10), cy(20))]);
        assert_eq!(r.total, cy(30));
        assert_eq!(r.compute_stall, cy(10));
    }

    #[test]
    fn compute_bound_hides_all_but_first_load() {
        // L=10, C=100, 5 accesses: total = 10 + 5·100.
        let acc = vec![(cy(10), cy(100)); 5];
        let r = simulate_double_buffered(&acc);
        assert_eq!(r.total, cy(10 + 500));
        assert_eq!(r.compute_busy, cy(500));
        assert_eq!(r.compute_stall, cy(10));
    }

    #[test]
    fn load_bound_exposes_loads() {
        // L=100, C=10: loads serialize; total = 5·100 + final compute.
        let acc = vec![(cy(100), cy(10)); 5];
        let r = simulate_double_buffered(&acc);
        assert_eq!(r.total, cy(510));
    }

    #[test]
    fn event_sim_matches_analytic_on_random_schedules() {
        // deterministic pseudo-random schedules
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for len in [1usize, 2, 3, 7, 20, 100] {
            let acc: Vec<(Cycles, Cycles)> =
                (0..len).map(|_| (cy(next() % 200), cy(next() % 200))).collect();
            let sim = simulate_double_buffered(&acc);
            let ana = analytic_double_buffered(&acc);
            assert_eq!(sim.total, ana, "len={len}");
        }
    }

    #[test]
    fn zero_duration_edges() {
        let acc = vec![(cy(0), cy(5)), (cy(7), cy(0)), (cy(0), cy(0))];
        let sim = simulate_double_buffered(&acc);
        assert_eq!(sim.total, analytic_double_buffered(&acc));
    }

    #[test]
    fn overlap_never_slower_than_serial_never_faster_than_bounds() {
        let acc: Vec<(Cycles, Cycles)> =
            (0..20).map(|i| (cy(30 + i % 7), cy(50 + (i * 13) % 11))).collect();
        let over = simulate_double_buffered(&acc);
        let serial = simulate_serial(&acc);
        assert!(over.total <= serial.total);
        let sum_c: u64 = acc.iter().map(|a| a.1.get()).sum();
        let sum_l: u64 = acc.iter().map(|a| a.0.get()).sum();
        // lower bounds: all compute, or all loads (single DMA)
        assert!(over.total.get() >= sum_c.max(sum_l));
    }

    #[test]
    fn span_timeline_matches_event_sim_and_never_overlaps() {
        let mut seed = 0xDEADBEEFCAFEF00Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for len in [0usize, 1, 2, 3, 8, 33, 100] {
            let acc: Vec<(Cycles, Cycles)> =
                (0..len).map(|_| (cy(next() % 150), cy(next() % 150))).collect();
            let event = simulate_double_buffered(&acc);
            let (report, spans) = simulate_double_buffered_spans(&acc);
            assert_eq!(report, event, "len={len}");
            assert_eq!(spans.len(), len);
            for (i, s) in spans.iter().enumerate() {
                assert_eq!(s.load_end - s.load_start, acc[i].0);
                assert_eq!(s.compute_end - s.compute_start, acc[i].1);
                assert!(s.compute_start >= s.load_end, "compute before its load, i={i}");
                if i > 0 {
                    assert!(s.load_start >= spans[i - 1].load_end, "DMA overlap, i={i}");
                    assert!(s.compute_start >= spans[i - 1].compute_end, "engine overlap, i={i}");
                }
            }
            if let Some(last) = spans.last() {
                assert_eq!(last.compute_end, report.total);
            }
        }
    }

    #[test]
    fn serial_spans_match_serial_report() {
        let acc = vec![(cy(3), cy(5)), (cy(0), cy(2)), (cy(7), cy(0))];
        let (report, spans) = simulate_serial_spans(&acc);
        assert_eq!(report, simulate_serial(&acc));
        assert_eq!(spans[0].compute_end, cy(8));
        assert_eq!(spans[1].load_start, cy(8));
        assert_eq!(spans.last().unwrap().compute_end, report.total);
    }

    #[test]
    fn empty_schedule() {
        let r = simulate_double_buffered(&[]);
        assert_eq!(r.total, Cycles::ZERO);
        assert_eq!(r.compute_busy, Cycles::ZERO);
    }

    #[test]
    fn efficiency_metric() {
        let efficiency = |r: OverlapReport| r.compute_busy.get() as f64 / r.total.get() as f64;
        let acc = vec![(cy(10), cy(90)); 10];
        assert!(efficiency(simulate_double_buffered(&acc)) > 0.95);
        let bad = vec![(cy(90), cy(10)); 10];
        assert!(efficiency(simulate_double_buffered(&bad)) < 0.2);
    }
}
