//! The HLS scheduling algebra: loop structure → cycles.
//!
//! Vitis-HLS reports loop latency with two rules this module encodes:
//!
//! * **Pipelined loop** (`pipeline II=k`, depth `D`, trip `n`):
//!   `cycles = D + k·(n−1)` — the pipeline fills once, then retires an
//!   iteration every `k` cycles. Loops nested inside are fully unrolled
//!   into spatial hardware.
//! * **Sequential loop** (`pipeline off`, trip `n`, body `B`):
//!   `cycles = n·(B + o) + e` where `o` is per-iteration control overhead
//!   (increment/compare/branch, typically 1–2 cycles) and `e` loop
//!   entry/exit.
//!
//! ProTEA's engines are all a sequential row loop wrapping one pipelined
//! loop wrapping one fully-unrolled reduction — Algorithms 1–4.

use crate::pragma::Pipeline;

/// Cycles for a pipelined loop: `depth + ii·(trip − 1)`; zero-trip loops
/// cost nothing (HLS emits a guard).
#[must_use]
pub fn pipelined_loop_cycles(trip: u64, ii: u32, depth: u32) -> u64 {
    if trip == 0 {
        return 0;
    }
    u64::from(depth) + u64::from(ii) * (trip - 1)
}

/// Cycles for a sequential loop of `trip` iterations, each costing
/// `body` cycles plus `iter_overhead` control, plus `entry_exit` once.
#[must_use]
pub fn sequential_loop_cycles(trip: u64, body: u64, iter_overhead: u32, entry_exit: u32) -> u64 {
    if trip == 0 {
        return u64::from(entry_exit);
    }
    trip * (body + u64::from(iter_overhead)) + u64::from(entry_exit)
}

/// One loop level in a nest.
#[derive(Debug, Clone, Copy)]
pub struct LoopSpec {
    /// Trip count at runtime (may be below the synthesized maximum).
    pub trip: u64,
    /// Pipeline pragma on this loop.
    pub pipeline: Pipeline,
}

impl LoopSpec {
    /// A sequential (pipeline-off) loop.
    #[must_use]
    pub fn sequential(trip: u64) -> Self {
        Self { trip, pipeline: Pipeline::Off }
    }

    /// A pipelined loop with initiation interval `ii`.
    #[must_use]
    pub fn pipelined(trip: u64, ii: u32) -> Self {
        assert!(ii >= 1, "initiation interval must be >= 1");
        Self { trip, pipeline: Pipeline::Ii(ii) }
    }
}

/// A loop nest, outermost first. Everything nested below the first
/// pipelined level is fully unrolled (the Vitis rule), so trips below it
/// contribute PEs, not cycles.
#[derive(Debug, Clone)]
pub struct LoopNest {
    levels: Vec<LoopSpec>,
    /// Pipeline depth of the innermost body (operation chain through the
    /// unrolled reduction: multiplier + adder tree + writeback).
    pipeline_depth: u32,
    /// Per-iteration control overhead of sequential levels.
    iter_overhead: u32,
    /// Entry/exit overhead of sequential levels.
    entry_exit: u32,
}

impl LoopNest {
    /// Build a nest from outermost to innermost.
    #[must_use]
    pub fn new(levels: Vec<LoopSpec>, pipeline_depth: u32) -> Self {
        assert!(!levels.is_empty(), "loop nest needs at least one level");
        Self { levels, pipeline_depth, iter_overhead: 2, entry_exit: 2 }
    }

    /// Override control overheads (calibration knob).
    #[must_use]
    pub fn with_overheads(mut self, iter_overhead: u32, entry_exit: u32) -> Self {
        self.iter_overhead = iter_overhead;
        self.entry_exit = entry_exit;
        self
    }

    /// Latency in cycles of one execution of the whole nest.
    ///
    /// Levels at and below the first pipelined level collapse into a
    /// single pipelined schedule: their trip counts multiply into the
    /// effective trip (per the Vitis rule that `pipeline` flattens
    /// perfectly-nested inner loops), and anything marked below is
    /// unrolled (spatial).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles_from(0)
    }

    fn cycles_from(&self, level: usize) -> u64 {
        let Some(spec) = self.levels.get(level) else {
            // innermost body below all loops: one pipeline pass
            return u64::from(self.pipeline_depth);
        };
        match spec.pipeline {
            Pipeline::Ii(ii) => {
                // This and all deeper sequential trips flatten into one
                // pipelined iteration space; deeper levels are unrolled
                // (spatial) and do not multiply the trip count.
                pipelined_loop_cycles(spec.trip, ii, self.pipeline_depth)
            }
            Pipeline::Off => {
                let body = self.cycles_from(level + 1);
                sequential_loop_cycles(spec.trip, body, self.iter_overhead, self.entry_exit)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_formula() {
        assert_eq!(pipelined_loop_cycles(1, 1, 10), 10);
        assert_eq!(pipelined_loop_cycles(100, 1, 10), 109);
        assert_eq!(pipelined_loop_cycles(100, 2, 10), 208);
        assert_eq!(pipelined_loop_cycles(0, 1, 10), 0);
    }

    #[test]
    fn sequential_formula() {
        assert_eq!(sequential_loop_cycles(4, 10, 2, 3), 4 * 12 + 3);
        assert_eq!(sequential_loop_cycles(0, 10, 2, 3), 3);
    }

    #[test]
    fn algorithm1_shape() {
        // Alg. 1 (QKV): for i in SL (off) { for k in d/h (II=1) { unrolled TS } }
        // per tile: SL · (depth + (d/h − 1) + overhead) + entry
        let sl = 64;
        let dk = 96;
        let depth = 16;
        let nest = LoopNest::new(
            vec![
                LoopSpec::sequential(sl),
                LoopSpec::pipelined(dk, 1),
                LoopSpec::sequential(64), // unrolled TS_MHA level (spatial)
            ],
            depth,
        );
        let per_row = u64::from(depth) + (dk - 1);
        assert_eq!(nest.cycles(), sl * (per_row + 2) + 2);
    }

    #[test]
    fn fully_sequential_nest_multiplies_bodies() {
        let nest = LoopNest::new(vec![LoopSpec::sequential(10), LoopSpec::sequential(10)], 5);
        // fully sequential: 10 · (10·(5+2)+2 + 2) + 2
        assert_eq!(nest.cycles(), 10 * (10 * 7 + 2 + 2) + 2);
    }

    #[test]
    fn runtime_trip_scaling_is_linear_in_pipelined_trip() {
        let mk = |trip| {
            LoopNest::new(vec![LoopSpec::sequential(64), LoopSpec::pipelined(trip, 1)], 16).cycles()
        };
        let a = mk(96);
        let b = mk(192);
        // doubling the pipelined trip adds exactly 64·96 cycles (II=1)
        assert_eq!(b - a, 64 * 96);
    }

    #[test]
    fn ii2_doubles_steady_state() {
        let mk = |ii| LoopNest::new(vec![LoopSpec::pipelined(1000, ii)], 10).cycles();
        assert_eq!(mk(2) - mk(1), 999);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_nest_rejected() {
        let _ = LoopNest::new(vec![], 10);
    }
}
