//! # protea-hls — a model of Vitis-HLS loop scheduling and binding
//!
//! ProTEA is written in C for Vitis HLS; its performance is governed by a
//! handful of scheduling rules the paper leans on explicitly (Algorithms
//! 1–4 carry the pragmas inline). This crate models those rules so the
//! simulator can derive cycle counts and resource bindings from the same
//! loop structure the paper publishes:
//!
//! * [`pragma`] — `#pragma HLS pipeline` (with II), `unroll`,
//!   `array_partition` as typed values.
//! * [`sched`] — the scheduling algebra: a pipelined loop with initiation
//!   interval `II`, depth `D` and trip count `n` takes `D + II·(n−1)`
//!   cycles; a sequential (pipeline-off) loop multiplies its body and adds
//!   per-iteration control overhead; a fully-unrolled loop becomes
//!   spatial hardware (PEs) instead of time.
//! * [`array`](mod@array) — `array_partition` → memory banks → BRAM18/LUTRAM binding.
//! * [`cost`] — per-PE and per-functional-unit resource costs calibrated
//!   against Table I of the paper (the calibration is exact for the
//!   published design point; see `cost::calibration` tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod cost;
pub mod pragma;
pub mod sched;

pub use array::{ArraySpec, MemBinding};
pub use cost::{FunctionalUnitCost, PeCost};
pub use pragma::{ArrayPartition, Pipeline};
pub use sched::{pipelined_loop_cycles, sequential_loop_cycles, LoopNest, LoopSpec};
