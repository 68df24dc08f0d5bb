//! # protea-hwsim — a deterministic discrete-event simulation kernel
//!
//! The ProTEA reproduction needs cycle-level timing for hardware that we
//! cannot run: engines computing while DMA channels stream the next weight
//! tile out of HBM, with the layer latency emerging from their overlap.
//! This crate is the simulation substrate: a classic event-driven kernel
//! with
//!
//! * [`Cycles`] — simulation time as clock cycles, convertible to wall
//!   time at a chosen frequency,
//! * [`Simulator`] — an event queue of `FnOnce` callbacks over a
//!   user-provided model type, with **deterministic FIFO tie-breaking**
//!   (two events at the same cycle fire in scheduling order — property
//!   tested, because nondeterministic simulators are unreproducible
//!   simulators),
//! * [`EventQueue`] — a typed-event (plain data, not closures) queue
//!   with `(time, rank, seq)` ordering, so models that must snapshot
//!   and resume can serialize their pending events,
//! * [`Fnv64`] — FNV-1a 64-bit state fingerprinting for verifying that
//!   a resumed simulation is bit-identical to an uninterrupted one,
//! * [`Utilization`] — busy-interval tracking for per-unit utilization.
//!
//! The kernel is intentionally small and has no dependencies; everything
//! is `#![forbid(unsafe_code)]` and single-threaded (determinism beats
//! parallelism inside a *model of* parallel hardware — the modeled
//! parallelism is in the event timeline, not the host threads).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod des;
pub mod exec_trace;
pub mod fnv;
pub mod kernel;
pub mod stats;
pub mod time;
pub mod trace;

pub use des::EventQueue;
pub use exec_trace::{ExecSpan, ExecTrace, SpanKind};
pub use fnv::Fnv64;
pub use kernel::{EventId, Simulator};
pub use stats::Utilization;
pub use time::{Cycles, Frequency};
pub use trace::{SignalId, VcdTrace};
