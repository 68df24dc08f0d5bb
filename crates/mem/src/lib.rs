//! # protea-mem — off-chip memory and DMA models
//!
//! ProTEA fetches inputs and weights "from off-chip high-bandwidth memory
//! (HBM) using AXI4 master interfaces … according to demand", and its
//! reported latency "reflects the computation time, accounting for the
//! overlap of data loading and computation". This crate models that data
//! movement:
//!
//! * [`axi`] — AXI4 read-burst timing: beats, burst segmentation, request
//!   latency.
//! * [`hbm`] — HBM/DDR channel bandwidth shared between masters; the
//!   effective per-cycle byte rate is the min of the AXI port width and
//!   the channel's share.
//! * [`overlap`] — the double-buffer scheduler: while engines compute on
//!   tile *t*, the DMA prefetches tile *t+1*; built on the
//!   `protea-hwsim` event kernel and cross-checked against the analytic
//!   recurrence `total = L₀ + Σ max(Lᵢ₊₁, Cᵢ) + Cₙ₋₁` in tests.
//! * [`fault`] — deterministic, seeded fault injection: ECC flips, AXI
//!   stalls/timeouts on tile transfers, and card-crash timestamps, all
//!   replayable bit-identically from a seed or an explicit event list.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod axi;
pub mod fault;
pub mod hbm;
pub mod kv;
pub mod overlap;

pub use arbiter::{arbitrate_round_robin, ArbitrationResult};
pub use axi::AxiPort;
pub use fault::{
    FaultEvent, FaultKind, FaultRates, FaultStream, SdcEvent, SdcHit, SdcSite, SdcStream,
    TransferFault,
};
pub use hbm::ChannelShare;
pub use kv::{KvResidency, KvSpec};
pub use overlap::{
    simulate_double_buffered, simulate_double_buffered_spans, simulate_serial,
    simulate_serial_spans, AccessSpans, OverlapReport,
};
