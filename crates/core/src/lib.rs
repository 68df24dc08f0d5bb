//! # protea-core — the ProTEA accelerator
//!
//! The paper's contribution, reproduced as a functional + cycle-accurate
//! co-simulation:
//!
//! * [`SynthesisConfig`] — everything frozen at synthesis time: tile sizes
//!   (`TS_MHA`, `TS_FFN`), the number of head engines, maximum model
//!   dimensions, engine initiation intervals, the AXI port. Synthesizing
//!   ([`SynthesisConfig::synthesize`]) binds resources and estimates the
//!   achievable clock — Fig. 7's axes.
//! * [`RuntimeConfig`] — the four runtime-programmable registers (heads,
//!   layers, `d_model`, `SL`), reprogrammable **without resynthesis**, the
//!   paper's headline feature. Register writes validate against the
//!   synthesized capacity exactly as the MicroBlaze driver's AXI-lite
//!   writes would.
//! * [`engines`] — the seven compute engines (`QKV_CE`, `QK_CE`, softmax,
//!   `SV_CE`, `FFN1..3_CE`, layer norm): each computes **bit-exactly**
//!   (tile-by-tile integer accumulation, shared requantization stages
//!   with `protea-model`) and prices itself in cycles via the
//!   `protea-hls` scheduling algebra.
//! * [`Accelerator`] — ties it together: runs an input through all layers,
//!   overlapping tile loads with compute through `protea-mem`'s
//!   double-buffer scheduler, and emits a [`CycleReport`] with
//!   per-engine breakdowns, latency in ms at the synthesized clock, and
//!   GOPS.
//! * [`driver`] — the host-software analogue of the paper's MicroBlaze
//!   program: extract hyperparameters from a serialized model, emit the
//!   register/instruction stream, reprogram at runtime.
//! * [`fault`] — the driver's response to injected hardware faults
//!   (`protea-mem`'s [`FaultStream`]): a transfer
//!   [`Watchdog`], exponential-backoff [`RetryPolicy`], per-class
//!   [`FaultStats`]; a [`RunPlan`] armed with a [`FaultPlan`] runs the
//!   fault-injected timing path through [`Accelerator::execute`].
//!
//! The equivalence contract: for any weights and input,
//! `Accelerator::run(...).output` equals
//! `protea_model::QuantizedEncoder::forward(...)` byte-for-byte.
//! Integration tests in the workspace root enforce it across shapes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accelerator;
mod backend;
pub mod bus;
pub mod decoder;
pub mod desched;
pub mod driver;
pub mod engines;
pub mod error;
pub mod fault;
pub mod integrity;
pub mod pipeline;
pub mod registers;
pub mod report;
pub mod sparse;
pub mod synthesis;
pub mod timing;

pub use accelerator::{Accelerator, RunResult};
pub use bus::{AxiLiteBus, BusResponse};
pub use decoder::DecoderRunResult;
pub use desched::simulate_layer_des;
pub use driver::{Driver, DriverError, Instruction};
pub use error::CoreError;
pub use fault::{
    FaultEvent, FaultKind, FaultRates, FaultStats, FaultStream, RetryPolicy, SdcEvent, SdcHit,
    SdcSite, SdcStream, Watchdog,
};
pub use integrity::weight_digest;
pub use pipeline::{DecodeSession, FaultPlan, Phase, PlanKey, RunOutcome, RunPlan};
pub use registers::{RegisterError, RuntimeConfig};
pub use report::{CycleReport, EnginePhase};
pub use sparse::{SparseMode, SparsePhase};
pub use synthesis::{SynthesisConfig, SynthesisConfigBuilder, SynthesizedDesign};
pub use timing::TimingPreset;
