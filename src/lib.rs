//! # protea — a simulation-based reproduction of ProTEA
//!
//! ProTEA ("Programmable Transformer Encoder Acceleration on FPGA",
//! SC24-W) is an HLS-built FPGA accelerator for dense transformer
//! encoders whose hyperparameters — attention heads, layers, embedding
//! dimension, sequence length — are **runtime-programmable** without
//! re-synthesis. This workspace reproduces the system end-to-end in
//! Rust: a bit-exact 8-bit fixed-point datapath, a cycle-calibrated
//! model of the HLS engines, a device/Fmax model standing in for Vivado,
//! and a harness that regenerates every table and figure of the paper's
//! evaluation (see `EXPERIMENTS.md`).
//!
//! ## Quick start
//!
//! The whole request path — synthesize, program, load weights, run — is
//! fallible: every step returns `Result`, so invalid configurations and
//! mismatched weight blobs surface as typed [`CoreError`] values rather
//! than panics.
//!
//! [`CoreError`]: protea_core::CoreError
//!
//! ```
//! use protea::prelude::*;
//!
//! // 1. Describe the bitstream and synthesize it onto an Alveo U55C.
//! //    The builder starts from the paper's design point and validates
//! //    divisibility and capacity constraints at `build()`.
//! let syn = SynthesisConfig::builder().heads(8).d_max(768).sl_max(128).build()?;
//! let mut accel = Accelerator::try_new(syn, &FpgaDevice::alveo_u55c())?;
//!
//! // 2. "Train" a model (random weights here), save it, and let the
//! //    driver extract hyperparameters + program the registers.
//! let cfg = EncoderConfig::new(256, 4, 2, 16);
//! let blob = protea::model::serialize::encode(&EncoderWeights::random(cfg, 42));
//! Driver::new(syn).deploy(&mut accel, &blob, QuantSchedule::paper())?;
//!
//! // 3. Run an input through the simulated hardware.
//! let x = Matrix::from_fn(16, 256, |r, c| ((r + c) % 64) as i8);
//! let result = accel.try_run(&x)?;
//! assert_eq!(result.output.shape(), (16, 256));
//! assert!(result.latency_ms > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Serving simulation
//!
//! Beyond single requests, [`serve`] simulates a *fleet* of ProTEA
//! cards under a live request stream: a batch scheduler groups
//! compatible requests (same capacity class, padded into a shared
//! sequence-length bucket) to amortize register programming and weight
//! reloads, and a discrete-event simulation reports throughput and
//! p50/p95/p99 latency. The `protea serve-sim` subcommand exposes the
//! same simulation from the command line, and `protea chaos-sim` runs
//! it under deterministic fault injection (seeded ECC flips, AXI
//! stalls/timeouts, and card crashes with watchdog/retry/circuit-breaker
//! recovery — see [`serve::FaultConfig`]):
//!
//! ```
//! use protea::prelude::*;
//!
//! let workload = Workload::poisson(32, 50_000.0, &[(96, 4, 2)], (8, 16), 7);
//! let fleet = Fleet::try_new(FleetConfig { cards: 2, ..FleetConfig::default() })?;
//! let report = fleet.run(ServePlan::workload(&workload))?.report;
//! assert_eq!(report.completed, 32);
//! assert!(report.latency_ms.p99 >= report.latency_ms.p50);
//! # Ok::<(), protea::serve::ServeError>(())
//! ```
//!
//! ## Crate map
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | arithmetic | [`fixed`] | Q-format fixed point, MAC, requantize, LUT softmax/GELU, integer LN |
//! | tensors | [`tensor`] | matrices, tiling grids, matmul kernels |
//! | workload | [`model`] | encoder config/weights, f32 + bit-exact int8 references, op counts |
//! | simulation | [`hwsim`] | deterministic discrete-event kernel |
//! | scheduling | [`hls`] | HLS loop/pragma latency + resource binding |
//! | devices | [`platform`] | FPGA database, Fmax congestion model |
//! | memory | [`mem`] | AXI bursts, HBM channels, double-buffer overlap |
//! | **the paper** | [`core`] | engines, tiling schedules, registers, driver, co-simulation |
//! | comparisons | [`baselines`] | published results, rooflines, power envelopes |
//! | deployment | [`serve`] | batched multi-card serving: scheduler, fleet DES, tail-latency report |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use protea_baselines as baselines;
pub use protea_core as core;
pub use protea_fixed as fixed;
pub use protea_hls as hls;
pub use protea_hwsim as hwsim;
pub use protea_mem as mem;
pub use protea_model as model;
pub use protea_platform as platform;
pub use protea_serve as serve;
pub use protea_tensor as tensor;

/// The types most programs need, in one import.
pub mod prelude {
    pub use protea_baselines::PowerModel;
    pub use protea_core::{
        Accelerator, CoreError, CycleReport, DecodeSession, Driver, FaultEvent, FaultKind,
        FaultPlan, FaultRates, FaultStats, Phase, PlanKey, RetryPolicy, RunOutcome, RunPlan,
        RunResult, RuntimeConfig, SparseMode, SynthesisConfig, SynthesisConfigBuilder,
        TimingPreset, Watchdog,
    };
    pub use protea_fixed::{QFormat, Quantizer, Rounding};
    pub use protea_hwsim::{ExecSpan, ExecTrace, SpanKind};
    pub use protea_model::{
        AttnScaling, EncoderConfig, EncoderWeights, FloatEncoder, OpCount, QuantSchedule,
        QuantizedEncoder,
    };
    pub use protea_platform::FpgaDevice;
    pub use protea_serve::{
        AimdConfig, BatchPolicy, BrownoutLadder, CardHealth, ChurnAction, ChurnEvent, ChurnPlan,
        FailReason, FailedRequest, FaultConfig, Fleet, FleetConfig, FleetSnapshot, HedgeConfig,
        MetricsMode, OverloadConfig, Percentiles, PlacementPolicy, PoissonSource, Priority,
        RetryBudgetConfig, SdcConfig, ServeError, ServeOutcome, ServePlan, ServeReport,
        ServeRequest, ServeResponse, StreamMetrics, TenantPolicy, TenantSlo, Workload,
        WorkloadSource,
    };
    pub use protea_tensor::Matrix;
}
