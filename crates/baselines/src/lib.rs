//! # protea-baselines — comparators for Tables II and III
//!
//! The paper's evaluation is comparative: ProTEA against five published
//! FPGA accelerators (Table II) and against CPUs/GPUs (Table III). None
//! of those systems is runnable here, so this crate supplies what a
//! faithful comparison needs:
//!
//! * [`published`] — a registry of every comparator's *reported* numbers
//!   (platform, precision, DSPs, latency, GOPS, sparsity), transcribed
//!   from the paper, plus the derived-metric arithmetic the paper
//!   performs (GOPS/DSP ×1000, sparsity-adjusted latencies).
//! * [`roofline`] — first-principles latency models of the CPU/GPU
//!   platforms (peak throughput, memory bandwidth, launch overhead) used
//!   to sanity-check the published baselines and expose each result's
//!   implied efficiency.
//! * [`table_configs`] — the documented model-configuration assumptions
//!   behind each Table II/III row (the paper does not publish them; see
//!   EXPERIMENTS.md for the reconstruction method).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod published;
pub mod roofline;
pub mod table_configs;

pub use energy::PowerModel;
pub use published::{PublishedAccelerator, PublishedBaseline};
pub use roofline::PlatformModel;
pub use table_configs::{table2_rows, table3_rows, Table2Row, Table3Row};
