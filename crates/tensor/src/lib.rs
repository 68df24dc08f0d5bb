//! # protea-tensor — dense matrices, tiling, and matmul kernels
//!
//! The ProTEA accelerator is, at heart, a machine for tiled dense
//! matrix-matrix products. This crate provides the host-side substrate:
//!
//! * [`Matrix`] — row-major dense matrices generic over the element type
//!   (`f32` for references, `i8` for quantized data, `i32` accumulators).
//! * [`tile`] — tiling geometry: how a large matrix is partitioned into
//!   the sub-matrices that fit on-chip BRAM (Figs. 5 and 6 of the paper).
//!   The iterators are exhaustively tested to cover every element exactly
//!   once, including ragged edges.
//! * [`matmul`] — reference kernels: naive, cache-blocked and
//!   rayon-parallel floating point, plus the exact i8→i32 quantized kernel
//!   the hardware implements.
//! * [`pack`] — the throughput path: weights transposed once into
//!   column-major strips ([`PackedWeights`]), an i8→i32 GEMM with
//!   row-band parallelism inside the product, and fused
//!   requant/activation epilogues — all bit-identical to
//!   [`matmul_i8_i32`].
//! * [`kernels`] — the explicit SIMD microkernels (AVX2, AVX-512,
//!   AVX-512 VNNI, NEON) behind runtime CPU-feature dispatch, the
//!   portable autovectorized kernel as fallback, overridable with
//!   `PROTEA_KERNEL`.
//! * [`ops`] — elementwise and broadcast helpers (bias add, residual add,
//!   transpose, max-abs reduction).
//! * [`abft`] — algorithm-based fault tolerance: exact i64 row/column
//!   checksums predicted from the GEMM inputs and verified against the
//!   packed kernel's output, the cheap detection layer for silent data
//!   corruption in the datapath.

// `unsafe` is denied crate-wide and allowed back in exactly one place:
// the `kernels::{x86,neon}` modules holding the `std::arch` intrinsic
// calls (each with its feature-detection safety contract documented).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod abft;
pub mod kernels;
pub mod matmul;
pub mod matrix;
pub mod ops;
pub mod pack;
pub mod tile;

pub use abft::{AbftChecksums, AbftMismatch};
pub use kernels::{active_kernel, force_kernel, supported_kernels, KernelIsa};
pub use matmul::{matmul_blocked, matmul_i8_i32, matmul_naive, matmul_parallel};
pub use matrix::Matrix;
pub use ops::{add_bias_row, max_abs, residual_add, transpose};
pub use pack::{
    matmul_i8_i32_packed, matmul_i8_i32_packed_parallel, matmul_i8_packed_epilogue,
    matmul_i8_packed_epilogue_checked, matmul_i8_packed_requant, matmul_i8_packed_requant_parallel,
    PackedWeights, RequantEpilogue,
};
pub use tile::{Tile, TileGrid};
