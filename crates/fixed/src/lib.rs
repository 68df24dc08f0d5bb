//! # protea-fixed — fixed-point arithmetic substrate
//!
//! ProTEA (the paper) quantizes all data to an **8-bit fixed-point format**
//! and performs multiply-accumulate in DSP48 slices, which natively produce
//! wide products accumulated into a 48-bit register. This crate models that
//! datapath bit-accurately on a host CPU:
//!
//! * [`QFormat`] — a power-of-two fixed-point format `Qm.f` (signed, `m`
//!   integer bits, `f` fractional bits).
//! * [`mac`] — i8×i8→i32 multiply-accumulate kernels (the PE datapath).
//! * [`requant`] — wide-accumulator → narrow-storage requantization with
//!   selectable [`Rounding`] and saturation, exactly as a hardware
//!   right-shift-round-saturate stage.
//! * [`quant`] — per-tensor quantizer (scale selection from data statistics).
//! * [`softmax`] — the LUT-based exponential + reciprocal softmax the paper
//!   implements "in LUTs and flip-flops".
//! * [`activation`] — ReLU and a LUT GELU for the first FFN transformation.
//! * [`layernorm`] — integer mean/variance/rsqrt layer normalization.
//!
//! Everything here is deterministic and panic-free on arbitrary inputs
//! (saturating, never overflowing), which the property tests exercise
//! heavily.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod layernorm;
pub mod mac;
pub mod qformat;
pub mod quant;
pub mod requant;
pub mod rounding;
pub mod softmax;

pub use activation::{gelu_i8, relu_i8, Activation};
pub use mac::{axpy_i8, mac_i8};
pub use qformat::QFormat;
pub use quant::{dequantize_slice, quantize_slice, QuantParams, Quantizer};
pub use requant::{requantize, ExactDiv, LaneRequant, LaneStages, Requantizer, RoundShift};
pub use rounding::Rounding;
pub use softmax::{softmax_fixed, ExpLut, SoftmaxUnit};
