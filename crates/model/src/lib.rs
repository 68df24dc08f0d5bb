//! # protea-model — the transformer encoder reference
//!
//! The paper's workload: a BERT-variant transformer **encoder** stack
//! (Fig. 1) with multi-head self-attention (Fig. 2) and a position-wise
//! feed-forward network, residual connections and layer normalization.
//! ProTEA executes it quantized to 8-bit fixed point. This crate is the
//! software-side truth the accelerator is checked against:
//!
//! * [`EncoderConfig`] — the four runtime-programmable hyperparameters
//!   (`d_model`, heads, layers, sequence length) plus presets for every
//!   model configuration the paper's tables exercise.
//! * [`EncoderWeights`] — per-layer weight matrices with seeded random
//!   initialization and a self-contained binary serialization (the role
//!   of the `.pth` files in the paper's flow).
//! * [`float`] — the f32 reference forward pass.
//! * [`quantized`] — the int8 fixed-point golden model: identical
//!   requantization points to the hardware, so the accelerator's tiled
//!   datapath must agree **bit-for-bit** (integer accumulation is
//!   order-independent). Integration tests enforce exactly that.
//! * [`opcount`] — operation counting (the GOPS denominators of Tables
//!   I–III).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod config;
pub mod decoder;
pub mod embedding;
pub mod float;
pub mod opcount;
pub mod pruning;
pub mod quantized;
pub mod serialize;
pub mod weights;
pub mod workload;

pub use analysis::{error_profile, ErrorProfile, LayerError};
pub use config::{AttnScaling, EncoderConfig};
pub use decoder::{
    DecoderKvCache, DecoderWeights, FloatDecoder, KvCacheError, PackedDecoder, QuantizedDecoder,
};
pub use embedding::{Embedding, GeneratorHead};
pub use float::FloatEncoder;
pub use opcount::OpCount;
pub use pruning::{sparsity_of, PruningScheme};
pub use quantized::{QuantSchedule, QuantizedEncoder};
pub use weights::{EncoderWeights, LayerWeights};
