//! The transformer **decoder** — the paper's stated future work.
//!
//! "Although this paper focuses solely on encoder layers, future work
//! will extend the architecture to support both encoder and decoder
//! layers of the transformer, using the same design principles." This
//! module is that extension: a decoder layer (Fig. 1, right) has three
//! sub-layers —
//!
//! 1. **masked self-attention** (causal: position *i* may attend only to
//!    positions ≤ *i*),
//! 2. **cross-attention** over the encoder's output memory (queries from
//!    the decoder state, keys/values from the memory),
//! 3. the position-wise FFN,
//!
//! each followed by residual + layer norm. Both the f32 reference and
//! the bit-exact int8 path reuse the encoder's stages; the quantized
//! cross/self attention is the encoder's golden head
//! ([`attention_heads`], with the causal mask for self-attention), and
//! the packed decode step runs the encoder's host datapath (the fused
//! projections and [`fused_attention_head`]), so the two agree
//! byte-for-byte.

use crate::config::{AttnScaling, EncoderConfig};
use crate::float::{layer_norm, softmax_rows};
use crate::quantized::{
    add_norm, attention_heads, fused_attention_head, fused_projection, fused_projection_act,
    project, QuantMatrix, QuantSchedule,
};
use core::fmt;
use protea_fixed::activation::ActivationLut;
use protea_fixed::layernorm::LayerNormUnit;
use protea_fixed::{Activation, QFormat, Quantizer, SoftmaxUnit};
use protea_tensor::{add_bias_row, matmul_naive, residual_add, transpose, Matrix, PackedWeights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Weights of one decoder layer (float).
#[derive(Debug, Clone)]
pub struct DecoderLayerWeights {
    /// Masked self-attention projections (`d × d` each) and biases.
    pub self_wq: Matrix<f32>,
    /// See [`DecoderLayerWeights::self_wq`].
    pub self_wk: Matrix<f32>,
    /// See [`DecoderLayerWeights::self_wq`].
    pub self_wv: Matrix<f32>,
    /// Self-attention biases (`d` each).
    pub self_bq: Vec<f32>,
    /// See [`DecoderLayerWeights::self_bq`].
    pub self_bk: Vec<f32>,
    /// See [`DecoderLayerWeights::self_bq`].
    pub self_bv: Vec<f32>,
    /// Self-attention output projection.
    pub self_wo: Matrix<f32>,
    /// Self-attention output bias.
    pub self_bo: Vec<f32>,
    /// Cross-attention projections: queries from the decoder state…
    pub cross_wq: Matrix<f32>,
    /// …keys from the encoder memory…
    pub cross_wk: Matrix<f32>,
    /// …values from the encoder memory.
    pub cross_wv: Matrix<f32>,
    /// Cross-attention biases.
    pub cross_bq: Vec<f32>,
    /// See [`DecoderLayerWeights::cross_bq`].
    pub cross_bk: Vec<f32>,
    /// See [`DecoderLayerWeights::cross_bq`].
    pub cross_bv: Vec<f32>,
    /// Cross-attention output projection.
    pub cross_wo: Matrix<f32>,
    /// Cross-attention output bias.
    pub cross_bo: Vec<f32>,
    /// FFN first transformation (`d × 4d`).
    pub w1: Matrix<f32>,
    /// FFN first bias.
    pub b1: Vec<f32>,
    /// FFN second transformation (`4d × d`).
    pub w2: Matrix<f32>,
    /// FFN second bias.
    pub b2: Vec<f32>,
    /// LayerNorm affine parameters after each of the three sub-layers.
    pub ln: [(Vec<f32>, Vec<f32>); 3],
}

impl DecoderLayerWeights {
    /// Random initialization from a seeded RNG.
    #[must_use]
    pub fn random(cfg: &EncoderConfig, rng: &mut StdRng) -> Self {
        let d = cfg.d_model;
        let f = cfg.d_ffn();
        let bound = 1.0 / (d as f32).sqrt();
        let mat = |rows: usize, cols: usize, rng: &mut StdRng| {
            Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..bound))
        };
        let vect = |n: usize, rng: &mut StdRng| -> Vec<f32> {
            (0..n).map(|_| rng.gen_range(-bound..bound)).collect()
        };
        Self {
            self_wq: mat(d, d, rng),
            self_wk: mat(d, d, rng),
            self_wv: mat(d, d, rng),
            self_bq: vect(d, rng),
            self_bk: vect(d, rng),
            self_bv: vect(d, rng),
            self_wo: mat(d, d, rng),
            self_bo: vect(d, rng),
            cross_wq: mat(d, d, rng),
            cross_wk: mat(d, d, rng),
            cross_wv: mat(d, d, rng),
            cross_bq: vect(d, rng),
            cross_bk: vect(d, rng),
            cross_bv: vect(d, rng),
            cross_wo: mat(d, d, rng),
            cross_bo: vect(d, rng),
            w1: mat(d, f, rng),
            b1: vect(f, rng),
            w2: mat(f, d, rng),
            b2: vect(d, rng),
            ln: core::array::from_fn(|_| (vec![1.0; d], vec![0.0; d])),
        }
    }
}

/// The decoder stack's weights.
#[derive(Debug, Clone)]
pub struct DecoderWeights {
    /// Shared hyperparameters (the decoder uses the same `d_model`,
    /// heads, FFN expansion as its encoder; `seq_len` is the *target*
    /// length).
    pub config: EncoderConfig,
    /// One entry per decoder layer.
    pub layers: Vec<DecoderLayerWeights>,
}

impl DecoderWeights {
    /// Seeded random initialization.
    #[must_use]
    pub fn random(cfg: EncoderConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = (0..cfg.layers).map(|_| DecoderLayerWeights::random(&cfg, &mut rng)).collect();
        Self { config: cfg, layers }
    }
}

/// Float reference decoder.
#[derive(Debug, Clone)]
pub struct FloatDecoder {
    weights: DecoderWeights,
}

impl FloatDecoder {
    /// Wrap a weight set.
    #[must_use]
    pub fn new(weights: DecoderWeights) -> Self {
        Self { weights }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &EncoderConfig {
        &self.weights.config
    }

    /// Borrow the weights.
    #[must_use]
    pub fn weights(&self) -> &DecoderWeights {
        &self.weights
    }

    /// Run the stack: `x` is the target-side input (`SL_tgt × d`),
    /// `memory` the encoder output (`SL_src × d`).
    #[must_use]
    pub fn forward(&self, x: &Matrix<f32>, memory: &Matrix<f32>) -> Matrix<f32> {
        let cfg = self.weights.config;
        assert_eq!(x.cols(), cfg.d_model);
        assert_eq!(memory.cols(), cfg.d_model);
        let mut h = x.clone();
        for layer in &self.weights.layers {
            h = self.forward_layer(&h, memory, layer);
        }
        h
    }

    // The argument list mirrors the per-matrix weight layout on purpose.
    #[allow(clippy::too_many_arguments)]
    fn attention(
        &self,
        q_src: &Matrix<f32>,
        kv_src: &Matrix<f32>,
        wq: &Matrix<f32>,
        wk: &Matrix<f32>,
        wv: &Matrix<f32>,
        bq: &[f32],
        bk: &[f32],
        bv: &[f32],
        wo: &Matrix<f32>,
        bo: &[f32],
        causal: bool,
    ) -> Matrix<f32> {
        let cfg = self.weights.config;
        let dk = cfg.d_k();
        let sl_q = q_src.rows();
        let sl_kv = kv_src.rows();
        let mut q = matmul_naive(q_src, wq);
        let mut k = matmul_naive(kv_src, wk);
        let mut v = matmul_naive(kv_src, wv);
        add_bias_row(&mut q, bq);
        add_bias_row(&mut k, bk);
        add_bias_row(&mut v, bv);
        let scale = match cfg.scaling {
            AttnScaling::InvSqrtDk => 1.0 / (dk as f32).sqrt(),
            AttnScaling::InvDmodel => 1.0 / cfg.d_model as f32,
        };
        let mut concat = Matrix::<f32>::zeros(sl_q, cfg.d_model);
        for head in 0..cfg.heads {
            let c0 = head * dk;
            let qi = q.submatrix(0, c0, sl_q, dk);
            let ki = k.submatrix(0, c0, sl_kv, dk);
            let vi = v.submatrix(0, c0, sl_kv, dk);
            let mut s = matmul_naive(&qi, &transpose(&ki));
            for val in s.as_mut_slice() {
                *val *= scale;
            }
            if causal {
                for r in 0..sl_q {
                    for c in (r + 1)..sl_kv {
                        s[(r, c)] = f32::NEG_INFINITY;
                    }
                }
            }
            let p = softmax_rows(&s);
            concat.write_submatrix(0, c0, &matmul_naive(&p, &vi));
        }
        let mut out = matmul_naive(&concat, wo);
        add_bias_row(&mut out, bo);
        out
    }

    /// One decoder layer.
    #[must_use]
    pub fn forward_layer(
        &self,
        x: &Matrix<f32>,
        memory: &Matrix<f32>,
        w: &DecoderLayerWeights,
    ) -> Matrix<f32> {
        // 1. masked self-attention
        let sa = self.attention(
            x, x, &w.self_wq, &w.self_wk, &w.self_wv, &w.self_bq, &w.self_bk, &w.self_bv,
            &w.self_wo, &w.self_bo, true,
        );
        let x1 = layer_norm(&residual_add(x, &sa), &w.ln[0].0, &w.ln[0].1);
        // 2. cross-attention over the encoder memory
        let ca = self.attention(
            &x1,
            memory,
            &w.cross_wq,
            &w.cross_wk,
            &w.cross_wv,
            &w.cross_bq,
            &w.cross_bk,
            &w.cross_bv,
            &w.cross_wo,
            &w.cross_bo,
            false,
        );
        let x2 = layer_norm(&residual_add(&x1, &ca), &w.ln[1].0, &w.ln[1].1);
        // 3. FFN
        let cfg = self.weights.config;
        let mut hidden = matmul_naive(&x2, &w.w1);
        add_bias_row(&mut hidden, &w.b1);
        for v in hidden.as_mut_slice() {
            *v = match cfg.activation {
                Activation::Relu => v.max(0.0),
                Activation::Gelu => {
                    0.5 * *v * (1.0 + (0.797_884_6 * (*v + 0.044715 * *v * *v * *v)).tanh())
                }
                Activation::Identity => *v,
            };
        }
        let mut ffn = matmul_naive(&hidden, &w.w2);
        add_bias_row(&mut ffn, &w.b2);
        layer_norm(&residual_add(&x2, &ffn), &w.ln[2].0, &w.ln[2].1)
    }
}

/// One decoder layer's quantized parameters.
#[derive(Debug, Clone)]
pub struct QuantizedDecoderLayer {
    /// Self-attention projections.
    pub self_wq: QuantMatrix,
    /// See [`QuantizedDecoderLayer::self_wq`].
    pub self_wk: QuantMatrix,
    /// See [`QuantizedDecoderLayer::self_wq`].
    pub self_wv: QuantMatrix,
    /// Self-attention biases (accumulator scale).
    pub self_bq: Vec<i32>,
    /// See [`QuantizedDecoderLayer::self_bq`].
    pub self_bk: Vec<i32>,
    /// See [`QuantizedDecoderLayer::self_bq`].
    pub self_bv: Vec<i32>,
    /// Self-attention output projection and bias.
    pub self_wo: QuantMatrix,
    /// See [`QuantizedDecoderLayer::self_wo`].
    pub self_bo: Vec<i32>,
    /// Cross-attention projections.
    pub cross_wq: QuantMatrix,
    /// See [`QuantizedDecoderLayer::cross_wq`].
    pub cross_wk: QuantMatrix,
    /// See [`QuantizedDecoderLayer::cross_wq`].
    pub cross_wv: QuantMatrix,
    /// Cross-attention biases.
    pub cross_bq: Vec<i32>,
    /// See [`QuantizedDecoderLayer::cross_bq`].
    pub cross_bk: Vec<i32>,
    /// See [`QuantizedDecoderLayer::cross_bq`].
    pub cross_bv: Vec<i32>,
    /// Cross-attention output projection and bias.
    pub cross_wo: QuantMatrix,
    /// See [`QuantizedDecoderLayer::cross_wo`].
    pub cross_bo: Vec<i32>,
    /// FFN matrices and biases.
    pub w1: QuantMatrix,
    /// See [`QuantizedDecoderLayer::w1`].
    pub b1: Vec<i32>,
    /// See [`QuantizedDecoderLayer::w1`].
    pub w2: QuantMatrix,
    /// See [`QuantizedDecoderLayer::w1`].
    pub b2: Vec<i32>,
    /// The three layer-norm units.
    pub ln: [LayerNormUnit; 3],
}

/// The quantized decoder.
#[derive(Debug, Clone)]
pub struct QuantizedDecoder {
    /// Configuration.
    pub config: EncoderConfig,
    /// Schedule all stages follow.
    pub schedule: QuantSchedule,
    /// Per-layer parameters.
    pub layers: Vec<QuantizedDecoderLayer>,
    softmax: SoftmaxUnit,
    act: ActivationLut,
}

impl QuantizedDecoder {
    /// Quantize a float decoder weight set.
    #[must_use]
    pub fn from_float(weights: &DecoderWeights, schedule: QuantSchedule) -> Self {
        let cfg = weights.config;
        let gamma_fmt = QFormat::new(8, 5);
        let beta_fmt = QFormat::new(8, 5);
        let q = Quantizer::default();
        let qm = |m: &Matrix<f32>| -> QuantMatrix {
            let (raw, params) = q.quantize(m.as_slice());
            QuantMatrix { data: Matrix::from_vec(m.rows(), m.cols(), raw), fmt: params.format() }
        };
        let bias32 = |b: &[f32], wfmt: QFormat| -> Vec<i32> {
            let frac = u32::from(schedule.act_fmt.frac_bits()) + u32::from(wfmt.frac_bits());
            let scale = 2f64.powi(frac as i32);
            b.iter()
                .map(|&x| {
                    (f64::from(x) * scale).round().clamp(f64::from(i32::MIN), f64::from(i32::MAX))
                        as i32
                })
                .collect()
        };
        let qv = |v: &[f32], fmt: QFormat| -> Vec<i8> {
            v.iter().map(|&x| fmt.real_to_raw(f64::from(x)) as i8).collect()
        };
        let layers = weights
            .layers
            .iter()
            .map(|l| {
                let self_wq = qm(&l.self_wq);
                let self_wk = qm(&l.self_wk);
                let self_wv = qm(&l.self_wv);
                let self_wo = qm(&l.self_wo);
                let cross_wq = qm(&l.cross_wq);
                let cross_wk = qm(&l.cross_wk);
                let cross_wv = qm(&l.cross_wv);
                let cross_wo = qm(&l.cross_wo);
                let w1 = qm(&l.w1);
                let w2 = qm(&l.w2);
                QuantizedDecoderLayer {
                    self_bq: bias32(&l.self_bq, self_wq.fmt),
                    self_bk: bias32(&l.self_bk, self_wk.fmt),
                    self_bv: bias32(&l.self_bv, self_wv.fmt),
                    self_bo: bias32(&l.self_bo, self_wo.fmt),
                    cross_bq: bias32(&l.cross_bq, cross_wq.fmt),
                    cross_bk: bias32(&l.cross_bk, cross_wk.fmt),
                    cross_bv: bias32(&l.cross_bv, cross_wv.fmt),
                    cross_bo: bias32(&l.cross_bo, cross_wo.fmt),
                    b1: bias32(&l.b1, w1.fmt),
                    b2: bias32(&l.b2, w2.fmt),
                    ln: core::array::from_fn(|i| {
                        LayerNormUnit::new(
                            qv(&l.ln[i].0, gamma_fmt),
                            qv(&l.ln[i].1, beta_fmt),
                            gamma_fmt,
                            beta_fmt,
                            schedule.act_fmt,
                        )
                    }),
                    self_wq,
                    self_wk,
                    self_wv,
                    self_wo,
                    cross_wq,
                    cross_wk,
                    cross_wv,
                    cross_wo,
                    w1,
                    w2,
                }
            })
            .collect();
        Self {
            config: cfg,
            schedule,
            layers,
            softmax: SoftmaxUnit::new(schedule.logit_fmt),
            act: ActivationLut::new(cfg.activation, schedule.act_fmt),
        }
    }

    /// Full quantized forward: `x` target (`SL_tgt × d`), `memory` the
    /// quantized encoder output (`SL_src × d`, activation format).
    #[must_use]
    pub fn forward(&self, x: &Matrix<i8>, memory: &Matrix<i8>) -> Matrix<i8> {
        assert_eq!(x.cols(), self.config.d_model);
        assert_eq!(memory.cols(), self.config.d_model);
        let mut h = x.clone();
        for layer in &self.layers {
            h = self.forward_layer(&h, memory, layer);
        }
        h
    }

    /// Quantized attention block, shared by self/cross paths. `causal`
    /// masks future positions (requires `q_src` and `kv_src` to be the
    /// same sequence).
    #[must_use]
    // The argument list mirrors the per-matrix weight layout on purpose.
    #[allow(clippy::too_many_arguments)]
    pub fn attention(
        &self,
        q_src: &Matrix<i8>,
        kv_src: &Matrix<i8>,
        wq: &QuantMatrix,
        wk: &QuantMatrix,
        wv: &QuantMatrix,
        bq: &[i32],
        bk: &[i32],
        bv: &[i32],
        wo: &QuantMatrix,
        bo: &[i32],
        causal: bool,
    ) -> Matrix<i8> {
        let s = &self.schedule;
        let q = project(q_src, wq, bq, s);
        let k = project(kv_src, wk, bk, s);
        let v = project(kv_src, wv, bv, s);
        let (_, concat) = attention_heads(&q, &k, &v, &self.config, s, &self.softmax, causal);
        project(&concat, wo, bo, s)
    }

    /// One quantized decoder layer.
    #[must_use]
    pub fn forward_layer(
        &self,
        x: &Matrix<i8>,
        memory: &Matrix<i8>,
        w: &QuantizedDecoderLayer,
    ) -> Matrix<i8> {
        let s = &self.schedule;
        let sa = self.attention(
            x, x, &w.self_wq, &w.self_wk, &w.self_wv, &w.self_bq, &w.self_bk, &w.self_bv,
            &w.self_wo, &w.self_bo, true,
        );
        let x1 = add_norm(x, &sa, &w.ln[0]);
        let ca = self.attention(
            &x1,
            memory,
            &w.cross_wq,
            &w.cross_wk,
            &w.cross_wv,
            &w.cross_bq,
            &w.cross_bk,
            &w.cross_bv,
            &w.cross_wo,
            &w.cross_bo,
            false,
        );
        let x2 = add_norm(&x1, &ca, &w.ln[1]);
        let mut hidden = project(&x2, &w.w1, &w.b1, s);
        self.act.apply_slice(hidden.as_mut_slice());
        let ffn = project(&hidden, &w.w2, &w.b2, s);
        add_norm(&x2, &ffn, &w.ln[2])
    }

    /// Quantize an f32 matrix into the activation format.
    #[must_use]
    pub fn quantize_input(&self, x: &Matrix<f32>) -> Matrix<i8> {
        let fmt = self.schedule.act_fmt;
        x.map(|v| fmt.real_to_raw(f64::from(v)) as i8)
    }
}

/// Per-layer key/value cache for autoregressive decoding.
///
/// At generation time a decoder emits one position per step; recomputing
/// the whole prefix each step is O(T²) work. The cache keeps every
/// layer's self-attention K/V rows (growing with the generated prefix)
/// and the cross-attention K/V (computed once from the encoder memory).
/// Because every stage of the quantized layer is row-wise and the
/// causal mask restricts row *i* to rows ≤ *i*, incremental decoding is
/// **bit-identical** to the full forward pass — tested below.
#[derive(Debug, Clone)]
pub struct DecoderKvCache {
    /// Self-attention keys per layer, one row per decoded position.
    self_k: Vec<Vec<i8>>,
    /// Self-attention values per layer.
    self_v: Vec<Vec<i8>>,
    /// Cross-attention keys per layer (fixed once memory is seen).
    cross_k: Vec<Matrix<i8>>,
    /// Cross-attention values per layer.
    cross_v: Vec<Matrix<i8>>,
    d_model: usize,
    positions: usize,
    /// Maximum decoded positions, `None` for unbounded growth.
    capacity: Option<usize>,
}

/// How the KV-cached decode path can fail. Growth past a bounded
/// cache's capacity and shape mismatches surface here instead of
/// panicking, so a serving layer can shed the session; the unified
/// `CoreError` wraps this via `From` one crate up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvCacheError {
    /// The cache is full: decoding one more position would exceed the
    /// capacity the cache was bounded to at construction.
    CapacityExhausted {
        /// Positions already decoded.
        positions: usize,
        /// The bound set by [`DecoderKvCache::bounded`].
        capacity: usize,
    },
    /// The input is not one `1 × d_model` row.
    RowShape {
        /// Shape the decoder demands.
        expected: (usize, usize),
        /// Shape that was supplied.
        got: (usize, usize),
    },
    /// The cache was built for a different embedding dimension than the
    /// decoder it is being stepped with.
    DimMismatch {
        /// `d_model` the cache was built with.
        cache: usize,
        /// `d_model` of the decoder.
        decoder: usize,
    },
}

impl fmt::Display for KvCacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvCacheError::CapacityExhausted { positions, capacity } => {
                write!(f, "KV cache full: {positions} positions decoded, capacity {capacity}")
            }
            KvCacheError::RowShape { expected, got } => write!(
                f,
                "decode step takes one {}×{} row, got {}×{}",
                expected.0, expected.1, got.0, got.1
            ),
            KvCacheError::DimMismatch { cache, decoder } => {
                write!(f, "KV cache built for d_model={cache}, decoder has d_model={decoder}")
            }
        }
    }
}

impl std::error::Error for KvCacheError {}

impl DecoderKvCache {
    /// Build the cache: precompute the cross-attention K/V from the
    /// encoder memory for every layer. Growth is unbounded; use
    /// [`bounded`](Self::bounded) to cap it.
    #[must_use]
    pub fn new(dec: &QuantizedDecoder, memory: &Matrix<i8>) -> Self {
        Self::build(dec, memory, None)
    }

    /// Build a cache that holds at most `capacity` decoded positions;
    /// stepping past it fails with [`KvCacheError::CapacityExhausted`]
    /// instead of growing (a device's KV region is finite).
    #[must_use]
    pub fn bounded(dec: &QuantizedDecoder, memory: &Matrix<i8>, capacity: usize) -> Self {
        Self::build(dec, memory, Some(capacity))
    }

    fn build(dec: &QuantizedDecoder, memory: &Matrix<i8>, capacity: Option<usize>) -> Self {
        let d = dec.config.d_model;
        assert_eq!(memory.cols(), d);
        let s = &dec.schedule;
        let mut cross_k = Vec::with_capacity(dec.layers.len());
        let mut cross_v = Vec::with_capacity(dec.layers.len());
        for layer in &dec.layers {
            cross_k.push(project(memory, &layer.cross_wk, &layer.cross_bk, s));
            cross_v.push(project(memory, &layer.cross_wv, &layer.cross_bv, s));
        }
        Self {
            self_k: vec![Vec::new(); dec.layers.len()],
            self_v: vec![Vec::new(); dec.layers.len()],
            cross_k,
            cross_v,
            d_model: d,
            positions: 0,
            capacity,
        }
    }

    /// Positions decoded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.positions
    }

    /// Whether nothing has been decoded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.positions == 0
    }

    /// The position bound, `None` when growth is unbounded.
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }
}

/// Pre-packed projection weights for the fast decode path: the eight
/// matrices a decode step multiplies against, packed once into the
/// SIMD-dispatched [`PackedWeights`] layout (bit-identical to the
/// reference GEMM on every kernel ISA). Build once per decoder with
/// [`QuantizedDecoder::pack`]; a step given it runs the encoder's host
/// datapath: every projection through [`fused_projection`] (FFN2
/// through [`fused_projection_act`]) and every head through
/// [`fused_attention_head`].
#[derive(Debug, Clone)]
pub struct PackedDecoder {
    layers: Vec<PackedDecoderLayer>,
}

#[derive(Debug, Clone)]
struct PackedDecoderLayer {
    self_wq: PackedWeights,
    self_wk: PackedWeights,
    self_wv: PackedWeights,
    self_wo: PackedWeights,
    cross_wq: PackedWeights,
    cross_wo: PackedWeights,
    w1: PackedWeights,
    w2: PackedWeights,
}

impl QuantizedDecoder {
    /// Pack the per-step projection weights for the fast decode path.
    #[must_use]
    pub fn pack(&self) -> PackedDecoder {
        PackedDecoder {
            layers: self
                .layers
                .iter()
                .map(|l| PackedDecoderLayer {
                    self_wq: PackedWeights::pack(&l.self_wq.data),
                    self_wk: PackedWeights::pack(&l.self_wk.data),
                    self_wv: PackedWeights::pack(&l.self_wv.data),
                    self_wo: PackedWeights::pack(&l.self_wo.data),
                    cross_wq: PackedWeights::pack(&l.cross_wq.data),
                    cross_wo: PackedWeights::pack(&l.cross_wo.data),
                    w1: PackedWeights::pack(&l.w1.data),
                    w2: PackedWeights::pack(&l.w2.data),
                })
                .collect(),
        }
    }

    /// Decode one position incrementally: `x_row` is the `1 × d` input
    /// for the next target position; the cache supplies all previous
    /// K/V rows. Returns the `1 × d` output for this position, identical
    /// to the corresponding row of a full [`forward`](Self::forward).
    ///
    /// # Panics
    /// On any [`KvCacheError`]; serving paths use
    /// [`try_decode_step`](Self::try_decode_step) instead.
    #[must_use]
    pub fn decode_step(&self, cache: &mut DecoderKvCache, x_row: &Matrix<i8>) -> Matrix<i8> {
        match self.try_decode_step(cache, x_row) {
            Ok(out) => out,
            Err(e) => panic!("decode_step: {e}"),
        }
    }

    /// Fallible [`decode_step`](Self::decode_step): shape, dimension and
    /// cache-capacity violations surface as [`KvCacheError`] before the
    /// cache is mutated.
    ///
    /// # Errors
    /// [`KvCacheError`] on a bad input shape, a cache built for a
    /// different decoder, or a bounded cache that is already full.
    pub fn try_decode_step(
        &self,
        cache: &mut DecoderKvCache,
        x_row: &Matrix<i8>,
    ) -> Result<Matrix<i8>, KvCacheError> {
        self.decode_step_impl(cache, x_row, None)
    }

    /// [`try_decode_step`](Self::try_decode_step) on the host datapath
    /// that `Accelerator::forward_fast` runs: the fused projections over
    /// `packed`'s SIMD-dispatched weights, and the fused attention head
    /// for every self- and cross-attention head (at one query row the
    /// head's Q·Kᵀ keeps `d_k` unpadded). Bit-identical output, built
    /// for the serving fast path where the same decoder steps many
    /// sessions.
    ///
    /// # Errors
    /// Same contract as [`try_decode_step`](Self::try_decode_step).
    pub fn try_decode_step_packed(
        &self,
        packed: &PackedDecoder,
        cache: &mut DecoderKvCache,
        x_row: &Matrix<i8>,
    ) -> Result<Matrix<i8>, KvCacheError> {
        self.decode_step_impl(cache, x_row, Some(packed))
    }

    fn decode_step_impl(
        &self,
        cache: &mut DecoderKvCache,
        x_row: &Matrix<i8>,
        packed: Option<&PackedDecoder>,
    ) -> Result<Matrix<i8>, KvCacheError> {
        let d = self.config.d_model;
        if x_row.shape() != (1, d) {
            return Err(KvCacheError::RowShape { expected: (1, d), got: x_row.shape() });
        }
        if cache.d_model != d {
            return Err(KvCacheError::DimMismatch { cache: cache.d_model, decoder: d });
        }
        if let Some(cap) = cache.capacity {
            if cache.positions >= cap {
                return Err(KvCacheError::CapacityExhausted {
                    positions: cache.positions,
                    capacity: cap,
                });
            }
        }
        let s = &self.schedule;
        let cfg = &self.config;
        // A projection on the host datapath's fused GEMM when packed
        // weights are given, else the golden stage.
        let proj = |x: &Matrix<i8>, w: &QuantMatrix, pw: Option<&PackedWeights>, b: &[i32]| match pw
        {
            Some(pw) => fused_projection(x, pw, b, w.fmt, s),
            None => project(x, w, b, s),
        };
        // Every head of one query row over `k`/`v`, on the host
        // datapath's fused heads when packed, else the golden heads. No
        // mask: the self-attention keys hold only the positions up to
        // this one, and cross-attention is unmasked.
        let attend = |q: &Matrix<i8>, k: &Matrix<i8>, v: &Matrix<i8>| match packed {
            Some(_) => {
                let mut concat = Matrix::<i8>::zeros(1, d);
                for head in 0..cfg.heads {
                    let out = fused_attention_head(q, k, v, head, cfg, s, &self.softmax);
                    concat.write_submatrix(0, head * cfg.d_k(), &out);
                }
                concat
            }
            None => attention_heads(q, k, v, cfg, s, &self.softmax, false).1,
        };
        let mut h = x_row.clone();
        let kv_len = cache.positions + 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let pl = packed.map(|p| &p.layers[li]);
            // --- self-attention with cached K/V --------------------------
            let q = proj(&h, &layer.self_wq, pl.map(|p| &p.self_wq), &layer.self_bq);
            let k_new = proj(&h, &layer.self_wk, pl.map(|p| &p.self_wk), &layer.self_bk);
            let v_new = proj(&h, &layer.self_wv, pl.map(|p| &p.self_wv), &layer.self_bv);
            cache.self_k[li].extend_from_slice(k_new.row(0));
            cache.self_v[li].extend_from_slice(v_new.row(0));
            let k_all = Matrix::from_vec(kv_len, d, cache.self_k[li].clone());
            let v_all = Matrix::from_vec(kv_len, d, cache.self_v[li].clone());
            let scat = attend(&q, &k_all, &v_all);
            let sa = proj(&scat, &layer.self_wo, pl.map(|p| &p.self_wo), &layer.self_bo);
            let x1 = add_norm(&h, &sa, &layer.ln[0]);

            // --- cross-attention with precomputed memory K/V ------------
            let qc = proj(&x1, &layer.cross_wq, pl.map(|p| &p.cross_wq), &layer.cross_bq);
            let ccat = attend(&qc, &cache.cross_k[li], &cache.cross_v[li]);
            let ca = proj(&ccat, &layer.cross_wo, pl.map(|p| &p.cross_wo), &layer.cross_bo);
            let x2 = add_norm(&x1, &ca, &layer.ln[1]);

            // --- FFN -----------------------------------------------------
            let hidden = match pl {
                Some(p) => fused_projection_act(&x2, &p.w1, &layer.b1, layer.w1.fmt, s, &self.act),
                None => {
                    let mut hidden = project(&x2, &layer.w1, &layer.b1, s);
                    self.act.apply_slice(hidden.as_mut_slice());
                    hidden
                }
            };
            let ffn = proj(&hidden, &layer.w2, pl.map(|p| &p.w2), &layer.b2);
            h = add_norm(&x2, &ffn, &layer.ln[2]);
        }
        cache.positions += 1;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> EncoderConfig {
        EncoderConfig::new(32, 4, 2, 8)
    }

    fn mat_f32(rows: usize, cols: usize, seed: usize) -> Matrix<f32> {
        Matrix::from_fn(rows, cols, |r, c| {
            (((r * 31 + c * 7 + seed) % 41) as f32 / 41.0 - 0.5) * 2.0
        })
    }

    #[test]
    fn float_decoder_shapes() {
        let dec = FloatDecoder::new(DecoderWeights::random(cfg(), 3));
        let x = mat_f32(8, 32, 1);
        let mem = mat_f32(6, 32, 2); // source length differs from target
        let y = dec.forward(&x, &mem);
        assert_eq!(y.shape(), (8, 32));
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn causal_mask_blocks_future_information() {
        // Changing a *later* target position must not change earlier
        // rows of the masked self-attention output (checked through the
        // first sub-layer only — LN keeps rows independent).
        let w = DecoderWeights::random(cfg(), 5);
        let dec = QuantizedDecoder::from_float(&w, QuantSchedule::paper());
        let mem = Matrix::from_fn(6, 32, |r, c| ((r * 3 + c) % 50) as i8);
        let x1 = Matrix::from_fn(8, 32, |r, c| ((r * 7 + c * 3) % 60) as i8);
        let mut x2 = x1.clone();
        // perturb the last row only
        for v in x2.row_mut(7) {
            *v = v.saturating_add(13);
        }
        let y1 = dec.forward(&x1, &mem);
        let y2 = dec.forward(&x2, &mem);
        // rows before the perturbed position are identical
        for r in 0..7 {
            assert_eq!(y1.row(r), y2.row(r), "row {r} saw the future");
        }
        // the perturbed row itself changes (sanity that the test bites)
        assert_ne!(y1.row(7), y2.row(7));
    }

    #[test]
    fn cross_attention_uses_the_memory() {
        let w = DecoderWeights::random(cfg(), 6);
        let dec = QuantizedDecoder::from_float(&w, QuantSchedule::paper());
        let x = Matrix::from_fn(8, 32, |r, c| ((r + c * 5) % 70) as i8);
        let mem_a = Matrix::from_fn(6, 32, |r, c| ((r * 11 + c) % 50) as i8);
        let mem_b = Matrix::from_fn(6, 32, |r, c| ((r * 11 + c) % 50 + 20) as i8);
        assert_ne!(
            dec.forward(&x, &mem_a).as_slice(),
            dec.forward(&x, &mem_b).as_slice(),
            "different memories must change the output"
        );
    }

    #[test]
    fn quantized_tracks_float_decoder() {
        let c = cfg();
        let w = DecoderWeights::random(c, 9);
        let fdec = FloatDecoder::new(w.clone());
        let qdec = QuantizedDecoder::from_float(&w, QuantSchedule::paper());
        let x = mat_f32(8, 32, 3);
        let mem = mat_f32(6, 32, 4);
        let yf = fdec.forward(&x, &mem);
        let yq = qdec.forward(&qdec.quantize_input(&x), &qdec.quantize_input(&mem));
        let fmt = qdec.schedule.act_fmt;
        let yq_f = yq.map(|v| fmt.raw_to_real(i64::from(v)) as f32);
        let err = protea_tensor::ops::mse(&yf, &yq_f);
        assert!(err < 0.5, "decoder quantization error mse = {err}");
    }

    #[test]
    fn incremental_decoding_is_bit_exact() {
        // Step-by-step KV-cached decoding must equal the full forward
        // pass row for row.
        let c = cfg();
        let w = DecoderWeights::random(c, 21);
        let dec = QuantizedDecoder::from_float(&w, QuantSchedule::paper());
        let mem = Matrix::from_fn(6, 32, |r, cc| ((r * 13 + cc * 3) % 110) as i8 - 50);
        let x = Matrix::from_fn(8, 32, |r, cc| ((r * 7 + cc * 11) % 110) as i8 - 50);
        let full = dec.forward(&x, &mem);
        let mut cache = DecoderKvCache::new(&dec, &mem);
        for r in 0..8 {
            let row = x.submatrix(r, 0, 1, 32);
            let out = dec.decode_step(&mut cache, &row);
            assert_eq!(out.row(0), full.row(r), "position {r} diverged");
        }
        assert_eq!(cache.len(), 8);
    }

    #[test]
    fn cache_precomputes_cross_kv_once() {
        let c = cfg();
        let w = DecoderWeights::random(c, 22);
        let dec = QuantizedDecoder::from_float(&w, QuantSchedule::paper());
        let mem = Matrix::from_fn(5, 32, |r, cc| ((r + cc) % 100) as i8);
        let cache = DecoderKvCache::new(&dec, &mem);
        assert!(cache.is_empty());
        assert_eq!(cache.cross_k.len(), c.layers);
        assert_eq!(cache.cross_k[0].shape(), (5, 32));
    }

    #[test]
    fn bounded_cache_surfaces_capacity_error() {
        let c = cfg();
        let w = DecoderWeights::random(c, 23);
        let dec = QuantizedDecoder::from_float(&w, QuantSchedule::paper());
        let mem = Matrix::from_fn(4, 32, |r, cc| ((r + cc * 2) % 90) as i8);
        let mut cache = DecoderKvCache::bounded(&dec, &mem, 2);
        assert_eq!(cache.capacity(), Some(2));
        let row = Matrix::from_fn(1, 32, |_, cc| (cc % 50) as i8);
        assert!(dec.try_decode_step(&mut cache, &row).is_ok());
        assert!(dec.try_decode_step(&mut cache, &row).is_ok());
        let err = dec.try_decode_step(&mut cache, &row).unwrap_err();
        assert_eq!(err, KvCacheError::CapacityExhausted { positions: 2, capacity: 2 });
        assert_eq!(cache.len(), 2, "failed step must not mutate the cache");
    }

    #[test]
    fn bad_shapes_surface_errors_not_panics() {
        let c = cfg();
        let w = DecoderWeights::random(c, 24);
        let dec = QuantizedDecoder::from_float(&w, QuantSchedule::paper());
        let mem = Matrix::from_fn(4, 32, |r, cc| ((r + cc) % 90) as i8);
        let mut cache = DecoderKvCache::new(&dec, &mem);
        let wide = Matrix::<i8>::zeros(1, 16);
        assert_eq!(
            dec.try_decode_step(&mut cache, &wide).unwrap_err(),
            KvCacheError::RowShape { expected: (1, 32), got: (1, 16) },
        );
        let two_rows = Matrix::<i8>::zeros(2, 32);
        assert!(matches!(
            dec.try_decode_step(&mut cache, &two_rows).unwrap_err(),
            KvCacheError::RowShape { .. }
        ));
        assert!(cache.is_empty());
    }

    #[test]
    fn packed_decode_is_bit_exact() {
        // The packed fast path must match the scalar path (and therefore
        // the full forward) byte for byte at every position.
        let c = cfg();
        let w = DecoderWeights::random(c, 25);
        let dec = QuantizedDecoder::from_float(&w, QuantSchedule::paper());
        let packed = dec.pack();
        let mem = Matrix::from_fn(6, 32, |r, cc| ((r * 17 + cc * 5) % 110) as i8 - 50);
        let x = Matrix::from_fn(8, 32, |r, cc| ((r * 3 + cc * 13) % 110) as i8 - 50);
        let full = dec.forward(&x, &mem);
        let mut scalar_cache = DecoderKvCache::new(&dec, &mem);
        let mut packed_cache = DecoderKvCache::new(&dec, &mem);
        for r in 0..8 {
            let row = x.submatrix(r, 0, 1, 32);
            let a = dec.try_decode_step(&mut scalar_cache, &row).unwrap();
            let b = dec.try_decode_step_packed(&packed, &mut packed_cache, &row).unwrap();
            assert_eq!(a.row(0), b.row(0), "packed diverged at position {r}");
            assert_eq!(b.row(0), full.row(r), "packed diverged from full forward at {r}");
        }
    }

    #[test]
    fn packed_decode_over_an_empty_memory() {
        // No encoder rows: cross-attention has no keys and adds zeros,
        // on the packed path as on the scalar one.
        let w = DecoderWeights::random(cfg(), 26);
        let dec = QuantizedDecoder::from_float(&w, QuantSchedule::paper());
        let mem = Matrix::<i8>::zeros(0, 32);
        let row = Matrix::from_fn(1, 32, |_, cc| (cc % 50) as i8 - 20);
        let a = dec.try_decode_step(&mut DecoderKvCache::new(&dec, &mem), &row).unwrap();
        let mut cache = DecoderKvCache::new(&dec, &mem);
        let b = dec.try_decode_step_packed(&dec.pack(), &mut cache, &row).unwrap();
        assert_eq!(a.row(0), b.row(0));
    }

    #[test]
    fn decoder_is_deterministic() {
        let w = DecoderWeights::random(cfg(), 13);
        let dec = QuantizedDecoder::from_float(&w, QuantSchedule::paper());
        let x = Matrix::from_fn(8, 32, |r, c| ((r + c) % 90) as i8);
        let mem = Matrix::from_fn(8, 32, |r, c| ((r * 2 + c) % 90) as i8);
        assert_eq!(dec.forward(&x, &mem).as_slice(), dec.forward(&x, &mem).as_slice());
    }
}
