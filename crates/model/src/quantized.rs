//! The int8 fixed-point golden model.
//!
//! This is the bit-exact specification of what the hardware computes:
//! every multiply-accumulate in i32, every narrowing through the same
//! [`Requantizer`] stages the engines synthesize. `protea-core`'s tiled
//! engines must agree with this module **exactly** — integer addition is
//! order-independent, so any tiling that covers each reduction once
//! reproduces the same accumulators, and identical requantization then
//! yields identical bytes. The integration tests assert that equality.
//!
//! Quantization scheme (see [`QuantSchedule`]):
//! * activations: one global 8-bit format (`Q2.5` by default) — required
//!   for the saturating residual adds to be format-aligned, as in the
//!   hardware;
//! * weights: per-matrix formats chosen by range calibration;
//! * biases: pre-scaled i32 at the accumulator's fractional position
//!   (the paper loads biases into registers and adds them to the
//!   accumulated Q/K/V directly);
//! * attention logits: scaled by `1/d_model` via exact integer division
//!   (Algorithm 2 line 9), stored in `Q0.7`;
//! * softmax probabilities: `Q0.7` via the LUT softmax.
//!
//! Next to each golden stage sits its fused form, the host datapath
//! that both stacks run (the encoder's `Accelerator::forward_fast` and
//! the decoder's packed decode step): [`fused_projection`] and
//! [`fused_projection_act`] narrow [`project`]'s accumulators in the
//! GEMM's store loop, and [`fused_attention_head`] is one head of
//! [`attention_heads`] on the packed kernels.

use crate::config::{AttnScaling, EncoderConfig};
use crate::weights::{EncoderWeights, LayerWeights};
use protea_fixed::activation::ActivationLut;
use protea_fixed::layernorm::LayerNormUnit;
use protea_fixed::{LaneRequant, QFormat, Quantizer, Requantizer, Rounding, SoftmaxUnit};
use protea_tensor::{
    kernels, matmul_i8_i32, matmul_i8_packed_requant, matmul_i8_packed_requant_parallel, transpose,
    Matrix, PackedWeights, RequantEpilogue,
};
use rayon::prelude::*;

/// Global quantization decisions for one deployment.
#[derive(Debug, Clone, Copy)]
pub struct QuantSchedule {
    /// Format of all activations (inputs, Q/K/V, attention output, FFN
    /// hidden, layer outputs).
    pub act_fmt: QFormat,
    /// Format of attention logits after scaling.
    pub logit_fmt: QFormat,
    /// Rounding mode of every requantization stage.
    pub rounding: Rounding,
    /// Attention scaling convention (must match the hardware build).
    pub scaling: AttnScaling,
}

impl QuantSchedule {
    /// The paper-faithful schedule: Q2.5 activations, `1/d_model` logit
    /// scaling into Q0.7, round-to-nearest-even.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            act_fmt: QFormat::new(8, 5),
            logit_fmt: QFormat::q8_prob(),
            rounding: Rounding::NearestEven,
            scaling: AttnScaling::InvDmodel,
        }
    }

    /// Standard-transformer variant: `1/√d_k` scaling with wider logits.
    #[must_use]
    pub fn standard_scaling() -> Self {
        Self {
            act_fmt: QFormat::new(8, 5),
            logit_fmt: QFormat::new(8, 5),
            rounding: Rounding::NearestEven,
            scaling: AttnScaling::InvSqrtDk,
        }
    }

    /// The SV_CE output stage: `probabilities · V` accumulates in
    /// `logit_frac + act_frac` fractional bits and narrows back to the
    /// activation format.
    #[must_use]
    pub fn sv_requantizer(&self) -> Requantizer {
        Requantizer::new(
            self.logit_fmt.frac_bits() + self.act_fmt.frac_bits(),
            self.act_fmt,
            self.rounding,
        )
    }
}

/// A quantized weight matrix with its format.
#[derive(Debug, Clone)]
pub struct QuantMatrix {
    /// Raw int8 weights.
    pub data: Matrix<i8>,
    /// The matrix's format.
    pub fmt: QFormat,
}

impl QuantMatrix {
    /// Calibrate and quantize a float matrix.
    #[must_use]
    pub fn from_float(m: &Matrix<f32>) -> Self {
        let (raw, params) = Quantizer::default().quantize(m.as_slice());
        Self { data: Matrix::from_vec(m.rows(), m.cols(), raw), fmt: params.format() }
    }
}

/// One layer's quantized parameters.
#[derive(Debug, Clone)]
pub struct QuantizedLayer {
    /// Q/K/V projections.
    pub wq: QuantMatrix,
    /// See [`QuantizedLayer::wq`].
    pub wk: QuantMatrix,
    /// See [`QuantizedLayer::wq`].
    pub wv: QuantMatrix,
    /// Biases pre-scaled into the respective accumulator formats.
    pub bq: Vec<i32>,
    /// See [`QuantizedLayer::bq`].
    pub bk: Vec<i32>,
    /// See [`QuantizedLayer::bq`].
    pub bv: Vec<i32>,
    /// Attention output projection (FFN1).
    pub wo: QuantMatrix,
    /// FFN1 bias (accumulator scale).
    pub bo: Vec<i32>,
    /// First FFN transformation (FFN2).
    pub w1: QuantMatrix,
    /// FFN2 bias (accumulator scale).
    pub b1: Vec<i32>,
    /// Second FFN transformation (FFN3).
    pub w2: QuantMatrix,
    /// FFN3 bias (accumulator scale).
    pub b2: Vec<i32>,
    /// Post-attention layer norm.
    pub ln1: LayerNormUnit,
    /// Post-FFN layer norm.
    pub ln2: LayerNormUnit,
}

/// Intermediate tensors of one layer, for debugging and for testing the
/// accelerator stage-by-stage.
#[derive(Debug, Clone)]
pub struct LayerTrace {
    /// Q, K, V after requantization (SL × d).
    pub q: Matrix<i8>,
    /// See [`LayerTrace::q`].
    pub k: Matrix<i8>,
    /// See [`LayerTrace::q`].
    pub v: Matrix<i8>,
    /// Attention probabilities, heads concatenated row-blocks (h·SL × SL).
    pub probs: Matrix<i8>,
    /// Attention-weighted values, concatenated (SL × d).
    pub sv: Matrix<i8>,
    /// After output projection (SL × d).
    pub attn_out: Matrix<i8>,
    /// After first residual + LN (SL × d).
    pub x1: Matrix<i8>,
    /// FFN hidden after activation (SL × d_ffn).
    pub hidden: Matrix<i8>,
    /// Layer output (SL × d).
    pub out: Matrix<i8>,
}

/// The quantized encoder: weights + schedule.
#[derive(Debug, Clone)]
pub struct QuantizedEncoder {
    /// Configuration (shapes + conventions).
    pub config: EncoderConfig,
    /// The schedule all stages follow.
    pub schedule: QuantSchedule,
    /// Per-layer parameters.
    pub layers: Vec<QuantizedLayer>,
    softmax: SoftmaxUnit,
    act_lut: ActivationLut,
}

impl QuantizedEncoder {
    /// Quantize a float weight set under `schedule`.
    #[must_use]
    pub fn from_float(weights: &EncoderWeights, schedule: QuantSchedule) -> Self {
        let cfg = weights.config;
        let layers = weights.layers.iter().map(|l| quantize_layer(l, &schedule)).collect();
        Self {
            config: cfg,
            schedule,
            layers,
            softmax: SoftmaxUnit::new(schedule.logit_fmt),
            act_lut: ActivationLut::new(cfg.activation, schedule.act_fmt),
        }
    }

    /// Quantize an f32 input into the activation format.
    #[must_use]
    pub fn quantize_input(&self, x: &Matrix<f32>) -> Matrix<i8> {
        let fmt = self.schedule.act_fmt;
        x.map(|v| fmt.real_to_raw(f64::from(v)) as i8)
    }

    /// Dequantize an activation matrix back to f32.
    #[must_use]
    pub fn dequantize(&self, x: &Matrix<i8>) -> Matrix<f32> {
        let fmt = self.schedule.act_fmt;
        x.map(|v| fmt.raw_to_real(i64::from(v)) as f32)
    }

    /// Full forward pass on quantized input.
    #[must_use]
    pub fn forward(&self, x: &Matrix<i8>) -> Matrix<i8> {
        let cfg = self.config;
        assert_eq!(x.shape(), (cfg.seq_len, cfg.d_model), "input must be SL × d_model");
        let mut h = x.clone();
        for layer in &self.layers {
            h = self.forward_layer(&h, layer).out;
        }
        h
    }

    /// One layer with full intermediate trace.
    #[must_use]
    pub fn forward_layer(&self, x: &Matrix<i8>, w: &QuantizedLayer) -> LayerTrace {
        let cfg = self.config;
        let s = &self.schedule;

        // --- QKV_CE: projections + bias + requantize -------------------
        let q = project(x, &w.wq, &w.bq, s);
        let k = project(x, &w.wk, &w.bk, s);
        let v = project(x, &w.wv, &w.bv, s);

        // --- per-head attention: QK_CE, softmax, SV_CE ------------------
        let (probs, sv) = attention_heads(&q, &k, &v, &cfg, s, &self.softmax, false);

        // --- FFN1_CE: output projection, residual, LN -------------------
        let attn_out = project(&sv, &w.wo, &w.bo, s);
        let x1 = add_norm(x, &attn_out, &w.ln1);

        // --- FFN2_CE: first transformation + activation -----------------
        let mut hidden = project(&x1, &w.w1, &w.b1, s);
        self.act_lut.apply_slice(hidden.as_mut_slice());

        // --- FFN3_CE: second transformation, residual, LN ---------------
        let ffn_out = project(&hidden, &w.w2, &w.b2, s);
        let out = add_norm(&x1, &ffn_out, &w.ln2);

        LayerTrace { q, k, v, probs, sv, attn_out, x1, hidden, out }
    }
}

/// Linear projection: `requant(x·W + b)`, the golden form of
/// [`fused_projection`].
#[must_use]
pub fn project(x: &Matrix<i8>, w: &QuantMatrix, bias: &[i32], s: &QuantSchedule) -> Matrix<i8> {
    let mut acc = matmul_i8_i32(x, &w.data);
    assert_eq!(acc.cols(), bias.len(), "bias length mismatch");
    for r in 0..acc.rows() {
        for (a, &b) in acc.row_mut(r).iter_mut().zip(bias.iter()) {
            *a = a.saturating_add(b);
        }
    }
    let rq = projection_requantizer(w.fmt, s);
    acc.map(|a| rq.apply(a))
}

/// The requantizer a projection with weights in `weight_fmt` narrows
/// through: the accumulator holds `act_frac + weight_frac` fractional
/// bits and returns to the activation format.
#[must_use]
pub fn projection_requantizer(weight_fmt: QFormat, s: &QuantSchedule) -> Requantizer {
    Requantizer::new(s.act_fmt.frac_bits() + weight_fmt.frac_bits(), s.act_fmt, s.rounding)
}

/// A projection's whole narrowing stage — saturating bias add, then
/// [`projection_requantizer`] — as the strip epilogue every fused
/// projection shares ([`fused_projection`], and [`fused_projection_act`],
/// which adds the activation ROM). One definition, so the projections
/// cannot drift from each other or from [`project`].
#[must_use]
pub fn projection_epilogue<'a>(
    bias: &'a [i32],
    weight_fmt: QFormat,
    s: &QuantSchedule,
) -> RequantEpilogue<'a> {
    RequantEpilogue::new(projection_requantizer(weight_fmt, s).lanes()).with_bias(bias)
}

/// Fused linear projection: `requant(x·W ⊕ bias)` in one GEMM pass,
/// [`projection_epilogue`] narrowing each microkernel strip in the
/// store loop instead of a second sweep over a materialized i32
/// matrix. Byte-identical to [`project`]. Parallel across bands of
/// activation rows inside the GEMM.
#[must_use]
pub fn fused_projection(
    x: &Matrix<i8>,
    w: &PackedWeights,
    bias: &[i32],
    weight_fmt: QFormat,
    s: &QuantSchedule,
) -> Matrix<i8> {
    matmul_i8_packed_requant_parallel(x, w, &projection_epilogue(bias, weight_fmt, s))
}

/// Fused projection + activation: [`fused_projection`] with the
/// activation ROM read in the same store loop — the FFN2 stage
/// (`act(requant(x·W1 ⊕ b1))`) as a single pass.
#[must_use]
pub fn fused_projection_act(
    x: &Matrix<i8>,
    w: &PackedWeights,
    bias: &[i32],
    weight_fmt: QFormat,
    s: &QuantSchedule,
    act: &ActivationLut,
) -> Matrix<i8> {
    let epi = projection_epilogue(bias, weight_fmt, s).with_activation(act);
    matmul_i8_packed_requant_parallel(x, w, &epi)
}

/// Every head of one attention block on the golden path. Per head:
/// `S = Q·Kᵀ` in i32, [`requant_logits`], the LUT softmax of each row,
/// and `P·V` narrowed by the SV requantizer. `q` holds the query rows,
/// `k` and `v` the key and value rows, all `d_model` wide with head `h`
/// in columns `h·d_k..(h+1)·d_k`. With `causal`, query row `r` attends
/// to key rows `0..=r` only and the masked probabilities are zero; that
/// needs `q` and `k` to hold the same positions.
///
/// Returns the probabilities, heads stacked as row blocks
/// (`heads·q.rows() × k.rows()`), and the heads' outputs side by side
/// (`q.rows() × d_model`).
#[must_use]
pub fn attention_heads(
    q: &Matrix<i8>,
    k: &Matrix<i8>,
    v: &Matrix<i8>,
    cfg: &EncoderConfig,
    s: &QuantSchedule,
    softmax: &SoftmaxUnit,
    causal: bool,
) -> (Matrix<i8>, Matrix<i8>) {
    let dk = cfg.d_k();
    let (rows, kv_rows) = (q.rows(), k.rows());
    let rq = s.sv_requantizer();
    let mut probs = Matrix::<i8>::zeros(cfg.heads * rows, kv_rows);
    let mut sv = Matrix::<i8>::zeros(rows, cfg.d_model);
    for head in 0..cfg.heads {
        let c0 = head * dk;
        let qi = q.submatrix(0, c0, rows, dk);
        let ki = k.submatrix(0, c0, kv_rows, dk);
        let vi = v.submatrix(0, c0, kv_rows, dk);
        // QK_CE: S = Q Kᵀ, scale, requantize to the logit format.
        let logits = requant_logits(&matmul_i8_i32(&qi, &transpose(&ki)), cfg, s);
        // Softmax (LUT) over each row's visible prefix.
        let mut p = Matrix::<i8>::zeros(rows, kv_rows);
        for r in 0..rows {
            let valid = if causal { r + 1 } else { kv_rows };
            softmax.forward_row_masked(logits.row(r), valid, p.row_mut(r));
        }
        // SV_CE.
        sv.write_submatrix(0, c0, &matmul_i8_i32(&p, &vi).map(|a| rq.apply(a)));
        probs.write_submatrix(head * rows, 0, &p);
    }
    (probs, sv)
}

/// Head `head` of [`attention_heads`] (unmasked) on the host datapath:
/// both GEMMs run on the packed kernels with their narrowing stages
/// ([`LogitRequant`], the SV requantizer) fused into the store loop,
/// and the softmax on the [`kernels::softmax_rows`] row kernel. Returns
/// the head's `q.rows() × d_k` output, byte for byte the golden one.
#[must_use]
pub fn fused_attention_head(
    q: &Matrix<i8>,
    k: &Matrix<i8>,
    v: &Matrix<i8>,
    head: usize,
    cfg: &EncoderConfig,
    s: &QuantSchedule,
    softmax: &SoftmaxUnit,
) -> Matrix<i8> {
    let dk = cfg.d_k();
    let c0 = head * dk;
    let (rows, kv_rows) = (q.rows(), k.rows());
    // Zero columns add nothing to an integer sum: padding Q and K to a
    // whole tile row puts Q·Kᵀ on the AMX tiles with the same logits.
    let depth = kernels::tile_depth(rows, dk, kv_rows);
    let qi = q.submatrix_padded(0, c0, rows, dk, depth);
    let ki = k.submatrix_padded(0, c0, kv_rows, dk, depth);
    let vi = v.submatrix(0, c0, kv_rows, dk);
    // Packing `kiᵀ` column-major is `ki`'s row-major bytes — a straight
    // copy, so Q·Kᵀ runs on the packed kernel at negligible packing cost.
    let logit_epi = RequantEpilogue::new(LogitRequant::new(cfg, s).lanes());
    let logits = matmul_i8_packed_requant(&qi, &PackedWeights::from_transpose(&ki), &logit_epi);
    let mut probs = Matrix::<i8>::zeros(rows, kv_rows);
    // No keys (an empty encoder memory) leave nothing to normalize.
    if kv_rows > 0 {
        kernels::softmax_rows(softmax, logits.as_slice(), kv_rows, probs.as_mut_slice());
    }
    let sv_epi = RequantEpilogue::new(s.sv_requantizer().lanes());
    matmul_i8_packed_requant(&probs, &PackedWeights::pack(&vi), &sv_epi)
}

/// The attention-logit scaling stage (Algorithm 2 line 9) as a
/// standalone per-element operator: exact integer division by the scale
/// denominator at the accumulator precision, then requantization to the
/// logit format. Extracted so the matrix pass ([`requant_logits`]) and
/// the accelerator's fused GEMM epilogue apply the *same* scalar —
/// one definition, no way to diverge.
#[derive(Debug, Clone, Copy)]
pub struct LogitRequant {
    denom: i64,
    /// `2·act_frac − logit_frac`: right shift when ≥ 0, left otherwise.
    sh: i32,
    rounding: Rounding,
}

impl LogitRequant {
    /// Derive the stage from the deployment's config and schedule.
    #[must_use]
    pub fn new(cfg: &EncoderConfig, s: &QuantSchedule) -> Self {
        let denom: i64 = match s.scaling {
            AttnScaling::InvDmodel => cfg.d_model as i64,
            AttnScaling::InvSqrtDk => {
                protea_fixed::layernorm::isqrt_u64(cfg.d_k() as u64).max(1) as i64
            }
        };
        let sh = i32::from(2 * s.act_fmt.frac_bits()) - i32::from(s.logit_fmt.frac_bits());
        Self { denom, sh, rounding: s.rounding }
    }

    /// Scale and narrow one i32 logit accumulator.
    #[must_use]
    pub fn apply(&self, a: i32) -> i8 {
        // exact division, C-style truncation toward zero (what an HLS
        // integer divide produces)
        let scaled = i64::from(a) / self.denom;
        let v = if self.sh >= 0 {
            self.rounding.shift_right(scaled, self.sh as u32)
        } else {
            scaled << (-self.sh).min(62)
        };
        v.clamp(-128, 127) as i8
    }

    /// The same stage resolved for the fused GEMM epilogue: the divide
    /// becomes a reciprocal multiply and the shift branch-free lane
    /// arithmetic, bit-identical to [`apply`](Self::apply) for every
    /// i32 accumulator.
    ///
    /// # Panics
    /// Panics if the denominator exceeds `2^31`.
    #[must_use]
    pub fn lanes(&self) -> LaneRequant {
        let denom = u32::try_from(self.denom).expect("logit denominator fits u32");
        LaneRequant::new(self.rounding, 0, self.sh).with_divisor(denom)
    }
}

/// Attention logit scaling + narrowing over a full accumulator matrix:
/// [`LogitRequant`] applied elementwise.
#[must_use]
pub fn requant_logits(acc: &Matrix<i32>, cfg: &EncoderConfig, s: &QuantSchedule) -> Matrix<i8> {
    let lr = LogitRequant::new(cfg, s);
    acc.map(|a| lr.apply(a))
}

/// Residual add (saturating, shared format) then layer norm, one row at a
/// time: each output row is first the row's sum, then normalized in
/// place, so no intermediate sum matrix exists. Rows are independent and
/// split across worker threads. Shared with the accelerator path and the
/// decoders.
#[must_use]
pub fn add_norm(x: &Matrix<i8>, sub: &Matrix<i8>, ln: &LayerNormUnit) -> Matrix<i8> {
    assert_eq!(x.shape(), sub.shape(), "residual shapes must match");
    let cols = x.cols();
    let mut out = Matrix::<i8>::zeros(x.rows(), cols);
    out.as_mut_slice().par_chunks_exact_mut(cols).enumerate().for_each(|(r, row)| {
        for ((o, &a), &b) in row.iter_mut().zip(x.row(r)).zip(sub.row(r)) {
            *o = a.saturating_add(b);
        }
        ln.forward_row(row);
    });
    out
}

fn quantize_layer(l: &LayerWeights, s: &QuantSchedule) -> QuantizedLayer {
    let wq = QuantMatrix::from_float(&l.wq);
    let wk = QuantMatrix::from_float(&l.wk);
    let wv = QuantMatrix::from_float(&l.wv);
    let wo = QuantMatrix::from_float(&l.wo);
    let w1 = QuantMatrix::from_float(&l.w1);
    let w2 = QuantMatrix::from_float(&l.w2);
    let bias32 = |b: &[f32], wfmt: QFormat| -> Vec<i32> {
        let frac = u32::from(s.act_fmt.frac_bits()) + u32::from(wfmt.frac_bits());
        let scale = 2f64.powi(frac as i32);
        b.iter()
            .map(|&x| {
                let v = (f64::from(x) * scale).round();
                v.clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i32
            })
            .collect()
    };
    let gamma_fmt = QFormat::new(8, 5);
    let beta_fmt = QFormat::new(8, 5);
    let qv = |v: &[f32], fmt: QFormat| -> Vec<i8> {
        v.iter().map(|&x| fmt.real_to_raw(f64::from(x)) as i8).collect()
    };
    QuantizedLayer {
        bq: bias32(&l.bq, wq.fmt),
        bk: bias32(&l.bk, wk.fmt),
        bv: bias32(&l.bv, wv.fmt),
        bo: bias32(&l.bo, wo.fmt),
        b1: bias32(&l.b1, w1.fmt),
        b2: bias32(&l.b2, w2.fmt),
        ln1: LayerNormUnit::new(
            qv(&l.ln1_gamma, gamma_fmt),
            qv(&l.ln1_beta, beta_fmt),
            gamma_fmt,
            beta_fmt,
            s.act_fmt,
        ),
        ln2: LayerNormUnit::new(
            qv(&l.ln2_gamma, gamma_fmt),
            qv(&l.ln2_beta, beta_fmt),
            gamma_fmt,
            beta_fmt,
            s.act_fmt,
        ),
        wq,
        wk,
        wv,
        wo,
        w1,
        w2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::FloatEncoder;
    use crate::weights::EncoderWeights;

    fn setup(cfg: EncoderConfig) -> (FloatEncoder, QuantizedEncoder, Matrix<f32>) {
        let w = EncoderWeights::random(cfg, 99);
        let q = QuantizedEncoder::from_float(&w, QuantSchedule::paper());
        let f = FloatEncoder::new(w);
        let x = Matrix::from_fn(cfg.seq_len, cfg.d_model, |r, c| {
            (((r * 31 + c * 17) % 41) as f32 / 41.0 - 0.5) * 2.0
        });
        (f, q, x)
    }

    #[test]
    fn forward_shape_and_determinism() {
        let cfg = EncoderConfig::new(32, 4, 2, 8);
        let (_, q, x) = setup(cfg);
        let xi = q.quantize_input(&x);
        let a = q.forward(&xi);
        let b = q.forward(&xi);
        assert_eq!(a.shape(), (8, 32));
        assert_eq!(a.as_slice(), b.as_slice(), "quantized forward must be deterministic");
    }

    #[test]
    fn tracks_float_reference_loosely() {
        // 8-bit, deep stack: expect correlation, not equality. LN keeps
        // activations in range, so the MSE should be well under the
        // signal variance (~1 after LN).
        let cfg = EncoderConfig::new(32, 4, 2, 8);
        let (f, q, x) = setup(cfg);
        let yq = q.dequantize(&q.forward(&q.quantize_input(&x)));
        let yf = f.forward(&x);
        let err = protea_tensor::ops::mse(&yf, &yq);
        assert!(err < 0.5, "mse = {err}");
    }

    #[test]
    fn probs_rows_are_distributions() {
        let cfg = EncoderConfig::new(32, 4, 1, 8);
        let (_, q, x) = setup(cfg);
        let tr = q.forward_layer(&q.quantize_input(&x), &q.layers[0]);
        assert_eq!(tr.probs.shape(), (4 * 8, 8));
        for r in 0..tr.probs.rows() {
            let sum: i32 = tr.probs.row(r).iter().map(|&p| i32::from(p)).sum();
            assert!((sum - 128).unsigned_abs() <= 8, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn trace_shapes() {
        let cfg = EncoderConfig::new(16, 2, 1, 4);
        let (_, q, x) = setup(cfg);
        let tr = q.forward_layer(&q.quantize_input(&x), &q.layers[0]);
        assert_eq!(tr.q.shape(), (4, 16));
        assert_eq!(tr.sv.shape(), (4, 16));
        assert_eq!(tr.hidden.shape(), (4, 64));
        assert_eq!(tr.out.shape(), (4, 16));
    }

    #[test]
    fn standard_scaling_gives_sharper_attention() {
        let cfg = EncoderConfig::new(64, 4, 1, 8);
        let w = EncoderWeights::random(cfg, 5);
        let qp = QuantizedEncoder::from_float(&w, QuantSchedule::paper());
        let qs = QuantizedEncoder::from_float(&w, QuantSchedule::standard_scaling());
        let x = Matrix::from_fn(8, 64, |r, c| ((r * 7 + c) % 13) as f32 / 6.0 - 1.0);
        let tp = qp.forward_layer(&qp.quantize_input(&x), &qp.layers[0]);
        let ts = qs.forward_layer(&qs.quantize_input(&x), &qs.layers[0]);
        let peak = |m: &Matrix<i8>| -> i32 {
            (0..m.rows()).map(|r| m.row(r).iter().map(|&p| i32::from(p)).max().unwrap()).sum()
        };
        // 1/d_model scaling crushes logits → flatter attention.
        assert!(peak(&ts.probs) >= peak(&tp.probs));
    }

    #[test]
    fn project_is_exact_integer_math() {
        // Hand-check one projection element.
        let s = QuantSchedule::paper();
        let x = Matrix::from_vec(1, 2, vec![32i8, -16]); // 1.0, -0.5 in Q2.5
        let w = QuantMatrix {
            data: Matrix::from_vec(2, 1, vec![64i8, 64]), // 1.0, 1.0 in Q1.6
            fmt: QFormat::new(8, 6),
        };
        let bias = vec![0i32];
        let y = project(&x, &w, &bias, &s);
        // acc = 32·64 + (−16)·64 = 1024 at frac 11 → 0.5 → Q2.5 raw 16.
        assert_eq!(y[(0, 0)], 16);
    }

    #[test]
    fn saturating_residual_path() {
        // Residual adds saturate instead of wrapping.
        let cfg = EncoderConfig::new(16, 2, 1, 2);
        let (_, q, _) = setup(cfg);
        let big = Matrix::from_vec(2, 16, vec![120i8; 32]);
        let out = add_norm(&big, &big, &q.layers[0].ln1);
        // all-equal rows normalize to β: finite, no panic, deterministic
        assert_eq!(out.shape(), (2, 16));
    }
}
