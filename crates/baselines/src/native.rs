//! A real, measured CPU baseline: the quantized encoder on this machine.
//!
//! Everything else in the comparison tables is published or simulated;
//! this engine actually executes. It runs the identical int8 datapath as
//! the golden model — rayon-parallel across output rows, which preserves
//! bit-exactness because each output element's integer reduction stays
//! within one thread — so its outputs are byte-identical to
//! `QuantizedEncoder::forward` while its wall-clock is a genuine
//! multi-core CPU measurement for the Criterion benches.

use protea_fixed::activation::ActivationLut;
use protea_fixed::Requantizer;
use protea_model::quantized::{add_norm, requant_logits, QuantMatrix, QuantizedLayer};
use protea_model::{QuantSchedule, QuantizedEncoder};
use protea_tensor::{matmul_i8_i32_parallel, transpose, Matrix};

/// The native engine: borrowed quantized weights + parallel kernels.
pub struct NativeCpuEngine<'a> {
    enc: &'a QuantizedEncoder,
    act: ActivationLut,
}

impl<'a> NativeCpuEngine<'a> {
    /// Wrap a quantized encoder.
    #[must_use]
    pub fn new(enc: &'a QuantizedEncoder) -> Self {
        let act = ActivationLut::new(enc.config.activation, enc.schedule.act_fmt);
        Self { enc, act }
    }

    /// Full forward pass, bit-identical to the golden model.
    #[must_use]
    pub fn forward(&self, x: &Matrix<i8>) -> Matrix<i8> {
        let cfg = self.enc.config;
        assert_eq!(x.shape(), (cfg.seq_len, cfg.d_model));
        let mut h = x.clone();
        for layer in &self.enc.layers {
            h = self.forward_layer(&h, layer);
        }
        h
    }

    fn forward_layer(&self, x: &Matrix<i8>, w: &QuantizedLayer) -> Matrix<i8> {
        let cfg = self.enc.config;
        let s = &self.enc.schedule;
        let sl = cfg.seq_len;
        let dk = cfg.d_k();
        let softmax = protea_fixed::SoftmaxUnit::new(s.logit_fmt);

        let q = par_project(x, &w.wq, &w.bq, s);
        let k = par_project(x, &w.wk, &w.bk, s);
        let v = par_project(x, &w.wv, &w.bv, s);

        let mut sv = Matrix::<i8>::zeros(sl, cfg.d_model);
        for head in 0..cfg.heads {
            let c0 = head * dk;
            let qi = q.submatrix(0, c0, sl, dk);
            let ki = k.submatrix(0, c0, sl, dk);
            let vi = v.submatrix(0, c0, sl, dk);
            let acc = matmul_i8_i32_parallel(&qi, &transpose(&ki));
            let logits = requant_logits(&acc, &cfg, s);
            let mut p = Matrix::<i8>::zeros(sl, sl);
            softmax.forward_matrix(logits.as_slice(), sl, p.as_mut_slice());
            let acc_sv = matmul_i8_i32_parallel(&p, &vi);
            let rq = s.sv_requantizer();
            sv.write_submatrix(0, c0, &acc_sv.map(|a| rq.apply(a)));
        }

        let attn = par_project(&sv, &w.wo, &w.bo, s);
        let x1 = add_norm(x, &attn, &w.ln1);
        let mut hidden = par_project(&x1, &w.w1, &w.b1, s);
        self.act.apply_slice(hidden.as_mut_slice());
        let ffn = par_project(&hidden, &w.w2, &w.b2, s);
        add_norm(&x1, &ffn, &w.ln2)
    }
}

/// Parallel projection with the identical requantization tail to the
/// golden model's `project`.
fn par_project(x: &Matrix<i8>, w: &QuantMatrix, bias: &[i32], s: &QuantSchedule) -> Matrix<i8> {
    let mut acc = matmul_i8_i32_parallel(x, &w.data);
    assert_eq!(acc.cols(), bias.len());
    for r in 0..acc.rows() {
        for (a, &b) in acc.row_mut(r).iter_mut().zip(bias.iter()) {
            *a = a.saturating_add(b);
        }
    }
    let rq = Requantizer::new(s.act_fmt.frac_bits() + w.fmt.frac_bits(), s.act_fmt, s.rounding);
    acc.map(|a| rq.apply(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use protea_model::{EncoderConfig, EncoderWeights};

    #[test]
    fn bit_identical_to_golden_model() {
        let cfg = EncoderConfig::new(64, 4, 2, 16);
        let fw = EncoderWeights::random(cfg, 77);
        let enc = QuantizedEncoder::from_float(&fw, QuantSchedule::paper());
        let x = Matrix::from_fn(16, 64, |r, c| (((r * 13 + c * 7) % 200) as i32 - 100) as i8);
        let xi = enc.quantize_input(&enc.dequantize(&x)); // normalize representable
        let native = NativeCpuEngine::new(&enc).forward(&xi);
        let golden = enc.forward(&xi);
        assert_eq!(native.as_slice(), golden.as_slice());
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = EncoderConfig::new(32, 2, 1, 8);
        let fw = EncoderWeights::random(cfg, 3);
        let enc = QuantizedEncoder::from_float(&fw, QuantSchedule::paper());
        let x = Matrix::from_fn(8, 32, |r, c| ((r * 5 + c) % 100) as i8);
        let e = NativeCpuEngine::new(&enc);
        assert_eq!(e.forward(&x).as_slice(), e.forward(&x).as_slice());
    }
}
