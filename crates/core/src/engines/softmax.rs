//! The softmax unit — LUT exponentials + serial divider (per head).

use crate::engines::Access;
use crate::registers::RuntimeConfig;
use crate::synthesis::SynthesisConfig;
use protea_fixed::SoftmaxUnit;
use protea_model::QuantSchedule;
use protea_tensor::kernels::softmax_rows;
use protea_tensor::Matrix;

/// The softmax functional unit bank.
#[derive(Debug, Clone)]
pub struct SoftmaxEngine {
    unit: SoftmaxUnit,
}

impl SoftmaxEngine {
    /// Build with the ROM for the schedule's logit format.
    #[must_use]
    pub fn new(s: &QuantSchedule) -> Self {
        Self { unit: SoftmaxUnit::new(s.logit_fmt) }
    }

    /// Access plan: one compute-only access per layer.
    #[must_use]
    pub fn plan(rt: &RuntimeConfig, syn: &SynthesisConfig) -> Vec<Access> {
        vec![Access { load_bytes: 0, compute_cycles: syn.timing.softmax_cycles(rt.seq_len as u64) }]
    }

    /// Row-softmax of one head's logit matrix through the
    /// [`softmax_rows`] kernel: the bytes of
    /// [`SoftmaxUnit::forward_matrix`].
    #[must_use]
    pub fn compute_head(&self, logits: &Matrix<i8>) -> Matrix<i8> {
        let mut out = Matrix::<i8>::zeros(logits.rows(), logits.cols());
        softmax_rows(&self.unit, logits.as_slice(), logits.cols(), out.as_mut_slice());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_distributions() {
        let s = QuantSchedule::paper();
        let eng = SoftmaxEngine::new(&s);
        let logits = Matrix::from_fn(6, 6, |r, c| ((r * 17 + c * 5) % 120) as i8 - 60);
        let p = eng.compute_head(&logits);
        for r in 0..6 {
            let sum: i32 = p.row(r).iter().map(|&v| i32::from(v)).sum();
            assert!((sum - 128).unsigned_abs() <= 6, "row {r} sums {sum}");
        }
    }

    #[test]
    fn plan_scales_quadratically_with_sl() {
        let syn = SynthesisConfig::paper_default();
        let mk = |sl| {
            SoftmaxEngine::plan(
                &RuntimeConfig { heads: 8, layers: 1, d_model: 768, seq_len: sl },
                &syn,
            )[0]
            .compute_cycles
        };
        let a = mk(32);
        let b = mk(64);
        let c = mk(128);
        assert!(b > 3 * a && b < 5 * a, "a={a} b={b}");
        assert!(c > 3 * b && c < 5 * b, "b={b} c={c}");
    }
}
