//! The add & layer-norm modules following `FFN1_CE` and `FFN3_CE`.

use crate::engines::Access;
use crate::registers::RuntimeConfig;
use crate::synthesis::SynthesisConfig;
use protea_fixed::layernorm::LayerNormUnit;
use protea_model::quantized::add_norm;
use protea_model::QuantSchedule;
use protea_tensor::Matrix;

/// The residual + layer-norm engine.
#[derive(Debug, Clone, Copy)]
pub struct LnEngine;

impl LnEngine {
    /// Access plan: one compute-only access.
    #[must_use]
    pub fn plan(rt: &RuntimeConfig, syn: &SynthesisConfig) -> Vec<Access> {
        vec![Access {
            load_bytes: 0,
            compute_cycles: syn.timing.ln_cycles(rt.seq_len as u64, rt.d_model as u64),
        }]
    }

    /// Functional compute: `LN(x + sub)` — delegates to the golden
    /// model's shared stage so divergence is impossible. The schedule is
    /// not read: layer norm is scale-free, and the residual operands
    /// already share the activation format.
    #[must_use]
    pub fn compute(
        x: &Matrix<i8>,
        sub: &Matrix<i8>,
        unit: &LayerNormUnit,
        _s: &QuantSchedule,
    ) -> Matrix<i8> {
        add_norm(x, sub, unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_scales_with_rows_and_d() {
        let syn = SynthesisConfig::paper_default();
        let mk = |d, sl| {
            LnEngine::plan(&RuntimeConfig { heads: 8, layers: 1, d_model: d, seq_len: sl }, &syn)[0]
                .compute_cycles
        };
        assert!(mk(768, 64) > mk(512, 64));
        assert!(mk(768, 128) > mk(768, 64));
    }

    #[test]
    fn compute_normalizes() {
        let s = QuantSchedule::paper();
        let unit = LayerNormUnit::identity(16, s.act_fmt);
        let x = Matrix::from_fn(2, 16, |_, c| (c as i8) * 4 - 30);
        let zero = Matrix::<i8>::zeros(2, 16);
        let out = LnEngine::compute(&x, &zero, &unit, &s);
        // normalized rows: mean near zero
        for r in 0..2 {
            let mean: f64 = out.row(r).iter().map(|&v| f64::from(v)).sum::<f64>() / 16.0;
            assert!(mean.abs() < 4.0);
        }
    }
}
