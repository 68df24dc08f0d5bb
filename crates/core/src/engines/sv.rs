//! `SV_CE` — attention score `S·V` (Algorithm 3).
//!
//! The reduction runs over the sequence dimension with an unroll width
//! fixed at synthesis (`sl_unroll`); runtime sequences longer than that
//! inflate the initiation interval (Table I test #8's superlinear SV
//! share).

use crate::engines::Access;
use crate::registers::RuntimeConfig;
use crate::synthesis::SynthesisConfig;
use protea_model::QuantSchedule;
use protea_tensor::{matmul_i8_i32, Matrix};

/// The S·V engine bank.
#[derive(Debug, Clone, Copy)]
pub struct SvEngine;

impl SvEngine {
    /// Access plan: one untiled access, operands on chip.
    #[must_use]
    pub fn plan(rt: &RuntimeConfig, syn: &SynthesisConfig) -> Vec<Access> {
        let compute = syn.timing.sv_cycles(rt.seq_len as u64, rt.dk() as u64, syn.sl_unroll as u64);
        vec![Access { load_bytes: 0, compute_cycles: compute }]
    }

    /// Functional compute for one head: probabilities × values,
    /// requantized to the activation format (identical stage to the
    /// golden model).
    #[must_use]
    pub fn compute_head(probs: &Matrix<i8>, vi: &Matrix<i8>, s: &QuantSchedule) -> Matrix<i8> {
        let acc = matmul_i8_i32(probs, vi);
        let rq = s.sv_requantizer();
        acc.map(|a| rq.apply(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protea_fixed::QFormat;

    #[test]
    fn uniform_attention_averages_values() {
        let s = QuantSchedule::paper();
        // 4 positions, uniform probs (32/128 = 0.25 each in Q0.7)
        let probs = Matrix::from_vec(1, 4, vec![32i8; 4]);
        let v = Matrix::from_vec(4, 2, vec![32i8, 0, 32, 0, 32, 0, 32, 0]); // 1.0 / 0.0
        let out = SvEngine::compute_head(&probs, &v, &s);
        // mean of four 1.0 values = 1.0 → raw 32 in Q2.5
        assert_eq!(out[(0, 0)], 32);
        assert_eq!(out[(0, 1)], 0);
        let _ = QFormat::q8_prob();
    }

    #[test]
    fn plan_ii_inflates_beyond_unroll() {
        let syn = SynthesisConfig::paper_default();
        let mk = |sl| {
            SvEngine::plan(&RuntimeConfig { heads: 8, layers: 1, d_model: 768, seq_len: sl }, &syn)
                [0]
            .compute_cycles
        };
        // 64 → within unroll (II=1); 128 → II=2 and rows double: ≈ 4×.
        let a = mk(64);
        let b = mk(128);
        assert!(b > 3 * a, "a={a} b={b}");
    }

    #[test]
    fn no_bandwidth_needed() {
        let syn = SynthesisConfig::paper_default();
        let rt = RuntimeConfig { heads: 8, layers: 1, d_model: 768, seq_len: 64 };
        assert_eq!(SvEngine::plan(&rt, &syn)[0].load_bytes, 0);
    }
}
