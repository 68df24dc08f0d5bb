//! `SV_CE` — attention score `S·V` (Algorithm 3).
//!
//! The reduction runs over the sequence dimension with an unroll width
//! fixed at synthesis (`sl_unroll`); runtime sequences longer than that
//! inflate the initiation interval (Table I test #8's superlinear SV
//! share).

use crate::engines::Access;
use crate::registers::RuntimeConfig;
use crate::synthesis::SynthesisConfig;

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
}

#[cfg(test)]
mod tests {
    use super::*;

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
