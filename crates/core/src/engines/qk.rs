//! `QK_CE` — attention-weight computation `S = Q·Kᵀ / d` (Algorithm 2).
//!
//! "Since these matrices are relatively small, they are not tiled." The
//! engine's unrolled reduction is synthesized `d_max/h_syn` wide, so at
//! runtime with fewer active heads (larger `d_k`) the initiation interval
//! inflates — the effect visible as Table I tests #2/#3.

use crate::engines::Access;
use crate::registers::RuntimeConfig;
use crate::synthesis::SynthesisConfig;

/// The Q·Kᵀ engine bank.
#[derive(Debug, Clone, Copy)]
pub struct QkEngine;

impl QkEngine {
    /// Access plan: one untiled access per layer (all heads parallel),
    /// no weight streaming (operands live on chip).
    #[must_use]
    pub fn plan(rt: &RuntimeConfig, syn: &SynthesisConfig) -> Vec<Access> {
        let compute = syn.timing.qk_cycles(rt.seq_len as u64, rt.dk() as u64, syn.dk_max() as u64);
        vec![Access { load_bytes: 0, compute_cycles: compute }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_costs_no_bandwidth() {
        let syn = SynthesisConfig::paper_default();
        let rt = RuntimeConfig { heads: 8, layers: 1, d_model: 768, seq_len: 64 };
        let p = QkEngine::plan(&rt, &syn);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].load_bytes, 0);
    }

    #[test]
    fn fewer_heads_cost_more_cycles() {
        let syn = SynthesisConfig::paper_default();
        let mk = |h| {
            QkEngine::plan(&RuntimeConfig { heads: h, layers: 1, d_model: 768, seq_len: 64 }, &syn)
                [0]
            .compute_cycles
        };
        assert!(mk(2) > mk(4));
        assert!(mk(4) > mk(8));
    }
}
