//! `QKV_CE` — query/key/value generation (Algorithm 1, Fig. 3).
//!
//! One engine per head; all heads run in parallel, so the phase cost is a
//! single engine's. The weight matrices are tiled along the *input*
//! dimension only (Fig. 5: "tiling is applied only along the second
//! dimension (columns) … because the first dimension (rows) is already
//! reduced by the number of heads"), with the tile **count** frozen at
//! synthesis and the tile width scaling with the runtime `d_model`.

use crate::engines::Access;
use crate::registers::RuntimeConfig;
use crate::synthesis::SynthesisConfig;

/// The Q/K/V generation engine bank (one engine per active head).
#[derive(Debug, Clone, Copy)]
pub struct QkvEngine;

impl QkvEngine {
    /// Access plan for one layer's QKV phase.
    #[must_use]
    pub fn plan(rt: &RuntimeConfig, syn: &SynthesisConfig) -> Vec<Access> {
        let tiles = syn.tiles_mha() as u64;
        let w = rt.mha_tile_width(syn) as u64;
        let dk = rt.dk() as u64;
        let sl = rt.seq_len as u64;
        let h = rt.heads as u64;
        let elem = u64::from(syn.data_bits / 8).max(1);
        // Per tile, every active head streams its three weight strips
        // (d_k × w each) plus its input strip (SL × w).
        let load = h * (3 * dk * w + sl * w) * elem;
        let compute = syn.timing.qkv_tile_cycles(sl, dk);
        (0..tiles).map(|_| Access { load_bytes: load, compute_cycles: compute }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_has_frozen_tile_count() {
        let syn = SynthesisConfig::paper_default();
        for d in [768usize, 512, 256] {
            let rt = RuntimeConfig { heads: 8, layers: 1, d_model: d, seq_len: 64 };
            let plan = QkvEngine::plan(&rt, &syn);
            assert_eq!(plan.len(), 12, "tile count frozen regardless of d = {d}");
        }
    }

    #[test]
    fn load_bytes_scale_with_runtime_width() {
        let syn = SynthesisConfig::paper_default();
        let big = RuntimeConfig { heads: 8, layers: 1, d_model: 768, seq_len: 64 };
        let small = RuntimeConfig { heads: 8, layers: 1, d_model: 256, seq_len: 64 };
        assert!(
            QkvEngine::plan(&big, &syn)[0].load_bytes > QkvEngine::plan(&small, &syn)[0].load_bytes
        );
    }

    #[test]
    fn compute_cycles_grow_with_fewer_heads() {
        let syn = SynthesisConfig::paper_default();
        let h8 = RuntimeConfig { heads: 8, layers: 1, d_model: 768, seq_len: 64 };
        let h2 = RuntimeConfig { heads: 2, layers: 1, d_model: 768, seq_len: 64 };
        assert!(
            QkvEngine::plan(&h2, &syn)[0].compute_cycles
                > 3 * QkvEngine::plan(&h8, &syn)[0].compute_cycles
        );
    }
}
