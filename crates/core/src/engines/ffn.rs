//! `FFN1_CE`, `FFN2_CE`, `FFN3_CE` — the linear-transformation engines
//! (Algorithm 4, Figs. 4 and 6).
//!
//! All three share the tiled-linear pattern; they differ in matrix shape
//! and access structure:
//!
//! | engine | weight        | accesses (T = FFN tile count) | unroll |
//! |--------|---------------|-------------------------------|--------|
//! | FFN1   | `d × d` (attention output projection) | `T²`  | `TS`   |
//! | FFN2   | `d × 4d` (first transformation + act) | `4T²` | `TS`   |
//! | FFN3   | `4d × d` (second transformation)      | `4T²` | `4·TS` |
//!
//! Weights are tiled along **both** dimensions (Fig. 6); "results are
//! first accumulated along the columns, followed by accumulation along
//! the rows". Integer sums do not depend on that order, so the tiles
//! set the access plan here and not the output bytes, which the host
//! datapath computes in one packed GEMM per projection.

use crate::engines::Access;
use crate::registers::RuntimeConfig;
use crate::synthesis::SynthesisConfig;

/// Which of the three FFN engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FfnStage {
    /// Attention output projection (`d × d`), followed by add&norm.
    Ffn1,
    /// First FFN transformation (`d × 4d`), followed by the activation.
    Ffn2,
    /// Second FFN transformation (`4d × d`), followed by add&norm.
    Ffn3,
}

/// The FFN engine family.
#[derive(Debug, Clone, Copy)]
pub struct FfnEngine;

impl FfnEngine {
    /// Weight shape of `stage` at runtime `d`.
    #[must_use]
    pub fn weight_shape(stage: FfnStage, d: usize, ffn_mult: usize) -> (usize, usize) {
        match stage {
            FfnStage::Ffn1 => (d, d),
            FfnStage::Ffn2 => (d, ffn_mult * d),
            FfnStage::Ffn3 => (ffn_mult * d, d),
        }
    }

    /// Access count of `stage` (frozen at synthesis: `T²` or `4T²`).
    #[must_use]
    pub fn access_count(stage: FfnStage, syn: &SynthesisConfig) -> usize {
        let t = syn.tiles_ffn();
        match stage {
            FfnStage::Ffn1 => t * t,
            FfnStage::Ffn2 | FfnStage::Ffn3 => 4 * t * t,
        }
    }

    /// The pipelined trip per access: the runtime tile width for
    /// FFN1/FFN2, a quarter of it for FFN3 (whose unroll is 4× wider).
    #[must_use]
    pub fn access_trip(stage: FfnStage, rt: &RuntimeConfig, syn: &SynthesisConfig) -> usize {
        let w = rt.ffn_tile_width(syn);
        match stage {
            FfnStage::Ffn1 | FfnStage::Ffn2 => w,
            FfnStage::Ffn3 => rt.d_model.div_ceil(4 * syn.tiles_ffn()),
        }
    }

    /// Access plan for one layer's `stage` phase.
    #[must_use]
    pub fn plan(stage: FfnStage, rt: &RuntimeConfig, syn: &SynthesisConfig) -> Vec<Access> {
        let accesses = Self::access_count(stage, syn) as u64;
        let (rows, cols) = Self::weight_shape(stage, rt.d_model, 4);
        let elem = u64::from(syn.data_bits / 8).max(1);
        let total_bytes = (rows * cols) as u64 * elem;
        let load = total_bytes.div_ceil(accesses);
        let compute = syn
            .timing
            .ffn_access_cycles(rt.seq_len as u64, Self::access_trip(stage, rt, syn) as u64);
        (0..accesses).map(|_| Access { load_bytes: load, compute_cycles: compute }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_counts_match_paper() {
        let syn = SynthesisConfig::paper_default(); // T = 6
        assert_eq!(FfnEngine::access_count(FfnStage::Ffn1, &syn), 36);
        assert_eq!(FfnEngine::access_count(FfnStage::Ffn2, &syn), 144);
        assert_eq!(FfnEngine::access_count(FfnStage::Ffn3, &syn), 144);
    }

    #[test]
    fn access_counts_frozen_across_runtime_d() {
        let syn = SynthesisConfig::paper_default();
        for d in [768usize, 512, 256] {
            let rt = RuntimeConfig { heads: 8, layers: 1, d_model: d, seq_len: 64 };
            assert_eq!(FfnEngine::plan(FfnStage::Ffn2, &rt, &syn).len(), 144, "d={d}");
        }
    }

    #[test]
    fn trips_scale_with_runtime_d() {
        let syn = SynthesisConfig::paper_default();
        let rt768 = RuntimeConfig { heads: 8, layers: 1, d_model: 768, seq_len: 64 };
        let rt512 = RuntimeConfig { heads: 8, layers: 1, d_model: 512, seq_len: 64 };
        assert_eq!(FfnEngine::access_trip(FfnStage::Ffn2, &rt768, &syn), 128);
        assert_eq!(FfnEngine::access_trip(FfnStage::Ffn2, &rt512, &syn), 86);
        assert_eq!(FfnEngine::access_trip(FfnStage::Ffn3, &rt768, &syn), 32);
    }

    #[test]
    fn load_bytes_cover_whole_weight() {
        let syn = SynthesisConfig::paper_default();
        let rt = RuntimeConfig { heads: 8, layers: 1, d_model: 768, seq_len: 64 };
        for stage in [FfnStage::Ffn1, FfnStage::Ffn2, FfnStage::Ffn3] {
            let plan = FfnEngine::plan(stage, &rt, &syn);
            let total: u64 = plan.iter().map(|a| a.load_bytes).sum();
            let (r, c) = FfnEngine::weight_shape(stage, 768, 4);
            assert!(total >= (r * c) as u64, "{stage:?} streams the full matrix");
        }
    }
}
