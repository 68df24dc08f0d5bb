//! Sparse-aware timing — what sparsity support would *actually* buy.
//!
//! Table II reasons about sparsity with `latency · (1 − s)`, which
//! implicitly assumes perfectly exploitable fine-grained sparsity. Real
//! hardware exploits sparsity at some granularity, and the achievable
//! speedup depends on *where the zeros are*:
//!
//! * **Tile skipping** — the cheapest retrofit of ProTEA's architecture:
//!   an all-zero weight tile's engine access is skipped entirely (one
//!   comparator on the DMA descriptor). Only block-structured pruning
//!   produces all-zero tiles; unstructured sparsity yields almost none.
//! * **Balanced-row reduction** — the \[21\]-style design point: with
//!   column-balanced pruning every PE keeps the same nonzero count, so
//!   the pipelined trip shrinks by the sparsity factor (requires index
//!   decoding hardware ProTEA does not have; modeled as the upper bound
//!   of a redesign).
//!
//! This module measures a loaded model's *actual* tile occupancy and
//! prices all three models (paper arithmetic / tile-skip / balanced),
//! so the ablation can show the gap between them.

use crate::accelerator::Accelerator;
use crate::engines::ffn::{FfnEngine, FfnStage};
use crate::registers::RuntimeConfig;
use crate::synthesis::SynthesisConfig;
use protea_hwsim::Cycles;
use protea_model::quantized::QuantMatrix;
use protea_tensor::TileGrid;

/// Sparsity exploitation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseMode {
    /// Skip engine accesses whose weight tile is entirely zero.
    TileSkip,
    /// Shrink every access's pipelined trip by the tile's nonzero
    /// fraction (balanced-sparsity redesign, upper bound).
    BalancedRows,
}

/// Per-stage result of the sparse timing analysis.
#[derive(Debug, Clone)]
pub struct SparsePhase {
    /// FFN stage.
    pub stage: FfnStage,
    /// Dense cycles (per layer, compute only).
    pub dense_cycles: u64,
    /// Cycles under the chosen sparse mode.
    pub sparse_cycles: u64,
    /// Fraction of weight tiles that are entirely zero.
    pub zero_tile_fraction: f64,
    /// Mean nonzero fraction across tiles.
    pub mean_occupancy: f64,
}

/// Measure tile occupancy of a weight matrix under the runtime tiling.
#[must_use]
pub fn tile_occupancy(w: &QuantMatrix, tile: usize) -> Vec<f64> {
    let grid = TileGrid::new(w.data.rows(), w.data.cols(), tile.max(1), tile.max(1));
    grid.iter()
        .map(|t| {
            let mut nz = 0usize;
            for r in t.r0..t.r0 + t.h {
                for c in t.c0..t.c0 + t.w {
                    if w.data[(r, c)] != 0 {
                        nz += 1;
                    }
                }
            }
            nz as f64 / t.area().max(1) as f64
        })
        .collect()
}

fn stage_weight(layer: &protea_model::quantized::QuantizedLayer, stage: FfnStage) -> &QuantMatrix {
    match stage {
        FfnStage::Ffn1 => &layer.wo,
        FfnStage::Ffn2 => &layer.w1,
        FfnStage::Ffn3 => &layer.w2,
    }
}

impl Accelerator {
    /// Sparse timing analysis of the loaded model's FFN stages (the
    /// engines that carry ~85 % of the cycles and all of the weight
    /// volume). Returns per-stage dense vs sparse cycles for the first
    /// layer (layers share structure under uniform pruning).
    ///
    /// # Panics
    /// Panics if weights are not loaded.
    #[must_use]
    pub fn sparse_analysis(&self, mode: SparseMode) -> Vec<SparsePhase> {
        let weights = self.weights().expect("load_weights before sparse_analysis");
        let syn = &self.design().config;
        let rt = self.runtime();
        let layer = &weights.layers[0];
        [FfnStage::Ffn1, FfnStage::Ffn2, FfnStage::Ffn3]
            .into_iter()
            .map(|stage| self.analyze_stage(stage, stage_weight(layer, stage), rt, syn, mode))
            .collect()
    }

    fn analyze_stage(
        &self,
        stage: FfnStage,
        w: &QuantMatrix,
        rt: &RuntimeConfig,
        syn: &SynthesisConfig,
        mode: SparseMode,
    ) -> SparsePhase {
        let tile = rt.ffn_tile_width(syn).max(1);
        let occupancy = tile_occupancy(w, tile);
        let trip = FfnEngine::access_trip(stage, rt, syn) as u64;
        let sl = rt.seq_len as u64;
        let per_access = syn.timing.ffn_access_cycles(sl, trip);
        // The plan's access count is frozen at synthesis; occupancy is
        // measured per geometric tile (the same count up to padding).
        let accesses = FfnEngine::access_count(stage, syn).min(occupancy.len().max(1));
        let dense = per_access * accesses as u64;
        let sparse = match mode {
            SparseMode::TileSkip => occupancy
                .iter()
                .take(accesses)
                .map(|&occ| if occ == 0.0 { 0 } else { per_access })
                .sum(),
            SparseMode::BalancedRows => occupancy
                .iter()
                .take(accesses)
                .map(|&occ| {
                    let eff_trip = ((trip as f64 * occ).ceil() as u64).max(1);
                    syn.timing.ffn_access_cycles(sl, eff_trip)
                })
                .sum(),
        };
        let zero_tiles = occupancy.iter().take(accesses).filter(|&&o| o == 0.0).count() as f64;
        SparsePhase {
            stage,
            dense_cycles: dense,
            sparse_cycles: sparse,
            zero_tile_fraction: zero_tiles / accesses.max(1) as f64,
            mean_occupancy: occupancy.iter().take(accesses).sum::<f64>() / accesses.max(1) as f64,
        }
    }

    /// Whole-model sparse-vs-dense FFN cycle totals for `mode`:
    /// `(dense, sparse)` per inference.
    #[must_use]
    pub fn sparse_speedup(&self, mode: SparseMode) -> (Cycles, Cycles) {
        let layers = self.runtime().layers as u64;
        let phases = self.sparse_analysis(mode);
        let dense: u64 = phases.iter().map(|p| p.dense_cycles).sum();
        let sparse: u64 = phases.iter().map(|p| p.sparse_cycles).sum();
        (Cycles(dense * layers), Cycles(sparse * layers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protea_model::pruning::PruningScheme;
    use protea_model::{EncoderConfig, EncoderWeights, QuantSchedule, QuantizedEncoder};
    use protea_platform::FpgaDevice;

    fn accel_with(scheme: Option<(PruningScheme, f64)>) -> Accelerator {
        let cfg = EncoderConfig::new(768, 8, 1, 16);
        let mut w = EncoderWeights::random(cfg, 13);
        if let Some((s, frac)) = scheme {
            w.prune(s, frac);
        }
        let q = QuantizedEncoder::from_float(&w, QuantSchedule::paper());
        let syn = SynthesisConfig::paper_default();
        let mut acc = Accelerator::try_new(syn, &FpgaDevice::alveo_u55c())
            .expect("design must fit the device");
        acc.program(RuntimeConfig::from_model(&cfg, &syn).unwrap()).unwrap();
        acc.try_load_weights(q).expect("weights must match the programmed registers");
        acc
    }

    #[test]
    fn dense_model_gets_no_sparse_benefit() {
        let acc = accel_with(None);
        let (dense, sparse) = acc.sparse_speedup(SparseMode::TileSkip);
        assert_eq!(dense, sparse, "no zero tiles in a dense model");
    }

    #[test]
    fn unstructured_pruning_barely_helps_tile_skip() {
        // 90 % magnitude pruning leaves almost no all-zero 128×128 tiles.
        let acc = accel_with(Some((PruningScheme::Magnitude, 0.9)));
        let (dense, sparse) = acc.sparse_speedup(SparseMode::TileSkip);
        let saving = 1.0 - sparse.get() as f64 / dense.get() as f64;
        assert!(saving < 0.1, "tile-skip saving on unstructured = {saving:.3}");
    }

    #[test]
    fn block_pruning_enables_tile_skip() {
        // Block pruning at the engine's own tile size zeroes whole tiles.
        let acc = accel_with(Some((PruningScheme::Blocks(128), 0.75)));
        let (dense, sparse) = acc.sparse_speedup(SparseMode::TileSkip);
        let saving = 1.0 - sparse.get() as f64 / dense.get() as f64;
        assert!(saving > 0.5, "tile-skip saving on block-pruned = {saving:.3}");
    }

    #[test]
    fn balanced_mode_approaches_paper_arithmetic() {
        // Column-balanced 90 % sparsity: the balanced-row model should
        // recover most of the paper's (1 − s) factor, minus pipeline
        // fill overheads.
        let acc = accel_with(Some((PruningScheme::ColumnBalanced, 0.9)));
        let (dense, sparse) = acc.sparse_speedup(SparseMode::BalancedRows);
        let ratio = sparse.get() as f64 / dense.get() as f64;
        assert!(
            (0.1..0.35).contains(&ratio),
            "balanced sparse/dense = {ratio:.3} (paper arithmetic: 0.10)"
        );
    }

    #[test]
    fn analysis_reports_occupancy() {
        let acc = accel_with(Some((PruningScheme::Magnitude, 0.5)));
        for p in acc.sparse_analysis(SparseMode::TileSkip) {
            assert!((0.45..0.55).contains(&p.mean_occupancy), "{:?}", p.stage);
            assert!(p.zero_tile_fraction < 0.01);
        }
    }
}
