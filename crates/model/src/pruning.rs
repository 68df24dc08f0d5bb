//! Weight pruning — the sparsity axis of the paper's comparisons.
//!
//! ProTEA itself is deliberately **dense** ("a versatile accelerator
//! capable of efficiently managing dense matrix computations"); its
//! Table II comparators exploit sparsity (\[21\]: 90 % column-balanced
//! block pruning, \[25\]: 64 %, \[29\]: 93 % block-circulant compression),
//! and the paper's discussion applies the `latency · (1 − sparsity)`
//! adjustment to reason about what sparse support would buy. This module
//! supplies the pruning schemes so that comparison can be *run*, not
//! just cited:
//!
//! * [`prune_magnitude`] — unstructured global magnitude pruning,
//! * [`prune_column_balanced`] — the \[21\]-style scheme: an equal
//!   fraction pruned within every column block, preserving PE load
//!   balance (the property their accelerator depends on),
//! * [`prune_blocks`] — coarse structured pruning of whole `b × b`
//!   blocks by block norm (a stand-in for block-circulant compression's
//!   structured zero pattern),
//! * [`sparsity_of`] — measurement, and [`EncoderWeights`] helpers to
//!   prune a whole model.

use crate::weights::EncoderWeights;
use protea_tensor::Matrix;

/// Fraction of exactly-zero entries.
#[must_use]
pub fn sparsity_of(m: &Matrix<f32>) -> f64 {
    if m.is_empty() {
        return 0.0;
    }
    let zeros = m.as_slice().iter().filter(|&&x| x == 0.0).count();
    zeros as f64 / m.len() as f64
}

/// Global magnitude pruning: zero the `sparsity` fraction of entries
/// with the smallest |w|. Deterministic (ties broken by index order).
pub fn prune_magnitude(m: &mut Matrix<f32>, sparsity: f64) {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0, 1]");
    let n = m.len();
    let k = (n as f64 * sparsity).round() as usize;
    if k == 0 {
        return;
    }
    if k >= n {
        m.as_mut_slice().fill(0.0);
        return;
    }
    let mut idx: Vec<usize> = (0..n).collect();
    let data = m.as_mut_slice();
    idx.sort_by(|&a, &b| data[a].abs().total_cmp(&data[b].abs()).then(a.cmp(&b)));
    for &i in &idx[..k] {
        data[i] = 0.0;
    }
}

/// Column-balanced pruning (Peng et al. \[21\]): within **each column**,
/// zero the same fraction of smallest-magnitude entries, so every output
/// neuron (and thus every PE column in a weight-stationary design) keeps
/// an identical nonzero count.
pub fn prune_column_balanced(m: &mut Matrix<f32>, sparsity: f64) {
    assert!((0.0..=1.0).contains(&sparsity));
    let rows = m.rows();
    let cols = m.cols();
    if rows == 0 || cols == 0 {
        return;
    }
    let k = (rows as f64 * sparsity).round() as usize;
    for c in 0..cols {
        let mut col: Vec<(f32, usize)> = (0..rows).map(|r| (m[(r, c)].abs(), r)).collect();
        col.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for &(_, r) in col.iter().take(k.min(rows)) {
            m[(r, c)] = 0.0;
        }
    }
}

/// Structured block pruning: partition into `block × block` tiles and
/// zero the `sparsity` fraction with the smallest Frobenius norms.
pub fn prune_blocks(m: &mut Matrix<f32>, sparsity: f64, block: usize) {
    assert!((0.0..=1.0).contains(&sparsity));
    assert!(block > 0, "block size must be nonzero");
    let grid = protea_tensor::TileGrid::new(m.rows(), m.cols(), block, block);
    let mut norms: Vec<(f64, protea_tensor::Tile)> = grid
        .iter()
        .map(|t| {
            let mut sum = 0f64;
            for r in t.r0..t.r0 + t.h {
                for c in t.c0..t.c0 + t.w {
                    sum += f64::from(m[(r, c)]) * f64::from(m[(r, c)]);
                }
            }
            (sum, t)
        })
        .collect();
    let k = (norms.len() as f64 * sparsity).round() as usize;
    norms.sort_by(|a, b| a.0.total_cmp(&b.0).then((a.1.r0, a.1.c0).cmp(&(b.1.r0, b.1.c0))));
    for (_, t) in norms.into_iter().take(k) {
        for r in t.r0..t.r0 + t.h {
            for c in t.c0..t.c0 + t.w {
                m[(r, c)] = 0.0;
            }
        }
    }
}

/// Which pruning scheme to apply model-wide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PruningScheme {
    /// Unstructured magnitude pruning.
    Magnitude,
    /// Column-balanced (\[21\]-style).
    ColumnBalanced,
    /// `block × block` structured pruning.
    Blocks(usize),
}

impl EncoderWeights {
    /// Prune every projection and FFN matrix to the target sparsity
    /// (biases and layer-norm parameters are left dense, as every
    /// comparator does). Returns the measured overall weight sparsity.
    pub fn prune(&mut self, scheme: PruningScheme, sparsity: f64) -> f64 {
        let mut zeroed = 0usize;
        let mut total = 0usize;
        for layer in &mut self.layers {
            for m in [
                &mut layer.wq,
                &mut layer.wk,
                &mut layer.wv,
                &mut layer.wo,
                &mut layer.w1,
                &mut layer.w2,
            ] {
                match scheme {
                    PruningScheme::Magnitude => prune_magnitude(m, sparsity),
                    PruningScheme::ColumnBalanced => prune_column_balanced(m, sparsity),
                    PruningScheme::Blocks(b) => prune_blocks(m, sparsity, b),
                }
                zeroed += m.as_slice().iter().filter(|&&x| x == 0.0).count();
                total += m.len();
            }
        }
        if total == 0 {
            0.0
        } else {
            zeroed as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncoderConfig;

    fn mat() -> Matrix<f32> {
        Matrix::from_fn(16, 12, |r, c| {
            ((r * 12 + c + 1) as f32) * if (r + c) % 2 == 0 { 1.0 } else { -1.0 }
        })
    }

    #[test]
    fn magnitude_hits_exact_fraction() {
        for s in [0.0, 0.25, 0.5, 0.9, 1.0] {
            let mut m = mat();
            prune_magnitude(&mut m, s);
            assert!((sparsity_of(&m) - s).abs() < 0.01, "target {s} got {}", sparsity_of(&m));
        }
    }

    #[test]
    fn magnitude_keeps_largest() {
        let mut m = mat();
        prune_magnitude(&mut m, 0.5);
        // the largest-magnitude entry must survive
        let max_orig = mat().as_slice().iter().fold(0f32, |a, &x| a.max(x.abs()));
        assert!(m.as_slice().iter().any(|&x| x.abs() == max_orig));
        // surviving minimum ≥ pruned maximum in magnitude
        let survive_min =
            m.as_slice().iter().filter(|&&x| x != 0.0).fold(f32::MAX, |a, &x| a.min(x.abs()));
        let orig = mat();
        let pruned_max = orig
            .as_slice()
            .iter()
            .zip(m.as_slice())
            .filter(|(_, &kept)| kept == 0.0)
            .fold(0f32, |a, (&o, _)| a.max(o.abs()));
        assert!(survive_min >= pruned_max);
    }

    #[test]
    fn column_balanced_is_balanced() {
        let mut m = mat();
        prune_column_balanced(&mut m, 0.5);
        for c in 0..m.cols() {
            let nz = (0..m.rows()).filter(|&r| m[(r, c)] != 0.0).count();
            assert_eq!(nz, 8, "column {c} has {nz} nonzeros");
        }
    }

    #[test]
    fn block_pruning_zeroes_whole_blocks() {
        let mut m = mat();
        prune_blocks(&mut m, 0.5, 4);
        let grid = protea_tensor::TileGrid::new(16, 12, 4, 4);
        for t in grid.iter() {
            let zeros = (t.r0..t.r0 + t.h)
                .flat_map(|r| (t.c0..t.c0 + t.w).map(move |c| (r, c)))
                .filter(|&(r, c)| m[(r, c)] == 0.0)
                .count();
            assert!(
                zeros == 0 || zeros == t.area(),
                "block at ({},{}) partially pruned",
                t.r0,
                t.c0
            );
        }
        assert!((sparsity_of(&m) - 0.5).abs() < 0.01);
    }

    #[test]
    fn model_wide_pruning_reports_sparsity() {
        let cfg = EncoderConfig::new(32, 4, 2, 8);
        let mut w = EncoderWeights::random(cfg, 3);
        let measured = w.prune(PruningScheme::ColumnBalanced, 0.9);
        assert!((measured - 0.9).abs() < 0.02, "measured {measured}");
        // biases remain dense
        assert!(w.layers[0].bq.iter().any(|&b| b != 0.0));
    }

    #[test]
    fn pruned_model_still_runs_quantized() {
        let cfg = EncoderConfig::new(32, 4, 1, 8);
        let mut w = EncoderWeights::random(cfg, 5);
        w.prune(PruningScheme::Magnitude, 0.8);
        let q = crate::quantized::QuantizedEncoder::from_float(&w, crate::QuantSchedule::paper());
        let x = Matrix::from_fn(8, 32, |r, c| ((r + c) % 60) as i8);
        let y = q.forward(&x);
        assert_eq!(y.shape(), (8, 32));
    }

    #[test]
    fn zero_sparsity_is_identity() {
        let mut m = mat();
        let orig = m.clone();
        prune_magnitude(&mut m, 0.0);
        assert_eq!(m.as_slice(), orig.as_slice());
    }

    #[test]
    #[should_panic(expected = "sparsity must be in")]
    fn out_of_range_sparsity_rejected() {
        let mut m = mat();
        prune_magnitude(&mut m, 1.5);
    }
}
