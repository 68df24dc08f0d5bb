//! Synthetic workload generators for benchmarks and examples.
//!
//! The evaluation needs inputs with controllable statistics: uniform
//! activation noise (the default) and "needle" retrieval sequences
//! (one position carries a planted signature — useful for checking that
//! attention actually routes information). All generators are seeded and
//! portable (`StdRng`), so every benchmark is reproducible.

use crate::config::EncoderConfig;
use protea_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform activation noise in `[-scale, scale]`, shaped `SL × d_model`.
#[must_use]
pub fn uniform_activations(cfg: &EncoderConfig, scale: f32, seed: u64) -> Matrix<f32> {
    assert!(scale > 0.0 && scale.is_finite());
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(cfg.seq_len, cfg.d_model, |_, _| rng.gen_range(-scale..scale))
}

/// A "needle" sequence: background noise with one position carrying a
/// strong planted signature along the first `signature_dims` features.
/// Returns `(input, needle_position)`.
#[must_use]
pub fn needle_sequence(
    cfg: &EncoderConfig,
    signature_dims: usize,
    seed: u64,
) -> (Matrix<f32>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let needle = rng.gen_range(0..cfg.seq_len);
    let sig = signature_dims.min(cfg.d_model);
    let m = Matrix::from_fn(cfg.seq_len, cfg.d_model, |r, c| {
        let noise: f32 = rng.gen_range(-0.2..0.2);
        if r == needle && c < sig {
            2.0 + noise
        } else {
            noise
        }
    });
    (m, needle)
}

/// A batch of uniform-activation inputs with distinct seeds.
#[must_use]
pub fn batch(cfg: &EncoderConfig, n: usize, scale: f32, seed: u64) -> Vec<Matrix<f32>> {
    (0..n).map(|i| uniform_activations(cfg, scale, seed.wrapping_add(i as u64))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_bounded_and_seeded() {
        let cfg = EncoderConfig::new(32, 4, 1, 8);
        let a = uniform_activations(&cfg, 1.5, 7);
        let b = uniform_activations(&cfg, 1.5, 7);
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(a.as_slice().iter().all(|&x| x.abs() <= 1.5));
        let c = uniform_activations(&cfg, 1.5, 8);
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn needle_is_findable() {
        let cfg = EncoderConfig::new(64, 4, 1, 16);
        let (m, pos) = needle_sequence(&cfg, 8, 5);
        // the needle row has by far the largest L2 norm
        let norms: Vec<f32> =
            (0..16).map(|r| m.row(r).iter().map(|&x| x * x).sum::<f32>()).collect();
        let argmax = norms.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert_eq!(argmax, pos);
    }

    #[test]
    fn batch_members_differ() {
        let cfg = EncoderConfig::new(16, 2, 1, 4);
        let b = batch(&cfg, 3, 1.0, 11);
        assert_eq!(b.len(), 3);
        assert_ne!(b[0].as_slice(), b[1].as_slice());
    }
}
