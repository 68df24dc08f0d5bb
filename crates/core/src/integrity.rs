//! Weight-image integrity: the FNV-sealed digest that closes ABFT's
//! blind spot.
//!
//! ABFT checksums ([`protea_tensor::abft`]) catch corruption of
//! activations and GEMM outputs, but a flip in the *resident weights*
//! is invisible to them — the checksum prediction is computed from the
//! same corrupted image and agrees perfectly. The defense for weights
//! is therefore content hashing: [`weight_digest`] streams every weight
//! matrix and bias vector of a [`QuantizedEncoder`] through FNV-1a, and
//! the accelerator seals the value at
//! [`try_load_weights`](crate::Accelerator::try_load_weights).
//! [`verify_weights`](crate::Accelerator::verify_weights) recomputes and
//! compares it on request; a mismatch surfaces as the typed
//! [`CoreError::Integrity`](crate::CoreError::Integrity) (exit code 10):
//! the card's image is untrusted and must be re-loaded, never retried.
//! Only tests call `verify_weights` today: no load, reprogram or run
//! path re-verifies the seal, and the serving layer's periodic scrub
//! sweeps a modelled per-card corruption counter, not the digest.
//!
//! The digest covers the shape header (`d_model` and the layer count)
//! and, per layer, the six weight matrices and six bias vectors. It
//! does not fold the head count or the two layer-norm units (`ln1`,
//! `ln2`), so a flip there goes unseen. It is independent of the lazily
//! packed fast-path copy and stable across processes — two cards loaded
//! from the same image always agree.

use protea_hwsim::Fnv64;
use protea_model::quantized::{QuantMatrix, QuantizedEncoder};

/// Fold one quantized matrix into the digest: shape, then row-major
/// element bytes.
fn fold_matrix(h: &mut Fnv64, m: &QuantMatrix) {
    let (rows, cols) = m.data.shape();
    h.write_u64(rows as u64);
    h.write_u64(cols as u64);
    for &v in m.data.as_slice() {
        h.write(&[v as u8]);
    }
}

/// Fold one bias vector into the digest.
fn fold_bias(h: &mut Fnv64, b: &[i32]) {
    h.write_u64(b.len() as u64);
    for &v in b {
        h.write(&v.to_le_bytes());
    }
}

/// The FNV-1a digest of a model image's weight content: shape header,
/// then per layer the six weight matrices (`Wq Wk Wv Wo W1 W2`) and six
/// bias vectors in declaration order. Deterministic and
/// process-independent.
#[must_use]
pub fn weight_digest(weights: &QuantizedEncoder) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(weights.config.d_model as u64);
    h.write_u64(weights.config.layers as u64);
    for layer in &weights.layers {
        fold_matrix(&mut h, &layer.wq);
        fold_matrix(&mut h, &layer.wk);
        fold_matrix(&mut h, &layer.wv);
        fold_matrix(&mut h, &layer.wo);
        fold_matrix(&mut h, &layer.w1);
        fold_matrix(&mut h, &layer.w2);
        fold_bias(&mut h, &layer.bq);
        fold_bias(&mut h, &layer.bk);
        fold_bias(&mut h, &layer.bv);
        fold_bias(&mut h, &layer.bo);
        fold_bias(&mut h, &layer.b1);
        fold_bias(&mut h, &layer.b2);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use protea_model::quantized::QuantSchedule;
    use protea_model::{EncoderConfig, EncoderWeights};

    fn image(seed: u64) -> QuantizedEncoder {
        let cfg = EncoderConfig::new(32, 2, 2, 8);
        QuantizedEncoder::from_float(&EncoderWeights::random(cfg, seed), QuantSchedule::paper())
    }

    #[test]
    fn digest_is_deterministic_and_content_sensitive() {
        let a = image(7);
        assert_eq!(weight_digest(&a), weight_digest(&a.clone()));
        assert_ne!(weight_digest(&a), weight_digest(&image(8)), "different content must differ");
    }

    #[test]
    fn single_bit_flip_changes_the_digest() {
        let clean = image(7);
        let sealed = weight_digest(&clean);
        let mut corrupt = clean.clone();
        let flipped = corrupt.layers[1].w1.data[(3, 5)] ^ 0x10;
        corrupt.layers[1].w1.data[(3, 5)] = flipped;
        assert_ne!(weight_digest(&corrupt), sealed);
        let mut bias_flip = clean;
        bias_flip.layers[0].bo[2] ^= 1;
        assert_ne!(weight_digest(&bias_flip), sealed);
    }
}
