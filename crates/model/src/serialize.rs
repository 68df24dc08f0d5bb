//! Binary weight serialization — the role of `.pth` files in the flow.
//!
//! The paper's software stack saves PyTorch models and extracts the
//! hyperparameters with "a Python interpreter"; the driver then programs
//! the accelerator. Our equivalent is a small self-contained binary
//! format (no external parser): a magic header carrying the
//! [`EncoderConfig`] followed by f32 little-endian matrices in a fixed
//! order. [`peek_config`] is the "interpreter" — it reads only the header
//! to learn the hyperparameters, exactly what the runtime-programming
//! driver needs.

use crate::config::EncoderConfig;
use crate::weights::{EncoderWeights, LayerWeights};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use protea_tensor::Matrix;

/// Magic bytes: "PTEA" + format version 1.
const MAGIC: &[u8; 4] = b"PTEA";
const VERSION: u32 = 1;

/// Errors from decoding a weight blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Blob ended early.
    Truncated,
    /// Header fields fail [`EncoderConfig`] validation.
    BadConfig(String),
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a ProTEA weight blob (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::Truncated => write!(f, "weight blob truncated"),
            DecodeError::BadConfig(m) => write!(f, "invalid config in header: {m}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serialize weights to a binary blob.
#[must_use]
pub fn encode(weights: &EncoderWeights) -> Bytes {
    let cfg = weights.config;
    let mut buf = BytesMut::with_capacity(64 + weights.param_count() * 4);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(cfg.d_model as u32);
    buf.put_u32_le(cfg.heads as u32);
    buf.put_u32_le(cfg.layers as u32);
    buf.put_u32_le(cfg.seq_len as u32);
    buf.put_u32_le(cfg.ffn_mult as u32);
    for layer in &weights.layers {
        for m in [&layer.wq, &layer.wk, &layer.wv, &layer.wo, &layer.w1, &layer.w2] {
            for &v in m.as_slice() {
                buf.put_f32_le(v);
            }
        }
        for v in [
            &layer.bq,
            &layer.bk,
            &layer.bv,
            &layer.bo,
            &layer.b1,
            &layer.b2,
            &layer.ln1_gamma,
            &layer.ln1_beta,
            &layer.ln2_gamma,
            &layer.ln2_beta,
        ] {
            for &x in v.iter() {
                buf.put_f32_le(x);
            }
        }
    }
    buf.freeze()
}

/// Read only the header: the hyperparameter-extraction step the driver
/// performs before programming the accelerator.
pub fn peek_config(blob: &[u8]) -> Result<EncoderConfig, DecodeError> {
    let mut b = blob;
    if b.remaining() < 4 + 4 + 5 * 4 {
        return Err(DecodeError::Truncated);
    }
    let mut magic = [0u8; 4];
    b.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = b.get_u32_le();
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let d_model = b.get_u32_le() as usize;
    let heads = b.get_u32_le() as usize;
    let layers = b.get_u32_le() as usize;
    let seq_len = b.get_u32_le() as usize;
    let ffn_mult = b.get_u32_le() as usize;
    if d_model == 0 || heads == 0 || layers == 0 || seq_len == 0 || ffn_mult == 0 {
        return Err(DecodeError::BadConfig("zero dimension".into()));
    }
    if !d_model.is_multiple_of(heads) {
        return Err(DecodeError::BadConfig(format!(
            "heads ({heads}) must divide d_model ({d_model})"
        )));
    }
    Ok(EncoderConfig::new(d_model, heads, layers, seq_len).with_ffn_mult(ffn_mult))
}

/// Decode a full weight blob.
pub fn decode(blob: &[u8]) -> Result<EncoderWeights, DecodeError> {
    let cfg = peek_config(blob)?;
    let mut b = &blob[4 + 4 + 5 * 4..];
    let d = cfg.d_model;
    let f = cfg.d_ffn();
    let read_mat = |rows: usize, cols: usize, b: &mut &[u8]| -> Result<Matrix<f32>, DecodeError> {
        let n = rows * cols;
        if b.remaining() < n * 4 {
            return Err(DecodeError::Truncated);
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(b.get_f32_le());
        }
        Ok(Matrix::from_vec(rows, cols, data))
    };
    let read_vec = |n: usize, b: &mut &[u8]| -> Result<Vec<f32>, DecodeError> {
        if b.remaining() < n * 4 {
            return Err(DecodeError::Truncated);
        }
        Ok((0..n).map(|_| b.get_f32_le()).collect())
    };
    let mut layers = Vec::with_capacity(cfg.layers);
    for _ in 0..cfg.layers {
        let wq = read_mat(d, d, &mut b)?;
        let wk = read_mat(d, d, &mut b)?;
        let wv = read_mat(d, d, &mut b)?;
        let wo = read_mat(d, d, &mut b)?;
        let w1 = read_mat(d, f, &mut b)?;
        let w2 = read_mat(f, d, &mut b)?;
        let bq = read_vec(d, &mut b)?;
        let bk = read_vec(d, &mut b)?;
        let bv = read_vec(d, &mut b)?;
        let bo = read_vec(d, &mut b)?;
        let b1 = read_vec(f, &mut b)?;
        let b2 = read_vec(d, &mut b)?;
        let ln1_gamma = read_vec(d, &mut b)?;
        let ln1_beta = read_vec(d, &mut b)?;
        let ln2_gamma = read_vec(d, &mut b)?;
        let ln2_beta = read_vec(d, &mut b)?;
        layers.push(LayerWeights {
            wq,
            wk,
            wv,
            bq,
            bk,
            bv,
            wo,
            bo,
            w1,
            b1,
            w2,
            b2,
            ln1_gamma,
            ln1_beta,
            ln2_gamma,
            ln2_beta,
        });
    }
    Ok(EncoderWeights { config: cfg, layers })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_everything() {
        let cfg = EncoderConfig::new(32, 4, 2, 8);
        let w = EncoderWeights::random(cfg, 21);
        let blob = encode(&w);
        let back = decode(&blob).unwrap();
        assert_eq!(back.config, cfg);
        for (a, b) in w.layers.iter().zip(back.layers.iter()) {
            assert_eq!(a.wq.as_slice(), b.wq.as_slice());
            assert_eq!(a.w2.as_slice(), b.w2.as_slice());
            assert_eq!(a.b1, b.b1);
            assert_eq!(a.ln2_beta, b.ln2_beta);
        }
    }

    #[test]
    fn peek_reads_only_header() {
        let cfg = EncoderConfig::new(64, 8, 3, 16).with_ffn_mult(2);
        let w = EncoderWeights::random(cfg, 1);
        let blob = encode(&w);
        // header alone suffices
        let got = peek_config(&blob[..28]).unwrap();
        assert_eq!(got, cfg);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut blob = encode(&EncoderWeights::random(EncoderConfig::new(16, 2, 1, 2), 1)).to_vec();
        blob[0] = b'X';
        assert!(matches!(decode(&blob), Err(DecodeError::BadMagic)));
    }

    #[test]
    fn truncation_detected() {
        let blob = encode(&EncoderWeights::random(EncoderConfig::new(16, 2, 1, 2), 1));
        let cut = &blob[..blob.len() - 8];
        assert!(matches!(decode(cut), Err(DecodeError::Truncated)));
        assert_eq!(peek_config(&blob[..8]), Err(DecodeError::Truncated));
    }

    #[test]
    fn invalid_header_config_rejected() {
        let mut blob = encode(&EncoderWeights::random(EncoderConfig::new(16, 2, 1, 2), 1)).to_vec();
        // corrupt heads to 3 (does not divide 16)
        blob[12..16].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(peek_config(&blob), Err(DecodeError::BadConfig(_))));
    }

    #[test]
    fn version_check() {
        let mut blob = encode(&EncoderWeights::random(EncoderConfig::new(16, 2, 1, 2), 1)).to_vec();
        blob[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert_eq!(peek_config(&blob), Err(DecodeError::BadVersion(9)));
    }
}
