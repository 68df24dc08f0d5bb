//! Weight-image integrity: the word-lane digest that closes ABFT's
//! blind spot.
//!
//! ABFT checksums ([`protea_tensor::abft`]) catch corruption of
//! activations and GEMM outputs, but a flip in the *resident weights*
//! is invisible to them — the checksum prediction is computed from the
//! same corrupted image and agrees perfectly. The defense for weights
//! is therefore content hashing: [`weight_digest`] streams every weight
//! matrix, bias vector and layer-norm unit of a [`QuantizedEncoder`]
//! through eight independent 64-bit lanes, and the accelerator seals
//! the value at every
//! [`try_load_weights`](crate::Accelerator::try_load_weights).
//! [`verify_weights`](crate::Accelerator::verify_weights) recomputes and
//! compares it on request; a mismatch surfaces as the typed
//! [`CoreError::Integrity`](crate::CoreError::Integrity) (exit code 10):
//! the card's image is untrusted and must be re-loaded, never retried.
//! Only tests call `verify_weights` today: no load, reprogram or run
//! path re-verifies the seal, and the serving layer's periodic scrub
//! sweeps a modelled per-card corruption counter, not the digest.
//!
//! The image is read as a sequence of little-endian 64-bit words, and
//! word `i` goes to lane `i mod 8`. A matrix's element bytes start at
//! lane 0 and end on a whole block of eight words (zero words close the
//! open block before them, zero bytes pad their last), so the bulk of
//! the image is absorbed eight independent steps at a time. Each lane
//! step
//! `h ← rotl((h ⊕ w)·P, R)` with `P` odd is a bijection of the lane for
//! a fixed word and of the word for a fixed lane, so any corruption
//! inside one word changes its lane's final state with certainty — the
//! guarantee byte-serial FNV-1a gives for one byte, at a word per step
//! and eight steps in flight. The rotate keeps a flip from cancelling
//! against a flip of the same bit in a later word of the lane: without
//! it, `(x ⊕ 2⁶³)·P = x·P ⊕ 2⁶³` carries the top bit straight through.
//! The word count and the eight lanes are folded through
//! [`Fnv64`] at the end.
//!
//! The digest covers the header (`d_model`, the head count, the layer
//! count, the first-FFN activation and the quantization schedule's
//! formats, rounding and scaling) and, per layer, the six weight
//! matrices with their formats, the six bias vectors and both
//! layer-norm units (γ, the aligned β, the output shift and format).
//! Every variable-length part is preceded by its length, so padding is
//! without ambiguity and two shapes holding equal bytes still differ. The digest is
//! independent of the lazily packed fast-path copy and stable across
//! processes — two cards loaded from the same image always agree.

use protea_fixed::QFormat;
use protea_hwsim::Fnv64;
use protea_model::quantized::{QuantMatrix, QuantizedEncoder};

/// Independent lanes.
const LANES: usize = 8;
/// Bytes of one word per lane.
const BLOCK: usize = 8 * LANES;
/// The lane step's odd multiplier (2⁶⁴/φ, odd).
const P: u64 = 0x9e37_79b9_7f4a_7c15;
/// The lane step's rotation.
const R: u32 = 29;

/// One lane step.
#[inline(always)]
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(P).rotate_left(R)
}

/// A format as one word: `total_bits << 8 | frac_bits`.
fn fmt_word(f: QFormat) -> u64 {
    u64::from(f.total_bits()) << 8 | u64::from(f.frac_bits())
}

/// The running lanes and the count of words absorbed.
struct LaneDigest {
    lanes: [u64; LANES],
    words: u64,
}

impl LaneDigest {
    fn new() -> Self {
        // Distinct seeds, so equal words in two lanes leave them unequal.
        Self { lanes: std::array::from_fn(|i| P.wrapping_mul(i as u64 + 1)), words: 0 }
    }

    /// Absorb the next word of the image.
    fn word(&mut self, w: u64) {
        let lane = &mut self.lanes[self.words as usize % LANES];
        *lane = step(*lane, w);
        self.words += 1;
    }

    /// Absorb `bytes` as whole blocks of one word per lane, from lane 0
    /// on: the open block is closed with zero words first, and the last
    /// block is zero-padded.
    fn bytes(&mut self, bytes: &[i8]) {
        while !self.words.is_multiple_of(LANES as u64) {
            self.word(0);
        }
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            self.block(block);
        }
        if !blocks.remainder().is_empty() {
            let mut last = [0; BLOCK];
            last.iter_mut().zip(blocks.remainder()).for_each(|(l, &b)| *l = b);
            self.block(&last);
        }
    }

    /// Absorb one word per lane.
    fn block(&mut self, block: &[i8]) {
        for (lane, w) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, u64::from_le_bytes(std::array::from_fn(|k| w[k] as u8)));
        }
        self.words += LANES as u64;
    }

    /// Shape and format, then row-major element bytes.
    fn matrix(&mut self, m: &QuantMatrix) {
        let (rows, cols) = m.data.shape();
        self.word(rows as u64);
        self.word(cols as u64);
        self.word(fmt_word(m.fmt));
        self.bytes(m.data.as_slice());
    }

    /// Length, then two elements per word, the last one zero-padded.
    fn bias(&mut self, b: &[i32]) {
        self.word(b.len() as u64);
        for pair in b.chunks(2) {
            let hi = pair.get(1).map_or(0, |&v| u64::from(v as u32));
            self.word(u64::from(pair[0] as u32) | hi << 32);
        }
    }

    fn finish(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.words);
        for &lane in &self.lanes {
            h.write_u64(lane);
        }
        h.finish()
    }
}

/// The word-lane digest of a model image's content: the header
/// (`d_model`, heads, layers, the first-FFN activation and the
/// quantization schedule), then per layer the six weight matrices
/// (`Wq Wk Wv Wo W1 W2`) with their formats, the six bias vectors in
/// declaration order and the layer-norm units `ln1` and `ln2`.
/// Deterministic and process-independent.
#[must_use]
pub fn weight_digest(weights: &QuantizedEncoder) -> u64 {
    let mut d = LaneDigest::new();
    let (cfg, s) = (&weights.config, &weights.schedule);
    for n in [cfg.d_model, cfg.heads, cfg.layers, cfg.activation as usize] {
        d.word(n as u64);
    }
    d.word(fmt_word(s.act_fmt));
    d.word(fmt_word(s.logit_fmt));
    d.word(s.rounding as u64);
    d.word(s.scaling as u64);
    for layer in &weights.layers {
        for m in [&layer.wq, &layer.wk, &layer.wv, &layer.wo, &layer.w1, &layer.w2] {
            d.matrix(m);
        }
        for b in [&layer.bq, &layer.bk, &layer.bv, &layer.bo, &layer.b1, &layer.b2] {
            d.bias(b);
        }
        layer.ln1.fold_content(|w| d.word(w));
        layer.ln2.fold_content(|w| d.word(w));
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use protea_fixed::layernorm::LayerNormUnit;
    use protea_fixed::{Activation, Rounding};
    use protea_model::quantized::{QuantSchedule, QuantizedLayer};
    use protea_model::{AttnScaling, EncoderConfig, EncoderWeights};
    use protea_tensor::Matrix;

    fn image_of(cfg: EncoderConfig, seed: u64) -> QuantizedEncoder {
        QuantizedEncoder::from_float(&EncoderWeights::random(cfg, seed), QuantSchedule::paper())
    }

    fn image(seed: u64) -> QuantizedEncoder {
        image_of(EncoderConfig::new(32, 2, 2, 8), seed)
    }

    /// Two layers, so every test also reaches a layer after the first.
    fn small() -> QuantizedEncoder {
        image_of(EncoderConfig::new(16, 2, 2, 8), 7)
    }

    fn matrices(l: &mut QuantizedLayer) -> [&mut QuantMatrix; 6] {
        [&mut l.wq, &mut l.wk, &mut l.wv, &mut l.wo, &mut l.w1, &mut l.w2]
    }

    fn biases(l: &mut QuantizedLayer) -> [&mut Vec<i32>; 6] {
        [&mut l.bq, &mut l.bk, &mut l.bv, &mut l.bo, &mut l.b1, &mut l.b2]
    }

    /// The digest changes under every single-bit flip of every matrix byte
    /// and bias word of every layer of `img`.
    fn assert_every_flip_seen(img: &mut QuantizedEncoder) {
        let sealed = weight_digest(img);
        for l in 0..img.layers.len() {
            for m in 0..6 {
                for i in 0..matrices(&mut img.layers[l])[m].data.as_slice().len() {
                    for bit in 0..8 {
                        matrices(&mut img.layers[l])[m].data.as_mut_slice()[i] ^= 1 << bit;
                        let flipped = weight_digest(img);
                        assert_ne!(flipped, sealed, "layer {l} matrix {m} byte {i} bit {bit}");
                        matrices(&mut img.layers[l])[m].data.as_mut_slice()[i] ^= 1 << bit;
                    }
                }
            }
            for b in 0..6 {
                for i in 0..biases(&mut img.layers[l])[b].len() {
                    for bit in 0..32 {
                        biases(&mut img.layers[l])[b][i] ^= 1 << bit;
                        let flipped = weight_digest(img);
                        assert_ne!(flipped, sealed, "layer {l} bias {b} word {i} bit {bit}");
                        biases(&mut img.layers[l])[b][i] ^= 1 << bit;
                    }
                }
            }
        }
        assert_eq!(weight_digest(img), sealed, "every flip was undone");
    }

    #[test]
    fn digest_is_deterministic_and_content_sensitive() {
        let a = image(7);
        assert_eq!(weight_digest(&a), weight_digest(&a.clone()));
        assert_ne!(weight_digest(&a), weight_digest(&image(8)), "different content must differ");
    }

    #[test]
    fn every_single_bit_flip_of_a_weight_or_bias_changes_the_digest() {
        let mut img = small();
        assert_eq!(img.layers.len(), 2);
        assert_every_flip_seen(&mut img);
    }

    #[test]
    fn every_single_bit_flip_of_a_layer_norm_code_changes_the_digest() {
        let fmt = QFormat::new(8, 5);
        let codes: Vec<i8> = (0..16u8).map(|i| i.wrapping_mul(37) as i8).collect();
        // γ and β from fixed codes after `edit`.
        let unit = |edit: &dyn Fn(&mut [i8], &mut [i8])| {
            let mut gamma = codes.clone();
            let mut beta: Vec<i8> = codes.iter().rev().copied().collect();
            edit(&mut gamma, &mut beta);
            LayerNormUnit::new(gamma, beta, fmt, fmt, fmt)
        };
        let mut clean = small();
        for l in &mut clean.layers {
            (l.ln1, l.ln2) = (unit(&|_, _| ()), unit(&|_, _| ()));
        }
        let sealed = weight_digest(&clean);
        for l in 0..clean.layers.len() {
            for second in [false, true] {
                for i in 0..codes.len() {
                    for bit in 0..8 {
                        for in_beta in [false, true] {
                            let mut img = clean.clone();
                            let layer = &mut img.layers[l];
                            *if second { &mut layer.ln2 } else { &mut layer.ln1 } =
                                unit(&|g, b| {
                                    if in_beta {
                                        b[i] ^= 1 << bit
                                    } else {
                                        g[i] ^= 1 << bit
                                    }
                                });
                            assert_ne!(
                                weight_digest(&img),
                                sealed,
                                "layer {l} ln{} {} {i} bit {bit}",
                                1 + usize::from(second),
                                if in_beta { "β" } else { "γ" }
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn digest_folds_the_header_the_formats_and_the_layer_norm_units() {
        let clean = small();
        let sealed = weight_digest(&clean);
        type Edit = fn(&mut QuantizedEncoder);
        let edits: [(&str, Edit); 8] = [
            ("a replaced ln1 in the last layer", |w| {
                w.layers[1].ln1 = LayerNormUnit::identity(16, w.schedule.act_fmt);
            }),
            ("the head count", |w| w.config.heads = 4),
            ("the activation", |w| w.config.activation = Activation::Gelu),
            ("the activation format", |w| w.schedule.act_fmt = QFormat::new(8, 4)),
            ("the logit format", |w| w.schedule.logit_fmt = QFormat::new(8, 5)),
            ("the rounding", |w| w.schedule.rounding = Rounding::Truncate),
            ("the attention scaling", |w| w.schedule.scaling = AttnScaling::InvSqrtDk),
            ("a matrix format in the last layer", |w| {
                let f = w.layers[1].w2.fmt;
                w.layers[1].w2.fmt = QFormat::new(f.total_bits(), f.frac_bits() ^ 1);
            }),
        ];
        // Each edit changes a value of the paper schedule and its defaults.
        assert_eq!(clean.config.heads, 2);
        assert_eq!(clean.config.activation, Activation::Relu);
        let s = clean.schedule;
        assert_eq!((s.act_fmt, s.logit_fmt), (QFormat::new(8, 5), QFormat::q8_prob()));
        assert_eq!((s.rounding, s.scaling), (Rounding::NearestEven, AttnScaling::InvDmodel));
        for (what, edit) in edits {
            let mut img = clean.clone();
            edit(&mut img);
            assert_ne!(weight_digest(&img), sealed, "{what} must be seen");
        }
    }

    #[test]
    fn the_same_top_bit_in_two_words_of_one_lane_does_not_cancel() {
        let clean = small();
        let sealed = weight_digest(&clean);
        let mut img = clean;
        // Bytes 64 apart are eight words apart: the same lane.
        let wq = img.layers[0].wq.data.as_mut_slice();
        wq[7] ^= i8::MIN;
        wq[7 + 8 * LANES] ^= i8::MIN;
        assert_ne!(weight_digest(&img), sealed);
    }

    #[test]
    fn ragged_matrices_and_odd_biases_are_covered_to_the_last_bit() {
        let mut img = small();
        let mut seed = 0u8;
        let l = &mut img.layers[0];
        for (k, m) in matrices(l).into_iter().enumerate() {
            // 3×5 … 8×10 element bytes: 15, 24, 35, 48, 63, 80.
            m.data = Matrix::from_fn(3 + k, 5 + k, |r, c| {
                seed = seed.wrapping_mul(31).wrapping_add((r * 7 + c) as u8);
                seed as i8
            });
        }
        for (k, b) in biases(l).into_iter().enumerate() {
            b.truncate(2 * k + 1);
        }
        assert_every_flip_seen(&mut img);
        // A trailing zero is still a longer vector or matrix.
        let sealed = weight_digest(&img);
        let mut longer = img.clone();
        longer.layers[0].bq.push(0);
        assert_ne!(weight_digest(&longer), sealed);
        let mut wider = img;
        let (rows, cols) = wider.layers[0].wq.data.shape();
        let padded = Matrix::from_fn(rows, cols + 1, |r, c| {
            if c < cols {
                wider.layers[0].wq.data[(r, c)]
            } else {
                0
            }
        });
        wider.layers[0].wq.data = padded;
        assert_ne!(weight_digest(&wider), sealed);
    }

    #[test]
    fn two_shapes_holding_equal_bytes_differ() {
        let clean = small();
        let mut reshaped = clean.clone();
        let wq = &mut reshaped.layers[0].wq.data;
        let (rows, cols) = wq.shape();
        *wq = Matrix::from_vec(rows / 2, cols * 2, wq.as_slice().to_vec());
        assert_ne!(weight_digest(&reshaped), weight_digest(&clean));
    }
}
