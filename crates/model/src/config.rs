//! Encoder hyperparameters and the paper's model configurations.

use protea_fixed::Activation;

/// How attention logits are scaled before softmax.
///
/// The background section describes the standard `1/√d_k`; the hardware
/// (Algorithm 2, line 9) divides by the **embedding dimension** — a
/// stronger normalization that is cheap in fixed point. Both are
/// supported so the float reference can match either convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttnScaling {
    /// `QKᵀ / √d_k` (Vaswani et al.).
    InvSqrtDk,
    /// `QKᵀ / d_model` (ProTEA Algorithm 2). Default, to mirror hardware.
    #[default]
    InvDmodel,
}

/// Transformer encoder hyperparameters.
///
/// These are exactly the four runtime-programmable quantities of the
/// paper plus the structural constants (FFN expansion ×4, activation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Embedding dimension `d_model`.
    pub d_model: usize,
    /// Number of attention heads `h` (must divide `d_model`).
    pub heads: usize,
    /// Number of encoder layers `N`.
    pub layers: usize,
    /// Sequence length `SL`.
    pub seq_len: usize,
    /// FFN hidden expansion (4 in the paper: `4·d_model`).
    pub ffn_mult: usize,
    /// First-FFN activation.
    pub activation: Activation,
    /// Attention logit scaling convention.
    pub scaling: AttnScaling,
}

impl EncoderConfig {
    /// Construct and validate.
    ///
    /// # Panics
    /// Panics unless `heads` divides `d_model` and all dims are nonzero.
    #[must_use]
    pub fn new(d_model: usize, heads: usize, layers: usize, seq_len: usize) -> Self {
        let cfg = Self {
            d_model,
            heads,
            layers,
            seq_len,
            ffn_mult: 4,
            activation: Activation::Relu,
            scaling: AttnScaling::InvDmodel,
        };
        cfg.validate();
        cfg
    }

    /// Check the invariants (also used when driver registers change).
    pub fn validate(&self) {
        assert!(self.d_model > 0 && self.heads > 0 && self.layers > 0 && self.seq_len > 0);
        assert!(
            self.d_model.is_multiple_of(self.heads),
            "heads ({}) must divide d_model ({})",
            self.heads,
            self.d_model
        );
        assert!(self.ffn_mult > 0);
    }

    /// Per-head dimension `d_k = d_model / h`.
    #[must_use]
    pub fn d_k(&self) -> usize {
        self.d_model / self.heads
    }

    /// FFN hidden dimension (`4·d_model` in the paper).
    #[must_use]
    pub fn d_ffn(&self) -> usize {
        self.ffn_mult * self.d_model
    }

    /// Builder: set activation.
    #[must_use]
    pub fn with_activation(mut self, a: Activation) -> Self {
        self.activation = a;
        self
    }

    /// Builder: set scaling convention.
    #[must_use]
    pub fn with_scaling(mut self, s: AttnScaling) -> Self {
        self.scaling = s;
        self
    }

    /// Builder: set FFN expansion.
    #[must_use]
    pub fn with_ffn_mult(mut self, m: usize) -> Self {
        assert!(m > 0);
        self.ffn_mult = m;
        self.validate();
        self
    }

    // ----- Table I test configurations (1–9) ------------------------------

    /// Table I test #1: SL=64, d=768, h=8, N=12 — the headline config.
    #[must_use]
    pub fn paper_test1() -> Self {
        Self::new(768, 8, 12, 64)
    }

    /// All nine Table I test configurations, in order.
    #[must_use]
    pub fn table1_tests() -> Vec<(&'static str, Self)> {
        vec![
            ("#1", Self::new(768, 8, 12, 64)),
            ("#2", Self::new(768, 4, 12, 64)),
            ("#3", Self::new(768, 2, 12, 64)),
            ("#4", Self::new(768, 8, 8, 64)),
            ("#5", Self::new(768, 8, 4, 64)),
            ("#6", Self::new(512, 8, 12, 64)),
            ("#7", Self::new(256, 8, 12, 64)),
            ("#8", Self::new(768, 8, 12, 128)),
            ("#9", Self::new(768, 8, 12, 32)),
        ]
    }

    /// BERT-base proper (for comparison studies): d=768, h=12, N=12.
    #[must_use]
    pub fn bert_base(seq_len: usize) -> Self {
        Self::new(768, 12, 12, seq_len)
    }

    /// A tiny high-energy-physics style encoder in the spirit of
    /// Wojcicki et al. \[23\] (their LHC trigger model is far below
    /// BERT scale).
    #[must_use]
    pub fn tiny_hep() -> Self {
        Self::new(64, 2, 1, 20).with_ffn_mult(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d_k_divides() {
        let c = EncoderConfig::paper_test1();
        assert_eq!(c.d_k(), 96);
        assert_eq!(c.d_ffn(), 3072);
    }

    #[test]
    fn table1_has_nine_tests() {
        let t = EncoderConfig::table1_tests();
        assert_eq!(t.len(), 9);
        assert_eq!(t[0].1, EncoderConfig::paper_test1());
        // tests 2,3 vary heads; 4,5 layers; 6,7 d_model; 8,9 seq_len
        assert_eq!(t[1].1.heads, 4);
        assert_eq!(t[2].1.heads, 2);
        assert_eq!(t[3].1.layers, 8);
        assert_eq!(t[4].1.layers, 4);
        assert_eq!(t[5].1.d_model, 512);
        assert_eq!(t[6].1.d_model, 256);
        assert_eq!(t[7].1.seq_len, 128);
        assert_eq!(t[8].1.seq_len, 32);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn heads_must_divide_d_model() {
        let _ = EncoderConfig::new(768, 7, 1, 8);
    }

    #[test]
    #[should_panic]
    fn zero_dims_rejected() {
        let _ = EncoderConfig::new(0, 1, 1, 1);
    }

    #[test]
    fn builders_compose() {
        let c = EncoderConfig::new(128, 4, 2, 16)
            .with_activation(Activation::Gelu)
            .with_scaling(AttnScaling::InvSqrtDk)
            .with_ffn_mult(2);
        assert_eq!(c.activation, Activation::Gelu);
        assert_eq!(c.d_ffn(), 256);
    }
}
