//! Runtime-programmable registers — the paper's headline feature.
//!
//! "Each hyperparameter of TNN can be programmed during runtime up to a
//! maximum value by \[the\] MicroBlaze softcore processor." The maximum is
//! the synthesized capacity; this module validates register writes
//! against it the way the AXI-lite slave + controller would, and models
//! the register file as addressed 32-bit words.

use crate::synthesis::SynthesisConfig;
use core::fmt;
use protea_model::EncoderConfig;

/// Register addresses on the AXI-lite interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Reg {
    /// Number of active attention heads.
    Heads = 0x00,
    /// Number of encoder layers to run.
    Layers = 0x04,
    /// Embedding dimension.
    DModel = 0x08,
    /// Sequence length.
    SeqLen = 0x0C,
}

/// A rejected register write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// Value exceeds the synthesized capacity.
    ExceedsCapacity {
        /// Which register.
        reg: &'static str,
        /// Requested value.
        requested: u32,
        /// Synthesized maximum.
        max: u32,
    },
    /// Value is structurally invalid (zero, or heads ∤ d_model).
    Invalid(String),
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::ExceedsCapacity { reg, requested, max } => {
                write!(
                    f,
                    "{reg} = {requested} exceeds synthesized capacity {max} (resynthesis required)"
                )
            }
            RegisterError::Invalid(m) => write!(f, "invalid register state: {m}"),
        }
    }
}

impl std::error::Error for RegisterError {}

/// The live register file: the runtime model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Active attention heads (≤ synthesized head engines).
    pub heads: usize,
    /// Encoder layers to execute.
    pub layers: usize,
    /// Embedding dimension (≤ `d_max`).
    pub d_model: usize,
    /// Sequence length (≤ `sl_max`).
    pub seq_len: usize,
}

impl RuntimeConfig {
    /// Build from an [`EncoderConfig`], validating against `syn`.
    pub fn from_model(cfg: &EncoderConfig, syn: &SynthesisConfig) -> Result<Self, RegisterError> {
        let rt = Self {
            heads: cfg.heads,
            layers: cfg.layers,
            d_model: cfg.d_model,
            seq_len: cfg.seq_len,
        };
        rt.validate(syn)?;
        Ok(rt)
    }

    /// Validate against the synthesized capacity.
    pub fn validate(&self, syn: &SynthesisConfig) -> Result<(), RegisterError> {
        let check = |reg: &'static str, v: usize, max: usize| -> Result<(), RegisterError> {
            if v == 0 {
                return Err(RegisterError::Invalid(format!("{reg} must be nonzero")));
            }
            if v > max {
                return Err(RegisterError::ExceedsCapacity {
                    reg,
                    requested: v as u32,
                    max: max as u32,
                });
            }
            Ok(())
        };
        check("heads", self.heads, syn.heads)?;
        check("d_model", self.d_model, syn.d_max)?;
        check("seq_len", self.seq_len, syn.sl_max)?;
        if self.layers == 0 {
            return Err(RegisterError::Invalid("layers must be nonzero".into()));
        }
        if !self.d_model.is_multiple_of(self.heads) {
            return Err(RegisterError::Invalid(format!(
                "heads ({}) must divide d_model ({})",
                self.heads, self.d_model
            )));
        }
        Ok(())
    }

    /// Per-head dimension at this runtime configuration.
    #[must_use]
    pub fn dk(&self) -> usize {
        self.d_model / self.heads
    }

    /// Runtime MHA tile width: the tile *count* is frozen at synthesis,
    /// so the width scales with the runtime `d_model` (this is what makes
    /// Table I's latency linear in `d_model`). Never exceeds `TS_MHA`.
    #[must_use]
    pub fn mha_tile_width(&self, syn: &SynthesisConfig) -> usize {
        self.d_model.div_ceil(syn.tiles_mha())
    }

    /// Runtime FFN tile width (`d_model` over the frozen FFN tile count).
    #[must_use]
    pub fn ffn_tile_width(&self, syn: &SynthesisConfig) -> usize {
        self.d_model.div_ceil(syn.tiles_ffn())
    }

    /// Encode as (address, value) AXI-lite writes.
    #[must_use]
    pub fn register_writes(&self) -> [(Reg, u32); 4] {
        [
            (Reg::Heads, self.heads as u32),
            (Reg::Layers, self.layers as u32),
            (Reg::DModel, self.d_model as u32),
            (Reg::SeqLen, self.seq_len as u32),
        ]
    }

    /// Decode from register writes (missing registers keep `base`'s
    /// values) — what the controller does as words arrive.
    #[must_use]
    pub fn apply_writes(base: Self, writes: &[(Reg, u32)]) -> Self {
        let mut out = base;
        for &(reg, v) in writes {
            match reg {
                Reg::Heads => out.heads = v as usize,
                Reg::Layers => out.layers = v as usize,
                Reg::DModel => out.d_model = v as usize,
                Reg::SeqLen => out.seq_len = v as usize,
            }
        }
        out
    }

    /// View as a model configuration (for op counting etc.).
    #[must_use]
    pub fn to_model_config(&self) -> EncoderConfig {
        EncoderConfig::new(self.d_model, self.heads, self.layers, self.seq_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syn() -> SynthesisConfig {
        SynthesisConfig::paper_default()
    }

    #[test]
    fn paper_test1_fits_capacity() {
        let rt = RuntimeConfig::from_model(&EncoderConfig::paper_test1(), &syn()).unwrap();
        assert_eq!(rt.dk(), 96);
        assert_eq!(rt.mha_tile_width(&syn()), 64);
        assert_eq!(rt.ffn_tile_width(&syn()), 128);
    }

    #[test]
    fn all_table1_configs_fit_one_synthesis() {
        // The paper's core claim: tests 1–9 share a single bitstream.
        for (name, cfg) in EncoderConfig::table1_tests() {
            let rt = RuntimeConfig::from_model(&cfg, &syn());
            assert!(rt.is_ok(), "{name} rejected: {:?}", rt.err());
        }
    }

    #[test]
    fn oversized_d_model_rejected() {
        let cfg = EncoderConfig::new(1024, 8, 1, 16);
        let err = RuntimeConfig::from_model(&cfg, &syn()).unwrap_err();
        assert!(matches!(err, RegisterError::ExceedsCapacity { reg: "d_model", .. }));
    }

    #[test]
    fn too_many_heads_rejected() {
        let cfg = EncoderConfig::new(768, 12, 1, 16);
        let err = RuntimeConfig::from_model(&cfg, &syn()).unwrap_err();
        assert!(matches!(err, RegisterError::ExceedsCapacity { reg: "heads", .. }));
    }

    #[test]
    fn runtime_tile_widths_scale_with_d() {
        let rt = RuntimeConfig { heads: 8, layers: 12, d_model: 512, seq_len: 64 };
        rt.validate(&syn()).unwrap();
        assert_eq!(rt.mha_tile_width(&syn()), 43); // ceil(512/12)
        assert_eq!(rt.ffn_tile_width(&syn()), 86); // ceil(512/6)
    }

    #[test]
    fn register_write_round_trip() {
        let rt = RuntimeConfig { heads: 4, layers: 6, d_model: 256, seq_len: 32 };
        let base = RuntimeConfig { heads: 8, layers: 12, d_model: 768, seq_len: 64 };
        let back = RuntimeConfig::apply_writes(base, &rt.register_writes());
        assert_eq!(back, rt);
    }

    #[test]
    fn partial_writes_keep_base() {
        let base = RuntimeConfig { heads: 8, layers: 12, d_model: 768, seq_len: 64 };
        let out = RuntimeConfig::apply_writes(base, &[(Reg::Layers, 4)]);
        assert_eq!(out.layers, 4);
        assert_eq!(out.heads, 8);
        assert_eq!(out.d_model, 768);
    }

    #[test]
    fn indivisible_heads_rejected() {
        let rt = RuntimeConfig { heads: 5, layers: 1, d_model: 768, seq_len: 8 };
        assert!(matches!(rt.validate(&syn()), Err(RegisterError::Invalid(_))));
    }

    #[test]
    fn zero_register_rejected() {
        let rt = RuntimeConfig { heads: 8, layers: 0, d_model: 768, seq_len: 8 };
        assert!(rt.validate(&syn()).is_err());
    }
}
