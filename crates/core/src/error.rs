//! The unified error type of the fallible public API.
//!
//! Every failure a host can trigger through the request path — a bad
//! model blob, a register write beyond the synthesized capacity, weights
//! that disagree with the programmed registers, an input of the wrong
//! shape, a design that does not fit the device — surfaces as one
//! [`CoreError`]. The `From` impls let `?` lift the layer-specific
//! errors ([`RegisterError`], [`DecodeError`], [`DriverError`]) without
//! call-site ceremony.

use crate::driver::DriverError;
use crate::registers::RegisterError;
use core::fmt;
use protea_mem::fault::FaultKind;
use protea_model::serialize::DecodeError;
use protea_model::KvCacheError;

/// Any error reachable through the accelerator's fallible API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A register write was rejected (over capacity or structurally
    /// invalid).
    Register(RegisterError),
    /// A serialized model blob failed to parse.
    Decode(DecodeError),
    /// The synthesized design does not fit the target device.
    Infeasible {
        /// Device name.
        device: String,
        /// Human-readable resource summary of the overflowing design.
        resources: String,
    },
    /// The weight image and the programmed register file disagree: the
    /// heads or `d_model` differ, or more layers are programmed than the
    /// image holds. Raised at load and by every functional run.
    WeightShape {
        /// `d_model` of the weight image.
        weights_d_model: usize,
        /// `d_model` in the register file.
        programmed_d_model: usize,
        /// Head count of the weight image.
        weights_heads: usize,
        /// Head count in the register file.
        programmed_heads: usize,
        /// Layer count of the weight image.
        weights_layers: usize,
        /// Layer count in the register file.
        programmed_layers: usize,
    },
    /// `run` was requested before any weights were loaded.
    WeightsNotLoaded,
    /// The input matrix does not match `SL × d_model`.
    InputShape {
        /// Shape the register file demands.
        expected: (usize, usize),
        /// Shape that was supplied.
        got: (usize, usize),
    },
    /// A batched call received zero sequences.
    EmptyBatch,
    /// A synthesis-time configuration is structurally invalid (zero
    /// field, non-divisor tile size, …) — caught by
    /// [`SynthesisConfigBuilder::build`](crate::synthesis::SynthesisConfigBuilder::build).
    InvalidConfig(String),
    /// A hardware fault the driver could not recover from: an
    /// uncorrectable ECC event, a transfer whose retry budget was
    /// exhausted, or a card that dropped off the bus mid-run. Emitted by
    /// the fault-injected timing path (a [`RunPlan`](crate::pipeline::RunPlan)
    /// armed with a [`FaultPlan`](crate::pipeline::FaultPlan));
    /// the layer above decides whether to fail over.
    Fault {
        /// The fault class that ended the run.
        kind: FaultKind,
        /// What the driver was doing when it gave up.
        context: String,
    },
    /// An error from the serving layer above `protea-core`, funneled
    /// into the unified error type (via `From<ServeError>` in
    /// `protea-serve`) so CLI surfaces map every failure to one exit
    /// code table.
    Serving(String),
    /// The serving layer refused admission under overload (bounded
    /// queue full, no sheddable lower-priority work). Distinct from
    /// [`CoreError::Serving`] because the correct caller response
    /// differs: an overloaded rejection is retryable elsewhere or
    /// later, a serving failure is not.
    Overloaded(String),
    /// A persisted fleet snapshot failed version negotiation or seal
    /// verification (unknown grammar version, tampered or bit-rotted
    /// `hash` trailer). Distinct from [`CoreError::Serving`] because
    /// the input *file* is untrusted: the correct caller response is
    /// to discard it, not retry or migrate it.
    SnapshotIntegrity(String),
    /// On-card data failed an integrity check: a weight image whose FNV
    /// digest no longer matches the sealed value
    /// ([`Accelerator::verify_weights`](crate::Accelerator::verify_weights)),
    /// an ABFT checksum mismatch in a GEMM epilogue, or a self-test whose
    /// datapath bytes differ from the golden model's. Distinct from [`CoreError::Fault`] — no
    /// hardware error signal ever fired; the data is *silently* wrong
    /// and the correct response is to discard the affected results and
    /// re-image the card, not to retry the transfer.
    Integrity {
        /// What was being verified when the mismatch surfaced.
        context: String,
    },
    /// A decode step would grow a session's KV cache past the bound it
    /// was admitted with. Distinct from [`CoreError::Overloaded`]: the
    /// session itself outgrew its reservation mid-generation, so the
    /// correct caller response is to end *this* generation, not retry
    /// it elsewhere.
    KvCapacity {
        /// Positions already decoded.
        positions: usize,
        /// The cache's position bound.
        capacity: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Register(e) => write!(f, "register programming rejected: {e}"),
            CoreError::Decode(e) => write!(f, "model blob rejected: {e}"),
            CoreError::Infeasible { device, resources } => {
                write!(f, "design does not fit {device}: {resources}")
            }
            CoreError::WeightShape {
                weights_d_model,
                programmed_d_model,
                weights_heads,
                programmed_heads,
                weights_layers,
                programmed_layers,
            } => write!(
                f,
                "weight image (d_model={weights_d_model}, heads={weights_heads}, \
                 layers={weights_layers}) incompatible with register file \
                 (d_model={programmed_d_model}, heads={programmed_heads}, \
                 layers={programmed_layers})"
            ),
            CoreError::WeightsNotLoaded => {
                write!(f, "no weights loaded (call try_load_weights first)")
            }
            CoreError::InputShape { expected, got } => write!(
                f,
                "input shape {}×{} does not match programmed SL×d_model {}×{}",
                got.0, got.1, expected.0, expected.1
            ),
            CoreError::EmptyBatch => write!(f, "batch must contain at least one sequence"),
            CoreError::InvalidConfig(m) => write!(f, "invalid synthesis configuration: {m}"),
            CoreError::Fault { kind, context } => {
                write!(f, "unrecoverable hardware fault ({kind}): {context}")
            }
            CoreError::Serving(m) => write!(f, "serving error: {m}"),
            CoreError::Overloaded(m) => write!(f, "overloaded: {m}"),
            CoreError::SnapshotIntegrity(m) => write!(f, "snapshot rejected: {m}"),
            CoreError::Integrity { context } => {
                write!(f, "silent data corruption detected: {context}")
            }
            CoreError::KvCapacity { positions, capacity } => {
                write!(f, "KV cache full: {positions} positions decoded, capacity {capacity}")
            }
        }
    }
}

impl CoreError {
    /// The stable process exit code CLI front ends use for this error,
    /// uniform across subcommands: 2 = invalid configuration or register
    /// programming, 3 = model blob rejected, 4 = design infeasible,
    /// 5 = weight/input/batch mismatch on the request path, 6 =
    /// unrecoverable hardware fault, 7 = serving-layer rejection, 8 =
    /// overloaded (admission refused; retryable elsewhere or later),
    /// 9 = snapshot integrity failure (untrusted input file; discard),
    /// 10 = silent data corruption detected (weight digest or ABFT
    /// checksum mismatch; discard affected results and re-image),
    /// 11 = KV cache capacity exhausted mid-generation (end this
    /// session's generation; not retryable).
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            CoreError::Register(_) | CoreError::InvalidConfig(_) => 2,
            CoreError::Decode(_) => 3,
            CoreError::Infeasible { .. } => 4,
            CoreError::WeightShape { .. }
            | CoreError::WeightsNotLoaded
            | CoreError::InputShape { .. }
            | CoreError::EmptyBatch => 5,
            CoreError::Fault { .. } => 6,
            CoreError::Serving(_) => 7,
            CoreError::Overloaded(_) => 8,
            CoreError::SnapshotIntegrity(_) => 9,
            CoreError::Integrity { .. } => 10,
            CoreError::KvCapacity { .. } => 11,
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Register(e) => Some(e),
            CoreError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RegisterError> for CoreError {
    fn from(e: RegisterError) -> Self {
        CoreError::Register(e)
    }
}

impl From<DecodeError> for CoreError {
    fn from(e: DecodeError) -> Self {
        CoreError::Decode(e)
    }
}

impl From<DriverError> for CoreError {
    fn from(e: DriverError) -> Self {
        match e {
            DriverError::Decode(d) => CoreError::Decode(d),
            DriverError::Register(r) => CoreError::Register(r),
        }
    }
}

impl From<KvCacheError> for CoreError {
    fn from(e: KvCacheError) -> Self {
        match e {
            KvCacheError::CapacityExhausted { positions, capacity } => {
                CoreError::KvCapacity { positions, capacity }
            }
            KvCacheError::RowShape { expected, got } => CoreError::InputShape { expected, got },
            KvCacheError::DimMismatch { cache, decoder } => CoreError::InvalidConfig(format!(
                "KV cache built for d_model={cache}, decoder has d_model={decoder}"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_register_error() {
        let e = RegisterError::Invalid("x".into());
        let c: CoreError = e.clone().into();
        assert_eq!(c, CoreError::Register(e));
    }

    #[test]
    fn from_driver_error_flattens() {
        let r = RegisterError::ExceedsCapacity { reg: "heads", requested: 9, max: 8 };
        let c: CoreError = DriverError::Register(r.clone()).into();
        assert_eq!(c, CoreError::Register(r));
        let d = DecodeError::BadMagic;
        let c: CoreError = DriverError::Decode(d.clone()).into();
        assert_eq!(c, CoreError::Decode(d));
    }

    #[test]
    fn display_is_informative() {
        let e = CoreError::InputShape { expected: (64, 768), got: (8, 96) };
        let s = e.to_string();
        assert!(s.contains("8×96") && s.contains("64×768"), "{s}");
        assert!(CoreError::WeightsNotLoaded.to_string().contains("try_load_weights"));
        let f = CoreError::Fault { kind: FaultKind::EccDouble, context: "FFN2 tile load".into() };
        assert!(f.to_string().contains("double-bit ECC"), "{f}");
    }

    /// One value of every variant, used by the audit tests below.
    fn every_variant() -> Vec<CoreError> {
        vec![
            CoreError::Register(RegisterError::Invalid("x".into())),
            CoreError::Decode(DecodeError::BadMagic),
            CoreError::Infeasible { device: "zcu102".into(), resources: "DSP 120%".into() },
            CoreError::WeightShape {
                weights_d_model: 64,
                programmed_d_model: 96,
                weights_heads: 4,
                programmed_heads: 2,
                weights_layers: 1,
                programmed_layers: 2,
            },
            CoreError::WeightsNotLoaded,
            CoreError::InputShape { expected: (8, 96), got: (4, 96) },
            CoreError::EmptyBatch,
            CoreError::InvalidConfig("zero heads".into()),
            CoreError::Fault { kind: FaultKind::AxiTimeout, context: "QKV tile load".into() },
            CoreError::Serving("trace rejected".into()),
            CoreError::Overloaded("queue full (32 pending, limit 32)".into()),
            CoreError::SnapshotIntegrity("unknown snapshot version v9".into()),
            CoreError::Integrity { context: "weight digest mismatch on card 2".into() },
            CoreError::KvCapacity { positions: 64, capacity: 64 },
        ]
    }

    #[test]
    fn every_variant_has_a_nonempty_display() {
        for e in every_variant() {
            assert!(!e.to_string().trim().is_empty(), "{e:?} renders empty");
        }
    }

    #[test]
    fn exit_codes_are_stable_and_nonzero() {
        for e in every_variant() {
            assert!(e.exit_code() >= 2, "{e:?} must not collide with success/usage codes");
            assert!(e.exit_code() <= 11);
        }
        assert_eq!(
            CoreError::Fault { kind: FaultKind::CardCrash, context: String::new() }.exit_code(),
            6
        );
        assert_eq!(CoreError::Serving(String::new()).exit_code(), 7);
        assert_eq!(CoreError::Overloaded(String::new()).exit_code(), 8);
        assert_eq!(CoreError::SnapshotIntegrity(String::new()).exit_code(), 9);
        assert_eq!(CoreError::Integrity { context: String::new() }.exit_code(), 10);
        assert_eq!(CoreError::KvCapacity { positions: 64, capacity: 64 }.exit_code(), 11);
    }

    #[test]
    fn from_kv_cache_error_maps_each_variant() {
        let c: CoreError = KvCacheError::CapacityExhausted { positions: 3, capacity: 3 }.into();
        assert_eq!(c, CoreError::KvCapacity { positions: 3, capacity: 3 });
        let c: CoreError = KvCacheError::RowShape { expected: (1, 96), got: (2, 96) }.into();
        assert_eq!(c, CoreError::InputShape { expected: (1, 96), got: (2, 96) });
        let c: CoreError = KvCacheError::DimMismatch { cache: 96, decoder: 128 }.into();
        assert!(matches!(c, CoreError::InvalidConfig(m) if m.contains("96")));
    }
}
