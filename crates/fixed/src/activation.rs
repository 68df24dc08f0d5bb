//! Activation functions for the FFN engines.
//!
//! The paper: "The first transformation includes activation functions such
//! as the Rectified Linear Unit (ReLU) or Gaussian Error Linear Unit
//! (GeLU), while the second transformation does not." ReLU is a sign
//! check; GELU is synthesized as a 256-entry ROM over the 8-bit input —
//! both are LUT/FF-only structures (no DSPs), matching the paper's
//! resource accounting.

use crate::qformat::QFormat;

/// Which nonlinearity the first FFN transformation applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Rectified linear unit (BERT-variant encoders and the original
    /// transformer use ReLU or GELU; ReLU is the cheaper default).
    #[default]
    Relu,
    /// Gaussian error linear unit via lookup table.
    Gelu,
    /// No activation (used by the second/third transformations).
    Identity,
}

/// ReLU on a raw 8-bit value: negative codes clamp to zero. Format-agnostic
/// (sign is sign regardless of binary point).
#[must_use]
pub fn relu_i8(x: i8) -> i8 {
    x.max(0)
}

/// GELU on a raw 8-bit value in format `fmt`, computed the way a
/// synthesized ROM would: exact `gelu()` of the dequantized input,
/// requantized back into the same format.
#[must_use]
pub fn gelu_i8(x: i8, fmt: QFormat) -> i8 {
    let xf = fmt.raw_to_real(i64::from(x));
    // Exact GELU using erf; tanh approximations differ by < 1 output LSB
    // at 8-bit resolution, so the ROM contents are effectively identical.
    let g = 0.5 * xf * (1.0 + erf(xf / core::f64::consts::SQRT_2));
    fmt.real_to_raw(g) as i8
}

/// A synthesized activation ROM: 256 entries of i8, one per input code.
#[derive(Debug, Clone)]
pub struct ActivationLut {
    table: Box<[i8; 256]>,
    kind: Activation,
}

impl ActivationLut {
    /// Burn the ROM for `kind` at format `fmt`.
    #[must_use]
    pub fn new(kind: Activation, fmt: QFormat) -> Self {
        let mut table = Box::new([0i8; 256]);
        for (i, slot) in table.iter_mut().enumerate() {
            let raw = i as u8 as i8;
            *slot = match kind {
                Activation::Relu => relu_i8(raw),
                Activation::Gelu => gelu_i8(raw, fmt),
                Activation::Identity => raw,
            };
        }
        Self { table, kind }
    }

    /// Which activation this ROM implements.
    #[must_use]
    pub fn kind(&self) -> Activation {
        self.kind
    }

    /// Apply to one raw value (combinational ROM read).
    #[must_use]
    pub fn apply(&self, x: i8) -> i8 {
        self.table[x as u8 as usize]
    }

    /// The ROM contents, indexed by the input code as a `u8` (entries
    /// 128–255 hold the negative inputs).
    #[must_use]
    pub fn table(&self) -> &[i8; 256] {
        &self.table
    }

    /// Apply elementwise in place.
    pub fn apply_slice(&self, data: &mut [i8]) {
        for v in data {
            *v = self.apply(*v);
        }
    }
}

/// Error function via Abramowitz–Stegun 7.1.26 (|ε| < 1.5e-7, far below
/// 8-bit resolution). Avoids pulling in a special-functions dependency.
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt() -> QFormat {
        QFormat::new(8, 5)
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(relu_i8(-1), 0);
        assert_eq!(relu_i8(-128), 0);
        assert_eq!(relu_i8(0), 0);
        assert_eq!(relu_i8(77), 77);
        assert_eq!(relu_i8(127), 127);
    }

    #[test]
    fn gelu_fixed_points() {
        // gelu(0) = 0; gelu(x) ≈ x for large positive x; ≈ 0 for large negative.
        assert_eq!(gelu_i8(0, fmt()), 0);
        let big = gelu_i8(127, fmt());
        assert!((i32::from(big) - 127).abs() <= 1, "gelu(+max) = {big}");
        let neg = gelu_i8(-128, fmt());
        assert!(neg.abs() <= 1, "gelu(-max) = {neg}");
    }

    #[test]
    fn gelu_monotone_above_dip() {
        // GELU is monotone increasing only for x ≳ −0.75 (it has a global
        // minimum of ≈ −0.17 near x = −0.75). Check monotonicity on the
        // increasing branch and the minimum's depth on the rest.
        let dip_raw = fmt().real_to_raw(-0.75) as i16;
        let mut prev = i16::from(i8::MIN);
        for raw in dip_raw..=127 {
            let g = i16::from(gelu_i8(raw as i8, fmt()));
            assert!(g >= prev - 1, "gelu non-monotone at {raw}");
            prev = g.max(prev);
        }
        let min = (-128i16..=127)
            .map(|raw| fmt().raw_to_real(i64::from(gelu_i8(raw as i8, fmt()))))
            .fold(f64::MAX, f64::min);
        assert!(min > -0.22 && min < -0.10, "gelu min = {min}");
    }

    #[test]
    fn erf_reference_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn lut_matches_direct_computation() {
        for kind in [Activation::Relu, Activation::Gelu, Activation::Identity] {
            let lut = ActivationLut::new(kind, fmt());
            for raw in -128i16..=127 {
                let x = raw as i8;
                let expect = match kind {
                    Activation::Relu => relu_i8(x),
                    Activation::Gelu => gelu_i8(x, fmt()),
                    Activation::Identity => x,
                };
                assert_eq!(lut.apply(x), expect, "kind={kind:?} raw={raw}");
            }
        }
    }

    #[test]
    fn apply_slice_in_place() {
        let lut = ActivationLut::new(Activation::Relu, fmt());
        let mut data = vec![-5i8, 5, -128, 127, 0];
        lut.apply_slice(&mut data);
        assert_eq!(data, vec![0, 5, 0, 127, 0]);
    }
}
