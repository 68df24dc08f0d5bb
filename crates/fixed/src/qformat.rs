//! Power-of-two fixed-point formats (`Qm.f`).
//!
//! A `QFormat` describes how raw integer bits are interpreted as a real
//! number: `value = raw / 2^frac_bits`. ProTEA synthesizes its datapath for
//! one storage width (8 bits in the paper) but the format — how many of
//! those bits are fractional — is a quantization-time decision made per
//! tensor by the software driver.

use core::fmt;

/// A signed fixed-point format with a total bit width and a binary point.
///
/// `total_bits` includes the sign bit. `frac_bits` may exceed
/// `total_bits - 1` (all-fractional formats with implicit leading zeros) or
/// be negative-equivalent is not supported: formats are `0 ..= 31` frac bits
/// and `2 ..= 32` total bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    total_bits: u8,
    frac_bits: u8,
}

impl QFormat {
    /// Create a format with `total_bits` total (including sign) and
    /// `frac_bits` fractional bits.
    ///
    /// # Panics
    /// Panics if `total_bits` is not in `2..=32` or `frac_bits > 31`.
    #[must_use]
    pub fn new(total_bits: u8, frac_bits: u8) -> Self {
        assert!(
            (2..=32).contains(&total_bits),
            "QFormat total_bits must be in 2..=32, got {total_bits}"
        );
        assert!(frac_bits <= 31, "QFormat frac_bits must be <= 31, got {frac_bits}");
        Self { total_bits, frac_bits }
    }

    /// The paper's default activation/weight format: 8 bits total, 5
    /// fractional bits (range ±4, resolution 1/32) — a good general format
    /// for layer-normalized transformer activations.
    #[must_use]
    pub const fn q8_default() -> Self {
        Self { total_bits: 8, frac_bits: 5 }
    }

    /// 8-bit all-but-sign fractional format (range ±1) used for softmax
    /// probabilities.
    #[must_use]
    pub const fn q8_prob() -> Self {
        Self { total_bits: 8, frac_bits: 7 }
    }

    /// Total storage bits, including sign.
    #[must_use]
    pub const fn total_bits(self) -> u8 {
        self.total_bits
    }

    /// Fractional bits (position of the binary point).
    #[must_use]
    pub const fn frac_bits(self) -> u8 {
        self.frac_bits
    }

    /// Integer (non-fractional, non-sign) bits; may be negative conceptually
    /// for sub-unity formats, so returned as `i16`.
    #[must_use]
    pub const fn int_bits(self) -> i16 {
        self.total_bits as i16 - 1 - self.frac_bits as i16
    }

    /// The real value of one least-significant bit: `2^-frac_bits`.
    #[must_use]
    pub fn lsb(self) -> f64 {
        (self.frac_bits as i32).checked_neg().map_or(1.0, |e| 2f64.powi(e))
    }

    /// Scale factor `2^frac_bits` used to convert real → raw.
    #[must_use]
    pub fn scale(self) -> f64 {
        2f64.powi(self.frac_bits as i32)
    }

    /// Maximum raw value representable (e.g. 127 for 8-bit).
    #[must_use]
    pub const fn raw_max(self) -> i64 {
        (1i64 << (self.total_bits - 1)) - 1
    }

    /// Minimum raw value representable (e.g. -128 for 8-bit).
    #[must_use]
    pub const fn raw_min(self) -> i64 {
        -(1i64 << (self.total_bits - 1))
    }

    /// Largest representable real value.
    #[must_use]
    pub fn real_max(self) -> f64 {
        self.raw_max() as f64 * self.lsb()
    }

    /// Convert a real number to the nearest raw value, saturating at the
    /// format bounds. Ties round away from zero (like `f64::round`).
    #[must_use]
    pub fn real_to_raw(self, x: f64) -> i64 {
        if x.is_nan() {
            return 0;
        }
        let scaled = (x * self.scale()).round();
        if scaled >= self.raw_max() as f64 {
            self.raw_max()
        } else if scaled <= self.raw_min() as f64 {
            self.raw_min()
        } else {
            scaled as i64
        }
    }

    /// Convert a raw value in this format back to a real number.
    #[must_use]
    pub fn raw_to_real(self, raw: i64) -> f64 {
        raw as f64 * self.lsb()
    }

    /// Quantization round-trip: the representable value nearest `x`.
    #[must_use]
    pub fn round_trip(self, x: f64) -> f64 {
        self.raw_to_real(self.real_to_raw(x))
    }

    /// The format of an exact product of values in `self` and `rhs`:
    /// widths add (minus one duplicated sign bit), fractional bits add.
    #[must_use]
    pub fn product(self, rhs: Self) -> Self {
        let total = (self.total_bits as u16 + rhs.total_bits as u16 - 1).min(32) as u8;
        let frac = (self.frac_bits + rhs.frac_bits).min(31);
        Self { total_bits: total, frac_bits: frac }
    }

    /// Pick the format (for a fixed width) that covers `max_abs` with the
    /// most fractional precision. This is what the quantizer does per
    /// tensor: find the smallest number of integer bits whose range covers
    /// the observed dynamic range.
    #[must_use]
    pub fn fit(total_bits: u8, max_abs: f64) -> Self {
        assert!((2..=32).contains(&total_bits));
        let max_abs = if max_abs.is_finite() { max_abs.abs() } else { 1.0 };
        // Find the largest frac such that max_abs <= real_max.
        let mut best = Self::new(total_bits, 0);
        for frac in 0..=(31.min(total_bits as u32 + 15) as u8) {
            let f = Self::new(total_bits, frac);
            if f.real_max() >= max_abs {
                best = f;
            } else {
                break;
            }
        }
        best
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.int_bits(), self.frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q8_default_range() {
        let q = QFormat::q8_default();
        assert_eq!(q.total_bits(), 8);
        assert_eq!(q.frac_bits(), 5);
        assert_eq!(q.raw_max(), 127);
        assert_eq!(q.raw_min(), -128);
        assert!((q.real_max() - 3.96875).abs() < 1e-12);
    }

    #[test]
    fn lsb_and_scale_are_reciprocal() {
        for frac in 0..=20u8 {
            let q = QFormat::new(16, frac);
            assert!((q.lsb() * q.scale() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn real_to_raw_saturates() {
        let q = QFormat::q8_default();
        assert_eq!(q.real_to_raw(1e9), 127);
        assert_eq!(q.real_to_raw(-1e9), -128);
        assert_eq!(q.real_to_raw(f64::NAN), 0);
        assert_eq!(q.real_to_raw(f64::INFINITY), 127);
        assert_eq!(q.real_to_raw(f64::NEG_INFINITY), -128);
    }

    #[test]
    fn round_trip_error_bounded_by_half_lsb() {
        let q = QFormat::new(8, 5);
        for i in -1000..1000 {
            let x = i as f64 * 0.003;
            if x <= q.real_max() && x >= q.raw_min() as f64 * q.lsb() {
                assert!((q.round_trip(x) - x).abs() <= q.lsb() / 2.0 + 1e-12, "x={x}");
            }
        }
    }

    #[test]
    fn product_format_widths_add() {
        let a = QFormat::new(8, 5);
        let p = a.product(a);
        assert_eq!(p.total_bits(), 15);
        assert_eq!(p.frac_bits(), 10);
    }

    #[test]
    fn fit_covers_max_abs() {
        for &m in &[0.1, 0.5, 1.0, 3.0, 7.9, 100.0, 0.0] {
            let q = QFormat::fit(8, m);
            assert!(q.real_max() >= m || q.frac_bits() == 0, "m={m} q={q}");
        }
        // 1.0 fits in Q1.6 (max 1.984) but not Q0.7 (max 0.992).
        assert_eq!(QFormat::fit(8, 1.0).frac_bits(), 6);
    }

    #[test]
    fn display_format() {
        assert_eq!(QFormat::new(8, 5).to_string(), "Q2.5");
        assert_eq!(QFormat::new(8, 7).to_string(), "Q0.7");
    }

    #[test]
    #[should_panic(expected = "total_bits")]
    fn new_rejects_tiny_width() {
        let _ = QFormat::new(1, 0);
    }
}
