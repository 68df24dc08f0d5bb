//! Simulation time: clock cycles and frequencies.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) simulated time, measured in clock cycles.
///
/// Cycles are the natural unit for a synchronous design: the HLS latency
/// model counts them directly, and conversion to wall time happens only at
/// reporting boundaries via [`Frequency`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// The raw cycle count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Saturating addition.
    #[must_use]
    pub fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }

    /// Checked subtraction (`None` if `rhs > self`).
    #[must_use]
    pub fn checked_sub(self, rhs: Cycles) -> Option<Cycles> {
        self.0.checked_sub(rhs.0).map(Cycles)
    }

    /// Convert to seconds at `freq`.
    #[must_use]
    pub fn to_seconds(self, freq: Frequency) -> f64 {
        self.0 as f64 / freq.hz()
    }

    /// Convert to milliseconds at `freq` (the unit of every latency table
    /// in the paper).
    #[must_use]
    pub fn to_millis(self, freq: Frequency) -> f64 {
        self.to_seconds(freq) * 1e3
    }

    /// The larger of two durations.
    #[must_use]
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.checked_add(rhs.0).expect("cycle count overflow"))
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        *self = *self + rhs;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.checked_sub(rhs.0).expect("negative cycle duration"))
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// A clock frequency.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Frequency(f64);

impl Frequency {
    /// From megahertz (the unit Fig. 7 reports).
    ///
    /// # Panics
    /// Panics on non-positive or non-finite input.
    #[must_use]
    pub fn mhz(f: f64) -> Self {
        assert!(f.is_finite() && f > 0.0, "frequency must be positive, got {f}");
        Self(f * 1e6)
    }

    /// In hertz.
    #[must_use]
    pub fn hz(self) -> f64 {
        self.0
    }

    /// In megahertz.
    #[must_use]
    pub fn as_mhz(self) -> f64 {
        self.0 / 1e6
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} MHz", self.as_mhz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycles(100);
        let b = Cycles(50);
        assert_eq!(a + b, Cycles(150));
        assert_eq!(a - b, Cycles(50));
        assert_eq!(a.max(b), a);
        assert_eq!(b.checked_sub(a), None);
    }

    #[test]
    #[should_panic(expected = "negative cycle duration")]
    fn negative_duration_panics() {
        let _ = Cycles(1) - Cycles(2);
    }

    #[test]
    fn wall_time_conversion() {
        let f = Frequency::mhz(200.0);
        // 200 MHz → 55.8 M cycles = 279 ms (Table I test #1's headline).
        let cycles = Cycles(55_800_000);
        assert!((cycles.to_millis(f) - 279.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_round_trip() {
        let f = Frequency::mhz(1400.0);
        assert!((f.as_mhz() - 1400.0).abs() < 1e-9);
        assert!((f.hz() - 1.4e9).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = Frequency::mhz(0.0);
    }
}
