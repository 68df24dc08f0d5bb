//! Typed FPGA resource accounting.

use core::fmt;
use core::ops::{Add, AddAssign, Mul};

/// A vector of FPGA resource quantities.
///
/// Used both for budgets (a device's totals) and for demands (what a
/// synthesized design consumes). Arithmetic is saturating-free and panics
/// on overflow — a resource count that overflows `u64` is a bug, not a
/// condition to mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceVector {
    /// Look-up tables (logic).
    pub luts: u64,
    /// Flip-flops (registers).
    pub ffs: u64,
    /// DSP48 slices (multipliers).
    pub dsps: u64,
    /// BRAM18 blocks (two per BRAM36).
    pub bram18: u64,
    /// UltraRAM blocks.
    pub uram: u64,
}

impl ResourceVector {
    /// The zero vector.
    pub const ZERO: ResourceVector =
        ResourceVector { luts: 0, ffs: 0, dsps: 0, bram18: 0, uram: 0 };

    /// Construct with all five quantities.
    #[must_use]
    pub const fn new(luts: u64, ffs: u64, dsps: u64, bram18: u64, uram: u64) -> Self {
        Self { luts, ffs, dsps, bram18, uram }
    }

    /// Whether this demand fits within `budget` on every axis.
    #[must_use]
    pub fn fits_within(&self, budget: &ResourceVector) -> bool {
        self.luts <= budget.luts
            && self.ffs <= budget.ffs
            && self.dsps <= budget.dsps
            && self.bram18 <= budget.bram18
            && self.uram <= budget.uram
    }

    /// Component-wise utilization fractions of `budget` (axes with a zero
    /// budget report 0.0 when unused, infinity when demanded).
    #[must_use]
    pub fn utilization_of(&self, budget: &ResourceVector) -> ResourceReport {
        fn frac(demand: u64, budget: u64) -> f64 {
            if budget == 0 {
                if demand == 0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                demand as f64 / budget as f64
            }
        }
        ResourceReport {
            demand: *self,
            lut_frac: frac(self.luts, budget.luts),
            ff_frac: frac(self.ffs, budget.ffs),
            dsp_frac: frac(self.dsps, budget.dsps),
            bram_frac: frac(self.bram18, budget.bram18),
            uram_frac: frac(self.uram, budget.uram),
        }
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    fn add(self, rhs: ResourceVector) -> ResourceVector {
        ResourceVector {
            luts: self.luts.checked_add(rhs.luts).expect("LUT count overflow"),
            ffs: self.ffs.checked_add(rhs.ffs).expect("FF count overflow"),
            dsps: self.dsps.checked_add(rhs.dsps).expect("DSP count overflow"),
            bram18: self.bram18.checked_add(rhs.bram18).expect("BRAM count overflow"),
            uram: self.uram.checked_add(rhs.uram).expect("URAM count overflow"),
        }
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for ResourceVector {
    type Output = ResourceVector;
    fn mul(self, k: u64) -> ResourceVector {
        ResourceVector {
            luts: self.luts.checked_mul(k).expect("LUT count overflow"),
            ffs: self.ffs.checked_mul(k).expect("FF count overflow"),
            dsps: self.dsps.checked_mul(k).expect("DSP count overflow"),
            bram18: self.bram18.checked_mul(k).expect("BRAM count overflow"),
            uram: self.uram.checked_mul(k).expect("URAM count overflow"),
        }
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LUT {} / FF {} / DSP {} / BRAM18 {} / URAM {}",
            self.luts, self.ffs, self.dsps, self.bram18, self.uram
        )
    }
}

/// Utilization fractions of a demand against one device's budget.
#[derive(Debug, Clone, Copy)]
pub struct ResourceReport {
    /// The absolute demand this report describes.
    pub demand: ResourceVector,
    /// LUT utilization fraction.
    pub lut_frac: f64,
    /// FF utilization fraction.
    pub ff_frac: f64,
    /// DSP utilization fraction.
    pub dsp_frac: f64,
    /// BRAM18 utilization fraction.
    pub bram_frac: f64,
    /// URAM utilization fraction.
    pub uram_frac: f64,
}

impl ResourceReport {
    /// Whether every axis is at or under 100 %.
    #[must_use]
    pub fn feasible(&self) -> bool {
        self.lut_frac <= 1.0
            && self.ff_frac <= 1.0
            && self.dsp_frac <= 1.0
            && self.bram_frac <= 1.0
            && self.uram_frac <= 1.0
    }
}

impl fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DSP {} ({:.0}%), LUT {} ({:.0}%), FF {} ({:.0}%), BRAM18 {} ({:.0}%)",
            self.demand.dsps,
            self.dsp_frac * 100.0,
            self.demand.luts,
            self.lut_frac * 100.0,
            self.demand.ffs,
            self.ff_frac * 100.0,
            self.demand.bram18,
            self.bram_frac * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_scale() {
        let a = ResourceVector::new(10, 20, 3, 4, 1);
        let b = ResourceVector::new(1, 2, 3, 4, 5);
        assert_eq!(a + b, ResourceVector::new(11, 22, 6, 8, 6));
        assert_eq!(a * 3, ResourceVector::new(30, 60, 9, 12, 3));
    }

    #[test]
    fn fits_is_componentwise() {
        let budget = ResourceVector::new(100, 100, 100, 100, 100);
        assert!(ResourceVector::new(100, 50, 1, 0, 0).fits_within(&budget));
        assert!(!ResourceVector::new(101, 0, 0, 0, 0).fits_within(&budget));
    }

    #[test]
    fn utilization_paper_row() {
        // Table I: 3612 DSP = 40 %, 993107 LUT = 76 %, 704115 FF = 27 % on U55C.
        let u55c = ResourceVector::new(1_303_680, 2_607_360, 9_024, 4_032, 960);
        let design =
            ResourceVector { luts: 993_107, ffs: 704_115, dsps: 3_612, bram18: 1_000, uram: 0 };
        let r = design.utilization_of(&u55c);
        assert!((r.dsp_frac - 0.40).abs() < 0.005, "dsp {:.3}", r.dsp_frac);
        assert!((r.lut_frac - 0.76).abs() < 0.005, "lut {:.3}", r.lut_frac);
        assert!((r.ff_frac - 0.27).abs() < 0.005, "ff {:.3}", r.ff_frac);
        assert!(r.feasible());
    }

    #[test]
    fn zero_budget_semantics() {
        let zero_uram = ResourceVector::new(10, 10, 10, 10, 0);
        let none = ResourceVector::new(1, 1, 1, 1, 0).utilization_of(&zero_uram);
        assert_eq!(none.uram_frac, 0.0);
        let some = ResourceVector::new(1, 1, 1, 1, 1).utilization_of(&zero_uram);
        assert!(some.uram_frac.is_infinite());
        assert!(!some.feasible());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let big = ResourceVector::new(u64::MAX, 0, 0, 0, 0);
        let _ = big + ResourceVector::new(1, 0, 0, 0, 0);
    }
}
