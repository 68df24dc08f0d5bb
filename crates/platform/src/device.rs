//! The FPGA device database.
//!
//! Resource totals are the public Xilinx/AMD datasheet numbers for the
//! parts used in the paper's Tables I–II. Table I's utilization
//! percentages cross-check them: 3612 DSP / 40 % and 993107 LUT / 76 %
//! imply exactly the XCU55C's 9024 DSPs and 1.304 M LUTs.

use crate::membw::ExternalMemory;
use crate::resources::ResourceVector;

/// External memory technology attached to a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryKind {
    /// High-bandwidth memory stacks (Alveo U55C/U280).
    Hbm2,
    /// Discrete DDR4 banks.
    Ddr4,
}

/// One FPGA device/card.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaDevice {
    /// Card name as the paper spells it.
    pub name: &'static str,
    /// Part resources.
    pub budget: ResourceVector,
    /// Memory technology.
    pub memory_kind: MemoryKind,
    /// External memory model.
    pub memory: ExternalMemory,
    /// Nominal kernel clock ceiling for HLS designs on this part (MHz) —
    /// the no-congestion asymptote of the Fmax model.
    pub fmax_ceiling_mhz: f64,
}

impl FpgaDevice {
    /// Xilinx Alveo U55C — the paper's platform.
    /// XCU55C: 1,303,680 LUTs; 2,607,360 FFs; 9,024 DSPs; 2,016 BRAM36
    /// (= 4,032 BRAM18); 960 URAM; 16 GB HBM2 @ 460 GB/s.
    #[must_use]
    pub const fn alveo_u55c() -> Self {
        Self {
            name: "Alveo U55C",
            budget: ResourceVector::new(1_303_680, 2_607_360, 9_024, 4_032, 960),
            memory_kind: MemoryKind::Hbm2,
            memory: ExternalMemory::hbm2_u55c(),
            fmax_ceiling_mhz: 300.0,
        }
    }

    /// Xilinx Alveo U200 (used by Peng et al. \[21\] and Qi et al. \[28\]).
    #[must_use]
    pub const fn alveo_u200() -> Self {
        Self {
            name: "Alveo U200",
            budget: ResourceVector::new(1_182_240, 2_364_480, 6_840, 4_320, 960),
            memory_kind: MemoryKind::Ddr4,
            memory: ExternalMemory::ddr4_alveo(),
            fmax_ceiling_mhz: 300.0,
        }
    }

    /// Xilinx Alveo U250 (used by Wojcicki et al. \[23\]).
    #[must_use]
    pub const fn alveo_u250() -> Self {
        Self {
            name: "Alveo U250",
            budget: ResourceVector::new(1_728_000, 3_456_000, 12_288, 5_376, 1_280),
            memory_kind: MemoryKind::Ddr4,
            memory: ExternalMemory::ddr4_alveo(),
            fmax_ceiling_mhz: 300.0,
        }
    }

    /// Xilinx ZCU102 (ZU9EG; used by EFA-Trans \[25\]).
    #[must_use]
    pub const fn zcu102() -> Self {
        Self {
            name: "ZCU102",
            budget: ResourceVector::new(274_080, 548_160, 2_520, 1_824, 0),
            memory_kind: MemoryKind::Ddr4,
            memory: ExternalMemory::ddr4_zcu102(),
            fmax_ceiling_mhz: 350.0,
        }
    }

    /// Xilinx VCU118 (VU9P; used by FTRANS \[29\]).
    #[must_use]
    pub const fn vcu118() -> Self {
        Self {
            name: "VCU118",
            budget: ResourceVector::new(1_182_240, 2_364_480, 6_840, 4_320, 960),
            memory_kind: MemoryKind::Ddr4,
            memory: ExternalMemory::ddr4_alveo(),
            fmax_ceiling_mhz: 300.0,
        }
    }

    /// Total external DRAM on the card, in bytes. The bandwidth model
    /// ([`ExternalMemory`]) deliberately carries no capacity field — it
    /// prices transfers, not residency — so the canonical board
    /// capacities live here: 16 GB HBM2 on the U55C, 64 GB DDR4 on the
    /// big Alveo/VCU boards, 4 GB on the ZCU102's PS-side DDR4.
    #[must_use]
    pub fn dram_capacity_bytes(&self) -> u64 {
        match self.memory_kind {
            MemoryKind::Hbm2 => 16 << 30,
            MemoryKind::Ddr4 => {
                if self.name == "ZCU102" {
                    4 << 30
                } else {
                    64 << 30
                }
            }
        }
    }

    /// All devices in the database.
    #[must_use]
    pub fn all() -> Vec<FpgaDevice> {
        vec![
            Self::alveo_u55c(),
            Self::alveo_u200(),
            Self::alveo_u250(),
            Self::zcu102(),
            Self::vcu118(),
        ]
    }

    /// Look a device up by (case-insensitive) name substring.
    #[must_use]
    pub fn by_name(name: &str) -> Option<FpgaDevice> {
        let needle = name.to_ascii_lowercase();
        Self::all().into_iter().find(|d| d.name.to_ascii_lowercase().contains(&needle))
    }

    /// A dimensionless throughput weight for fleet placement: DSP budget
    /// × clock ceiling, normalized so the paper's U55C scores 1.0.
    /// Capacity-aware schedulers balance load in units of this weight
    /// instead of raw busy nanoseconds, so a big card absorbs
    /// proportionally more work than a small one.
    #[must_use]
    pub fn relative_capacity(&self) -> f64 {
        let u55c = Self::alveo_u55c();
        (self.budget.dsps as f64 * self.fmax_ceiling_mhz)
            / (u55c.budget.dsps as f64 * u55c.fmax_ceiling_mhz)
    }

    /// Parse a comma-separated roster spec (e.g. `"u55c,u200,u250"`)
    /// into per-card devices via [`by_name`](Self::by_name). An element
    /// may carry a `xN` repeat suffix (`"u55c x3"` or `"u55cx3"` are
    /// not accepted — spell it `"u55c*3"`), so `"u55c*2,u200"` is a
    /// three-card roster.
    ///
    /// # Errors
    /// A message naming the offending element and the known devices.
    pub fn parse_roster(spec: &str) -> Result<Vec<FpgaDevice>, String> {
        let known =
            || Self::all().iter().map(|d| d.name.to_string()).collect::<Vec<_>>().join(", ");
        let mut roster = Vec::new();
        for raw in spec.split(',') {
            let elem = raw.trim();
            if elem.is_empty() {
                return Err(format!("empty roster element in {spec:?}"));
            }
            let (name, count) = match elem.split_once('*') {
                Some((n, c)) => {
                    let count: usize = c
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad repeat count in roster element {elem:?}"))?;
                    if count == 0 {
                        return Err(format!("repeat count must be nonzero in {elem:?}"));
                    }
                    (n.trim(), count)
                }
                None => (elem, 1),
            };
            let device = Self::by_name(name)
                .ok_or_else(|| format!("unknown device {name:?} (known: {})", known()))?;
            roster.extend(std::iter::repeat_n(device, count));
        }
        if roster.is_empty() {
            return Err("roster is empty".into());
        }
        Ok(roster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u55c_matches_paper_percentages() {
        let d = FpgaDevice::alveo_u55c();
        // Table I: 3612 DSPs = 40 %, 993107 LUTs = 76 %, 704115 FFs = 27 %.
        assert_eq!((3612.0 / d.budget.dsps as f64 * 100.0).round() as i64, 40);
        assert_eq!((993_107.0 / d.budget.luts as f64 * 100.0).round() as i64, 76);
        assert_eq!((704_115.0 / d.budget.ffs as f64 * 100.0).round() as i64, 27);
    }

    #[test]
    fn database_has_all_paper_devices() {
        let names: Vec<_> = FpgaDevice::all().iter().map(|d| d.name).collect();
        for expect in ["Alveo U55C", "Alveo U200", "Alveo U250", "ZCU102", "VCU118"] {
            assert!(names.contains(&expect), "missing {expect}");
        }
    }

    #[test]
    fn lookup_by_substring() {
        assert_eq!(FpgaDevice::by_name("u55c").unwrap().name, "Alveo U55C");
        assert_eq!(FpgaDevice::by_name("ZCU102").unwrap().name, "ZCU102");
        assert!(FpgaDevice::by_name("virtex-4").is_none());
    }

    #[test]
    fn zcu102_is_smallest() {
        let z = FpgaDevice::zcu102();
        for d in FpgaDevice::all() {
            assert!(z.budget.dsps <= d.budget.dsps);
            assert!(z.budget.luts <= d.budget.luts);
        }
    }

    #[test]
    fn relative_capacity_is_u55c_normalized() {
        assert!((FpgaDevice::alveo_u55c().relative_capacity() - 1.0).abs() < 1e-12);
        assert!(FpgaDevice::alveo_u250().relative_capacity() > 1.0, "U250 outmuscles U55C");
        assert!(FpgaDevice::zcu102().relative_capacity() < 1.0, "ZCU102 is the small part");
        for d in FpgaDevice::all() {
            assert!(d.relative_capacity() > 0.0 && d.relative_capacity().is_finite());
        }
    }

    #[test]
    fn roster_spec_parses_repeats_and_rejects_garbage() {
        let r = FpgaDevice::parse_roster("u55c*2, u200").unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].name, "Alveo U55C");
        assert_eq!(r[1].name, "Alveo U55C");
        assert_eq!(r[2].name, "Alveo U200");
        assert!(FpgaDevice::parse_roster("").is_err());
        assert!(FpgaDevice::parse_roster("u55c,,u200").is_err());
        assert!(FpgaDevice::parse_roster("virtex-4").unwrap_err().contains("known:"));
        assert!(FpgaDevice::parse_roster("u55c*0").is_err());
        assert!(FpgaDevice::parse_roster("u55c*x").is_err());
    }

    #[test]
    fn hbm_only_on_u55c() {
        for d in FpgaDevice::all() {
            let is_hbm = d.memory_kind == MemoryKind::Hbm2;
            assert_eq!(is_hbm, d.name == "Alveo U55C");
        }
    }
}
