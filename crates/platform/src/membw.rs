//! External memory models: HBM2 and DDR4 bandwidth.

/// An external memory system attached to an FPGA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExternalMemory {
    /// Marketing name ("HBM2", "DDR4-2400 x4").
    pub name: &'static str,
    /// Independent channels (pseudo-channels for HBM: the U55C exposes 32
    /// AXI ports into 16 GB of HBM2).
    pub channels: u32,
    /// Peak bandwidth per channel in bytes/second.
    pub peak_bytes_per_sec_per_channel: f64,
    /// Achievable efficiency for long sequential bursts (protocol +
    /// refresh overheads); 0 < eff ≤ 1.
    pub stream_efficiency: f64,
}

impl ExternalMemory {
    /// Alveo U55C HBM2: 16 GB, 460 GB/s aggregate over 32 pseudo-channels.
    #[must_use]
    pub const fn hbm2_u55c() -> Self {
        Self {
            name: "HBM2 (U55C, 460 GB/s)",
            channels: 32,
            peak_bytes_per_sec_per_channel: 460.0e9 / 32.0,
            stream_efficiency: 0.85,
        }
    }

    /// Single-bank DDR4-2400 (ZCU102-class embedded board).
    #[must_use]
    pub const fn ddr4_zcu102() -> Self {
        Self {
            name: "DDR4-2400 (ZCU102, 19.2 GB/s)",
            channels: 1,
            peak_bytes_per_sec_per_channel: 19.2e9,
            stream_efficiency: 0.75,
        }
    }

    /// Four-bank DDR4 (U200/U250/VCU118 cards, 77 GB/s aggregate).
    #[must_use]
    pub const fn ddr4_alveo() -> Self {
        Self {
            name: "DDR4 x4 (Alveo, 77 GB/s)",
            channels: 4,
            peak_bytes_per_sec_per_channel: 77.0e9 / 4.0,
            stream_efficiency: 0.75,
        }
    }

    /// Effective streaming bandwidth of one channel.
    #[must_use]
    pub fn effective_per_channel(&self) -> f64 {
        self.peak_bytes_per_sec_per_channel * self.stream_efficiency
    }

    /// Bytes one channel delivers per accelerator clock cycle at `freq_hz`.
    /// This is the number the AXI/DMA model consumes: a kernel clocked at
    /// 200 MHz reading a 256-bit AXI port cannot exceed 32 B/cycle no
    /// matter how fast the HBM is, so the caller takes the `min` of this
    /// and the port width.
    #[must_use]
    pub fn bytes_per_cycle_per_channel(&self, freq_hz: f64) -> f64 {
        assert!(freq_hz > 0.0);
        self.effective_per_channel() / freq_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Aggregate peak bandwidth (bytes/second) over every channel.
    fn aggregate_peak(m: &ExternalMemory) -> f64 {
        m.peak_bytes_per_sec_per_channel * f64::from(m.channels)
    }

    #[test]
    fn u55c_aggregate_bandwidth() {
        let m = ExternalMemory::hbm2_u55c();
        assert!((aggregate_peak(&m) - 460.0e9).abs() < 1e6);
        assert_eq!(m.channels, 32);
    }

    #[test]
    fn per_cycle_bandwidth_at_200mhz() {
        let m = ExternalMemory::hbm2_u55c();
        let bpc = m.bytes_per_cycle_per_channel(200.0e6);
        // 460/32 GB/s * 0.85 / 200 MHz ≈ 61 B/cycle — far above a 128-bit
        // AXI port's 16 B/cycle, so the port is the binding constraint.
        assert!(bpc > 16.0, "bpc = {bpc}");
    }

    #[test]
    fn ddr_is_slower_than_hbm() {
        let alveo = aggregate_peak(&ExternalMemory::ddr4_alveo());
        assert!(alveo < aggregate_peak(&ExternalMemory::hbm2_u55c()));
        assert!(aggregate_peak(&ExternalMemory::ddr4_zcu102()) < alveo);
    }

    #[test]
    fn efficiency_bounded() {
        for m in [
            ExternalMemory::hbm2_u55c(),
            ExternalMemory::ddr4_zcu102(),
            ExternalMemory::ddr4_alveo(),
        ] {
            assert!(m.stream_efficiency > 0.0 && m.stream_efficiency <= 1.0);
            assert!(m.effective_per_channel() <= m.peak_bytes_per_sec_per_channel);
        }
    }
}
