//! AXI4 master read/write burst timing.

use protea_hwsim::Cycles;

/// An AXI4 master port configuration.
///
/// ProTEA's HLS code uses `m_axi` interfaces; Vitis defaults to 512-bit
/// ports on Alveo HBM but the paper's modest bandwidth needs and the
/// Table I latency shape are consistent with narrower ports — the preset
/// lives with the accelerator configuration, not here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxiPort {
    /// Data bus width in bits (power of two, 32–1024).
    pub data_bits: u32,
    /// Maximum beats per burst (AXI4 allows up to 256).
    pub max_burst_beats: u32,
    /// Cycles of request/address latency per burst (AR handshake + memory
    /// first-word latency).
    pub burst_overhead: u32,
}

impl AxiPort {
    /// A port with the given width and typical burst parameters.
    ///
    /// # Panics
    /// Panics if `data_bits` is not a power of two in 32..=1024.
    #[must_use]
    pub fn new(data_bits: u32) -> Self {
        assert!(
            data_bits.is_power_of_two() && (32..=1024).contains(&data_bits),
            "AXI width must be a power of two in 32..=1024, got {data_bits}"
        );
        Self { data_bits, max_burst_beats: 64, burst_overhead: 8 }
    }

    /// Bytes moved per beat.
    #[must_use]
    pub fn bytes_per_beat(&self) -> u64 {
        u64::from(self.data_bits / 8)
    }

    /// Cycles to read `bytes` contiguous bytes, assuming the memory side
    /// can stream at full port rate (see [`crate::hbm`] for the slower-
    /// memory case): data beats plus per-burst overhead.
    #[must_use]
    pub fn transfer_cycles(&self, bytes: u64) -> Cycles {
        if bytes == 0 {
            return Cycles::ZERO;
        }
        let beats = bytes.div_ceil(self.bytes_per_beat());
        let bursts = beats.div_ceil(u64::from(self.max_burst_beats));
        Cycles(beats + bursts * u64::from(self.burst_overhead))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beat_arithmetic() {
        let p = AxiPort::new(128); // 16 B/beat
        assert_eq!(p.bytes_per_beat(), 16);
        // 1 KiB = 64 beats = 1 burst of 64 + 8 overhead
        assert_eq!(p.transfer_cycles(1024), protea_hwsim::Cycles(64 + 8));
    }

    #[test]
    fn multiple_bursts() {
        let p = AxiPort { max_burst_beats: 16, burst_overhead: 4, ..AxiPort::new(128) };
        // 1 KiB = 64 beats = 4 bursts → 64 + 16 overhead
        assert_eq!(p.transfer_cycles(1024).get(), 64 + 4 * 4);
    }

    #[test]
    fn partial_beat_rounds_up() {
        let p = AxiPort::new(128);
        assert_eq!(p.transfer_cycles(1).get(), 1 + 8);
        assert_eq!(p.transfer_cycles(17).get(), 2 + 8);
    }

    #[test]
    fn zero_bytes_zero_cycles() {
        assert_eq!(AxiPort::new(256).transfer_cycles(0), Cycles::ZERO);
    }

    #[test]
    fn wider_port_fewer_cycles() {
        let narrow = AxiPort::new(64);
        let wide = AxiPort::new(512);
        assert!(wide.transfer_cycles(4096) < narrow.transfer_cycles(4096));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_width_rejected() {
        let _ = AxiPort::new(100);
    }
}
