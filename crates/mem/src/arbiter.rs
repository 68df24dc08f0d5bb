//! Round-robin arbitration of multiple AXI masters over shared memory
//! channels.
//!
//! ProTEA instantiates one weight/input DMA per head engine; whether
//! those masters get dedicated HBM pseudo-channels or share one is a
//! platform decision with real latency consequences (it is the leading
//! explanation for the SL=32 residual discussed in EXPERIMENTS.md). The
//! arbiter model here is the standard single-address-channel round-robin:
//! the interconnect grants one *burst* at a time, cycling over masters
//! with pending work; a master's transfer completes when its last burst
//! drains.

use crate::axi::AxiPort;
use crate::hbm::ChannelShare;
use protea_hwsim::Cycles;

/// Result of arbitrating a set of masters over one channel.
#[derive(Debug, Clone)]
pub struct ArbitrationResult {
    /// Cycle at which each master's transfer completes.
    pub master_finish: Vec<Cycles>,
    /// Cycle at which the last master finishes.
    pub total: Cycles,
    /// Bursts granted in total.
    pub bursts_granted: u64,
}

/// Arbitrate `requests` (bytes per master, all issued at cycle 0) over
/// one channel reached through `port`, with round-robin burst grants.
/// The channel's byte rate caps the drain speed exactly as in
/// [`bounded_transfer_cycles`](crate::hbm::bounded_transfer_cycles).
#[must_use]
pub fn arbitrate_round_robin(
    requests: &[u64],
    port: &AxiPort,
    share: &ChannelShare,
) -> ArbitrationResult {
    let n = requests.len();
    let mut finish = vec![Cycles::ZERO; n];
    if n == 0 {
        return ArbitrationResult { master_finish: finish, total: Cycles::ZERO, bursts_granted: 0 };
    }
    let burst_bytes = port.bytes_per_beat() * u64::from(port.max_burst_beats);
    let mut remaining: Vec<u64> = requests.to_vec();
    let mut now = 0u64;
    let mut bursts = 0u64;
    let mut idx = 0usize;
    let mut pending = remaining.iter().filter(|&&b| b > 0).count();
    // Masters with zero bytes are already done at cycle 0.
    while pending > 0 {
        if remaining[idx] > 0 {
            let chunk = remaining[idx].min(burst_bytes);
            // One burst: port beats + per-burst overhead, floored by the
            // channel's byte rate.
            let port_cycles =
                chunk.div_ceil(port.bytes_per_beat()) + u64::from(port.burst_overhead);
            let mem_cycles = share.transfer_cycles(chunk).get();
            now += port_cycles.max(mem_cycles);
            bursts += 1;
            remaining[idx] -= chunk;
            if remaining[idx] == 0 {
                finish[idx] = Cycles(now);
                pending -= 1;
            }
        }
        idx = (idx + 1) % n;
    }
    ArbitrationResult { master_finish: finish, total: Cycles(now), bursts_granted: bursts }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port() -> AxiPort {
        AxiPort::new(256) // 32 B/beat, 64-beat bursts
    }

    fn share() -> ChannelShare {
        ChannelShare::fixed(1e9) // memory never the bottleneck
    }

    #[test]
    fn single_master_matches_plain_transfer() {
        let r = arbitrate_round_robin(&[64 * 1024], &port(), &share());
        let direct = port().transfer_cycles(64 * 1024);
        assert_eq!(r.total, direct);
        assert_eq!(r.master_finish[0], direct);
    }

    #[test]
    fn equal_masters_finish_in_grant_order() {
        let r = arbitrate_round_robin(&[4096, 4096, 4096], &port(), &share());
        assert!(r.master_finish[0] < r.master_finish[1]);
        assert!(r.master_finish[1] < r.master_finish[2]);
        // total ≈ 3× a single transfer (modulo burst rounding)
        let single = port().transfer_cycles(4096).get();
        let total = r.total.get();
        assert!(
            (total as f64 / (3 * single) as f64 - 1.0).abs() < 0.2,
            "{total} vs {}",
            3 * single
        );
    }

    #[test]
    fn zero_byte_masters_finish_immediately() {
        let r = arbitrate_round_robin(&[0, 2048, 0], &port(), &share());
        assert_eq!(r.master_finish[0], Cycles::ZERO);
        assert_eq!(r.master_finish[2], Cycles::ZERO);
        assert!(r.master_finish[1] > Cycles::ZERO);
    }

    #[test]
    fn round_robin_is_fair_under_asymmetric_load() {
        // a small request behind a huge one still completes early
        let r = arbitrate_round_robin(&[1 << 20, 2048], &port(), &share());
        assert!(r.master_finish[1].get() < r.master_finish[0].get() / 10);
    }

    #[test]
    fn memory_bottleneck_respected() {
        let slow = ChannelShare::fixed(1.0); // 1 B/cycle
        let r = arbitrate_round_robin(&[1024, 1024], &port(), &slow);
        // channel-limited: ≥ 2048 cycles total
        assert!(r.total.get() >= 2048);
    }

    #[test]
    fn empty_request_set() {
        let r = arbitrate_round_robin(&[], &port(), &share());
        assert_eq!(r.total, Cycles::ZERO);
        assert_eq!(r.bursts_granted, 0);
    }
}
