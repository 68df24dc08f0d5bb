//! Overload scenario: goodput vs offered load under deadlines.
//!
//! The serving and availability sweeps ask what the fleet does when it
//! is healthy or faulted; this one asks what it does when it is simply
//! *asked for too much*. The sweep crosses offered load with deadline
//! budgets and fleet sizes on one request mix, with the overload
//! controls armed (bounded queues, AIMD admission, a retry budget).
//! The interesting shape is the **goodput knee**: goodput — completions
//! that met their deadline, per second — rises with offered load until
//! the fleet saturates, then *plateaus* as admission control sheds the
//! excess, instead of collapsing the way an unbounded queue would (every
//! request admitted, every request late, goodput → 0). Every cell also
//! re-checks the conservation invariant:
//! `completed + shed + expired + failed == submitted`.

use protea_serve::{
    AimdConfig, BatchPolicy, Fleet, FleetConfig, OverloadConfig, ServeError, ServePlan,
    ServeReport, Workload,
};

/// One (offered load, deadline, fleet size) measurement.
#[derive(Debug, Clone)]
pub struct OverloadRow {
    /// Poisson arrival rate the workload was synthesized at (req/s).
    pub offered_rps: f64,
    /// Relative completion deadline stamped on every request (ns).
    pub deadline_ns: u64,
    /// Cards in the fleet.
    pub cards: usize,
    /// The cell's full report (goodput, shed/expired tallies, SLO).
    pub report: ServeReport,
}

/// Seed for the arrival streams; fixed so every run of the harness
/// reproduces the same tables.
pub const SEED: u64 = 0x0AD5;

/// Requests per cell in [`run_sweep`]'s workloads.
pub const REQUESTS: usize = 192;

/// The overload controls every cell runs with: bounded per-bucket
/// queues, an AIMD limiter sized to the fleet (a couple of batch
/// windows per card, so a load spike cannot park a deadline's worth of
/// work in the queue before the first expiry sweep reins the limit in),
/// and the default retry budget. Hedging stays off here — it is a
/// tail-latency tool, and this sweep isolates the admission story.
#[must_use]
pub fn standard_config(cards: usize) -> FleetConfig {
    FleetConfig {
        cards,
        policy: BatchPolicy { max_batch: 8, max_queue: Some(32), ..BatchPolicy::default() },
        overload: Some(OverloadConfig {
            aimd: Some(AimdConfig {
                initial: 16 * cards,
                min: 4,
                max: 32 * cards,
                ..AimdConfig::default()
            }),
            retry_budget: Some(Default::default()),
            hedge: None,
        }),
        ..FleetConfig::default()
    }
}

/// Cross `offered_rps` with `deadlines_ns` and `card_counts`. Each cell
/// synthesizes a fresh Poisson trace at the offered rate (same seed, so
/// cells differ only in what the knobs say), stamps the deadline, and
/// serves it with [`standard_config`].
///
/// # Errors
/// Propagates any [`ServeError`]; also surfaces a broken conservation
/// invariant as a serving error so the harness fails loudly rather than
/// printing a corrupt table.
pub fn run_sweep(
    offered_rps: &[f64],
    deadlines_ns: &[u64],
    card_counts: &[usize],
) -> Result<Vec<OverloadRow>, ServeError> {
    let mut rows = Vec::with_capacity(offered_rps.len() * deadlines_ns.len() * card_counts.len());
    for &cards in card_counts {
        let fleet = Fleet::try_new(standard_config(cards))?;
        for &deadline_ns in deadlines_ns {
            for &rate in offered_rps {
                let workload = Workload::poisson(REQUESTS, rate, &[(96, 4, 2)], (8, 32), SEED)
                    .with_deadline(deadline_ns);
                let report = fleet.run(ServePlan::workload(&workload))?.report;
                if !report.accounted() {
                    return Err(ServeError::Core(protea_core::CoreError::Serving(format!(
                        "conservation broken at {rate} req/s x {deadline_ns} ns x {cards} cards: \
                         {} completed + {} shed + {} expired + {} failed != {} submitted",
                        report.completed,
                        report.shed.len(),
                        report.expired.len(),
                        report.failed.len(),
                        report.submitted
                    ))));
                }
                rows.push(OverloadRow { offered_rps: rate, deadline_ns, cards, report });
            }
        }
    }
    Ok(rows)
}

/// The goodput-knee check over one (deadline, cards) slice of `rows`,
/// in ascending offered-load order: returns `(peak_goodput, floor)`
/// where `floor` is the lowest goodput at any offered load *at or
/// beyond* the peak. A healthy overload-controlled fleet keeps
/// `floor` close to `peak` (the plateau); an uncontrolled one lets it
/// collapse toward zero. `None` when the slice is empty.
#[must_use]
pub fn knee(rows: &[OverloadRow], deadline_ns: u64, cards: usize) -> Option<(f64, f64)> {
    let slice: Vec<&OverloadRow> =
        rows.iter().filter(|r| r.deadline_ns == deadline_ns && r.cards == cards).collect();
    let peak_at = slice
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            a.report.goodput_rps.partial_cmp(&b.report.goodput_rps).expect("goodput is finite")
        })
        .map(|(i, _)| i)?;
    let peak = slice[peak_at].report.goodput_rps;
    let floor = slice[peak_at..].iter().map(|r| r.report.goodput_rps).fold(f64::INFINITY, f64::min);
    Some((peak, floor))
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATES: [f64; 4] = [100.0, 250.0, 500.0, 1_000.0];
    const DEADLINE: u64 = 100_000_000; // 100 ms

    #[test]
    fn every_cell_conserves_requests() {
        let rows = run_sweep(&RATES, &[DEADLINE], &[2]).unwrap();
        assert_eq!(rows.len(), RATES.len());
        for r in &rows {
            assert!(r.report.accounted(), "cell at {} req/s leaked a request", r.offered_rps);
            assert!(r.report.goodput_rps <= r.report.throughput_rps + 1e-9);
        }
    }

    #[test]
    fn goodput_plateaus_past_the_knee() {
        let rows = run_sweep(&RATES, &[DEADLINE], &[2]).unwrap();
        let (peak, floor) = knee(&rows, DEADLINE, 2).unwrap();
        assert!(peak > 0.0, "the fleet must do useful work somewhere in the sweep");
        assert!(
            floor >= 0.5 * peak,
            "goodput collapsed past the knee: peak {peak:.1}, floor {floor:.1}"
        );
        // Overload is actually reached at the top rate — otherwise the
        // plateau assertion above is vacuous.
        let top = rows.last().unwrap();
        assert!(
            !top.report.shed.is_empty() || !top.report.expired.is_empty(),
            "highest offered load never overloaded the fleet"
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run_sweep(&[500.0], &[DEADLINE], &[2]).unwrap();
        let b = run_sweep(&[500.0], &[DEADLINE], &[2]).unwrap();
        assert_eq!(a[0].report.completed, b[0].report.completed);
        assert_eq!(a[0].report.shed, b[0].report.shed);
        assert_eq!(a[0].report.expired, b[0].report.expired);
        assert!((a[0].report.goodput_rps - b[0].report.goodput_rps).abs() < 1e-12);
    }
}
