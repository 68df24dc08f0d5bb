//! The `ServePlan` contract: the streaming sources reproduce the eager
//! workload bit-for-bit, sketch metrics keep every counting field,
//! contradictory plans are rejected up front, and an explicit uniform
//! roster matches the device shorthand byte for byte.

use protea::prelude::*;
use protea::serve::{PoissonSource, ServeError};

fn trace() -> Workload {
    Workload::poisson(48, 80_000.0, &[(96, 4, 2), (64, 4, 1)], (8, 32), 1234)
}

fn plain_fleet(cards: usize) -> Fleet {
    Fleet::try_new(FleetConfig { cards, ..FleetConfig::default() }).unwrap()
}

fn managed_fleet(cards: usize) -> Fleet {
    Fleet::try_new(FleetConfig {
        cards,
        faults: Some(FaultConfig::seeded(0xFA11, 0.03)),
        overload: Some(OverloadConfig {
            aimd: Some(AimdConfig { initial: 8, min: 2, max: 32, ..AimdConfig::default() }),
            retry_budget: Some(RetryBudgetConfig::default()),
            hedge: Some(HedgeConfig { factor: 1.0, min_delay_ns: 300_000, min_samples: 3 }),
        }),
        ..FleetConfig::default()
    })
    .unwrap()
}

#[test]
fn streaming_poisson_source_reproduces_the_eager_workload() {
    // The same (n, rate, classes, seq range, seed) tuple must produce
    // the identical run whether materialized up front or generated one
    // arrival at a time.
    let n = 64;
    let rate = 60_000.0;
    let classes = [(96, 4, 2), (64, 4, 1)];
    let seq = (8, 32);
    let seed = 77;
    let w = Workload::poisson(n, rate, &classes, seq, seed);
    for fleet in [plain_fleet(3), managed_fleet(2)] {
        let eager = fleet.run(ServePlan::workload(&w)).unwrap().report;
        let mut source = PoissonSource::new(n, rate, &classes, seq, seed);
        let streamed = fleet.run(ServePlan::stream(&mut source)).unwrap().report;
        assert_eq!(eager, streamed);
        assert_eq!(eager.to_string(), streamed.to_string());
    }
}

#[test]
fn streaming_deadline_source_matches_eager_deadlines() {
    let n = 48;
    let rate = 120_000.0;
    let classes = [(96, 4, 2)];
    let seq = (8, 16);
    let seed = 9;
    let w = Workload::poisson(n, rate, &classes, seq, seed).with_deadline(30_000_000);
    let fleet = managed_fleet(2);
    let eager = fleet.run(ServePlan::workload(&w)).unwrap().report;
    let mut source = PoissonSource::new(n, rate, &classes, seq, seed).with_deadline(30_000_000);
    let streamed = fleet.run(ServePlan::stream(&mut source)).unwrap().report;
    assert_eq!(eager, streamed);
}

#[test]
fn sketch_metrics_preserve_every_non_percentile_field() {
    // Sketch mode may only perturb the four percentile fields (within
    // the documented bound, pinned by the sketch property tests); all
    // counting fields must be identical.
    let w = trace();
    let fleet = plain_fleet(3);
    let exact = fleet.run(ServePlan::workload(&w)).unwrap().report;
    let sketched = fleet.run(ServePlan::workload(&w).metrics(MetricsMode::Sketch)).unwrap().report;
    assert_eq!(exact.completed, sketched.completed);
    assert_eq!(exact.batches, sketched.batches);
    assert_eq!(exact.reprograms, sketched.reprograms);
    assert_eq!(exact.throughput_rps, sketched.throughput_rps);
    assert_eq!(exact.mean_batch, sketched.mean_batch);
    assert_eq!(exact.latency_ms.max, sketched.latency_ms.max);
    for (s, e) in [
        (sketched.latency_ms.p50, exact.latency_ms.p50),
        (sketched.latency_ms.p95, exact.latency_ms.p95),
        (sketched.latency_ms.p99, exact.latency_ms.p99),
    ] {
        assert!((s - e).abs() <= 0.0101 * e.abs() + 1e-12, "sketch {s} vs exact {e}");
    }
}

#[test]
fn contradictory_plans_are_rejected_up_front() {
    let w = trace();
    let fleet = plain_fleet(2);
    let plan_err = |plan: ServePlan<'_>| match fleet.run(plan) {
        Err(ServeError::Plan { msg }) => msg,
        other => panic!("expected a plan error, got {:?}", other.map(|o| o.report)),
    };
    assert!(plan_err(ServePlan::workload(&w).snapshot_every(0)).contains("at least 1"));
    assert!(plan_err(ServePlan::workload(&w).traced().snapshot_every(4)).contains("tracing"));
    assert!(
        plan_err(ServePlan::workload(&w).serial_baseline().snapshot_every(4)).contains("serial")
    );
    assert!(plan_err(ServePlan::workload(&w).metrics(MetricsMode::Sketch).collect_responses())
        .contains("exact metrics"));
}

#[test]
fn uniform_roster_is_byte_exact_against_the_device_shorthand() {
    // `FleetConfig::device` is now shorthand for a uniform roster: a
    // config spelling the roster out explicitly must produce the same
    // report, byte for byte, as the shorthand — for both the plain and
    // the fully managed fleet. This is the freeze on the elastic
    // refactor's back-compat story.
    let w = trace();
    let device = FleetConfig::default().device;
    for (shorthand, cards) in [(plain_fleet(3), 3), (managed_fleet(2), 2)] {
        let rostered = Fleet::try_new(FleetConfig {
            roster: Some(vec![device; cards]),
            ..shorthand.config().clone()
        })
        .unwrap();
        let base = shorthand.run(ServePlan::workload(&w)).unwrap().report;
        let elastic = rostered.run(ServePlan::workload(&w)).unwrap().report;
        assert_eq!(base, elastic);
        assert_eq!(base.to_string(), elastic.to_string());
    }
}
