//! Fleet unit tests.

use super::{Fleet, FleetConfig};
use crate::error::ServeError;
use crate::faults::{FailReason, FaultConfig};
use crate::overload::{AimdConfig, HedgeConfig, OverloadConfig, RetryBudgetConfig};
use crate::plan::ServePlan;
use crate::request::{Priority, ServeRequest};
use crate::scheduler::BatchPolicy;
use crate::trace::Workload;
use protea_core::CoreError;
use protea_hwsim::{ExecTrace, SpanKind};
use protea_platform::FpgaDevice;

fn small_fleet(cards: usize) -> Fleet {
    Fleet::try_new(FleetConfig {
        cards,
        policy: BatchPolicy {
            max_batch: 4,
            max_wait_ns: 100_000,
            seq_buckets: vec![16, 32, 64, 128],
            max_queue: None,
        },
        ..FleetConfig::default()
    })
    .unwrap()
}

fn dense_workload(n: usize) -> Workload {
    Workload::poisson(n, 100_000.0, &[(96, 4, 2)], (8, 16), 11)
}

#[test]
fn zero_cards_rejected() {
    let err = Fleet::try_new(FleetConfig { cards: 0, ..FleetConfig::default() }).unwrap_err();
    assert_eq!(err, ServeError::NoCards);
}

#[test]
fn infeasible_bitstream_rejected() {
    let err =
        Fleet::try_new(FleetConfig { device: FpgaDevice::zcu102(), ..FleetConfig::default() })
            .unwrap_err();
    assert!(matches!(err, ServeError::Core(CoreError::Infeasible { .. })));
}

#[test]
fn empty_trace_rejected() {
    let fleet = small_fleet(2);
    assert_eq!(
        fleet.run(ServePlan::workload(&Workload::default())).map(|o| o.report).unwrap_err(),
        ServeError::EmptyTrace
    );
}

#[test]
fn serves_every_request_exactly_once() {
    let fleet = small_fleet(2);
    let w = dense_workload(32);
    let report = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(report.completed, 32);
    assert!(report.mean_batch > 1.0, "dense arrivals must batch: {}", report.mean_batch);
    assert!(report.latency_ms.p50 > 0.0);
    assert!(report.latency_ms.p99 >= report.latency_ms.p95);
    assert!(report.latency_ms.p95 >= report.latency_ms.p50);
}

#[test]
fn deterministic_replay() {
    let fleet = small_fleet(3);
    let w = dense_workload(24);
    assert_eq!(
        fleet.run(ServePlan::workload(&w)).unwrap().report,
        fleet.run(ServePlan::workload(&w)).unwrap().report
    );
}

#[test]
fn unservable_request_surfaces_as_error() {
    let fleet = small_fleet(1);
    let w = Workload {
        requests: vec![ServeRequest {
            id: 0,
            arrival_ns: 0,
            d_model: 4_096,
            heads: 4,
            layers: 2,
            seq_len: 8,
            ..ServeRequest::default()
        }],
    };
    assert!(matches!(
        fleet.run(ServePlan::workload(&w)).map(|o| o.report).unwrap_err(),
        ServeError::Unservable { id: 0, .. }
    ));
}

#[test]
fn functional_mode_matches_timing_mode_schedule() {
    let base = small_fleet(2);
    let functional =
        Fleet::try_new(FleetConfig { functional: true, ..base.config().clone() }).unwrap();
    let w = dense_workload(8);
    let a = base.run(ServePlan::workload(&w)).unwrap().report;
    let b = functional.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(a, b, "functional execution must not change the timing");
}

#[test]
fn reprograms_counted_across_classes() {
    let fleet = small_fleet(1);
    let w = Workload::poisson(12, 50_000.0, &[(96, 4, 2), (128, 4, 2)], (8, 16), 3);
    let report = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert!(report.reprograms >= 2, "two classes on one card must reload: {report:?}");
}

#[test]
fn zero_rate_fault_config_reproduces_the_fault_free_schedule() {
    let base = small_fleet(2);
    let faulty = Fleet::try_new(FleetConfig {
        faults: Some(FaultConfig::default()),
        ..base.config().clone()
    })
    .unwrap();
    let w = dense_workload(24);
    let a = base.run(ServePlan::workload(&w)).unwrap().report;
    let b = faulty.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.latency_ms, b.latency_ms, "zero-rate injection must not perturb timing");
    assert_eq!(a.throughput_rps, b.throughput_rps);
    assert_eq!(b.availability, 1.0);
    assert!(b.failed.is_empty());
    assert!(!b.degraded());
}

#[test]
fn faulty_replay_is_deterministic() {
    let fleet = Fleet::try_new(FleetConfig {
        faults: Some(FaultConfig::seeded(42, 0.05)),
        ..small_fleet(3).config().clone()
    })
    .unwrap();
    let w = dense_workload(24);
    assert_eq!(
        fleet.run(ServePlan::workload(&w)).unwrap().report,
        fleet.run(ServePlan::workload(&w)).unwrap().report
    );
}

#[test]
fn no_request_is_ever_dropped_under_faults() {
    for seed in [1u64, 7, 42] {
        let fleet = Fleet::try_new(FleetConfig {
            faults: Some(FaultConfig::seeded(seed, 0.08)),
            ..small_fleet(2).config().clone()
        })
        .unwrap();
        let w = dense_workload(32);
        let r = fleet.run(ServePlan::workload(&w)).unwrap().report;
        assert_eq!(r.submitted, 32);
        assert_eq!(
            r.completed + r.failed.len(),
            32,
            "seed {seed}: every request must complete or fail with a reason: {r:?}"
        );
        assert!((0.0..=1.0).contains(&r.availability) && r.availability.is_finite());
    }
}

#[test]
fn unrecoverable_faults_fail_over_to_the_surviving_card() {
    use protea_core::{FaultEvent, FaultKind};
    let fleet = Fleet::try_new(FleetConfig {
        faults: Some(FaultConfig {
            events: vec![
                FaultEvent { at_ns: 0, card: 0, kind: FaultKind::EccDouble },
                FaultEvent { at_ns: 1, card: 0, kind: FaultKind::EccDouble },
            ],
            ..FaultConfig::default()
        }),
        ..small_fleet(2).config().clone()
    })
    .unwrap();
    let w = dense_workload(8);
    let r = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(r.completed, 8, "all requests must survive via requeue: {r:?}");
    assert!(r.failed.is_empty());
    assert!(r.retried > 0, "the failed batch must have been requeued");
    assert_eq!(r.faults.ecc_double, 2);
    assert_eq!(r.availability, 1.0);
    // Card 0 took both hits but may have recovered (circuit cooled
    // down, later batch succeeded) — it must not be dead.
    assert_ne!(r.card_health[0], crate::health::CardHealth::Dead);
    assert_eq!(r.card_health[1], crate::health::CardHealth::Healthy);
}

#[test]
fn single_card_fleet_with_dead_card_fails_typed_not_hangs() {
    use protea_core::{FaultEvent, FaultKind};
    let fleet = Fleet::try_new(FleetConfig {
        cards: 1,
        faults: Some(FaultConfig {
            events: vec![FaultEvent { at_ns: 0, card: 0, kind: FaultKind::CardCrash }],
            ..FaultConfig::default()
        }),
        ..small_fleet(1).config().clone()
    })
    .unwrap();
    let w = dense_workload(6);
    let r = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(r.completed, 0);
    assert_eq!(r.failed.len(), 6, "every request fails with a typed reason: {r:?}");
    assert!(r.failed.iter().all(|fr| matches!(fr.reason, crate::faults::FailReason::AllCardsDead)));
    assert_eq!(r.availability, 0.0);
    assert_eq!(r.crashes, 1);
    assert_eq!(r.card_health[0], crate::health::CardHealth::Dead);
    assert!(r.throughput_rps.is_finite(), "no degenerate division: {r:?}");
}

#[test]
fn crash_mid_run_requeues_inflight_onto_survivor() {
    use protea_core::{FaultEvent, FaultKind};
    // Crash card 0 shortly after serving begins: whatever it was
    // running must finish elsewhere.
    let fleet = Fleet::try_new(FleetConfig {
        faults: Some(FaultConfig {
            events: vec![FaultEvent { at_ns: 150_000, card: 0, kind: FaultKind::CardCrash }],
            ..FaultConfig::default()
        }),
        ..small_fleet(2).config().clone()
    })
    .unwrap();
    let w = dense_workload(24);
    let r = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(r.completed + r.failed.len(), 24, "no drops: {r:?}");
    assert_eq!(r.crashes, 1);
    assert_eq!(r.card_health[0], crate::health::CardHealth::Dead);
    assert_eq!(r.completed, 24, "one surviving card must absorb the work");
}

#[test]
fn invalid_fault_config_rejected_up_front() {
    use protea_core::FaultRates;
    let bad_rates = FleetConfig {
        faults: Some(FaultConfig {
            rates: FaultRates { stall: 1.5, ..FaultRates::ZERO },
            ..FaultConfig::default()
        }),
        ..FleetConfig::default()
    };
    assert!(matches!(
        Fleet::try_new(bad_rates).unwrap_err(),
        ServeError::Core(CoreError::InvalidConfig(_))
    ));
    let zero_attempts = FleetConfig {
        faults: Some(FaultConfig { max_request_attempts: 0, ..FaultConfig::default() }),
        ..FleetConfig::default()
    };
    assert!(Fleet::try_new(zero_attempts).is_err());
}

#[test]
fn serial_baseline_is_slower_than_batched_fleet() {
    let fleet = small_fleet(4);
    let w = dense_workload(40);
    let batched = fleet.run(ServePlan::workload(&w)).unwrap().report;
    let serial = fleet.run(ServePlan::workload(&w).serial_baseline()).unwrap().report;
    assert_eq!(serial.completed, batched.completed);
    assert!(
        batched.throughput_rps > serial.throughput_rps,
        "batched {} vs serial {}",
        batched.throughput_rps,
        serial.throughput_rps
    );
}

// --------------------------- exec tracing ---------------------------

#[test]
fn traced_serve_is_bit_identical_and_records_spans() {
    let fleet = small_fleet(2);
    let w = dense_workload(24);
    let plain = fleet.run(ServePlan::workload(&w)).unwrap().report;
    let out = fleet.run(ServePlan::workload(&w).traced()).unwrap();
    let (traced, trace) = (out.report, out.trace.unwrap());
    assert_eq!(plain, traced, "tracing must never perturb the schedule");
    assert!(!trace.is_empty(), "a served workload must record spans");
    assert_eq!(trace.dropped(), 0);
    let kinds: Vec<SpanKind> = trace.spans().map(|s| s.kind).collect();
    assert!(kinds.contains(&SpanKind::Batch), "batch service windows must be recorded");
    assert!(kinds.contains(&SpanKind::Reprogram), "cold-card weight loads must be recorded");
    // Every span sits on a per-card track.
    assert!(trace.spans().all(|s| s.track >= protea_hwsim::exec_trace::track::CARD0));
    // Batches on one card never overlap in time.
    for card in 0..2u32 {
        let mut windows: Vec<(u64, u64)> = trace
            .spans()
            .filter(|s| {
                s.track == protea_hwsim::exec_trace::track::CARD0 + card
                    && s.kind == SpanKind::Batch
            })
            .map(|s| (s.start, s.end))
            .collect();
        windows.sort_unstable();
        for pair in windows.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "card {card} double-booked: {pair:?}");
        }
    }
    // The export round-trips losslessly.
    let json = trace.to_chrome_json();
    let parsed = ExecTrace::parse_chrome_json(&json).unwrap();
    assert_eq!(parsed.len(), trace.len());
    assert!(parsed.iter().zip(trace.spans()).all(|(a, b)| a == b));
}

#[test]
fn traced_hedged_run_records_hedge_and_cancel_spans() {
    let fleet = Fleet::try_new(FleetConfig {
        overload: Some(OverloadConfig {
            hedge: Some(HedgeConfig { factor: 0.5, min_delay_ns: 10_000, min_samples: 4 }),
            ..OverloadConfig::default()
        }),
        ..small_fleet(3).config().clone()
    })
    .unwrap();
    let w = dense_workload(32);
    let plain = fleet.run(ServePlan::workload(&w)).unwrap().report;
    let out = fleet.run(ServePlan::workload(&w).traced()).unwrap();
    let (traced, trace) = (out.report, out.trace.unwrap());
    assert_eq!(plain, traced);
    assert!(plain.hedges > 0, "this config must hedge: {plain:?}");
    let kinds: Vec<SpanKind> = trace.spans().map(|s| s.kind).collect();
    assert!(kinds.contains(&SpanKind::Hedge), "hedge legs must be recorded");
    if plain.hedge_cancels > 0 {
        assert!(kinds.contains(&SpanKind::Cancel), "hedge wins must record the cancel");
    }
}

// --------------------------- timing memo ----------------------------

#[test]
fn memo_counters_surface_without_affecting_equality() {
    let memoized = small_fleet(2);
    let plain =
        Fleet::try_new(FleetConfig { timing_memo: false, ..memoized.config().clone() }).unwrap();
    let w = dense_workload(24);
    let a = memoized.run(ServePlan::workload(&w)).unwrap().report;
    let b = plain.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(a, b, "the memo must be invisible in report equality");
    assert!(a.memo_misses >= 1, "the memoized run must price at least one key: {a:?}");
    assert!(a.memo_hits >= 1, "a dense single-class workload must hit the cache: {a:?}");
    assert_eq!((b.memo_hits, b.memo_misses), (0, 0), "memo off records nothing");
}

// ------------------------- overload layer -------------------------

/// `dense_workload` with a relative deadline stamped on every
/// request.
fn deadline_workload(n: usize, rel_ns: u64) -> Workload {
    let mut w = dense_workload(n);
    for r in &mut w.requests {
        r.deadline_ns = Some(r.arrival_ns + rel_ns);
    }
    w
}

#[test]
fn unarmed_overload_config_changes_nothing() {
    // Zero-overhead-when-off: an OverloadConfig with every knob off
    // (and no caps/deadlines anywhere) must yield a bit-identical
    // report through the untouched fault-free path.
    let base = small_fleet(2);
    let off = Fleet::try_new(FleetConfig {
        overload: Some(OverloadConfig::default()),
        ..base.config().clone()
    })
    .unwrap();
    let w = dense_workload(24);
    assert_eq!(
        base.run(ServePlan::workload(&w)).unwrap().report,
        off.run(ServePlan::workload(&w)).unwrap().report
    );
}

#[test]
fn managed_path_without_pressure_keeps_fault_free_timing() {
    // Arm a limiter far above the offered load: the managed path is
    // taken, but timing must match the fault-free schedule exactly.
    let base = small_fleet(2);
    let armed = Fleet::try_new(FleetConfig {
        overload: Some(OverloadConfig {
            aimd: Some(AimdConfig { initial: 4_096, ..AimdConfig::default() }),
            ..OverloadConfig::default()
        }),
        ..base.config().clone()
    })
    .unwrap();
    let w = dense_workload(24);
    let a = base.run(ServePlan::workload(&w)).unwrap().report;
    let b = armed.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.latency_ms, b.latency_ms, "idle overload controls must not perturb timing");
    assert_eq!(a.throughput_rps, b.throughput_rps);
    assert!(b.shed.is_empty() && b.expired.is_empty());
    assert!(b.accounted(), "{b:?}");
}

#[test]
fn bounded_queue_sheds_with_exact_accounting() {
    let fleet = Fleet::try_new(FleetConfig {
        cards: 1,
        policy: BatchPolicy {
            max_batch: 4,
            max_wait_ns: 100_000,
            seq_buckets: vec![16, 32, 64, 128],
            max_queue: Some(2),
        },
        ..FleetConfig::default()
    })
    .unwrap();
    // Arrival rate far above one card's service rate forces the cap.
    let w = Workload::poisson(64, 1_000_000.0, &[(96, 4, 2)], (8, 16), 5);
    let r = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert!(!r.shed.is_empty(), "a 2-deep queue under this burst must shed: {r:?}");
    assert!(r.shed.iter().all(|s| s.reason == FailReason::Shed));
    assert_eq!(r.submitted, 64);
    assert!(r.accounted(), "conservation must hold: {r:?}");
    assert!(r.overloaded());
    // Determinism under shedding.
    assert_eq!(fleet.run(ServePlan::workload(&w)).unwrap().report, r);
}

#[test]
fn expired_requests_are_shed_before_dispatch() {
    let fleet = small_fleet(1);
    // Deadlines shorter than the queueing delay this burst builds up.
    let w = deadline_workload(48, 400_000);
    let r = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert!(!r.expired.is_empty(), "tight deadlines under a burst must expire: {r:?}");
    assert!(r.expired.iter().all(|e| e.reason == FailReason::DeadlineExpired));
    assert!(r.accounted(), "{r:?}");
    assert!(r.completed_in_deadline <= r.completed);
    assert!(r.goodput_rps <= r.throughput_rps);
    // Expired requests were never burned on a card: every completion
    // belongs to a non-expired request.
    assert_eq!(r.completed + r.expired.len() + r.failed.len() + r.shed.len(), 48);
    // Per-priority SLO rows exist and cover all submissions.
    let slo_submitted: usize = r.slo.iter().map(|s| s.submitted).sum();
    assert_eq!(slo_submitted, 48);
}

#[test]
fn priority_displaces_best_effort_under_full_queue() {
    let fleet = Fleet::try_new(FleetConfig {
        cards: 1,
        policy: BatchPolicy {
            max_batch: 4,
            max_wait_ns: 100_000,
            seq_buckets: vec![16, 32, 64, 128],
            max_queue: Some(2),
        },
        ..FleetConfig::default()
    })
    .unwrap();
    let mut w = Workload::poisson(60, 1_500_000.0, &[(96, 4, 2)], (8, 16), 9);
    for (i, r) in w.requests.iter_mut().enumerate() {
        r.priority = if i % 2 == 0 { Priority::BestEffort } else { Priority::Interactive };
    }
    let r = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert!(r.accounted(), "{r:?}");
    let shed_ids: std::collections::BTreeSet<u64> = r.shed.iter().map(|s| s.id).collect();
    let best_effort_shed = w
        .requests
        .iter()
        .filter(|q| q.priority == Priority::BestEffort && shed_ids.contains(&q.id))
        .count();
    let interactive_shed = shed_ids.len() - best_effort_shed;
    assert!(
        best_effort_shed >= interactive_shed,
        "shedding must prefer best-effort: {best_effort_shed} vs {interactive_shed}"
    );
}

#[test]
fn hedging_completes_every_request_exactly_once() {
    let fleet = Fleet::try_new(FleetConfig {
        overload: Some(OverloadConfig {
            // An aggressive hedge: fire almost immediately.
            hedge: Some(HedgeConfig { factor: 0.5, min_delay_ns: 10_000, min_samples: 4 }),
            ..OverloadConfig::default()
        }),
        ..small_fleet(3).config().clone()
    })
    .unwrap();
    let w = dense_workload(32);
    let out = fleet.run(ServePlan::workload(&w).collect_responses()).unwrap();
    let (r, responses) = (out.report, out.responses.unwrap());
    assert_eq!(r.completed, 32);
    assert!(r.hedges > 0, "an aggressive hedge policy must fire: {r:?}");
    assert!(r.hedge_wins <= r.hedges && r.hedge_cancels <= r.hedges);
    let mut ids: Vec<u64> = responses.iter().map(|resp| resp.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 32, "no request may complete twice under hedging");
    assert!(r.accounted(), "{r:?}");
    // Deterministic replay with hedging on.
    assert_eq!(fleet.run(ServePlan::workload(&w)).unwrap().report, r);
}

#[test]
fn retry_budget_bounds_requeue_storms() {
    use protea_core::{FaultEvent, FaultKind};
    // Endless ECC faults on card 0 of 1: without a budget every
    // request would burn its full attempt cap; with an empty budget
    // each failed batch dies on its first fault.
    let events: Vec<FaultEvent> =
        (0..200).map(|i| FaultEvent { at_ns: i, card: 0, kind: FaultKind::EccDouble }).collect();
    let fleet = Fleet::try_new(FleetConfig {
        cards: 1,
        faults: Some(FaultConfig { events, ..FaultConfig::default() }),
        overload: Some(OverloadConfig {
            retry_budget: Some(RetryBudgetConfig { initial: 0, per_admission: 0.0, cap: 1 }),
            ..OverloadConfig::default()
        }),
        ..small_fleet(1).config().clone()
    })
    .unwrap();
    let w = dense_workload(8);
    let r = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(r.retried, 0, "an empty budget must forbid every requeue: {r:?}");
    assert!(r.failed.iter().any(|fr| matches!(fr.reason, FailReason::RetryBudgetExhausted { .. })));
    assert!(r.accounted(), "{r:?}");
}

#[test]
fn aimd_limiter_sheds_past_its_limit() {
    let fleet = Fleet::try_new(FleetConfig {
        cards: 1,
        overload: Some(OverloadConfig {
            aimd: Some(AimdConfig { initial: 4, min: 2, max: 8, increase: 1.0, decrease: 0.5 }),
            ..OverloadConfig::default()
        }),
        ..small_fleet(1).config().clone()
    })
    .unwrap();
    let w = Workload::poisson(64, 2_000_000.0, &[(96, 4, 2)], (8, 16), 13);
    let r = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert!(!r.shed.is_empty(), "a limit of ~4-8 under 64 rushed arrivals must shed: {r:?}");
    assert!(r.accounted(), "{r:?}");
    assert_eq!(
        fleet.run(ServePlan::workload(&w)).unwrap().report,
        r,
        "AIMD state must replay deterministically"
    );
}

#[test]
fn invalid_overload_config_rejected_up_front() {
    let bad = FleetConfig {
        overload: Some(OverloadConfig {
            aimd: Some(AimdConfig { min: 0, ..AimdConfig::default() }),
            ..OverloadConfig::default()
        }),
        ..FleetConfig::default()
    };
    assert!(matches!(
        Fleet::try_new(bad).unwrap_err(),
        ServeError::Core(CoreError::InvalidConfig(_))
    ));
    let zero_cap = FleetConfig {
        policy: BatchPolicy { max_queue: Some(0), ..BatchPolicy::default() },
        ..FleetConfig::default()
    };
    assert!(Fleet::try_new(zero_cap).is_err());
}

/// A KV budget too small for even one session: every batch member is
/// shed at session start with a typed reason, the card stays free, and
/// the token ledger still balances.
#[test]
fn kv_capacity_exhaustion_sheds_sessions_with_conserved_tokens() {
    use super::sim::SimModel;
    use crate::fleet::events::FleetEvent;
    use protea_hwsim::EventQueue;

    let config = FleetConfig { cards: 1, ..FleetConfig::default() };
    let mut m = SimModel::build(&config, true, false, false).unwrap();
    // A few bytes of KV headroom: no session's cache can ever fit.
    // (Real budgets are half a card's DRAM — gigabytes — so capacity
    // exhaustion is reachable only by shrinking the budget directly.)
    m.kv_budgets = vec![64];

    let steps = 8u32;
    let req = ServeRequest {
        id: 0,
        arrival_ns: 0,
        d_model: 96,
        heads: 4,
        layers: 2,
        seq_len: 8,
        deadline_ns: None,
        priority: Priority::Normal,
        tenant: 0,
        decode_steps: steps,
        token_deadline_ns: None,
    };
    let mut q: EventQueue<FleetEvent> = EventQueue::new();
    m.admit(req, 0);
    let batch =
        m.scheduler.pop_session_ready(10_000_000).expect("an aged single-session batch must flush");
    let took = m.start_session_batch(&mut q, 0, batch, 10_000_000).unwrap();
    assert!(!took, "with no KV headroom the card must stay free");

    let st = m.sessions.as_ref().expect("decode traffic creates session state");
    assert_eq!(st.tokens_requested, u64::from(steps));
    assert_eq!(st.tokens_shed, u64::from(steps), "every requested token resolves as shed");
    assert_eq!(st.tokens_emitted, 0);
    let shed = &m.faulty.as_ref().expect("managed model").shed;
    assert_eq!(shed.len(), 1, "the session lands in the shed ledger exactly once");
    assert!(matches!(shed[0].reason, FailReason::Shed));
}

/// After a soak over three capacity classes, every warm card of a class
/// carries that class's one image, not a copy of it.
#[test]
fn warm_cards_of_a_class_share_its_single_image() {
    use super::events::{self, FleetEvent};
    use super::sim::SimModel;
    use crate::source::PoissonSource;
    use protea_hwsim::EventQueue;
    use std::sync::Arc;

    let config = FleetConfig {
        cards: 4,
        policy: BatchPolicy { max_batch: 8, ..BatchPolicy::default() },
        ..FleetConfig::default()
    };
    let classes = [(96, 4, 2), (64, 4, 1), (96, 4, 1)];
    let mut source = PoissonSource::new(600, 2_500.0, &classes, (8, 32), 11);
    let mut m = SimModel::build(&config, false, false, true).unwrap();
    let mut q: EventQueue<FleetEvent> = EventQueue::new();
    assert!(events::pull_arrival(&mut q, &mut m, &mut source));
    while let Some((t, ev)) = q.pop() {
        events::handle_event(&mut q, &mut m, &mut source, t.get(), ev);
    }
    assert!(m.error.is_none());
    assert!(m.reprograms > config.cards as u64, "the classes must churn the cards");
    assert_eq!(m.weights.len(), classes.len(), "one image per class");
    for (class, image) in &m.weights {
        let warm: Vec<_> = m.cards.iter().filter(|c| c.loaded_class == Some(*class)).collect();
        for card in &warm {
            let resident = card.accel.weights().expect("a warm card carries weights");
            assert!(std::ptr::eq(resident, &**image), "{class:?}: a card holds a copy");
        }
        assert_eq!(Arc::strong_count(image), 1 + warm.len(), "{class:?}: a stale image is held");
    }
}
