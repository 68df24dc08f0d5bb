//! Decode-serving integration: autoregressive sessions under the
//! continuous-batching fleet.
//!
//! Pins the tentpole guarantees end to end: every requested token is
//! emitted or shed (never lost), joiners merge into a running decode
//! batch between token steps instead of waiting for the card, crashes
//! mid-generation shed the stranded remainder with a typed reason, and
//! the serial baseline refuses generation work with a typed error.
//! (Mid-generation snapshot resume is pinned by the root
//! `tests/snapshot.rs` table.)

use proptest::prelude::*;
use protea_core::{FaultRates, RetryPolicy};
use protea_serve::{
    AimdConfig, BatchPolicy, ChurnAction, ChurnEvent, ChurnPlan, FailReason, FaultConfig, Fleet,
    FleetConfig, OverloadConfig, Priority, RetryBudgetConfig, ServeError, ServePlan, ServeRequest,
    Workload,
};
use std::collections::BTreeSet;

fn gen_workload(n: usize, steps: u32, seed: u64) -> Workload {
    Workload::poisson(n, 60_000.0, &[(96, 4, 2)], (8, 24), seed).with_decode(steps, None)
}

fn small_fleet(cards: usize) -> Fleet {
    Fleet::try_new(FleetConfig { cards, ..FleetConfig::default() }).unwrap()
}

/// A single session on a single card: every requested token is
/// emitted, the report grows a generation section, and the run
/// replays bit-identically.
#[test]
fn single_session_emits_every_token() {
    let steps = 8u32;
    let w = gen_workload(1, steps, 11);
    let fleet = small_fleet(1);
    let out = fleet.run(ServePlan::workload(&w)).unwrap();
    let r = &out.report;

    assert_eq!(r.completed, 1);
    assert!(r.decoded(), "a decode run must mark the report as generating");
    assert_eq!(r.tokens_requested, u64::from(steps));
    assert_eq!(r.tokens_emitted, u64::from(steps));
    assert_eq!(r.tokens_shed, 0);
    assert!(r.tokens_accounted());
    assert!(r.tokens_per_s > 0.0, "tokens/s must be positive: {}", r.tokens_per_s);
    assert!(r.prefill_ms_mean > 0.0, "prefill latency must be positive");
    assert!(r.decode_ms_per_token > 0.0, "decode latency must be positive");

    let rendered = r.to_string();
    assert!(rendered.contains("generation"), "report must render a generation section");
    assert!(rendered.contains("tok/s"), "report must render tokens/s");

    let again = fleet.run(ServePlan::workload(&w)).unwrap();
    assert_eq!(out.report, again.report, "decode runs must replay bit-identically");
}

/// Encoder-only runs never grow the generation section: the report
/// renders exactly as it did before decode existed.
#[test]
fn encoder_only_report_has_no_generation_section() {
    let w = Workload::poisson(8, 60_000.0, &[(96, 4, 2)], (8, 24), 11);
    let r = small_fleet(2).run(ServePlan::workload(&w)).unwrap().report;
    assert!(!r.decoded());
    assert!(r.tokens_accounted(), "0 + 0 == 0 vacuously");
    assert!(!r.to_string().contains("generation"));
}

/// Continuous batching: sessions arriving while a compatible decode
/// batch is mid-generation join it between token steps rather than
/// waiting for the card to free. Fewer batch starts than sessions is
/// the observable signature.
#[test]
fn later_arrivals_join_running_decode_batch() {
    let steps = 32u32;
    // Same shape and same padded bucket so every later arrival is a
    // legal joiner; arrivals staggered well inside the first session's
    // generation span.
    let requests: Vec<ServeRequest> = (0..4u64)
        .map(|i| ServeRequest {
            id: i,
            arrival_ns: i * 400_000,
            d_model: 96,
            heads: 4,
            layers: 2,
            seq_len: 8,
            deadline_ns: None,
            priority: Priority::Normal,
            tenant: 0,
            decode_steps: steps,
            token_deadline_ns: None,
        })
        .collect();
    let w = Workload { requests };
    let r = small_fleet(1).run(ServePlan::workload(&w)).unwrap().report;

    assert_eq!(r.completed, 4);
    assert_eq!(r.tokens_emitted, 4 * u64::from(steps));
    assert!(r.tokens_accounted());
    assert!(
        r.batches < 4,
        "with one card and staggered arrivals at least one session must \
         join a running batch, yet {} batches started for 4 sessions",
        r.batches
    );
}

/// A card crash mid-generation sheds the stranded sessions' remaining
/// tokens with a typed reason — conservation holds at every crash
/// time, and at least one sweep point actually lands mid-flight.
#[test]
fn crash_mid_generation_sheds_remaining_tokens() {
    let steps = 48u32;
    let n = 4usize;
    let mut saw_shed_tokens = false;
    for crash_at in [200_000u64, 2_000_000, 10_000_000, 40_000_000] {
        let w = gen_workload(n, steps, 23);
        let fleet = Fleet::try_new(FleetConfig {
            cards: 1,
            churn: Some(ChurnPlan {
                events: vec![ChurnEvent { at_ns: crash_at, card: 0, action: ChurnAction::Crash }],
                start_absent: vec![],
            }),
            ..FleetConfig::default()
        })
        .unwrap();
        let r = fleet.run(ServePlan::workload(&w)).unwrap().report;

        assert!(r.accounted(), "request conservation must hold at crash_at={crash_at}");
        assert!(
            r.tokens_accounted(),
            "token conservation must hold at crash_at={crash_at}: {} + {} != {}",
            r.tokens_emitted,
            r.tokens_shed,
            r.tokens_requested
        );
        assert_eq!(r.tokens_requested, (n as u64) * u64::from(steps));
        if r.tokens_shed > 0 {
            saw_shed_tokens = true;
            // Sessions die with their card (the KV cache is gone): the
            // failure is typed as the crash, not a generic shed.
            assert!(
                r.failed.iter().any(|f| matches!(f.reason, FailReason::RetriesExhausted { .. })
                    || matches!(f.reason, FailReason::AllCardsDead)),
                "shed tokens at crash_at={crash_at} must come with typed failures: {:?}",
                r.failed
            );
        }
    }
    assert!(saw_shed_tokens, "no sweep point crashed mid-generation; widen the sweep");
}

/// The serial baseline models one card with no batching — it has no
/// token loop, so generation requests are rejected with a typed error
/// instead of silently dropping their decode phase.
#[test]
fn serial_baseline_rejects_generation() {
    let w = gen_workload(2, 4, 7);
    match small_fleet(1).run(ServePlan::workload(&w).serial_baseline()) {
        Err(ServeError::Unservable { .. }) => {}
        Err(other) => panic!("expected Unservable, got {other:?}"),
        Ok(_) => panic!("serial baseline must reject generation requests"),
    }
}

#[derive(Debug, Clone)]
struct GenArrival {
    at_ns: u64,
    seq_len: usize,
    steps: u32,
    token_deadline_ns: Option<u64>,
}

const STEP_CHOICES: [u32; 4] = [0, 1, 3, 8];

fn gen_arrival() -> impl Strategy<Value = GenArrival> {
    (0u64..3_000_000, 1usize..64, 0usize..4, (0u8..2, 50_000u64..5_000_000)).prop_map(
        |(at_ns, seq_len, step_idx, (has_tok_dl, tok_dl))| GenArrival {
            at_ns,
            seq_len,
            steps: STEP_CHOICES[step_idx],
            token_deadline_ns: (has_tok_dl == 1).then_some(tok_dl),
        },
    )
}

fn workload_of(arrivals: &[GenArrival]) -> Workload {
    let mut requests: Vec<ServeRequest> = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| ServeRequest {
            id: i as u64,
            arrival_ns: a.at_ns,
            d_model: 96,
            heads: 4,
            layers: 2,
            seq_len: a.seq_len,
            deadline_ns: None,
            priority: Priority::Normal,
            tenant: 0,
            decode_steps: a.steps,
            token_deadline_ns: if a.steps > 0 { a.token_deadline_ns } else { None },
        })
        .collect();
    requests.sort_by_key(|r| (r.arrival_ns, r.id));
    Workload { requests }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Token conservation under churn, faults, admission caps, and
    /// mixed encode/decode traffic: `tokens_emitted + tokens_shed ==
    /// tokens_requested` for every arrival pattern, and the run
    /// replays bit-identically.
    #[test]
    fn tokens_conserved_under_churn_and_faults(
        arrivals in prop::collection::vec(gen_arrival(), 1..24),
        cards in 1usize..=3,
        seed in any::<u64>(),
        raw_rate in (0u8..2, 0.001f64..0.02),
        crash in (0u8..2, 0u64..20_000_000),
    ) {
        let fault_rate = if raw_rate.0 == 1 { raw_rate.1 } else { 0.0 };
        let faults = (fault_rate > 0.0).then(|| FaultConfig {
            rates: FaultRates::scaled(fault_rate),
            max_request_attempts: 4,
            retry: RetryPolicy::default(),
            ..FaultConfig::seeded(seed, fault_rate)
        });
        let churn = (crash.0 == 1).then(|| ChurnPlan {
            events: vec![ChurnEvent { at_ns: crash.1, card: 0, action: ChurnAction::Crash }],
            start_absent: vec![],
        });
        let workload = workload_of(&arrivals);
        let fleet = Fleet::try_new(FleetConfig {
            cards,
            policy: BatchPolicy {
                max_batch: 4,
                max_wait_ns: 500_000,
                seq_buckets: vec![16, 32, 64],
                max_queue: Some(3),
            },
            faults,
            churn,
            overload: Some(OverloadConfig {
                aimd: Some(AimdConfig { initial: 8, min: 2, max: 32, ..AimdConfig::default() }),
                retry_budget: Some(RetryBudgetConfig { initial: 2, per_admission: 0.3, cap: 10 }),
                hedge: None,
            }),
            ..FleetConfig::default()
        })
        .expect("valid config");

        let out = fleet
            .run(ServePlan::workload(&workload).collect_responses())
            .expect("servable shapes never error");
        let (report, responses) =
            (out.report, out.responses.expect("collect_responses populates responses"));

        let requested: u64 =
            workload.requests.iter().map(|r| u64::from(r.decode_steps)).sum();
        prop_assert_eq!(report.tokens_requested, requested);
        prop_assert!(
            report.tokens_accounted(),
            "token conservation violated: {} emitted + {} shed != {} requested",
            report.tokens_emitted, report.tokens_shed, report.tokens_requested
        );
        prop_assert!(report.tokens_on_time <= report.tokens_emitted);
        prop_assert!(report.accounted());

        // Request-level partition still holds with sessions in the mix.
        let mut all: Vec<u64> = responses.iter().map(|r| r.id).collect();
        all.extend(report.shed.iter().map(|f| f.id));
        all.extend(report.expired.iter().map(|f| f.id));
        all.extend(report.failed.iter().map(|f| f.id));
        let unique: BTreeSet<u64> = all.iter().copied().collect();
        prop_assert_eq!(unique.len(), all.len(), "a request landed in two terminal states");
        let submitted: BTreeSet<u64> = workload.requests.iter().map(|r| r.id).collect();
        prop_assert_eq!(unique, submitted);

        // Determinism: the identical run replays bit-identically.
        let again = fleet
            .run(ServePlan::workload(&workload).collect_responses())
            .expect("replay");
        prop_assert_eq!(report, again.report);
        prop_assert_eq!(responses, again.responses.expect("responses"));
    }
}
