//! Elastic-fleet behavior: scripted churn (joins paying the paper's
//! reprogramming charge, drains finishing in-flight work, crashes
//! through the health ladder), placement over heterogeneous rosters,
//! per-tenant SLO classes, brownout degradation, and the per-tenant
//! conservation law — `completed + shed + expired + failed ==
//! submitted` for *every* tenant — under arbitrary seeded churn with
//! faults and overload armed. (Mid-churn snapshot resume is pinned by
//! the root `tests/snapshot.rs` table.)

use proptest::prelude::*;
use protea_core::{Accelerator, SynthesisConfig};
use protea_platform::FpgaDevice;
use protea_serve::{
    AimdConfig, BrownoutLadder, ChurnAction, ChurnEvent, ChurnPlan, FailReason, FaultConfig, Fleet,
    FleetConfig, HedgeConfig, OverloadConfig, PlacementPolicy, Priority, RetryBudgetConfig,
    ServePlan, ServeRequest, TenantPolicy, Workload,
};

const DEADLINE_NS: u64 = 50_000_000;

/// A Poisson trace whose requests cycle through tenants 0, 1, 2.
fn multi_tenant_trace(n: usize, rate: f64, seed: u64) -> Workload {
    let mut w = Workload::poisson(n, rate, &[(96, 4, 2), (64, 4, 1)], (8, 32), seed);
    for (i, r) in w.requests.iter_mut().enumerate() {
        r.tenant = (i % 3) as u32;
    }
    w
}

fn tenant_policy() -> TenantPolicy {
    TenantPolicy::parse("1=interactive@50,2=best-effort").unwrap()
}

fn elastic_config(cards: usize, churn: ChurnPlan) -> FleetConfig {
    let device = FleetConfig::default().device;
    FleetConfig {
        cards,
        roster: Some(vec![device; cards]),
        faults: Some(FaultConfig::seeded(0xE1A5, 0.04)),
        overload: Some(OverloadConfig {
            aimd: Some(AimdConfig { initial: 8, min: 2, max: 32, ..AimdConfig::default() }),
            retry_budget: Some(RetryBudgetConfig::default()),
            hedge: Some(HedgeConfig { factor: 1.0, min_delay_ns: 300_000, min_samples: 3 }),
        }),
        churn: Some(churn),
        tenants: Some(tenant_policy()),
        brownout: Some(BrownoutLadder::default()),
        ..FleetConfig::default()
    }
}

#[test]
fn join_adds_capacity_and_pays_the_reprogramming_charge() {
    let w = Workload::poisson(40, 200_000.0, &[(96, 4, 2)], (8, 32), 99);
    // Card 1 starts absent and never joins: only card 0 ever programs.
    let short = ChurnPlan { events: Vec::new(), start_absent: vec![1] };
    let solo = Fleet::try_new(elastic_config(2, short)).unwrap();
    let solo_report = solo.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(solo_report.joins, 0);
    assert_eq!(solo_report.reprograms, 1, "one card, one class, one bitstream program");

    // Same fleet, but card 1 joins mid-run: its first batch must pay a
    // fresh reprogram (registers + weight reload — the paper's
    // retarget cost), and the extra capacity must not slow the run.
    let join = ChurnPlan {
        events: vec![ChurnEvent { at_ns: 2_000_000, card: 1, action: ChurnAction::Join }],
        start_absent: vec![1],
    };
    let fleet = Fleet::try_new(elastic_config(2, join)).unwrap();
    let report = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(report.joins, 1);
    assert!(report.reprograms >= 2, "the joined card pays its own program: {report:?}");
    assert!(report.card_utilization[1] > 0.0, "the joined card must serve: {report:?}");
    assert!(report.accounted() && report.tenants_accounted());
}

#[test]
fn drain_finishes_in_flight_work_then_leaves() {
    let w = Workload::poisson(40, 150_000.0, &[(96, 4, 2)], (8, 32), 7);
    let drain = ChurnPlan {
        events: vec![ChurnEvent { at_ns: 1_000_000, card: 0, action: ChurnAction::Drain }],
        start_absent: Vec::new(),
    };
    let fleet = Fleet::try_new(elastic_config(2, drain)).unwrap();
    let report = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(report.drains, 1);
    // A voluntary drain never abandons work: everything the fleet
    // admitted still ends in a terminal bucket, and the survivor keeps
    // serving.
    assert!(report.accounted() && report.tenants_accounted());
    assert!(report.completed > 0, "the surviving card must keep serving");
    assert!(
        report.failed.iter().all(|f| f.reason != FailReason::AllCardsDead),
        "one live card remains: {:?}",
        report.failed
    );
}

#[test]
fn brownout_sheds_lowest_classes_first_and_recovers_on_rejoin() {
    // Three cards; two crash at t=1us dropping live capacity to 1/3
    // (severe); card 1 rejoins at t=10ms lifting it back to 2/3
    // (degraded). No random faults, no tenant policy: the trace's own
    // priorities drive the ladder.
    let churn = ChurnPlan {
        events: vec![
            ChurnEvent { at_ns: 1_000, card: 1, action: ChurnAction::Crash },
            ChurnEvent { at_ns: 1_000, card: 2, action: ChurnAction::Crash },
            ChurnEvent { at_ns: 10_000_000, card: 1, action: ChurnAction::Join },
        ],
        start_absent: Vec::new(),
    };
    let device = FleetConfig::default().device;
    let fleet = Fleet::try_new(FleetConfig {
        cards: 3,
        roster: Some(vec![device; 3]),
        faults: Some(FaultConfig::seeded(1, 0.0)),
        churn: Some(churn),
        brownout: Some(BrownoutLadder { degraded: 0.9, severe: 0.5 }),
        ..FleetConfig::default()
    })
    .unwrap();

    // Phase one (severe, live 1/3 < 0.5): only interactive admitted.
    // Phase two (degraded, live 2/3 < 0.9): normal readmitted,
    // best-effort still shed.
    let mk = |id: u64, at: u64, priority: Priority| ServeRequest {
        id,
        arrival_ns: at,
        d_model: 96,
        heads: 4,
        layers: 2,
        seq_len: 16,
        priority,
        deadline_ns: None,
        tenant: 0,
        decode_steps: 0,
        token_deadline_ns: None,
    };
    let requests = vec![
        mk(0, 2_000, Priority::BestEffort),
        mk(1, 3_000, Priority::Normal),
        mk(2, 4_000, Priority::Interactive),
        mk(3, 11_000_000, Priority::BestEffort),
        mk(4, 11_001_000, Priority::Normal),
        mk(5, 11_002_000, Priority::Interactive),
    ];
    let report = fleet.run(ServePlan::workload(&Workload { requests })).unwrap().report;

    let shed_ids: Vec<u64> = report.shed.iter().map(|f| f.id).collect();
    assert_eq!(shed_ids, vec![0, 1, 3], "severe sheds 0+1, degraded sheds only 3: {report:?}");
    assert!(
        report.shed.iter().all(|f| f.reason == FailReason::Brownout),
        "every brownout shed is typed: {:?}",
        report.shed
    );
    assert_eq!(report.completed, 3, "2, 4, and 5 ride out the brownout");
    assert!(report.accounted() && report.tenants_accounted());
}

#[test]
fn fastest_first_placement_routes_to_the_higher_clock() {
    // U200 and U250 synthesize to different clocks; a single request
    // under fastest-first must land on whichever card clocks higher.
    let roster = vec![FpgaDevice::alveo_u200(), FpgaDevice::alveo_u250()];
    let synthesis = SynthesisConfig::paper_default();
    let fmax: Vec<f64> = roster
        .iter()
        .map(|d| Accelerator::try_new(synthesis, d).unwrap().design().fmax_mhz)
        .collect();
    assert_ne!(fmax[0], fmax[1], "the roster must actually be heterogeneous");
    let fastest = usize::from(fmax[1] > fmax[0]);

    let w = Workload::poisson(1, 50_000.0, &[(96, 4, 2)], (8, 16), 3);
    let fleet = Fleet::try_new(FleetConfig {
        cards: 2,
        roster: Some(roster),
        placement: PlacementPolicy::FastestFirst,
        ..FleetConfig::default()
    })
    .unwrap();
    let report = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert!(report.card_utilization[fastest] > 0.0, "{report:?}");
    assert_eq!(report.card_utilization[1 - fastest], 0.0, "{report:?}");
}

#[test]
fn tie_broken_policies_match_first_free_on_a_uniform_roster() {
    // On a uniform idle roster every policy's tie-break is the lowest
    // index, so fastest-first must reproduce the historical schedule
    // byte-for-byte.
    let w = Workload::poisson(48, 80_000.0, &[(96, 4, 2), (64, 4, 1)], (8, 32), 1234);
    let base = Fleet::try_new(FleetConfig { cards: 3, ..FleetConfig::default() }).unwrap();
    let fast = Fleet::try_new(FleetConfig {
        cards: 3,
        placement: PlacementPolicy::FastestFirst,
        ..FleetConfig::default()
    })
    .unwrap();
    let a = base.run(ServePlan::workload(&w)).unwrap().report;
    let b = fast.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(a, b);
    assert_eq!(a.to_string(), b.to_string());
}

#[test]
fn capacity_aware_placement_spreads_load_across_a_mixed_roster() {
    let roster = vec![FpgaDevice::alveo_u200(), FpgaDevice::alveo_u250()];
    let w = Workload::poisson(60, 250_000.0, &[(96, 4, 2)], (8, 32), 11);
    let fleet = Fleet::try_new(FleetConfig {
        cards: 2,
        roster: Some(roster),
        placement: PlacementPolicy::CapacityAware,
        ..FleetConfig::default()
    })
    .unwrap();
    let report = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(report.completed, 60);
    assert!(
        report.card_utilization.iter().all(|&u| u > 0.0),
        "both cards must share the load: {report:?}"
    );
}

#[test]
fn tenant_slo_rows_appear_and_account_every_request() {
    let w = multi_tenant_trace(48, 80_000.0, 42).with_deadline(DEADLINE_NS);
    let fleet = Fleet::try_new(elastic_config(3, ChurnPlan::seeded(5, 3, 20_000_000, 4))).unwrap();
    let report = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(report.tenant_slo.len(), 3, "three tenants sent traffic: {report:?}");
    assert!(report.tenants_accounted());
    let rendered = report.to_string();
    assert!(rendered.contains("tenant"), "tenant rows must render: {rendered}");
    for row in &report.tenant_slo {
        assert!(row.accounted(), "tenant {} leaks requests: {row:?}", row.tenant);
    }
    // Tenant 1 runs interactive-with-deadline, tenant 2 best-effort:
    // the policy's stamp must be visible in the row shapes.
    let t1 = report.tenant_slo.iter().find(|r| r.tenant == 1).unwrap();
    assert!(t1.within_deadline <= t1.completed);
}

#[test]
fn single_tenant_managed_report_stays_in_the_pre_tenancy_shape() {
    // No tenant policy, all traffic on tenant 0: the rendered report
    // must not grow tenant rows (byte-compat with earlier eras).
    let w = Workload::poisson(24, 80_000.0, &[(96, 4, 2)], (8, 32), 9);
    let fleet = Fleet::try_new(FleetConfig {
        cards: 2,
        faults: Some(FaultConfig::seeded(0xFA11, 0.03)),
        ..FleetConfig::default()
    })
    .unwrap();
    let report = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert!(report.tenant_slo.is_empty());
    assert!(!report.to_string().contains("tenant"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: per-tenant conservation holds under
    /// *arbitrary* seeded churn with faults, overload control, a
    /// bounded queue, tenant classes, and brownout all armed — and the
    /// whole run replays deterministically.
    #[test]
    fn per_tenant_conservation_survives_arbitrary_churn(
        seed in 0u64..512,
        churn_seed in 0u64..512,
        churn_n in 0usize..10,
        rate in 30_000f64..160_000f64,
    ) {
        let w = multi_tenant_trace(42, rate, seed).with_deadline(DEADLINE_NS);
        let mut config = elastic_config(3, ChurnPlan::seeded(churn_seed, 3, 40_000_000, churn_n));
        config.policy.max_queue = Some(24);
        config.faults = Some(FaultConfig::seeded(seed ^ 0xF00D, 0.05));
        let fleet = Fleet::try_new(config).unwrap();

        let report = fleet.run(ServePlan::workload(&w)).unwrap().report;
        prop_assert_eq!(report.submitted, w.requests.len());
        prop_assert!(report.accounted(), "global conservation violated: {:?}", report);
        prop_assert!(report.tenants_accounted(), "tenant conservation violated: {:?}", report);
        let tenant_submitted: usize = report.tenant_slo.iter().map(|r| r.submitted).sum();
        prop_assert_eq!(tenant_submitted, report.submitted);

        let again = fleet.run(ServePlan::workload(&w)).unwrap().report;
        prop_assert_eq!(report, again, "churn must replay bit-identically");
    }
}
