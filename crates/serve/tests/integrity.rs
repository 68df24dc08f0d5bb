//! Silent-data-corruption defense, end to end: seeded injection into
//! weights and activations, ABFT + weight-digest detection, and the
//! quarantine-and-reprogram recovery ladder — with the conservation law
//! intact (re-executed batches count exactly once), deterministic
//! replay, and a pinned zero-overhead-when-off guarantee: with every
//! SDC knob at rest, reports and snapshots are byte-identical to an
//! undefended fleet's. (Defended snapshot resume is pinned by the root
//! `tests/snapshot.rs` table.)

use protea_core::{SdcEvent, SdcSite};
use protea_serve::{FaultConfig, Fleet, FleetConfig, SdcConfig, ServePlan, Workload};

fn trace(n: usize, seed: u64) -> Workload {
    Workload::poisson(n, 80_000.0, &[(96, 4, 2), (64, 4, 1)], (8, 32), seed)
}

fn fleet_with(fault_rate: f64, sdc: Option<SdcConfig>) -> Fleet {
    Fleet::try_new(FleetConfig {
        cards: 2,
        faults: Some(FaultConfig::seeded(0x5DC, fault_rate)),
        sdc,
        ..FleetConfig::default()
    })
    .unwrap()
}

#[test]
fn sdc_knobs_at_rest_are_byte_identical_to_an_undefended_fleet() {
    let w = trace(48, 4242);
    let off = fleet_with(0.02, None);
    // `Some` with every knob at rest must behave exactly like `None`:
    // the armed() filter keeps the machinery unallocated.
    let disarmed = fleet_with(0.02, Some(SdcConfig::default()));

    let a = off.run(ServePlan::workload(&w).snapshot_every(8)).unwrap();
    let b = disarmed.run(ServePlan::workload(&w).snapshot_every(8)).unwrap();
    assert_eq!(a.report, b.report);
    assert_eq!(a.report.to_string(), b.report.to_string());
    assert!(!a.report.sdc(), "no SDC section without SDC knobs");
    assert!(!a.report.to_string().contains("integrity"));
    assert_eq!(a.state_hash, b.state_hash);
    assert_eq!(a.snapshots.len(), b.snapshots.len());
    for (x, y) in a.snapshots.iter().zip(&b.snapshots) {
        assert_eq!(x.to_string(), y.to_string(), "snapshots must stay byte-identical");
        assert!(!x.to_string().contains("s.counters"), "a disarmed config writes no SDC block");
    }
}

#[test]
fn defended_run_detects_recovers_and_conserves_every_request() {
    let w = trace(96, 7);
    let fleet = fleet_with(0.02, Some(SdcConfig::defended(9, 0.4, 1_000_000)));
    let report = fleet.run(ServePlan::workload(&w)).unwrap().report;

    assert!(report.sdc_injected > 0, "the rate must actually strike: {report}");
    assert!(report.sdc_detected > 0, "ABFT + scrub must catch hits: {report}");
    assert!(report.scrubs > 0, "the periodic scrub must fire: {report}");
    assert!(report.sdc_coverage() >= 0.99, "defended coverage: {report}");
    // Conservation: a re-executed batch's requests complete exactly
    // once — the ladder never double-counts or drops work.
    assert!(report.accounted(), "conservation violated: {report:?}");
    assert_eq!(report.submitted, w.requests.len());
    assert!(report.to_string().contains("integrity"), "the report must render the SDC row");

    // Determinism: the whole defense replays bit-identically.
    let again = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(report, again);
    assert_eq!(report.to_string(), again.to_string());
}

#[test]
fn undefended_injection_is_silently_wrong_defense_closes_the_gap() {
    // A single-class trace keeps every card warm after its first load,
    // so the load-time digest rung never fires incidentally: with no
    // detector armed, *nothing* stands between a hit and the caller.
    let w = Workload::poisson(96, 80_000.0, &[(96, 4, 2)], (8, 32), 11);
    // Same corruption stream, no detector armed: every hit is served.
    let exposed = fleet_with(0.02, Some(SdcConfig { seed: 9, rate: 0.4, ..SdcConfig::default() }));
    let r = exposed.run(ServePlan::workload(&w)).unwrap().report;
    assert!(r.sdc_injected > 0);
    assert_eq!(r.sdc_detected, 0, "nothing armed, nothing caught: {r}");
    assert!(r.sdc_missed > 0, "undefended hits are silently wrong: {r}");
    assert!(r.sdc_coverage() < 0.5, "{r}");

    let defended = fleet_with(0.02, Some(SdcConfig::defended(9, 0.4, 1_000_000)));
    let d = defended.run(ServePlan::workload(&w)).unwrap().report;
    assert!(d.sdc_coverage() > r.sdc_coverage(), "the defense must close the gap: {d}");
    assert!(d.sdc_coverage() >= 0.99, "{d}");
}

/// Satellite: a scripted weight-site corruption is caught by the scrub,
/// the card is quarantined, pays the full reprogram + weight-reload
/// price, requalifies with a verified digest, and rejoins dispatch —
/// all deterministic from the seed.
#[test]
fn quarantine_reprogram_rejoin_restores_the_card() {
    let w = trace(64, 21);
    let scripted = SdcConfig {
        seed: 3,
        rate: 0.0,
        events: vec![SdcEvent { at_ns: 500_000, card: 0, site: SdcSite::Weights }],
        abft: true,
        scrub_every_ns: Some(400_000),
        ..SdcConfig::default()
    };
    let clean = fleet_with(0.0, Some(SdcConfig { events: Vec::new(), ..scripted.clone() }));
    let baseline = clean.run(ServePlan::workload(&w)).unwrap().report;

    let fleet = fleet_with(0.0, Some(scripted));
    let report = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(report.sdc_injected, 1, "exactly the scripted hit: {report}");
    assert_eq!(report.sdc_detected, 1, "the scrub must catch the resident hit: {report}");
    assert_eq!(report.sdc_missed, 0, "{report}");
    assert!(
        report.reprograms > baseline.reprograms,
        "quarantine must pay a reprogram + reload the baseline never does: \
         {} vs {}",
        report.reprograms,
        baseline.reprograms
    );
    // The card requalifies and keeps serving: the run still completes
    // everything on both cards.
    assert!(report.accounted(), "{report:?}");
    assert_eq!(report.completed, w.requests.len(), "{report}");
    assert!(report.card_utilization[0] > 0.0, "card 0 must rejoin dispatch: {report:?}");

    let again = fleet.run(ServePlan::workload(&w)).unwrap().report;
    assert_eq!(report, again, "quarantine recovery must replay bit-identically");
}
