//! Snapshot/resume determinism: a run interrupted at any epoch and
//! resumed from its `FleetSnapshot` must be *bit-identical* to the
//! uninterrupted run — same per-epoch snapshots, same final state
//! hash, same `ServeReport` down to the rendered string — for every
//! kind of fleet the one snapshot grammar has to carry: plain, managed
//! (faults + overload + deadlines), elastic (churn + tenants +
//! brownout), SDC-defended, and mid-generation. The file itself is
//! untrusted input: tampering, foreign headers, and hostile counts
//! all fail typed, never panic.

use protea::core::CoreError;
use protea::hwsim::Fnv64;
use protea::serve::{
    AimdConfig, BatchPolicy, BrownoutLadder, ChurnPlan, FaultConfig, Fleet, FleetConfig,
    FleetSnapshot, HedgeConfig, MetricsMode, OverloadConfig, PoissonSource, RetryBudgetConfig,
    SdcConfig, ServeError, ServePlan, TenantPolicy, Workload,
};

const EVERY: u64 = 8;

fn trace() -> Workload {
    Workload::poisson(48, 80_000.0, &[(96, 4, 2), (64, 4, 1)], (8, 32), 4242)
}

fn overload() -> OverloadConfig {
    OverloadConfig {
        aimd: Some(AimdConfig { initial: 8, min: 2, max: 32, ..AimdConfig::default() }),
        retry_budget: Some(RetryBudgetConfig::default()),
        hedge: Some(HedgeConfig { factor: 1.0, min_delay_ns: 300_000, min_samples: 3 }),
    }
}

fn plain_fleet() -> Fleet {
    Fleet::try_new(FleetConfig { cards: 3, ..FleetConfig::default() }).unwrap()
}

fn managed_fleet() -> Fleet {
    Fleet::try_new(FleetConfig {
        cards: 2,
        policy: BatchPolicy { max_batch: 4, max_queue: Some(64), ..BatchPolicy::default() },
        faults: Some(FaultConfig::seeded(0xFA11, 0.05)),
        overload: Some(overload()),
        ..FleetConfig::default()
    })
    .unwrap()
}

/// Churn, three tenant classes, and brownout on an explicit roster.
fn elastic_fleet() -> Fleet {
    let cards = 3;
    Fleet::try_new(FleetConfig {
        cards,
        roster: Some(vec![FleetConfig::default().device; cards]),
        faults: Some(FaultConfig::seeded(0xE1A5, 0.04)),
        overload: Some(overload()),
        churn: Some(ChurnPlan::seeded(0xC0DE, cards, 30_000_000, 6)),
        tenants: Some(TenantPolicy::parse("1=interactive@50,2=best-effort").unwrap()),
        brownout: Some(BrownoutLadder::default()),
        ..FleetConfig::default()
    })
    .unwrap()
}

/// A Poisson trace whose requests cycle through tenants 0, 1, 2.
fn multi_tenant_trace() -> Workload {
    let mut w = trace().with_deadline(50_000_000);
    for (i, r) in w.requests.iter_mut().enumerate() {
        r.tenant = (i % 3) as u32;
    }
    w
}

fn sdc_fleet() -> Fleet {
    Fleet::try_new(FleetConfig {
        cards: 2,
        faults: Some(FaultConfig::seeded(0x5DC, 0.02)),
        sdc: Some(SdcConfig::defended(9, 0.2, 1_000_000)),
        ..FleetConfig::default()
    })
    .unwrap()
}

/// Generation sessions with arrivals staggered across the generation
/// span, so later snapshots capture cards with resident mid-decode
/// sessions (a dense burst would put every snapshot before the first
/// batch starts, leaving the restored-session path untested).
fn staggered_generation() -> Workload {
    let mut w = Workload::poisson(6, 60_000.0, &[(96, 4, 2)], (8, 24), 31).with_decode(12, None);
    for (i, r) in w.requests.iter_mut().enumerate() {
        r.arrival_ns = (i as u64) * 4_000_000;
    }
    w
}

/// One row of the resume table: a fleet, its workload, the snapshot
/// cadence, and a line prefix some captured snapshot must carry (so
/// the row really exercises the section it is there for).
struct Case {
    name: &'static str,
    fleet: Fleet,
    workload: Workload,
    every: u64,
    section: &'static str,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "plain",
            fleet: plain_fleet(),
            workload: trace(),
            every: EVERY,
            section: "queue ",
        },
        Case {
            name: "managed",
            fleet: managed_fleet(),
            workload: trace().with_deadline(50_000_000),
            every: EVERY,
            section: "inflight ",
        },
        Case {
            name: "elastic",
            fleet: elastic_fleet(),
            workload: multi_tenant_trace(),
            every: EVERY,
            section: "tenant 2 ",
        },
        Case {
            name: "sdc",
            fleet: sdc_fleet(),
            workload: trace(),
            every: EVERY,
            section: "s.counters ",
        },
        Case {
            name: "generation",
            fleet: Fleet::try_new(FleetConfig { cards: 2, ..FleetConfig::default() }).unwrap(),
            workload: staggered_generation(),
            every: 2,
            section: "sess ",
        },
    ]
}

/// Run uninterrupted with periodic snapshots, then resume from EVERY
/// captured epoch and demand bit-identity: the resumed run's remaining
/// snapshots, final state hash, and report must all match the
/// uninterrupted run's.
fn assert_resume_bit_identical(case: &Case) {
    let Case { name, fleet, workload: w, every, section } = case;
    let full = fleet.run(ServePlan::workload(w).snapshot_every(*every)).unwrap();
    let full_hash = full.state_hash.unwrap();
    assert!(!full.snapshots.is_empty(), "{name}: the run must have captured snapshots");
    assert!(
        full.snapshots.iter().any(|s| s.to_string().lines().any(|l| l.starts_with(section))),
        "{name}: no snapshot carries a `{section}` line"
    );

    for (i, snap) in full.snapshots.iter().enumerate() {
        let epoch = snap.arrivals();
        // Round-trip through the canonical text form first: resuming
        // from a *parsed* snapshot is the cross-process story.
        let reparsed = FleetSnapshot::parse(&snap.to_string()).unwrap();
        assert_eq!(&reparsed, snap);

        let resumed =
            fleet.run(ServePlan::workload(w).snapshot_every(*every).resume(reparsed)).unwrap();
        assert_eq!(
            resumed.state_hash.unwrap(),
            full_hash,
            "{name}: final state hash diverged when resuming from epoch {epoch}"
        );
        assert_eq!(resumed.report, full.report, "{name}: report diverged from epoch {epoch}");
        assert_eq!(
            resumed.report.to_string(),
            full.report.to_string(),
            "{name}: rendered report diverged from epoch {epoch}"
        );
        // Every snapshot the resumed run captures after the handoff
        // must be byte-identical to the uninterrupted run's at the same
        // epoch.
        let expected_rest = &full.snapshots[i + 1..];
        assert_eq!(
            resumed.snapshots.len(),
            expected_rest.len(),
            "{name}: snapshot cadence changed after resuming from epoch {epoch}"
        );
        for (r, e) in resumed.snapshots.iter().zip(expected_rest) {
            assert_eq!(r.to_string(), e.to_string(), "{name}: epoch {} diverged", e.arrivals());
        }
    }
}

#[test]
fn every_fleet_kind_resumes_bit_identically_from_every_epoch() {
    for case in cases() {
        assert_resume_bit_identical(&case);
    }
}

#[test]
fn streaming_sketch_run_resumes_bit_identically() {
    let n = 96;
    let args = (120_000.0, [(96, 4, 2), (64, 4, 1)], (8, 32), 7u64);
    let fleet = plain_fleet();

    let mut source = PoissonSource::new(n, args.0, &args.1, args.2, args.3);
    let full = fleet
        .run(ServePlan::stream(&mut source).metrics(MetricsMode::Sketch).snapshot_every(16))
        .unwrap();
    let full_hash = full.state_hash.unwrap();

    let mid = &full.snapshots[full.snapshots.len() / 2];
    // Resume with a *fresh* source: apply() must seek it to the
    // captured cursor (emitted count, RNG position, arrival clock).
    let mut fresh = PoissonSource::new(n, args.0, &args.1, args.2, args.3);
    let resumed = fleet
        .run(
            ServePlan::stream(&mut fresh)
                .metrics(MetricsMode::Sketch)
                .snapshot_every(16)
                .resume(mid.clone()),
        )
        .unwrap();
    assert_eq!(resumed.state_hash.unwrap(), full_hash);
    assert_eq!(resumed.report, full.report);
    assert_eq!(resumed.report.to_string(), full.report.to_string());
}

#[test]
fn state_hash_is_stable_across_identical_runs_and_sensitive_to_the_seed() {
    let fleet = managed_fleet();
    let w = trace();
    let a = fleet.run(ServePlan::workload(&w).snapshot_every(EVERY)).unwrap();
    let b = fleet.run(ServePlan::workload(&w).snapshot_every(EVERY)).unwrap();
    assert_eq!(a.state_hash, b.state_hash);
    let hashes_a: Vec<u64> = a.snapshots.iter().map(FleetSnapshot::state_hash).collect();
    let hashes_b: Vec<u64> = b.snapshots.iter().map(FleetSnapshot::state_hash).collect();
    assert_eq!(hashes_a, hashes_b, "per-epoch hashes must replay exactly");

    let other = Workload::poisson(48, 80_000.0, &[(96, 4, 2), (64, 4, 1)], (8, 32), 4243);
    let c = fleet.run(ServePlan::workload(&other).snapshot_every(EVERY)).unwrap();
    assert_ne!(a.state_hash, c.state_hash, "a different workload must change the hash");
}

/// Replace the body of a snapshot's text and re-seal it, so the
/// trailer verifies: the FNV trailer is a checksum, not a MAC.
fn reseal(text: &str, edit: impl FnOnce(&mut Vec<String>)) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    lines.pop();
    edit(&mut lines);
    let body = lines.join("\n");
    format!("{body}\nhash {:016x}\n", Fnv64::hash(body.as_bytes()))
}

#[test]
fn tampered_snapshot_text_is_rejected() {
    let fleet = plain_fleet();
    let w = trace();
    let out = fleet.run(ServePlan::workload(&w).snapshot_every(EVERY)).unwrap();
    let text = out.snapshots[0].to_string();

    // Flip one digit in a counter line: the hash trailer must catch it,
    // and a tampered seal is an *integrity* error — untrusted input,
    // with its own exit code — not a generic snapshot error.
    let tampered = text.replacen("arrivals 8", "arrivals 9", 1);
    assert_ne!(tampered, text, "the fixture must actually tamper the text");
    match FleetSnapshot::parse(&tampered) {
        Err(err @ ServeError::SnapshotIntegrity { .. }) => {
            assert!(err.to_string().contains("hash mismatch"), "{err}");
            assert_eq!(CoreError::from(err).exit_code(), 9);
        }
        other => panic!("tampered snapshot accepted: {other:?}"),
    }

    // Truncation loses the trailer: also an integrity failure.
    let truncated: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
    match FleetSnapshot::parse(&truncated) {
        Err(ServeError::SnapshotIntegrity { .. }) => {}
        other => panic!("truncated snapshot accepted: {other:?}"),
    }
}

#[test]
fn earlier_and_unknown_grammar_headers_are_integrity_errors_with_their_own_exit_code() {
    let fleet = plain_fleet();
    let w = trace();
    let out = fleet.run(ServePlan::workload(&w).snapshot_every(EVERY)).unwrap();
    let text = out.snapshots[0].to_string();

    // Rewrite the header and re-seal the body so the trailer verifies:
    // the header check itself must reject every other grammar version,
    // v1-v4 included.
    for v in [1, 2, 3, 4, 9] {
        let resealed = reseal(&text, |lines| lines[0] = format!("protea-fleet-snapshot v{v}"));
        let err = FleetSnapshot::parse(&resealed).unwrap_err();
        assert!(matches!(err, ServeError::SnapshotIntegrity { .. }), "v{v}: {err}");
        assert!(err.to_string().contains("unsupported snapshot header"), "v{v}: {err}");
        assert_eq!(CoreError::from(err).exit_code(), 9, "integrity failures get exit code 9");
    }
}

/// A resealed snapshot whose counts claim `u64::MAX` entries must fail
/// typed once the body runs out, not try to preallocate that many.
#[test]
fn hostile_counts_in_a_resealed_snapshot_are_typed_errors() {
    let fleet = managed_fleet();
    let w = trace().with_deadline(50_000_000);
    let out = fleet.run(ServePlan::workload(&w).snapshot_every(EVERY)).unwrap();
    let text = out
        .snapshots
        .iter()
        .map(ToString::to_string)
        .find(|t| t.lines().any(|l| l.starts_with("queue ")))
        .expect("some snapshot must hold a nonempty queue");

    // `queue <d_model> <heads> <layers> <padded> <count>` and
    // `svc <count> <samples…>`.
    let hostile = [("queue ", 5), ("svc ", 1)];
    for (tag, count_at) in hostile {
        let resealed = reseal(&text, |lines| {
            let line = lines.iter_mut().find(|l| l.starts_with(tag)).expect("line present");
            let mut toks: Vec<String> = line.split(' ').map(str::to_owned).collect();
            toks[count_at] = u64::MAX.to_string();
            *line = toks.join(" ");
        });
        let snap = FleetSnapshot::parse(&resealed).expect("a resealed body verifies");
        match fleet.run(ServePlan::workload(&w).resume(snap)) {
            Err(ServeError::Snapshot { .. }) => {}
            other => panic!("hostile `{tag}` count: {:?}", other.map(|o| o.report)),
        }
    }
}

#[test]
fn resume_under_a_different_config_or_source_is_rejected() {
    let w = trace();
    let snap = plain_fleet()
        .run(ServePlan::workload(&w).snapshot_every(EVERY))
        .unwrap()
        .snapshots
        .remove(0);

    // Different fleet config (4 cards instead of 3; an armed SDC
    // defense): digest mismatch.
    let more_cards = FleetConfig { cards: 4, ..FleetConfig::default() };
    let defended = FleetConfig {
        cards: 3,
        sdc: Some(SdcConfig::defended(9, 0.05, 1_000_000)),
        ..FleetConfig::default()
    };
    for config in [more_cards, defended] {
        let other = Fleet::try_new(config).unwrap();
        match other.run(ServePlan::workload(&w).resume(snap.clone())) {
            Err(ServeError::Snapshot { msg }) => {
                assert!(msg.contains("different fleet config"), "{msg}")
            }
            other => panic!("config mismatch accepted: {:?}", other.map(|o| o.report)),
        }
    }

    // Different source kind (snapshot recorded a workload-stream).
    let mut poisson = PoissonSource::new(48, 80_000.0, &[(96, 4, 2)], (8, 32), 4242);
    match plain_fleet().run(ServePlan::stream(&mut poisson).resume(snap)) {
        Err(ServeError::Snapshot { msg }) => assert!(msg.contains("source"), "{msg}"),
        other => panic!("source-kind mismatch accepted: {:?}", other.map(|o| o.report)),
    }
}

/// Corruption fuzz over the whole file: flipping a byte at *every*
/// offset of a sealed managed snapshot must either still parse to the
/// bit-exact original (flips the canonical form never reads, e.g. a
/// trailing newline) or fail as a typed [`ServeError::SnapshotIntegrity`]
/// with exit code 9 — never a panic, never a silently different state.
#[test]
fn every_single_byte_flip_is_caught_or_harmless() {
    let device = FleetConfig::default().device;
    let fleet = Fleet::try_new(FleetConfig {
        cards: 2,
        roster: Some(vec![device; 2]),
        faults: Some(FaultConfig::seeded(0xF1B, 0.05)),
        ..FleetConfig::default()
    })
    .unwrap();
    let w = Workload::poisson(24, 80_000.0, &[(96, 4, 2)], (8, 32), 31);
    let out = fleet.run(ServePlan::workload(&w).snapshot_every(EVERY)).unwrap();
    let snap = &out.snapshots[0];
    let text = snap.to_string();
    let bytes = text.as_bytes();

    let mut rejected = 0u32;
    for offset in 0..bytes.len() {
        for mask in [0x01u8, 0xFF] {
            let mut corrupt = bytes.to_vec();
            corrupt[offset] ^= mask;
            // Non-UTF-8 output cannot even reach the parser; any real
            // consumer rejects it while reading the file.
            let Ok(corrupt) = String::from_utf8(corrupt) else {
                rejected += 1;
                continue;
            };
            match FleetSnapshot::parse(&corrupt) {
                Ok(back) => assert_eq!(
                    &back, snap,
                    "offset {offset} mask {mask:#x}: a surviving parse must be bit-exact"
                ),
                Err(err @ ServeError::SnapshotIntegrity { .. }) => {
                    rejected += 1;
                    assert_eq!(CoreError::from(err).exit_code(), 9);
                }
                Err(other) => {
                    panic!("offset {offset} mask {mask:#x}: untyped rejection {other:?}")
                }
            }
        }
    }
    assert!(rejected > 0, "the sweep must exercise the rejection path");
}

#[test]
fn managed_snapshot_text_survives_a_parse_round_trip() {
    // The managed snapshot exercises every section of the fault state
    // (fault streams, monitors, inflight batches, failure lists,
    // limiter, retry budget, service-time tracker).
    let fleet = managed_fleet();
    let w = trace().with_deadline(50_000_000);
    let out = fleet.run(ServePlan::workload(&w).snapshot_every(EVERY)).unwrap();
    for snap in &out.snapshots {
        let text = snap.to_string();
        let back = text.parse::<FleetSnapshot>().unwrap();
        assert_eq!(&back, snap);
        assert_eq!(back.to_string(), text, "Display must be canonical");
    }
}
