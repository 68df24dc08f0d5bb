//! The timing-only fleet simulator is single-threaded: serving a soak
//! like perfbench's `fleet_soak` (eight cards, batches of up to eight,
//! three capacity classes at 2,500 req/s with periodic snapshots) must
//! never start the vendored rayon's worker pool. The pool's threads are
//! named `rayon-worker-N`, so the check counts them by name. This binary
//! holds one test, so nothing else in the process could start them.

use protea::prelude::*;
use protea::serve::BatchPolicy;

#[cfg(target_os = "linux")]
fn pool_workers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("rayon-worker"))
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn a_timing_only_soak_starts_no_pool_worker() {
    let fleet = Fleet::try_new(FleetConfig {
        cards: 8,
        policy: BatchPolicy { max_batch: 8, ..BatchPolicy::default() },
        ..FleetConfig::default()
    })
    .unwrap();
    let classes = [(96, 4, 2), (64, 4, 1), (96, 4, 1)];
    let trace = Workload::poisson(2_000, 2_500.0, &classes, (8, 32), 7);
    let outcome = fleet.run(ServePlan::workload(&trace).snapshot_every(500)).unwrap();
    assert_eq!(outcome.report.completed, trace.requests.len());
    assert_eq!(pool_workers(), 0, "the fleet simulator must not start the worker pool");
}
