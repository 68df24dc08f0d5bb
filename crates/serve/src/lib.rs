//! # protea-serve — batched multi-accelerator serving simulation
//!
//! This crate answers the deployment question the single-request
//! co-simulation in `protea-core` cannot: *what throughput and tail
//! latency does a fleet of ProTEA cards sustain under a live request
//! stream?* It layers a queueing simulation on top of the cycle-level
//! model:
//!
//! 1. a [`Workload`] — a trace of [`ServeRequest`]s (parsed from JSON or
//!    synthesized as a Poisson process);
//! 2. a [`BatchScheduler`] grouping compatible requests (same
//!    [`CapacityClass`], same padded sequence-length bucket) so one card
//!    program amortizes register writes and weight loads across a batch;
//! 3. a [`Fleet`] of N simulated cards dispatching batches in a
//!    discrete-event simulation (nanosecond ticks on `protea-hwsim`'s
//!    kernel), with per-class weight-reload costs charged when a card
//!    switches classes;
//! 4. a [`ServeReport`] with throughput (inferences/s and useful GOPS)
//!    plus p50/p95/p99 queueing and end-to-end latency.
//!
//! The entire request path is fallible: hostile traces, oversized
//! shapes, and infeasible fleet configurations come back as
//! [`ServeError`] values — no panic is reachable from user input.
//!
//! Attaching a [`FaultConfig`] to the [`FleetConfig`] runs the same
//! simulation under deterministic fault injection: seeded per-card
//! fault streams (ECC flips, AXI stalls/timeouts, card crashes) drive
//! the driver's watchdog/retry machinery, per-card health tracking and
//! a circuit breaker steer dispatch away from failing cards, and
//! in-flight batches are requeued onto survivors. Every submitted
//! request ends in exactly one of `completed` or [`FailedRequest`] —
//! none is ever silently dropped — and the whole run replays
//! bit-identically from its seed.
//!
//! The overload-control layer keeps the fleet useful when offered load
//! exceeds capacity: a bounded [`BatchPolicy::max_queue`] plus an
//! [`OverloadConfig`] (AIMD concurrency limiting, a fleet-wide
//! [`RetryBudget`] against requeue storms, hedged dispatch of
//! stragglers) and per-request deadlines/priorities turn unbounded
//! queueing into priority-aware load shedding. The report then
//! separates *goodput* (deadline-meeting completions) from raw
//! throughput and accounts every request into exactly one of
//! `completed`, `shed`, `expired`, or `failed`. Every knob defaults to
//! off, reproducing the historical schedule bit-exactly.
//!
//! Every run goes through one entry point: build a [`ServePlan`]
//! (which workload source, which metrics mode, whether to trace,
//! snapshot, or resume) and hand it to [`Fleet::run`]:
//!
//! ```
//! use protea_serve::{Fleet, FleetConfig, ServePlan, Workload};
//!
//! let workload = Workload::poisson(16, 50_000.0, &[(96, 4, 2)], (8, 16), 7);
//! let fleet = Fleet::try_new(FleetConfig { cards: 2, ..FleetConfig::default() })?;
//! let report = fleet.run(ServePlan::workload(&workload))?.report;
//! assert_eq!(report.completed, 16);
//! println!("{report}");
//! # Ok::<(), protea_serve::ServeError>(())
//! ```
//!
//! Million-request runs stream instead: a [`WorkloadSource`] (the lazy
//! [`PoissonSource`], or any caller-supplied stream) yields one request
//! at a time through [`ServePlan::stream`], [`MetricsMode::Sketch`]
//! folds completions into an O(1) log-histogram [`StreamMetrics`], and
//! `snapshot_every` captures [`FleetSnapshot`]s a later process resumes
//! bit-identically.
//!
//! The elastic layer makes the fleet a moving target: a heterogeneous
//! device roster with a [`PlacementPolicy`], a scripted [`ChurnPlan`]
//! (joins that pay the paper's full reprogramming charge, drains that
//! finish in-flight work, crashes through the health ladder), a
//! [`TenantPolicy`] mapping tenant ids to priority/deadline classes,
//! and a [`BrownoutLadder`] that sheds the lowest classes first as live
//! capacity drops — with per-tenant accounting ([`TenantSlo`]) obeying
//! the same conservation law under arbitrary churn.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod elastic;
mod error;
mod faults;
mod fleet;
mod health;
mod memo;
mod overload;
mod plan;
mod report;
mod request;
mod scheduler;
mod sketch;
mod source;
mod trace;

pub use elastic::{
    BrownoutLadder, ChurnAction, ChurnEvent, ChurnPlan, PlacementPolicy, TenantClass, TenantPolicy,
};
pub use error::ServeError;
pub use faults::{FailReason, FailedRequest, FaultConfig, SdcConfig};
pub use fleet::snapshot::FleetSnapshot;
pub use fleet::{Fleet, FleetConfig};
pub use health::{CardHealth, CardMonitor, CircuitBreaker};
pub use memo::TimingMemo;
pub use overload::{
    AimdConfig, AimdLimiter, HedgeConfig, OverloadConfig, RetryBudget, RetryBudgetConfig,
    ServiceTimeTracker,
};
pub use plan::{MetricsMode, ServeOutcome, ServePlan};
pub use report::{FaultOutcome, Percentiles, PrioritySlo, ServeReport, TenantSlo};
pub use request::{CapacityClass, Priority, ServeRequest, ServeResponse};
pub use scheduler::{Batch, BatchPolicy, BatchScheduler};
pub use sketch::{LatencySketch, StreamMetrics};
pub use source::{PoissonSource, SourceState, WorkloadSource};
pub use trace::Workload;
