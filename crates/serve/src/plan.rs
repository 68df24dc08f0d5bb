//! The unified run description: one [`ServePlan`] in, one
//! [`ServeOutcome`] out.
//!
//! A plan describes a run as data: *what* to serve (any
//! [`WorkloadSource`], e.g. an eager [`Workload`](crate::Workload)),
//! *how* to account it ([`MetricsMode`]), and *which* extras to produce
//! (per-request responses, an execution trace, periodic
//! [`FleetSnapshot`]s, or a resume from one). Every run goes through
//! [`Fleet::run`](crate::Fleet::run).
//!
//! Invalid combinations are rejected up front by
//! [`Fleet::run`](crate::Fleet::run) as [`ServeError::Plan`] — e.g.
//! tracing a snapshotting run (the trace ring buffer is not
//! checkpointable) or collecting responses under sketch metrics (the
//! sketch's whole point is not retaining them).

use crate::error::ServeError;
use crate::fleet::snapshot::FleetSnapshot;
use crate::report::ServeReport;
use crate::request::ServeResponse;
use crate::source::{WorkloadSource, WorkloadStream};
use crate::trace::Workload;
use protea_hwsim::ExecTrace;

/// How completions are aggregated into the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsMode {
    /// Keep every [`ServeResponse`]; percentiles are exact
    /// nearest-rank. Memory grows with the number of completions.
    #[default]
    Exact,
    /// Fold each completion into the O(1) [`StreamMetrics`]
    /// log-histogram sketch (see
    /// [`LatencySketch`](crate::LatencySketch) for the error bound).
    Sketch,
}

/// Where a plan's requests come from.
pub(crate) enum PlanSource<'a> {
    /// Borrowed eager workload (the legacy entry points' path).
    Workload(WorkloadStream<'a>),
    /// Any caller-supplied streaming source.
    Dyn(&'a mut dyn WorkloadSource),
}

/// A declarative description of one serving run.
///
/// Build with [`ServePlan::workload`] (borrow an eager
/// [`Workload`]) or [`ServePlan::stream`] (any [`WorkloadSource`]),
/// chain the builder methods, and execute with
/// [`Fleet::run`](crate::Fleet::run).
pub struct ServePlan<'a> {
    pub(crate) source: PlanSource<'a>,
    pub(crate) metrics: MetricsMode,
    pub(crate) collect_responses: bool,
    pub(crate) traced: bool,
    pub(crate) serial: bool,
    pub(crate) snapshot_every: Option<u64>,
    pub(crate) resume: Option<FleetSnapshot>,
}

impl<'a> ServePlan<'a> {
    fn from_source(source: PlanSource<'a>) -> Self {
        Self {
            source,
            metrics: MetricsMode::Exact,
            collect_responses: false,
            traced: false,
            serial: false,
            snapshot_every: None,
            resume: None,
        }
    }

    /// Serve a borrowed eager [`Workload`].
    #[must_use]
    pub fn workload(workload: &'a Workload) -> Self {
        Self::from_source(PlanSource::Workload(WorkloadStream::new(workload)))
    }

    /// Serve from any streaming [`WorkloadSource`] — the O(1)-memory
    /// path for traces that never fit in RAM.
    #[must_use]
    pub fn stream(source: &'a mut dyn WorkloadSource) -> Self {
        Self::from_source(PlanSource::Dyn(source))
    }

    /// Select the metrics accumulation mode (default
    /// [`MetricsMode::Exact`]).
    #[must_use]
    pub fn metrics(mut self, mode: MetricsMode) -> Self {
        self.metrics = mode;
        self
    }

    /// Also return the individual completion records in
    /// [`ServeOutcome::responses`]. Requires [`MetricsMode::Exact`].
    #[must_use]
    pub fn collect_responses(mut self) -> Self {
        self.collect_responses = true;
        self
    }

    /// Arm the fleet-level span recorder; the trace lands in
    /// [`ServeOutcome::trace`]. Tracing is observational — the report
    /// is byte-identical to the untraced run. Incompatible with
    /// snapshotting and resuming (the ring buffer is not
    /// checkpointable).
    #[must_use]
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }

    /// Run the serial baseline instead of the batched fleet: one card,
    /// no batching, every request alone (still padded to its bucket) in
    /// arrival order.
    #[must_use]
    pub fn serial_baseline(mut self) -> Self {
        self.serial = true;
        self
    }

    /// Capture a [`FleetSnapshot`] every `every` arrivals; they land in
    /// [`ServeOutcome::snapshots`] and the run's final state hash in
    /// [`ServeOutcome::state_hash`].
    #[must_use]
    pub fn snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = Some(every);
        self
    }

    /// Resume from a previously captured snapshot instead of starting
    /// fresh. The fleet config and source must match what the snapshot
    /// recorded; the source is seeked to the captured cursor.
    #[must_use]
    pub fn resume(mut self, snapshot: FleetSnapshot) -> Self {
        self.resume = Some(snapshot);
        self
    }

    /// Reject contradictory flag combinations before any card is built.
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        let plan_err = |msg: &str| Err(ServeError::Plan { msg: msg.into() });
        if self.snapshot_every == Some(0) {
            return plan_err("snapshot_every must be at least 1");
        }
        if self.traced && (self.snapshot_every.is_some() || self.resume.is_some()) {
            return plan_err(
                "execution tracing cannot be combined with snapshot capture or resume",
            );
        }
        if self.serial && (self.snapshot_every.is_some() || self.resume.is_some()) {
            return plan_err("the serial baseline cannot snapshot or resume");
        }
        if self.collect_responses && self.metrics == MetricsMode::Sketch {
            return plan_err(
                "collect_responses requires exact metrics (the sketch does not retain responses)",
            );
        }
        Ok(())
    }

    /// The plan's source as a trait object (either variant).
    pub(crate) fn source_mut(&mut self) -> &mut dyn WorkloadSource {
        match &mut self.source {
            PlanSource::Workload(ws) => ws,
            PlanSource::Dyn(d) => &mut **d,
        }
    }
}

/// Everything a run produced. Which fields are populated follows the
/// plan: `responses` iff [`ServePlan::collect_responses`], `trace` iff
/// [`ServePlan::traced`], `snapshots`/`state_hash` iff snapshotting or
/// resuming was requested.
pub struct ServeOutcome {
    /// The aggregate report (always produced).
    pub report: ServeReport,
    /// Individual completion records, when collected.
    pub responses: Option<Vec<ServeResponse>>,
    /// The fleet-level execution trace, when armed.
    pub trace: Option<ExecTrace>,
    /// Periodic snapshots, in capture order.
    pub snapshots: Vec<FleetSnapshot>,
    /// FNV-1a hash of the fleet's final state — equal across an
    /// uninterrupted run and a snapshot/resume of the same run.
    pub state_hash: Option<u64>,
}
