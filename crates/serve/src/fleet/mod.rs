//! The card fleet and the discrete-event queueing simulation.
//!
//! A [`Fleet`] models N identical ProTEA cards, each one a
//! `protea_core::Accelerator` synthesized from the same bitstream. The
//! serving loop is a discrete-event simulation on `protea_hwsim`'s
//! [`EventQueue`] with **nanoseconds** as the tick unit:
//!
//! * an *arrival* event admits a request to the [`BatchScheduler`] and
//!   lazily chains the next arrival from the [`WorkloadSource`] — at
//!   most one arrival is ever pending, so a 10M-request trace costs
//!   O(1) arrival memory;
//! * a *dispatch* programs a free card (register writes, plus a weight
//!   reload when the card was last serving a different capacity class),
//!   runs the batch through the unified execution pipeline
//!   (`Accelerator::execute` on a `RunPlan`), and converts the
//!   resulting report latency to a service interval;
//! * a *completion* frees the card and greedily re-dispatches.
//!
//! Every run goes through [`Fleet::run`] on a [`ServePlan`].
//!
//! With a [`FaultConfig`] attached, the same simulation runs under
//! deterministic fault injection: per-card seeded `FaultStream`s feed
//! the driver's fault-aware timing path, unrecoverable faults and card
//! crashes requeue the in-flight batch onto surviving cards (bounded by
//! a per-request attempt budget), and a per-card circuit breaker rests
//! failing cards. Every submitted request ends in exactly one of
//! `completed` or `failed` — none is ever silently dropped. Without a
//! `FaultConfig` the code path is byte-for-byte the fault-free one, so
//! fault-free reports are bit-identical to earlier releases.
//!
//! The overload-control layer rides the same managed simulation: a
//! bounded [`BatchPolicy::max_queue`] plus an optional
//! [`OverloadConfig`] (AIMD concurrency limit, retry budget, hedged
//! dispatch) and per-request deadlines/priorities turn unbounded
//! queueing into *load shedding* with typed accounting — every
//! submitted request ends in exactly one of `completed`, `shed`,
//! `expired`, or `failed`. With none of those knobs set (and no
//! deadlines in the trace) the fault-free fast path is untouched.
//!
//! Everything user-supplied (trace shapes, arrival times) flows through
//! `Result` — a hostile trace can be rejected, never panic.
//!
//! ## Module layout
//!
//! * [`card`] — per-card state: the accelerator, the loaded weight
//!   class, and the reprogram-and-load step every dispatch flavor
//!   shares;
//! * [`sim`] — the mutable DES model (`SimModel`), fault/overload
//!   state, metrics accumulation, and admission control;
//! * [`events`] — the serializable [`FleetEvent`] vocabulary and its
//!   handler (what PR 5 expressed as boxed closures);
//! * [`dispatch`] — the dispatch, completion, failure, crash, and
//!   hedging logic plus the greedy dispatch loop;
//! * [`snapshot`] — [`FleetSnapshot`] capture/restore;
//! * [`report`] — final [`ServeReport`](crate::report::ServeReport)
//!   assembly.
//!
//! ## Tracing
//!
//! [`ServePlan::traced`] runs the identical simulation with a
//! fleet-level span recorder armed: every reprogram, batch service
//! window, hedge leg, and hedge cancellation lands in a bounded
//! [`ExecTrace`](protea_hwsim::ExecTrace) ring buffer on per-card
//! tracks, exportable as Chrome trace-event JSON. Tracing is
//! observational — the report of a traced run is byte-identical to the
//! untraced one.
//!
//! ## Snapshot / resume
//!
//! [`ServePlan::snapshot_every`] captures a [`FleetSnapshot`] every N
//! arrivals: pending events, scheduler queues, card and fault/overload
//! state, RNG positions, the metrics accumulator, and the source
//! cursor. [`ServePlan::resume`] restores one and continues; the
//! resumed run's remaining snapshots, final state hash, and
//! [`ServeReport`](crate::report::ServeReport) are bit-identical to the
//! uninterrupted run's.

mod card;
mod dispatch;
mod events;
mod report;
mod sim;
pub(crate) mod snapshot;
#[cfg(test)]
mod tests;

use crate::elastic::{BrownoutLadder, ChurnAction, ChurnPlan, PlacementPolicy, TenantPolicy};
use crate::error::ServeError;
use crate::faults::{FaultConfig, SdcConfig};
use crate::overload::OverloadConfig;
use crate::plan::{MetricsMode, ServeOutcome, ServePlan};
use crate::scheduler::{BatchPolicy, BatchScheduler};
use crate::source::WorkloadSource;
use events::FleetEvent;
use protea_core::{Accelerator, CoreError, SynthesisConfig};
use protea_hwsim::{Cycles, EventQueue};
use protea_platform::FpgaDevice;
use sim::{MetricsAccum, SimModel};
use snapshot::FleetSnapshot;

/// Fleet construction parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of cards (each gets the same bitstream).
    pub cards: usize,
    /// The bitstream all cards are synthesized from.
    pub synthesis: SynthesisConfig,
    /// Uniform-roster shorthand: the device a card is built on when
    /// [`roster`](Self::roster) is `None`. Prefer `roster` for anything
    /// heterogeneous; a `Some(vec![device; cards])` roster produces the
    /// byte-identical report (pinned by `tests/serve_equiv.rs`).
    pub device: FpgaDevice,
    /// Batching policy.
    pub policy: BatchPolicy,
    /// When `true`, every batch also executes the bit-exact functional
    /// datapath (slow; service time is identical either way because the
    /// timing model is deterministic).
    pub functional: bool,
    /// Host→card weight-reload bandwidth in GB/s (1 GB/s = 1 byte/ns),
    /// pricing the reprogram penalty a batch pays when its card was
    /// serving a different capacity class.
    pub reload_gbps: f64,
    /// Fault injection and graceful-degradation policy. `None` (the
    /// default) is the exact fault-free simulation of earlier releases.
    pub faults: Option<FaultConfig>,
    /// Overload controls (AIMD admission, retry budget, hedging).
    /// `None` — or a config with every knob off — changes nothing.
    pub overload: Option<OverloadConfig>,
    /// Memoize fault-free batch timing per deterministic-plan key
    /// (see [`TimingMemo`](crate::memo::TimingMemo)). Byte-identical
    /// reports either way; `true` (the default) makes large serving
    /// sweeps dramatically cheaper to simulate. Memoization keys do not
    /// carry a device, so it silently disables itself on a
    /// heterogeneous roster.
    pub timing_memo: bool,
    /// Per-card device roster for a heterogeneous fleet. `None` (the
    /// default) means every card is built on [`device`](Self::device);
    /// `Some(v)` must have exactly [`cards`](Self::cards) entries, each
    /// feasibility-checked against the bitstream at construction.
    pub roster: Option<Vec<FpgaDevice>>,
    /// How the dispatcher picks among free cards.
    /// [`PlacementPolicy::FirstFree`] is the historical behavior.
    pub placement: PlacementPolicy,
    /// Scripted runtime churn: cards joining, draining, and crashing on
    /// a deterministic schedule. `None` changes nothing.
    pub churn: Option<ChurnPlan>,
    /// Per-tenant priority/SLO classes. `None` leaves the trace's own
    /// priority/deadline stamps in force; `Some` overwrites them per
    /// tenant and turns on per-tenant SLO rows in the report.
    pub tenants: Option<TenantPolicy>,
    /// Brownout degradation ladder: admission floors keyed to the live
    /// fraction of the fleet. `None` never browns out.
    pub brownout: Option<BrownoutLadder>,
    /// Silent-data-corruption defense: injection, ABFT detection,
    /// digest scrubbing, and the quarantine-and-reprogram recovery
    /// ladder. `None` — or a config with every knob off — changes
    /// nothing (byte-identical reports and snapshots, pinned by
    /// `tests/integrity.rs`).
    pub sdc: Option<SdcConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            cards: 2,
            synthesis: SynthesisConfig::paper_default(),
            device: FpgaDevice::alveo_u55c(),
            policy: BatchPolicy::default(),
            functional: false,
            reload_gbps: 12.0,
            faults: None,
            overload: None,
            timing_memo: true,
            roster: None,
            placement: PlacementPolicy::FirstFree,
            churn: None,
            tenants: None,
            brownout: None,
            sdc: None,
        }
    }
}

impl FleetConfig {
    /// Whether the SDC defense layer is in force (any injection,
    /// detection, or scrub knob set). Gates the SDC state allocation,
    /// the managed simulation path, and the snapshot's SDC block; an
    /// unarmed config keeps every byte of the SDC-free behavior.
    #[must_use]
    pub fn sdc_active(&self) -> bool {
        self.sdc.as_ref().is_some_and(SdcConfig::armed)
    }

    /// The per-card device list actually in force: the explicit roster,
    /// or [`device`](Self::device) repeated [`cards`](Self::cards)
    /// times.
    #[must_use]
    pub fn resolved_roster(&self) -> Vec<FpgaDevice> {
        match &self.roster {
            Some(r) => r.clone(),
            None => vec![self.device; self.cards],
        }
    }

    /// Whether every card sits on the same device (always true without
    /// an explicit roster). Timing memoization requires this — memo
    /// keys do not carry a device.
    #[must_use]
    pub fn uniform_roster(&self) -> bool {
        match &self.roster {
            Some(r) => r.windows(2).all(|w| w[0] == w[1]),
            None => true,
        }
    }
}

/// A fleet of simulated ProTEA cards behind one batch scheduler.
#[derive(Debug, Clone)]
pub struct Fleet {
    config: FleetConfig,
}

impl Fleet {
    /// Validate the configuration and build the fleet.
    ///
    /// # Errors
    /// [`ServeError::NoCards`] for an empty fleet;
    /// [`ServeError::Core`] (`Infeasible`) when the bitstream does not
    /// fit the device.
    pub fn try_new(config: FleetConfig) -> Result<Self, ServeError> {
        if config.cards == 0 {
            return Err(ServeError::NoCards);
        }
        if config.reload_gbps.is_nan() || config.reload_gbps <= 0.0 {
            return Err(ServeError::Core(CoreError::InvalidConfig(
                "reload_gbps must be positive".into(),
            )));
        }
        if let Some(f) = &config.faults {
            f.rates.validate().map_err(|m| ServeError::Core(CoreError::InvalidConfig(m)))?;
            if f.max_request_attempts == 0 {
                return Err(ServeError::Core(CoreError::InvalidConfig(
                    "max_request_attempts must be at least 1".into(),
                )));
            }
        }
        if let Some(o) = &config.overload {
            o.validate().map_err(|m| ServeError::Core(CoreError::InvalidConfig(m)))?;
        }
        if config.policy.max_queue == Some(0) {
            return Err(ServeError::Core(CoreError::InvalidConfig(
                "policy.max_queue must be at least 1 when set".into(),
            )));
        }
        if let Some(roster) = &config.roster {
            if roster.len() != config.cards {
                return Err(ServeError::Core(CoreError::InvalidConfig(format!(
                    "roster lists {} devices for a fleet of {} cards",
                    roster.len(),
                    config.cards
                ))));
            }
        }
        if let Some(churn) = &config.churn {
            churn
                .validate(config.cards)
                .map_err(|m| ServeError::Core(CoreError::InvalidConfig(m)))?;
        }
        if let Some(b) = &config.brownout {
            b.validate().map_err(|m| ServeError::Core(CoreError::InvalidConfig(m)))?;
        }
        if let Some(s) = &config.sdc {
            s.validate().map_err(|m| ServeError::Core(CoreError::InvalidConfig(m)))?;
        }
        // Fail now, not at dispatch time, if the design cannot exist on
        // *any* card's device.
        for device in config.resolved_roster() {
            Accelerator::try_new(config.synthesis, &device)?;
        }
        Ok(Self { config })
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Execute `plan`. This is the single entry point every run flavor
    /// goes through — batched or serial baseline, exact or sketch
    /// metrics, traced, snapshotting, or resuming.
    ///
    /// # Errors
    /// [`ServeError::Plan`] for contradictory plan flags;
    /// [`ServeError::EmptyTrace`] when the source yields nothing;
    /// [`ServeError::Snapshot`] when a resume snapshot does not match
    /// the fleet config or source; [`ServeError::Unservable`] when a
    /// request exceeds the synthesized capacity; [`ServeError::Core`]
    /// if the hardware layer rejects a dispatch (unreachable for
    /// admitted requests, but surfaced rather than unwrapped).
    pub fn run(&self, mut plan: ServePlan<'_>) -> Result<ServeOutcome, ServeError> {
        plan.validate()?;
        let sketch = plan.metrics == MetricsMode::Sketch;
        let collect = plan.collect_responses;
        let traced = plan.traced;
        let serial = plan.serial;
        let every = plan.snapshot_every;
        let resume = plan.resume.take();
        let source = plan.source_mut();
        if serial {
            return self.run_serial(source, sketch, traced, collect);
        }
        self.run_streaming(source, sketch, collect, traced, every, resume)
    }

    fn run_streaming(
        &self,
        source: &mut dyn WorkloadSource,
        sketch: bool,
        collect: bool,
        traced: bool,
        every: Option<u64>,
        resume: Option<FleetSnapshot>,
    ) -> Result<ServeOutcome, ServeError> {
        // The managed path carries fault *and* overload machinery; it is
        // entered only when some knob needs it, so a plain fleet keeps
        // the historical fault-free fast path byte-for-byte.
        let managed = self.config.faults.is_some()
            || self.config.overload.as_ref().is_some_and(OverloadConfig::any)
            || self.config.policy.max_queue.is_some()
            || self.config.churn.is_some()
            || self.config.tenants.is_some()
            || self.config.brownout.is_some()
            || self.config.sdc_active()
            || source.has_deadlines()
            // Generation sessions need the typed failure/shed ledgers
            // for token conservation, so decode workloads always run
            // managed (zero-rate faults: timing is unperturbed).
            || source.has_decode();
        let hashing = every.is_some() || resume.is_some();
        let (mut q, mut model, mut arrivals_seen) = match resume {
            Some(snap) => snap.apply(&self.config, managed, sketch, source)?,
            None => {
                let mut q = EventQueue::new();
                let mut model = SimModel::build(&self.config, managed, traced, sketch)?;
                if let Some(f) = model.faulty.as_mut() {
                    f.track_deadlines = source.has_deadlines()
                        || self.config.tenants.as_ref().is_some_and(TenantPolicy::any_deadline);
                    // Card-crash events: each card's crash timestamp is
                    // drawn once, up front, so the draw order (and thus
                    // the whole run) is deterministic in the seed.
                    let crashes: Vec<(usize, u64)> = f
                        .streams
                        .iter_mut()
                        .enumerate()
                        .filter_map(|(card, s)| s.crash_at_ns().map(|at| (card, at)))
                        .collect();
                    for (card, at) in crashes {
                        q.push(Cycles(at), events::RANK_CRASH, FleetEvent::Crash { card });
                    }
                    // Scripted churn rides the same rank: cards absent
                    // at time zero, plus the join/drain/crash schedule.
                    // A resumed run skips this — the pending churn
                    // events were serialized with the snapshot.
                    if let Some(plan) = &self.config.churn {
                        for &card in &plan.start_absent {
                            f.present[card] = false;
                        }
                        for e in &plan.events {
                            let ev = match e.action {
                                ChurnAction::Join => {
                                    f.pending_joins += 1;
                                    FleetEvent::Join { card: e.card }
                                }
                                ChurnAction::Drain => FleetEvent::Drain { card: e.card },
                                ChurnAction::Crash => FleetEvent::Crash { card: e.card },
                            };
                            q.push(Cycles(e.at_ns), events::RANK_CRASH, ev);
                        }
                    }
                }
                if !events::pull_arrival(&mut q, &mut model, source) {
                    return Err(model.error.take().unwrap_or(ServeError::EmptyTrace));
                }
                (q, model, 0)
            }
        };
        let mut snapshots = Vec::new();
        while let Some((t, ev)) = q.pop() {
            let is_arrival = matches!(ev, FleetEvent::Arrival(_));
            events::handle_event(&mut q, &mut model, source, t.get(), ev);
            if is_arrival {
                arrivals_seen += 1;
                if model.error.is_none() && every.is_some_and(|n| arrivals_seen % n == 0) {
                    snapshots.push(FleetSnapshot::capture(
                        &self.config,
                        &q,
                        &model,
                        source,
                        arrivals_seen,
                        managed,
                        sketch,
                    ));
                }
            }
        }
        if let Some(e) = model.error {
            return Err(e);
        }
        let state_hash = hashing.then(|| {
            FleetSnapshot::capture(&self.config, &q, &model, source, arrivals_seen, managed, sketch)
                .state_hash()
        });
        let trace = traced.then(|| model.trace.take().expect("traced run records a trace"));
        let responses = collect.then(|| match &model.metrics {
            MetricsAccum::Exact(v) => v.clone(),
            MetricsAccum::Sketch(_) => unreachable!("validated: collect requires exact metrics"),
        });
        Ok(ServeOutcome { report: model.into_report(), responses, trace, snapshots, state_hash })
    }

    /// The baseline the batched fleet is judged against: one card, no
    /// batching — every request runs alone (still padded to its
    /// bucket), in arrival order.
    fn run_serial(
        &self,
        source: &mut dyn WorkloadSource,
        sketch: bool,
        traced: bool,
        collect: bool,
    ) -> Result<ServeOutcome, ServeError> {
        // The serial baseline is one unmanaged card: slice any roster
        // down to its first device and drop the churn schedule (a
        // baseline that loses its only card is not a baseline) and the
        // SDC knobs (corrupting the yardstick would corrupt the
        // comparison).
        let single = FleetConfig {
            cards: 1,
            roster: self.config.roster.as_ref().map(|r| vec![r[0]]),
            churn: None,
            sdc: None,
            ..self.config.clone()
        };
        let mut m = SimModel::build(&single, false, traced, sketch)?;
        let mut free_at = 0u64;
        let mut any = false;
        while let Some(req) = source.next_request()? {
            any = true;
            if req.is_decode() {
                // The serial yardstick has no resident-session machinery;
                // a decode request would queue as a session and never
                // pop. Reject it typed instead of erroring obscurely.
                return Err(ServeError::Unservable {
                    id: req.id,
                    why: "the serial baseline serves encode-only workloads; \
                          generation requests need the batched fleet"
                        .into(),
                });
            }
            // admission check through the same scheduler validation
            let mut probe = BatchScheduler::new(single.policy.clone(), single.synthesis);
            probe.push(req)?;
            let batch = probe.pop_any().ok_or(ServeError::EmptyTrace)?;
            let start = free_at.max(req.arrival_ns);
            let finish = m.dispatch(0, &batch, start)?;
            free_at = finish;
        }
        if !any {
            return Err(ServeError::EmptyTrace);
        }
        let trace = traced.then(|| m.trace.take().expect("traced run records a trace"));
        let responses = collect.then(|| match &m.metrics {
            MetricsAccum::Exact(v) => v.clone(),
            MetricsAccum::Sketch(_) => unreachable!("validated: collect requires exact metrics"),
        });
        Ok(ServeOutcome {
            report: m.into_report(),
            responses,
            trace,
            snapshots: Vec::new(),
            state_hash: None,
        })
    }
}
