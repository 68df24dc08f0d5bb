//! The mutable DES model: per-run state, fault/overload bookkeeping,
//! and admission control.
//!
//! [`SimModel`] is the single state value the event kernel mutates.
//! Construction ([`SimModel::build`]) decides once whether the run is
//! *managed* (fault injection, overload control, deadlines, or a
//! bounded queue) — an unmanaged run never allocates any of that
//! machinery and follows the historical fault-free path byte-for-byte.

use super::card::Card;
use super::FleetConfig;
use crate::elastic::{BrownoutLadder, PlacementPolicy, TenantPolicy};
use crate::error::ServeError;
use crate::faults::{FailReason, FailedRequest, FaultConfig};
use crate::health::{CardHealth, CardMonitor, CircuitBreaker};
use crate::memo::TimingMemo;
use crate::overload::{AimdLimiter, HedgeConfig, RetryBudget, ServiceTimeTracker};
use crate::request::{CapacityClass, ServeRequest, ServeResponse};
use crate::scheduler::{Batch, BatchScheduler};
use crate::sketch::StreamMetrics;
use protea_core::SdcStream;
use protea_core::{Accelerator, FaultStats, FaultStream};
use protea_hwsim::exec_trace::{track, ExecTrace, SpanKind};
use protea_mem::{KvResidency, KvSpec};
use protea_model::QuantizedEncoder;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How completions accumulate into the final report: exact responses
/// (O(completed) memory, byte-identical to the historical path) or the
/// O(1) streaming log-histogram sketch.
pub(super) enum MetricsAccum {
    /// Keep every [`ServeResponse`]; percentiles are exact nearest-rank.
    Exact(Vec<ServeResponse>),
    /// Fold each response into [`StreamMetrics`] and drop it.
    Sketch(StreamMetrics),
}

impl MetricsAccum {
    pub(super) fn record(&mut self, resp: ServeResponse) {
        match self {
            MetricsAccum::Exact(v) => v.push(resp),
            MetricsAccum::Sketch(s) => s.record(&resp),
        }
    }
}

/// All mutable simulation state (the DES model type).
pub(super) struct SimModel {
    pub(super) scheduler: BatchScheduler,
    pub(super) cards: Vec<Card>,
    pub(super) metrics: MetricsAccum,
    /// One weight image per capacity class, shared by every card that
    /// carries the class.
    pub(super) weights: BTreeMap<CapacityClass, Arc<QuantizedEncoder>>,
    pub(super) functional: bool,
    pub(super) reload_gbps: f64,
    pub(super) ops_total: u64,
    pub(super) batches: u64,
    pub(super) reprograms: u64,
    pub(super) next_flush: Option<u64>,
    pub(super) error: Option<ServeError>,
    /// How the dispatch loop picks among free cards;
    /// [`PlacementPolicy::FirstFree`] reproduces the historical scan.
    pub(super) placement: PlacementPolicy,
    /// Fault-injection state; `None` keeps the exact fault-free path.
    pub(super) faulty: Option<FaultState>,
    /// Timing cache for the fault-free dispatch path (`None` = off).
    pub(super) memo: Option<TimingMemo>,
    /// Fleet-level span recorder (`None` = untraced; recording is
    /// observational and never perturbs the schedule).
    pub(super) trace: Option<ExecTrace>,
    /// Autoregressive generation state, allocated lazily on the first
    /// decode-tagged request — encoder-only runs never touch it.
    pub(super) sessions: Option<SessionState>,
    /// Per-card KV byte budgets (half of each card's DRAM), fixed at
    /// build so lazy session allocation never re-resolves the roster.
    pub(super) kv_budgets: Vec<u64>,
}

/// Everything the continuous-batching generation layer tracks: one
/// running generation batch per card, per-card KV residency, the token
/// conservation ledger, and the phase latency accumulators.
pub(super) struct SessionState {
    /// The generation batch running on each card, if any.
    pub(super) cards: Vec<Option<CardGen>>,
    /// Per-card resident-KV accounting; a session reserves its
    /// worst-case footprint at batch start and releases it on retire.
    pub(super) kv: Vec<KvResidency>,
    /// Decode tokens asked for by every admitted generation request.
    pub(super) tokens_requested: u64,
    /// Decode tokens actually emitted.
    pub(super) tokens_emitted: u64,
    /// Decode tokens never emitted because their request was shed,
    /// expired, failed, or crashed mid-generation. The conservation law
    /// `tokens_emitted + tokens_shed == tokens_requested` holds at the
    /// end of every run.
    pub(super) tokens_shed: u64,
    /// Emitted tokens that met their per-token deadline (tokens with no
    /// deadline count vacuously).
    pub(super) tokens_on_time: u64,
    /// Summed prefill window cost (ns) and number of prefilled prompts.
    pub(super) prefill_ns_sum: u64,
    pub(super) prefill_count: u64,
    /// Summed decode round cost (ns) and tokens generated in them.
    pub(super) decode_ns_sum: u64,
    pub(super) decode_tokens: u64,
}

impl SessionState {
    fn new(cards: usize, kv_budgets: &[u64]) -> Self {
        Self {
            cards: (0..cards).map(|_| None).collect(),
            kv: kv_budgets.iter().map(|&b| KvResidency::new(b)).collect(),
            tokens_requested: 0,
            tokens_emitted: 0,
            tokens_shed: 0,
            tokens_on_time: 0,
            prefill_ns_sum: 0,
            prefill_count: 0,
            decode_ns_sum: 0,
            decode_tokens: 0,
        }
    }
}

/// The generation batch resident on one card: the sessions decoding in
/// lockstep, the class/prompt bucket new joiners must match, and
/// whether the next `Generate` event has a token step to bank.
pub(super) struct CardGen {
    /// The batch's capacity class (what the card is programmed for).
    pub(super) class: CapacityClass,
    /// The padded prompt bucket the batch was formed at (joiners must
    /// match it so the register file never reprograms mid-generation).
    pub(super) padded_prompt: usize,
    /// Whether the window ending at the next `Generate` event emits a
    /// token for every active session (false for the initial
    /// prefill-only window).
    pub(super) pending_step: bool,
    /// The sessions currently decoding on this card.
    pub(super) sessions: Vec<GenSession>,
}

/// One in-flight generation session.
pub(super) struct GenSession {
    pub(super) req: ServeRequest,
    /// When the session's batch started service (prefill start).
    pub(super) start_ns: u64,
    /// Tokens emitted so far.
    pub(super) emitted: u32,
    /// When the previous token was emitted (arrival before the first) —
    /// the base of the next per-token deadline.
    pub(super) last_emit_ns: u64,
    /// Tokens that met their per-token deadline.
    pub(super) on_time: u32,
}

/// The worst-case KV footprint of a generation request: self-attention
/// rows grow to prompt + decode steps; the cross-attention cache spans
/// the prompt-length encoder memory. Deterministic in the request
/// alone, so snapshot restore re-derives reservations exactly.
pub(super) fn kv_spec(req: &ServeRequest) -> KvSpec {
    KvSpec {
        layers: req.layers,
        d_model: req.d_model,
        self_rows: req.seq_len + req.decode_steps as usize,
        cross_rows: req.seq_len,
    }
}

/// Everything the fault-injected simulation tracks on top of the
/// fault-free model.
pub(super) struct FaultState {
    pub(super) watchdog: protea_core::Watchdog,
    pub(super) retry: protea_core::RetryPolicy,
    pub(super) max_request_attempts: u32,
    /// One seeded fault source per card.
    pub(super) streams: Vec<FaultStream>,
    /// Per-card health + circuit breaker.
    pub(super) monitors: Vec<CardMonitor>,
    /// Per-card dispatch epoch. The DES kernel cannot cancel scheduled
    /// events, so a crash bumps the card's epoch and any in-flight
    /// completion/failure event that captured the old epoch no-ops.
    pub(super) epochs: Vec<u64>,
    /// The batch currently running on each card, held so a crash or
    /// failure can requeue it.
    pub(super) inflight: Vec<Option<Inflight>>,
    /// Failed dispatch attempts per request id (bounds requeues).
    pub(super) attempts: BTreeMap<u64, u32>,
    pub(super) failed: Vec<FailedRequest>,
    pub(super) retried: u64,
    pub(super) crashes: u64,
    pub(super) stats: FaultStats,
    pub(super) submitted: usize,
    /// Dedup for scheduled circuit-breaker cooldown wake-ups.
    pub(super) breaker_wake: Option<u64>,
    // --- overload control (all optional; defaults change nothing) ---
    /// AIMD concurrency limiter over requests in the system.
    pub(super) limiter: Option<AimdLimiter>,
    /// Fleet-wide token bucket bounding post-fault requeues.
    pub(super) retry_budget: Option<RetryBudget>,
    /// Hedged-dispatch policy.
    pub(super) hedge: Option<HedgeConfig>,
    /// Observed batch service times, feeding the p99 hedge delay.
    pub(super) svc: ServiceTimeTracker,
    /// Requests shed at admission (queue cap / concurrency limit).
    pub(super) shed: Vec<FailedRequest>,
    /// Requests dropped in queue at their deadline.
    pub(super) expired: Vec<FailedRequest>,
    /// Per-priority submitted/completed/deadline-met counters, indexed
    /// by [`Priority::index`](crate::request::Priority::index).
    pub(super) prio_submitted: [usize; 3],
    pub(super) prio_completed: [usize; 3],
    pub(super) prio_good: [usize; 3],
    /// Completions that met their deadline.
    pub(super) good_completions: usize,
    /// Whether any request in the workload carries a deadline (gates
    /// expiry sweeps and goodput-vs-throughput reporting).
    pub(super) track_deadlines: bool,
    /// Monotone dispatch id; a hedge leg shares its primary's seq.
    pub(super) batch_seq: u64,
    pub(super) hedges: u64,
    pub(super) hedge_wins: u64,
    pub(super) hedge_cancels: u64,
    /// Dedup for scheduled request-deadline wake-ups.
    pub(super) deadline_wake: Option<u64>,
    // --- elasticity (churn, tenancy, brownout; defaults change nothing) ---
    /// Whether each roster slot currently holds a card. A non-churn run
    /// has every slot present for its whole life.
    pub(super) present: Vec<bool>,
    /// Slots refusing new batches while their in-flight work finishes.
    pub(super) draining: Vec<bool>,
    /// Scripted joins not yet fired — a fleet with a join pending is
    /// not dead even when every present card is.
    pub(super) pending_joins: usize,
    /// The breaker template, kept so a joining card gets a fresh
    /// monitor with the configured thresholds.
    pub(super) breaker: CircuitBreaker,
    /// Cards that (re)joined at runtime.
    pub(super) joins: u64,
    /// Cards that drained out cleanly at runtime.
    pub(super) drains: u64,
    /// Per-tenant conservation ledger. Tenant `0` is the default; the
    /// map stays empty until the first managed submission.
    pub(super) tenants: BTreeMap<u32, TenantLedger>,
    /// Per-tenant service classes (`None`: trace stamps rule).
    pub(super) tenant_policy: Option<TenantPolicy>,
    /// Brownout admission ladder (`None`: never browns out).
    pub(super) brownout: Option<BrownoutLadder>,
    // --- silent-data-corruption defense (`None` changes nothing) ---
    /// SDC injection/detection/recovery state; allocated only when the
    /// config arms at least one SDC knob.
    pub(super) sdc: Option<SdcState>,
}

/// Everything the SDC defense layer tracks: per-card corruption
/// streams, resident-corruption and quarantine flags, the in-flight
/// draw, and the five report counters.
pub(super) struct SdcState {
    /// Verify ABFT checksums in every GEMM epilogue (charged on service
    /// time; detects activation-site hits in checksummed compute).
    pub(super) abft: bool,
    /// Periodic weight-digest scrub interval, if armed.
    pub(super) scrub_every_ns: Option<u64>,
    /// One seeded corruption source per card.
    pub(super) streams: Vec<SdcStream>,
    /// Cards locked out while their quarantine reprogram+reload runs;
    /// the pending `Requalify` event releases the flag.
    pub(super) quarantined: Vec<bool>,
    /// Undetected weight-site hits resident on each card — corrupt
    /// SRAM that keeps poisoning batches until a digest rung (load,
    /// reprogram, scrub) catches it.
    pub(super) dirty: Vec<u32>,
    /// The SDC draw for the batch in flight on each card:
    /// `Some(detected)` when it was hit, resolved at completion.
    pub(super) pending: Vec<Option<bool>>,
    /// Dedup for the scheduled scrub event (mirrors `breaker_wake`).
    pub(super) scrub_armed: Option<u64>,
    /// Dispatch seqs that are re-executions of a detected batch: a
    /// second detection on the same work escalates to quarantine
    /// instead of re-executing forever.
    pub(super) reexec: std::collections::BTreeSet<u64>,
    /// Batches struck by an injected corruption.
    pub(super) injected: u64,
    /// Hits caught by a detection rung (ABFT, digest, scrub).
    pub(super) detected: u64,
    /// Hits served to completion undetected — silently wrong results.
    pub(super) missed: u64,
    /// Batches re-executed after a detection.
    pub(super) re_execs: u64,
    /// Scrub sweeps performed.
    pub(super) scrubs: u64,
}

/// Per-tenant accounting: the same conservation law the fleet-wide
/// report obeys (`completed + shed + expired + failed == submitted`),
/// kept per tenant id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct TenantLedger {
    pub(super) submitted: usize,
    pub(super) completed: usize,
    pub(super) shed: usize,
    pub(super) expired: usize,
    pub(super) failed: usize,
    /// Completions that met their deadline (vacuously counted without
    /// one).
    pub(super) good: usize,
}

impl FaultState {
    /// The (lazily created) conservation ledger for `tenant`.
    pub(super) fn ledger(&mut self, tenant: u32) -> &mut TenantLedger {
        self.tenants.entry(tenant).or_default()
    }
}

pub(super) struct Inflight {
    pub(super) batch: Batch,
    /// Dispatch id, shared by the two legs of a hedged pair.
    pub(super) seq: u64,
    /// When the scheduled completion/failure event will fire — the
    /// busy time refunded if this leg is cancelled by a hedge win.
    pub(super) resolve_ns: u64,
    /// Whether this leg is the hedge (second) dispatch of its seq.
    pub(super) is_hedge: bool,
    /// The card running the other leg of this seq, if hedged.
    pub(super) partner: Option<usize>,
}

/// Record a fleet-level span on `card`'s track, if tracing is armed.
/// Zero-length spans are skipped (nothing happened). A free function
/// over the `Option` so callers can record while other `SimModel`
/// fields are mutably borrowed.
pub(super) fn record_span(
    trace: &mut Option<ExecTrace>,
    name: String,
    kind: SpanKind,
    card: usize,
    start_ns: u64,
    end_ns: u64,
) {
    if let Some(tr) = trace.as_mut() {
        if end_ns > start_ns {
            tr.push(name, kind, track::CARD0 + card as u32, start_ns, end_ns);
        }
    }
}

impl SimModel {
    pub(super) fn build(
        config: &FleetConfig,
        managed: bool,
        traced: bool,
        sketch: bool,
    ) -> Result<Self, ServeError> {
        let mut cards = Vec::with_capacity(config.cards);
        let mut kv_budgets = Vec::with_capacity(config.cards);
        for device in config.resolved_roster() {
            // Half of each card's DRAM is carved out for resident KV
            // caches; weights and activations own the other half.
            kv_budgets.push(device.dram_capacity_bytes() / 2);
            cards.push(Card {
                accel: Accelerator::try_new(config.synthesis, &device)?,
                loaded_class: None,
                busy: false,
                busy_ns: 0,
                capacity: device.relative_capacity(),
            });
        }
        // A managed run without an explicit `FaultConfig` uses the
        // zero-rate default, which is proven to reproduce the fault-free
        // schedule bit-exactly — overload control never perturbs timing.
        let fault_default = FaultConfig::default();
        let f = config.faults.as_ref().unwrap_or(&fault_default);
        let ov = config.overload.unwrap_or_default();
        let faulty = managed.then(|| FaultState {
            watchdog: f.watchdog,
            retry: f.retry,
            max_request_attempts: f.max_request_attempts,
            streams: (0..config.cards)
                .map(|card| {
                    FaultStream::seeded(f.seed, card, f.rates).with_events(
                        f.events.iter().filter(|e| e.card == card).map(|e| (e.at_ns, e.kind)),
                    )
                })
                .collect(),
            monitors: vec![CardMonitor::new(f.breaker); config.cards],
            epochs: vec![0; config.cards],
            inflight: (0..config.cards).map(|_| None).collect(),
            attempts: BTreeMap::new(),
            failed: Vec::new(),
            retried: 0,
            crashes: 0,
            stats: FaultStats::default(),
            submitted: 0,
            breaker_wake: None,
            limiter: ov.aimd.map(AimdLimiter::new),
            retry_budget: ov.retry_budget.map(RetryBudget::new),
            hedge: ov.hedge,
            svc: ServiceTimeTracker::default(),
            shed: Vec::new(),
            expired: Vec::new(),
            prio_submitted: [0; 3],
            prio_completed: [0; 3],
            prio_good: [0; 3],
            good_completions: 0,
            track_deadlines: false,
            batch_seq: 0,
            hedges: 0,
            hedge_wins: 0,
            hedge_cancels: 0,
            deadline_wake: None,
            present: vec![true; config.cards],
            draining: vec![false; config.cards],
            pending_joins: 0,
            breaker: f.breaker,
            joins: 0,
            drains: 0,
            tenants: BTreeMap::new(),
            tenant_policy: config.tenants.clone(),
            brownout: config.brownout,
            sdc: config.sdc.as_ref().filter(|s| s.armed()).map(|s| SdcState {
                abft: s.abft,
                scrub_every_ns: s.scrub_every_ns,
                streams: (0..config.cards)
                    .map(|card| {
                        SdcStream::seeded(s.seed, card, s.rate, s.weight_fraction).with_events(
                            s.events.iter().filter(|e| e.card == card).map(|e| (e.at_ns, e.site)),
                        )
                    })
                    .collect(),
                quarantined: vec![false; config.cards],
                dirty: vec![0; config.cards],
                pending: vec![None; config.cards],
                scrub_armed: None,
                reexec: std::collections::BTreeSet::new(),
                injected: 0,
                detected: 0,
                missed: 0,
                re_execs: 0,
                scrubs: 0,
            }),
        });
        Ok(Self {
            scheduler: BatchScheduler::new(config.policy.clone(), config.synthesis),
            cards,
            metrics: if sketch {
                MetricsAccum::Sketch(StreamMetrics::new())
            } else {
                MetricsAccum::Exact(Vec::new())
            },
            weights: BTreeMap::new(),
            functional: config.functional,
            reload_gbps: config.reload_gbps,
            ops_total: 0,
            batches: 0,
            reprograms: 0,
            next_flush: None,
            error: None,
            placement: config.placement,
            faulty,
            // Memo keys carry no device, so memoization is only sound
            // when every card prices a batch identically.
            memo: (config.timing_memo && config.uniform_roster()).then(TimingMemo::new),
            trace: traced.then(ExecTrace::new),
            sessions: None,
            kv_budgets,
        })
    }

    /// The generation state, allocated on first touch (an encoder-only
    /// run never allocates it, so its snapshots carry an empty
    /// generation block).
    pub(super) fn sessions_mut(&mut self) -> &mut SessionState {
        let cards = self.cards.len();
        self.sessions.get_or_insert_with(|| SessionState::new(cards, &self.kv_budgets))
    }

    /// Charge the never-to-be-emitted remainder of a generation
    /// request's tokens to the shed side of the conservation ledger —
    /// called on every terminal path that is not a completed session
    /// (admission shed/expiry/failure, queue expiry, dead-fleet drain,
    /// KV-capacity shed, mid-generation crash). No-op for one-shots.
    pub(super) fn shed_session_tokens(&mut self, req: &ServeRequest, emitted: u32) {
        if !req.is_decode() {
            return;
        }
        let remaining = u64::from(req.decode_steps.saturating_sub(emitted));
        self.sessions_mut().tokens_shed += remaining;
    }

    /// Whether the fleet can never serve another request: every roster
    /// slot is absent or dead *and* no scripted join is still pending.
    /// Vacuously false without fault state; a non-churn run (all slots
    /// present, no pending joins) reduces to the historical "every
    /// monitor is dead".
    pub(super) fn all_cards_dead(&self) -> bool {
        self.faulty.as_ref().is_some_and(|f| {
            f.pending_joins == 0
                && f.monitors
                    .iter()
                    .enumerate()
                    .all(|(i, m)| !f.present[i] || m.health() == CardHealth::Dead)
        })
    }

    /// Fraction of roster slots holding a live card (present, not
    /// draining, not dead) — the brownout ladder's input. `1.0` without
    /// fault state.
    pub(super) fn live_fraction(&self) -> f64 {
        let Some(f) = self.faulty.as_ref() else { return 1.0 };
        if self.cards.is_empty() {
            return 0.0;
        }
        let live = (0..self.cards.len())
            .filter(|&i| {
                f.present[i] && !f.draining[i] && f.monitors[i].health() != CardHealth::Dead
            })
            .count();
        live as f64 / self.cards.len() as f64
    }

    /// Whether `card` may take a new batch right now: idle and (under
    /// fault state) present, not draining, alive with a closed or
    /// cooled-down circuit.
    fn dispatchable(&self, card: usize, now_ns: u64) -> bool {
        !self.cards[card].busy
            && self.faulty.as_ref().is_none_or(|f| {
                f.present[card]
                    && !f.draining[card]
                    && f.monitors[card].available(now_ns)
                    && f.sdc.as_ref().is_none_or(|s| !s.quarantined[card])
            })
    }

    /// The card the placement policy picks for the next batch, among
    /// the dispatchable ones. [`PlacementPolicy::FirstFree`] is the
    /// historical lowest-index scan; every other policy breaks ties to
    /// the lowest index so runs stay deterministic.
    pub(super) fn free_card(&self, now_ns: u64) -> Option<usize> {
        let mut candidates = (0..self.cards.len()).filter(|&i| self.dispatchable(i, now_ns));
        match self.placement {
            PlacementPolicy::FirstFree => candidates.next(),
            PlacementPolicy::FastestFirst => candidates.max_by(|&a, &b| {
                let fa = self.cards[a].accel.design().fmax_mhz;
                let fb = self.cards[b].accel.design().fmax_mhz;
                fa.partial_cmp(&fb).expect("fmax is finite").then(b.cmp(&a)) // equal clocks: prefer the lower index
            }),
            PlacementPolicy::LeastLoaded => candidates.min_by_key(|&i| (self.cards[i].busy_ns, i)),
            PlacementPolicy::CapacityAware => candidates.min_by(|&a, &b| {
                let la = self.cards[a].busy_ns as f64 / self.cards[a].capacity;
                let lb = self.cards[b].busy_ns as f64 / self.cards[b].capacity;
                la.partial_cmp(&lb).expect("capacity is positive").then(a.cmp(&b))
            }),
        }
    }

    /// Count of requests queued or in flight (hedge legs are duplicate
    /// work, not extra requests, so they do not count).
    pub(super) fn in_system(&self) -> usize {
        let inflight: usize = self.faulty.as_ref().map_or(0, |f| {
            f.inflight.iter().flatten().filter(|i| !i.is_hedge).map(|i| i.batch.len()).sum()
        });
        let generating: usize = self
            .sessions
            .as_ref()
            .map_or(0, |s| s.cards.iter().flatten().map(|g| g.sessions.len()).sum());
        self.scheduler.pending() + inflight + generating
    }

    /// Managed admission: tenant-class stamping, per-priority and
    /// per-tenant accounting, dead-fleet / arrival-past-deadline /
    /// brownout checks, the AIMD concurrency gate, then the (possibly
    /// bounded) scheduler push. Every rejected request is recorded with
    /// a typed reason — nothing is silently dropped — and every
    /// outcome lands in exactly one bucket of its tenant's ledger.
    pub(super) fn admit(&mut self, mut req: ServeRequest, now_ns: u64) {
        if req.is_decode() {
            // Every decode token a generation request asks for enters
            // the conservation ledger here, before any outcome branch —
            // whichever way the request leaves the system, its tokens
            // resolve as emitted or shed, never lost.
            self.sessions_mut().tokens_requested += u64::from(req.decode_steps);
        }
        {
            let f = self.faulty.as_mut().expect("managed admission requires fault state");
            // The tenant policy rewrites the request's service class
            // *before* any accounting, so submitted/shed tallies agree
            // with the class the request actually ran under.
            if let Some(policy) = f.tenant_policy.as_ref() {
                let class = policy.class_for(req.tenant);
                req.priority = class.priority;
                req.deadline_ns = class.deadline_rel_ns.map(|d| req.arrival_ns.saturating_add(d));
            }
            f.prio_submitted[req.priority.index()] += 1;
            f.ledger(req.tenant).submitted += 1;
        }
        if self.all_cards_dead() {
            // Nothing can ever serve this request — fail it with a
            // typed reason rather than queueing it forever.
            self.shed_session_tokens(&req, 0);
            let f = self.faulty.as_mut().expect("fault state");
            f.failed.push(FailedRequest { id: req.id, reason: FailReason::AllCardsDead });
            f.ledger(req.tenant).failed += 1;
            return;
        }
        if req.expired_at(now_ns) {
            // Already dead on arrival: never let it touch a queue.
            self.shed_session_tokens(&req, 0);
            let f = self.faulty.as_mut().expect("fault state");
            f.expired.push(FailedRequest { id: req.id, reason: FailReason::DeadlineExpired });
            f.ledger(req.tenant).expired += 1;
            return;
        }
        let live = self.live_fraction();
        let f = self.faulty.as_mut().expect("fault state");
        if let Some(floor) = f.brownout.and_then(|b| b.floor(live)) {
            if req.priority < floor {
                // Brownout: capacity has dropped below the ladder's
                // threshold, and this class is below the raised floor.
                f.shed.push(FailedRequest { id: req.id, reason: FailReason::Brownout });
                f.ledger(req.tenant).shed += 1;
                self.shed_session_tokens(&req, 0);
                return;
            }
        }
        let in_system = self.in_system();
        let f = self.faulty.as_mut().expect("fault state");
        if f.limiter.as_ref().is_some_and(|l| !l.admits(in_system)) {
            // Priority-ordered shedding: before bouncing the newcomer,
            // displace a queued request of strictly lower priority (the
            // youngest of the lowest class) — net requests in system
            // stays within the limit either way.
            match self.scheduler.evict_lower_priority(req.priority) {
                Some(victim) => {
                    let f = self.faulty.as_mut().expect("fault state");
                    f.shed.push(FailedRequest { id: victim.id, reason: FailReason::Shed });
                    f.ledger(victim.tenant).shed += 1;
                }
                None => {
                    f.shed.push(FailedRequest { id: req.id, reason: FailReason::Shed });
                    f.ledger(req.tenant).shed += 1;
                    self.shed_session_tokens(&req, 0);
                    return;
                }
            }
        }
        match self.scheduler.push(req) {
            Ok(victim) => {
                let f = self.faulty.as_mut().expect("fault state");
                if let Some(b) = f.retry_budget.as_mut() {
                    b.on_admission();
                }
                if let Some(v) = victim {
                    f.shed.push(FailedRequest { id: v.id, reason: FailReason::Shed });
                    f.ledger(v.tenant).shed += 1;
                    self.shed_session_tokens(&v, 0);
                }
            }
            Err(ServeError::Overloaded { id, .. }) => {
                // The scheduler bounced the incoming request itself.
                let f = self.faulty.as_mut().expect("fault state");
                f.shed.push(FailedRequest { id, reason: FailReason::Shed });
                f.ledger(req.tenant).shed += 1;
                self.shed_session_tokens(&req, 0);
            }
            Err(e) => self.error = Some(e),
        }
    }

    /// Drop every queued request whose deadline has passed, recording
    /// each as expired. Expiries are the queue-congestion signal the
    /// AIMD limiter backs off on (once per sweep that shed anything).
    pub(super) fn shed_expired(&mut self, now_ns: u64) {
        if self.faulty.as_ref().is_none_or(|f| !f.track_deadlines) {
            return;
        }
        let expired = self.scheduler.take_expired(now_ns);
        if expired.is_empty() {
            return;
        }
        for r in &expired {
            self.shed_session_tokens(r, 0);
        }
        let f = self.faulty.as_mut().expect("fault state");
        for r in &expired {
            f.expired.push(FailedRequest { id: r.id, reason: FailReason::DeadlineExpired });
            f.ledger(r.tenant).expired += 1;
        }
        if let Some(l) = f.limiter.as_mut() {
            l.on_overload();
        }
    }

    /// Requeue a failed batch's requests, failing any whose attempt
    /// budget is spent or (with a retry budget armed) for which the
    /// fleet-wide token bucket is empty — a requeue storm after mass
    /// card death must not amplify an overload. Counted per request so
    /// no request retries unboundedly.
    pub(super) fn requeue_or_fail(&mut self, batch: Batch, kind: protea_core::FaultKind) {
        let f = self.faulty.as_mut().expect("fault state");
        let mut survivors = Vec::with_capacity(batch.requests.len());
        for r in batch.requests {
            let attempts = f.attempts.entry(r.id).or_insert(0);
            *attempts += 1;
            if *attempts >= f.max_request_attempts {
                f.failed.push(FailedRequest {
                    id: r.id,
                    reason: FailReason::RetriesExhausted { last: kind },
                });
                f.ledger(r.tenant).failed += 1;
            } else if f.retry_budget.as_mut().is_some_and(|b| !b.try_withdraw()) {
                f.failed.push(FailedRequest {
                    id: r.id,
                    reason: FailReason::RetryBudgetExhausted { last: kind },
                });
                f.ledger(r.tenant).failed += 1;
            } else {
                survivors.push(r);
            }
        }
        f.retried += survivors.len() as u64;
        if !survivors.is_empty() {
            self.scheduler.requeue(&Batch { requests: survivors, runtime: batch.runtime });
        }
        // The caller may have just retired the last live card (e.g. the
        // quarantine ladder's second strike): survivors requeued onto a
        // dead fleet must resolve as typed failures, not strand in the
        // queue past the end of the run.
        self.fail_all_pending_if_dead();
    }

    /// Once the last card dies, drain everything still queued into
    /// typed failures — queued requests must never be stranded.
    pub(super) fn fail_all_pending_if_dead(&mut self) {
        if !self.all_cards_dead() {
            return;
        }
        while let Some(batch) = self.scheduler.pop_any() {
            let f = self.faulty.as_mut().expect("fault state");
            for r in batch.requests {
                f.failed.push(FailedRequest { id: r.id, reason: FailReason::AllCardsDead });
                f.ledger(r.tenant).failed += 1;
            }
        }
        while let Some(batch) = self.scheduler.pop_any_session() {
            for r in batch.requests {
                self.shed_session_tokens(&r, 0);
                let f = self.faulty.as_mut().expect("fault state");
                f.failed.push(FailedRequest { id: r.id, reason: FailReason::AllCardsDead });
                f.ledger(r.tenant).failed += 1;
            }
        }
    }

    /// A scripted join fires: the slot (re)gains a card with a fresh
    /// monitor, a bumped epoch, and *no loaded weights* — the first
    /// batch it takes pays the full reprogram-and-reload charge, which
    /// is exactly how the paper prices a runtime retarget (register
    /// writes plus a weight image over `reload_gbps`; never a
    /// re-synthesis). Joining a slot that is already present only
    /// consumes the pending-join token.
    pub(super) fn join_card(&mut self, card: usize) {
        let Some(f) = self.faulty.as_mut() else { return };
        f.pending_joins = f.pending_joins.saturating_sub(1);
        // A join revives an absent slot or replaces a dead card (its
        // crash already bumped the epoch and requeued any in-flight
        // work); joining a live, present card is a no-op.
        if f.present[card] && f.monitors[card].health() != CardHealth::Dead {
            return;
        }
        f.present[card] = true;
        f.draining[card] = false;
        f.epochs[card] += 1;
        f.monitors[card] = CardMonitor::new(f.breaker);
        f.joins += 1;
        if let Some(s) = f.sdc.as_mut() {
            // A fresh card brings a fresh, digest-verified image.
            s.quarantined[card] = false;
            s.dirty[card] = 0;
            s.pending[card] = None;
        }
        let c = &mut self.cards[card];
        c.busy = false;
        c.loaded_class = None;
    }

    /// A scripted drain fires: the card stops taking new batches; if it
    /// is already idle it leaves immediately, otherwise the completion
    /// (or failure) of its in-flight batch finishes the drain.
    pub(super) fn drain_card(&mut self, card: usize) {
        let idle = {
            let Some(f) = self.faulty.as_mut() else { return };
            if !f.present[card] || f.draining[card] {
                return;
            }
            f.draining[card] = true;
            f.inflight[card].is_none() && !self.cards[card].busy
        };
        if idle {
            self.finish_drain(card);
        }
    }

    /// Complete a voluntary scale-down: the slot empties, its epoch
    /// bumps (any stale event no-ops), and anything still queued fails
    /// typed if this was the last serving card.
    pub(super) fn finish_drain(&mut self, card: usize) {
        if let Some(f) = self.faulty.as_mut() {
            f.present[card] = false;
            f.draining[card] = false;
            f.epochs[card] += 1;
            f.drains += 1;
            if let Some(s) = f.sdc.as_mut() {
                // The card leaves with its image: resident corruption
                // that no rung ever caught resolves as missed.
                s.missed += u64::from(std::mem::take(&mut s.dirty[card]));
                s.quarantined[card] = false;
                s.pending[card] = None;
            }
            let c = &mut self.cards[card];
            c.busy = false;
            c.loaded_class = None;
        }
        self.fail_all_pending_if_dead();
    }
}
