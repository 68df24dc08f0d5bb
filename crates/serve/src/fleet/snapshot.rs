//! Fleet snapshots: capture a mid-run simulation, restore it
//! bit-identically.
//!
//! A [`FleetSnapshot`] is a plain-text record of everything the
//! simulation will ever read again: the pending [`FleetEvent`]s, the
//! scheduler queues, per-card state, the metrics accumulator, the memo
//! keys, the complete fault/overload state (including each card's RNG
//! position), and the workload source's cursor. What it deliberately
//! does **not** record is anything derivable from the [`FleetConfig`]
//! (weights, fault scripts, policies) — the config is pinned by an FNV
//! digest instead, and [`apply`](FleetSnapshot::apply) regenerates the
//! derived state deterministically.
//!
//! The canonical text form doubles as the integrity mechanism: the
//! `hash` trailer is FNV-1a over the body, [`parse`](FleetSnapshot::parse)
//! verifies it, and `apply` finishes by re-capturing the restored state
//! and comparing hashes — a restore that would diverge from the
//! original run is rejected rather than silently drifting. The same
//! hash is the *state hash* surfaced per epoch in
//! [`ServeOutcome::state_hash`](crate::ServeOutcome::state_hash):
//! equal hashes mean bit-identical fleets.
//!
//! Format: line-oriented, space-separated tokens, trailer
//! `hash <16 hex digits>`. Floats travel as `f64::to_bits` so the
//! round-trip is exact.
//!
//! ## Grammar
//!
//! One grammar, headed `protea-fleet-snapshot v5`; any other header is
//! rejected. Requests always travel as eleven tokens (id, arrival,
//! shape, priority, deadline, tenant, decode steps, per-token
//! deadline). The optional sections are tied to state the restoring
//! side rebuilds from the digest-pinned config, so capture and restore
//! each test one predicate:
//!
//! * the fault section appears iff the run is managed, and always
//!   closes with the elastic state — roster presence, drain flags,
//!   pending joins, churn counters, and the per-tenant ledger;
//! * inside it, the SDC block — counters, scrub arming, per-card
//!   quarantine/dirty/pending state, the re-execution seq set, and each
//!   card's corruption-stream RNG position — appears iff the config
//!   arms the SDC defense;
//! * the generation block — session queues, the token conservation
//!   ledger, phase latency accumulators, and each card's running
//!   generation batch — is always written (two lines when no session
//!   exists). KV residency is not serialized; restore re-derives it by
//!   re-reserving each restored session's worst-case footprint.
//!
//! A wrong header, a missing or malformed `hash` trailer, or a body
//! that does not re-hash to the trailer is an *integrity* failure
//! ([`ServeError::SnapshotIntegrity`], its own exit code) — the file is
//! untrusted input, not a config mismatch.

use super::events::FleetEvent;
use super::sim::{
    kv_spec, CardGen, FaultState, GenSession, Inflight, MetricsAccum, SimModel, TenantLedger,
};
use super::FleetConfig;
use crate::error::ServeError;
use crate::faults::{FailReason, FailedRequest};
use crate::health::CardHealth;
use crate::request::{CapacityClass, Priority, ServeRequest, ServeResponse};
use crate::scheduler::Batch;
use crate::sketch::{LatencySketch, StreamMetrics};
use crate::source::{SourceState, WorkloadSource};
use protea_core::{Accelerator, CoreError, FaultKind, RuntimeConfig};
use protea_hwsim::{Cycles, EventQueue, Fnv64};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

const HEADER: &str = "protea-fleet-snapshot v5";

fn snap_err(msg: impl Into<String>) -> ServeError {
    ServeError::Snapshot { msg: msg.into() }
}

fn integrity_err(msg: impl Into<String>) -> ServeError {
    ServeError::SnapshotIntegrity { msg: msg.into() }
}

/// The fleet config digest a snapshot pins: FNV-1a over the config's
/// `Debug` form. A disarmed SDC config changes nothing about a run, so
/// it is normalised to `None` first and its snapshots stay
/// byte-identical to an undefended fleet's.
fn config_digest(config: &FleetConfig) -> u64 {
    if config.sdc.is_some() && !config.sdc_active() {
        let normalised = FleetConfig { sdc: None, ..config.clone() };
        return Fnv64::hash(format!("{normalised:?}").as_bytes());
    }
    Fnv64::hash(format!("{config:?}").as_bytes())
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "-".into(), |x| x.to_string())
}

fn kind_code(k: FaultKind) -> u64 {
    match k {
        FaultKind::EccSingle => 0,
        FaultKind::EccDouble => 1,
        FaultKind::AxiStall => 2,
        FaultKind::AxiTimeout => 3,
        FaultKind::CardCrash => 4,
        FaultKind::SilentCorrupt => 5,
    }
}

fn kind_from(code: u64) -> Result<FaultKind, ServeError> {
    Ok(match code {
        0 => FaultKind::EccSingle,
        1 => FaultKind::EccDouble,
        2 => FaultKind::AxiStall,
        3 => FaultKind::AxiTimeout,
        4 => FaultKind::CardCrash,
        5 => FaultKind::SilentCorrupt,
        _ => return Err(snap_err(format!("unknown fault kind code {code}"))),
    })
}

fn health_code(h: CardHealth) -> u64 {
    match h {
        CardHealth::Healthy => 0,
        CardHealth::Degraded => 1,
        CardHealth::Dead => 2,
    }
}

fn health_from(code: u64) -> Result<CardHealth, ServeError> {
    Ok(match code {
        0 => CardHealth::Healthy,
        1 => CardHealth::Degraded,
        2 => CardHealth::Dead,
        _ => return Err(snap_err(format!("unknown card health code {code}"))),
    })
}

fn req_tokens(r: &ServeRequest) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {} {} {}",
        r.id,
        r.arrival_ns,
        r.d_model,
        r.heads,
        r.layers,
        r.seq_len,
        r.priority.index(),
        opt_u64(r.deadline_ns),
        r.tenant,
        r.decode_steps,
        opt_u64(r.token_deadline_ns)
    )
}

fn event_tokens(ev: &FleetEvent) -> String {
    match ev {
        FleetEvent::Arrival(r) => format!("A {}", req_tokens(r)),
        FleetEvent::Crash { card } => format!("X {card}"),
        FleetEvent::Free { card } => format!("F {card}"),
        FleetEvent::Complete { card, epoch, start_ns } => format!("C {card} {epoch} {start_ns}"),
        FleetEvent::Fail { card, epoch, kind } => {
            format!("L {card} {epoch} {}", kind_code(*kind))
        }
        FleetEvent::Hedge { card, seq } => format!("H {card} {seq}"),
        FleetEvent::Join { card } => format!("J {card}"),
        FleetEvent::Drain { card } => format!("D {card}"),
        FleetEvent::Scrub => "S".into(),
        FleetEvent::Requalify { card, epoch } => format!("Q {card} {epoch}"),
        FleetEvent::Generate { card, epoch } => format!("G {card} {epoch}"),
        FleetEvent::Wake => "W".into(),
    }
}

fn reason_tokens(r: &FailReason) -> String {
    match r {
        FailReason::RetriesExhausted { last } => format!("retries {}", kind_code(*last)),
        FailReason::AllCardsDead => "dead".into(),
        FailReason::Shed => "shed".into(),
        FailReason::DeadlineExpired => "expired".into(),
        FailReason::RetryBudgetExhausted { last } => format!("budget {}", kind_code(*last)),
        FailReason::Brownout => "brownout".into(),
    }
}

fn sketch_line(tag: &str, s: &LatencySketch) -> String {
    let (zeros, pairs, count, max) = s.export();
    let mut line = format!("{tag} {zeros} {count} {} {}", max.to_bits(), pairs.len());
    for (bin, n) in pairs {
        line.push_str(&format!(" {bin} {n}"));
    }
    line
}

// ---------------------------------------------------------------------
// Token cursor for parsing the canonical body
// ---------------------------------------------------------------------

struct Cursor<'a> {
    lines: &'a [String],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(lines: &'a [String]) -> Self {
        Self { lines, pos: 0 }
    }

    /// The next line's tokens, which must start with `tag`; returns the
    /// remaining tokens.
    fn expect(&mut self, tag: &str) -> Result<Vec<&'a str>, ServeError> {
        let line = self
            .lines
            .get(self.pos)
            .ok_or_else(|| snap_err(format!("truncated snapshot: expected `{tag}` line")))?;
        self.pos += 1;
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some(t) if t == tag => Ok(toks.collect()),
            got => Err(snap_err(format!("expected `{tag}` line, got `{}`", got.unwrap_or("")))),
        }
    }
}

fn pu64(tok: Option<&&str>, what: &str) -> Result<u64, ServeError> {
    tok.ok_or_else(|| snap_err(format!("missing {what}")))?
        .parse()
        .map_err(|_| snap_err(format!("malformed {what}")))
}

fn pusize(tok: Option<&&str>, what: &str) -> Result<usize, ServeError> {
    Ok(pu64(tok, what)? as usize)
}

fn pbool(tok: Option<&&str>, what: &str) -> Result<bool, ServeError> {
    match pu64(tok, what)? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(snap_err(format!("{what} must be 0 or 1, got {v}"))),
    }
}

fn popt(tok: Option<&&str>, what: &str) -> Result<Option<u64>, ServeError> {
    match tok {
        Some(&"-") => Ok(None),
        other => Ok(Some(pu64(other, what)?)),
    }
}

fn parse_request(toks: &[&str]) -> Result<ServeRequest, ServeError> {
    if toks.len() != 11 {
        return Err(snap_err(format!("request wants 11 tokens, got {}", toks.len())));
    }
    let mut it = toks.iter();
    let (id, arrival_ns) = (pu64(it.next(), "request id")?, pu64(it.next(), "arrival")?);
    let d_model = pusize(it.next(), "d_model")?;
    let heads = pusize(it.next(), "heads")?;
    let layers = pusize(it.next(), "layers")?;
    let seq_len = pusize(it.next(), "seq_len")?;
    let prio = pusize(it.next(), "priority")?;
    let priority = *Priority::ALL
        .get(prio)
        .ok_or_else(|| snap_err(format!("unknown priority index {prio}")))?;
    Ok(ServeRequest {
        id,
        arrival_ns,
        d_model,
        heads,
        layers,
        seq_len,
        priority,
        deadline_ns: popt(it.next(), "deadline")?,
        tenant: pu64(it.next(), "tenant")? as u32,
        decode_steps: pu64(it.next(), "decode_steps")? as u32,
        token_deadline_ns: popt(it.next(), "token deadline")?,
    })
}

fn parse_event(toks: &[&str]) -> Result<FleetEvent, ServeError> {
    let (tag, rest) = toks.split_first().ok_or_else(|| snap_err("empty event"))?;
    let mut it = rest.iter();
    Ok(match *tag {
        "A" => FleetEvent::Arrival(parse_request(rest)?),
        "X" => FleetEvent::Crash { card: pusize(it.next(), "crash card")? },
        "F" => FleetEvent::Free { card: pusize(it.next(), "free card")? },
        "C" => FleetEvent::Complete {
            card: pusize(it.next(), "complete card")?,
            epoch: pu64(it.next(), "complete epoch")?,
            start_ns: pu64(it.next(), "complete start")?,
        },
        "L" => FleetEvent::Fail {
            card: pusize(it.next(), "fail card")?,
            epoch: pu64(it.next(), "fail epoch")?,
            kind: kind_from(pu64(it.next(), "fail kind")?)?,
        },
        "H" => FleetEvent::Hedge {
            card: pusize(it.next(), "hedge card")?,
            seq: pu64(it.next(), "hedge seq")?,
        },
        "J" => FleetEvent::Join { card: pusize(it.next(), "join card")? },
        "D" => FleetEvent::Drain { card: pusize(it.next(), "drain card")? },
        "S" => FleetEvent::Scrub,
        "Q" => FleetEvent::Requalify {
            card: pusize(it.next(), "requalify card")?,
            epoch: pu64(it.next(), "requalify epoch")?,
        },
        "G" => FleetEvent::Generate {
            card: pusize(it.next(), "generate card")?,
            epoch: pu64(it.next(), "generate epoch")?,
        },
        "W" => FleetEvent::Wake,
        other => return Err(snap_err(format!("unknown event tag `{other}`"))),
    })
}

fn parse_reason(toks: &[&str]) -> Result<FailReason, ServeError> {
    let (tag, rest) = toks.split_first().ok_or_else(|| snap_err("empty fail reason"))?;
    Ok(match *tag {
        "retries" => {
            FailReason::RetriesExhausted { last: kind_from(pu64(rest.first(), "fault kind")?)? }
        }
        "dead" => FailReason::AllCardsDead,
        "shed" => FailReason::Shed,
        "expired" => FailReason::DeadlineExpired,
        "budget" => {
            FailReason::RetryBudgetExhausted { last: kind_from(pu64(rest.first(), "fault kind")?)? }
        }
        "brownout" => FailReason::Brownout,
        other => return Err(snap_err(format!("unknown fail reason `{other}`"))),
    })
}

fn parse_sketch(toks: &[&str]) -> Result<LatencySketch, ServeError> {
    let mut it = toks.iter();
    let zeros = pu64(it.next(), "sketch zeros")?;
    let count = pu64(it.next(), "sketch count")?;
    let max = f64::from_bits(pu64(it.next(), "sketch max")?);
    let npairs = pusize(it.next(), "sketch pair count")?;
    let mut pairs = Vec::new();
    for _ in 0..npairs {
        let bin = pusize(it.next(), "sketch bin")?;
        let n = pu64(it.next(), "sketch bin count")?;
        pairs.push((bin, n));
    }
    Ok(LatencySketch::import(zeros, &pairs, count, max))
}

// ---------------------------------------------------------------------
// The snapshot itself
// ---------------------------------------------------------------------

/// A captured, restorable fleet state (see the module docs for the
/// format and integrity guarantees).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSnapshot {
    /// Canonical body lines, without the `hash` trailer.
    body: Vec<String>,
    /// FNV-1a over the body joined with `\n`.
    hash: u64,
    /// Arrivals processed when captured (the snapshot's epoch).
    arrivals: u64,
}

impl FleetSnapshot {
    /// The FNV-1a state hash: equal hashes mean bit-identical fleet
    /// states (pending events, queues, cards, metrics, RNG positions,
    /// and source cursor all included).
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        self.hash
    }

    /// How many arrivals the captured run had processed — the
    /// snapshot's position on the workload.
    #[must_use]
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    fn seal(body: Vec<String>, arrivals: u64) -> Self {
        let hash = Fnv64::hash(body.join("\n").as_bytes());
        Self { body, hash, arrivals }
    }

    /// Parse the canonical text form, verifying the header and
    /// the integrity hash.
    ///
    /// # Errors
    /// [`ServeError::SnapshotIntegrity`] on an unknown header, a
    /// missing or malformed `hash` trailer, or a body that does not
    /// re-hash to the trailer — the file is untrusted input.
    /// [`ServeError::Snapshot`] on structural problems inside a sealed
    /// body (e.g. a malformed `arrivals` line).
    pub fn parse(text: &str) -> Result<Self, ServeError> {
        let mut body: Vec<String> =
            text.lines().map(str::to_owned).filter(|l| !l.trim().is_empty()).collect();
        let trailer = body.pop().ok_or_else(|| integrity_err("empty snapshot"))?;
        let stated = trailer
            .strip_prefix("hash ")
            .ok_or_else(|| integrity_err("snapshot does not end with a `hash` trailer"))?;
        let stated = u64::from_str_radix(stated.trim(), 16)
            .map_err(|_| integrity_err("malformed hash trailer"))?;
        match body.first() {
            Some(h) if h == HEADER => {}
            got => {
                return Err(integrity_err(format!(
                    "unsupported snapshot header `{}` (want `{HEADER}`)",
                    got.map_or("", String::as_str)
                )))
            }
        }
        let computed = Fnv64::hash(body.join("\n").as_bytes());
        if computed != stated {
            return Err(integrity_err(format!(
                "hash mismatch: body hashes to {computed:016x}, trailer says {stated:016x}"
            )));
        }
        let arrivals = body
            .iter()
            .find_map(|l| l.strip_prefix("arrivals "))
            .ok_or_else(|| snap_err("snapshot has no arrivals line"))?
            .parse()
            .map_err(|_| snap_err("malformed arrivals line"))?;
        Ok(Self { body, hash: computed, arrivals })
    }

    /// Capture the complete state of a mid-run (or finished) simulation.
    pub(super) fn capture(
        config: &FleetConfig,
        q: &EventQueue<FleetEvent>,
        m: &SimModel,
        source: &dyn WorkloadSource,
        arrivals: u64,
        managed: bool,
        sketch: bool,
    ) -> Self {
        let events = q.sorted_events();
        let rows = m.scheduler.export_queues();
        let mut w: Vec<String> = vec![HEADER.into()];
        w.push(format!("config {:016x}", config_digest(config)));
        let cursor = source.state();
        let mut line = format!("source {}", source.kind());
        for word in &cursor.words {
            line.push_str(&format!(" {word}"));
        }
        w.push(line);
        w.push(format!("managed {}", u64::from(managed)));
        w.push(format!("sketch {}", u64::from(sketch)));
        w.push(format!("time {}", q.now().get()));
        w.push(format!("arrivals {arrivals}"));
        w.push(format!("counters {} {} {}", m.ops_total, m.batches, m.reprograms));
        w.push(format!("next_flush {}", opt_u64(m.next_flush)));
        w.push(format!("events {}", events.len()));
        for (t, rank, ev) in &events {
            w.push(format!("event {} {rank} {}", t.get(), event_tokens(ev)));
        }
        w.push(format!("queues {}", rows.len()));
        for (class, padded_seq_len, requests) in &rows {
            w.push(format!(
                "queue {} {} {} {padded_seq_len} {}",
                class.d_model,
                class.heads,
                class.layers,
                requests.len()
            ));
            for r in requests {
                w.push(format!("req {}", req_tokens(r)));
            }
        }
        w.push(format!("cards {}", m.cards.len()));
        for c in &m.cards {
            match c.loaded_class {
                Some(cl) => w.push(format!(
                    "card {} {} {} {} {}",
                    u64::from(c.busy),
                    c.busy_ns,
                    cl.d_model,
                    cl.heads,
                    cl.layers
                )),
                None => w.push(format!("card {} {} -", u64::from(c.busy), c.busy_ns)),
            }
        }
        match &m.metrics {
            MetricsAccum::Exact(responses) => {
                w.push(format!("metrics exact {}", responses.len()));
                for r in responses {
                    w.push(format!(
                        "resp {} {} {} {} {} {} {}",
                        r.id,
                        r.arrival_ns,
                        r.start_ns,
                        r.finish_ns,
                        r.card,
                        r.batch_size,
                        r.padded_seq_len
                    ));
                }
            }
            MetricsAccum::Sketch(sm) => {
                w.push(format!("metrics sketch {} {}", sm.completed(), sm.max_finish_ns()));
                let (lat, que) = sm.sketches();
                w.push(sketch_line("lsk", lat));
                w.push(sketch_line("qsk", que));
            }
        }
        match &m.memo {
            Some(memo) => {
                let keys: Vec<_> = memo.keys().collect();
                w.push(format!("memo 1 {} {} {}", memo.hits(), memo.misses(), keys.len()));
                for k in keys {
                    w.push(format!(
                        "key {} {} {} {} {} {}",
                        k.heads,
                        k.layers,
                        k.d_model,
                        k.seq_len,
                        k.batch,
                        u64::from(k.overlap)
                    ));
                }
            }
            None => w.push("memo 0 0 0 0".into()),
        }
        if let Some(f) = &m.faulty {
            capture_faults(&mut w, f);
        }
        capture_sessions(&mut w, m);
        Self::seal(w, arrivals)
    }

    /// Rebuild the simulation this snapshot captured: validate the
    /// config digest and source kind, seek the source, reconstruct the
    /// model and event queue, and verify the restored state re-hashes
    /// to this snapshot's hash.
    pub(super) fn apply(
        &self,
        config: &FleetConfig,
        managed: bool,
        sketch: bool,
        source: &mut dyn WorkloadSource,
    ) -> Result<(EventQueue<FleetEvent>, SimModel, u64), ServeError> {
        let mut c = Cursor::new(&self.body);
        c.pos = 1;
        let digest = self.read_digest(&mut c)?;
        let want = config_digest(config);
        if digest != want {
            return Err(snap_err(format!(
                "snapshot was captured under a different fleet config \
                 (digest {digest:016x}, this fleet is {want:016x})"
            )));
        }
        let toks = c.expect("source")?;
        let (kind, words) =
            toks.split_first().ok_or_else(|| snap_err("source line missing kind"))?;
        if *kind != source.kind() {
            return Err(snap_err(format!(
                "snapshot records a `{kind}` source, resume supplied `{}`",
                source.kind()
            )));
        }
        let words = words
            .iter()
            .map(|t| pu64(Some(t), "source state word"))
            .collect::<Result<Vec<u64>, _>>()?;
        source.restore(&SourceState { words })?;
        let snap_managed = pbool(c.expect("managed")?.first(), "managed flag")?;
        if snap_managed != managed {
            return Err(snap_err(
                "snapshot was captured under a different managed mode \
                 (fault/overload/deadline knobs changed)",
            ));
        }
        let snap_sketch = pbool(c.expect("sketch")?.first(), "sketch flag")?;
        if snap_sketch != sketch {
            return Err(snap_err("snapshot was captured under a different metrics mode"));
        }
        let time = pu64(c.expect("time")?.first(), "time")?;
        let arrivals = pu64(c.expect("arrivals")?.first(), "arrivals")?;
        let counters = c.expect("counters")?;
        let mut model = SimModel::build(config, managed, false, sketch)?;
        model.ops_total = pu64(counters.first(), "ops_total")?;
        model.batches = pu64(counters.get(1), "batches")?;
        model.reprograms = pu64(counters.get(2), "reprograms")?;
        model.next_flush = popt(c.expect("next_flush")?.first(), "next_flush")?;

        let mut q = EventQueue::new();
        q.set_now(Cycles(time));
        let n_events = pusize(c.expect("events")?.first(), "event count")?;
        for _ in 0..n_events {
            let toks = c.expect("event")?;
            let t = pu64(toks.first(), "event time")?;
            let rank = pu64(toks.get(1), "event rank")? as u8;
            if t < time {
                return Err(snap_err(format!(
                    "pending event at {t} ns predates the snapshot clock {time} ns"
                )));
            }
            q.push(Cycles(t), rank, parse_event(&toks[2..])?);
        }

        let n_queues = pusize(c.expect("queues")?.first(), "queue count")?;
        let mut rows = Vec::new();
        for _ in 0..n_queues {
            let toks = c.expect("queue")?;
            let class = CapacityClass {
                d_model: pusize(toks.first(), "queue d_model")?,
                heads: pusize(toks.get(1), "queue heads")?,
                layers: pusize(toks.get(2), "queue layers")?,
            };
            let padded = pusize(toks.get(3), "queue padded_seq_len")?;
            let k = pusize(toks.get(4), "queue length")?;
            let mut requests = Vec::new();
            for _ in 0..k {
                requests.push(parse_request(&c.expect("req")?)?);
            }
            rows.push((class, padded, requests));
        }
        model.scheduler.import_queues(rows);

        let n_cards = pusize(c.expect("cards")?.first(), "card count")?;
        if n_cards != model.cards.len() {
            return Err(snap_err(format!(
                "snapshot has {n_cards} cards, fleet has {}",
                model.cards.len()
            )));
        }
        for i in 0..n_cards {
            let toks = c.expect("card")?;
            let busy = pbool(toks.first(), "card busy")?;
            let busy_ns = pu64(toks.get(1), "card busy_ns")?;
            let class = match toks.get(2) {
                Some(&"-") => None,
                some => Some(CapacityClass {
                    d_model: pusize(some, "card class d_model")?,
                    heads: pusize(toks.get(3), "card class heads")?,
                    layers: pusize(toks.get(4), "card class layers")?,
                }),
            };
            if let Some(cl) = class {
                if model.functional {
                    // Functional dispatch on a warm card executes with
                    // the loaded weights — re-image them for real.
                    let weights = model.weights_for(cl);
                    let card = &mut model.cards[i];
                    card.accel
                        .program(RuntimeConfig {
                            heads: cl.heads,
                            layers: cl.layers,
                            d_model: cl.d_model,
                            seq_len: 8,
                        })
                        .map_err(CoreError::from)?;
                    card.accel.try_load_weights(weights)?;
                }
                model.cards[i].loaded_class = Some(cl);
            }
            model.cards[i].busy = busy;
            model.cards[i].busy_ns = busy_ns;
        }

        let toks = c.expect("metrics")?;
        match (toks.first(), sketch) {
            (Some(&"exact"), false) => {
                let n = pusize(toks.get(1), "response count")?;
                let mut responses = Vec::new();
                for _ in 0..n {
                    let toks = c.expect("resp")?;
                    responses.push(ServeResponse {
                        id: pu64(toks.first(), "resp id")?,
                        arrival_ns: pu64(toks.get(1), "resp arrival")?,
                        start_ns: pu64(toks.get(2), "resp start")?,
                        finish_ns: pu64(toks.get(3), "resp finish")?,
                        card: pusize(toks.get(4), "resp card")?,
                        batch_size: pusize(toks.get(5), "resp batch_size")?,
                        padded_seq_len: pusize(toks.get(6), "resp padded_seq_len")?,
                    });
                }
                model.metrics = MetricsAccum::Exact(responses);
            }
            (Some(&"sketch"), true) => {
                let completed = pu64(toks.get(1), "completed")?;
                let max_finish_ns = pu64(toks.get(2), "max_finish_ns")?;
                let lat = parse_sketch(&c.expect("lsk")?)?;
                let que = parse_sketch(&c.expect("qsk")?)?;
                model.metrics = MetricsAccum::Sketch(StreamMetrics::from_parts(
                    completed,
                    max_finish_ns,
                    lat,
                    que,
                ));
            }
            (tag, _) => {
                return Err(snap_err(format!(
                    "metrics mode `{}` does not match the plan",
                    tag.unwrap_or(&"")
                )))
            }
        }

        let toks = c.expect("memo")?;
        let present = pbool(toks.first(), "memo flag")?;
        if present != model.memo.is_some() {
            return Err(snap_err("snapshot memo presence does not match the fleet config"));
        }
        let hits = pu64(toks.get(1), "memo hits")?;
        let misses = pu64(toks.get(2), "memo misses")?;
        let n_keys = pusize(toks.get(3), "memo key count")?;
        if present {
            // Reports are a pure function of their key: reprice each
            // stored key on a scratch card instead of serializing the
            // CycleReports, then restore the true traffic counters.
            // The memo only exists on a uniform roster, so slot 0's
            // device prices every key the fleet could have cached.
            let mut scratch = Accelerator::try_new(config.synthesis, &config.resolved_roster()[0])?;
            for _ in 0..n_keys {
                let toks = c.expect("key")?;
                scratch
                    .program(RuntimeConfig {
                        heads: pusize(toks.first(), "key heads")?,
                        layers: pusize(toks.get(1), "key layers")?,
                        d_model: pusize(toks.get(2), "key d_model")?,
                        seq_len: pusize(toks.get(3), "key seq_len")?,
                    })
                    .map_err(CoreError::from)?;
                let batch = pusize(toks.get(4), "key batch")?;
                let memo = model.memo.as_mut().expect("presence checked");
                let _ = memo.report(&scratch, batch);
            }
            model.memo.as_mut().expect("presence checked").set_counters(hits, misses);
        }

        // The managed flag was checked above, so the fault state exists
        // on both sides or on neither.
        let cards = model.cards.len();
        if let Some(f) = model.faulty.as_mut() {
            restore_faults(&mut c, f, cards)?;
        }
        restore_sessions(&mut c, &mut model)?;

        // Self-check: the restored state must re-hash to exactly this
        // snapshot — anything less means the resumed run would diverge.
        let recap = Self::capture(config, &q, &model, &*source, arrivals, managed, sketch);
        if recap.hash != self.hash {
            return Err(snap_err(
                "restored state does not reproduce the snapshot hash (internal inconsistency)",
            ));
        }
        Ok((q, model, arrivals))
    }

    fn read_digest(&self, c: &mut Cursor<'_>) -> Result<u64, ServeError> {
        let toks = c.expect("config")?;
        let hex = toks.first().ok_or_else(|| snap_err("config line missing digest"))?;
        u64::from_str_radix(hex, 16).map_err(|_| snap_err("malformed config digest"))
    }
}

fn capture_faults(w: &mut Vec<String>, f: &FaultState) {
    w.push(format!("f.submitted {}", f.submitted));
    w.push(format!("f.trackdl {}", u64::from(f.track_deadlines)));
    w.push(format!("f.batchseq {}", f.batch_seq));
    w.push(format!("f.hedges {} {} {}", f.hedges, f.hedge_wins, f.hedge_cancels));
    w.push(format!("f.retried {}", f.retried));
    w.push(format!("f.crashes {}", f.crashes));
    let s = &f.stats;
    w.push(format!(
        "f.stats {} {} {} {} {} {} {} {}",
        s.ecc_single,
        s.ecc_double,
        s.stalls,
        s.watchdog_trips,
        s.retries,
        s.stall_cycles,
        s.recovery_cycles,
        s.abort_cycles
    ));
    w.push(format!(
        "f.prio {} {} {} {} {} {} {} {} {} {}",
        f.prio_submitted[0],
        f.prio_submitted[1],
        f.prio_submitted[2],
        f.prio_completed[0],
        f.prio_completed[1],
        f.prio_completed[2],
        f.prio_good[0],
        f.prio_good[1],
        f.prio_good[2],
        f.good_completions
    ));
    w.push(format!("f.breaker_wake {}", opt_u64(f.breaker_wake)));
    w.push(format!("f.deadline_wake {}", opt_u64(f.deadline_wake)));
    for stream in &f.streams {
        let (rng, next_scripted) = stream.state();
        w.push(format!("stream {rng} {next_scripted}"));
    }
    for mon in &f.monitors {
        let (health, consecutive, total, open) = mon.export_state();
        w.push(format!("monitor {} {consecutive} {total} {}", health_code(health), opt_u64(open)));
    }
    let mut line = String::from("epochs");
    for e in &f.epochs {
        line.push_str(&format!(" {e}"));
    }
    w.push(line);
    for slot in &f.inflight {
        match slot {
            None => w.push("inflight -".into()),
            Some(i) => {
                let rt = i.batch.runtime;
                w.push(format!(
                    "inflight {} {} {} {} {} {} {} {} {}",
                    i.seq,
                    i.resolve_ns,
                    u64::from(i.is_hedge),
                    i.partner.map_or_else(|| "-".into(), |p| p.to_string()),
                    rt.heads,
                    rt.layers,
                    rt.d_model,
                    rt.seq_len,
                    i.batch.requests.len()
                ));
                for r in &i.batch.requests {
                    w.push(format!("req {}", req_tokens(r)));
                }
            }
        }
    }
    w.push(format!("attempts {}", f.attempts.len()));
    for (id, n) in &f.attempts {
        w.push(format!("att {id} {n}"));
    }
    for (tag, list) in [("failed", &f.failed), ("shed", &f.shed), ("expired", &f.expired)] {
        w.push(format!("{tag} {}", list.len()));
        for fr in list {
            w.push(format!("fr {} {}", fr.id, reason_tokens(&fr.reason)));
        }
    }
    w.push(format!(
        "limiter {}",
        f.limiter.as_ref().map_or_else(|| "-".into(), |l| l.raw_limit().to_bits().to_string())
    ));
    w.push(format!(
        "budget {}",
        f.retry_budget.as_ref().map_or_else(|| "-".into(), |b| b.milli().to_string())
    ));
    let svc = f.svc.export();
    let mut line = format!("svc {}", svc.len());
    for v in svc {
        line.push_str(&format!(" {v}"));
    }
    w.push(line);
    let mut line = String::from("f.present");
    for p in &f.present {
        line.push_str(&format!(" {}", u64::from(*p)));
    }
    w.push(line);
    let mut line = String::from("f.draining");
    for d in &f.draining {
        line.push_str(&format!(" {}", u64::from(*d)));
    }
    w.push(line);
    w.push(format!("f.pending_joins {}", f.pending_joins));
    w.push(format!("f.churn {} {}", f.joins, f.drains));
    w.push(format!("tenants {}", f.tenants.len()));
    for (t, l) in &f.tenants {
        w.push(format!(
            "tenant {t} {} {} {} {} {} {}",
            l.submitted, l.completed, l.shed, l.expired, l.failed, l.good
        ));
    }
    if let Some(s) = &f.sdc {
        w.push(format!(
            "s.counters {} {} {} {} {}",
            s.injected, s.detected, s.missed, s.re_execs, s.scrubs
        ));
        w.push(format!("s.scrub_armed {}", opt_u64(s.scrub_armed)));
        for stream in &s.streams {
            let (rng, next_scripted) = stream.state();
            w.push(format!("sstream {rng} {next_scripted}"));
        }
        let mut line = String::from("s.quarantined");
        for q in &s.quarantined {
            line.push_str(&format!(" {}", u64::from(*q)));
        }
        w.push(line);
        let mut line = String::from("s.dirty");
        for d in &s.dirty {
            line.push_str(&format!(" {d}"));
        }
        w.push(line);
        let mut line = String::from("s.pending");
        for p in &s.pending {
            match p {
                None => line.push_str(" -"),
                Some(covered) => line.push_str(&format!(" {}", u64::from(*covered))),
            }
        }
        w.push(line);
        let mut line = format!("s.reexec {}", s.reexec.len());
        for seq in &s.reexec {
            line.push_str(&format!(" {seq}"));
        }
        w.push(line);
    }
}

/// A line of exactly one flag per card.
fn card_flags(toks: &[&str], cards: usize, what: &str) -> Result<Vec<bool>, ServeError> {
    if toks.len() != cards {
        return Err(snap_err(format!("{what} line wants {cards} entries, got {}", toks.len())));
    }
    toks.iter().map(|t| pbool(Some(t), what)).collect()
}

fn restore_faults(c: &mut Cursor<'_>, f: &mut FaultState, cards: usize) -> Result<(), ServeError> {
    f.submitted = pusize(c.expect("f.submitted")?.first(), "submitted")?;
    f.track_deadlines = pbool(c.expect("f.trackdl")?.first(), "track_deadlines")?;
    f.batch_seq = pu64(c.expect("f.batchseq")?.first(), "batch_seq")?;
    let toks = c.expect("f.hedges")?;
    f.hedges = pu64(toks.first(), "hedges")?;
    f.hedge_wins = pu64(toks.get(1), "hedge_wins")?;
    f.hedge_cancels = pu64(toks.get(2), "hedge_cancels")?;
    f.retried = pu64(c.expect("f.retried")?.first(), "retried")?;
    f.crashes = pu64(c.expect("f.crashes")?.first(), "crashes")?;
    let toks = c.expect("f.stats")?;
    f.stats.ecc_single = pu64(toks.first(), "ecc_single")?;
    f.stats.ecc_double = pu64(toks.get(1), "ecc_double")?;
    f.stats.stalls = pu64(toks.get(2), "stalls")?;
    f.stats.watchdog_trips = pu64(toks.get(3), "watchdog_trips")?;
    f.stats.retries = pu64(toks.get(4), "retries")?;
    f.stats.stall_cycles = pu64(toks.get(5), "stall_cycles")?;
    f.stats.recovery_cycles = pu64(toks.get(6), "recovery_cycles")?;
    f.stats.abort_cycles = pu64(toks.get(7), "abort_cycles")?;
    let toks = c.expect("f.prio")?;
    for (i, slot) in
        f.prio_submitted.iter_mut().chain(&mut f.prio_completed).chain(&mut f.prio_good).enumerate()
    {
        *slot = pusize(toks.get(i), "prio counter")?;
    }
    f.good_completions = pusize(toks.get(9), "good_completions")?;
    f.breaker_wake = popt(c.expect("f.breaker_wake")?.first(), "breaker_wake")?;
    f.deadline_wake = popt(c.expect("f.deadline_wake")?.first(), "deadline_wake")?;
    for stream in &mut f.streams {
        let toks = c.expect("stream")?;
        let rng = pu64(toks.first(), "stream rng state")?;
        let next_scripted = pusize(toks.get(1), "stream scripted cursor")?;
        stream.restore(rng, next_scripted);
    }
    for mon in &mut f.monitors {
        let toks = c.expect("monitor")?;
        mon.restore_state(
            health_from(pu64(toks.first(), "monitor health")?)?,
            pu64(toks.get(1), "monitor consecutive")? as u32,
            pu64(toks.get(2), "monitor total")? as u32,
            popt(toks.get(3), "monitor open_until")?,
        );
    }
    let toks = c.expect("epochs")?;
    if toks.len() != cards {
        return Err(snap_err(format!("epochs line wants {cards} entries, got {}", toks.len())));
    }
    for (i, e) in f.epochs.iter_mut().enumerate() {
        *e = pu64(toks.get(i), "epoch")?;
    }
    for slot in &mut f.inflight {
        let toks = c.expect("inflight")?;
        if toks.first() == Some(&"-") {
            continue;
        }
        let seq = pu64(toks.first(), "inflight seq")?;
        let resolve_ns = pu64(toks.get(1), "inflight resolve_ns")?;
        let is_hedge = pbool(toks.get(2), "inflight is_hedge")?;
        let partner = popt(toks.get(3), "inflight partner")?.map(|p| p as usize);
        let runtime = RuntimeConfig {
            heads: pusize(toks.get(4), "inflight heads")?,
            layers: pusize(toks.get(5), "inflight layers")?,
            d_model: pusize(toks.get(6), "inflight d_model")?,
            seq_len: pusize(toks.get(7), "inflight seq_len")?,
        };
        let k = pusize(toks.get(8), "inflight batch size")?;
        let mut requests = Vec::new();
        for _ in 0..k {
            requests.push(parse_request(&c.expect("req")?)?);
        }
        *slot = Some(Inflight {
            batch: Batch { requests, runtime },
            seq,
            resolve_ns,
            is_hedge,
            partner,
        });
    }
    let n = pusize(c.expect("attempts")?.first(), "attempts count")?;
    f.attempts = BTreeMap::new();
    for _ in 0..n {
        let toks = c.expect("att")?;
        f.attempts
            .insert(pu64(toks.first(), "attempt id")?, pu64(toks.get(1), "attempt count")? as u32);
    }
    for (tag, list) in
        [("failed", &mut f.failed), ("shed", &mut f.shed), ("expired", &mut f.expired)]
    {
        let n = pusize(c.expect(tag)?.first(), "failure count")?;
        list.clear();
        for _ in 0..n {
            let toks = c.expect("fr")?;
            list.push(FailedRequest {
                id: pu64(toks.first(), "failed id")?,
                reason: parse_reason(&toks[1..])?,
            });
        }
    }
    match (c.expect("limiter")?.first(), f.limiter.as_mut()) {
        (Some(&"-"), None) => {}
        (Some(bits), Some(l)) => {
            l.set_raw_limit(f64::from_bits(pu64(Some(bits), "limiter bits")?));
        }
        _ => return Err(snap_err("snapshot limiter presence does not match the fleet config")),
    }
    match (c.expect("budget")?.first(), f.retry_budget.as_mut()) {
        (Some(&"-"), None) => {}
        (Some(milli), Some(b)) => b.set_milli(pu64(Some(milli), "budget milli")?),
        _ => {
            return Err(snap_err("snapshot retry-budget presence does not match the fleet config"))
        }
    }
    let toks = c.expect("svc")?;
    let n = pusize(toks.first(), "service-time count")?;
    let mut samples = Vec::new();
    for i in 0..n {
        samples.push(pu64(toks.get(1 + i), "service-time sample")?);
    }
    f.svc.import(samples);
    f.present = card_flags(&c.expect("f.present")?, cards, "f.present")?;
    f.draining = card_flags(&c.expect("f.draining")?, cards, "f.draining")?;
    f.pending_joins = pusize(c.expect("f.pending_joins")?.first(), "pending joins")?;
    let toks = c.expect("f.churn")?;
    f.joins = pu64(toks.first(), "join count")?;
    f.drains = pu64(toks.get(1), "drain count")?;
    let n = pusize(c.expect("tenants")?.first(), "tenant count")?;
    f.tenants = BTreeMap::new();
    for _ in 0..n {
        let toks = c.expect("tenant")?;
        f.tenants.insert(
            pu64(toks.first(), "tenant id")? as u32,
            TenantLedger {
                submitted: pusize(toks.get(1), "tenant submitted")?,
                completed: pusize(toks.get(2), "tenant completed")?,
                shed: pusize(toks.get(3), "tenant shed")?,
                expired: pusize(toks.get(4), "tenant expired")?,
                failed: pusize(toks.get(5), "tenant failed")?,
                good: pusize(toks.get(6), "tenant good")?,
            },
        );
    }
    let Some(s) = f.sdc.as_mut() else { return Ok(()) };
    let toks = c.expect("s.counters")?;
    s.injected = pu64(toks.first(), "sdc injected")?;
    s.detected = pu64(toks.get(1), "sdc detected")?;
    s.missed = pu64(toks.get(2), "sdc missed")?;
    s.re_execs = pu64(toks.get(3), "sdc re_execs")?;
    s.scrubs = pu64(toks.get(4), "sdc scrubs")?;
    s.scrub_armed = popt(c.expect("s.scrub_armed")?.first(), "scrub_armed")?;
    for stream in &mut s.streams {
        let toks = c.expect("sstream")?;
        let rng = pu64(toks.first(), "sdc stream rng state")?;
        let next_scripted = pusize(toks.get(1), "sdc stream scripted cursor")?;
        stream.restore(rng, next_scripted);
    }
    s.quarantined = card_flags(&c.expect("s.quarantined")?, cards, "s.quarantined")?;
    let toks = c.expect("s.dirty")?;
    if toks.len() != cards {
        return Err(snap_err(format!("s.dirty line wants {cards} entries, got {}", toks.len())));
    }
    for (i, slot) in s.dirty.iter_mut().enumerate() {
        *slot = pu64(toks.get(i), "dirty count")? as u32;
    }
    let toks = c.expect("s.pending")?;
    if toks.len() != cards {
        return Err(snap_err(format!("s.pending line wants {cards} entries, got {}", toks.len())));
    }
    for (i, slot) in s.pending.iter_mut().enumerate() {
        *slot = match toks.get(i) {
            Some(&"-") => None,
            tok => Some(pbool(tok, "pending draw")?),
        };
    }
    let toks = c.expect("s.reexec")?;
    let n = pusize(toks.first(), "reexec count")?;
    let mut reexec = std::collections::BTreeSet::new();
    for i in 0..n {
        reexec.insert(pu64(toks.get(1 + i), "reexec seq")?);
    }
    s.reexec = reexec;
    Ok(())
}

/// The generation block: queued sessions (the session-queue twin of
/// the one-shot queues), the token conservation ledger, the phase
/// latency accumulators, and each card's running generation batch.
/// KV residency is deliberately **not** serialized — reservations are
/// worst-case up-front, so [`restore_sessions`] re-derives them by
/// re-reserving per restored session.
fn capture_sessions(w: &mut Vec<String>, m: &SimModel) {
    let srows = m.scheduler.export_session_queues();
    w.push(format!("squeues {}", srows.len()));
    for (class, padded_seq_len, requests) in &srows {
        w.push(format!(
            "squeue {} {} {} {padded_seq_len} {}",
            class.d_model,
            class.heads,
            class.layers,
            requests.len()
        ));
        for r in requests {
            w.push(format!("req {}", req_tokens(r)));
        }
    }
    match &m.sessions {
        None => w.push("sessions 0".into()),
        Some(s) => {
            w.push("sessions 1".into());
            w.push(format!(
                "g.tokens {} {} {} {}",
                s.tokens_requested, s.tokens_emitted, s.tokens_shed, s.tokens_on_time
            ));
            w.push(format!(
                "g.lat {} {} {} {}",
                s.prefill_ns_sum, s.prefill_count, s.decode_ns_sum, s.decode_tokens
            ));
            for slot in &s.cards {
                match slot {
                    None => w.push("gcard -".into()),
                    Some(g) => {
                        w.push(format!(
                            "gcard {} {} {} {} {} {}",
                            g.class.d_model,
                            g.class.heads,
                            g.class.layers,
                            g.padded_prompt,
                            u64::from(g.pending_step),
                            g.sessions.len()
                        ));
                        for sess in &g.sessions {
                            w.push(format!(
                                "sess {} {} {} {}",
                                sess.start_ns, sess.emitted, sess.last_emit_ns, sess.on_time
                            ));
                            w.push(format!("req {}", req_tokens(&sess.req)));
                        }
                    }
                }
            }
        }
    }
}

fn restore_sessions(c: &mut Cursor<'_>, model: &mut SimModel) -> Result<(), ServeError> {
    let n = pusize(c.expect("squeues")?.first(), "session queue count")?;
    let mut rows = Vec::new();
    for _ in 0..n {
        let toks = c.expect("squeue")?;
        let class = CapacityClass {
            d_model: pusize(toks.first(), "squeue d_model")?,
            heads: pusize(toks.get(1), "squeue heads")?,
            layers: pusize(toks.get(2), "squeue layers")?,
        };
        let padded = pusize(toks.get(3), "squeue padded_seq_len")?;
        let k = pusize(toks.get(4), "squeue length")?;
        let mut requests = Vec::new();
        for _ in 0..k {
            requests.push(parse_request(&c.expect("req")?)?);
        }
        rows.push((class, padded, requests));
    }
    model.scheduler.import_session_queues(rows);
    if !pbool(c.expect("sessions")?.first(), "sessions flag")? {
        return Ok(());
    }
    let cards = model.cards.len();
    {
        let s = model.sessions_mut();
        let toks = c.expect("g.tokens")?;
        s.tokens_requested = pu64(toks.first(), "tokens requested")?;
        s.tokens_emitted = pu64(toks.get(1), "tokens emitted")?;
        s.tokens_shed = pu64(toks.get(2), "tokens shed")?;
        s.tokens_on_time = pu64(toks.get(3), "tokens on time")?;
        let toks = c.expect("g.lat")?;
        s.prefill_ns_sum = pu64(toks.first(), "prefill ns sum")?;
        s.prefill_count = pu64(toks.get(1), "prefill count")?;
        s.decode_ns_sum = pu64(toks.get(2), "decode ns sum")?;
        s.decode_tokens = pu64(toks.get(3), "decode token count")?;
    }
    for slot in 0..cards {
        let toks = c.expect("gcard")?;
        if toks.first() == Some(&"-") {
            continue;
        }
        let class = CapacityClass {
            d_model: pusize(toks.first(), "gcard d_model")?,
            heads: pusize(toks.get(1), "gcard heads")?,
            layers: pusize(toks.get(2), "gcard layers")?,
        };
        let padded_prompt = pusize(toks.get(3), "gcard padded prompt")?;
        let pending_step = pbool(toks.get(4), "gcard pending_step")?;
        let k = pusize(toks.get(5), "gcard session count")?;
        let mut sessions = Vec::new();
        for _ in 0..k {
            let toks = c.expect("sess")?;
            let start_ns = pu64(toks.first(), "session start")?;
            let emitted = pu64(toks.get(1), "session emitted")? as u32;
            let last_emit_ns = pu64(toks.get(2), "session last emit")?;
            let on_time = pu64(toks.get(3), "session on_time")? as u32;
            let req = parse_request(&c.expect("req")?)?;
            sessions.push(GenSession { req, start_ns, emitted, last_emit_ns, on_time });
        }
        // Decode windows (and joiner prefills) are priced off the
        // card's *current* register file — resident sessions never
        // reprogram between token steps — so the restored card must
        // carry the exact program `start_session_batch` left it with:
        // the batch class at the padded prompt length. Without this the
        // resumed run prices every remaining window at the accelerator's
        // default (d_max) program and diverges from the uninterrupted
        // run.
        model.cards[slot]
            .accel
            .program(RuntimeConfig {
                heads: class.heads,
                layers: class.layers,
                d_model: class.d_model,
                seq_len: padded_prompt,
            })
            .map_err(CoreError::from)?;
        let s = model.sessions_mut();
        for sess in &sessions {
            // Reservations are worst-case up-front: re-reserving per
            // restored session reproduces the residency accounting.
            s.kv[slot].try_reserve(&kv_spec(&sess.req));
        }
        s.cards[slot] = Some(CardGen { class, padded_prompt, pending_step, sessions });
    }
    Ok(())
}

impl fmt::Display for FleetSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in &self.body {
            writeln!(f, "{line}")?;
        }
        writeln!(f, "hash {:016x}", self.hash)
    }
}

impl FromStr for FleetSnapshot {
    type Err = ServeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(snap: &FleetSnapshot) -> FleetSnapshot {
        FleetSnapshot::parse(&snap.to_string()).expect("canonical text parses")
    }

    #[test]
    fn parse_round_trips_and_checks_hash() {
        let snap = FleetSnapshot::seal(
            vec![HEADER.into(), "config 0123456789abcdef".into(), "arrivals 7".into()],
            7,
        );
        let back = round_trip(&snap);
        assert_eq!(back, snap);
        assert_eq!(back.arrivals(), 7);

        let mut text = snap.to_string();
        text = text.replace("arrivals 7", "arrivals 8");
        let err = FleetSnapshot::parse(&text).unwrap_err();
        assert!(matches!(err, ServeError::SnapshotIntegrity { .. }), "{err}");
        assert!(err.to_string().contains("hash mismatch"), "{err}");
    }

    #[test]
    fn parse_rejects_wrong_header_and_missing_trailer() {
        assert!(FleetSnapshot::parse("").is_err());
        assert!(FleetSnapshot::parse("not-a-snapshot\nhash 0").is_err());
        let headerless = FleetSnapshot::seal(vec!["wrong v9".into(), "arrivals 0".into()], 0);
        assert!(FleetSnapshot::parse(&headerless.to_string()).is_err());
        assert!(format!("{HEADER}\narrivals 3").parse::<FleetSnapshot>().is_err());
    }

    #[test]
    fn other_versions_and_tampered_seals_are_integrity_errors() {
        // Earlier grammars (v1-v4) and unknown future ones alike fail
        // the header check, even under a valid seal.
        for v in [1, 2, 3, 4, 9] {
            let header = format!("protea-fleet-snapshot v{v}");
            let other = FleetSnapshot::seal(vec![header, "arrivals 0".into()], 0);
            let err = FleetSnapshot::parse(&other.to_string()).unwrap_err();
            assert!(matches!(err, ServeError::SnapshotIntegrity { .. }), "{err}");
            assert!(err.to_string().contains("unsupported snapshot header"), "{err}");
        }

        let err = FleetSnapshot::parse(&format!("{HEADER}\narrivals 3")).unwrap_err();
        assert!(matches!(err, ServeError::SnapshotIntegrity { .. }), "{err}");
    }

    #[test]
    fn event_and_request_tokens_round_trip() {
        let req = ServeRequest {
            id: 42,
            arrival_ns: 1_000,
            d_model: 96,
            heads: 4,
            layers: 2,
            seq_len: 17,
            priority: Priority::Interactive,
            deadline_ns: Some(5_000),
            tenant: 0,
            decode_steps: 0,
            token_deadline_ns: None,
        };
        let events = [
            FleetEvent::Arrival(req),
            FleetEvent::Crash { card: 3 },
            FleetEvent::Free { card: 0 },
            FleetEvent::Complete { card: 1, epoch: 9, start_ns: 77 },
            FleetEvent::Fail { card: 2, epoch: 4, kind: FaultKind::AxiTimeout },
            FleetEvent::Hedge { card: 1, seq: 12 },
            FleetEvent::Join { card: 2 },
            FleetEvent::Drain { card: 1 },
            FleetEvent::Scrub,
            FleetEvent::Requalify { card: 0, epoch: 6 },
            FleetEvent::Generate { card: 2, epoch: 8 },
            FleetEvent::Wake,
        ];
        for ev in &events {
            let text = event_tokens(ev);
            let toks: Vec<&str> = text.split_whitespace().collect();
            assert_eq!(parse_event(&toks).unwrap(), *ev, "{text}");
        }
    }

    #[test]
    fn request_tokens_carry_every_field() {
        let req = ServeRequest {
            id: 11,
            arrival_ns: 900,
            d_model: 96,
            heads: 4,
            layers: 2,
            seq_len: 12,
            priority: Priority::Normal,
            deadline_ns: Some(9_000),
            tenant: 31,
            decode_steps: 16,
            token_deadline_ns: Some(1_500),
        };
        let line = req_tokens(&req);
        let toks: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(toks.len(), 11);
        assert_eq!(parse_request(&toks).unwrap(), req);
        // The shorter request forms of earlier grammars are rejected.
        assert!(parse_request(&toks[..9]).is_err());
        assert!(parse_request(&toks[..8]).is_err());
    }

    #[test]
    fn reason_tokens_round_trip() {
        let reasons = [
            FailReason::RetriesExhausted { last: FaultKind::EccDouble },
            FailReason::AllCardsDead,
            FailReason::Shed,
            FailReason::DeadlineExpired,
            FailReason::RetryBudgetExhausted { last: FaultKind::CardCrash },
            FailReason::Brownout,
        ];
        for r in reasons {
            let text = reason_tokens(&r);
            let toks: Vec<&str> = text.split_whitespace().collect();
            assert_eq!(parse_reason(&toks).unwrap(), r, "{text}");
        }
    }

    #[test]
    fn sketch_line_round_trips() {
        let mut s = LatencySketch::new();
        for v in [0.0, 0.5, 1.7, 1.7, 9_000.0] {
            s.record(v);
        }
        let line = sketch_line("lsk", &s);
        let toks: Vec<&str> = line.split_whitespace().skip(1).collect();
        assert_eq!(parse_sketch(&toks).unwrap(), s);
    }
}
