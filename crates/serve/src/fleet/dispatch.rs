//! Dispatch, completion, failure, crash, and hedging event handlers,
//! plus the greedy dispatch loop.
//!
//! Every dispatch flavor runs through the same two steps: the shared
//! reprogram-and-load (`prepare_card`) and the unified execution
//! pipeline (`Accelerator::execute` on a [`RunPlan`]) — the only
//! difference between flavors is which plan they build (functional vs
//! timing vs fault-armed), not which code path they take.

use super::events::{FleetEvent, RANK_DYN};
use super::sim::{kv_spec, record_span, CardGen, GenSession, Inflight, SimModel};
use crate::error::ServeError;
use crate::faults::{FailReason, FailedRequest};
use crate::health::CardHealth;
use crate::request::ServeResponse;
use crate::scheduler::Batch;
use protea_core::{CoreError, FaultKind, FaultPlan, RunPlan, SdcSite};
use protea_hwsim::{Cycles, EventQueue, SpanKind};
use protea_model::{EncoderConfig, OpCount};
use protea_tensor::Matrix;

/// How a fault-injected dispatch resolved at dispatch time.
pub(super) enum FaultyDispatch {
    /// The batch will complete cleanly at `finish_ns`.
    Done { finish_ns: u64 },
    /// An unrecoverable fault will be detected at `at_ns`.
    Failed { at_ns: u64, kind: FaultKind },
}

/// Deterministic per-request input pattern for the functional mode:
/// id-seeded bytes over the live rows, zero padding above them.
fn functional_inputs(batch: &Batch) -> Vec<Matrix<i8>> {
    batch
        .requests
        .iter()
        .map(|r| {
            let live_rows = r.seq_len;
            Matrix::from_fn(batch.runtime.seq_len, batch.runtime.d_model, move |row, col| {
                if row < live_rows {
                    (((r.id as usize).wrapping_mul(31) + row * 17 + col * 7) % 199) as i8
                } else {
                    0 // padding
                }
            })
        })
        .collect()
}

/// Extra service time ABFT checksum verification charges on a batch:
/// one row-sum pass over the activations (`1/(batch·seq_len)` of the
/// GEMM work) plus a row and a column checksum per output tile
/// (`2/d_model`) — the classic O(1/m + 1/n) ABFT tax, ~2.5% at the
/// paper's d96/b8/sl32 design point.
fn abft_overhead_ns(service_ns: u64, batch: &Batch) -> u64 {
    let rows = (batch.len() * batch.runtime.seq_len).max(1) as f64;
    let cols = batch.runtime.d_model.max(1) as f64;
    ((service_ns as f64) * (1.0 / rows + 2.0 / cols)).ceil() as u64
}

/// Whether an activation-site hit at `locus` lands in ABFT-protected
/// compute. The checksums cover the GEMM epilogues only, so a hit is
/// caught iff its (uniformly drawn) locus falls inside the matmul share
/// of the batch's op count — softmax, layernorm, and residual datapaths
/// stay unprotected and their hits complete undetected.
fn abft_covers(locus: u64, batch: &Batch) -> bool {
    let cfg = EncoderConfig::new(
        batch.runtime.d_model,
        batch.runtime.heads,
        batch.runtime.layers,
        batch.runtime.seq_len,
    );
    let ops = OpCount::for_config(&cfg);
    let frac = ops.matmul_only() as f64 / ops.total().max(1) as f64;
    (locus as f64 / u64::MAX as f64) < frac
}

impl SimModel {
    /// Program `card` for `batch`, pay any reload, run, and record the
    /// member responses. Returns the completion time.
    pub(super) fn dispatch(
        &mut self,
        card: usize,
        batch: &Batch,
        now_ns: u64,
    ) -> Result<u64, ServeError> {
        let reload_ns = self.prepare_card(card, batch, now_ns)?;
        let report = if self.functional {
            let inputs = functional_inputs(batch);
            let (outcome, _) = self.cards[card].accel.execute(RunPlan::functional(&inputs));
            outcome?.report
        } else if let Some(memo) = self.memo.as_mut() {
            // Fault-free timing is a pure function of the plan key:
            // identical bytes to the direct call, priced once per key.
            memo.report(&self.cards[card].accel, batch.len())
        } else {
            let (outcome, _) = self.cards[card].accel.execute(RunPlan::timing(batch.len()));
            outcome?.report
        };
        let service_ns = (report.latency_ms() * 1e6).ceil() as u64;
        let finish_ns = now_ns.saturating_add(reload_ns).saturating_add(service_ns);
        let c = &mut self.cards[card];
        c.busy = true;
        c.busy_ns = c.busy_ns.saturating_add(reload_ns + service_ns);
        self.batches += 1;
        record_span(
            &mut self.trace,
            format!(
                "batch x{} d{} sl{}",
                batch.len(),
                batch.runtime.d_model,
                batch.runtime.seq_len
            ),
            SpanKind::Batch,
            card,
            now_ns.saturating_add(reload_ns),
            finish_ns,
        );
        for r in &batch.requests {
            // useful work is counted at the *actual* request shape
            let cfg = EncoderConfig::new(r.d_model, r.heads, r.layers, r.seq_len);
            self.ops_total = self.ops_total.saturating_add(OpCount::for_config(&cfg).total());
            self.metrics.record(ServeResponse {
                id: r.id,
                arrival_ns: r.arrival_ns,
                start_ns: now_ns,
                finish_ns,
                card,
                batch_size: batch.len(),
                padded_seq_len: batch.runtime.seq_len,
            });
        }
        Ok(finish_ns)
    }

    /// Program `card` for `batch` under fault injection. Unlike the
    /// fault-free [`dispatch`](Self::dispatch), responses are **not**
    /// recorded here — the batch is parked in `inflight` and either the
    /// completion event records it or a failure/crash requeues it.
    pub(super) fn dispatch_faulty(
        &mut self,
        card: usize,
        batch: &Batch,
        now_ns: u64,
        seq: u64,
        is_hedge: bool,
    ) -> Result<FaultyDispatch, ServeError> {
        // Load-time digest rung: a class switch replaces the resident
        // image, and the fresh load verifies its sealed digest on the
        // way in — so resident corruption is wiped and resolves as
        // detected. A *warm* dispatch trusts the resident image: a
        // dirty one keeps serving silently-wrong answers until the
        // periodic scrub sweep (or a crash, or the end of the run)
        // resolves its hit — weight corruption is invisible to ABFT,
        // which only checks the activation datapath.
        let warm = self.cards[card].loaded_class == Some(batch.requests[0].class());
        if !warm {
            if let Some(s) = self.faulty.as_mut().and_then(|f| f.sdc.as_mut()) {
                s.detected += u64::from(std::mem::take(&mut s.dirty[card]));
            }
        }
        let reload_ns = self.prepare_card(card, batch, now_ns)?;
        let f = self.faulty.as_mut().expect("dispatch_faulty requires fault state");
        let c = &mut self.cards[card];
        let fmax_mhz = c.accel.design().fmax_mhz;
        let cycles_to_ns = |cycles: u64| (cycles as f64 * 1e3 / fmax_mhz).ceil() as u64;
        let (outcome, stats) =
            c.accel.execute(RunPlan::timing(batch.len()).with_faults(FaultPlan {
                stream: &mut f.streams[card],
                watchdog: f.watchdog,
                retry: f.retry,
                now_ns,
            }));
        f.stats.merge(&stats);
        let dispatched = match outcome {
            Ok(run) => {
                let mut service_ns = (run.report.latency_ms() * 1e6).ceil() as u64;
                if f.sdc.as_ref().is_some_and(|s| s.abft) {
                    // ABFT verification runs in every GEMM epilogue,
                    // hit or no hit — the overhead is the price of the
                    // defense, not of the corruption.
                    service_ns = service_ns.saturating_add(abft_overhead_ns(service_ns, batch));
                }
                // The corruption draw resolves per *executed* batch; an
                // aborted leg never finishes its epilogue, so only the
                // clean outcome draws.
                if let Some(s) = f.sdc.as_mut() {
                    if let Some(hit) = s.streams[card].sample_batch(now_ns) {
                        s.injected += 1;
                        match hit.site {
                            SdcSite::Weights => {
                                // Resident SRAM corruption: ABFT's
                                // checksum prediction is computed from
                                // the same corrupt weights, so only a
                                // digest rung can catch this.
                                s.dirty[card] += 1;
                            }
                            SdcSite::Activations => {
                                let covered = s.abft && abft_covers(hit.locus, batch);
                                s.pending[card] = Some(covered);
                            }
                        }
                    }
                }
                let finish_ns = now_ns.saturating_add(reload_ns).saturating_add(service_ns);
                c.busy_ns = c.busy_ns.saturating_add(reload_ns + service_ns);
                FaultyDispatch::Done { finish_ns }
            }
            Err(CoreError::Fault { kind, .. }) => {
                // The card is occupied until the driver detects the
                // fatal fault and gives up.
                let abort_ns = cycles_to_ns(stats.abort_cycles);
                let at_ns = now_ns.saturating_add(reload_ns).saturating_add(abort_ns);
                c.busy_ns = c.busy_ns.saturating_add(reload_ns + abort_ns);
                FaultyDispatch::Failed { at_ns, kind }
            }
            Err(other) => return Err(other.into()),
        };
        let resolve_ns = match &dispatched {
            FaultyDispatch::Done { finish_ns } => *finish_ns,
            FaultyDispatch::Failed { at_ns, .. } => *at_ns,
        };
        c.busy = true;
        f.inflight[card] =
            Some(Inflight { batch: batch.clone(), seq, resolve_ns, is_hedge, partner: None });
        let (kind, name) = match &dispatched {
            FaultyDispatch::Done { .. } if is_hedge => {
                (SpanKind::Hedge, format!("hedge x{} seq{seq}", batch.len()))
            }
            FaultyDispatch::Done { .. } => {
                (SpanKind::Batch, format!("batch x{} seq{seq}", batch.len()))
            }
            FaultyDispatch::Failed { kind, .. } => {
                (SpanKind::Batch, format!("abort {kind:?} seq{seq}"))
            }
        };
        record_span(
            &mut self.trace,
            name,
            kind,
            card,
            now_ns.saturating_add(reload_ns),
            resolve_ns,
        );
        Ok(dispatched)
    }

    /// A fault-injected batch completed: free the card, record the
    /// member responses, and credit the card's health. No-op if the
    /// card crashed while the batch was in flight (stale epoch).
    ///
    /// Under SDC injection, the batch's corruption draw resolves here
    /// first: a *detected* hit discards the result and runs the
    /// recovery ladder instead of completing; a *missed* hit falls
    /// through — the fleet serves a silently wrong answer and the
    /// `sdc_missed` counter is the only witness.
    pub(super) fn complete_faulty(
        &mut self,
        q: &mut EventQueue<FleetEvent>,
        card: usize,
        epoch: u64,
        start_ns: u64,
        finish_ns: u64,
    ) {
        let f = self.faulty.as_mut().expect("fault state");
        if f.epochs[card] != epoch {
            return;
        }
        let Some(inflight) = f.inflight[card].take() else { return };
        match f.sdc.as_mut().and_then(|s| s.pending[card].take()) {
            Some(true) => {
                f.sdc.as_mut().expect("hit drawn above").detected += 1;
                self.recover_detected(q, card, inflight, finish_ns);
                return;
            }
            Some(false) => f.sdc.as_mut().expect("hit drawn above").missed += 1,
            None => {}
        }
        if let Some(s) = f.sdc.as_mut() {
            // A re-execution that lands cleanly clears its strike.
            s.reexec.remove(&inflight.seq);
        }
        // First completion of a hedged pair wins: cancel the loser by
        // bumping its epoch (its pending completion/failure event goes
        // stale) and refund the busy time it will no longer spend. The
        // responses below are recorded exactly once, by this winner.
        if let Some(p) = inflight.partner {
            if f.inflight[p].as_ref().is_some_and(|l| l.seq == inflight.seq) {
                let loser = f.inflight[p].take().expect("pair checked above");
                f.epochs[p] += 1;
                f.hedge_cancels += 1;
                if inflight.is_hedge {
                    f.hedge_wins += 1;
                }
                self.cards[p].busy = false;
                self.cards[p].busy_ns = self.cards[p]
                    .busy_ns
                    .saturating_sub(loser.resolve_ns.saturating_sub(finish_ns));
                if let Some(s) = f.sdc.as_mut() {
                    // The loser's execution is abandoned mid-flight;
                    // its corruption draw never materializes.
                    s.pending[p] = None;
                }
                record_span(
                    &mut self.trace,
                    format!("hedge cancel seq{}", inflight.seq),
                    SpanKind::Cancel,
                    p,
                    finish_ns,
                    loser.resolve_ns,
                );
            }
        }
        f.monitors[card].record_success();
        f.svc.record(finish_ns.saturating_sub(start_ns));
        if let Some(l) = f.limiter.as_mut() {
            l.on_success();
        }
        self.cards[card].busy = false;
        self.batches += 1;
        let batch = inflight.batch;
        for r in &batch.requests {
            f.prio_completed[r.priority.index()] += 1;
            let good = r.within_deadline(finish_ns);
            if good {
                f.good_completions += 1;
                f.prio_good[r.priority.index()] += 1;
            }
            let ledger = f.ledger(r.tenant);
            ledger.completed += 1;
            if good {
                ledger.good += 1;
            }
            let cfg = EncoderConfig::new(r.d_model, r.heads, r.layers, r.seq_len);
            self.ops_total = self.ops_total.saturating_add(OpCount::for_config(&cfg).total());
            self.metrics.record(ServeResponse {
                id: r.id,
                arrival_ns: r.arrival_ns,
                start_ns,
                finish_ns,
                card,
                batch_size: batch.len(),
                padded_seq_len: batch.runtime.seq_len,
            });
        }
        // A draining card's last in-flight batch just landed: the drain
        // completes and the card leaves the fleet.
        if self.faulty.as_ref().expect("fault state").draining[card] {
            self.finish_drain(card);
        }
    }

    /// The recovery ladder for a batch whose completion on `card` was
    /// flagged by ABFT: the result is discarded (never recorded), then
    /// — cheapest rung first — a live hedge partner inherits the work,
    /// a draining card hands it back and leaves, a second strike on the
    /// same work escalates to quarantine, and a first strike simply
    /// re-executes the batch on the same card.
    fn recover_detected(
        &mut self,
        q: &mut EventQueue<FleetEvent>,
        card: usize,
        inflight: Inflight,
        now_ns: u64,
    ) {
        self.cards[card].busy = false;
        let f = self.faulty.as_mut().expect("fault state");
        // No health credit — the card produced a wrong answer. No
        // debit either on a first strike: one transient flip is not a
        // sick card; the quarantine rungs below are the escalation.
        let partner_alive = inflight
            .partner
            .is_some_and(|p| f.inflight[p].as_ref().is_some_and(|other| other.seq == inflight.seq));
        let second_strike = f.sdc.as_mut().expect("sdc state").reexec.remove(&inflight.seq);
        let draining = f.draining[card];
        if partner_alive {
            // The other leg is already executing this work elsewhere:
            // dissolve the pair — the survivor *is* the re-execution —
            // and quarantine the card that lied.
            let p = inflight.partner.expect("checked above");
            f.inflight[p].as_mut().expect("checked above").partner = None;
            self.quarantine_card(q, card, now_ns);
        } else if draining {
            // The card was leaving anyway: hand the work back to the
            // survivors — quarantining a departing card would waste a
            // reload on an image nobody will serve from.
            self.requeue_or_fail(inflight.batch, FaultKind::SilentCorrupt);
            self.finish_drain(card);
        } else if second_strike {
            // The re-execution was detected *again*: stop trusting the
            // card, quarantine it, and move the work elsewhere.
            self.quarantine_card(q, card, now_ns);
            self.requeue_or_fail(inflight.batch, FaultKind::SilentCorrupt);
        } else {
            // First strike: re-execute in place — the cheapest rung,
            // no reload, no requeue churn, same card, fresh draw.
            let seq = {
                f.batch_seq += 1;
                let seq = f.batch_seq;
                let s = f.sdc.as_mut().expect("sdc state");
                s.re_execs += 1;
                s.reexec.insert(seq);
                seq
            };
            match self.dispatch_faulty(card, &inflight.batch, now_ns, seq, false) {
                Ok(outcome) => {
                    let epoch = self.faulty.as_ref().expect("fault state").epochs[card];
                    schedule_leg(q, card, epoch, now_ns, outcome);
                }
                Err(e) => self.error = Some(e),
            }
        }
    }

    /// Quarantine `card` after a detected corruption: lock it out of
    /// dispatch, bump its epoch (any stale event no-ops), debit its
    /// health ladder — repeated quarantines escalate to Dead exactly
    /// like repeated faults — and charge the paper's full restore
    /// price: a reprogram plus a fresh, digest-verified weight image
    /// over the reload link. The scheduled [`FleetEvent::Requalify`]
    /// readmits the card when the restore lands.
    pub(super) fn quarantine_card(
        &mut self,
        q: &mut EventQueue<FleetEvent>,
        card: usize,
        now_ns: u64,
    ) {
        let reload_ns = self.cards[card].loaded_class.map_or(0, |cl| self.reload_ns(cl));
        let epoch;
        let preempted;
        {
            let f = self.faulty.as_mut().expect("fault state");
            {
                let s = f.sdc.as_mut().expect("sdc state");
                s.quarantined[card] = true;
                // The re-image wipes resident corruption, and the
                // load-time digest verification catches it on the way:
                // undetected weight hits resolve as detected here.
                s.detected += u64::from(std::mem::take(&mut s.dirty[card]));
                s.pending[card] = None;
            }
            f.epochs[card] += 1;
            epoch = f.epochs[card];
            f.monitors[card].record_failure(now_ns);
            preempted = match f.inflight[card].take() {
                None => None,
                Some(inflight) => {
                    f.sdc.as_mut().expect("sdc state").reexec.remove(&inflight.seq);
                    let partner_alive = inflight.partner.is_some_and(|p| {
                        f.inflight[p].as_ref().is_some_and(|other| other.seq == inflight.seq)
                    });
                    if partner_alive {
                        let p = inflight.partner.expect("checked above");
                        f.inflight[p].as_mut().expect("checked above").partner = None;
                        None
                    } else {
                        Some(inflight.batch)
                    }
                }
            };
        }
        if let Some(batch) = preempted {
            // A scrub pre-empted the in-flight batch: its work moves to
            // the survivors, its completion event goes stale.
            self.requeue_or_fail(batch, FaultKind::SilentCorrupt);
        }
        // Resident generation sessions were decoding against the very
        // image that just failed its digest — their outputs cannot be
        // trusted and their caches do not survive the re-image.
        self.shed_card_sessions(card, FaultKind::SilentCorrupt);
        self.reprograms += 1;
        let c = &mut self.cards[card];
        c.busy = true; // occupied by its own restore until requalified
        c.busy_ns = c.busy_ns.saturating_add(reload_ns);
        record_span(
            &mut self.trace,
            format!("quarantine reload card{card}"),
            SpanKind::Reprogram,
            card,
            now_ns,
            now_ns.saturating_add(reload_ns),
        );
        q.push(
            Cycles(now_ns.saturating_add(reload_ns)),
            RANK_DYN,
            FleetEvent::Requalify { card, epoch },
        );
        // The health debit above can tip the last live card to Dead —
        // the queue must flush here exactly as it does after a loud
        // fault, or pending work (and the scrub chain keeping the run
        // alive for it) waits forever on a fleet that cannot serve.
        self.fail_all_pending_if_dead();
    }

    /// The quarantine restore on `card` finished: release it with a
    /// fresh, digest-verified image. No-op on a stale epoch (the card
    /// crashed or drained away mid-restore).
    pub(super) fn requalify_card(&mut self, card: usize, epoch: u64) {
        let Some(f) = self.faulty.as_mut() else { return };
        if f.epochs[card] != epoch {
            return;
        }
        if let Some(s) = f.sdc.as_mut() {
            s.quarantined[card] = false;
        }
        self.cards[card].busy = false;
    }

    /// A scrub event fires: sweep every live card's modelled corruption
    /// counter (`dirty`, which stands in for a digest mismatch; no
    /// digest is recomputed). Cards with a nonzero count go straight to
    /// quarantine-and-reprogram — pre-empting any in-flight batch — and
    /// `dispatch_all` re-arms the sweep while work remains.
    pub(super) fn scrub_fleet(&mut self, q: &mut EventQueue<FleetEvent>, now_ns: u64) {
        let to_quarantine: Vec<usize> = {
            let Some(f) = self.faulty.as_mut() else { return };
            let Some(s) = f.sdc.as_mut() else { return };
            s.scrubs += 1;
            let dirty: Vec<usize> =
                (0..s.dirty.len()).filter(|&c| s.dirty[c] > 0 && !s.quarantined[c]).collect();
            dirty
                .into_iter()
                .filter(|&c| {
                    f.present[c] && !f.draining[c] && f.monitors[c].health() != CardHealth::Dead
                })
                .collect()
        };
        for card in to_quarantine {
            self.quarantine_card(q, card, now_ns);
        }
    }

    /// The driver gave up on a batch at `now_ns`: free the card, trip
    /// its breaker, and requeue the batch onto survivors. No-op on a
    /// stale epoch (the card crashed first and already requeued it).
    pub(super) fn fail_faulty(&mut self, card: usize, epoch: u64, now_ns: u64, kind: FaultKind) {
        let f = self.faulty.as_mut().expect("fault state");
        if f.epochs[card] != epoch {
            return;
        }
        let Some(inflight) = f.inflight[card].take() else { return };
        if let Some(s) = f.sdc.as_mut() {
            // A failed re-execution surfaces as a loud fault and takes
            // the requeue path below; its strike is spent.
            s.reexec.remove(&inflight.seq);
        }
        f.monitors[card].record_failure(now_ns);
        if let Some(l) = f.limiter.as_mut() {
            l.on_overload();
        }
        self.cards[card].busy = false;
        let draining = f.draining[card];
        // A leg of a hedged pair that fails while its partner still runs
        // dissolves the pair: the survivor keeps sole responsibility,
        // nothing requeues, nothing is double-counted.
        let mut dissolved = false;
        if let Some(p) = inflight.partner {
            if let Some(other) = f.inflight[p].as_mut() {
                if other.seq == inflight.seq {
                    other.partner = None;
                    dissolved = true;
                }
            }
        }
        if !dissolved {
            self.requeue_or_fail(inflight.batch, kind);
        }
        if draining {
            // Even a failed final batch completes the drain — the card
            // was leaving either way.
            self.finish_drain(card);
        }
        self.fail_all_pending_if_dead();
    }

    /// Card `card` dropped off the bus at `now_ns`: kill it, invalidate
    /// any in-flight completion/failure events, and requeue its batch.
    pub(super) fn crash_card(&mut self, card: usize, _now_ns: u64) {
        let f = self.faulty.as_mut().expect("fault state");
        // An absent slot has nothing to crash; a dead card is dead.
        if !f.present[card] || f.monitors[card].health() == crate::health::CardHealth::Dead {
            return;
        }
        f.crashes += 1;
        f.draining[card] = false; // the crash pre-empts any drain
        f.epochs[card] += 1;
        f.monitors[card].kill();
        if let Some(s) = f.sdc.as_mut() {
            // The card's image dies with it: resident corruption that
            // no rung ever caught resolves as missed, and any pending
            // quarantine restore (Requalify) went stale with the epoch.
            s.missed += u64::from(std::mem::take(&mut s.dirty[card]));
            s.pending[card] = None;
            s.quarantined[card] = false;
        }
        self.cards[card].busy = false;
        if let Some(inflight) = f.inflight[card].take() {
            if let Some(s) = f.sdc.as_mut() {
                s.reexec.remove(&inflight.seq);
            }
            // If the crashed card was one leg of a hedged pair and the
            // other leg is still running, that survivor owns the batch —
            // requeueing here would serve it twice.
            let partner_alive = inflight.partner.is_some_and(|p| {
                f.inflight[p].as_ref().is_some_and(|other| other.seq == inflight.seq)
            });
            if partner_alive {
                let p = inflight.partner.expect("checked above");
                f.inflight[p].as_mut().expect("checked above").partner = None;
            } else {
                self.requeue_or_fail(inflight.batch, FaultKind::CardCrash);
            }
        }
        // Generation sessions die with the card: their KV caches are
        // gone, so the work cannot move — remaining tokens shed.
        self.shed_card_sessions(card, FaultKind::CardCrash);
        self.fail_all_pending_if_dead();
    }

    /// Hedge the batch dispatched as `seq` on `card`, if it is still in
    /// flight, un-hedged, and a second healthy card sits idle: re-issue
    /// it there and link the two legs. Returns the new leg's
    /// `(card, epoch, outcome)` for event scheduling, or `None` when
    /// hedging is moot (already resolved, already hedged, no free card).
    pub(super) fn start_hedge(
        &mut self,
        card: usize,
        seq: u64,
        now_ns: u64,
    ) -> Result<Option<(usize, u64, FaultyDispatch)>, ServeError> {
        let f = self.faulty.as_ref().expect("fault state");
        let still_running =
            f.inflight[card].as_ref().is_some_and(|i| i.seq == seq && i.partner.is_none());
        if !still_running {
            return Ok(None);
        }
        let Some(hedge_card) = self.free_card(now_ns) else { return Ok(None) };
        let batch = self.faulty.as_ref().expect("fault state").inflight[card]
            .as_ref()
            .expect("still running")
            .batch
            .clone();
        let outcome = self.dispatch_faulty(hedge_card, &batch, now_ns, seq, true)?;
        let f = self.faulty.as_mut().expect("fault state");
        f.hedges += 1;
        f.inflight[hedge_card].as_mut().expect("just dispatched").partner = Some(card);
        f.inflight[card].as_mut().expect("still running").partner = Some(hedge_card);
        Ok(Some((hedge_card, f.epochs[hedge_card], outcome)))
    }

    /// Start a generation batch on `card`: reserve every member's
    /// worst-case KV footprint (members that do not fit are shed, with
    /// their tokens conserved), pay the reprogram-and-load, price the
    /// batched prefill, and schedule the first
    /// [`FleetEvent::Generate`] window. The prefill window emits no
    /// tokens; every subsequent decode window banks one token per
    /// resident session. Returns whether the card actually took the
    /// batch (false when every member was shed on KV capacity).
    pub(super) fn start_session_batch(
        &mut self,
        q: &mut EventQueue<FleetEvent>,
        card: usize,
        batch: Batch,
        now_ns: u64,
    ) -> Result<bool, ServeError> {
        let class = batch.requests[0].class();
        let padded = batch.runtime.seq_len;
        // Admission to the batch is a promise the cache cannot break
        // mid-generation, so the worst-case footprint (prompt + every
        // requested token) reserves up front.
        let mut members = Vec::with_capacity(batch.requests.len());
        for r in batch.requests {
            let fits = self.sessions_mut().kv[card].try_reserve(&kv_spec(&r));
            if fits {
                members.push(r);
            } else {
                self.shed_session_tokens(&r, 0);
                let f = self.faulty.as_mut().expect("decode runs are managed");
                f.shed.push(FailedRequest { id: r.id, reason: FailReason::Shed });
                f.ledger(r.tenant).shed += 1;
            }
        }
        if members.is_empty() {
            return Ok(false);
        }
        let batch = Batch { requests: members, runtime: batch.runtime };
        let reload_ns = self.prepare_card(card, &batch, now_ns)?;
        let (outcome, _) = self.cards[card].accel.execute(RunPlan::prefill(padded, batch.len()));
        let service_ns = (outcome?.report.latency_ms() * 1e6).ceil() as u64;
        let finish_ns = now_ns.saturating_add(reload_ns).saturating_add(service_ns);
        {
            let st = self.sessions_mut();
            st.prefill_ns_sum += service_ns;
            st.prefill_count += batch.len() as u64;
            st.cards[card] = Some(CardGen {
                class,
                padded_prompt: padded,
                pending_step: false,
                sessions: batch
                    .requests
                    .iter()
                    .map(|r| GenSession {
                        req: *r,
                        start_ns: now_ns,
                        emitted: 0,
                        last_emit_ns: r.arrival_ns,
                        on_time: 0,
                    })
                    .collect(),
            });
        }
        let c = &mut self.cards[card];
        c.busy = true;
        c.busy_ns = c.busy_ns.saturating_add(reload_ns + service_ns);
        self.batches += 1;
        record_span(
            &mut self.trace,
            format!("prefill x{} d{} sl{}", batch.len(), batch.runtime.d_model, padded),
            SpanKind::Batch,
            card,
            now_ns.saturating_add(reload_ns),
            finish_ns,
        );
        let epoch = self.faulty.as_ref().map_or(0, |f| f.epochs[card]);
        q.push(Cycles(finish_ns), RANK_DYN, FleetEvent::Generate { card, epoch });
        Ok(true)
    }

    /// A generation compute window on `card` ended. Bank one token per
    /// resident session when a step was pending, retire sessions that
    /// reached their requested length, pull compatible queued prefills
    /// into the freed slots (continuous batching), and price the next
    /// window. No-op on a stale epoch — the card crashed, drained, or
    /// was quarantined mid-window and its sessions were already shed.
    pub(super) fn generate_round(
        &mut self,
        q: &mut EventQueue<FleetEvent>,
        card: usize,
        epoch: u64,
        now_ns: u64,
    ) {
        if self.faulty.as_ref().is_some_and(|f| f.epochs[card] != epoch) {
            return;
        }
        let Some(mut gen) = self.sessions.as_mut().and_then(|s| s.cards[card].take()) else {
            return;
        };
        // Bank the tokens the finished window produced. A token is on
        // time when it lands within the per-token deadline of the
        // previous emission (of the arrival, for the first token — the
        // time-to-first-token deadline); tokens without a deadline
        // count vacuously.
        if gen.pending_step {
            let mut on_time = 0u64;
            for s in &mut gen.sessions {
                s.emitted += 1;
                let met = s
                    .req
                    .token_deadline_ns
                    .is_none_or(|d| now_ns <= s.last_emit_ns.saturating_add(d));
                if met {
                    s.on_time += 1;
                    on_time += 1;
                }
                s.last_emit_ns = now_ns;
            }
            let st = self.sessions.as_mut().expect("taken above");
            st.tokens_emitted += gen.sessions.len() as u64;
            st.decode_tokens += gen.sessions.len() as u64;
            st.tokens_on_time += on_time;
        }
        // Retire sessions that reached their requested length: release
        // their KV carve-out and record the completion at the final
        // token's timestamp.
        let batch_size = gen.sessions.len();
        let (done, active): (Vec<GenSession>, Vec<GenSession>) =
            gen.sessions.into_iter().partition(|s| s.emitted >= s.req.decode_steps);
        gen.sessions = active;
        for s in done {
            let r = s.req;
            self.sessions.as_mut().expect("taken above").kv[card].release(&kv_spec(&r));
            let f = self.faulty.as_mut().expect("decode runs are managed");
            f.prio_completed[r.priority.index()] += 1;
            let good = r.within_deadline(now_ns);
            if good {
                f.good_completions += 1;
                f.prio_good[r.priority.index()] += 1;
            }
            let ledger = f.ledger(r.tenant);
            ledger.completed += 1;
            if good {
                ledger.good += 1;
            }
            let cfg = EncoderConfig::new(r.d_model, r.heads, r.layers, r.seq_len);
            self.ops_total = self.ops_total.saturating_add(OpCount::for_config(&cfg).total());
            self.metrics.record(ServeResponse {
                id: r.id,
                arrival_ns: r.arrival_ns,
                start_ns: s.start_ns,
                finish_ns: now_ns,
                card,
                batch_size,
                padded_seq_len: gen.padded_prompt,
            });
        }
        // Continuous batching: freed slots refill with queued
        // compatible prefills *between* token steps — the joiners'
        // prompts prefill inside this window ahead of the next step,
        // resident sessions keep their caches, nothing reprograms.
        let draining = self.faulty.as_ref().is_some_and(|f| f.draining[card]);
        let mut joiner_prefill_ns = 0u64;
        if !draining {
            let slots = self.scheduler.policy().max_batch.saturating_sub(gen.sessions.len());
            let joiners = self.scheduler.take_session_joiners(gen.class, gen.padded_prompt, slots);
            let mut admitted = 0usize;
            for r in joiners {
                let fits =
                    self.sessions.as_mut().expect("taken above").kv[card].try_reserve(&kv_spec(&r));
                if !fits {
                    self.shed_session_tokens(&r, 0);
                    let f = self.faulty.as_mut().expect("decode runs are managed");
                    f.shed.push(FailedRequest { id: r.id, reason: FailReason::Shed });
                    f.ledger(r.tenant).shed += 1;
                    continue;
                }
                gen.sessions.push(GenSession {
                    req: r,
                    start_ns: now_ns,
                    emitted: 0,
                    last_emit_ns: r.arrival_ns,
                    on_time: 0,
                });
                admitted += 1;
            }
            if admitted > 0 {
                let (outcome, _) =
                    self.cards[card].accel.execute(RunPlan::prefill(gen.padded_prompt, admitted));
                match outcome {
                    Ok(run) => {
                        joiner_prefill_ns = (run.report.latency_ms() * 1e6).ceil() as u64;
                        let st = self.sessions.as_mut().expect("taken above");
                        st.prefill_ns_sum += joiner_prefill_ns;
                        st.prefill_count += admitted as u64;
                    }
                    Err(e) => {
                        self.error = Some(e.into());
                        return;
                    }
                }
            }
        }
        // Batch drained: the card goes idle (and a pending scale-down
        // completes — the drain was deferred while tokens flowed).
        if gen.sessions.is_empty() {
            self.cards[card].busy = false;
            if draining {
                self.finish_drain(card);
            }
            return;
        }
        // Price the next decode window: every resident session takes
        // one KV-cached token step in lockstep. The kv_len register
        // covers the longest member cache, clamped to the synthesized
        // window — positions beyond SL_MAX fall out of the attention
        // span, exactly like a sliding-window decode kernel.
        let step = gen.sessions.iter().map(|s| s.emitted as usize).max().unwrap_or(0);
        let sl_max = self.cards[card].accel.design().config.sl_max;
        let kv_len = (gen.padded_prompt + step + 1).min(sl_max);
        let (outcome, _) =
            self.cards[card].accel.execute(RunPlan::decode(step, kv_len, gen.sessions.len()));
        let service_ns = match outcome {
            Ok(run) => (run.report.latency_ms() * 1e6).ceil() as u64,
            Err(e) => {
                self.error = Some(e.into());
                return;
            }
        };
        let window_ns = joiner_prefill_ns.saturating_add(service_ns);
        let finish_ns = now_ns.saturating_add(window_ns);
        self.sessions.as_mut().expect("taken above").decode_ns_sum += service_ns;
        let c = &mut self.cards[card];
        c.busy_ns = c.busy_ns.saturating_add(window_ns);
        record_span(
            &mut self.trace,
            format!("decode x{} kv{}", gen.sessions.len(), kv_len),
            SpanKind::Batch,
            card,
            now_ns,
            finish_ns,
        );
        gen.pending_step = true;
        self.sessions.as_mut().expect("taken above").cards[card] = Some(gen);
        q.push(Cycles(finish_ns), RANK_DYN, FleetEvent::Generate { card, epoch });
    }

    /// Discard every generation session resident on `card` — it crashed
    /// or its image can no longer be trusted. Each session's remaining
    /// tokens are conserved as shed, each fails typed, and the card's
    /// KV carve-out empties with it.
    pub(super) fn shed_card_sessions(&mut self, card: usize, kind: FaultKind) {
        let Some(st) = self.sessions.as_mut() else { return };
        let Some(gen) = st.cards[card].take() else { return };
        st.kv[card].clear();
        for s in &gen.sessions {
            st.tokens_shed += u64::from(s.req.decode_steps.saturating_sub(s.emitted));
        }
        let f = self.faulty.as_mut().expect("decode runs are managed");
        for s in gen.sessions {
            f.failed.push(FailedRequest {
                id: s.req.id,
                reason: FailReason::RetriesExhausted { last: kind },
            });
            f.ledger(s.req.tenant).failed += 1;
        }
    }
}

/// Greedy dispatch: while a card is free (and, under fault injection,
/// alive with a closed circuit) and a batch is ready, pair them; then
/// arm wake-ups for the earliest waiting partial batch and the earliest
/// circuit cooldown.
pub(super) fn dispatch_all(q: &mut EventQueue<FleetEvent>, m: &mut SimModel) {
    if m.error.is_some() {
        return;
    }
    let now = q.now().get();
    // Deadline-aware flush: expired requests are shed *before* the
    // dispatch loop below can pair them with a card.
    m.shed_expired(now);
    while let Some(card) = m.free_card(now) {
        let mut ready = m.scheduler.pop_ready(now);
        if ready.is_none() {
            // Deadline-aware flush, part two: a partial batch whose
            // deadline is closer than the observed p99 service time
            // dispatches now — waiting out the generic batching window
            // would guarantee it expires in queue.
            if let Some(f) = m.faulty.as_ref().filter(|f| f.track_deadlines) {
                ready = m.scheduler.pop_urgent(now, f.svc.p99_ns());
            }
        }
        let Some(batch) = ready else { break };
        if m.faulty.is_some() {
            let seq = {
                let f = m.faulty.as_mut().expect("fault state");
                f.batch_seq += 1;
                f.batch_seq
            };
            match m.dispatch_faulty(card, &batch, now, seq, false) {
                Ok(outcome) => {
                    let epoch = m.faulty.as_ref().expect("fault state").epochs[card];
                    schedule_leg(q, card, epoch, now, outcome);
                    arm_hedge(q, m, card, seq, now);
                }
                Err(e) => {
                    m.error = Some(e);
                    return;
                }
            }
        } else {
            match m.dispatch(card, &batch, now) {
                Ok(finish_ns) => {
                    q.push(Cycles(finish_ns), RANK_DYN, FleetEvent::Free { card });
                }
                Err(e) => {
                    m.error = Some(e);
                    return;
                }
            }
        }
    }
    // Generation batches claim cards after the one-shot loop: a free
    // card left over prefills the best queued session batch, then holds
    // it resident, emitting tokens window by window until it drains.
    // (Encoder-only runs have no session queues; this loop breaks
    // immediately and perturbs nothing.)
    while let Some(card) = m.free_card(now) {
        let Some(batch) = m.scheduler.pop_session_ready(now) else { break };
        if let Err(e) = m.start_session_batch(q, card, batch, now) {
            m.error = Some(e);
            return;
        }
    }
    // A partial batch left waiting needs a wake-up at its deadline; one
    // already overdue (deadline ≤ now with every card busy) is picked up
    // by the next completion's dispatch_all.
    if let Some(deadline) = m.scheduler.next_flush_deadline_ns() {
        let stale = m.next_flush.is_none_or(|t| t <= now || deadline < t);
        if deadline > now && stale {
            m.next_flush = Some(deadline);
            q.push(Cycles(deadline), RANK_DYN, FleetEvent::Wake);
        }
    }
    // A queued request with a deadline needs a wake-up: early enough to
    // flush its batch while it can still complete in time (deadline
    // minus the p99 service estimate), or at the deadline itself so it
    // is shed promptly rather than only at the next arrival or
    // completion event.
    if m.faulty.as_ref().is_some_and(|f| f.track_deadlines) {
        let headroom = m.faulty.as_ref().and_then(|f| f.svc.p99_ns());
        if let Some(d) = m.scheduler.next_deadline_wake_ns(now, headroom) {
            let f = m.faulty.as_mut().expect("fault state");
            let stale = f.deadline_wake.is_none_or(|t| t <= now || d < t);
            if d > now && stale {
                f.deadline_wake = Some(d);
                q.push(Cycles(d), RANK_DYN, FleetEvent::Wake);
            }
        }
    }
    // Periodic weight-digest scrub: (re)armed only while work remains
    // in the system — and only while some card could still serve it —
    // so the scrub chain never outlives the workload (or a fully dead
    // fleet, where requests arriving after the last card died would
    // otherwise keep it ticking forever). Same dedup idiom as the
    // wakes.
    if m.in_system() > 0 && !m.all_cards_dead() {
        if let Some(s) = m.faulty.as_ref().and_then(|f| f.sdc.as_ref()) {
            if let Some(every) = s.scrub_every_ns {
                if s.scrub_armed.is_none_or(|t| t <= now) {
                    let at = now.saturating_add(every);
                    m.faulty
                        .as_mut()
                        .expect("checked above")
                        .sdc
                        .as_mut()
                        .expect("checked above")
                        .scrub_armed = Some(at);
                    q.push(Cycles(at), RANK_DYN, FleetEvent::Scrub);
                }
            }
        }
    }
    // If work is pending and some idle card is only blocked by an open
    // circuit, wake up when the earliest cooldown expires — otherwise a
    // fleet of tripped-but-alive cards would hang.
    if m.scheduler.pending() > 0 {
        if let Some(f) = m.faulty.as_ref() {
            let wake = m
                .cards
                .iter()
                .enumerate()
                .filter(|&(i, c)| !c.busy && f.present[i] && !f.draining[i])
                .filter_map(|(i, _)| f.monitors[i].open_until_ns())
                .filter(|&t| t > now)
                .min();
            if let Some(t) = wake {
                let stale = f.breaker_wake.is_none_or(|w| w <= now || t < w);
                if stale {
                    m.faulty.as_mut().expect("fault state").breaker_wake = Some(t);
                    q.push(Cycles(t), RANK_DYN, FleetEvent::Wake);
                }
            }
        }
    }
}

/// Schedule the completion or failure event for one dispatched leg
/// (primary or hedge). The captured epoch makes the event a no-op if the
/// card crashed — or the leg was cancelled by a hedge win — first. The
/// event's own timestamp carries the resolve time, so the handler can
/// pass the popped `now` where the old closure captured `finish_ns`.
pub(super) fn schedule_leg(
    q: &mut EventQueue<FleetEvent>,
    card: usize,
    epoch: u64,
    start_ns: u64,
    outcome: FaultyDispatch,
) {
    match outcome {
        FaultyDispatch::Done { finish_ns } => {
            q.push(Cycles(finish_ns), RANK_DYN, FleetEvent::Complete { card, epoch, start_ns });
        }
        FaultyDispatch::Failed { at_ns, kind } => {
            q.push(Cycles(at_ns), RANK_DYN, FleetEvent::Fail { card, epoch, kind });
        }
    }
}

/// Arm a hedge check for the batch just dispatched as `seq` on `card`:
/// after the p99-derived delay, if the leg is still in flight, re-issue
/// it on a second healthy idle card (the check itself decides — the
/// batch may long since have completed, failed, or crashed away).
pub(super) fn arm_hedge(
    q: &mut EventQueue<FleetEvent>,
    m: &mut SimModel,
    card: usize,
    seq: u64,
    now: u64,
) {
    if m.cards.len() < 2 {
        return;
    }
    let f = m.faulty.as_ref().expect("fault state");
    let Some(h) = f.hedge else { return };
    let hedge_at = now.saturating_add(f.svc.hedge_delay_ns(&h));
    let resolve_ns = f.inflight[card].as_ref().map_or(0, |i| i.resolve_ns);
    // The simulation already knows when this leg resolves; a hedge that
    // could only fire afterwards is pointless, so skip the event. (A
    // real fleet schedules the timer unconditionally and finds the work
    // gone — same outcome, fewer events.)
    if hedge_at >= resolve_ns {
        return;
    }
    q.push(Cycles(hedge_at), RANK_DYN, FleetEvent::Hedge { card, seq });
}
