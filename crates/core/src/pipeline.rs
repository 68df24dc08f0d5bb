//! The unified execution pipeline: one internal path for every run.
//!
//! Historically each scenario grew its own entry point on
//! [`Accelerator`] — `try_run`, `try_run_batch`, `timing_report`,
//! `timing_report_batched` and a fault-injected timing call — each
//! re-implementing config/weight/fault/batch plumbing. This module
//! collapses them: a [`RunPlan`] (batch size, optional functional
//! inputs, optional fault injection, tracing on/off) flows through
//! [`Accelerator::execute`] and yields a [`RunOutcome`] (outputs,
//! cycle report, utilization, latency/GOPS, optional trace). Every
//! public entry point is now a thin shim over `execute`.
//!
//! **Bit-exactness contract.** The pipeline preserves the historical
//! arithmetic exactly:
//!
//! * fault-free runs price each phase's tile schedule once and multiply
//!   by the layer count (layers are identical without faults);
//! * fault-injected runs price layer by layer, because faults land in
//!   specific layers; with a zero-rate stream the result equals the
//!   fault-free report bit-for-bit;
//! * `batch = 1` reduces exactly to the single-sequence report.
//!
//! **Zero overhead when off.** Tracing is observational: a traced run's
//! report is byte-identical to the untraced run (the report always
//! comes from the same event-driven simulation; span extraction runs
//! beside it, never instead of it), and an untraced run allocates
//! nothing — the same discipline the fault and overload knobs follow.
//!
//! Spans land on the `protea-hwsim` clock in a bounded
//! [`ExecTrace`] ring buffer: one [`SpanKind::Phase`] span per engine
//! phase per layer, [`SpanKind::Tile`] compute visits nested inside it
//! on the engine track, and [`SpanKind::Dma`] bursts on the DMA track.
//! Fault-free traces are laid out layer-major (layer 0's nine phases,
//! then layer 1's, …); fault-injected traces follow pricing order
//! (phase-major), since each layer's faulted schedule differs.

use crate::accelerator::{Accelerator, RunResult};
use crate::decoder::{decode_step_plans, prefill_plans};
use crate::engines::Access;
use crate::error::CoreError;
use crate::fault::{faulty_load, FaultStats, FaultStream, RetryPolicy, Watchdog};
use crate::registers::{RegisterError, RuntimeConfig};
use crate::report::{CycleReport, EnginePhase};
use protea_hwsim::exec_trace::{track, ExecTrace, SpanKind};
use protea_hwsim::Cycles;
use protea_mem::hbm::{bounded_transfer_cycles, ChannelShare};
use protea_mem::overlap::{
    simulate_double_buffered, simulate_double_buffered_spans, simulate_serial,
    simulate_serial_spans, AccessSpans, OverlapReport,
};
use protea_model::{DecoderKvCache, OpCount, PackedDecoder, QuantizedDecoder};
use protea_tensor::Matrix;

/// Which execution phase a [`RunPlan`] prices. The default — and the
/// only phase encoder-only configurations ever see — is [`Phase::Encode`],
/// which preserves the historical pipeline byte for byte. The two
/// generation phases route the same unified path through the decoder's
/// phase-plan builders with KV-cache traffic charged on the memory link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Phase {
    /// The encoder pass over the programmed `SL × d_model` shape —
    /// today's behavior, bit-identical.
    #[default]
    Encode,
    /// The prompt pass of a generation: the whole prompt runs through
    /// the decoder stack once, populating the KV cache.
    Prefill {
        /// Prompt rows (target-side positions processed in one pass).
        prompt_len: usize,
    },
    /// One autoregressive token step against a resident KV cache.
    Decode {
        /// 0-based generation step (bookkeeping only; the cost depends
        /// on `kv_len`).
        step: usize,
        /// Cached self-attention positions this step attends over
        /// (prompt + tokens decoded so far, ≥ 1 counting this row).
        kv_len: usize,
    },
}

/// The functional arm of a decode-phase plan: which decoder steps, with
/// what resident cache, on which input row. Attach with
/// [`RunPlan::with_session`]; the pipeline runs exactly one KV-cached
/// step (through the packed fast path when `packed` is given — output
/// bit-identical either way) and returns the `1 × d` row in
/// [`RunOutcome::outputs`].
#[derive(Debug)]
pub struct DecodeSession<'a> {
    /// The decoder being stepped.
    pub decoder: &'a QuantizedDecoder,
    /// Pre-packed projection weights for the SIMD fast path; `None`
    /// takes the scalar reference path.
    pub packed: Option<&'a PackedDecoder>,
    /// The session's resident KV cache (mutated: one position appended).
    pub cache: &'a mut DecoderKvCache,
    /// The `1 × d_model` input row for this position.
    pub x_row: &'a Matrix<i8>,
}

/// Fault-injection arm of a [`RunPlan`]: the seeded stream plus the
/// driver's recovery machinery. Every tile load draws from `stream`:
///
/// * an AXI stall extends that load by the stalled cycles;
/// * a correctable (single-bit) ECC event scrubs and replays the
///   transfer after exponential backoff;
/// * a hung transfer costs `watchdog.timeout_cycles` to detect, then
///   replays like an ECC event;
/// * a double-bit ECC event, or a transfer whose retry budget is
///   exhausted, aborts the run with
///   [`CoreError::Fault`], and
///   [`FaultStats::abort_cycles`](crate::fault::FaultStats::abort_cycles)
///   records how many cycles into the run it was detected.
///
/// With a zero-rate stream the report equals the fault-free one exactly.
#[derive(Debug)]
pub struct FaultPlan<'a> {
    /// The per-card fault stream (stateful: each tile load draws).
    pub stream: &'a mut FaultStream,
    /// Hung-transfer detection budget.
    pub watchdog: Watchdog,
    /// Replay/backoff policy for recoverable faults.
    pub retry: RetryPolicy,
    /// Simulation timestamp of the run (fault streams are time-seeded).
    pub now_ns: u64,
}

/// Everything one run needs, in one value. Build with
/// [`RunPlan::timing`] or [`RunPlan::functional`], then arm options.
///
/// The shape and weights come from the [`Accelerator`] the plan is
/// executed on; the plan carries what varies per run.
#[derive(Debug, Default)]
pub struct RunPlan<'a> {
    batch: usize,
    inputs: Option<&'a [Matrix<i8>]>,
    faults: Option<FaultPlan<'a>>,
    trace_capacity: Option<usize>,
    phase: Phase,
    session: Option<DecodeSession<'a>>,
}

impl<'a> RunPlan<'a> {
    /// A timing-only run of `batch` weight-stationary sequences (no
    /// functional datapath, no weights required).
    #[must_use]
    pub fn timing(batch: usize) -> Self {
        Self { batch, ..Self::default() }
    }

    /// A functional run: every input goes through the bit-exact
    /// datapath, and the timing half prices the batch.
    #[must_use]
    pub fn functional(inputs: &'a [Matrix<i8>]) -> Self {
        Self { batch: inputs.len(), inputs: Some(inputs), ..Self::default() }
    }

    /// A prefill pass: `batch` prompts of `prompt_len` rows run through
    /// the decoder stack once each, populating their KV caches. The
    /// programmed `seq_len` is the source/memory length the
    /// cross-attention spans.
    #[must_use]
    pub fn prefill(prompt_len: usize, batch: usize) -> Self {
        Self { batch, phase: Phase::Prefill { prompt_len }, ..Self::default() }
    }

    /// One autoregressive token step for a batch of `batch` concurrent
    /// sessions, each attending over `kv_len` cached positions. The
    /// programmed `seq_len` is the source/memory length.
    #[must_use]
    pub fn decode(step: usize, kv_len: usize, batch: usize) -> Self {
        Self { batch, phase: Phase::Decode { step, kv_len }, ..Self::default() }
    }

    /// Attach the functional arm of a decode step: the pipeline runs one
    /// KV-cached step of `session.decoder` and returns the output row.
    #[must_use]
    pub fn with_session(mut self, session: DecodeSession<'a>) -> Self {
        self.session = Some(session);
        self
    }

    /// The execution phase this plan prices.
    #[must_use]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Arm fault injection: every tile load draws from the plan's
    /// stream and layers are priced individually.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan<'a>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Arm span tracing with the default ring capacity.
    #[must_use]
    pub fn with_trace(self) -> Self {
        self.with_trace_capacity(ExecTrace::DEFAULT_CAPACITY)
    }

    /// Arm span tracing with an explicit ring capacity.
    #[must_use]
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// The batch size this plan prices.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Whether tracing is armed.
    #[must_use]
    pub fn traced(&self) -> bool {
        self.trace_capacity.is_some()
    }

    /// Whether the run is deterministic in the registers alone — no
    /// stateful fault stream — and its timing therefore memoizable.
    #[must_use]
    pub fn deterministic(&self) -> bool {
        self.faults.is_none()
    }

    /// The memoization key of this plan on `accel`, or `None` when the
    /// plan draws from a stateful fault stream. Two runs with equal
    /// keys produce byte-identical [`CycleReport`]s, which is what lets
    /// a serving layer cache them.
    #[must_use]
    pub fn memo_key(&self, accel: &Accelerator) -> Option<PlanKey> {
        if !self.deterministic() {
            return None;
        }
        // The key does not carry a phase, so only encode plans (whose
        // cost the registers fully determine) are memoizable.
        if self.phase != Phase::Encode {
            return None;
        }
        let rt = accel.runtime();
        Some(PlanKey {
            heads: rt.heads,
            layers: rt.layers,
            d_model: rt.d_model,
            seq_len: rt.seq_len,
            batch: self.batch,
            overlap: accel.overlap_enabled(),
        })
    }
}

/// The deterministic-run memo key: the programmed registers, the batch
/// size, and the overlap knob — everything the timing half of a
/// deterministic [`RunPlan`] depends on for a given synthesized design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanKey {
    /// Programmed attention heads.
    pub heads: usize,
    /// Programmed encoder layers.
    pub layers: usize,
    /// Programmed embedding dimension.
    pub d_model: usize,
    /// Programmed (padded) sequence length.
    pub seq_len: usize,
    /// Weight-stationary batch size.
    pub batch: usize,
    /// Whether load/compute overlap is enabled.
    pub overlap: bool,
}

/// What one [`Accelerator::execute`] call produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Functional outputs, one per input (empty for timing-only plans).
    pub outputs: Vec<Matrix<i8>>,
    /// Cycle accounting for the whole batch.
    pub report: CycleReport,
    /// Engine-busy fraction of the total, `1 − stall/total`.
    pub utilization: f64,
    /// Batch latency in milliseconds at the synthesized clock.
    pub latency_ms: f64,
    /// Whole-batch throughput in GOPS.
    pub gops: f64,
    /// The recorded spans, when the plan armed tracing.
    pub trace: Option<ExecTrace>,
}

impl Accelerator {
    /// Run `plan` through the unified pipeline. This is *the* execution
    /// path: every other run/timing entry point is a shim over it.
    ///
    /// Returns the outcome alongside the run's [`FaultStats`] (all-zero
    /// for deterministic plans), mirroring the fault path's historical
    /// contract: on an aborted run the stats still carry the fault
    /// counts and the abort position.
    ///
    /// # Errors
    /// [`CoreError::EmptyBatch`], [`CoreError::WeightsNotLoaded`] and
    /// [`CoreError::InputShape`] from the functional half;
    /// [`CoreError::Fault`] when an armed fault stream aborts the run.
    ///
    /// # Panics
    /// Panics if a timing-only plan has a zero batch (a functional plan
    /// with no inputs errors with `EmptyBatch` instead).
    pub fn execute(&self, plan: RunPlan<'_>) -> (Result<RunOutcome, CoreError>, FaultStats) {
        let mut outputs = match plan.inputs {
            Some(xs) => match self.forward_batch(xs) {
                Ok(outputs) => outputs,
                Err(e) => return (Err(e), FaultStats::default()),
            },
            None => Vec::new(),
        };
        if let Some(session) = plan.session {
            let DecodeSession { decoder, packed, cache, x_row } = session;
            let step = match packed {
                Some(p) => decoder.try_decode_step_packed(p, cache, x_row),
                None => decoder.try_decode_step(cache, x_row),
            };
            match step {
                Ok(row) => outputs.push(row),
                Err(e) => return (Err(e.into()), FaultStats::default()),
            }
        }
        assert!(plan.batch > 0, "batch must be nonzero");
        let mut trace = plan.trace_capacity.map(ExecTrace::bounded);
        let (report, stats) = match (plan.faults, plan.phase) {
            (Some(faults), Phase::Encode) => {
                let (report, stats) = self.faulty_phase_report(plan.batch, faults, trace.as_mut());
                match report {
                    Ok(report) => (report, stats),
                    Err(e) => return (Err(e), stats),
                }
            }
            (Some(_), _) => {
                let e =
                    CoreError::InvalidConfig("fault injection covers the encode phase only".into());
                return (Err(e), FaultStats::default());
            }
            (None, Phase::Encode) => {
                let plans = self.phase_plans();
                let report = self.price_phase_plans(
                    &plans,
                    self.runtime().layers,
                    plan.batch as u64,
                    self.overlap_enabled(),
                    trace.as_mut(),
                );
                (report, FaultStats::default())
            }
            (None, Phase::Prefill { prompt_len }) => {
                if let Err(e) = self.check_phase_len("prompt_len", prompt_len) {
                    return (Err(e), FaultStats::default());
                }
                let base = *self.runtime();
                let rt = RuntimeConfig { seq_len: prompt_len, ..base };
                let plans = prefill_plans(&self.design().config, &rt, base.seq_len as u64);
                // Generation phases always overlap loads with compute
                // (the decoder has no serial-ablation knob).
                let report = self.price_phase_plans(
                    &plans,
                    rt.layers,
                    plan.batch as u64,
                    true,
                    trace.as_mut(),
                );
                (report, FaultStats::default())
            }
            (None, Phase::Decode { step: _, kv_len }) => {
                if let Err(e) = self.check_phase_len("kv_len", kv_len) {
                    return (Err(e), FaultStats::default());
                }
                let base = *self.runtime();
                let rt = RuntimeConfig { seq_len: 1, ..base };
                // The batch is baked into the plans as streamed rows
                // (weight-stationary amortization with per-session KV
                // traffic), so the pricer itself runs at batch 1 —
                // multiplying compute again would double-charge.
                let plans = decode_step_plans(
                    &self.design().config,
                    &rt,
                    kv_len as u64,
                    base.seq_len as u64,
                    plan.batch.max(1) as u64,
                );
                let report = self.price_phase_plans(&plans, rt.layers, 1, true, trace.as_mut());
                (report, FaultStats::default())
            }
        };
        let ops = OpCount::for_config(&self.runtime().to_model_config());
        let outcome = RunOutcome {
            outputs,
            utilization: report.utilization(),
            latency_ms: report.latency_ms(),
            gops: report.gops(&ops) * plan.batch as f64,
            report,
            trace,
        };
        (Ok(outcome), stats)
    }

    /// A generation-phase length must fit the synthesized sequence
    /// capacity, exactly like the programmed `seq_len`.
    fn check_phase_len(&self, reg: &'static str, len: usize) -> Result<(), CoreError> {
        let max = self.design().config.sl_max;
        if len == 0 || len > max {
            return Err(CoreError::Register(RegisterError::ExceedsCapacity {
                reg,
                requested: len as u32,
                max: max as u32,
            }));
        }
        Ok(())
    }

    /// Functional half: validate, then run every input through the
    /// bit-exact datapath (fanned out across threads — each sequence is
    /// computed whole in one task, so outputs are unchanged by the
    /// parallelism).
    fn forward_batch(&self, xs: &[Matrix<i8>]) -> Result<Vec<Matrix<i8>>, CoreError> {
        if xs.is_empty() {
            return Err(CoreError::EmptyBatch);
        }
        let weights = self.weights().ok_or(CoreError::WeightsNotLoaded)?;
        let rt = self.runtime();
        let expected = (rt.seq_len, rt.d_model);
        for x in xs {
            if x.shape() != expected {
                return Err(CoreError::InputShape { expected, got: x.shape() });
            }
        }
        if xs.len() > 1 && rayon::current_num_threads() > 1 {
            let mut slots: Vec<Option<Matrix<i8>>> = (0..xs.len()).map(|_| None).collect();
            rayon::scope(|sc| {
                for (x, slot) in xs.iter().zip(slots.iter_mut()) {
                    sc.spawn(move |_| *slot = Some(self.forward_functional(x, weights)));
                }
            });
            Ok(slots.into_iter().map(|o| o.expect("every batch item is computed")).collect())
        } else {
            Ok(xs.iter().map(|x| self.forward_functional(x, weights)).collect())
        }
    }

    /// Price a sequence of named phase plans: each phase's schedule is
    /// simulated once (layers are identical without faults) and
    /// multiplied by `layers`. This is the single fault-free pricing
    /// loop — the encoder and both decoder timing paths all land here.
    ///
    /// `double_buffered` selects the overlap scheduler (the encoder's
    /// ablation knob; the decoder always overlaps). When `trace` is
    /// given, spans are laid out layer-major on the engine/DMA tracks.
    pub(crate) fn price_phase_plans(
        &self,
        plans: &[(&'static str, Vec<Access>)],
        layers: usize,
        batch: u64,
        double_buffered: bool,
        trace: Option<&mut ExecTrace>,
    ) -> CycleReport {
        let pricer = Pricer::of(self, batch, double_buffered);
        let lmul = layers as u64;
        let mut phases = Vec::with_capacity(plans.len());
        let mut priced: Vec<(OverlapReport, Vec<AccessSpans>)> = Vec::new();
        let mut total = Cycles::ZERO;
        for (name, plan) in plans {
            let schedule = pricer.schedule(plan);
            let r = pricer.simulate(&schedule);
            let cycles = Cycles(r.total.get() * lmul);
            let load_stall = Cycles(r.compute_stall.get() * lmul);
            total = total.saturating_add(cycles);
            phases.push(EnginePhase { name, cycles, load_stall });
            if trace.is_some() {
                priced.push((r, pricer.spans(&schedule)));
            }
        }
        if let Some(tr) = trace {
            emit_layer_major(tr, plans, &priced, lmul);
        }
        CycleReport { phases, layers, total, fmax_mhz: self.design().fmax_mhz }
    }

    /// The fault-injected pricing loop: every tile load draws from the
    /// stream, layers are priced individually, and an unrecoverable
    /// fault aborts with the occupied-cycle count in the stats.
    fn faulty_phase_report(
        &self,
        batch: usize,
        faults: FaultPlan<'_>,
        mut trace: Option<&mut ExecTrace>,
    ) -> (Result<CycleReport, CoreError>, FaultStats) {
        let FaultPlan { stream, watchdog, retry, now_ns } = faults;
        let pricer = Pricer::of(self, batch as u64, self.overlap_enabled());
        let mut stats = FaultStats::default();
        let layers = self.runtime().layers as u64;
        let mut phases = Vec::new();
        let mut total = Cycles::ZERO;
        let mut cursor: u64 = 0;
        for (name, plan) in self.phase_plans() {
            let mut phase_cycles: u64 = 0;
            let mut phase_stall: u64 = 0;
            for layer in 0..layers {
                let mut schedule: Vec<(Cycles, Cycles)> = Vec::with_capacity(plan.len());
                for a in &plan {
                    let clean = pricer.load_cycles(a.load_bytes).get();
                    match faulty_load(clean, stream, watchdog, retry, now_ns, &mut stats) {
                        Ok(load) => {
                            schedule.push((Cycles(load), Cycles(a.compute_cycles * pricer.batch)));
                        }
                        Err((kind, spent)) => {
                            let issued: u64 = schedule.iter().map(|(l, _)| l.get()).sum();
                            stats.abort_cycles = total
                                .get()
                                .saturating_add(phase_cycles)
                                .saturating_add(issued)
                                .saturating_add(spent);
                            let context = format!("{name} tile load, layer {layer}, batch {batch}");
                            return (Err(CoreError::Fault { kind, context }), stats);
                        }
                    }
                }
                let r = pricer.simulate(&schedule);
                phase_cycles = phase_cycles.saturating_add(r.total.get());
                phase_stall = phase_stall.saturating_add(r.compute_stall.get());
                if let Some(tr) = trace.as_deref_mut() {
                    emit_phase(tr, name, cursor, &r, &pricer.spans(&schedule));
                    cursor = cursor.saturating_add(r.total.get());
                }
            }
            total = total.saturating_add(Cycles(phase_cycles));
            phases.push(EnginePhase {
                name,
                cycles: Cycles(phase_cycles),
                load_stall: Cycles(phase_stall),
            });
        }
        let layers = self.runtime().layers;
        let report = CycleReport { phases, layers, total, fmax_mhz: self.design().fmax_mhz };
        (Ok(report), stats)
    }
}

/// The pricing context every path shares: the AXI/HBM channel model at
/// the synthesized clock, the batch multiplier, and the overlap knob.
struct Pricer<'a> {
    accel: &'a Accelerator,
    share: ChannelShare,
    batch: u64,
    double_buffered: bool,
}

impl<'a> Pricer<'a> {
    fn of(accel: &'a Accelerator, batch: u64, double_buffered: bool) -> Self {
        let design = accel.design();
        let freq_hz = design.fmax_mhz * 1e6;
        let share = ChannelShare::of(&design.device.memory, design.config.dma_sharing, freq_hz);
        Self { accel, share, batch, double_buffered }
    }

    fn load_cycles(&self, bytes: u64) -> Cycles {
        bounded_transfer_cycles(&self.accel.design().config.axi, &self.share, bytes)
    }

    /// An access plan priced into (load, compute) cycle pairs, compute
    /// scaled by the weight-stationary batch.
    fn schedule(&self, plan: &[Access]) -> Vec<(Cycles, Cycles)> {
        plan.iter()
            .map(|a| (self.load_cycles(a.load_bytes), Cycles(a.compute_cycles * self.batch)))
            .collect()
    }

    fn simulate(&self, schedule: &[(Cycles, Cycles)]) -> OverlapReport {
        if self.double_buffered {
            simulate_double_buffered(schedule)
        } else {
            simulate_serial(schedule)
        }
    }

    fn spans(&self, schedule: &[(Cycles, Cycles)]) -> Vec<AccessSpans> {
        if self.double_buffered {
            simulate_double_buffered_spans(schedule).1
        } else {
            simulate_serial_spans(schedule).1
        }
    }
}

/// Lay a fault-free run out layer-major: layer 0's phases back to back,
/// then layer 1's, … — each phase's span pattern repeating unchanged.
fn emit_layer_major(
    tr: &mut ExecTrace,
    plans: &[(&'static str, Vec<Access>)],
    priced: &[(OverlapReport, Vec<AccessSpans>)],
    layers: u64,
) {
    let layer_cycles: u64 = priced.iter().map(|(r, _)| r.total.get()).sum();
    for layer in 0..layers {
        let mut base = layer.saturating_mul(layer_cycles);
        for ((name, _), (r, spans)) in plans.iter().zip(priced) {
            emit_phase(tr, name, base, r, spans);
            base = base.saturating_add(r.total.get());
        }
    }
}

/// Emit one phase occurrence at absolute offset `base`: the phase span
/// on the engine track, tile visits nested inside it, DMA bursts on
/// the DMA track. Zero-length bursts/visits are skipped.
fn emit_phase(tr: &mut ExecTrace, name: &str, base: u64, r: &OverlapReport, spans: &[AccessSpans]) {
    tr.push(name, SpanKind::Phase, track::ENGINE, base, base.saturating_add(r.total.get()));
    for (i, s) in spans.iter().enumerate() {
        if s.load_end > s.load_start {
            tr.push(
                format!("DMA {name}"),
                SpanKind::Dma,
                track::DMA,
                base.saturating_add(s.load_start.get()),
                base.saturating_add(s.load_end.get()),
            );
        }
        if s.compute_end > s.compute_start {
            tr.push(
                format!("{name} tile {i}"),
                SpanKind::Tile,
                track::ENGINE,
                base.saturating_add(s.compute_start.get()),
                base.saturating_add(s.compute_end.get()),
            );
        }
    }
}

impl RunOutcome {
    /// Convenience view as the historical single-run result (first
    /// output, whole-batch metrics).
    ///
    /// # Panics
    /// Panics when the outcome has no functional outputs.
    #[must_use]
    pub fn into_run_result(mut self) -> RunResult {
        RunResult {
            output: self.outputs.pop().expect("functional outcome has an output"),
            report: self.report,
            latency_ms: self.latency_ms,
            gops: self.gops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::SynthesisConfig;
    use protea_model::{DecoderWeights, EncoderConfig, QuantSchedule};
    use protea_platform::FpgaDevice;

    fn accel(cfg: &EncoderConfig) -> Accelerator {
        let mut a =
            Accelerator::try_new(SynthesisConfig::paper_default(), &FpgaDevice::alveo_u55c())
                .expect("design fits");
        a.program(RuntimeConfig {
            heads: cfg.heads,
            layers: cfg.layers,
            d_model: cfg.d_model,
            seq_len: cfg.seq_len,
        })
        .expect("register write");
        a
    }

    fn decoder(cfg: EncoderConfig, seed: u64) -> QuantizedDecoder {
        QuantizedDecoder::from_float(&DecoderWeights::random(cfg, seed), QuantSchedule::paper())
    }

    #[test]
    fn decode_plan_matches_decode_step_timing_shim() {
        // The legacy decode_step_timing entry point and the phase-aware
        // pipeline must price a step identically.
        let cfg = EncoderConfig::new(96, 4, 2, 16);
        let a = accel(&cfg);
        let dec = decoder(cfg, 31);
        for pos in [0usize, 3, 7] {
            let (outcome, _) = a.execute(RunPlan::decode(pos, pos + 1, 1));
            let pipeline = outcome.expect("decode plan prices");
            let shim = a.decode_step_timing(&dec, pos, 16);
            assert_eq!(pipeline.report.total, shim.total, "position {pos}");
        }
    }

    #[test]
    fn decode_session_output_matches_full_forward() {
        let cfg = EncoderConfig::new(32, 4, 2, 8);
        let a = accel(&cfg);
        let dec = decoder(cfg, 33);
        let packed = dec.pack();
        let mem = Matrix::from_fn(8, 32, |r, c| ((r * 13 + c * 3) % 110) as i8 - 50);
        let x = Matrix::from_fn(6, 32, |r, c| ((r * 7 + c * 11) % 110) as i8 - 50);
        let full = dec.forward(&x, &mem);
        let mut cache = DecoderKvCache::new(&dec, &mem);
        for pos in 0..6 {
            let row = x.submatrix(pos, 0, 1, 32);
            let plan = RunPlan::decode(pos, pos + 1, 1).with_session(DecodeSession {
                decoder: &dec,
                packed: Some(&packed),
                cache: &mut cache,
                x_row: &row,
            });
            let (outcome, _) = a.execute(plan);
            let out = outcome.expect("decode step runs");
            assert_eq!(out.outputs.len(), 1);
            assert_eq!(out.outputs[0].row(0), full.row(pos), "position {pos} diverged");
            assert!(out.latency_ms > 0.0);
        }
    }

    #[test]
    fn session_capacity_error_lifts_to_core_error() {
        let cfg = EncoderConfig::new(32, 4, 1, 8);
        let a = accel(&cfg);
        let dec = decoder(cfg, 35);
        let mem = Matrix::from_fn(8, 32, |r, c| ((r + c) % 90) as i8);
        let mut cache = DecoderKvCache::bounded(&dec, &mem, 1);
        let row = Matrix::from_fn(1, 32, |_, c| (c % 40) as i8);
        let step = |cache: &mut DecoderKvCache, pos: usize| {
            let plan = RunPlan::decode(pos, pos + 1, 1).with_session(DecodeSession {
                decoder: &dec,
                packed: None,
                cache,
                x_row: &row,
            });
            a.execute(plan).0
        };
        assert!(step(&mut cache, 0).is_ok());
        let err = step(&mut cache, 1).unwrap_err();
        assert_eq!(err, CoreError::KvCapacity { positions: 1, capacity: 1 });
        assert_eq!(err.exit_code(), 11);
    }

    #[test]
    fn prefill_prices_between_one_step_and_full_forward_shape() {
        let cfg = EncoderConfig::new(96, 4, 2, 32);
        let a = accel(&cfg);
        let (one, _) = a.execute(RunPlan::decode(0, 1, 1));
        let (pre, _) = a.execute(RunPlan::prefill(16, 1));
        let one = one.expect("decode prices");
        let pre = pre.expect("prefill prices");
        assert!(
            pre.report.total > one.report.total,
            "a 16-row prefill must cost more than one token step"
        );
    }

    #[test]
    fn generation_phases_reject_oversized_lengths_and_faults() {
        let cfg = EncoderConfig::new(96, 4, 1, 16);
        let a = accel(&cfg);
        let sl_max = a.design().config.sl_max;
        assert!(matches!(
            a.execute(RunPlan::prefill(sl_max + 1, 1)).0.unwrap_err(),
            CoreError::Register(RegisterError::ExceedsCapacity { reg: "prompt_len", .. })
        ));
        assert!(matches!(
            a.execute(RunPlan::decode(0, 0, 1)).0.unwrap_err(),
            CoreError::Register(RegisterError::ExceedsCapacity { reg: "kv_len", .. })
        ));
        let mut stream = FaultStream::seeded(7, 0, crate::fault::FaultRates::scaled(1.0));
        let plan = RunPlan::decode(0, 1, 1).with_faults(FaultPlan {
            stream: &mut stream,
            watchdog: Watchdog::default(),
            retry: RetryPolicy::default(),
            now_ns: 0,
        });
        assert!(matches!(a.execute(plan).0.unwrap_err(), CoreError::InvalidConfig(_)));
    }

    #[test]
    fn decode_batch_scales_compute_not_loads() {
        // Weight streaming is shared across a decode batch (weight-
        // stationary), so batching tokens must cost less than pricing
        // each token alone.
        let cfg = EncoderConfig::new(768, 8, 2, 64);
        let a = accel(&cfg);
        let single = a.execute(RunPlan::decode(0, 32, 1)).0.unwrap().report.total;
        let batched = a.execute(RunPlan::decode(0, 32, 8)).0.unwrap().report.total;
        assert!(batched > single);
        assert!(
            batched.get() < 8 * single.get(),
            "batch 8 ({batched:?}) must beat 8 independent steps ({single:?} each)"
        );
    }

    #[test]
    fn non_encode_plans_are_not_memoizable() {
        let cfg = EncoderConfig::new(96, 4, 1, 16);
        let a = accel(&cfg);
        assert!(RunPlan::timing(1).memo_key(&a).is_some());
        assert!(RunPlan::prefill(4, 1).memo_key(&a).is_none());
        assert!(RunPlan::decode(0, 4, 1).memo_key(&a).is_none());
    }
}
