//! The assembled accelerator: functional + timing co-simulation.

use crate::backend::PackedEncoder;
use crate::engines::ffn::{FfnEngine, FfnStage};
use crate::engines::ln::LnEngine;
use crate::engines::qk::QkEngine;
use crate::engines::qkv::QkvEngine;
use crate::engines::softmax::SoftmaxEngine;
use crate::engines::sv::SvEngine;
use crate::engines::{fused_projection, fused_projection_act, Access};
use crate::error::CoreError;
use crate::fault::{FaultStats, FaultStream, RetryPolicy, Watchdog};
use crate::pipeline::{FaultPlan, RunPlan};
use crate::registers::{RegisterError, RuntimeConfig};
use crate::report::CycleReport;
use crate::synthesis::{SynthesisConfig, SynthesizedDesign};
use protea_fixed::activation::ActivationLut;
use protea_hwsim::Cycles;
use protea_model::quantized::LogitRequant;
use protea_model::QuantizedEncoder;
use protea_platform::FpgaDevice;
use protea_tensor::{matmul_i8_packed_requant, Matrix, PackedWeights, RequantEpilogue};
use std::sync::OnceLock;

/// The full ProTEA instance: one synthesized design, a runtime register
/// file, and (once loaded) the model weights.
#[derive(Debug, Clone)]
pub struct Accelerator {
    design: SynthesizedDesign,
    runtime: RuntimeConfig,
    weights: Option<QuantizedEncoder>,
    /// FNV digest of the loaded weight image, sealed at
    /// [`try_load_weights`](Self::try_load_weights) and re-checked by
    /// [`verify_weights`](Self::verify_weights) — the detection layer
    /// for silent corruption of resident weights, which ABFT checksums
    /// structurally cannot see.
    weight_digest: Option<u64>,
    /// The weight image repacked for the fast kernel, built lazily on
    /// the first fast-path run after a weight load. Timing-only users
    /// (the fleet's default serving mode reloads cards constantly and
    /// never touches the functional datapath) therefore never pay for
    /// packing.
    packed: OnceLock<PackedEncoder>,
    /// When `false`, the double-buffer overlap is disabled (loads and
    /// compute serialize) — the ablation knob for the paper's overlap
    /// claim.
    overlap_enabled: bool,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The encoder stack's output (`SL × d_model`, activation format).
    pub output: Matrix<i8>,
    /// Cycle accounting.
    pub report: CycleReport,
    /// Latency in milliseconds at the synthesized clock.
    pub latency_ms: f64,
    /// Throughput in GOPS (standard op-count convention).
    pub gops: f64,
}

impl Accelerator {
    /// Synthesize `config` onto `device` and power on with a default
    /// register file (the paper's test #1 shape, clamped to capacity).
    ///
    /// # Errors
    /// [`CoreError::Infeasible`] if the design does not fit the device.
    pub fn try_new(config: SynthesisConfig, device: &FpgaDevice) -> Result<Self, CoreError> {
        let design = config.synthesize(device);
        if !design.feasible {
            return Err(CoreError::Infeasible {
                device: device.name.to_string(),
                resources: design.resources.to_string(),
            });
        }
        let runtime = RuntimeConfig {
            heads: config.heads,
            layers: 12,
            d_model: config.d_max,
            seq_len: 64.min(config.sl_max),
        };
        Ok(Self {
            design,
            runtime,
            weights: None,
            weight_digest: None,
            packed: OnceLock::new(),
            overlap_enabled: true,
        })
    }

    /// The synthesized design (resources, Fmax).
    #[must_use]
    pub fn design(&self) -> &SynthesizedDesign {
        &self.design
    }

    /// The current register file.
    #[must_use]
    pub fn runtime(&self) -> &RuntimeConfig {
        &self.runtime
    }

    /// The loaded weights, if any.
    #[must_use]
    pub fn weights(&self) -> Option<&QuantizedEncoder> {
        self.weights.as_ref()
    }

    /// Reprogram the runtime registers — **no resynthesis**. Fails if the
    /// request exceeds the synthesized capacity, exactly as the real
    /// controller rejects out-of-range AXI-lite writes.
    pub fn program(&mut self, runtime: RuntimeConfig) -> Result<(), RegisterError> {
        runtime.validate(&self.design.config)?;
        self.runtime = runtime;
        Ok(())
    }

    /// Reprogram through the AXI-Lite bus functional model: the word
    /// writes go through address decoding and per-write validation, and
    /// the register file only changes if every transfer returns `OKAY`.
    pub fn program_through_bus(
        &mut self,
        target: RuntimeConfig,
    ) -> Result<Vec<crate::bus::BusResponse>, RegisterError> {
        let mut bus = crate::bus::AxiLiteBus::new(self.design.config);
        let responses = bus.program(target);
        if responses.iter().all(|&r| r == crate::bus::BusResponse::Okay) {
            self.program(bus.config())?;
            Ok(responses)
        } else {
            // surface the underlying validation error
            target.validate(&self.design.config)?;
            Ok(responses)
        }
    }

    /// Load quantized weights (the DDR-resident model image), checking
    /// them against the programmed register file.
    ///
    /// # Errors
    /// [`CoreError::WeightShape`] if the image's `d_model` differs from
    /// the programmed register or the image has fewer layers than
    /// programmed.
    pub fn try_load_weights(&mut self, weights: QuantizedEncoder) -> Result<(), CoreError> {
        if weights.config.d_model != self.runtime.d_model
            || weights.config.layers < self.runtime.layers
        {
            return Err(CoreError::WeightShape {
                weights_d_model: weights.config.d_model,
                programmed_d_model: self.runtime.d_model,
                weights_layers: weights.config.layers,
                programmed_layers: self.runtime.layers,
            });
        }
        self.packed = OnceLock::new();
        self.weight_digest = Some(crate::integrity::weight_digest(&weights));
        self.weights = Some(weights);
        Ok(())
    }

    /// The FNV digest sealed over the loaded weight image, if any.
    #[must_use]
    pub fn weight_digest(&self) -> Option<u64> {
        self.weight_digest
    }

    /// Recompute the weight digest and compare it against the value
    /// sealed at load time, returning the verified digest. Called at
    /// load, after reprogramming, and from the serving layer's periodic
    /// scrub — the detection rung for *persistent* silent corruption
    /// that ABFT checksums cannot see.
    ///
    /// # Errors
    /// [`CoreError::WeightsNotLoaded`] if no image is resident;
    /// [`CoreError::Integrity`] if the recomputed digest disagrees with
    /// the sealed one (the image is untrusted — reload it).
    pub fn verify_weights(&self) -> Result<u64, CoreError> {
        let weights = self.weights.as_ref().ok_or(CoreError::WeightsNotLoaded)?;
        let sealed = self.weight_digest.ok_or(CoreError::WeightsNotLoaded)?;
        let observed = crate::integrity::weight_digest(weights);
        if observed == sealed {
            Ok(sealed)
        } else {
            Err(CoreError::Integrity {
                context: format!(
                    "weight digest mismatch: sealed {sealed:016x}, resident {observed:016x}"
                ),
            })
        }
    }

    /// Disable/enable load-compute overlap (ablation).
    pub fn set_overlap(&mut self, enabled: bool) {
        self.overlap_enabled = enabled;
    }

    /// Whether load/compute overlap is enabled (see
    /// [`set_overlap`](Self::set_overlap)).
    #[must_use]
    pub fn overlap_enabled(&self) -> bool {
        self.overlap_enabled
    }

    /// Run the encoder on a quantized input. Produces both the bit-exact
    /// output and the cycle report. Shim over
    /// [`execute`](Self::execute).
    ///
    /// # Errors
    /// [`CoreError::WeightsNotLoaded`] before any successful
    /// [`try_load_weights`](Self::try_load_weights);
    /// [`CoreError::InputShape`] if `x` is not `SL × d_model` per the
    /// register file.
    pub fn try_run(&self, x: &Matrix<i8>) -> Result<RunResult, CoreError> {
        let (outcome, _) = self.execute(RunPlan::functional(std::slice::from_ref(x)));
        Ok(outcome?.into_run_result())
    }

    /// Panicking form of [`try_run`](Self::try_run).
    ///
    /// # Panics
    /// Panics if weights are not loaded or the input shape mismatches the
    /// register file.
    #[must_use]
    pub fn run(&self, x: &Matrix<i8>) -> RunResult {
        match self.try_run(x) {
            Ok(r) => r,
            Err(CoreError::WeightsNotLoaded) => panic!("load_weights before run"),
            Err(e) => panic!("{e}"),
        }
    }

    /// Timing only (no data needed): what Table I measures. Shim over
    /// [`execute`](Self::execute).
    #[must_use]
    pub fn timing_report(&self) -> CycleReport {
        let (outcome, _) = self.execute(RunPlan::timing(1));
        outcome.expect("fault-free timing cannot fail").report
    }

    /// The nine engine phases of one encoder layer, in execution order,
    /// each with its tile-access plan under the current register file.
    pub(crate) fn phase_plans(&self) -> [(&'static str, Vec<Access>); 9] {
        let syn = &self.design.config;
        let rt = &self.runtime;
        [
            ("QKV_CE", QkvEngine::plan(rt, syn)),
            ("QK_CE", QkEngine::plan(rt, syn)),
            ("Softmax", SoftmaxEngine::plan(rt, syn)),
            ("SV_CE", SvEngine::plan(rt, syn)),
            ("FFN1_CE", FfnEngine::plan(FfnStage::Ffn1, rt, syn)),
            ("AddNorm1", LnEngine::plan(rt, syn)),
            ("FFN2_CE", FfnEngine::plan(FfnStage::Ffn2, rt, syn)),
            ("FFN3_CE", FfnEngine::plan(FfnStage::Ffn3, rt, syn)),
            ("AddNorm2", LnEngine::plan(rt, syn)),
        ]
    }

    /// Timing for a **batch** of `batch` sequences processed
    /// weight-stationary: each engine access computes all `batch`
    /// sequences' rows against the resident tile before the next tile
    /// streams in, amortizing every weight load `batch`-fold. Throughput
    /// mode for offline inference; `batch = 1` reduces exactly to
    /// [`timing_report`](Self::timing_report).
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn timing_report_batched(&self, batch: usize) -> CycleReport {
        let (outcome, _) = self.execute(RunPlan::timing(batch));
        outcome.expect("fault-free timing cannot fail").report
    }

    /// Batched timing under **fault injection**: the same schedule as
    /// [`timing_report_batched`](Self::timing_report_batched), but every
    /// tile load draws from `stream` and the driver's watchdog/retry
    /// machinery responds:
    ///
    /// * an AXI stall extends that load by the stalled cycles;
    /// * a correctable (single-bit) ECC event scrubs and replays the
    ///   transfer after exponential backoff;
    /// * a hung transfer costs `watchdog.timeout_cycles` to detect, then
    ///   replays like an ECC event;
    /// * a double-bit ECC event — or a transfer whose retry budget is
    ///   exhausted — aborts the run with
    ///   [`CoreError::Fault`].
    ///
    /// Layers are priced individually (faults land in specific layers),
    /// so with a zero-rate stream the result equals
    /// `timing_report_batched` exactly. Returns the per-class
    /// [`FaultStats`] alongside the outcome; on abort,
    /// `stats.abort_cycles` records how many cycles into the run the
    /// fatal fault was detected, so a serving layer can price how long
    /// the card was occupied before failing over.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn timing_report_faulty(
        &self,
        batch: usize,
        stream: &mut FaultStream,
        watchdog: Watchdog,
        retry: RetryPolicy,
        now_ns: u64,
    ) -> (Result<CycleReport, CoreError>, FaultStats) {
        let faults = FaultPlan { stream, watchdog, retry, now_ns };
        let (outcome, stats) = self.execute(RunPlan::timing(batch).with_faults(faults));
        (outcome.map(|o| o.report), stats)
    }

    /// Run a batch functionally (each sequence independent) with the
    /// batched timing. Outputs equal per-sequence [`try_run`](Self::try_run)
    /// outputs exactly.
    ///
    /// # Errors
    /// [`CoreError::EmptyBatch`] for a zero-length batch,
    /// [`CoreError::WeightsNotLoaded`] before weights are loaded, and
    /// [`CoreError::InputShape`] if any sequence mismatches the register
    /// file.
    pub fn try_run_batch(
        &self,
        xs: &[Matrix<i8>],
    ) -> Result<(Vec<Matrix<i8>>, CycleReport), CoreError> {
        let (outcome, _) = self.execute(RunPlan::functional(xs));
        outcome.map(|o| (o.outputs, o.report))
    }

    /// Panicking form of [`try_run_batch`](Self::try_run_batch).
    ///
    /// # Panics
    /// Panics on an empty batch, missing weights, or a shape mismatch.
    #[must_use]
    pub fn run_batch(&self, xs: &[Matrix<i8>]) -> (Vec<Matrix<i8>>, CycleReport) {
        match self.try_run_batch(xs) {
            Ok(r) => r,
            Err(CoreError::WeightsNotLoaded) => panic!("load_weights before run"),
            Err(e) => panic!("{e}"),
        }
    }

    /// Built-in self-test (the BIST a deployment runs after loading
    /// weights): push a deterministic pattern through the datapath and
    /// compare byte-for-byte against the golden software model. Returns
    /// `Ok(())` or the index of the first mismatching byte.
    ///
    /// # Panics
    /// Panics if weights are not loaded.
    pub fn self_test(&self) -> Result<(), usize> {
        let weights = self.weights.as_ref().expect("load_weights before self_test");
        let x = Matrix::from_fn(self.runtime.seq_len, self.runtime.d_model, |r, c| {
            (((r * 131 + c * 31 + 17) % 251) as i64 - 125) as i8
        });
        let hw = self.forward_functional(&x, weights);
        let sw = {
            // The golden model asserts its own config's SL; run layer by
            // layer to honour the programmed layer count and shape.
            let mut h = x.clone();
            for layer in weights.layers.iter().take(self.runtime.layers) {
                h = weights.forward_layer(&h, layer).out;
            }
            h
        };
        hw.as_slice().iter().zip(sw.as_slice()).position(|(a, b)| a != b).map_or(Ok(()), Err)
    }

    /// Steady-state sequence interval under inter-sequence **dataflow
    /// pipelining**: with every engine double-buffered on its activation
    /// interfaces, sequence *k+1* may occupy an engine as soon as
    /// sequence *k* releases it, so sustained throughput is set by the
    /// busiest engine's total per-sequence occupancy, not by the
    /// end-to-end latency. Returns `(interval_cycles, bottleneck_name)`;
    /// latency per sequence is unchanged.
    #[must_use]
    pub fn pipelined_interval(&self) -> (Cycles, &'static str) {
        let report = self.timing_report();
        report
            .phases
            .iter()
            .map(|p| (p.cycles, p.name))
            .max_by_key(|&(c, _)| c)
            .expect("at least one phase")
    }

    /// The bit-exact functional path: [`forward_fast`](Self::forward_fast)
    /// over the weight image packed at the first run after a load.
    pub(crate) fn forward_functional(
        &self,
        x: &Matrix<i8>,
        weights: &QuantizedEncoder,
    ) -> Matrix<i8> {
        let packed = self.packed.get_or_init(|| PackedEncoder::pack(weights));
        self.forward_fast(x, weights, packed)
    }

    /// Fast functional path: every projection and attention GEMM goes
    /// through the runtime-dispatched packed microkernel
    /// (`PROTEA_KERNEL` selects the ISA) with its requantization fused
    /// into the store loop — the separate i32→i8 pass over each
    /// materialized accumulator matrix is gone. Projections parallelize
    /// across bands of activation rows *inside* the GEMM; attention
    /// heads split into one contiguous run per worker thread. The
    /// narrowing stages are the golden model's own definitions
    /// ([`LogitRequant`], `QuantSchedule::sv_requantizer`,
    /// `projection_epilogue`, the activation LUT), resolved once per
    /// GEMM into strip epilogues that are bit-exact against the
    /// per-element stages; every kernel reproduces `matmul_i8_i32`'s
    /// accumulators exactly, so the output is the golden model's bytes —
    /// root `tests/equivalence.rs` pins this across every dispatchable
    /// ISA.
    fn forward_fast(
        &self,
        x: &Matrix<i8>,
        weights: &QuantizedEncoder,
        packed: &PackedEncoder,
    ) -> Matrix<i8> {
        let rt = &self.runtime;
        let s = &weights.schedule;
        let softmax = SoftmaxEngine::new(s);
        let act = ActivationLut::new(weights.config.activation, s.act_fmt);
        let sl = rt.seq_len;
        let dk = rt.dk();
        let cfg = rt.to_model_config();
        let logit_epi = RequantEpilogue::new(LogitRequant::new(&cfg, s).lanes());
        let sv_epi = RequantEpilogue::new(s.sv_requantizer().lanes());

        let mut h = x.clone();
        for (layer, pl) in weights.layers.iter().zip(&packed.layers).take(rt.layers) {
            // --- attention -------------------------------------------------
            let q = fused_projection(&h, &pl.wq, &layer.bq, layer.wq.fmt, s);
            let k = fused_projection(&h, &pl.wk, &layer.bk, layer.wk.fmt, s);
            let v = fused_projection(&h, &pl.wv, &layer.bv, layer.wv.fmt, s);
            let head_out = |head: usize| {
                let c0 = head * dk;
                let qi = q.submatrix(0, c0, sl, dk);
                let ki = k.submatrix(0, c0, sl, dk);
                let vi = v.submatrix(0, c0, sl, dk);
                // Packing `kiᵀ` column-major is `ki`'s row-major bytes — a
                // straight copy, so Q·Kᵀ runs on the packed kernel at
                // negligible packing cost. The logit scale/narrow runs in
                // the store loop.
                let logits =
                    matmul_i8_packed_requant(&qi, &PackedWeights::from_transpose(&ki), &logit_epi);
                let probs = softmax.compute_head(&logits);
                // SV with its requantizer fused the same way.
                matmul_i8_packed_requant(&probs, &PackedWeights::pack(&vi), &sv_epi)
            };
            // One contiguous run of heads per worker: all but the last run
            // are spawned, the last runs on this thread.
            let mut head_outs: Vec<Option<Matrix<i8>>> = (0..rt.heads).map(|_| None).collect();
            let per_worker = rt.heads.div_ceil(rayon::current_num_threads());
            let mut runs = head_outs.chunks_mut(per_worker).enumerate();
            let last = runs.next_back();
            let fill = |(run, slots): (usize, &mut [Option<Matrix<i8>>])| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(head_out(run * per_worker + i));
                }
            };
            rayon::scope(|sc| {
                for run in runs {
                    sc.spawn(move |_| fill(run));
                }
                if let Some(run) = last {
                    fill(run);
                }
            });
            let mut sv_concat = Matrix::<i8>::zeros(sl, rt.d_model);
            for (head, svi) in head_outs.into_iter().enumerate() {
                sv_concat.write_submatrix(0, head * dk, &svi.expect("every head is computed"));
            }
            // --- FFN1 (output projection) + add&norm -----------------------
            let attn = fused_projection(&sv_concat, &pl.wo, &layer.bo, layer.wo.fmt, s);
            let x1 = LnEngine::compute(&h, &attn, &layer.ln1, s);
            // --- FFN2 (+activation, fused) and FFN3 + add&norm -------------
            let hidden = fused_projection_act(&x1, &pl.w1, &layer.b1, layer.w1.fmt, s, &act);
            let ffn_out = fused_projection(&hidden, &pl.w2, &layer.b2, layer.w2.fmt, s);
            h = LnEngine::compute(&x1, &ffn_out, &layer.ln2, s);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protea_model::{EncoderConfig, EncoderWeights, QuantSchedule};

    fn small_accel() -> (Accelerator, Matrix<i8>, QuantizedEncoder) {
        let cfg = EncoderConfig::new(96, 4, 2, 8);
        let fw = EncoderWeights::random(cfg, 31);
        let qw = QuantizedEncoder::from_float(&fw, QuantSchedule::paper());
        let mut acc =
            Accelerator::try_new(SynthesisConfig::paper_default(), &FpgaDevice::alveo_u55c())
                .expect("design must fit the device");
        acc.program(RuntimeConfig::from_model(&cfg, &SynthesisConfig::paper_default()).unwrap())
            .unwrap();
        acc.try_load_weights(qw.clone()).expect("weights must match the programmed registers");
        let x = Matrix::from_fn(8, 96, |r, c| (((r * 41 + c * 13) % 200) as i32 - 100) as i8);
        (acc, x, qw)
    }

    #[test]
    fn output_matches_golden_model_bitwise() {
        let (acc, x, golden) = small_accel();
        let hw = acc.run(&x);
        let sw = golden.forward(&x);
        assert_eq!(hw.output.as_slice(), sw.as_slice(), "host datapath must be bit-exact");
    }

    #[test]
    fn reprogramming_without_resynthesis() {
        let (mut acc, _, _) = small_accel();
        let before_dsps = acc.design().resources.dsps;
        acc.program(RuntimeConfig { heads: 2, layers: 1, d_model: 64, seq_len: 4 }).unwrap();
        assert_eq!(acc.design().resources.dsps, before_dsps, "resources frozen");
        assert_eq!(acc.runtime().heads, 2);
    }

    #[test]
    fn over_capacity_program_rejected() {
        let (mut acc, _, _) = small_accel();
        let err = acc.program(RuntimeConfig { heads: 8, layers: 1, d_model: 4096, seq_len: 8 });
        assert!(err.is_err());
    }

    #[test]
    fn latency_linear_in_layers() {
        let (mut acc, _, _) = small_accel();
        acc.program(RuntimeConfig { heads: 8, layers: 4, d_model: 768, seq_len: 64 }).unwrap();
        let l4 = acc.timing_report().total.get();
        acc.program(RuntimeConfig { heads: 8, layers: 8, d_model: 768, seq_len: 64 }).unwrap();
        let l8 = acc.timing_report().total.get();
        assert_eq!(l8, 2 * l4, "Table I tests #4/#5: latency ∝ N");
    }

    #[test]
    fn overlap_beats_serial() {
        let (mut acc, _, _) = small_accel();
        acc.program(RuntimeConfig { heads: 8, layers: 12, d_model: 768, seq_len: 64 }).unwrap();
        let with = acc.timing_report().total;
        acc.set_overlap(false);
        let without = acc.timing_report().total;
        assert!(with < without, "double buffering must help: {with} vs {without}");
    }

    #[test]
    fn ffn_dominates_cycle_budget() {
        let (mut acc, _, _) = small_accel();
        acc.program(RuntimeConfig { heads: 8, layers: 12, d_model: 768, seq_len: 64 }).unwrap();
        let r = acc.timing_report();
        let ffn =
            r.phase_fraction("FFN1_CE") + r.phase_fraction("FFN2_CE") + r.phase_fraction("FFN3_CE");
        assert!(ffn > 0.7, "FFN fraction = {ffn:.2}");
    }

    #[test]
    fn batching_amortizes_weight_loads() {
        let (mut acc, _, _) = small_accel();
        acc.program(RuntimeConfig { heads: 8, layers: 12, d_model: 768, seq_len: 32 }).unwrap();
        let single = acc.timing_report_batched(1).total.get();
        assert_eq!(single, acc.timing_report().total.get(), "batch=1 is the plain report");
        let b8 = acc.timing_report_batched(8).total.get();
        // strictly better than 8 independent runs (loads amortized)…
        assert!(b8 < 8 * single, "b8={b8} vs 8x single={}", 8 * single);
        // …and at least as much as the pure-compute lower bound
        assert!(b8 > 6 * single / 2, "sanity");
        // per-sequence latency improves with batch size; at SL=32 the
        // design is mostly compute-bound, so the saving is the unhidden
        // load fraction (~1 %) — strictly positive is the claim.
        let per_seq_1 = single as f64;
        let per_seq_8 = b8 as f64 / 8.0;
        assert!(per_seq_8 < per_seq_1 * 0.998, "per-seq {per_seq_8} vs {per_seq_1}");
    }

    #[test]
    fn dma_channel_sharing_slows_load_sensitive_workloads() {
        let cfg = RuntimeConfig { heads: 8, layers: 12, d_model: 768, seq_len: 32 };
        let device = FpgaDevice::alveo_u55c();
        let dedicated = {
            let mut a = Accelerator::try_new(SynthesisConfig::paper_default(), &device)
                .expect("design must fit the device");
            a.program(cfg).unwrap();
            a.timing_report().total
        };
        let shared = {
            let syn = SynthesisConfig { dma_sharing: 8, ..SynthesisConfig::paper_default() };
            let mut a = Accelerator::try_new(syn, &device).expect("design must fit the device");
            a.program(cfg).unwrap();
            a.timing_report().total
        };
        assert!(shared > dedicated, "sharing 8 ways must cost: {shared} vs {dedicated}");
    }

    #[test]
    fn self_test_passes_on_healthy_hardware() {
        let (acc, _, _) = small_accel();
        assert_eq!(acc.self_test(), Ok(()));
    }

    #[test]
    fn pipelined_throughput_beats_latency_bound() {
        let (mut acc, _, _) = small_accel();
        acc.program(RuntimeConfig { heads: 8, layers: 12, d_model: 768, seq_len: 64 }).unwrap();
        let report = acc.timing_report();
        let (interval, bottleneck) = acc.pipelined_interval();
        assert_eq!(bottleneck, "FFN2_CE", "FFN2 is the busiest engine");
        assert!(interval < report.total, "pipelining must beat serial");
        // FFN2 is ~55 % of the layer, so throughput ≈ 1.8× of 1/latency.
        let gain = report.total.get() as f64 / interval.get() as f64;
        assert!((1.5..2.2).contains(&gain), "pipelining gain = {gain:.2}");
    }

    #[test]
    fn run_batch_outputs_match_individual_runs() {
        let (acc, x, _) = small_accel();
        let mut x2 = x.clone();
        for v in x2.as_mut_slice() {
            *v = v.saturating_add(3);
        }
        let (outs, report) = acc.run_batch(&[x.clone(), x2.clone()]);
        assert_eq!(outs[0].as_slice(), acc.run(&x).output.as_slice());
        assert_eq!(outs[1].as_slice(), acc.run(&x2).output.as_slice());
        assert!(report.total.get() > 0);
    }

    #[test]
    fn program_through_bus_round_trips() {
        let (mut acc, _, _) = small_accel();
        let target = RuntimeConfig { heads: 3, layers: 2, d_model: 36, seq_len: 8 };
        let responses = acc.program_through_bus(target).unwrap();
        assert!(responses.iter().all(|&r| r == crate::bus::BusResponse::Okay));
        assert_eq!(*acc.runtime(), target);
        // an over-capacity target must error
        let bad = RuntimeConfig { heads: 8, layers: 1, d_model: 4096, seq_len: 8 };
        assert!(acc.program_through_bus(bad).is_err());
        assert_eq!(*acc.runtime(), target, "failed programming leaves registers intact");
    }

    #[test]
    #[should_panic(expected = "load_weights")]
    fn run_without_weights_panics() {
        let acc = Accelerator::try_new(SynthesisConfig::paper_default(), &FpgaDevice::alveo_u55c())
            .expect("design must fit the device");
        let x = Matrix::<i8>::zeros(64, 768);
        let _ = acc.run(&x);
    }

    #[test]
    fn try_new_reports_infeasible() {
        let err = Accelerator::try_new(SynthesisConfig::paper_default(), &FpgaDevice::zcu102())
            .unwrap_err();
        assert!(matches!(err, CoreError::Infeasible { .. }), "{err:?}");
        assert!(err.to_string().contains("does not fit"));
    }

    #[test]
    fn try_load_weights_reports_shape_mismatch() {
        let (mut acc, _, _) = small_accel();
        // registers say d_model = 96; offer a d_model = 64 image
        let wrong = QuantizedEncoder::from_float(
            &EncoderWeights::random(EncoderConfig::new(64, 4, 2, 8), 7),
            QuantSchedule::paper(),
        );
        let err = acc.try_load_weights(wrong).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::WeightShape { weights_d_model: 64, programmed_d_model: 96, .. }
            ),
            "{err:?}"
        );
        // fewer layers than programmed is the other rejection
        let shallow = QuantizedEncoder::from_float(
            &EncoderWeights::random(EncoderConfig::new(96, 4, 1, 8), 7),
            QuantSchedule::paper(),
        );
        assert!(matches!(
            acc.try_load_weights(shallow).unwrap_err(),
            CoreError::WeightShape { weights_layers: 1, programmed_layers: 2, .. }
        ));
    }

    #[test]
    fn weight_digest_sealed_at_load_and_verified() {
        let (mut acc, _, qw) = small_accel();
        let sealed = acc.weight_digest().expect("digest sealed at load");
        assert_eq!(sealed, crate::integrity::weight_digest(&qw));
        assert_eq!(acc.verify_weights(), Ok(sealed));
        // Flip one bit of the resident image behind the driver's back —
        // the silent corruption the digest exists to catch.
        let flipped = acc.weights.as_mut().unwrap().layers[0].wq.data[(0, 0)] ^ 0x01;
        acc.weights.as_mut().unwrap().layers[0].wq.data[(0, 0)] = flipped;
        match acc.verify_weights() {
            Err(CoreError::Integrity { context }) => {
                assert!(context.contains("digest mismatch"), "{context}");
            }
            other => panic!("expected Integrity, got {other:?}"),
        }
        let fresh =
            Accelerator::try_new(SynthesisConfig::paper_default(), &FpgaDevice::alveo_u55c())
                .unwrap();
        assert_eq!(fresh.weight_digest(), None);
        assert_eq!(fresh.verify_weights(), Err(CoreError::WeightsNotLoaded));
    }

    #[test]
    fn try_run_reports_missing_weights_and_bad_shape() {
        let acc = Accelerator::try_new(SynthesisConfig::paper_default(), &FpgaDevice::alveo_u55c())
            .unwrap();
        let x = Matrix::<i8>::zeros(64, 768);
        assert_eq!(acc.try_run(&x).unwrap_err(), CoreError::WeightsNotLoaded);
        let (acc, _, _) = small_accel();
        let bad = Matrix::<i8>::zeros(3, 96);
        assert!(matches!(
            acc.try_run(&bad).unwrap_err(),
            CoreError::InputShape { expected: (8, 96), got: (3, 96) }
        ));
    }

    #[test]
    fn try_run_batch_rejects_empty_and_ragged() {
        let (acc, x, _) = small_accel();
        assert_eq!(acc.try_run_batch(&[]).unwrap_err(), CoreError::EmptyBatch);
        let bad = Matrix::<i8>::zeros(4, 96);
        assert!(matches!(acc.try_run_batch(&[x, bad]).unwrap_err(), CoreError::InputShape { .. }));
    }

    #[test]
    fn faulty_timing_with_zero_rates_matches_batched_exactly() {
        use crate::fault::FaultRates;
        let (mut acc, _, _) = small_accel();
        acc.program(RuntimeConfig { heads: 8, layers: 4, d_model: 768, seq_len: 32 }).unwrap();
        let clean = acc.timing_report_batched(4);
        let mut quiet = FaultStream::seeded(7, 0, FaultRates::ZERO);
        let (r, stats) =
            acc.timing_report_faulty(4, &mut quiet, Watchdog::default(), RetryPolicy::default(), 0);
        let r = r.expect("zero-rate stream must never abort");
        assert_eq!(r.total, clean.total, "fault-free path must be bit-identical");
        assert_eq!(r.phases.len(), clean.phases.len());
        for (a, b) in r.phases.iter().zip(&clean.phases) {
            assert_eq!((a.name, a.cycles, a.load_stall), (b.name, b.cycles, b.load_stall));
        }
        assert!(!stats.any());
    }

    #[test]
    fn recoverable_faults_cost_cycles_and_are_counted() {
        use crate::fault::{FaultKind, FaultRates};
        let (mut acc, _, _) = small_accel();
        acc.program(RuntimeConfig { heads: 8, layers: 2, d_model: 768, seq_len: 32 }).unwrap();
        let clean = acc.timing_report_batched(2).total;
        // One stall, one correctable ECC, one hung transfer — all at the
        // very first tile loads of the run.
        let mut noisy = FaultStream::seeded(7, 0, FaultRates::ZERO).with_events([
            (0, FaultKind::AxiStall),
            (1, FaultKind::EccSingle),
            (2, FaultKind::AxiTimeout),
        ]);
        let wd = Watchdog { timeout_cycles: 5_000 };
        let (r, stats) = acc.timing_report_faulty(2, &mut noisy, wd, RetryPolicy::default(), 5);
        let r = r.expect("recoverable faults must not abort");
        assert!(r.total > clean, "faults must cost cycles: {} vs {clean}", r.total);
        assert_eq!(stats.stalls, 1);
        assert_eq!(stats.ecc_single, 1);
        assert_eq!(stats.watchdog_trips, 1);
        assert_eq!(stats.retries, 2);
        assert!(stats.stall_cycles > 0);
        assert!(stats.recovery_cycles >= wd.timeout_cycles, "watchdog wait must be priced");
        assert_eq!(stats.abort_cycles, 0, "completed runs record no abort position");
    }

    #[test]
    fn double_bit_ecc_aborts_with_fault_error() {
        use crate::fault::{FaultKind, FaultRates};
        let (acc, _, _) = small_accel();
        let mut lethal =
            FaultStream::seeded(7, 0, FaultRates::ZERO).with_events([(0, FaultKind::EccDouble)]);
        let (r, stats) = acc.timing_report_faulty(
            1,
            &mut lethal,
            Watchdog::default(),
            RetryPolicy::default(),
            0,
        );
        let err = r.expect_err("double-bit ECC must abort");
        assert!(
            matches!(&err, CoreError::Fault { kind: FaultKind::EccDouble, context }
                if context.contains("QKV_CE")),
            "{err:?}"
        );
        assert_eq!(stats.ecc_double, 1);
        assert!(stats.abort_cycles > 0, "abort position must be recorded");
    }

    #[test]
    fn exhausted_retries_abort() {
        use crate::fault::{FaultKind, FaultRates};
        let (acc, _, _) = small_accel();
        // Four timeouts in a row exhaust the default 4-attempt budget.
        let mut hung = FaultStream::seeded(7, 0, FaultRates::ZERO).with_events([
            (0, FaultKind::AxiTimeout),
            (1, FaultKind::AxiTimeout),
            (2, FaultKind::AxiTimeout),
            (3, FaultKind::AxiTimeout),
        ]);
        let (r, stats) =
            acc.timing_report_faulty(1, &mut hung, Watchdog::default(), RetryPolicy::default(), 5);
        let err = r.expect_err("retry exhaustion must abort");
        assert!(matches!(err, CoreError::Fault { kind: FaultKind::AxiTimeout, .. }), "{err:?}");
        assert_eq!(stats.watchdog_trips, 4);
        assert!(stats.abort_cycles >= 4 * Watchdog::default().timeout_cycles);
    }
}
