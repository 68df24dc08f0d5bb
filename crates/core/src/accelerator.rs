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
use crate::pipeline::RunPlan;
use crate::registers::{RegisterError, RuntimeConfig};
use crate::report::CycleReport;
use crate::synthesis::{SynthesisConfig, SynthesizedDesign};
use protea_fixed::activation::ActivationLut;
use protea_fixed::SoftmaxUnit;
use protea_model::quantized::fused_attention_head;
use protea_model::QuantizedEncoder;
use protea_platform::FpgaDevice;
use protea_tensor::Matrix;
use std::sync::{Arc, OnceLock};

/// The full ProTEA instance: one synthesized design, a runtime register
/// file, and (once loaded) the model weights.
#[derive(Debug, Clone)]
pub struct Accelerator {
    design: SynthesizedDesign,
    runtime: RuntimeConfig,
    /// The loaded weight image. Cards loaded from one `Arc` share its
    /// allocation; a reload costs the digest, not a copy.
    weights: Option<Arc<QuantizedEncoder>>,
    /// Word-lane digest of the loaded weight image (shape, heads,
    /// activation, quantization schedule, weights with their formats,
    /// biases and both layer-norm units), sealed at every
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
        self.weights.as_deref()
    }

    /// Reprogram the runtime registers — **no resynthesis**. Fails if the
    /// request exceeds the synthesized capacity, exactly as the real
    /// controller rejects out-of-range AXI-lite writes.
    ///
    /// Only the capacity is checked, not the resident image: a card is
    /// programmed for a new model before the model's image is loaded
    /// (the fleet's `prepare_card` does exactly that), and timing-only
    /// runs reprogram a loaded card to price other shapes. The image
    /// rule is checked where bytes are produced instead: at
    /// [`try_load_weights`](Self::try_load_weights) and on every
    /// functional run.
    pub fn program(&mut self, runtime: RuntimeConfig) -> Result<(), RegisterError> {
        runtime.validate(&self.design.config)?;
        self.runtime = runtime;
        Ok(())
    }

    /// Load quantized weights (the DDR-resident model image), checking
    /// them against the programmed register file and sealing their
    /// digest. An owned image moves into a new `Arc`; an `Arc` clone is
    /// shared with every other card loaded from it, without a copy.
    ///
    /// # Errors
    /// [`CoreError::WeightShape`] if the image's heads or `d_model`
    /// differ from the programmed registers or the image has fewer
    /// layers than programmed.
    pub fn try_load_weights(
        &mut self,
        weights: impl Into<Arc<QuantizedEncoder>>,
    ) -> Result<(), CoreError> {
        let weights = weights.into();
        self.check_image(&weights)?;
        self.packed = OnceLock::new();
        self.weight_digest = Some(crate::integrity::weight_digest(&weights));
        self.weights = Some(weights);
        Ok(())
    }

    /// The rule the register file and a weight image must satisfy before
    /// the image produces any bytes: equal heads and `d_model`, and no
    /// more programmed layers than the image holds. The image is the
    /// source of the shape, as in the paper, where the driver reads the
    /// hyperparameters from the saved model and writes them to the
    /// registers; the golden model splits attention by the image's heads.
    ///
    /// # Errors
    /// [`CoreError::WeightShape`] when the rule is broken.
    pub(crate) fn check_image(&self, weights: &QuantizedEncoder) -> Result<(), CoreError> {
        let (image, rt) = (&weights.config, &self.runtime);
        if image.d_model == rt.d_model && image.heads == rt.heads && image.layers >= rt.layers {
            return Ok(());
        }
        Err(CoreError::WeightShape {
            weights_d_model: image.d_model,
            programmed_d_model: rt.d_model,
            weights_heads: image.heads,
            programmed_heads: rt.heads,
            weights_layers: image.layers,
            programmed_layers: rt.layers,
        })
    }

    /// The word-lane digest sealed over the loaded weight image (shape,
    /// heads, activation, quantization schedule, weights with their
    /// formats, biases and both layer-norm units), if any.
    #[must_use]
    pub fn weight_digest(&self) -> Option<u64> {
        self.weight_digest
    }

    /// Recompute the weight digest and compare it against the value
    /// sealed at load time, returning the verified digest: the check for
    /// *persistent* silent corruption of the resident image, which ABFT
    /// checksums cannot see. Nothing in the load, reprogram or run paths
    /// calls it, and the serving layer's scrub (`scrub_fleet` in
    /// `protea-serve`) sweeps a modelled corruption counter rather than
    /// recomputing the digest; a caller that wants the check runs it.
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
    /// [`CoreError::WeightShape`] if the registers were reprogrammed away
    /// from the resident image ([`program`](Self::program));
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
    /// compare byte-for-byte against the golden software model.
    ///
    /// # Errors
    /// [`CoreError::WeightsNotLoaded`] before a load;
    /// [`CoreError::WeightShape`] if the registers were reprogrammed away
    /// from the resident image; [`CoreError::Integrity`] naming the first
    /// byte at which the datapath and the golden model differ.
    pub fn self_test(&self) -> Result<(), CoreError> {
        let weights = self.weights.as_ref().ok_or(CoreError::WeightsNotLoaded)?;
        self.check_image(weights)?;
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
        match hw.as_slice().iter().zip(sw.as_slice()).position(|(a, b)| a != b) {
            None => Ok(()),
            Some(byte) => Err(CoreError::Integrity {
                context: format!(
                    "self-test: datapath differs from the golden model at byte {byte}"
                ),
            }),
        }
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
    /// heads split into one contiguous run per worker thread. The stages
    /// are `protea_model::quantized`'s host datapath, which the
    /// decoder's packed decode step runs too: `fused_projection`,
    /// `fused_projection_act` and [`fused_attention_head`], whose strip
    /// epilogues are bit-exact against the golden per-element stages;
    /// every kernel reproduces `matmul_i8_i32`'s accumulators exactly,
    /// so the output is the golden model's bytes — root
    /// `tests/equivalence.rs` pins this across every dispatchable ISA.
    fn forward_fast(
        &self,
        x: &Matrix<i8>,
        weights: &QuantizedEncoder,
        packed: &PackedEncoder,
    ) -> Matrix<i8> {
        let rt = &self.runtime;
        let s = &weights.schedule;
        let softmax = SoftmaxUnit::new(s.logit_fmt);
        let act = ActivationLut::new(weights.config.activation, s.act_fmt);
        let sl = rt.seq_len;
        let dk = rt.dk();
        let cfg = rt.to_model_config();

        let mut h = x.clone();
        for (layer, pl) in weights.layers.iter().zip(&packed.layers).take(rt.layers) {
            // --- attention -------------------------------------------------
            let q = fused_projection(&h, &pl.wq, &layer.bq, layer.wq.fmt, s);
            let k = fused_projection(&h, &pl.wk, &layer.bk, layer.wk.fmt, s);
            let v = fused_projection(&h, &pl.wv, &layer.bv, layer.wv.fmt, s);
            let head_out = |head: usize| fused_attention_head(&q, &k, &v, head, &cfg, s, &softmax);
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
    use crate::fault::{FaultStream, RetryPolicy, Watchdog};
    use crate::pipeline::FaultPlan;
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
        // so is an image split into other heads
        let resplit = QuantizedEncoder::from_float(
            &EncoderWeights::random(EncoderConfig::new(96, 2, 2, 8), 7),
            QuantSchedule::paper(),
        );
        assert!(matches!(
            acc.try_load_weights(resplit).unwrap_err(),
            CoreError::WeightShape { weights_heads: 2, programmed_heads: 4, .. }
        ));
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
    fn registers_reprogrammed_away_from_the_image_refuse_to_run() {
        let (mut acc, x, _) = small_accel();
        acc.program(RuntimeConfig { heads: 2, layers: 1, d_model: 96, seq_len: 8 }).unwrap();
        let err = acc.try_run(&x).unwrap_err();
        assert!(
            matches!(err, CoreError::WeightShape { weights_heads: 4, programmed_heads: 2, .. }),
            "{err:?}"
        );
        assert_eq!(acc.self_test(), Err(err));
        // Timing needs no image, so it still runs.
        assert!(acc.timing_report().total.get() > 0);
        // Fewer layers than the image holds is a valid program.
        acc.program(RuntimeConfig { heads: 4, layers: 1, d_model: 96, seq_len: 8 }).unwrap();
        assert_eq!(acc.self_test(), Ok(()));
    }

    #[test]
    fn weight_digest_sealed_at_load_and_verified() {
        let (mut acc, _, qw) = small_accel();
        let sealed = acc.weight_digest().expect("digest sealed at load");
        assert_eq!(sealed, crate::integrity::weight_digest(&qw));
        assert_eq!(acc.verify_weights(), Ok(sealed));
        // Flip one bit of the resident image behind the driver's back —
        // the silent corruption the digest exists to catch.
        flip_resident_bit(&mut acc);
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

    /// Flip one bit of `acc`'s resident image. A shared image is copied
    /// first, so the corruption stays on this card.
    fn flip_resident_bit(acc: &mut Accelerator) {
        let image = Arc::make_mut(acc.weights.as_mut().expect("an image is resident"));
        image.layers[0].wq.data[(0, 0)] ^= 0x01;
    }

    #[test]
    fn cards_loaded_from_one_arc_share_it_and_a_flip_stays_on_one_card() {
        let (mut a, _, qw) = small_accel();
        let image = Arc::new(qw);
        a.try_load_weights(Arc::clone(&image)).unwrap();
        let mut b = a.clone();
        b.try_load_weights(Arc::clone(&image)).unwrap();
        assert!(std::ptr::eq(a.weights().unwrap(), b.weights().unwrap()), "one allocation");
        assert!(std::ptr::eq(a.weights().unwrap(), &*image));
        let sealed = a.verify_weights().expect("a verifies");
        assert_eq!(b.verify_weights(), Ok(sealed));
        flip_resident_bit(&mut b);
        assert!(!std::ptr::eq(a.weights().unwrap(), b.weights().unwrap()), "b copied on write");
        assert_eq!(a.verify_weights(), Ok(sealed), "the other card's image is untouched");
        assert!(matches!(b.verify_weights(), Err(CoreError::Integrity { .. })));
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
        let faults = FaultPlan {
            stream: &mut quiet,
            watchdog: Watchdog::default(),
            retry: RetryPolicy::default(),
            now_ns: 0,
        };
        let (r, stats) = acc.execute(RunPlan::timing(4).with_faults(faults));
        let r = r.expect("zero-rate stream must never abort").report;
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
        let faults = FaultPlan {
            stream: &mut noisy,
            watchdog: wd,
            retry: RetryPolicy::default(),
            now_ns: 5,
        };
        let (r, stats) = acc.execute(RunPlan::timing(2).with_faults(faults));
        let r = r.expect("recoverable faults must not abort").report;
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
        let faults = FaultPlan {
            stream: &mut lethal,
            watchdog: Watchdog::default(),
            retry: RetryPolicy::default(),
            now_ns: 0,
        };
        let (r, stats) = acc.execute(RunPlan::timing(1).with_faults(faults));
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
        let faults = FaultPlan {
            stream: &mut hung,
            watchdog: Watchdog::default(),
            retry: RetryPolicy::default(),
            now_ns: 5,
        };
        let (r, stats) = acc.execute(RunPlan::timing(1).with_faults(faults));
        let err = r.expect_err("retry exhaustion must abort");
        assert!(matches!(err, CoreError::Fault { kind: FaultKind::AxiTimeout, .. }), "{err:?}");
        assert_eq!(stats.watchdog_trips, 4);
        assert!(stats.abort_cycles >= 4 * Watchdog::default().timeout_cycles);
    }
}
