//! `encoder_forward`: the bit-exact fast encoder datapath, and its layers
//! — engine phases, packed GEMM kernels, the cycle model's Table I
//! accuracy — in the per-layer suite.

use crate::metrics::{err, median, op_metrics, repeated_setup, time_median, timed, Run};
use crate::rng::{stream, SplitMix64};
use crate::Scale;
use protea_core::engines::ln::LnEngine;
use protea_core::engines::softmax::SoftmaxEngine;
use protea_core::engines::{fused_projection, fused_projection_act, projection_requantizer};
use protea_core::{Accelerator, RunPlan, RuntimeConfig, SynthesisConfig};
use protea_fixed::activation::ActivationLut;
use protea_fixed::Requantizer;
use protea_model::quantized::{LogitRequant, QuantMatrix};
use protea_model::{EncoderConfig, EncoderWeights, QuantSchedule, QuantizedEncoder};
use protea_platform::FpgaDevice;
use protea_tensor::{
    matmul_i8_i32_packed_parallel, matmul_i8_packed_epilogue, matmul_i8_packed_epilogue_checked,
    Matrix, PackedWeights,
};
use std::time::{Duration, Instant};

/// Table I test #8's per-layer shape (SL 128, d_model 768, 8 heads), two
/// layers deep.
const D: usize = 768;
const HEADS: usize = 8;
const LAYERS: usize = 2;
const SL: usize = 128;

/// The nine engine phases, named as the accelerator's `CycleReport` names
/// them, in execution order.
pub const PHASES: [&str; 9] = [
    "QKV_CE", "QK_CE", "Softmax", "SV_CE", "FFN1_CE", "AddNorm1", "FFN2_CE", "FFN3_CE", "AddNorm2",
];

/// Published Table I latencies (ms) of tests #1–#9 on the Alveo U55C.
const TABLE1_PAPER_MS: [f64; 9] = [279.0, 285.0, 295.0, 186.0, 93.0, 186.0, 95.0, 560.0, 165.0];

/// A programmed, loaded and warmed accelerator plus its input pool.
struct Bench {
    accel: Accelerator,
    inputs: Vec<Matrix<i8>>,
}

impl Bench {
    fn weights(&self) -> &QuantizedEncoder {
        self.accel.weights().expect("set-up loads the weights")
    }
}

/// Build the model, synthesize, program, load, and run one forward so the
/// lazily packed weights exist before anything is timed.
fn setup(seed: u64, scale: Scale) -> Result<Bench, String> {
    let mut rng = SplitMix64::stream(seed, stream::ENCODER, 0);
    let cfg = EncoderConfig::new(D, HEADS, LAYERS, SL);
    let weights = QuantizedEncoder::from_float(
        &EncoderWeights::random(cfg, rng.next_u64()),
        QuantSchedule::paper(),
    );
    let inputs: Vec<Matrix<i8>> = (0..scale.inputs).map(|_| rng.matrix(SL, D)).collect();
    let syn = SynthesisConfig::paper_default();
    let mut accel = Accelerator::try_new(syn, &FpgaDevice::alveo_u55c()).map_err(err)?;
    accel.program(RuntimeConfig::from_model(&cfg, &syn).map_err(err)?).map_err(err)?;
    accel.try_load_weights(weights).map_err(err)?;
    let bench = Bench { accel, inputs };
    forward(&bench.accel, &bench.inputs[0])?;
    Ok(bench)
}

/// One functional forward through `Accelerator::execute`.
fn forward(accel: &Accelerator, x: &Matrix<i8>) -> Result<Matrix<i8>, String> {
    let (outcome, _) = accel.execute(RunPlan::functional(std::slice::from_ref(x)));
    outcome.map_err(err)?.outputs.pop().ok_or_else(|| "functional run returned no output".into())
}

/// Forwards between weight reloads in the timed loop. A forward's time
/// depends on where its packed weights land in memory; reloading (which
/// drops the packed image, repacked on the next forward) lets one run
/// average over many placements instead of drawing one.
const RELOAD_EVERY: usize = 8;

/// Reload the weights and run one untimed forward to repack them.
fn reload(bench: &mut Bench) -> Result<(), String> {
    let image = bench.weights().clone();
    bench.accel.try_load_weights(image).map_err(err)?;
    forward(&bench.accel, &bench.inputs[0]).map(drop)
}

/// The golden model's output for every input.
fn golden(bench: &Bench) -> Vec<Matrix<i8>> {
    bench.inputs.iter().map(|x| bench.weights().forward(x)).collect()
}

/// Closed loop of forwards over the rotating input pool, each checked
/// byte for byte against the golden model.
pub fn end_to_end(run: &mut Run, seed: u64, seconds: Duration, scale: Scale) -> Result<(), String> {
    let mut bench = repeated_setup(run, scale.setups, || setup(seed, scale))?;
    let golden = golden(&bench);
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < seconds
        || (samples.len() < scale.min_ops && start.elapsed() < 6 * seconds)
    {
        if samples.len() % RELOAD_EVERY == RELOAD_EVERY - 1 {
            reload(&mut bench)?;
        }
        let i = samples.len() % bench.inputs.len();
        let (out, s) = timed(|| forward(&bench.accel, &bench.inputs[i]));
        samples.push(s);
        run.check(out.is_ok_and(|o| o == golden[i]));
    }
    let forwards_per_s = samples.len() as f64 / samples.iter().sum::<f64>();
    let (p50, p90) = op_metrics(run, &samples, forwards_per_s);
    run.detail("forward_ms_p50", p50);
    run.detail("forward_ms_p90", p90);
    Ok(())
}

/// Signed Table I latency residuals `100·(sim/paper − 1)`, tests #1–#9.
fn table1_residuals_pct() -> Result<Vec<f64>, String> {
    let syn = SynthesisConfig::paper_default();
    let mut accel = Accelerator::try_new(syn, &FpgaDevice::alveo_u55c()).map_err(err)?;
    let mut out = Vec::with_capacity(TABLE1_PAPER_MS.len());
    for ((_, cfg), paper_ms) in EncoderConfig::table1_tests().into_iter().zip(TABLE1_PAPER_MS) {
        accel.program(RuntimeConfig::from_model(&cfg, &syn).map_err(err)?).map_err(err)?;
        let (outcome, _) = accel.execute(RunPlan::timing(1));
        out.push(100.0 * (outcome.map_err(err)?.report.latency_ms() / paper_ms - 1.0));
    }
    Ok(out)
}

/// How far the cycle model sits from the paper: reported by every
/// workload (it is exact, and cheap next to any of them).
pub fn table1_accuracy(run: &mut Run) -> Result<(), String> {
    let abs: Vec<f64> = table1_residuals_pct()?.iter().map(|r| r.abs()).collect();
    let max = abs.iter().copied().fold(0.0, f64::max);
    run.exact("table1_latency_err_max_pct", "%", max);
    run.exact("table1_latency_err_mean_pct", "%", abs.iter().sum::<f64>() / abs.len() as f64);
    Ok(())
}

/// One layer's projections packed for the fast kernel.
struct PackedLayer {
    wq: PackedWeights,
    wk: PackedWeights,
    wv: PackedWeights,
    wo: PackedWeights,
    w1: PackedWeights,
    w2: PackedWeights,
}

fn pack(weights: &QuantizedEncoder) -> Vec<PackedLayer> {
    weights
        .layers
        .iter()
        .map(|l| PackedLayer {
            wq: PackedWeights::pack(&l.wq.data),
            wk: PackedWeights::pack(&l.wk.data),
            wv: PackedWeights::pack(&l.wv.data),
            wo: PackedWeights::pack(&l.wo.data),
            w1: PackedWeights::pack(&l.w1.data),
            w2: PackedWeights::pack(&l.w2.data),
        })
        .collect()
}

/// `f(head)` for every head, fanned out across threads as the real
/// forward fans out its heads.
fn per_head<T: Send>(heads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut slots: Vec<Option<T>> = (0..heads).map(|_| None).collect();
    let f = &f;
    rayon::scope(|sc| {
        for (head, slot) in slots.iter_mut().enumerate() {
            sc.spawn(move |_| *slot = Some(f(head)));
        }
    });
    slots.into_iter().map(|s| s.expect("every head is computed")).collect()
}

/// The forward rebuilt phase by phase from the public engine calls, with
/// each phase's wall time added to `phase_s` (indexed as [`PHASES`]). Its
/// bytes must equal the real forward's.
fn shadow_forward(
    x: &Matrix<i8>,
    weights: &QuantizedEncoder,
    packed: &[PackedLayer],
    phase_s: &mut [f64; 9],
) -> Matrix<i8> {
    let cfg = weights.config;
    let s = &weights.schedule;
    let softmax = SoftmaxEngine::new(s);
    let act = ActivationLut::new(cfg.activation, s.act_fmt);
    let (sl, dk) = (cfg.seq_len, cfg.d_k());
    let logit_rq = LogitRequant::new(&cfg, s);
    let sv_rq =
        Requantizer::new(s.logit_fmt.frac_bits() + s.act_fmt.frac_bits(), s.act_fmt, s.rounding);
    let mut phase = |i: usize, t: Instant| phase_s[i] += t.elapsed().as_secs_f64();

    let mut h = x.clone();
    for (layer, pl) in weights.layers.iter().zip(packed) {
        let t = Instant::now();
        let q = fused_projection(&h, &pl.wq, &layer.bq, layer.wq.fmt, s);
        let k = fused_projection(&h, &pl.wk, &layer.bk, layer.wk.fmt, s);
        let v = fused_projection(&h, &pl.wv, &layer.bv, layer.wv.fmt, s);
        phase(0, t);
        let t = Instant::now();
        let logits = per_head(cfg.heads, |head| {
            let qi = q.submatrix(0, head * dk, sl, dk);
            let ki = k.submatrix(0, head * dk, sl, dk);
            matmul_i8_packed_epilogue(&qi, &PackedWeights::from_transpose(&ki), |_, a| {
                logit_rq.apply(a)
            })
        });
        phase(1, t);
        let t = Instant::now();
        let probs = per_head(cfg.heads, |head| softmax.compute_head(&logits[head]));
        phase(2, t);
        let t = Instant::now();
        let heads_out = per_head(cfg.heads, |head| {
            let vi = v.submatrix(0, head * dk, sl, dk);
            matmul_i8_packed_epilogue(&probs[head], &PackedWeights::pack(&vi), |_, a| {
                sv_rq.apply(a)
            })
        });
        let mut sv_concat = Matrix::<i8>::zeros(sl, cfg.d_model);
        for (head, svi) in heads_out.iter().enumerate() {
            sv_concat.write_submatrix(0, head * dk, svi);
        }
        phase(3, t);
        let t = Instant::now();
        let attn = fused_projection(&sv_concat, &pl.wo, &layer.bo, layer.wo.fmt, s);
        phase(4, t);
        let t = Instant::now();
        let x1 = LnEngine::compute(&h, &attn, &layer.ln1, s);
        phase(5, t);
        let t = Instant::now();
        let hidden = fused_projection_act(&x1, &pl.w1, &layer.b1, layer.w1.fmt, s, &act);
        phase(6, t);
        let t = Instant::now();
        let ffn_out = fused_projection(&hidden, &pl.w2, &layer.b2, layer.w2.fmt, s);
        phase(7, t);
        let t = Instant::now();
        h = LnEngine::compute(&x1, &ffn_out, &layer.ln2, s);
        phase(8, t);
    }
    h
}

/// Multiply-accumulates of one forward: the six projections plus the
/// two attention products (`Q·Kᵀ`, `P·V`) over all heads.
fn forward_macs(cfg: &EncoderConfig) -> f64 {
    let (sl, d, f) = (cfg.seq_len as f64, cfg.d_model as f64, cfg.d_ffn() as f64);
    cfg.layers as f64 * (4.0 * sl * d * d + 2.0 * sl * d * f + 2.0 * sl * sl * d)
}

/// Bare and fused GEMM timings at one shape; returns the bare seconds.
fn gemm(
    run: &mut Run,
    shape: &str,
    a: &Matrix<i8>,
    w: &QuantMatrix,
    bias: &[i32],
    s: &QuantSchedule,
    reps: usize,
) -> f64 {
    let pw = PackedWeights::pack(&w.data);
    let bare = time_median(reps, || matmul_i8_i32_packed_parallel(a, &pw));
    let fused = time_median(reps, || fused_projection(a, &pw, bias, w.fmt, s));
    run.host(format!("tensor.gemm.{shape}.bare_ms"), "ms", 1e3 * bare);
    run.host(format!("tensor.gemm.{shape}.fused_ms"), "ms", 1e3 * fused);
    run.host(format!("tensor.gemm.{shape}.fused_over_bare"), "ratio", fused / bare);
    bare
}

/// The ABFT-checked fused GEMM, which must equal the fused one, timed
/// against the bare GEMM's `bare_s`.
fn checked_gemm(
    run: &mut Run,
    a: &Matrix<i8>,
    w: &QuantMatrix,
    bias: &[i32],
    s: &QuantSchedule,
    reps: usize,
    bare_s: f64,
) {
    let pw = PackedWeights::pack(&w.data);
    let rq = projection_requantizer(w.fmt, s);
    let epilogue = |j: usize, acc: i32| rq.apply(acc.saturating_add(bias[j]));
    let want = fused_projection(a, &pw, bias, w.fmt, s);
    let got = matmul_i8_packed_epilogue_checked(a, &pw, epilogue);
    run.check(got.is_ok_and(|m| m == want));
    let t = time_median(reps, || matmul_i8_packed_epilogue_checked(a, &pw, epilogue));
    run.host("tensor.gemm.128x768x768.checked_over_bare", "ratio", t / bare_s);
}

/// The encoder layers: per-phase host time of a shadow forward against
/// the real one, packed GEMM kernels at the forward's three shapes, the
/// cycle report's per-phase cycles, and the Table I residuals.
pub fn layers(run: &mut Run, seed: u64, scale: Scale) -> Result<(), String> {
    let bench = setup(seed, scale)?;
    let weights = bench.weights();
    let s = &weights.schedule;
    let x = &bench.inputs[0];

    run.host("tensor.pack_ms", "ms", 1e3 * time_median(scale.reps, || pack(weights)));
    let packed = pack(weights);

    let want = weights.forward(x);
    let mut real = Vec::new();
    let mut phases: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
    for _ in 0..scale.reps {
        let (out, secs) = timed(|| forward(&bench.accel, x));
        real.push(secs);
        run.check(out.is_ok_and(|o| o == want));
        let mut phase_s = [0.0; 9];
        let shadow = shadow_forward(x, weights, &packed, &mut phase_s);
        run.check(shadow == want);
        for (samples, secs) in phases.iter_mut().zip(phase_s) {
            samples.push(secs);
        }
    }
    let forward_s = median(&real);
    let mut attributed_s = 0.0;
    for (name, samples) in PHASES.iter().zip(&phases) {
        let secs = median(samples);
        attributed_s += secs;
        run.host(format!("core.phase.{name}.host_ms"), "ms", 1e3 * secs);
    }
    run.host("core.forward.unattributed_ms", "ms", 1e3 * (forward_s - attributed_s));
    run.host("core.forward.gmac_per_s", "GMAC/s", forward_macs(&weights.config) / forward_s / 1e9);

    let mut rng = SplitMix64::stream(seed, stream::OPERANDS, 0);
    let l0 = &weights.layers[0];
    let hidden = rng.matrix(SL, weights.config.d_ffn());
    let bare_s = gemm(run, "128x768x768", x, &l0.wq, &l0.bq, s, scale.reps);
    checked_gemm(run, x, &l0.wq, &l0.bq, s, scale.reps, bare_s);
    gemm(run, "128x768x3072", x, &l0.w1, &l0.b1, s, scale.reps);
    gemm(run, "128x3072x768", &hidden, &l0.w2, &l0.b2, s, scale.reps);

    let (outcome, _) = bench.accel.execute(RunPlan::timing(1));
    let report = outcome.map_err(err)?.report;
    let names: Vec<&str> = report.phases.iter().map(|p| p.name).collect();
    run.check(names == PHASES);
    for p in &report.phases {
        run.exact(format!("core.phase.{}.sim_cycles", p.name), "cycles", p.cycles.get() as f64);
    }
    for p in &report.phases {
        let stall = p.load_stall.get() as f64;
        run.exact(format!("core.phase.{}.sim_stall_cycles", p.name), "cycles", stall);
    }
    for (i, r) in table1_residuals_pct()?.iter().enumerate() {
        run.exact(format!("core.table1.test{}.err_pct", i + 1), "%", r.abs());
    }
    Ok(())
}
