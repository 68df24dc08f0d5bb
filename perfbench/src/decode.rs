//! `decode_stream`: greedy decode sessions one after another through
//! `Accelerator::execute`, and the decode layers — the packed decode
//! step alone, its pricing alone, m=1 kernels, KV traffic — in the
//! per-layer suite.

use crate::metrics::{err, mean, median, op_metrics, repeated_setup, time_median, timed, Run};
use crate::rng::{stream, SplitMix64};
use crate::Scale;
use protea_core::engines::fused_projection;
use protea_core::{Accelerator, DecodeSession, RunPlan, RuntimeConfig, SynthesisConfig};
use protea_mem::kv::{attn_read_bytes, step_write_bytes};
use protea_model::quantized::QuantMatrix;
use protea_model::{
    DecoderKvCache, DecoderWeights, EncoderConfig, PackedDecoder, QuantSchedule, QuantizedDecoder,
};
use protea_platform::FpgaDevice;
use protea_tensor::{Matrix, PackedWeights};
use std::time::{Duration, Instant};

/// The decoder shape: d_model 768, 8 heads, 2 layers, attending over a
/// 64-row encoder memory.
pub const D: usize = 768;
pub const HEADS: usize = 8;
pub const LAYERS: usize = 2;
const MEMORY: usize = 64;

/// A session's starting point: its cache with the cross-attention K/V
/// already projected from its memory, and its first input row.
struct Session {
    cache: DecoderKvCache,
    first: Matrix<i8>,
}

/// The decoder, a card programmed for it, and the session pool. Each
/// session packs the decoder afresh, as one `protea generate` does: the
/// step time of this memory-bound m=1 path depends on where the packed
/// weights land in memory, so a fresh placement per session lets one run
/// average over many instead of drawing one.
struct Bench {
    accel: Accelerator,
    dec: QuantizedDecoder,
    sessions: Vec<Session>,
}

fn setup(seed: u64, scale: Scale) -> Result<Bench, String> {
    let mut rng = SplitMix64::stream(seed, stream::DECODER, 0);
    let cfg = EncoderConfig::new(D, HEADS, LAYERS, 1);
    let dec = QuantizedDecoder::from_float(
        &DecoderWeights::random(cfg, rng.next_u64()),
        QuantSchedule::paper(),
    );
    let mut accel =
        Accelerator::try_new(SynthesisConfig::paper_default(), &FpgaDevice::alveo_u55c())
            .map_err(err)?;
    accel
        .program(RuntimeConfig { heads: HEADS, layers: LAYERS, d_model: D, seq_len: MEMORY })
        .map_err(err)?;
    let sessions = (0..scale.inputs)
        .map(|_| {
            let memory = rng.matrix(MEMORY, D);
            Session { cache: DecoderKvCache::new(&dec, &memory), first: rng.matrix(1, D) }
        })
        .collect();
    Ok(Bench { accel, dec, sessions })
}

/// Greedy feedback: the next position's input is derived from this
/// position's output, as `protea generate` does.
fn next_input(out: &Matrix<i8>) -> Matrix<i8> {
    out.map(|v| v.saturating_add(1))
}

/// Every session's rows from the unpacked reference step on a twin cache.
fn reference(bench: &Bench, tokens: usize) -> Result<Vec<Vec<Matrix<i8>>>, String> {
    bench
        .sessions
        .iter()
        .map(|s| {
            let mut cache = s.cache.clone();
            let mut row = s.first.clone();
            (0..tokens)
                .map(|_| {
                    let out = bench.dec.try_decode_step(&mut cache, &row).map_err(err)?;
                    row = next_input(&out);
                    Ok(out)
                })
                .collect()
        })
        .collect()
}

/// One decode step through the accelerator's execute path, as `protea
/// generate` runs it: the packed functional step plus its pricing.
fn execute_step(
    bench: &Bench,
    packed: &PackedDecoder,
    cache: &mut DecoderKvCache,
    row: &Matrix<i8>,
    pos: usize,
) -> Option<Matrix<i8>> {
    let session = DecodeSession { decoder: &bench.dec, packed: Some(packed), cache, x_row: row };
    let (outcome, _) = bench.accel.execute(RunPlan::decode(pos, pos + 1, 1).with_session(session));
    outcome.ok()?.outputs.pop()
}

pub fn end_to_end(run: &mut Run, seed: u64, seconds: Duration, scale: Scale) -> Result<(), String> {
    let bench = repeated_setup(run, scale.setups, || setup(seed, scale))?;
    let want = reference(&bench, scale.tokens)?;

    let mut samples = Vec::new();
    let start = Instant::now();
    let mut sessions = 0;
    while start.elapsed() < seconds
        || (samples.len() < scale.min_ops && start.elapsed() < 6 * seconds)
    {
        let i = sessions % bench.sessions.len();
        let mut cache = bench.sessions[i].cache.clone();
        let mut row = bench.sessions[i].first.clone();
        let packed = bench.dec.pack();
        for (pos, want) in want[i].iter().enumerate() {
            let (out, s) = timed(|| execute_step(&bench, &packed, &mut cache, &row, pos));
            samples.push(s);
            run.check(out.as_ref() == Some(want));
            row = next_input(out.as_ref().unwrap_or(want));
        }
        sessions += 1;
    }
    let tokens_per_s = samples.len() as f64 / samples.iter().sum::<f64>();
    let (p50, p90) = op_metrics(run, &samples, tokens_per_s);
    run.detail("decode_token_ms_p50", p50);
    run.detail("decode_token_ms_p90", p90);
    run.detail("sessions", sessions);
    Ok(())
}

/// `fused_projection` of one row against `w` (the m=1 decode GEMV).
fn gemv(
    run: &mut Run,
    shape: &str,
    rng: &mut SplitMix64,
    w: &QuantMatrix,
    bias: &[i32],
    scale: Scale,
) {
    let x = rng.matrix(1, w.data.rows());
    let pw = PackedWeights::pack(&w.data);
    let s = QuantSchedule::paper();
    let secs = time_median(scale.reps * 10, || fused_projection(&x, &pw, bias, w.fmt, &s));
    run.host(format!("tensor.gemv.{shape}.fused_ms"), "ms", 1e3 * secs);
}

/// The decode layers: the packed step alone by KV length, its pricing
/// alone, the m=1 kernels, simulated cycles and KV bytes per token.
pub fn layers(run: &mut Run, seed: u64, scale: Scale) -> Result<(), String> {
    let bench = setup(seed, scale)?;
    let tokens = scale.tokens;
    run.host("model.pack_ms", "ms", 1e3 * time_median(scale.reps, || bench.dec.pack()));
    let want = reference(&bench, tokens)?;

    let mut by_pos: Vec<Vec<f64>> = vec![Vec::new(); tokens];
    for k in 0..scale.sessions {
        let i = k % bench.sessions.len();
        let mut cache = bench.sessions[i].cache.clone();
        let mut row = bench.sessions[i].first.clone();
        let packed = bench.dec.pack();
        for (pos, want) in want[i].iter().enumerate() {
            let (out, s) = timed(|| bench.dec.try_decode_step_packed(&packed, &mut cache, &row));
            by_pos[pos].push(s);
            run.check(out.as_ref().is_ok_and(|o| o == want));
            row = next_input(want);
        }
    }
    let quarter = (tokens / 4).max(1);
    let ms = |rows: &[Vec<f64>]| 1e3 * median(&rows.concat());
    run.host("model.decode_step.host_ms", "ms", ms(&by_pos));
    run.host("model.decode_step.host_ms_kv_short", "ms", ms(&by_pos[..quarter]));
    run.host("model.decode_step.host_ms_kv_long", "ms", ms(&by_pos[tokens - quarter..]));

    let price: Vec<f64> = (0..tokens)
        .map(|pos| {
            time_median(scale.reps, || bench.accel.execute(RunPlan::decode(pos, pos + 1, 1)))
        })
        .collect();
    run.host("core.price.decode_b1_us", "us", 1e6 * median(&price));

    let mut rng = SplitMix64::stream(seed, stream::OPERANDS, 1);
    let l0 = &bench.dec.layers[0];
    gemv(run, "1x768x768", &mut rng, &l0.self_wq, &l0.self_bq, scale);
    gemv(run, "1x768x3072", &mut rng, &l0.w1, &l0.b1, scale);
    gemv(run, "1x3072x768", &mut rng, &l0.w2, &l0.b2, scale);

    let mut cycles = Vec::with_capacity(tokens);
    for pos in 0..tokens {
        let (outcome, _) = bench.accel.execute(RunPlan::decode(pos, pos + 1, 1));
        cycles.push(outcome.map_err(err)?.report.total.get() as f64);
    }
    run.exact("core.decode.sim_cycles_per_token", "cycles", mean(&cycles));
    // Per layer a step appends one K and one V row and reads back every
    // cached self-attention row and every cross-attention memory row of
    // both tensors.
    let kv_bytes: Vec<f64> = (0..tokens)
        .map(|pos| {
            let per_layer = step_write_bytes(D)
                + 2 * attn_read_bytes(pos as u64 + 1, D)
                + 2 * attn_read_bytes(MEMORY as u64, D);
            (LAYERS as u64 * per_layer) as f64
        })
        .collect();
    run.exact("mem.kv.bytes_per_token", "B", mean(&kv_bytes));
    Ok(())
}
