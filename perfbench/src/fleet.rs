//! `fleet_soak` and `fleet_generation`: the fleet discrete-event
//! simulator (DES) under the benchmark's own Poisson arrivals, and the
//! fleet layers — weight reload, pricing, snapshots, the DES itself — in
//! the per-layer suite.

use crate::arrivals::{PoissonArrivals, Traffic};
use crate::decode;
use crate::metrics::{err, mean, median, op_metrics, repeated_setup, time_median, timed, Run};
use crate::rng::{stream, SplitMix64};
use crate::{Scale, Workload};
use protea_core::{weight_digest, Accelerator, RunPlan, RuntimeConfig, SynthesisConfig};
use protea_model::{EncoderConfig, EncoderWeights, QuantSchedule, QuantizedEncoder};
use protea_platform::FpgaDevice;
use protea_serve::{
    BatchPolicy, Fleet, FleetConfig, FleetSnapshot, MetricsMode, ServePlan, ServeReport,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The soak's three capacity classes `(d_model, heads, layers)`.
const SOAK_CLASSES: [(usize, usize, usize); 3] = [(96, 4, 2), (64, 4, 1), (96, 4, 1)];

/// Today's soak traffic: three classes, SL 8–32, 2,500 req/s — just below
/// the 8-card fleet's capacity, so queues stay bounded.
const SOAK: Traffic = Traffic {
    rate_per_s: 2_500.0,
    classes: &SOAK_CLASSES,
    seq_len: (8, 32),
    decode_steps: 0,
    token_deadline_ns: None,
    slice: 100,
};

const GEN_CLASS: [(usize, usize, usize); 1] = [(decode::D, decode::HEADS, decode::LAYERS)];

/// Generation sessions of the `decode_stream` decoder shape: prompt 16,
/// 32 decode steps, at a rate the 4-card fleet sustains with a bounded
/// backlog and every token inside its deadline.
const GEN: Traffic = Traffic {
    rate_per_s: 50.0,
    classes: &GEN_CLASS,
    seq_len: (16, 16),
    decode_steps: 32,
    token_deadline_ns: Some(100_000_000),
    slice: 10,
};

fn soak_fleet() -> Result<Fleet, String> {
    Fleet::try_new(FleetConfig {
        cards: 8,
        policy: BatchPolicy { max_batch: 8, ..BatchPolicy::default() },
        ..FleetConfig::default()
    })
    .map_err(err)
}

fn gen_fleet() -> Result<Fleet, String> {
    Fleet::try_new(FleetConfig { cards: 4, ..FleetConfig::default() }).map_err(err)
}

/// How a simulation is run besides its traffic.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Capture a snapshot every this many arrivals (and the final state
    /// hash).
    Snapshots(u64),
    /// No snapshots, no hash.
    Plain,
    /// The fleet's own span recorder armed.
    Traced,
}

/// One fleet run and what the benchmark saw of it.
struct Sim {
    report: ServeReport,
    wall_s: f64,
    slices_s: Vec<f64>,
    state_hash: Option<u64>,
    snapshots: Vec<FleetSnapshot>,
    spans: Vec<String>,
    spans_dropped: u64,
}

fn simulate(
    fleet: &Fleet,
    traffic: Traffic,
    n: usize,
    rng: SplitMix64,
    mode: Mode,
) -> Result<Sim, String> {
    let mut source = PoissonArrivals::new(traffic, n, rng);
    let plan = ServePlan::stream(&mut source).metrics(MetricsMode::Sketch);
    let plan = match mode {
        Mode::Snapshots(every) => plan.snapshot_every(every),
        Mode::Plain => plan,
        Mode::Traced => plan.traced(),
    };
    let (outcome, wall_s) = timed(|| fleet.run(plan));
    let outcome = outcome.map_err(err)?;
    let (spans, spans_dropped) = match &outcome.trace {
        Some(t) => (t.spans().map(|s| s.name.clone()).collect(), t.dropped()),
        None => (Vec::new(), 0),
    };
    Ok(Sim {
        report: outcome.report,
        wall_s,
        slices_s: source.slices_s,
        state_hash: outcome.state_hash,
        snapshots: outcome.snapshots,
        spans,
        spans_dropped,
    })
}

/// Every submitted request counted once across completed, shed, expired
/// and failed, all `n` generated requests submitted, and every requested
/// token emitted or shed.
fn conserved(r: &ServeReport, n: usize) -> bool {
    r.accounted()
        && r.tokens_accounted()
        && r.completed + r.shed.len() + r.expired.len() + r.failed.len() == n
}

/// The arrival stream of the `index`-th simulation of a run.
fn arrivals(seed: u64, index: u64) -> SplitMix64 {
    SplitMix64::stream(seed, stream::ARRIVALS, index)
}

/// Closed loop of fleet runs, each fed fresh arrivals, until `seconds`
/// have passed; then a same-seed rerun of the first must reproduce its
/// state hash.
pub fn end_to_end(
    run: &mut Run,
    workload: Workload,
    seed: u64,
    seconds: Duration,
    scale: Scale,
) -> Result<(), String> {
    let generation = workload == Workload::FleetGeneration;
    let (traffic, n) =
        if generation { (GEN, scale.gen_sessions) } else { (SOAK, scale.soak_requests) };
    let build = if generation { gen_fleet } else { soak_fleet };
    // Soak: a sparse periodic cadence; generation: one capture at the
    // last arrival, for the state hash.
    let mode = Mode::Snapshots(if generation { n as u64 } else { (n as u64 / 4).max(1) });
    // Set-up: build the fleet, then simulate 1% of a run's arrivals, which
    // builds the cards and, lazily, each class's weight image, so that
    // work moved between the fleet's construction and its first events
    // shows in `setup_s` either way.
    let warmup = (n / 100).max(1);
    let fleet = repeated_setup(run, scale.setups, || {
        let fleet = build()?;
        simulate(&fleet, traffic, warmup, arrivals(seed, u64::MAX), Mode::Plain)?;
        Ok(fleet)
    })?;

    let (mut slices, mut wall_s, mut work, mut runs) = (Vec::new(), 0.0, 0u64, 0u64);
    let mut first_hash = None;
    let start = Instant::now();
    while runs == 0 || start.elapsed() < seconds {
        let sim = simulate(&fleet, traffic, n, arrivals(seed, runs), mode)?;
        run.check(conserved(&sim.report, n));
        first_hash = first_hash.or(sim.state_hash);
        wall_s += sim.wall_s;
        slices.extend(sim.slices_s);
        work += if generation { sim.report.tokens_emitted } else { sim.report.completed as u64 };
        runs += 1;
    }
    let again = simulate(&fleet, traffic, n, arrivals(seed, 0), mode)?;
    run.check(again.state_hash.is_some() && again.state_hash == first_hash);

    let rate = work as f64 / wall_s;
    op_metrics(run, &slices, rate);
    run.detail(if generation { "sim_tokens_per_wall_s" } else { "sim_rps_per_wall_s" }, rate);
    run.detail("arrivals_per_op", traffic.slice);
    run.detail("fleet_runs", runs);
    run.detail_str("state_hash", &format!("{:016x}", first_hash.unwrap_or(0)));
    Ok(())
}

/// Host µs per call of one class's reload path and encode pricer.
struct ClassCosts {
    clone_us: f64,
    load_us: f64,
    digest_us: f64,
    encode_us: f64,
}

/// [`ClassCosts`] of each soak class, in [`SOAK_CLASSES`] order.
fn class_costs(seed: u64, scale: Scale) -> Result<Vec<ClassCosts>, String> {
    let mut rng = SplitMix64::stream(seed, stream::CLASSES, 0);
    let syn = SynthesisConfig::paper_default();
    let mut per_class = Vec::new();
    for &(d_model, heads, layers) in &SOAK_CLASSES {
        let cfg = EncoderConfig::new(d_model, heads, layers, 8);
        let weights = QuantizedEncoder::from_float(
            &EncoderWeights::random(cfg, rng.next_u64()),
            QuantSchedule::paper(),
        );
        let mut accel = Accelerator::try_new(syn, &FpgaDevice::alveo_u55c()).map_err(err)?;
        let rt = RuntimeConfig { heads, layers, d_model, seq_len: 16 };
        accel.program(rt).map_err(err)?;
        let clone = time_median(scale.reps, || weights.clone());
        let mut load = Vec::new();
        for _ in 0..scale.reps {
            let image = weights.clone();
            let (loaded, s) = timed(|| accel.try_load_weights(image));
            loaded.map_err(err)?;
            load.push(s);
        }
        let digest = time_median(scale.reps, || weight_digest(&weights));
        // The memo keys the soak misses on: both SL buckets, batch 1–8.
        let mut encode = Vec::new();
        for seq_len in [16, 32] {
            accel.program(RuntimeConfig { seq_len, ..rt }).map_err(err)?;
            for batch in 1..=8 {
                encode.push(time_median(scale.reps, || accel.execute(RunPlan::timing(batch))));
            }
        }
        per_class.push(ClassCosts {
            clone_us: 1e6 * clone,
            load_us: 1e6 * median(&load),
            digest_us: 1e6 * digest,
            encode_us: 1e6 * mean(&encode),
        });
    }
    Ok(per_class)
}

/// Arrivals between snapshots of the cadence that measures a snapshot's
/// host cost: dense enough that the cadence's wall time stands clear of
/// run-to-run noise.
const DENSE_SNAPSHOT_EVERY: u64 = 5;

/// The soak's layers: exact DES counts and simulated statistics, host
/// cost per reload and per pricing call, and the wall-time split between
/// reloads, pricing, snapshots and the event loop itself.
pub fn soak_layers(run: &mut Run, seed: u64, scale: Scale) -> Result<(), String> {
    let fleet = soak_fleet()?;
    let n = scale.soak_requests;
    let soak = |mode| simulate(&fleet, SOAK, n, arrivals(seed, 0), mode);
    let sim = soak(Mode::Snapshots((n as u64 / 4).max(1)))?;
    // A snapshot's host cost: runs with a dense cadence against runs
    // without one, alternated, the medians' difference per capture.
    let (mut dense_s, mut plain_s, mut dense_count) = (Vec::new(), Vec::new(), 0);
    for _ in 0..2 {
        plain_s.push(soak(Mode::Plain)?.wall_s);
        let dense = soak(Mode::Snapshots(DENSE_SNAPSHOT_EVERY))?;
        dense_s.push(dense.wall_s);
        dense_count = dense.snapshots.len();
    }
    let per_snapshot_s = (median(&dense_s) - median(&plain_s)) / dense_count as f64;
    // The report counts reloads but not which class each loaded; the
    // fleet's trace names every reload window `reprogram d<d> h<h> l<l>`.
    let traced = soak(Mode::Traced)?;
    let reloads: Vec<u64> = SOAK_CLASSES
        .iter()
        .map(|&(d, h, l)| {
            let name = format!("reprogram d{d} h{h} l{l}");
            traced.spans.iter().filter(|s| **s == name).count() as u64
        })
        .collect();
    let r = &sim.report;
    run.check(traced.spans_dropped == 0 && reloads.iter().sum::<u64>() == r.reprograms);
    run.check(conserved(r, n));
    run.exact("serve.soak.batches", "count", r.batches as f64);
    run.exact("serve.soak.reprograms", "count", r.reprograms as f64);
    run.exact("serve.soak.memo_hits", "count", r.memo_hits as f64);
    run.exact("serve.soak.memo_misses", "count", r.memo_misses as f64);
    run.exact("serve.soak.mean_batch", "count", r.mean_batch);
    run.exact("serve.soak.sim_latency_p50_ms", "sim_ms", r.latency_ms.p50);
    run.exact("serve.soak.sim_latency_p99_ms", "sim_ms", r.latency_ms.p99);
    run.exact("serve.soak.sim_queue_p99_ms", "sim_ms", r.queue_ms.p99);
    run.exact("serve.soak.sim_throughput_rps", "req/sim_s", r.throughput_rps);

    // Per-call costs weighted by how often each class was reloaded; the
    // encode pricer's by class alone (the memo misses each key once).
    let costs = class_costs(seed, scale)?;
    let per_reload = |f: fn(&ClassCosts) -> f64| {
        let total: f64 = costs.iter().zip(&reloads).map(|(c, &k)| k as f64 * f(c)).sum();
        total / r.reprograms as f64
    };
    let (clone_us, load_us) = (per_reload(|c| c.clone_us), per_reload(|c| c.load_us));
    let encode_us = mean(&costs.iter().map(|c| c.encode_us).collect::<Vec<_>>());
    run.host("core.load_weights_us", "us", load_us);
    run.host("core.weight_digest_us", "us", per_reload(|c| c.digest_us));
    run.host("model.weights_clone_us", "us", clone_us);
    run.host("core.price.encode_us", "us", encode_us);

    let wall = sim.wall_s;
    let reload = r.reprograms as f64 * (clone_us + load_us) * 1e-6 / wall;
    let price = r.memo_misses as f64 * encode_us * 1e-6 / wall;
    let snapshot = sim.snapshots.len() as f64 * per_snapshot_s / wall;
    run.host("serve.soak.reload.host_share", "ratio", reload);
    run.host("serve.soak.price.host_share", "ratio", price);
    run.host("serve.soak.des.host_share", "ratio", 1.0 - reload - price - snapshot);

    let texts: Vec<String> = sim.snapshots.iter().map(ToString::to_string).collect();
    let mut parse_s = Vec::new();
    for (text, snap) in texts.iter().zip(&sim.snapshots) {
        let (parsed, s) = timed(|| FleetSnapshot::parse(text));
        parse_s.push(s);
        run.check(parsed.is_ok_and(|p| p.state_hash() == snap.state_hash()));
    }
    let bytes: Vec<f64> = texts.iter().map(|t| t.len() as f64).collect();
    run.exact("serve.snapshot.count", "count", texts.len() as f64);
    run.exact("serve.snapshot.bytes_mean", "B", mean(&bytes));
    run.host("serve.snapshot.parse_ms", "ms", 1e3 * mean(&parse_s));
    run.host("serve.snapshot.host_share", "ratio", snapshot);
    Ok(())
}

/// Parse the fleet's `"<kind> x<batch> … <tag><len>"` span name into
/// `(len, batch)`, e.g. `decode x4 kv21` → `(21, 4)`.
fn span_shape(name: &str, kind: &str, tag: &str) -> Option<Option<(usize, usize)>> {
    let rest = name.strip_prefix(kind)?.strip_prefix(" x");
    Some(rest.and_then(|rest| {
        let mut words = rest.split_whitespace();
        let batch = words.next()?.parse().ok()?;
        let len = words.find_map(|w| w.strip_prefix(tag))?.parse().ok()?;
        Some((len, batch))
    }))
}

/// Mean host µs per `execute` of `plan(len, batch)` over a
/// `(len, batch) → calls` mix.
fn mix_us(
    accel: &Accelerator,
    mix: &BTreeMap<(usize, usize), u64>,
    reps: usize,
    plan: impl Fn(usize, usize) -> RunPlan<'static>,
) -> f64 {
    let calls: u64 = mix.values().sum();
    let total: f64 = mix
        .iter()
        .map(|(&(len, batch), &n)| n as f64 * time_median(reps, || accel.execute(plan(len, batch))))
        .sum();
    1e6 * total / calls as f64
}

/// The generation fleet's layers: exact DES counts and simulated
/// statistics, host cost per decode and prefill pricing call over the
/// exact `(kv_len, batch)` mix the run visited, and the wall-time split
/// between pricing and the event loop.
pub fn gen_layers(run: &mut Run, seed: u64, scale: Scale) -> Result<(), String> {
    let fleet = gen_fleet()?;
    let n = scale.gen_sessions;
    let plain = simulate(&fleet, GEN, n, arrivals(seed, 0), Mode::Plain)?;
    let traced = simulate(&fleet, GEN, n, arrivals(seed, 0), Mode::Traced)?;
    let r = &plain.report;
    run.check(conserved(r, n));
    run.check(traced.report == plain.report && traced.spans_dropped == 0);

    // The report does not count pricing calls; the fleet's own trace
    // names every decode window `decode x<batch> kv<kv_len>` and every
    // batch prefill `prefill x<batch> d<d> sl<prompt>`.
    let (mut decode_mix, mut prefill_mix) = (BTreeMap::new(), BTreeMap::new());
    let mut parsed = true;
    for name in &traced.spans {
        for (kind, tag, mix) in
            [("decode", "kv", &mut decode_mix), ("prefill", "sl", &mut prefill_mix)]
        {
            match span_shape(name, kind, tag) {
                Some(Some(shape)) => *mix.entry(shape).or_insert(0u64) += 1,
                Some(None) => parsed = false,
                None => {}
            }
        }
    }
    run.check(parsed && !decode_mix.is_empty() && !prefill_mix.is_empty());
    // Sessions that joined a running batch prefill inside a decode
    // window, which the trace does not name: counted as one pricing call
    // each (an upper bound — joiners admitted together share one call).
    let batch_admitted: u64 = prefill_mix.iter().map(|(&(_, b), &n)| b as u64 * n).sum();
    let joiners = (r.completed as u64).saturating_sub(batch_admitted);
    let decode_calls: u64 = decode_mix.values().sum();
    let prefill_calls = prefill_mix.values().sum::<u64>() + joiners;

    run.exact("serve.gen.batches", "count", r.batches as f64);
    run.exact("serve.gen.reprograms", "count", r.reprograms as f64);
    run.exact("serve.gen.tokens_emitted", "count", r.tokens_emitted as f64);
    run.exact("serve.gen.price_calls_decode", "count", decode_calls as f64);
    run.exact("serve.gen.price_calls_prefill", "count", prefill_calls as f64);
    run.exact("serve.gen.sim_tokens_per_s", "tok/sim_s", r.tokens_per_s);
    run.exact("serve.gen.sim_decode_ms_per_token", "sim_ms", r.decode_ms_per_token);
    run.exact("serve.gen.sim_prefill_ms_mean", "sim_ms", r.prefill_ms_mean);
    run.exact("serve.gen.sim_token_slo", "ratio", r.token_slo_attainment());

    // A card as the fleet programs it for this class's batches.
    let (d_model, heads, layers) = GEN_CLASS[0];
    let mut accel =
        Accelerator::try_new(SynthesisConfig::paper_default(), &FpgaDevice::alveo_u55c())
            .map_err(err)?;
    let prompt = BatchPolicy::default().bucket_for(GEN.seq_len.1).ok_or("prompt fits no bucket")?;
    accel.program(RuntimeConfig { heads, layers, d_model, seq_len: prompt }).map_err(err)?;
    let reps = (scale.reps / 5).max(1);
    let decode_us = mix_us(&accel, &decode_mix, reps, |kv, batch| RunPlan::decode(0, kv, batch));
    let prefill_us = mix_us(&accel, &prefill_mix, reps, RunPlan::prefill);
    run.host("core.price.decode_us", "us", decode_us);
    run.host("core.price.prefill_us", "us", prefill_us);
    let price =
        (decode_calls as f64 * decode_us + prefill_calls as f64 * prefill_us) * 1e-6 / plain.wall_s;
    run.host("serve.gen.price.host_share", "ratio", price);
    run.host("serve.gen.des.host_share", "ratio", 1.0 - price);
    Ok(())
}
