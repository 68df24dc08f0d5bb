//! Streaming serving soak: millions of requests through an 8-card fleet
//! in O(1) memory.
//!
//! The eager path materializes the whole workload (a 10M-request trace
//! is ~0.7 GB of `ServeRequest`s) and keeps every `ServeResponse` for
//! exact percentiles (another ~0.6 GB). The streaming path generates
//! arrivals lazily from a [`PoissonSource`] and folds completions into
//! the O(1) [`MetricsMode::Sketch`] log-histogram, so the resident set
//! stays flat no matter how long the run is. This bin *asserts* that:
//! it pushes `--requests` (default 10M) requests through 8 cards and
//! fails (exit 1) if the process's peak RSS (`VmHWM`) exceeds
//! `--max-rss-mb` (default 256 MB — far below what the eager run would
//! need).
//!
//! ```text
//! soak [--requests 10000000] [--cards 8] [--arrival-rate 2500]
//!      [--max-rss-mb 256] [--seed 42] [--out <path.json>]
//!      [--baseline <path.json>]
//! ```
//!
//! `--baseline` names an earlier result of the same `--requests`,
//! `--cards`, `--arrival-rate` and `--seed` (CI passes the committed
//! `BENCH_soak.json`) and fails the run when its simulated requests per
//! wall second fall below a quarter of the baseline's
//! `requests / wall_s`: the simulator-speed gate. The one regression it
//! exists for cost 14×; the factor 4 leaves room for a slower runner.
//! The baseline is read before the run, so it may be the `--out` file
//! itself.
//!
//! The JSON result is written only when `--out` names a file, so a
//! quick check run from the repository root leaves the committed
//! `BENCH_soak.json` untouched. It is recorded with `--requests 1000000
//! --out BENCH_soak.json` alone: a new baseline's `wall_s` is read in
//! review, not passed by the gate it replaces.
//!
//! Every run is deterministic: the final fleet state hash is printed and
//! lands in the JSON result, so two soaks of the same parameters must
//! print bit-identical lines.

use protea_serve::{BatchPolicy, Fleet, FleetConfig, MetricsMode, PoissonSource, ServePlan};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

/// Peak resident set size in kilobytes, from Linux's `/proc`. `None`
/// where the file does not exist (non-Linux), which downgrades the RSS
/// ceiling to a warning.
fn max_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Every flag the bin reads: a typo'd `--baseline` must not switch the
/// speed gate off unnoticed.
const FLAGS: [&str; 7] =
    ["requests", "cards", "arrival-rate", "max-rss-mb", "seed", "out", "baseline"];

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
        if !FLAGS.contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        let val = args.get(i + 1).ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), val.clone());
        i += 2;
    }
    Ok(map)
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: '{v}'")),
    }
}

/// The value text after `"key":` in a flat JSON object.
fn json_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = &json[json.find(&tag)? + tag.len()..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Slowest accepted simulated req/s, as a fraction of the baseline's.
const BASELINE_FLOOR: f64 = 0.25;

/// Simulated requests per wall second of the result at `path`, which
/// must have run this run's workload, given as its JSON fields and values
/// with `requests` first: set-up is amortized over the run, and the
/// cards, arrival rate and seed set the work per request, so rates of
/// other workloads do not compare.
fn baseline_rate(path: &str, workload: &[(&str, String)]) -> Result<f64, String> {
    let json =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline '{path}': {e}"))?;
    for (key, value) in workload {
        let ran = json_field(&json, key).unwrap_or("nothing");
        if ran != value {
            return Err(format!("baseline '{path}' ran {key} {ran}, this run {value}"));
        }
    }
    let number = |key| json_field(&json, key)?.parse::<f64>().ok().filter(|v| *v > 0.0);
    match (number("requests"), number("wall_s")) {
        (Some(requests), Some(wall_s)) => Ok(requests / wall_s),
        _ => Err(format!("baseline '{path}' has no positive \"requests\" and \"wall_s\"")),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&args)?;
    let requests = flag(&flags, "requests", 10_000_000usize)?;
    let cards = flag(&flags, "cards", 8usize)?;
    let rate = flag(&flags, "arrival-rate", 2_500.0f64)?;
    let max_rss_mb = flag(&flags, "max-rss-mb", 256u64)?;
    let seed = flag(&flags, "seed", 42u64)?;
    let out = flags.get("out").cloned();
    let workload = [
        ("requests", requests.to_string()),
        ("cards", cards.to_string()),
        ("arrival_rate", rate.to_string()),
        ("seed", seed.to_string()),
    ];
    let baseline = flags.get("baseline").map(|p| baseline_rate(p, &workload)).transpose()?;

    // Three capacity classes and bucketed sequence lengths keep the
    // scheduler honest. The default arrival rate sits just below the
    // 8-card fleet's ~3.4k inf/s capacity so queues stay bounded: this
    // is a memory soak, not an overload test — an over-capacity rate
    // would legitimately accumulate an unbounded backlog.
    let mut source =
        PoissonSource::new(requests, rate, &[(96, 4, 2), (64, 4, 1), (96, 4, 1)], (8, 32), seed);
    let fleet = Fleet::try_new(FleetConfig {
        cards,
        policy: BatchPolicy { max_batch: 8, ..BatchPolicy::default() },
        ..FleetConfig::default()
    })
    .map_err(|e| e.to_string())?;

    println!(
        "soak: {requests} requests at {rate:.0} req/s offered, {cards} card(s), \
         sketch metrics, seed {seed}"
    );
    let t = Instant::now();
    let outcome = fleet
        .run(
            ServePlan::stream(&mut source)
                .metrics(MetricsMode::Sketch)
                // One snapshot at the very end: pins the final state
                // hash without paying capture cost along the way.
                .snapshot_every(requests as u64),
        )
        .map_err(|e| e.to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    let report = outcome.report;
    let hash = outcome.state_hash.ok_or("snapshotting run must produce a state hash")?;

    if report.completed != requests {
        return Err(format!("lost requests: {} completed of {requests}", report.completed));
    }
    println!("{report}");
    let sim_rate = requests as f64 / wall_s;
    println!("soak wall: {wall_s:.1} s ({sim_rate:.0} simulated requests/s of wall time)");
    println!("final state hash: {hash:016x}");

    let rss_kb = max_rss_kb();
    match rss_kb {
        Some(kb) => {
            println!("peak RSS: {:.1} MB (ceiling {max_rss_mb} MB)", kb as f64 / 1024.0);
            if kb > max_rss_mb * 1024 {
                return Err(format!(
                    "peak RSS {:.1} MB exceeds the {max_rss_mb} MB ceiling — \
                     the streaming path is buffering something it should not",
                    kb as f64 / 1024.0
                ));
            }
        }
        None => println!("peak RSS: unavailable (no /proc/self/status); ceiling not enforced"),
    }

    if let Some(base) = baseline {
        let floor = BASELINE_FLOOR * base;
        println!("simulator speed: {sim_rate:.0} req/s, baseline {base:.0}, floor {floor:.0}");
        if sim_rate < floor {
            return Err(format!(
                "simulated {sim_rate:.0} req/s of wall time is below {BASELINE_FLOOR} of the \
                 baseline's {base:.0} — the simulator got slower"
            ));
        }
    }

    if let Some(out) = out {
        let json = format!(
            "{{\n  \"requests\": {requests},\n  \"cards\": {cards},\n  \"arrival_rate\": {rate},\n  \
             \"seed\": {seed},\n  \"completed\": {},\n  \"throughput_rps\": {},\n  \
             \"latency_p50_ms\": {},\n  \"latency_p99_ms\": {},\n  \"wall_s\": {wall_s},\n  \
             \"peak_rss_kb\": {},\n  \"max_rss_mb\": {max_rss_mb},\n  \"state_hash\": \"{hash:016x}\"\n}}\n",
            report.completed,
            report.throughput_rps,
            report.latency_ms.p50,
            report.latency_ms.p99,
            rss_kb.map_or_else(|| "null".into(), |kb| kb.to_string()),
        );
        std::fs::write(&out, json).map_err(|e| format!("cannot write '{out}': {e}"))?;
        println!("results written to {out}");
    }
    println!("soak check: OK");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("soak: {e}");
            ExitCode::FAILURE
        }
    }
}
