//! `protea-perfbench`: one benchmark for the repository's three
//! performance surfaces — the host int8 encoder datapath, host
//! autoregressive decode, and the fleet discrete-event simulator (DES).
//!
//! ```text
//! protea-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rev <id>]
//! ```
//!
//! `--trace 0` runs the named workload closed-loop for `--seconds` and
//! reports its end-to-end metrics. `--trace 1` runs the per-layer suite:
//! it times calls into each layer's public entry points from outside the
//! program and joins them with the exact counts the program reports. The
//! suite is the same whichever workload is named, so every traced run
//! reports every per-layer metric. The last stdout line is the result
//! object; the line before it stamps the run (revision, kernel ISA,
//! threads, seed) and carries details such as sample counts and fleet
//! state hashes. `README.md` maps each metric to its layer.

mod arrivals;
mod decode;
mod encoder;
mod fleet;
mod metrics;
mod rng;

use metrics::{json_string, peak_rss_mb, Run};
use std::process::ExitCode;
use std::time::Duration;

/// The benchmark's workloads (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EncoderForward,
    DecodeStream,
    FleetSoak,
    FleetGeneration,
}

impl Workload {
    const ALL: [Self; 4] =
        [Self::EncoderForward, Self::DecodeStream, Self::FleetSoak, Self::FleetGeneration];

    fn name(self) -> &'static str {
        match self {
            Self::EncoderForward => "encoder_forward",
            Self::DecodeStream => "decode_stream",
            Self::FleetSoak => "fleet_soak",
            Self::FleetGeneration => "fleet_generation",
        }
    }
}

/// Sizes of everything but the timed loop. `FULL` is what the command
/// runs; `TINY` keeps every shape (so every metric keeps its name) with
/// fewer repetitions, requests and tokens, for the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Fewest timed operations a loop stops at: ten beyond p90.
    pub min_ops: usize,
    /// Encoder inputs and decode sessions in the rotating pool.
    pub inputs: usize,
    /// Tokens generated per decode session.
    pub tokens: usize,
    /// Requests per simulated soak.
    pub soak_requests: usize,
    /// Sessions per simulated generation run.
    pub gen_sessions: usize,
    /// Repetitions of each per-layer host timing.
    pub reps: usize,
    /// Decode sessions the per-layer suite times step by step.
    pub sessions: usize,
}

impl Scale {
    const FULL: Self = Self {
        setups: 3,
        min_ops: 100,
        inputs: 2,
        tokens: 64,
        soak_requests: 20_000,
        gen_sessions: 2_000,
        reps: 15,
        sessions: 3,
    };
}

/// One workload's end-to-end metrics. Every workload also reports the
/// cycle model's Table I accuracy (exact, and cheap next to any
/// workload) and its own peak RSS.
fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: Duration,
    scale: Scale,
) -> Result<Run, String> {
    let mut run = Run::default();
    match workload {
        Workload::EncoderForward => encoder::end_to_end(&mut run, seed, seconds, scale)?,
        Workload::DecodeStream => decode::end_to_end(&mut run, seed, seconds, scale)?,
        Workload::FleetSoak | Workload::FleetGeneration => {
            fleet::end_to_end(&mut run, workload, seed, seconds, scale)?;
        }
    }
    encoder::table1_accuracy(&mut run)?;
    run.host("peak_rss_mb", "MB", peak_rss_mb()?);
    Ok(run)
}

/// The per-layer suite: every layer of every surface.
fn layers(seed: u64, scale: Scale) -> Result<Run, String> {
    let mut run = Run::default();
    encoder::layers(&mut run, seed, scale)?;
    decode::layers(&mut run, seed, scale)?;
    fleet::soak_layers(&mut run, seed, scale)?;
    fleet::gen_layers(&mut run, seed, scale)?;
    Ok(run)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    rev: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut rev = "unknown".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::ALL.into_iter().find(|w| w.name() == value).ok_or_else(bad)?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--rev" => rev.clone_from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        rev,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("protea-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        layers(args.seed, Scale::FULL)
    } else {
        end_to_end(args.workload, args.seed, args.seconds, Scale::FULL)
    };
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("protea-perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let stamp = [
        ("rev", json_string(&args.rev)),
        ("kernel_isa", json_string(&format!("{:?}", protea_tensor::active_kernel()))),
        ("threads", rayon::current_num_threads().to_string()),
        ("seed", args.seed.to_string()),
        ("workload", json_string(args.workload.name())),
        ("trace", u8::from(args.trace).to_string()),
        ("seconds", args.seconds.as_secs_f64().to_string()),
    ];
    println!("{}", run.stamp_line(&stamp));
    println!("{}", run.result_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every shape of `FULL`, with a handful of everything.
    const TINY: Scale = Scale {
        setups: 1,
        min_ops: 4,
        inputs: 1,
        tokens: 8,
        soak_requests: 1_000,
        gen_sessions: 40,
        reps: 2,
        sessions: 1,
    };

    /// The metric names a `BENCHMARK.json` section declares, sorted.
    fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{section}\"")).expect("section is declared");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let mut names: Vec<String> = body
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closed")].to_string())
            .collect();
        names.sort();
        names
    }

    fn assert_well_formed(run: &Run, section: &str) {
        let mut names: Vec<String> = run.metrics.iter().map(|m| m.name.clone()).collect();
        names.sort();
        assert_eq!(names, declared(section), "{section} names");
        for m in &run.metrics {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            assert!(!m.unit.is_empty(), "{} has no unit", m.name);
        }
        assert!(run.attempted > 0);
        assert_eq!(run.failed, 0, "{} of {} checks failed", run.failed, run.attempted);
        assert!(run.result_line().contains("\"correct\": true"));
    }

    #[test]
    fn every_workload_reports_every_end_to_end_metric() {
        for w in Workload::ALL {
            let run = end_to_end(w, 7, Duration::from_millis(100), TINY).expect("workload runs");
            assert_well_formed(&run, "end_to_end");
        }
    }

    #[test]
    fn per_layer_suite_reports_every_metric_and_repeats_exact_ones() {
        let a = layers(7, TINY).expect("suite runs");
        let b = layers(7, TINY).expect("suite runs");
        assert_well_formed(&a, "per_layer");
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(x.exact, y.exact);
            if x.exact {
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "{} differs between runs", x.name);
            }
        }
    }
}
