//! What a run reports — metrics, the correctness tally and stamp
//! details — plus the sample statistics and timers every section uses.

use std::fmt::Display;
use std::time::Instant;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured or counted value.
    pub value: f64,
    /// Whether the value is a function of the seed alone (a count, a
    /// simulated time, a cycle count): such values repeat bit for bit,
    /// which the self-test asserts.
    #[cfg_attr(not(test), allow(dead_code))]
    pub exact: bool,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Run {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Of those, operations whose check failed.
    pub failed: u64,
    /// Extra members of the stamp line, already JSON-encoded.
    details: Vec<(String, String)>,
}

impl Run {
    /// Report a host measurement.
    pub fn host(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, value, exact: false });
    }

    /// Report a value the seed alone determines.
    pub fn exact(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, value, exact: true });
    }

    /// Count one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Add a numeric member to the stamp line.
    pub fn detail(&mut self, key: &str, value: impl Display) {
        self.details.push((key.to_string(), value.to_string()));
    }

    /// Add a string member to the stamp line.
    pub fn detail_str(&mut self, key: &str, value: &str) {
        self.details.push((key.to_string(), json_string(value)));
    }

    /// The stamp line: the run's provenance and details.
    pub fn stamp_line(&self, stamp: &[(&str, String)]) -> String {
        let stamp: Vec<String> =
            stamp.iter().map(|(k, v)| format!("{}: {v}", json_string(k))).collect();
        let details: Vec<String> =
            self.details.iter().map(|(k, v)| format!("{}: {v}", json_string(k))).collect();
        format!("{{\"stamp\": {{{}}}, \"detail\": {{{}}}}}", stamp.join(", "), details.join(", "))
    }

    /// The result line. A value JSON cannot hold (NaN, ±∞) is written as
    /// 0 and fails the run, so the line always parses.
    pub fn result_line(&self) -> String {
        let bad = u64::from(self.metrics.iter().any(|m| !m.value.is_finite()));
        let attempted = (self.attempted + bad).max(1);
        let failed = self.failed + bad;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_string(&m.name),
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        )
    }
}

/// A JSON string literal (the benchmark's strings hold no control
/// characters; quotes and backslashes are escaped).
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Render any error as the benchmark's error string.
pub fn err(e: impl Display) -> String {
    e.to_string()
}

/// Nearest-rank percentile (`q` in `0..=1`); NaN for no samples, which
/// fails the run instead of inventing a value.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest-rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The arithmetic mean; NaN for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Run `f` once, returning its result and wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Report the end-to-end operation metrics from each operation's wall
/// seconds and the run's delivered work per wall second; returns the
/// p50 and p90 in ms.
pub fn op_metrics(run: &mut Run, op_s: &[f64], work_per_wall_s: f64) -> (f64, f64) {
    let (p50, p90) = (1e3 * percentile(op_s, 0.5), 1e3 * percentile(op_s, 0.9));
    run.host("op_ms_p50", "ms", p50);
    run.host("op_ms_p90", "ms", p90);
    run.host("work_per_wall_s", "1/s", work_per_wall_s);
    run.detail("samples", op_s.len());
    (p50, p90)
}

/// Run `setup` `times` times (releasing each result before building the
/// next), report the median as `setup_s`, and keep the last result.
pub fn repeated_setup<T>(
    run: &mut Run,
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let (built, s) = timed(&mut setup);
        secs.push(s);
        last = Some(built?);
    }
    run.host("setup_s", "s", median(&secs));
    last.ok_or_else(|| "no set-up ran".into())
}

/// Median wall seconds over `reps` calls of `f` (its result is kept
/// opaque to the optimiser).
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Peak resident set size of this process in MB (`VmHWM` in Linux's
/// `/proc/self/status`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
