//! Benchmark-owned Poisson arrivals, served to the fleet through the
//! public [`WorkloadSource`] trait.
//!
//! The stream is drawn from the benchmark's own [`SplitMix64`] under
//! `--seed`, so no change to the program can change the offered traffic.
//! The source also timestamps the pulls the fleet makes: the fleet pulls
//! the next arrival while handling the current one, so the time between
//! pull *i* and pull *i + k* is the host time the simulator spent
//! advancing over `k` simulated arrivals — a per-operation latency timed
//! from outside the program.

use crate::rng::SplitMix64;
use protea_serve::{ServeError, ServeRequest, SourceState, WorkloadSource};
use std::time::Instant;

/// The traffic a fleet workload offers.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    /// Mean arrival rate, requests per simulated second (open loop).
    pub rate_per_s: f64,
    /// `(d_model, heads, layers)` capacity classes, drawn uniformly.
    pub classes: &'static [(usize, usize, usize)],
    /// Inclusive sequence (prompt) length range, drawn uniformly.
    pub seq_len: (usize, usize),
    /// Tokens each request generates; `0` for one-shot encoder requests.
    pub decode_steps: u32,
    /// Per-token deadline of generation requests, nanoseconds.
    pub token_deadline_ns: Option<u64>,
    /// Arrivals per timed slice: the DES's unit operation.
    pub slice: usize,
}

/// `total` Poisson arrivals of `traffic`, timing every slice of pulls.
#[derive(Debug)]
pub struct PoissonArrivals {
    traffic: Traffic,
    total: u64,
    emitted: u64,
    rng: SplitMix64,
    t_ns: u64,
    slice: u64,
    pulls: u64,
    slice_start: Option<Instant>,
    /// Host seconds of each complete slice of `slice` pulls.
    pub slices_s: Vec<f64>,
}

impl PoissonArrivals {
    /// A fresh stream drawn from `rng`.
    pub fn new(traffic: Traffic, total: usize, rng: SplitMix64) -> Self {
        Self {
            traffic,
            total: total as u64,
            emitted: 0,
            rng,
            t_ns: 0,
            slice: traffic.slice.max(1) as u64,
            pulls: 0,
            slice_start: None,
            slices_s: Vec::new(),
        }
    }
}

impl WorkloadSource for PoissonArrivals {
    fn kind(&self) -> &'static str {
        "perfbench-poisson"
    }

    fn next_request(&mut self) -> Result<Option<ServeRequest>, ServeError> {
        if self.pulls.is_multiple_of(self.slice) {
            let now = Instant::now();
            if let Some(start) = self.slice_start.replace(now) {
                self.slices_s.push((now - start).as_secs_f64());
            }
        }
        self.pulls += 1;
        if self.emitted >= self.total {
            return Ok(None);
        }
        let t = &self.traffic;
        let gap_s = -self.rng.unit().ln() / t.rate_per_s;
        self.t_ns = self.t_ns.saturating_add((gap_s * 1e9) as u64);
        let (d_model, heads, layers) = t.classes[self.rng.below(t.classes.len())];
        let (lo, hi) = t.seq_len;
        let seq_len = lo + self.rng.below(hi - lo + 1);
        let id = self.emitted;
        self.emitted += 1;
        Ok(Some(ServeRequest {
            id,
            arrival_ns: self.t_ns,
            d_model,
            heads,
            layers,
            seq_len,
            decode_steps: t.decode_steps,
            token_deadline_ns: t.token_deadline_ns,
            ..ServeRequest::default()
        }))
    }

    fn has_deadlines(&self) -> bool {
        false
    }

    fn has_decode(&self) -> bool {
        self.traffic.decode_steps > 0
    }

    fn state(&self) -> SourceState {
        SourceState { words: vec![self.emitted, self.rng.state(), self.t_ns] }
    }

    fn restore(&mut self, state: &SourceState) -> Result<(), ServeError> {
        let bad = |msg: String| ServeError::Snapshot { msg };
        let [emitted, rng, t_ns] = <[u64; 3]>::try_from(state.words.as_slice())
            .map_err(|_| bad(format!("wants 3 state words, got {}", state.words.len())))?;
        if emitted > self.total {
            return Err(bad(format!("cursor {emitted} beyond total {}", self.total)));
        }
        self.emitted = emitted;
        self.rng = SplitMix64::from_state(rng);
        self.t_ns = t_ns;
        Ok(())
    }
}
