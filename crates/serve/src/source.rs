//! Streaming workload sources: requests on demand, O(1) memory.
//!
//! The fleet *pulls* one request at a time from a [`WorkloadSource`], so
//! a 10M-request soak holds exactly one pending arrival in memory
//! instead of a fully materialized [`Workload`].
//!
//! A source is also a *resumable cursor*: [`WorkloadSource::state`]
//! captures its position as a few plain words and
//! [`WorkloadSource::restore`] seeks back, which is what lets a fleet
//! snapshot record "where the workload was" without recording the
//! workload itself.
//!
//! Implementations:
//!
//! * [`PoissonSource`] — the one Poisson arrival generator (an eager
//!   [`Workload::poisson`] is this source drained into a `Vec`),
//!   resumable from `(emitted, rng state, clock)`;
//! * `WorkloadStream` — borrows an eager workload as a source; it is
//!   the adapter behind [`ServePlan::workload`](crate::ServePlan::workload).
//!
//! Callers with their own request stream implement the trait and serve
//! it through [`ServePlan::stream`](crate::ServePlan::stream).

use crate::error::ServeError;
use crate::request::ServeRequest;
use crate::trace::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A resumable cursor position, as opaque words. The layout is owned by
/// the source that produced it; fleet snapshots store the words
/// verbatim and hand them back on resume.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SourceState {
    /// Source-defined words (e.g. requests emitted, RNG state, clock).
    pub words: Vec<u64>,
}

/// A pull-based request stream with checkpointable position.
///
/// The contract mirrors an iterator, with three additions the fleet
/// needs: errors are first-class (a corrupt trace line surfaces as
/// `Err`, not a panic mid-simulation), deadline presence is knowable
/// up front (it selects the managed scheduling path before the first
/// arrival), and the cursor can be captured/restored for
/// snapshot/replay.
///
/// Requests must be yielded in non-decreasing `arrival_ns` order — the
/// fleet schedules lazily and cannot travel back in time.
pub trait WorkloadSource {
    /// A short tag identifying the source family (recorded in
    /// snapshots; resuming with a different kind of source is an
    /// error).
    fn kind(&self) -> &'static str;

    /// The next request, `Ok(None)` when exhausted.
    ///
    /// # Errors
    /// Source-defined; e.g. a malformed trace line.
    fn next_request(&mut self) -> Result<Option<ServeRequest>, ServeError>;

    /// Whether any request this source will ever yield carries a
    /// deadline. Decided before the run starts — it selects the
    /// managed scheduling path, which cannot change mid-simulation.
    fn has_deadlines(&self) -> bool;

    /// Whether any request this source will ever yield asks for
    /// autoregressive decode steps. Like deadline presence, decided
    /// before the run starts: generation always rides the managed
    /// event-driven path (token emission is scheduled as fleet events).
    /// Defaults to `false`, so every pre-generation source is unchanged.
    fn has_decode(&self) -> bool {
        false
    }

    /// Capture the cursor.
    fn state(&self) -> SourceState;

    /// Seek back to a captured cursor.
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] when the state does not fit this
    /// source (wrong word count, position beyond the end, …).
    fn restore(&mut self, state: &SourceState) -> Result<(), ServeError>;
}

fn state_err(msg: impl Into<String>) -> ServeError {
    ServeError::Snapshot { msg: msg.into() }
}

/// Expect exactly `n` state words.
fn words<const N: usize>(state: &SourceState, kind: &str) -> Result<[u64; N], ServeError> {
    <[u64; N]>::try_from(state.words.as_slice()).map_err(|_| {
        state_err(format!("{kind} source state wants {N} words, got {}", state.words.len()))
    })
}

// ---------------------------------------------------------------------
// Poisson generation
// ---------------------------------------------------------------------

/// Poisson arrivals, generated lazily: `n` requests at `rate_per_s`
/// mean arrival rate, shapes drawn uniformly from `classes` (each a
/// `(d_model, heads, layers)` triple) with sequence lengths uniform in
/// `seq_range`. Deterministic in the seed; [`Workload::poisson`] is this
/// source drained into a `Vec`. Resume state is three words — requests
/// emitted, RNG position, arrival clock — so a 10M-request soak can
/// checkpoint in constant space.
#[derive(Debug, Clone)]
pub struct PoissonSource {
    n: u64,
    emitted: u64,
    rate: f64,
    classes: Vec<(usize, usize, usize)>,
    lo: usize,
    hi: usize,
    rng: StdRng,
    t_ns: u64,
    deadline_rel_ns: Option<u64>,
    tenants: u32,
    decode_steps: u32,
    token_deadline_rel_ns: Option<u64>,
}

impl PoissonSource {
    /// A source of `n` requests. Fallback rules: a non-positive (or
    /// NaN) rate becomes 1/s, an empty class list becomes
    /// `[(96, 4, 2)]`, and the sequence range is clamped to `1..`.
    #[must_use]
    pub fn new(
        n: usize,
        rate_per_s: f64,
        classes: &[(usize, usize, usize)],
        seq_range: (usize, usize),
        seed: u64,
    ) -> Self {
        let rate = if rate_per_s > 0.0 { rate_per_s } else { 1.0 };
        let classes: Vec<(usize, usize, usize)> =
            if classes.is_empty() { vec![(96, 4, 2)] } else { classes.to_vec() };
        let lo = seq_range.0.max(1);
        let hi = seq_range.1.max(lo);
        Self {
            n: n as u64,
            emitted: 0,
            rate,
            classes,
            lo,
            hi,
            rng: StdRng::seed_from_u64(seed),
            t_ns: 0,
            deadline_rel_ns: None,
            tenants: 0,
            decode_steps: 0,
            token_deadline_rel_ns: None,
        }
    }

    /// Stamp every generated request with a deadline `rel_ns` after its
    /// arrival (the streaming analogue of [`Workload::with_deadline`]).
    #[must_use]
    pub fn with_deadline(mut self, rel_ns: u64) -> Self {
        self.deadline_rel_ns = Some(rel_ns);
        self
    }

    /// Assign tenant ids round-robin across `tenants` tenants (the
    /// streaming analogue of [`Workload::with_tenants`]; `0` leaves the
    /// stream single-tenant).
    #[must_use]
    pub fn with_tenants(mut self, tenants: u32) -> Self {
        self.tenants = tenants;
        self
    }

    /// Turn every generated request into a generation request emitting
    /// `steps` tokens with an optional per-token deadline (the streaming
    /// analogue of [`Workload::with_decode`]; `0` leaves the stream
    /// one-shot).
    #[must_use]
    pub fn with_decode(mut self, steps: u32, token_deadline_ns: Option<u64>) -> Self {
        self.decode_steps = steps;
        self.token_deadline_rel_ns = if steps == 0 { None } else { token_deadline_ns };
        self
    }

    /// Requests this source will yield in total.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.n
    }

    /// The next request, `None` when exhausted. Generation cannot fail,
    /// so the eager [`Workload::poisson`] drains this directly.
    pub(crate) fn draw(&mut self) -> Option<ServeRequest> {
        if self.emitted >= self.n {
            return None;
        }
        // Exponential interarrival via inverse transform, then the
        // shape class, then the sequence length: this draw order is the
        // sequence every seeded workload and pinned state hash rests on.
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let gap_s = -u.ln() / self.rate;
        self.t_ns = self.t_ns.saturating_add((gap_s * 1e9) as u64);
        let (d_model, heads, layers) = self.classes[self.rng.gen_range(0..self.classes.len())];
        let seq_len = self.rng.gen_range(self.lo..=self.hi);
        let id = self.emitted;
        self.emitted += 1;
        Some(ServeRequest {
            id,
            arrival_ns: self.t_ns,
            d_model,
            heads,
            layers,
            seq_len,
            deadline_ns: self.deadline_rel_ns.map(|rel| self.t_ns.saturating_add(rel)),
            tenant: if self.tenants == 0 { 0 } else { (id % u64::from(self.tenants)) as u32 },
            decode_steps: self.decode_steps,
            token_deadline_ns: self.token_deadline_rel_ns,
            ..ServeRequest::default()
        })
    }
}

impl WorkloadSource for PoissonSource {
    fn kind(&self) -> &'static str {
        "poisson"
    }

    fn next_request(&mut self) -> Result<Option<ServeRequest>, ServeError> {
        Ok(self.draw())
    }

    fn has_deadlines(&self) -> bool {
        self.deadline_rel_ns.is_some()
    }

    fn has_decode(&self) -> bool {
        self.decode_steps > 0
    }

    fn state(&self) -> SourceState {
        SourceState { words: vec![self.emitted, self.rng.state(), self.t_ns] }
    }

    fn restore(&mut self, state: &SourceState) -> Result<(), ServeError> {
        let [emitted, rng_state, t_ns] = words::<3>(state, "poisson")?;
        if emitted > self.n {
            return Err(state_err(format!("poisson cursor {emitted} beyond total {}", self.n)));
        }
        self.emitted = emitted;
        self.rng = StdRng::seed_from_u64(rng_state);
        self.t_ns = t_ns;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Eager workloads as sources
// ---------------------------------------------------------------------

/// Borrows an eager [`Workload`] as a [`WorkloadSource`] — zero copies,
/// cursor is just an index. This is the adapter behind
/// [`ServePlan::workload`](crate::ServePlan::workload); its kind and
/// one-word cursor are recorded in every snapshot it serves.
#[derive(Debug, Clone)]
pub(crate) struct WorkloadStream<'a> {
    requests: &'a [ServeRequest],
    pos: usize,
    deadlines: bool,
    decode: bool,
}

impl<'a> WorkloadStream<'a> {
    /// Wrap `workload` (which must already be sorted by arrival, as
    /// [`Workload`] guarantees).
    #[must_use]
    pub(crate) fn new(workload: &'a Workload) -> Self {
        Self {
            requests: &workload.requests,
            pos: 0,
            deadlines: workload.requests.iter().any(|r| r.deadline_ns.is_some()),
            decode: workload.requests.iter().any(ServeRequest::is_decode),
        }
    }
}

impl WorkloadSource for WorkloadStream<'_> {
    fn kind(&self) -> &'static str {
        "workload-stream"
    }

    fn next_request(&mut self) -> Result<Option<ServeRequest>, ServeError> {
        let r = self.requests.get(self.pos).copied();
        if r.is_some() {
            self.pos += 1;
        }
        Ok(r)
    }

    fn has_deadlines(&self) -> bool {
        self.deadlines
    }

    fn has_decode(&self) -> bool {
        self.decode
    }

    fn state(&self) -> SourceState {
        SourceState { words: vec![self.pos as u64] }
    }

    fn restore(&mut self, state: &SourceState) -> Result<(), ServeError> {
        let [pos] = words::<1>(state, "workload-stream")?;
        if pos as usize > self.requests.len() {
            return Err(state_err(format!(
                "workload cursor {pos} beyond {} requests",
                self.requests.len()
            )));
        }
        self.pos = pos as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(src: &mut dyn WorkloadSource) -> Vec<ServeRequest> {
        std::iter::from_fn(|| src.next_request().unwrap()).collect()
    }

    #[test]
    fn poisson_source_applies_its_fallbacks() {
        // A non-positive or NaN rate is 1/s, no classes is (96, 4, 2),
        // and a sequence range below 1 is clamped to 1..=1.
        let explicit = drain(&mut PoissonSource::new(40, 1.0, &[(96, 4, 2)], (1, 1), 9));
        for rate in [-3.0, 0.0, f64::NAN] {
            let fallback = drain(&mut PoissonSource::new(40, rate, &[], (0, 0), 9));
            assert_eq!(fallback, explicit, "rate {rate}");
        }
        assert!(explicit
            .iter()
            .all(|r| (r.d_model, r.heads, r.layers, r.seq_len) == (96, 4, 2, 1)));
        // A range whose upper end is below its lower end collapses to the
        // lower end.
        let inverted = drain(&mut PoissonSource::new(20, 1.0, &[(96, 4, 2)], (12, 3), 9));
        assert!(inverted.iter().all(|r| r.seq_len == 12));
    }

    #[test]
    fn poisson_state_round_trips_mid_stream() {
        let mut a = PoissonSource::new(100, 5_000.0, &[(96, 4, 2)], (8, 64), 7);
        for _ in 0..37 {
            a.next_request().unwrap();
        }
        let state = a.state();
        let rest_a = drain(&mut a);
        let mut b = PoissonSource::new(100, 5_000.0, &[(96, 4, 2)], (8, 64), 7);
        b.restore(&state).unwrap();
        assert_eq!(drain(&mut b), rest_a, "restored source continues the exact sequence");
    }

    #[test]
    fn poisson_deadline_mirrors_with_deadline() {
        let eager =
            Workload::poisson(30, 10_000.0, &[(96, 4, 2)], (8, 16), 5).with_deadline(750_000);
        let mut lazy =
            PoissonSource::new(30, 10_000.0, &[(96, 4, 2)], (8, 16), 5).with_deadline(750_000);
        assert!(lazy.has_deadlines());
        assert_eq!(drain(&mut lazy), eager.requests);
    }

    #[test]
    fn workload_stream_yields_all_and_restores() {
        let w = Workload::poisson(25, 5_000.0, &[(96, 4, 2)], (8, 16), 3);
        let mut s = WorkloadStream::new(&w);
        for _ in 0..10 {
            s.next_request().unwrap();
        }
        let state = s.state();
        // Both are recorded in every snapshot, so both are pinned.
        assert_eq!((s.kind(), state.words.as_slice()), ("workload-stream", &[10][..]));
        let rest: Vec<_> = drain(&mut s);
        let mut s2 = WorkloadStream::new(&w);
        s2.restore(&state).unwrap();
        assert_eq!(drain(&mut s2), rest);
        assert_eq!(rest.len(), 15);
    }

    #[test]
    fn poisson_tenants_mirror_the_eager_builder() {
        let eager = Workload::poisson(30, 10_000.0, &[(96, 4, 2)], (8, 16), 5).with_tenants(3);
        let mut lazy = PoissonSource::new(30, 10_000.0, &[(96, 4, 2)], (8, 16), 5).with_tenants(3);
        assert_eq!(drain(&mut lazy), eager.requests);
    }

    #[test]
    fn poisson_decode_mirrors_the_eager_builder_and_flips_has_decode() {
        let eager = Workload::poisson(20, 10_000.0, &[(96, 4, 2)], (8, 16), 5)
            .with_decode(6, Some(400_000));
        let mut lazy = PoissonSource::new(20, 10_000.0, &[(96, 4, 2)], (8, 16), 5)
            .with_decode(6, Some(400_000));
        assert!(lazy.has_decode());
        assert_eq!(drain(&mut lazy), eager.requests);
        let plain = PoissonSource::new(5, 10_000.0, &[(96, 4, 2)], (8, 16), 5);
        assert!(!plain.has_decode(), "one-shot sources stay one-shot");
    }
}
