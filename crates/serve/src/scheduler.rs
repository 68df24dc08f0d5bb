//! Batching: group compatible requests so one card program serves many
//! inferences, amortizing weight loads and reprogramming.
//!
//! Two requests are batchable when their [`CapacityClass`]es match (the
//! register file would be identical apart from `SL`) and their sequence
//! lengths fall in the same bucket; the batch runs at the bucket's upper
//! bound, padding shorter sequences. A batch dispatches when it reaches
//! [`BatchPolicy::max_batch`] or its oldest request has waited
//! [`BatchPolicy::max_wait_ns`].

use crate::error::ServeError;
use crate::request::{CapacityClass, Priority, ServeRequest};
use protea_core::{RuntimeConfig, SynthesisConfig};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Scheduler tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest batch a card accepts (weight-stationary sharing degree).
    pub max_batch: usize,
    /// Longest a request may sit unbatched before a partial batch is
    /// flushed (nanoseconds).
    pub max_wait_ns: u64,
    /// Sequence-length bucket upper bounds, ascending. A request with
    /// `seq_len` ≤ `buckets[i]` (and > `buckets[i-1]`) pads to
    /// `buckets[i]`.
    pub seq_buckets: Vec<usize>,
    /// Hard cap on requests queued per (class, bucket) queue. `None`
    /// keeps the historical unbounded behavior; `Some(n)` makes
    /// admission shed instead of growing without bound (see
    /// [`BatchScheduler::push`]).
    pub max_queue: Option<usize>,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 8,
            max_wait_ns: 2_000_000,
            seq_buckets: vec![16, 32, 64, 128],
            max_queue: None,
        }
    }
}

impl BatchPolicy {
    /// The bucket a sequence length pads to, or `None` if it exceeds the
    /// largest bucket.
    #[must_use]
    pub fn bucket_for(&self, seq_len: usize) -> Option<usize> {
        self.seq_buckets.iter().copied().find(|&b| seq_len <= b)
    }
}

/// The key one pending queue forms under: capacity class + padded SL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct BatchKey {
    class: CapacityClass,
    padded_seq_len: usize,
}

/// A dispatched group of compatible requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// The member requests (at most `max_batch`).
    pub requests: Vec<ServeRequest>,
    /// The register file the card runs the whole batch under.
    pub runtime: RuntimeConfig,
}

impl Batch {
    /// Number of member requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the batch is empty (never true for dispatched batches).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// Groups admitted requests into dispatchable batches.
///
/// Admission ([`push`](Self::push)) validates each request against the
/// fleet's synthesized capacity, so a request that no card could ever
/// serve is rejected up front as a [`ServeError::Unservable`] value
/// instead of failing (or panicking) deep in the dispatch path.
#[derive(Debug, Clone)]
pub struct BatchScheduler {
    policy: BatchPolicy,
    capacity: SynthesisConfig,
    queues: BTreeMap<BatchKey, VecDeque<ServeRequest>>,
    /// Generation requests wait here, keyed like the one-shot queues.
    /// They form their own batches — a session batch holds its card for
    /// many token steps, so mixing it with one-shot work would stall
    /// the latter behind an entire generation — and they are exempt
    /// from priority eviction: an admitted session is never displaced
    /// by a later arrival, only shed whole at admission or on faults.
    session_queues: BTreeMap<BatchKey, VecDeque<ServeRequest>>,
    pending: usize,
}

impl BatchScheduler {
    /// A scheduler for a fleet synthesized at `capacity`.
    #[must_use]
    pub fn new(policy: BatchPolicy, capacity: SynthesisConfig) -> Self {
        Self {
            policy,
            capacity,
            queues: BTreeMap::new(),
            session_queues: BTreeMap::new(),
            pending: 0,
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// Requests currently queued.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Admit a request.
    ///
    /// With [`BatchPolicy::max_queue`] unset this always queues the
    /// request and returns `Ok(None)`. With a cap, a full target queue
    /// sheds by priority: if some queued request has *lower* priority
    /// than the newcomer, the youngest such request is evicted and
    /// returned as `Ok(Some(victim))` (the caller owns recording it as
    /// shed); otherwise the newcomer itself is rejected with
    /// [`ServeError::Overloaded`].
    ///
    /// # Errors
    /// [`ServeError::Unservable`] when the request's padded register
    /// file would be rejected by the synthesized capacity (too-long
    /// sequence, oversized `d_model`, indivisible heads, zero field);
    /// [`ServeError::Overloaded`] when the bucket queue is full and no
    /// lower-priority victim exists.
    pub fn push(&mut self, req: ServeRequest) -> Result<Option<ServeRequest>, ServeError> {
        if req.seq_len == 0 {
            return Err(ServeError::Unservable {
                id: req.id,
                why: "seq_len must be nonzero".into(),
            });
        }
        let padded = self.policy.bucket_for(req.seq_len).ok_or_else(|| ServeError::Unservable {
            id: req.id,
            why: format!(
                "seq_len {} exceeds largest bucket {}",
                req.seq_len,
                self.policy.seq_buckets.last().copied().unwrap_or(0)
            ),
        })?;
        let runtime = req.runtime_at(padded);
        runtime
            .validate(&self.capacity)
            .map_err(|e| ServeError::Unservable { id: req.id, why: e.to_string() })?;
        let key = BatchKey { class: req.class(), padded_seq_len: padded };
        let cap = self.policy.max_queue;
        if req.is_decode() {
            // The KV cache grows one position per emitted token; the
            // decode phase's kv_len register is capped at the
            // synthesized SL_MAX, so a generation that would outgrow it
            // can never be served by any card in this fleet.
            if req.decode_steps as usize > self.capacity.sl_max {
                return Err(ServeError::Unservable {
                    id: req.id,
                    why: format!(
                        "decode_steps {} exceeds synthesized sl_max {} (the KV length register)",
                        req.decode_steps, self.capacity.sl_max
                    ),
                });
            }
            let q = self.session_queues.entry(key).or_default();
            if cap.is_some_and(|cap| q.len() >= cap) {
                // Sessions never evict each other — an admitted
                // generation is a promise of decode_steps tokens, so the
                // newcomer bounces instead.
                let pending = q.len();
                if q.is_empty() {
                    self.session_queues.remove(&key);
                }
                return Err(ServeError::Overloaded {
                    id: req.id,
                    pending,
                    limit: cap.unwrap_or(usize::MAX),
                });
            }
            q.push_back(req);
            self.pending += 1;
            return Ok(None);
        }
        let q = self.queues.entry(key).or_default();
        let mut victim = None;
        if cap.is_some_and(|cap| q.len() >= cap) {
            // Shed the *youngest of the lowest-priority* queued request
            // strictly below the newcomer — it has waited least and
            // matters least — or, failing that, reject the newcomer.
            let evict = q
                .iter()
                .enumerate()
                .filter(|(_, r)| r.priority < req.priority)
                .min_by_key(|(i, r)| (r.priority, std::cmp::Reverse((r.arrival_ns, *i))))
                .map(|(i, _)| i);
            match evict {
                Some(i) => {
                    victim = q.remove(i);
                    self.pending -= 1;
                }
                None => {
                    let pending = q.len();
                    if q.is_empty() {
                        self.queues.remove(&key);
                    }
                    return Err(ServeError::Overloaded {
                        id: req.id,
                        pending,
                        limit: cap.unwrap_or(usize::MAX),
                    });
                }
            }
        }
        self.queues.entry(key).or_default().push_back(req);
        self.pending += 1;
        Ok(victim)
    }

    /// Earliest deadline at which a currently queued partial batch must
    /// flush, if any (session batches flush on the same clock).
    #[must_use]
    pub fn next_flush_deadline_ns(&self) -> Option<u64> {
        self.queues
            .values()
            .chain(self.session_queues.values())
            .filter_map(|q| q.front())
            .map(|r| r.arrival_ns.saturating_add(self.policy.max_wait_ns))
            .min()
    }

    /// Remove and return the queued request that matters least among
    /// those strictly below `than`: the youngest of the lowest priority
    /// class, searched across every bucket. Used by the admission
    /// limiter so that shedding under concurrency pressure is
    /// priority-ordered — an interactive arrival displaces queued
    /// best-effort work instead of being bounced itself. `None` when
    /// nothing queued ranks below `than`.
    pub fn evict_lower_priority(&mut self, than: Priority) -> Option<ServeRequest> {
        let (key, idx) = self
            .queues
            .iter()
            .flat_map(|(k, q)| q.iter().enumerate().map(move |(i, r)| (k, i, r)))
            .filter(|(_, _, r)| r.priority < than)
            .min_by_key(|(k, i, r)| (r.priority, std::cmp::Reverse((r.arrival_ns, **k, *i))))
            .map(|(k, i, _)| (*k, i))?;
        let q = self.queues.get_mut(&key).expect("key exists by construction");
        let victim = q.remove(idx).expect("index exists by construction");
        if q.is_empty() {
            self.queues.remove(&key);
        }
        self.pending -= 1;
        Some(victim)
    }

    /// When the dispatcher should next wake for deadline work: for each
    /// queued deadline'd request, at `deadline - headroom_ns` (to flush
    /// its batch early enough to have a chance of completing in time),
    /// or at the deadline itself when that urgent instant has already
    /// passed (to shed it promptly). `headroom_ns` is the caller's
    /// service-time estimate; `None` (no completions observed yet)
    /// falls back to [`BatchPolicy::max_wait_ns`]. Returns `None` when
    /// no queued request carries a deadline.
    #[must_use]
    pub fn next_deadline_wake_ns(&self, now_ns: u64, headroom_ns: Option<u64>) -> Option<u64> {
        let h = headroom_ns.unwrap_or(self.policy.max_wait_ns);
        self.queues
            .values()
            .chain(self.session_queues.values())
            .flatten()
            .filter_map(|r| r.deadline_ns)
            .map(|d| {
                let urgent = d.saturating_sub(h);
                if urgent > now_ns {
                    urgent
                } else {
                    d
                }
            })
            .min()
    }

    /// Remove and return every queued request whose deadline has passed
    /// at `now_ns`, preserving queue order among survivors. Expired
    /// requests are shed *before* dispatch — a card's time is never
    /// burned on an answer nobody is waiting for.
    pub fn take_expired(&mut self, now_ns: u64) -> Vec<ServeRequest> {
        let mut expired = Vec::new();
        for queues in [&mut self.queues, &mut self.session_queues] {
            queues.retain(|_, q| {
                q.retain(|r| {
                    let dead = r.expired_at(now_ns);
                    if dead {
                        expired.push(*r);
                    }
                    !dead
                });
                !q.is_empty()
            });
        }
        self.pending -= expired.len();
        expired.sort_by_key(|r| (r.arrival_ns, r.id));
        expired
    }

    /// Take the best dispatchable batch at time `now_ns`: a full batch
    /// if one exists (oldest head first among full queues), otherwise a
    /// partial batch whose head has exceeded `max_wait_ns`. Returns
    /// `None` when nothing should dispatch yet.
    pub fn pop_ready(&mut self, now_ns: u64) -> Option<Batch> {
        let full = self
            .queues
            .iter()
            .filter(|(_, q)| q.len() >= self.policy.max_batch)
            .min_by_key(|(k, q)| (q.front().map_or(u64::MAX, |r| r.arrival_ns), **k))
            .map(|(k, _)| *k);
        let key = full.or_else(|| {
            self.queues
                .iter()
                .filter(|(_, q)| {
                    q.front().is_some_and(|r| {
                        now_ns >= r.arrival_ns.saturating_add(self.policy.max_wait_ns)
                    })
                })
                .min_by_key(|(k, q)| (q.front().map_or(u64::MAX, |r| r.arrival_ns), **k))
                .map(|(k, _)| *k)
        })?;
        Some(self.take(key))
    }

    /// Deadline-aware flush: take a partial batch whose most imminent
    /// member deadline is within `headroom_ns` of `now_ns` — waiting for
    /// the generic [`BatchPolicy::max_wait_ns`] flush would let it
    /// expire in queue. `headroom_ns` is the caller's service-time
    /// estimate (`None` falls back to `max_wait_ns`, so before any
    /// completion statistics exist a deadline'd request flushes as soon
    /// as its deadline is within one batching window). Returns `None`
    /// when no queued deadline is that close.
    pub fn pop_urgent(&mut self, now_ns: u64, headroom_ns: Option<u64>) -> Option<Batch> {
        let h = headroom_ns.unwrap_or(self.policy.max_wait_ns);
        let key = self
            .queues
            .iter()
            .filter(|(_, q)| {
                q.iter().filter_map(|r| r.deadline_ns).any(|d| d.saturating_sub(h) <= now_ns)
            })
            .min_by_key(|(k, q)| {
                (q.iter().filter_map(|r| r.deadline_ns).min().unwrap_or(u64::MAX), **k)
            })
            .map(|(k, _)| *k)?;
        Some(self.take(key))
    }

    /// Take the oldest pending batch regardless of fill or age (used to
    /// drain the queue once arrivals stop). `None` when empty. Covers
    /// only the one-shot queues; drain sessions with
    /// [`pop_any_session`](Self::pop_any_session).
    pub fn pop_any(&mut self) -> Option<Batch> {
        let key = self
            .queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .min_by_key(|(k, q)| (q.front().map_or(u64::MAX, |r| r.arrival_ns), **k))
            .map(|(k, _)| *k)?;
        Some(self.take(key))
    }

    /// Take the best dispatchable *session* batch at `now_ns`: the same
    /// fill-or-age rule as [`pop_ready`](Self::pop_ready), over the
    /// generation queues. Every member shares one capacity class and
    /// padded prompt length — the card prefills them together, then
    /// emits tokens step by step with the batch resident.
    pub fn pop_session_ready(&mut self, now_ns: u64) -> Option<Batch> {
        let full = self
            .session_queues
            .iter()
            .filter(|(_, q)| q.len() >= self.policy.max_batch)
            .min_by_key(|(k, q)| (q.front().map_or(u64::MAX, |r| r.arrival_ns), **k))
            .map(|(k, _)| *k);
        let key = full.or_else(|| {
            self.session_queues
                .iter()
                .filter(|(_, q)| {
                    q.front().is_some_and(|r| {
                        now_ns >= r.arrival_ns.saturating_add(self.policy.max_wait_ns)
                    })
                })
                .min_by_key(|(k, q)| (q.front().map_or(u64::MAX, |r| r.arrival_ns), **k))
                .map(|(k, _)| *k)
        })?;
        Some(self.take_session(key))
    }

    /// Take the oldest pending session batch regardless of fill or age
    /// (drain, or fail-everything when the fleet dies). `None` when no
    /// generation request is queued.
    pub fn pop_any_session(&mut self) -> Option<Batch> {
        let key = self
            .session_queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .min_by_key(|(k, q)| (q.front().map_or(u64::MAX, |r| r.arrival_ns), **k))
            .map(|(k, _)| *k)?;
        Some(self.take_session(key))
    }

    /// Pop up to `slots` queued sessions compatible with a running
    /// session batch (same class, same padded prompt bucket) — the
    /// continuous-batching join: freed batch slots are refilled with
    /// new prefills between token steps instead of waiting for the
    /// whole batch to finish.
    pub fn take_session_joiners(
        &mut self,
        class: CapacityClass,
        padded_seq_len: usize,
        slots: usize,
    ) -> Vec<ServeRequest> {
        if slots == 0 {
            return Vec::new();
        }
        let key = BatchKey { class, padded_seq_len };
        let Some(q) = self.session_queues.get_mut(&key) else { return Vec::new() };
        let n = q.len().min(slots);
        let joiners: Vec<ServeRequest> = q.drain(..n).collect();
        if q.is_empty() {
            self.session_queues.remove(&key);
        }
        self.pending -= joiners.len();
        joiners
    }

    /// Return a dispatched batch's requests to the **front** of their
    /// queue (the card failed or crashed mid-run). The requests were
    /// already admitted, so there is no re-validation — and the
    /// [`BatchPolicy::max_queue`] cap deliberately does not apply: a
    /// requeued request was already in the system, so bouncing it here
    /// would turn a card fault into a silent drop. Requeue *volume* is
    /// bounded one level up by the fleet's retry budget. FIFO order
    /// within the batch is preserved — a requeued request keeps its
    /// place ahead of later arrivals.
    pub fn requeue(&mut self, batch: &Batch) {
        if batch.requests.is_empty() {
            return;
        }
        let key =
            BatchKey { class: batch.requests[0].class(), padded_seq_len: batch.runtime.seq_len };
        let q = self.queues.entry(key).or_default();
        for r in batch.requests.iter().rev() {
            q.push_front(*r);
        }
        self.pending += batch.requests.len();
    }

    /// Canonical snapshot form of the queues: one
    /// `(class, padded_seq_len, requests)` row per non-empty queue, in
    /// `BatchKey` order. Pure data — no policy or capacity, which the
    /// restoring side already has from its config.
    pub(crate) fn export_queues(&self) -> Vec<(CapacityClass, usize, Vec<ServeRequest>)> {
        self.queues
            .iter()
            .map(|(k, q)| (k.class, k.padded_seq_len, q.iter().copied().collect()))
            .collect()
    }

    /// Replace the queues with [`export_queues`](Self::export_queues)ed
    /// rows (requests were validated at original admission, so none
    /// re-validates here).
    pub(crate) fn import_queues(&mut self, rows: Vec<(CapacityClass, usize, Vec<ServeRequest>)>) {
        self.pending -= self.queues.values().map(VecDeque::len).sum::<usize>();
        self.queues.clear();
        for (class, padded_seq_len, requests) in rows {
            if requests.is_empty() {
                continue;
            }
            self.pending += requests.len();
            self.queues.insert(BatchKey { class, padded_seq_len }, requests.into_iter().collect());
        }
    }

    /// Session-queue twin of [`export_queues`](Self::export_queues),
    /// serialized into the snapshot's generation block.
    pub(crate) fn export_session_queues(&self) -> Vec<(CapacityClass, usize, Vec<ServeRequest>)> {
        self.session_queues
            .iter()
            .map(|(k, q)| (k.class, k.padded_seq_len, q.iter().copied().collect()))
            .collect()
    }

    /// Session-queue twin of [`import_queues`](Self::import_queues).
    pub(crate) fn import_session_queues(
        &mut self,
        rows: Vec<(CapacityClass, usize, Vec<ServeRequest>)>,
    ) {
        self.pending -= self.session_queues.values().map(VecDeque::len).sum::<usize>();
        self.session_queues.clear();
        for (class, padded_seq_len, requests) in rows {
            if requests.is_empty() {
                continue;
            }
            self.pending += requests.len();
            self.session_queues
                .insert(BatchKey { class, padded_seq_len }, requests.into_iter().collect());
        }
    }

    fn take(&mut self, key: BatchKey) -> Batch {
        let q = self.queues.get_mut(&key).expect("key exists by construction");
        let n = q.len().min(self.policy.max_batch);
        let requests: Vec<ServeRequest> = q.drain(..n).collect();
        if q.is_empty() {
            self.queues.remove(&key);
        }
        self.pending -= requests.len();
        let runtime = requests[0].runtime_at(key.padded_seq_len);
        Batch { requests, runtime }
    }

    fn take_session(&mut self, key: BatchKey) -> Batch {
        let q = self.session_queues.get_mut(&key).expect("key exists by construction");
        let n = q.len().min(self.policy.max_batch);
        let requests: Vec<ServeRequest> = q.drain(..n).collect();
        if q.is_empty() {
            self.session_queues.remove(&key);
        }
        self.pending -= requests.len();
        let runtime = requests[0].runtime_at(key.padded_seq_len);
        Batch { requests, runtime }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::request::Priority;

    fn req(id: u64, arrival_ns: u64, seq_len: usize) -> ServeRequest {
        ServeRequest {
            id,
            arrival_ns,
            d_model: 96,
            heads: 4,
            layers: 2,
            seq_len,
            ..Default::default()
        }
    }

    fn sched() -> BatchScheduler {
        BatchScheduler::new(
            BatchPolicy {
                max_batch: 4,
                max_wait_ns: 1_000,
                seq_buckets: vec![16, 32, 64, 128],
                max_queue: None,
            },
            SynthesisConfig::paper_default(),
        )
    }

    fn capped(max_queue: usize) -> BatchScheduler {
        BatchScheduler::new(
            BatchPolicy {
                max_batch: 4,
                max_wait_ns: 1_000,
                seq_buckets: vec![16, 32, 64, 128],
                max_queue: Some(max_queue),
            },
            SynthesisConfig::paper_default(),
        )
    }

    #[test]
    fn full_batch_dispatches_immediately() {
        let mut s = sched();
        for i in 0..4 {
            s.push(req(i, i * 10, 12)).unwrap();
        }
        let b = s.pop_ready(35).expect("full batch ready");
        assert_eq!(b.len(), 4);
        assert_eq!(b.runtime.seq_len, 16, "padded to the bucket bound");
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn partial_batch_waits_for_deadline() {
        let mut s = sched();
        s.push(req(0, 100, 12)).unwrap();
        assert!(s.pop_ready(500).is_none(), "not full, not timed out");
        assert_eq!(s.next_flush_deadline_ns(), Some(1_100));
        let b = s.pop_ready(1_100).expect("flush after max_wait");
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn buckets_separate_and_pad() {
        let mut s = sched();
        s.push(req(0, 0, 12)).unwrap(); // bucket 16
        s.push(req(1, 0, 20)).unwrap(); // bucket 32
        s.push(req(2, 0, 16)).unwrap(); // bucket 16 (exact bound)
        let b = s.pop_ready(u64::MAX).unwrap();
        assert_eq!(b.runtime.seq_len, 16);
        assert_eq!(b.len(), 2, "12 and 16 share the 16-bucket");
        let b2 = s.pop_ready(u64::MAX).unwrap();
        assert_eq!(b2.runtime.seq_len, 32);
    }

    #[test]
    fn classes_never_mix() {
        let mut s = sched();
        s.push(req(0, 0, 12)).unwrap();
        s.push(ServeRequest {
            id: 1,
            arrival_ns: 0,
            d_model: 128,
            heads: 4,
            layers: 2,
            seq_len: 12,
            ..Default::default()
        })
        .unwrap();
        let b = s.pop_ready(u64::MAX).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn unservable_requests_rejected_at_admission() {
        let mut s = sched();
        // over the largest bucket
        assert!(matches!(s.push(req(0, 0, 4_000)), Err(ServeError::Unservable { id: 0, .. })));
        // d_model over synthesized capacity
        let too_wide = ServeRequest { d_model: 4_096, ..req(1, 0, 8) };
        assert!(matches!(s.push(too_wide), Err(ServeError::Unservable { id: 1, .. })));
        // heads must divide d_model
        let ragged = ServeRequest { heads: 5, ..req(2, 0, 8) };
        assert!(s.push(ragged).is_err());
        // zero layers
        let zero = ServeRequest { layers: 0, ..req(3, 0, 8) };
        assert!(s.push(zero).is_err());
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn pop_any_drains_everything() {
        let mut s = sched();
        for i in 0..6 {
            s.push(req(i, i, 12)).unwrap();
        }
        let first = s.pop_any().unwrap();
        assert_eq!(first.len(), 4, "capped at max_batch");
        let rest = s.pop_any().unwrap();
        assert_eq!(rest.len(), 2);
        assert!(s.pop_any().is_none());
    }

    #[test]
    fn requeue_restores_requests_at_the_front() {
        let mut s = sched();
        for i in 0..4 {
            s.push(req(i, i * 7, 12)).unwrap();
        }
        let b = s.pop_ready(100).unwrap();
        assert_eq!(s.pending(), 0);
        // a later arrival lands behind the requeued batch
        s.push(req(9, 200, 12)).unwrap();
        s.requeue(&b);
        assert_eq!(s.pending(), 5);
        let again = s.pop_ready(u64::MAX).unwrap();
        let ids: Vec<u64> = again.requests.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "requeued requests keep FIFO order at the front");
        let rest = s.pop_ready(u64::MAX).unwrap();
        assert_eq!(rest.requests[0].id, 9);
    }

    #[test]
    fn fifo_within_a_queue() {
        let mut s = sched();
        for i in 0..4 {
            s.push(req(i, i * 7, 12)).unwrap();
        }
        let b = s.pop_ready(100).unwrap();
        let ids: Vec<u64> = b.requests.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unbounded_by_default_bounded_when_capped() {
        // Historical behavior: no cap, any depth queues.
        let mut s = sched();
        for i in 0..100 {
            assert_eq!(s.push(req(i, i, 12)).unwrap(), None);
        }
        assert_eq!(s.pending(), 100);
        // With a cap, the queue holds exactly `max_queue`.
        let mut s = capped(3);
        for i in 0..3 {
            assert_eq!(s.push(req(i, i, 12)).unwrap(), None);
        }
        let err = s.push(req(3, 3, 12)).unwrap_err();
        assert!(
            matches!(err, ServeError::Overloaded { id: 3, pending: 3, limit: 3 }),
            "got {err:?}"
        );
        assert_eq!(s.pending(), 3, "a rejected push must not change the queue");
        // A different bucket has its own cap.
        assert_eq!(s.push(req(4, 4, 20)).unwrap(), None);
    }

    #[test]
    fn full_queue_evicts_lowest_priority_youngest_victim() {
        let mut s = capped(3);
        s.push(ServeRequest { priority: Priority::BestEffort, ..req(0, 0, 12) }).unwrap();
        s.push(ServeRequest { priority: Priority::BestEffort, ..req(1, 5, 12) }).unwrap();
        s.push(ServeRequest { priority: Priority::Normal, ..req(2, 6, 12) }).unwrap();
        // An interactive arrival displaces the *youngest best-effort*
        // request (id 1), not the older one and not the normal one.
        let victim = s
            .push(ServeRequest { priority: Priority::Interactive, ..req(3, 9, 12) })
            .unwrap()
            .expect("must evict");
        assert_eq!(victim.id, 1);
        assert_eq!(s.pending(), 3);
        // An equal-priority arrival cannot displace anyone.
        let err =
            s.push(ServeRequest { priority: Priority::BestEffort, ..req(4, 10, 12) }).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { id: 4, .. }));
        // The surviving queue keeps arrival order among survivors.
        let b = s.pop_ready(u64::MAX).unwrap();
        let ids: Vec<u64> = b.requests.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 2, 3]);
    }

    #[test]
    fn requeue_is_exempt_from_the_cap() {
        let mut s = capped(4);
        for i in 0..4 {
            s.push(req(i, i, 12)).unwrap();
        }
        let b = s.pop_ready(u64::MAX).unwrap();
        for i in 4..8 {
            s.push(req(i, i, 12)).unwrap();
        }
        // The queue is full again, yet the failed batch must re-enter:
        // bouncing it would turn a card fault into a silent drop.
        s.requeue(&b);
        assert_eq!(s.pending(), 8);
        let front = s.pop_ready(u64::MAX).unwrap();
        assert_eq!(front.requests[0].id, 0, "requeued batch keeps its place at the head");
    }

    #[test]
    fn decode_requests_form_their_own_session_queues() {
        let mut s = sched();
        s.push(ServeRequest { decode_steps: 4, ..req(0, 0, 12) }).unwrap();
        s.push(req(1, 0, 12)).unwrap();
        assert_eq!(s.pending(), 2);
        // One-shot pops never return sessions and vice versa.
        let b = s.pop_ready(u64::MAX).unwrap();
        assert_eq!(b.requests[0].id, 1);
        assert!(s.pop_ready(u64::MAX).is_none());
        let sb = s.pop_session_ready(u64::MAX).expect("session flushes after max_wait");
        assert_eq!(sb.requests[0].id, 0);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn session_joiners_come_from_the_matching_bucket() {
        let mut s = sched();
        for i in 0..3 {
            s.push(ServeRequest { decode_steps: 4, ..req(i, i, 12) }).unwrap();
        }
        s.push(ServeRequest { decode_steps: 4, ..req(9, 3, 40) }).unwrap(); // other bucket
        let joiners = s.take_session_joiners(req(0, 0, 12).class(), 16, 2);
        assert_eq!(joiners.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(s.pending(), 2);
        assert!(s.take_session_joiners(req(0, 0, 12).class(), 16, 0).is_empty());
        // Wrong bucket matches nothing.
        assert!(s.take_session_joiners(req(0, 0, 12).class(), 128, 4).is_empty());
        let drained = s.pop_any_session().unwrap();
        assert_eq!(drained.requests[0].id, 2);
        assert_eq!(s.pop_any_session().unwrap().requests[0].id, 9);
        assert!(s.pop_any_session().is_none());
    }

    #[test]
    fn oversized_decode_steps_are_unservable_and_sessions_never_evict() {
        let mut s = sched();
        let huge = ServeRequest { decode_steps: 100_000, ..req(0, 0, 12) };
        assert!(matches!(s.push(huge), Err(ServeError::Unservable { id: 0, .. })));
        // A capped session queue bounces the newcomer even at higher
        // priority — admitted sessions are never displaced.
        let mut s = capped(2);
        for i in 0..2 {
            s.push(ServeRequest { decode_steps: 4, ..req(i, i, 12) }).unwrap();
        }
        let vip =
            ServeRequest { decode_steps: 4, priority: Priority::Interactive, ..req(5, 5, 12) };
        assert!(matches!(s.push(vip), Err(ServeError::Overloaded { id: 5, .. })));
        assert!(s.evict_lower_priority(Priority::Interactive).is_none());
        assert_eq!(s.pending(), 2);
    }

    #[test]
    fn session_deadlines_expire_in_queue() {
        let mut s = sched();
        s.push(ServeRequest { decode_steps: 4, deadline_ns: Some(100), ..req(0, 0, 12) }).unwrap();
        assert_eq!(s.next_flush_deadline_ns(), Some(1_000));
        let dead = s.take_expired(100);
        assert_eq!(dead.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0]);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn take_expired_removes_only_dead_requests() {
        let mut s = sched();
        s.push(ServeRequest { deadline_ns: Some(100), ..req(0, 0, 12) }).unwrap();
        s.push(req(1, 1, 12)).unwrap(); // no deadline
        s.push(ServeRequest { deadline_ns: Some(500), ..req(2, 2, 40) }).unwrap();
        assert!(s.take_expired(99).is_empty(), "nothing dead yet");
        let dead = s.take_expired(100);
        assert_eq!(dead.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0]);
        assert_eq!(s.pending(), 2);
        let dead = s.take_expired(u64::MAX);
        assert_eq!(dead.iter().map(|r| r.id).collect::<Vec<_>>(), vec![2]);
        assert_eq!(s.pending(), 1, "deadline-free requests are never expired");
    }
}
