//! Serving-layer errors.
//!
//! Everything a caller can trigger — a malformed trace file, a request
//! no synthesized card can serve, a hardware-layer rejection — comes
//! back as a [`ServeError`] value. The simulation never panics on user
//! input; `CoreError`s from the accelerator lift in via `From`.

use core::fmt;
use protea_core::CoreError;

/// Any error surfaced by the serving subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The accelerator layer rejected a configuration, weight image, or
    /// input on the request path.
    Core(CoreError),
    /// A workload trace failed to parse; `at` is a byte offset into the
    /// input.
    Trace {
        /// Byte offset of the failure.
        at: usize,
        /// What went wrong.
        msg: String,
    },
    /// A request's shape cannot be served by the fleet's synthesized
    /// capacity (caught at admission, before any card is touched).
    Unservable {
        /// The request id.
        id: u64,
        /// Why the capacity check failed.
        why: String,
    },
    /// The workload contains no requests.
    EmptyTrace,
    /// The fleet was built with zero cards.
    NoCards,
    /// Admission refused under overload: the request's bucket queue is
    /// at its configured cap and no lower-priority request could be
    /// shed in its place. Inside the fleet simulation this becomes a
    /// *shed* record in the report; callers driving a
    /// [`BatchScheduler`](crate::BatchScheduler) directly see it as a
    /// typed backpressure signal.
    Overloaded {
        /// The rejected request's id.
        id: u64,
        /// Requests queued in the target bucket at rejection time.
        pending: usize,
        /// The configured per-bucket queue cap.
        limit: usize,
    },
    /// A [`ServePlan`](crate::ServePlan) asked for an impossible
    /// combination (e.g. execution tracing together with snapshots).
    Plan {
        /// Why the plan was rejected.
        msg: String,
    },
    /// A fleet snapshot could not be written, parsed, or applied — or a
    /// resumed simulation failed its state-hash self-check.
    Snapshot {
        /// What went wrong.
        msg: String,
    },
    /// Snapshot header or seal verification failed: the header is not
    /// the one grammar this build reads, or the `hash` trailer
    /// does not match the body (tampering / bit-rot). Distinct from
    /// [`ServeError::Snapshot`] because the file itself is untrusted —
    /// retrying, migrating, or resuming from it would be unsound — so
    /// CLI surfaces map it to its own exit code.
    SnapshotIntegrity {
        /// What the header or seal check found.
        msg: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "accelerator error: {e}"),
            ServeError::Trace { at, msg } => write!(f, "trace parse error at byte {at}: {msg}"),
            ServeError::Unservable { id, why } => {
                write!(f, "request {id} cannot be served by this fleet: {why}")
            }
            ServeError::EmptyTrace => write!(f, "workload trace contains no requests"),
            ServeError::NoCards => write!(f, "fleet must have at least one card"),
            ServeError::Overloaded { id, pending, limit } => {
                write!(f, "request {id} rejected: queue full ({pending} pending, limit {limit})")
            }
            ServeError::Plan { msg } => write!(f, "invalid serve plan: {msg}"),
            ServeError::Snapshot { msg } => write!(f, "snapshot error: {msg}"),
            ServeError::SnapshotIntegrity { msg } => {
                write!(f, "snapshot integrity error: {msg}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

/// The reverse lift, so CLI front ends can funnel every failure —
/// accelerator- or serving-layer — through one [`CoreError`] and its
/// uniform [`exit_code`](CoreError::exit_code) table. A wrapped core
/// error unwraps losslessly; an admission rejection keeps its identity
/// as [`CoreError::Overloaded`] (its exit code tells a load balancer
/// "retry elsewhere/later", unlike a hard serving failure); an
/// integrity failure keeps its identity as
/// [`CoreError::SnapshotIntegrity`] (the input file is untrusted —
/// neither retryable nor migratable); every other serving-specific
/// variant becomes [`CoreError::Serving`] with its full rendered
/// message.
impl From<ServeError> for CoreError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Core(c) => c,
            overloaded @ ServeError::Overloaded { .. } => {
                CoreError::Overloaded(overloaded.to_string())
            }
            sealed @ ServeError::SnapshotIntegrity { .. } => {
                CoreError::SnapshotIntegrity(sealed.to_string())
            }
            other => CoreError::Serving(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_error_lifts() {
        let e: ServeError = CoreError::EmptyBatch.into();
        assert_eq!(e, ServeError::Core(CoreError::EmptyBatch));
        assert!(e.to_string().contains("accelerator error"));
    }

    #[test]
    fn trace_error_reports_offset() {
        let e = ServeError::Trace { at: 17, msg: "expected ','".into() };
        assert!(e.to_string().contains("byte 17"));
    }

    /// One value of every variant, for the audit tests below.
    fn every_variant() -> Vec<ServeError> {
        vec![
            ServeError::Core(CoreError::EmptyBatch),
            ServeError::Trace { at: 3, msg: "bad".into() },
            ServeError::Unservable { id: 7, why: "too wide".into() },
            ServeError::EmptyTrace,
            ServeError::NoCards,
            ServeError::Overloaded { id: 9, pending: 32, limit: 32 },
            ServeError::Plan { msg: "tracing with snapshots".into() },
            ServeError::Snapshot { msg: "hash mismatch".into() },
            ServeError::SnapshotIntegrity { msg: "unknown snapshot version v9".into() },
        ]
    }

    #[test]
    fn every_variant_has_a_nonempty_display() {
        for e in every_variant() {
            assert!(!e.to_string().trim().is_empty(), "{e:?} renders empty");
        }
    }

    #[test]
    fn lifts_to_core_error_for_uniform_exit_codes() {
        // a wrapped CoreError round-trips losslessly
        let c: CoreError = ServeError::Core(CoreError::EmptyBatch).into();
        assert_eq!(c, CoreError::EmptyBatch);
        // serving-specific variants keep their message and land on the
        // serving exit code
        for e in every_variant() {
            let msg = e.to_string();
            let c: CoreError = e.into();
            assert!(c.exit_code() >= 2);
            if let CoreError::Serving(m) = &c {
                assert_eq!(*m, msg, "message must survive the lift");
                assert_eq!(c.exit_code(), 7);
            }
        }
    }

    #[test]
    fn snapshot_integrity_lifts_to_its_own_exit_code() {
        let e = ServeError::SnapshotIntegrity { msg: "seal mismatch".into() };
        let msg = e.to_string();
        assert!(msg.contains("integrity") && msg.contains("seal mismatch"));
        let c: CoreError = e.into();
        match &c {
            CoreError::SnapshotIntegrity(m) => assert_eq!(*m, msg),
            other => panic!("expected SnapshotIntegrity, got {other:?}"),
        }
        assert_eq!(c.exit_code(), 9);
    }

    #[test]
    fn overloaded_lifts_to_its_own_exit_code() {
        let e = ServeError::Overloaded { id: 5, pending: 16, limit: 16 };
        let msg = e.to_string();
        assert!(msg.contains("queue full") && msg.contains("16"));
        let c: CoreError = e.into();
        match &c {
            CoreError::Overloaded(m) => assert_eq!(*m, msg),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(c.exit_code(), 8);
    }
}
