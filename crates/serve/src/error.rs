//! Serving-layer errors and request deadlines.
//!
//! [`DpcError`] covers what can go wrong *inside* the library — bad
//! parameters, empty datasets. A server has failure modes of its own that the
//! library never sees: a handler panicking mid-request, a request blowing its
//! time budget, the process shedding load at the admission cap. [`ServeError`]
//! is the union of both worlds, so every `DpcServer` entry point returns one
//! `Result` type and a client can match on exactly what happened.
//!
//! [`Deadline`] is the per-request time budget: started at admission, checked
//! at phase boundaries of the expensive handlers (before `Assign`'s single
//! nearest-denser search), and reported in
//! [`ServeError::DeadlineExceeded`] when it expires. A request that misses its
//! deadline returns *no* partial answer — the contract is all-or-error.

use std::fmt;
use std::time::{Duration, Instant};

use dpc_core::DpcError;

/// Everything a [`DpcServer`](crate::DpcServer) request can fail with: the
/// library's own errors plus the failure modes that only exist at the serving
/// boundary.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// A library-level error (invalid thresholds, dimension mismatch, …),
    /// unchanged from what `dpc-core` reported.
    Dpc(DpcError),
    /// The request handler panicked; the panic was caught at the isolation
    /// bracket and the server kept running. No state was torn: snapshots are
    /// immutable and the store swaps whole pointers.
    HandlerPanic {
        /// The panic payload, stringified (`&str`/`String` payloads verbatim,
        /// anything else a placeholder).
        payload: String,
    },
    /// The request exceeded its time budget and was abandoned at a phase
    /// boundary; no partial result is returned.
    DeadlineExceeded {
        /// The budget the request was admitted with.
        budget: Duration,
    },
    /// The server is at its in-flight limit and shed this request instead of
    /// queueing it. Retry later (ideally with backoff).
    Overloaded {
        /// In-flight requests observed at admission, counting this one.
        in_flight: usize,
        /// The configured admission cap.
        limit: usize,
    },
    /// The request kind cannot be answered on this code path — e.g.
    /// [`Request::Health`](crate::Request::Health) against a pinned snapshot,
    /// which has no store or counters to report on.
    Unsupported {
        /// What was requested.
        what: &'static str,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Dpc(e) => write!(f, "{e}"),
            ServeError::HandlerPanic { payload } => {
                write!(f, "request handler panicked: {payload}")
            }
            ServeError::DeadlineExceeded { budget } => {
                write!(f, "request exceeded its {budget:?} deadline")
            }
            ServeError::Overloaded { in_flight, limit } => {
                write!(f, "server overloaded: {in_flight} requests in flight, limit {limit}")
            }
            ServeError::Unsupported { what } => {
                write!(f, "unsupported on this code path: {what}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Dpc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DpcError> for ServeError {
    fn from(e: DpcError) -> Self {
        ServeError::Dpc(e)
    }
}

/// A per-request time budget: either "none" (never expires) or a started
/// clock with a fixed budget. Cheap to copy and to check; handlers test
/// [`Deadline::expired`] at phase boundaries, never mid-kernel, so a deadline
/// bounds *wasted* work without sprinkling clock reads through hot loops.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    /// `None` = unlimited.
    expires_at: Option<Instant>,
    budget: Duration,
}

impl Deadline {
    /// A deadline that never expires.
    pub fn none() -> Self {
        Self { expires_at: None, budget: Duration::ZERO }
    }

    /// Starts the clock now with the given budget; `None` means unlimited.
    pub fn start(budget: Option<Duration>) -> Self {
        match budget {
            Some(budget) => Self { expires_at: Instant::now().checked_add(budget), budget },
            None => Self::none(),
        }
    }

    /// Whether the budget is spent.
    pub fn expired(&self) -> bool {
        self.expires_at.is_some_and(|t| Instant::now() >= t)
    }

    /// The budget this deadline was started with (zero for
    /// [`Deadline::none`]).
    pub fn budget(&self) -> Duration {
        self.budget
    }

    /// `Err(DeadlineExceeded)` if the budget is spent, `Ok` otherwise — the
    /// one-liner handlers call at each phase boundary.
    pub fn check(&self) -> Result<(), ServeError> {
        if self.expired() {
            Err(ServeError::DeadlineExceeded { budget: self.budget })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ServeError::Dpc(DpcError::EmptyDataset);
        assert!(e.to_string().contains("empty"));
        let e = ServeError::HandlerPanic { payload: "boom".into() };
        assert!(e.to_string().contains("boom"));
        let e = ServeError::DeadlineExceeded { budget: Duration::from_millis(2) };
        assert!(e.to_string().contains("2ms"), "{e}");
        let e = ServeError::Overloaded { in_flight: 9, limit: 8 };
        assert!(e.to_string().contains('9') && e.to_string().contains('8'));
        let e = ServeError::Unsupported { what: "Health on a pinned snapshot" };
        assert!(e.to_string().contains("pinned"));
    }

    #[test]
    fn from_dpc_error_preserves_the_value() {
        let e: ServeError = DpcError::EmptyDataset.into();
        assert_eq!(e, ServeError::Dpc(DpcError::EmptyDataset));
        // And source() exposes it for error-chain walkers.
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn deadline_none_never_expires() {
        let d = Deadline::none();
        assert!(!d.expired());
        assert!(d.check().is_ok());
        assert_eq!(d.budget(), Duration::ZERO);
        let unlimited = Deadline::start(None);
        assert!(!unlimited.expired());
    }

    #[test]
    fn deadline_expires_after_its_budget() {
        let d = Deadline::start(Some(Duration::ZERO));
        assert!(d.expired());
        assert_eq!(d.check().unwrap_err(), ServeError::DeadlineExceeded { budget: Duration::ZERO });
        let generous = Deadline::start(Some(Duration::from_secs(3600)));
        assert!(!generous.expired());
        assert_eq!(generous.budget(), Duration::from_secs(3600));
    }
}
