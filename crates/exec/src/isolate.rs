//! Panic and stall containment for soak-style cells.
//!
//! A chaos soak runs thousands of adversarial cells, and the two failure
//! modes its invariants exist to catch — a panic somewhere in a session
//! thread, and a session that never reaches teardown — are exactly the
//! ones that would otherwise take the whole soak down with them.
//! [`isolate`] runs one cell on a watchdog-supervised thread and turns
//! both modes into a typed [`CellFailure`], so the driver can record a
//! violation and move on to the next seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

/// How an isolated cell failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellFailure {
    /// The cell panicked; carries the panic payload's text when it was a
    /// string (the common `assert!`/`panic!` case).
    Panicked(String),
    /// The cell did not finish within the watchdog budget. The worker
    /// thread is detached and leaked — there is no safe way to kill a
    /// stalled thread — so a soak treats this as a hard violation.
    TimedOut,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
            CellFailure::TimedOut => f.write_str("stalled past the watchdog budget"),
        }
    }
}

impl std::error::Error for CellFailure {}

/// Runs `f` on a fresh thread, converting a panic into
/// [`CellFailure::Panicked`] and a wall-clock stall past `budget` into
/// [`CellFailure::TimedOut`].
///
/// On timeout the worker thread is left running detached (leaked): Rust
/// offers no sound way to cancel it. Callers bound the number of
/// timed-out cells per process (a soak aborts the run on the first
/// stall), so the leak cannot accumulate.
///
/// # Errors
///
/// [`CellFailure`] when the cell panicked or overran the budget.
pub fn isolate<T, F>(budget: Duration, f: F) -> Result<T, CellFailure>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("espread-isolated-cell".into())
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            // A send error means the watchdog already gave up on us;
            // nothing left to report to.
            let _ = tx.send(result);
        })
        .expect("spawn isolated cell thread");
    match rx.recv_timeout(budget) {
        Ok(Ok(value)) => {
            let _ = handle.join();
            Ok(value)
        }
        Ok(Err(payload)) => {
            let _ = handle.join();
            let msg = payload
                .downcast_ref::<&'static str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(CellFailure::Panicked(msg))
        }
        Err(_) => Err(CellFailure::TimedOut),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_passes_through() {
        assert_eq!(isolate(Duration::from_secs(5), || 41 + 1), Ok(42));
    }

    #[test]
    fn panic_is_captured_with_its_message() {
        let err = isolate(Duration::from_secs(5), || -> u32 {
            panic!("boom {}", 7);
        })
        .unwrap_err();
        assert_eq!(err, CellFailure::Panicked("boom 7".into()));
        assert!(err.to_string().contains("boom 7"));
    }

    #[test]
    fn assert_failures_are_captured_too() {
        let err = isolate(Duration::from_secs(5), || {
            assert!(std::hint::black_box(1) > 2, "arithmetic is broken");
        })
        .unwrap_err();
        assert!(matches!(
            err,
            CellFailure::Panicked(ref msg) if msg.contains("arithmetic is broken")
        ));
    }

    #[test]
    fn stall_times_out() {
        let err = isolate(Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_secs(600));
        })
        .unwrap_err();
        assert_eq!(err, CellFailure::TimedOut);
        assert!(err.to_string().contains("stalled"));
    }
}
