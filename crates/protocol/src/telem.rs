//! Session instruments: handles resolved once per run, so the session
//! loop records without registry lookups.

use espread_telemetry::{current, Counter, Event, Gauge, Registry, SpanGuard};

use crate::server::AdaptationRecord;

/// Per-session instrument handles, resolved once per run.
#[derive(Debug, Clone)]
pub struct SessionTelem {
    registry: Registry,
    alf: Gauge,
    clf: Gauge,
    projected_clf: Gauge,
    windows: Counter,
    retransmissions: Counter,
}

impl SessionTelem {
    pub(crate) fn new(registry: Registry) -> Self {
        SessionTelem {
            alf: registry.gauge("protocol.window.alf"),
            clf: registry.gauge("protocol.window.clf"),
            projected_clf: registry.gauge("protocol.adaptation.projected_clf"),
            windows: registry.counter("protocol.session.windows"),
            retransmissions: registry.counter("protocol.session.retransmissions"),
            registry,
        }
    }

    /// Handles bound to the current registry — the thread-local
    /// override when one is installed, else the process-wide global.
    pub(crate) fn default_global() -> Self {
        Self::new(current())
    }

    /// Starts an RAII span on this session's registry.
    #[inline]
    pub(crate) fn span(&self, name: &'static str) -> SpanGuard {
        self.registry.histogram(name).start_timer()
    }

    /// Records one finished window: ALF/CLF gauges plus a
    /// [`Event::WindowMetrics`] entry in the event log.
    pub(crate) fn window_metrics(&self, window: u64, lost: usize, window_len: usize, clf: usize) {
        self.windows.inc();
        let alf = if window_len == 0 {
            0.0
        } else {
            lost as f64 / window_len as f64
        };
        self.alf.set(alf);
        self.clf.set(clf as f64);
        self.registry.emit(Event::WindowMetrics {
            window,
            lost,
            window_len,
            clf,
        });
    }

    /// Logs one adaptation decision (an applied window ACK).
    pub(crate) fn adaptation(&self, window: u64, record: &AdaptationRecord) {
        self.registry.emit(Event::Adaptation {
            window,
            feedback_window: record.feedback_window,
            observed_bursts: record.observed_bursts.clone(),
            old_estimates: record.old_estimates.clone(),
            new_estimates: record.new_estimates.clone(),
        });
    }

    /// Records the worst CLF the freshly planned orders would admit if
    /// the adaptation's observed bursts recurred (truncated projection,
    /// see the session loop).
    #[inline]
    pub(crate) fn projected_clf(&self, clf: usize) {
        self.projected_clf.set(clf as f64);
        self.registry
            .histogram("protocol.adaptation.projected_clf_hist")
            .record(clf as u64);
    }

    /// Bumps the retransmission counter.
    #[inline]
    pub(crate) fn on_retransmission(&self) {
        self.retransmissions.inc();
    }
}
