//! Session instruments: handles resolved once per run, so the session
//! loop records without registry lookups.

use std::time::Instant;

use espread_telemetry::{current, Counter, Event, Gauge, Histogram, Registry};

use crate::server::AdaptationRecord;

/// Per-session instrument handles, resolved once per run.
#[derive(Debug, Clone)]
pub struct SessionTelem {
    registry: Registry,
    /// Span histograms of the session loop's three server phases.
    feedback_ns: Histogram,
    plan_ns: Histogram,
    send_ns: Histogram,
    alf: Gauge,
    clf: Gauge,
    projected_clf: Gauge,
    projected_clf_hist: Histogram,
    windows: Counter,
    retransmissions: Counter,
}

impl SessionTelem {
    pub(crate) fn new(registry: Registry) -> Self {
        SessionTelem {
            feedback_ns: registry.histogram("protocol.session.feedback_ns"),
            plan_ns: registry.histogram("protocol.session.plan_ns"),
            send_ns: registry.histogram("protocol.session.send_ns"),
            alf: registry.gauge("protocol.window.alf"),
            clf: registry.gauge("protocol.window.clf"),
            projected_clf: registry.gauge("protocol.adaptation.projected_clf"),
            projected_clf_hist: registry.histogram("protocol.adaptation.projected_clf_hist"),
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

    /// Records the feedback and plan spans from three shared stamps:
    /// feedback runs from `start` to `fed`, planning from `fed` to
    /// `planned`.
    #[inline]
    pub(crate) fn feedback_and_plan(&self, start: Instant, fed: Instant, planned: Instant) {
        self.feedback_ns.record((fed - start).as_nanos() as u64);
        self.plan_ns.record((planned - fed).as_nanos() as u64);
    }

    /// Records the send span, which began at `start`.
    #[inline]
    pub(crate) fn sent(&self, start: Instant) {
        self.send_ns.record(start.elapsed().as_nanos() as u64);
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

    /// Logs one adaptation decision (an applied window ACK); the record's
    /// vectors are copied only when the event log has room for them.
    pub(crate) fn adaptation(&self, window: u64, record: &AdaptationRecord) {
        self.registry.emit_with(|| Event::Adaptation {
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
        self.projected_clf_hist.record(clf as u64);
    }

    /// Bumps the retransmission counter.
    #[inline]
    pub(crate) fn on_retransmission(&self) {
        self.retransmissions.inc();
    }
}
