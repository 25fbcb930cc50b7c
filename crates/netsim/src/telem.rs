//! Simulator instruments: handles resolved at construction, so the
//! simulator structs embed one field and record with one atomic.

use espread_telemetry::{current, Counter, Histogram};

/// Tracks loss runs and records each completed burst's length into the
/// current registry's `netsim.gilbert.burst_len` histogram (handles are
/// resolved at construction, so build the simulator inside
/// `espread_telemetry::with_current` to route it to a worker registry).
#[derive(Debug, Clone)]
pub struct BurstTracker {
    hist: Histogram,
    current: u64,
}

impl BurstTracker {
    pub(crate) fn new() -> Self {
        BurstTracker {
            hist: current().histogram("netsim.gilbert.burst_len"),
            current: 0,
        }
    }

    /// Feeds one packet outcome; a delivery closes any open loss run.
    #[inline]
    pub(crate) fn observe(&mut self, delivered: bool) {
        if delivered {
            if self.current > 0 {
                self.hist.record(self.current);
                self.current = 0;
            }
        } else {
            self.current += 1;
        }
    }
}

/// Per-link counters mirrored into the current registry.
#[derive(Debug, Clone)]
pub struct LinkTelem {
    offered: Counter,
    delivered: Counter,
    lost: Counter,
}

impl LinkTelem {
    pub(crate) fn new() -> Self {
        let g = current();
        LinkTelem {
            offered: g.counter("netsim.link.packets_offered"),
            delivered: g.counter("netsim.link.packets_delivered"),
            lost: g.counter("netsim.link.packets_lost"),
        }
    }

    #[inline]
    pub(crate) fn on_offered(&self) {
        self.offered.inc();
    }

    #[inline]
    pub(crate) fn on_delivered(&self) {
        self.delivered.inc();
    }

    #[inline]
    pub(crate) fn on_lost(&self) {
        self.lost.inc();
    }
}
