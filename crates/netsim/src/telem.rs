//! Simulator instruments: handles resolved at construction, so the
//! simulator structs embed one field and record without a registry
//! lookup.

use espread_telemetry::{current, Counter, Histogram};

use crate::link::LinkStats;

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

/// Per-link counters, published into the registry current at the link's
/// construction once, when the link drops: the link's own [`LinkStats`]
/// already count every packet, so the hot path touches no shared atomic.
#[derive(Debug)]
pub struct LinkTelem {
    offered: Counter,
    delivered: Counter,
    lost: Counter,
    /// The stats the link stood at when these handles were made: nonzero
    /// only for a clone, whose original publishes them.
    inherited: LinkStats,
}

impl LinkTelem {
    pub(crate) fn new() -> Self {
        let g = current();
        LinkTelem {
            offered: g.counter("netsim.link.packets_offered"),
            delivered: g.counter("netsim.link.packets_delivered"),
            lost: g.counter("netsim.link.packets_lost"),
            inherited: LinkStats::default(),
        }
    }

    /// Handles for a copy of a link whose stats stand at `stats`: the
    /// copy publishes only the packets it carries itself.
    pub(crate) fn fork(&self, stats: LinkStats) -> Self {
        LinkTelem {
            offered: self.offered.clone(),
            delivered: self.delivered.clone(),
            lost: self.lost.clone(),
            inherited: stats,
        }
    }

    /// Adds the packets counted in `stats` since these handles were made.
    pub(crate) fn publish(&self, stats: &LinkStats) {
        self.offered.add(stats.offered - self.inherited.offered);
        self.delivered
            .add(stats.delivered - self.inherited.delivered);
        self.lost.add(stats.lost - self.inherited.lost);
    }
}
