//! Simulator instruments: handles resolved at construction, so the
//! simulator structs embed one field and record without a registry
//! lookup.

use espread_telemetry::{current, Counter, Histogram};

use crate::link::LinkStats;

/// Tracks loss runs for the `netsim.gilbert.burst_len` histogram of the
/// registry current at construction (build the simulator inside
/// `espread_telemetry::with_current` to route it to a worker registry).
///
/// Runs shorter than [`LOCAL_RUNS`] — nearly all of them on the paper's
/// channels — are tallied locally and published once, when the tracker
/// drops, as [`LinkTelem`] publishes its packet counts; a longer run is
/// recorded when it ends. The histogram ends up exactly as if every run
/// had been recorded as it closed. A clone keeps the open run (it closes
/// it in its own stream) but publishes only the runs it closes itself.
#[derive(Debug)]
pub struct BurstTracker {
    hist: Histogram,
    current: u64,
    /// `runs[len]`: closed runs of `len` losses not yet published.
    runs: [u64; LOCAL_RUNS],
}

/// Run lengths below this are tallied locally.
const LOCAL_RUNS: usize = 16;

impl BurstTracker {
    pub(crate) fn new() -> Self {
        BurstTracker {
            hist: current().histogram("netsim.gilbert.burst_len"),
            current: 0,
            runs: [0; LOCAL_RUNS],
        }
    }

    /// Feeds one packet outcome; a delivery closes any open loss run.
    #[inline]
    pub(crate) fn observe(&mut self, delivered: bool) {
        if delivered {
            if self.current > 0 {
                match self.runs.get_mut(self.current as usize) {
                    Some(n) => *n += 1,
                    None => self.hist.record(self.current),
                }
                self.current = 0;
            }
        } else {
            self.current += 1;
        }
    }
}

impl Clone for BurstTracker {
    fn clone(&self) -> Self {
        BurstTracker {
            hist: self.hist.clone(),
            current: self.current,
            runs: [0; LOCAL_RUNS],
        }
    }
}

impl Drop for BurstTracker {
    fn drop(&mut self) {
        for (len, &n) in self.runs.iter().enumerate() {
            self.hist.record_n(len as u64, n);
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

#[cfg(test)]
mod tests {
    use espread_telemetry::{with_current, HistogramSnapshot, Registry};

    use crate::{GilbertModel, Link, Packet, SimDuration, SimTime};

    /// Records each loss run of `outcomes` (`true` = delivered) as it
    /// closes, one `record` per run, continuing the run `prefix` leaves
    /// open.
    fn per_run(prefix: &[bool], outcomes: &[bool]) -> HistogramSnapshot {
        let hist = Registry::new().histogram("runs");
        let mut run = prefix.iter().rev().take_while(|&&d| !d).count() as u64;
        for &delivered in outcomes {
            if !delivered {
                run += 1;
            } else if run > 0 {
                hist.record(run);
                run = 0;
            }
        }
        hist.snapshot()
    }

    fn published(registry: &Registry) -> HistogramSnapshot {
        registry
            .snapshot()
            .histogram("netsim.gilbert.burst_len")
            .cloned()
            .unwrap_or_default()
    }

    fn link(registry: &Registry, p_bad: f64, seed: u64) -> Link {
        with_current(registry, || {
            Link::new(
                1_000_000,
                SimDuration::ZERO,
                GilbertModel::new(0.92, p_bad, seed),
            )
        })
    }

    /// Offers `n` packets; `true` for each one delivered.
    fn send(link: &mut Link, n: usize) -> Vec<bool> {
        (0..n)
            .map(|i| {
                let packet = Packet::new(i as u64, 100, SimTime::ZERO, ());
                !link.transmit(SimTime::ZERO, packet).is_lost()
            })
            .collect()
    }

    #[test]
    fn a_dropped_link_publishes_what_per_run_recording_would() {
        for (p_bad, seed) in [(0.6, 1), (0.97, 2)] {
            let registry = Registry::new();
            let mut link = link(&registry, p_bad, seed);
            let outcomes = send(&mut link, 40_000);
            let early = published(&registry);
            assert!(early.count == 0 || early.min >= 16, "short runs wait");
            drop(link);
            let expected = per_run(&[], &outcomes);
            assert!(expected.count > 100, "P_bad {p_bad}");
            assert_eq!(published(&registry), expected, "P_bad {p_bad}");
            if p_bad > 0.9 {
                assert!(expected.max >= 16 && expected.min < 16, "both regions");
            }
        }
    }

    #[test]
    fn a_cloned_link_publishes_only_its_own_runs() {
        let registry = Registry::new();
        let mut original = link(&registry, 0.9, 3);
        let mut before = send(&mut original, 5_000);
        // Fork inside a loss run, so the open run is in both streams.
        while before.last() != Some(&false) {
            before.extend(send(&mut original, 1));
        }
        let mut copy = original.clone();
        let copy_runs = send(&mut copy, 5_000);
        drop(copy);
        let original_runs = send(&mut original, 5_000);
        drop(original);
        // Each copy closes the open run in its own stream; no run closed
        // before the fork is published twice.
        let mut expected = per_run(&[], &[before.clone(), original_runs].concat());
        expected.merge(&per_run(&before, &copy_runs));
        assert_eq!(published(&registry), expected);
    }
}
