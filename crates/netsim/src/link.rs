//! A unidirectional link: fixed bandwidth, fixed propagation delay, and a
//! pluggable bursty-loss process.
//!
//! This is the substrate of §5.1: "the simulation was conducted for fixed
//! bandwidth (at the specified peak) and a fixed delay. The only variation
//! is the network packet losses" — drawn from the two-state Markov model
//! by default, or from a [`DropTailQueue`](crate::droptail::DropTailQueue)
//! for mechanism-level validation. Packets are serialised FIFO at the link
//! rate, then propagate for the fixed one-way delay; the loss process is
//! consulted **once per packet** in transmission order.

use crate::lossmodel::LossProcess;
use crate::packet::{Delivery, Packet};
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Outcome of offering one packet to a link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransmitOutcome<T> {
    /// The packet will arrive at the far end at the given time.
    Delivered(Delivery<T>),
    /// The packet was lost in transit (the serialisation slot is still
    /// consumed — the bits were sent, the network dropped them).
    Lost(Packet<T>),
}

impl<T> TransmitOutcome<T> {
    /// Returns the delivery if the packet survived.
    pub fn delivered(self) -> Option<Delivery<T>> {
        match self {
            TransmitOutcome::Delivered(d) => Some(d),
            TransmitOutcome::Lost(_) => None,
        }
    }

    /// Whether the packet was lost.
    pub fn is_lost(&self) -> bool {
        matches!(self, TransmitOutcome::Lost(_))
    }
}

/// Aggregate counters a link keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Packets offered to the link.
    pub offered: u64,
    /// Packets delivered to the far end.
    pub delivered: u64,
    /// Packets dropped by the loss process.
    pub lost: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// Total payload bytes offered (delivered or not) — the bandwidth the
    /// sender consumed.
    pub bytes_offered: u64,
}

impl LinkStats {
    /// Observed packet loss fraction (0 when nothing was offered).
    pub fn loss_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.lost as f64 / self.offered as f64
        }
    }
}

/// A unidirectional FIFO link with bandwidth, propagation delay and a
/// Gilbert loss process.
///
/// # Example
///
/// ```
/// use espread_netsim::{GilbertModel, Link, Packet, SimDuration, SimTime};
///
/// let mut link = Link::new(
///     1_200_000,                           // 1.2 Mbps
///     SimDuration::from_millis(11),        // ~23 ms RTT / 2
///     GilbertModel::new(1.0, 0.0, 1),      // lossless for the example
/// );
/// let pkt = Packet::new(0, 2048, SimTime::ZERO, "hello");
/// let delivery = link.transmit(SimTime::ZERO, pkt).delivered().unwrap();
/// // 13.654 ms serialisation + 11 ms propagation.
/// assert_eq!(delivery.arrived_at.as_micros(), 24_654);
/// ```
///
/// The link publishes its packet counts to the
/// `netsim.link.packets_{offered,delivered,lost}` counters of the registry
/// current at its construction once, when it drops; a clone publishes
/// only the packets it carried after the copy.
#[derive(Debug)]
pub struct Link {
    bandwidth_bps: u64,
    propagation: SimDuration,
    loss: LossProcess,
    busy_until: SimTime,
    stats: LinkStats,
    jitter: SimDuration,
    jitter_rng: DetRng,
    telem: crate::telem::LinkTelem,
}

impl Link {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero.
    pub fn new(bandwidth_bps: u64, propagation: SimDuration, loss: impl Into<LossProcess>) -> Self {
        assert!(bandwidth_bps > 0, "bandwidth must be positive");
        Link {
            bandwidth_bps,
            propagation,
            loss: loss.into(),
            busy_until: SimTime::ZERO,
            stats: LinkStats::default(),
            jitter: SimDuration::ZERO,
            jitter_rng: DetRng::seed_from(0),
            telem: crate::telem::LinkTelem::new(),
        }
    }

    /// Adds uniform per-packet delay variation in `[0, max_jitter]` on top
    /// of the propagation delay, seeded deterministically.
    ///
    /// Jitter can **reorder** deliveries (a later-departing packet may
    /// arrive first) — the disturbance the paper's sequence-numbered ACKs
    /// exist to tolerate ("out of order ACK packets will be ignored").
    pub fn with_jitter(mut self, max_jitter: SimDuration, seed: u64) -> Self {
        self.jitter = max_jitter;
        self.jitter_rng = DetRng::seed_from(seed);
        self
    }

    /// The link rate in bits per second.
    pub fn bandwidth_bps(&self) -> u64 {
        self.bandwidth_bps
    }

    /// The one-way propagation delay.
    pub fn propagation(&self) -> SimDuration {
        self.propagation
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// The earliest time a packet offered at `now` would **finish**
    /// serialising (without offering it).
    pub fn earliest_departure(&self, now: SimTime, size_bytes: u32) -> SimTime {
        let start = now.max(self.busy_until);
        start + SimDuration::serialization(size_bytes, self.bandwidth_bps)
    }

    /// Offers a packet to the link at time `now`.
    ///
    /// The packet queues behind any packet still serialising (FIFO),
    /// occupies the wire for its serialisation time, then either arrives
    /// `propagation` later or is dropped by the Gilbert process.
    pub fn transmit<T>(&mut self, now: SimTime, packet: Packet<T>) -> TransmitOutcome<T> {
        let departure = self.earliest_departure(now, packet.size_bytes);
        self.busy_until = departure;
        self.stats.offered += 1;
        self.stats.bytes_offered += u64::from(packet.size_bytes);
        if self.loss.step_delivers(now, packet.size_bytes) {
            self.stats.delivered += 1;
            self.stats.bytes_delivered += u64::from(packet.size_bytes);
            let jitter = if self.jitter == SimDuration::ZERO {
                SimDuration::ZERO
            } else {
                SimDuration::from_micros(self.jitter_rng.below(self.jitter.as_micros() + 1))
            };
            TransmitOutcome::Delivered(Delivery {
                arrived_at: departure + self.propagation + jitter,
                packet,
            })
        } else {
            self.stats.lost += 1;
            TransmitOutcome::Lost(packet)
        }
    }

    /// The time the link becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

impl Clone for Link {
    fn clone(&self) -> Self {
        Link {
            bandwidth_bps: self.bandwidth_bps,
            propagation: self.propagation,
            loss: self.loss.clone(),
            busy_until: self.busy_until,
            stats: self.stats,
            jitter: self.jitter,
            jitter_rng: self.jitter_rng.clone(),
            telem: self.telem.fork(self.stats),
        }
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        self.telem.publish(&self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gilbert::GilbertModel;

    fn lossless() -> GilbertModel {
        GilbertModel::new(1.0, 0.0, 0)
    }

    fn lossy_all() -> GilbertModel {
        GilbertModel::new(0.0, 1.0, 0)
    }

    #[test]
    fn fifo_serialisation_queues_packets() {
        let mut link = Link::new(8_000, SimDuration::from_millis(1), lossless());
        // 100 B at 8 kbps = 100 ms each.
        let a = link
            .transmit(SimTime::ZERO, Packet::new(0, 100, SimTime::ZERO, ()))
            .delivered()
            .unwrap();
        let b = link
            .transmit(SimTime::ZERO, Packet::new(1, 100, SimTime::ZERO, ()))
            .delivered()
            .unwrap();
        assert_eq!(a.arrived_at.as_micros(), 101_000);
        assert_eq!(b.arrived_at.as_micros(), 201_000); // queued behind a
        assert_eq!(link.busy_until().as_micros(), 200_000);
    }

    #[test]
    fn idle_gaps_are_respected() {
        let mut link = Link::new(8_000, SimDuration::ZERO, lossless());
        let _ = link.transmit(SimTime::ZERO, Packet::new(0, 100, SimTime::ZERO, ()));
        // Offer the next packet long after the link went idle.
        let later = SimTime::from_micros(500_000);
        let d = link
            .transmit(later, Packet::new(1, 100, later, ()))
            .delivered()
            .unwrap();
        assert_eq!(d.arrived_at.as_micros(), 600_000);
    }

    #[test]
    fn lost_packets_still_occupy_the_wire() {
        let mut link = Link::new(8_000, SimDuration::ZERO, lossy_all());
        let out = link.transmit(SimTime::ZERO, Packet::new(0, 100, SimTime::ZERO, ()));
        assert!(out.is_lost());
        assert_eq!(link.busy_until().as_micros(), 100_000);
        assert_eq!(link.stats().lost, 1);
        assert_eq!(link.stats().loss_rate(), 1.0);
    }

    #[test]
    fn stats_accumulate() {
        let mut link = Link::new(1_000_000, SimDuration::ZERO, lossless());
        for i in 0..10 {
            let _ = link.transmit(SimTime::ZERO, Packet::new(i, 1000, SimTime::ZERO, ()));
        }
        let s = link.stats();
        assert_eq!(s.offered, 10);
        assert_eq!(s.delivered, 10);
        assert_eq!(s.bytes_delivered, 10_000);
        assert_eq!(s.bytes_offered, 10_000);
        assert_eq!(s.loss_rate(), 0.0);
    }

    #[test]
    fn counters_are_published_once_per_packet_when_links_drop() {
        let registry = espread_telemetry::Registry::new();
        let counter = |name: &str| registry.snapshot().counter(name);
        let send = |link: &mut Link, count: u64| {
            for i in 0..count {
                let _ = link.transmit(SimTime::ZERO, Packet::new(i, 100, SimTime::ZERO, ()));
            }
        };
        let mut link = espread_telemetry::with_current(&registry, || {
            Link::new(1_000_000, SimDuration::ZERO, lossy_all())
        });
        send(&mut link, 3);
        let mut copy = link.clone();
        send(&mut copy, 2);
        assert_eq!(copy.stats().lost, 5, "a clone keeps the stats it copied");
        assert_eq!(counter("netsim.link.packets_offered"), Some(0));
        drop(link);
        assert_eq!(counter("netsim.link.packets_offered"), Some(3));
        drop(copy);
        // The copy publishes only the two packets it carried itself.
        assert_eq!(counter("netsim.link.packets_offered"), Some(5));
        assert_eq!(counter("netsim.link.packets_lost"), Some(5));
        assert_eq!(counter("netsim.link.packets_delivered"), Some(0));
    }

    #[test]
    fn earliest_departure_is_side_effect_free() {
        let link = Link::new(8_000, SimDuration::ZERO, lossless());
        let t1 = link.earliest_departure(SimTime::ZERO, 100);
        let t2 = link.earliest_departure(SimTime::ZERO, 100);
        assert_eq!(t1, t2);
        assert_eq!(t1.as_micros(), 100_000);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = Link::new(0, SimDuration::ZERO, lossless());
    }

    #[test]
    fn empty_stats_loss_rate_zero() {
        assert_eq!(LinkStats::default().loss_rate(), 0.0);
    }

    #[test]
    fn jitter_bounds_and_determinism() {
        let mk = || {
            Link::new(1_000_000, SimDuration::from_millis(10), lossless())
                .with_jitter(SimDuration::from_millis(5), 9)
        };
        let mut a = mk();
        let mut b = mk();
        for i in 0..200u64 {
            let da = a
                .transmit(SimTime::ZERO, Packet::new(i, 100, SimTime::ZERO, ()))
                .delivered()
                .unwrap();
            let db = b
                .transmit(SimTime::ZERO, Packet::new(i, 100, SimTime::ZERO, ()))
                .delivered()
                .unwrap();
            assert_eq!(da.arrived_at, db.arrived_at);
            // Arrival within [departure + prop, departure + prop + jitter].
            let min = a.busy_until() + SimDuration::from_millis(10);
            assert!(da.arrived_at >= min);
            assert!(da.arrived_at <= min + SimDuration::from_millis(5));
        }
    }

    #[test]
    fn jitter_can_reorder_deliveries() {
        let mut link = Link::new(100_000_000, SimDuration::from_millis(1), lossless())
            .with_jitter(SimDuration::from_millis(20), 4);
        let mut arrivals = Vec::new();
        for i in 0..100u64 {
            if let Some(d) = link
                .transmit(SimTime::ZERO, Packet::new(i, 100, SimTime::ZERO, i))
                .delivered()
            {
                arrivals.push((d.arrived_at, d.packet.payload));
            }
        }
        // At 100 Mbps the serialisation spacing (≈ 8 µs) is far below the
        // 20 ms jitter, so some arrival order inversion must occur.
        let inversions = arrivals.windows(2).filter(|w| w[0].0 > w[1].0).count();
        assert!(inversions > 0, "expected reordering under heavy jitter");
    }
}
