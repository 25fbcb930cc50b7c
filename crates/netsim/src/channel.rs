//! A UDP-like duplex channel: data link one way, feedback link the other.
//!
//! "The proposed protocol uses the UDP communication model … with feedback
//! for loss estimation" (§4.2). [`DuplexChannel`] bundles a forward (data)
//! [`Link`] and a reverse (ACK) [`Link`], assigns sequence numbers, and
//! buffers in-flight packets until the receiving side polls for arrivals —
//! exactly the unreliable-datagram service the protocol builds on. ACKs are
//! subject to loss too, as in the paper ("if an ACK is lost, its feedback
//! information has not been used").

use crate::event::EventQueue;
use crate::link::{Link, TransmitOutcome};
use crate::packet::{Delivery, Packet};
use crate::time::SimTime;

/// A bidirectional unreliable datagram channel.
///
/// Type parameters: `D` is the forward (data) payload, `A` the reverse
/// (feedback) payload.
///
/// # Example
///
/// ```
/// use espread_netsim::{DuplexChannel, GilbertModel, Link, SimDuration, SimTime};
///
/// let lossless = || GilbertModel::new(1.0, 0.0, 0);
/// let mut ch: DuplexChannel<&str, &str> = DuplexChannel::new(
///     Link::new(1_200_000, SimDuration::from_millis(11), lossless()),
///     Link::new(64_000, SimDuration::from_millis(11), lossless()),
/// );
///
/// ch.send_data(SimTime::ZERO, 2048, "frame");
/// let mut arrivals = ch.poll_data(SimTime::from_micros(30_000));
/// assert_eq!(arrivals.len(), 1);
/// assert_eq!(arrivals.next().unwrap().packet.payload, "frame");
/// ```
#[derive(Debug)]
pub struct DuplexChannel<D, A> {
    forward: Link,
    reverse: Link,
    next_data_seq: u64,
    next_ack_seq: u64,
    in_flight_data: EventQueue<Delivery<D>>,
    in_flight_ack: EventQueue<Delivery<A>>,
}

impl<D, A> DuplexChannel<D, A> {
    /// Creates a channel from a forward (data) and reverse (feedback) link.
    pub fn new(forward: Link, reverse: Link) -> Self {
        DuplexChannel {
            forward,
            reverse,
            next_data_seq: 0,
            next_ack_seq: 0,
            in_flight_data: EventQueue::new(),
            in_flight_ack: EventQueue::new(),
        }
    }

    /// The forward (data) link.
    pub fn forward(&self) -> &Link {
        &self.forward
    }

    /// The reverse (feedback) link.
    pub fn reverse(&self) -> &Link {
        &self.reverse
    }

    /// Sends a data packet at `now`; returns its sequence number.
    ///
    /// The packet may be silently lost — that is the service model.
    pub fn send_data(&mut self, now: SimTime, size_bytes: u32, payload: D) -> u64 {
        let seq = self.next_data_seq;
        self.next_data_seq += 1;
        let packet = Packet::new(seq, size_bytes, now, payload);
        if let TransmitOutcome::Delivered(d) = self.forward.transmit(now, packet) {
            self.in_flight_data.schedule(d.arrived_at, d);
        }
        seq
    }

    /// Sends a feedback packet at `now`; returns its sequence number.
    pub fn send_ack(&mut self, now: SimTime, size_bytes: u32, payload: A) -> u64 {
        let seq = self.next_ack_seq;
        self.next_ack_seq += 1;
        let packet = Packet::new(seq, size_bytes, now, payload);
        if let TransmitOutcome::Delivered(d) = self.reverse.transmit(now, packet) {
            self.in_flight_ack.schedule(d.arrived_at, d);
        }
        seq
    }

    /// Drains the data packets that have arrived at the client by `now`,
    /// in arrival order. Arrivals the iterator has not yielded when it is
    /// dropped are discarded.
    pub fn poll_data(&mut self, now: SimTime) -> impl ExactSizeIterator<Item = Delivery<D>> + '_ {
        self.in_flight_data.drain_until(now).map(|(_, d)| d)
    }

    /// Drains the feedback packets that have arrived at the server by
    /// `now`, in arrival order, like [`DuplexChannel::poll_data`].
    pub fn poll_acks(&mut self, now: SimTime) -> impl ExactSizeIterator<Item = Delivery<A>> + '_ {
        self.in_flight_ack.drain_until(now).map(|(_, d)| d)
    }

    /// The earliest time a data packet offered at `now` would finish
    /// serialising on the forward link.
    pub fn earliest_data_departure(&self, now: SimTime, size_bytes: u32) -> SimTime {
        self.forward.earliest_departure(now, size_bytes)
    }

    /// Time at which every in-flight data packet will have arrived.
    pub fn data_quiescent_at(&self) -> Option<SimTime> {
        self.in_flight_data.peek_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gilbert::GilbertModel;
    use crate::time::SimDuration;

    fn lossless_link(bps: u64) -> Link {
        Link::new(
            bps,
            SimDuration::from_millis(10),
            GilbertModel::new(1.0, 0.0, 0),
        )
    }

    fn dead_link(bps: u64) -> Link {
        Link::new(
            bps,
            SimDuration::from_millis(10),
            GilbertModel::new(0.0, 1.0, 0),
        )
    }

    #[test]
    fn data_round_trip() {
        let mut ch: DuplexChannel<u32, u32> =
            DuplexChannel::new(lossless_link(1_000_000), lossless_link(64_000));
        let s0 = ch.send_data(SimTime::ZERO, 1000, 42);
        let s1 = ch.send_data(SimTime::ZERO, 1000, 43);
        assert_eq!((s0, s1), (0, 1));
        // Nothing has arrived yet at t=0.
        assert_eq!(ch.poll_data(SimTime::ZERO).len(), 0);
        let all: Vec<_> = ch.poll_data(SimTime::from_micros(50_000)).collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].packet.payload, 42);
        assert_eq!(all[1].packet.payload, 43);
        assert!(all[0].arrived_at <= all[1].arrived_at);
    }

    #[test]
    fn acks_travel_in_reverse() {
        let mut ch: DuplexChannel<(), &str> =
            DuplexChannel::new(lossless_link(1_000_000), lossless_link(64_000));
        ch.send_ack(SimTime::ZERO, 100, "window 0 feedback");
        let acks: Vec<_> = ch.poll_acks(SimTime::from_micros(100_000)).collect();
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].packet.payload, "window 0 feedback");
        assert_eq!(ch.reverse().stats().delivered, 1);
    }

    #[test]
    fn lost_packets_never_arrive() {
        let mut ch: DuplexChannel<u32, u32> =
            DuplexChannel::new(dead_link(1_000_000), lossless_link(64_000));
        ch.send_data(SimTime::ZERO, 1000, 7);
        assert_eq!(ch.poll_data(SimTime::from_micros(10_000_000)).len(), 0);
        assert_eq!(ch.forward().stats().lost, 1);
        assert_eq!(ch.data_quiescent_at(), None);
    }

    #[test]
    fn sequence_numbers_are_independent_per_direction() {
        let mut ch: DuplexChannel<(), ()> =
            DuplexChannel::new(lossless_link(1_000_000), lossless_link(64_000));
        assert_eq!(ch.send_data(SimTime::ZERO, 10, ()), 0);
        assert_eq!(ch.send_ack(SimTime::ZERO, 10, ()), 0);
        assert_eq!(ch.send_data(SimTime::ZERO, 10, ()), 1);
        assert_eq!(ch.send_ack(SimTime::ZERO, 10, ()), 1);
    }

    #[test]
    fn departure_estimate_matches_link() {
        let ch: DuplexChannel<(), ()> =
            DuplexChannel::new(lossless_link(8_000), lossless_link(8_000));
        // 100 B at 8 kbps = 100 ms.
        assert_eq!(
            ch.earliest_data_departure(SimTime::ZERO, 100).as_micros(),
            100_000
        );
    }
}
