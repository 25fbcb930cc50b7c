//! The PktSrc object: resource-aware transmission with prioritised frame
//! dropping, a pluggable B-frame ordering, and optional Cyclic-UDP
//! resending.
//!
//! CMT's pktSrc "picks up frames from the common buffer, decides which
//! frames in the buffer are to be sent using its estimated measure of …
//! bandwidth and propagation delay" and "can drop a set of low priority
//! frames if it estimates that it can not deliver all of the frames in the
//! buffer on time" (§4.4). Anchors travel first (I then P, playout order);
//! the B set is ordered by the plug-in ([`BFrameOrdering`]): stock CMT
//! uses IBO, the paper swaps in k-CPO.
//!
//! The underlying transport CMT used is Brian Smith's **Cyclic-UDP**
//! (reference \[27\]): a priority-driven best-effort protocol that, while
//! cycle time remains, resends the not-yet-acknowledged frames in priority
//! order. [`SendStrategy::CyclicUdp`] reproduces that behaviour.

use espread_netsim::{Delivery, Link, Packet, SimTime};
use espread_qos::ContinuityMetrics;

use crate::buffer::PriorityBuffer;
use crate::ordering::BFrameOrdering;
use crate::pkt_dest::PktDest;

/// How PktSrc uses leftover cycle time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SendStrategy {
    /// Send each staged frame once (pure best-effort).
    Single,
    /// Cyclic-UDP: after each pass, resend the frames the receiver has
    /// not acknowledged, in priority order, until the deadline or the
    /// round limit — trading leftover bandwidth for reliability of the
    /// high-priority frames.
    CyclicUdp {
        /// Maximum number of passes over the unacknowledged set.
        max_rounds: u32,
    },
}

impl std::fmt::Display for SendStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendStrategy::Single => f.write_str("single-shot"),
            SendStrategy::CyclicUdp { max_rounds } => {
                write!(f, "cyclic-UDP (≤{max_rounds} rounds)")
            }
        }
    }
}

/// Outcome of transmitting one buffer cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleOutcome {
    /// Playout-order delivery pattern of the cycle's frames.
    pub pattern: espread_qos::LossPattern,
    /// Continuity metrics of the cycle.
    pub metrics: ContinuityMetrics,
    /// Frames dropped at the sender for lack of estimated resources
    /// (never transmitted at all).
    pub dropped: usize,
    /// Frames transmitted at least once but never received.
    pub network_lost: usize,
    /// Extra (repeat) frame transmissions made by Cyclic-UDP rounds.
    pub resends: u64,
}

/// The sending object.
#[derive(Debug)]
pub struct PktSrc {
    link: Link,
    ordering: BFrameOrdering,
    packet_bytes: u32,
    header_bytes: u32,
}

impl PktSrc {
    /// Creates a PktSrc sending over `link` with the given B-frame
    /// ordering and packetisation.
    ///
    /// # Panics
    ///
    /// Panics if `packet_bytes == 0`.
    pub fn new(link: Link, ordering: BFrameOrdering, packet_bytes: u32, header_bytes: u32) -> Self {
        assert!(packet_bytes > 0, "packet size must be positive");
        PktSrc {
            link,
            ordering,
            packet_bytes,
            header_bytes,
        }
    }

    /// The B-frame ordering plug-in in use.
    pub fn ordering(&self) -> BFrameOrdering {
        self.ordering
    }

    /// Transmits one staged buffer cycle starting at `now` with a single
    /// pass (see [`PktSrc::send_cycle_with`]).
    pub fn send_cycle(
        &mut self,
        buffer: &mut PriorityBuffer,
        now: SimTime,
        deadline: SimTime,
    ) -> CycleOutcome {
        self.send_cycle_with(buffer, now, deadline, SendStrategy::Single)
    }

    /// Transmits one staged buffer cycle starting at `now`, with all
    /// packets required to depart by `deadline`, under the given strategy.
    ///
    /// Frames are considered in priority order; a frame whose packets
    /// cannot all depart by the deadline is skipped (lowest-priority
    /// frames sit at the tail, so they are dropped first). With
    /// [`SendStrategy::CyclicUdp`], unacknowledged frames are resent in
    /// priority order while cycle time remains.
    pub fn send_cycle_with(
        &mut self,
        buffer: &mut PriorityBuffer,
        now: SimTime,
        deadline: SimTime,
        strategy: SendStrategy,
    ) -> CycleOutcome {
        let _cycle_span = espread_telemetry::span("cmt.pkt_src.send_cycle_ns");
        // Order: anchors (classes 0 and 1) in playout order, then the B
        // class under the plug-in ordering.
        let anchors: Vec<_> = buffer
            .of_class(0)
            .into_iter()
            .chain(buffer.of_class(1))
            .collect();
        let bs = buffer.of_class(2);
        let frames: Vec<_> = {
            let _span = espread_telemetry::span("cmt.pkt_src.permute_ns");
            let b_order = self.ordering.permutation(bs.len());
            let ordered_bs = b_order.as_slice().iter().map(|&i| bs[i]);
            anchors.into_iter().chain(ordered_bs).collect()
        };

        let mut dest = PktDest::new(frames.iter().map(|f| f.frame.index).collect());
        let mut attempted = vec![false; frames.len()];
        let rounds = match strategy {
            SendStrategy::Single => 1,
            SendStrategy::CyclicUdp { max_rounds } => max_rounds.max(1),
        };

        let mut resends = 0u64;
        let mut seq = 0u64;
        'rounds: for round in 0..rounds {
            let mut sent_this_round = false;
            for (idx, staged) in frames.iter().enumerate() {
                // Cyclic-UDP: skip frames the receiver already has.
                if dest.arrival_of(staged.frame.index).is_some() {
                    continue;
                }
                let size = staged.frame.size_bytes.max(1);
                let frags = size.div_ceil(self.packet_bytes);
                let wire_total = size + frags * self.header_bytes;
                if self.link.earliest_departure(now, wire_total) > deadline {
                    // No room for this frame; smaller later frames may
                    // still fit, so keep scanning this round.
                    continue;
                }
                sent_this_round = true;
                if round > 0 || attempted[idx] {
                    resends += 1;
                }
                attempted[idx] = true;
                let mut all_arrived = true;
                let mut last_arrival = now;
                for frag in 0..frags {
                    let payload = if frag + 1 < frags {
                        self.packet_bytes
                    } else {
                        size - self.packet_bytes * (frags - 1)
                    };
                    match self
                        .link
                        .transmit(
                            now,
                            Packet::new(seq, payload + self.header_bytes, now, staged.frame.index),
                        )
                        .delivered()
                    {
                        Some(d) => last_arrival = last_arrival.max(d.arrived_at),
                        None => all_arrived = false,
                    }
                    seq += 1;
                }
                if all_arrived {
                    dest.accept(&Delivery {
                        arrived_at: last_arrival,
                        packet: Packet::new(seq, 1, now, staged.frame.index),
                    });
                }
            }
            if !sent_this_round {
                break 'rounds; // deadline exhausted or everything delivered
            }
        }

        let pattern = {
            let _span = espread_telemetry::span("cmt.pkt_dest.depermute_ns");
            dest.pattern()
        };
        let dropped = attempted.iter().filter(|&&a| !a).count();
        let network_lost = frames
            .iter()
            .enumerate()
            .filter(|(idx, f)| attempted[*idx] && dest.arrival_of(f.frame.index).is_none())
            .count();
        let _ = buffer.drain_prioritised(); // the cycle is consumed
        espread_telemetry::count("cmt.pkt_src.frames_dropped", dropped as u64);
        espread_telemetry::count("cmt.pkt_src.frames_network_lost", network_lost as u64);
        espread_telemetry::count("cmt.pkt_src.resends", resends);

        CycleOutcome {
            metrics: ContinuityMetrics::of(&pattern),
            pattern,
            dropped,
            network_lost,
            resends,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espread_netsim::{GilbertModel, SimDuration};
    use espread_trace::{Frame, FrameType};

    fn staged_buffer(b_count: usize) -> PriorityBuffer {
        let mut buf = PriorityBuffer::new();
        buf.push(
            Frame {
                index: 0,
                frame_type: FrameType::I,
                size_bytes: 1000,
            },
            u64::MAX,
        );
        for i in 0..b_count {
            buf.push(
                Frame {
                    index: i + 1,
                    frame_type: FrameType::B,
                    size_bytes: 300,
                },
                u64::MAX,
            );
        }
        buf
    }

    fn lossless_link() -> Link {
        Link::new(
            1_000_000,
            SimDuration::from_millis(5),
            GilbertModel::new(1.0, 0.0, 0),
        )
    }

    #[test]
    fn lossless_cycle_is_clean() {
        let mut src = PktSrc::new(lossless_link(), BFrameOrdering::Ibo, 2048, 28);
        let mut buf = staged_buffer(7);
        let out = src.send_cycle(&mut buf, SimTime::ZERO, SimTime::from_micros(10_000_000));
        assert_eq!(out.metrics.clf(), 0);
        assert_eq!(out.dropped, 0);
        assert_eq!(out.network_lost, 0);
        assert_eq!(out.resends, 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn deadline_pressure_drops_b_frames_first() {
        // 8 kbps link: 1000 B I-frame ≈ 1.03 s; B frames won't fit a 1.5 s
        // deadline after it.
        let link = Link::new(8_000, SimDuration::ZERO, GilbertModel::new(1.0, 0.0, 0));
        let mut src = PktSrc::new(link, BFrameOrdering::Ibo, 2048, 28);
        let mut buf = staged_buffer(4);
        let out = src.send_cycle(&mut buf, SimTime::ZERO, SimTime::from_micros(1_500_000));
        assert!(out.dropped > 0);
        // The I frame (playout 0) made it.
        assert!(out.pattern.is_received(0));
    }

    #[test]
    fn bursty_loss_hits_interleavers_less_than_in_order() {
        // Bursty channel: both interleavers (IBO and CPO) must beat the
        // unscrambled order on mean CLF, and CPO must stay within noise of
        // IBO (their single-burst worst cases are compared exactly in
        // `ordering::tests::cpo_never_worse_than_ibo`).
        let run = |ordering: BFrameOrdering, seed: u64| {
            let link = Link::new(
                10_000_000,
                SimDuration::ZERO,
                GilbertModel::new(0.85, 0.75, seed),
            );
            let mut src = PktSrc::new(link, ordering, 2048, 28);
            let mut buf = staged_buffer(16);
            src.send_cycle(&mut buf, SimTime::ZERO, SimTime::from_micros(60_000_000))
                .metrics
                .clf()
        };
        let mut in_order_total = 0usize;
        let mut ibo_total = 0usize;
        let mut cpo_total = 0usize;
        for seed in 0..40 {
            in_order_total += run(BFrameOrdering::InOrder, seed);
            ibo_total += run(BFrameOrdering::Ibo, seed);
            cpo_total += run(BFrameOrdering::Cpo { burst: 4 }, seed);
        }
        assert!(
            cpo_total < in_order_total,
            "CPO {cpo_total} vs in-order {in_order_total}"
        );
        assert!(
            ibo_total < in_order_total,
            "IBO {ibo_total} vs in-order {in_order_total}"
        );
        assert!(
            cpo_total as f64 <= ibo_total as f64 * 1.2,
            "CPO {cpo_total} vs IBO {ibo_total}"
        );
    }

    #[test]
    fn multi_fragment_frames_counted_once() {
        let dead = Link::new(1_000_000, SimDuration::ZERO, GilbertModel::new(0.0, 1.0, 0));
        let mut src = PktSrc::new(dead, BFrameOrdering::Ibo, 512, 28);
        let mut buf = staged_buffer(0); // just the 1000 B I-frame: 2 frags
        let out = src.send_cycle(&mut buf, SimTime::ZERO, SimTime::from_micros(10_000_000));
        assert_eq!(out.network_lost, 1);
        assert_eq!(out.pattern.lost(), 1);
    }

    #[test]
    fn cyclic_udp_recovers_with_leftover_bandwidth() {
        // A lossy channel with plenty of cycle time: Cyclic-UDP rounds
        // must strictly reduce residual loss versus single-shot.
        let run = |strategy: SendStrategy, seed: u64| {
            let link = Link::new(
                1_000_000,
                SimDuration::ZERO,
                GilbertModel::new(0.90, 0.5, seed),
            );
            let mut src = PktSrc::new(link, BFrameOrdering::Cpo { burst: 3 }, 2048, 28);
            let mut buf = staged_buffer(10);
            src.send_cycle_with(
                &mut buf,
                SimTime::ZERO,
                SimTime::from_micros(5_000_000),
                strategy,
            )
        };
        let mut single_lost = 0;
        let mut cyclic_lost = 0;
        let mut cyclic_resends = 0;
        for seed in 0..20 {
            single_lost += run(SendStrategy::Single, seed).pattern.lost();
            let out = run(SendStrategy::CyclicUdp { max_rounds: 4 }, seed);
            cyclic_lost += out.pattern.lost();
            cyclic_resends += out.resends;
        }
        assert!(
            cyclic_lost < single_lost,
            "cyclic {cyclic_lost} vs single {single_lost}"
        );
        assert!(cyclic_resends > 0);
    }

    #[test]
    fn cyclic_udp_respects_deadline() {
        // A starved link: rounds cannot exceed the cycle budget.
        let link = Link::new(8_000, SimDuration::ZERO, GilbertModel::new(0.0, 1.0, 0));
        let mut src = PktSrc::new(link, BFrameOrdering::Ibo, 2048, 28);
        let mut buf = staged_buffer(2);
        let out = src.send_cycle_with(
            &mut buf,
            SimTime::ZERO,
            SimTime::from_micros(1_100_000), // fits ~1 I frame
            SendStrategy::CyclicUdp { max_rounds: 10 },
        );
        // The B frames never fit; the I frame was attempted but lost.
        assert!(out.dropped >= 1);
        assert!(out.pattern.lost() >= 2);
    }

    #[test]
    fn strategy_display() {
        assert_eq!(SendStrategy::Single.to_string(), "single-shot");
        assert_eq!(
            SendStrategy::CyclicUdp { max_rounds: 3 }.to_string(),
            "cyclic-UDP (≤3 rounds)"
        );
    }
}
