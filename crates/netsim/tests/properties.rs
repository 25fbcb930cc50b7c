//! Property-based tests for the simulator's physical invariants.

use espread_netsim::{DuplexChannel, EventQueue, GilbertModel, Link, Packet, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Deliveries never precede their send time by less than the physical
    /// minimum (serialisation + propagation), and the link stays FIFO.
    #[test]
    fn link_is_causal_and_fifo(
        bandwidth in 1_000u64..10_000_000,
        prop_ms in 0u64..200,
        sizes in prop::collection::vec(1u32..10_000, 1..40),
        seed in any::<u64>(),
        p_bad in 0.0f64..1.0,
    ) {
        let mut link = Link::new(
            bandwidth,
            SimDuration::from_millis(prop_ms),
            GilbertModel::new(0.9, p_bad, seed),
        );
        let mut last_arrival = SimTime::ZERO;
        let mut now = SimTime::ZERO;
        for (i, &size) in sizes.iter().enumerate() {
            let sent = now;
            let outcome = link.transmit(now, Packet::new(i as u64, size, sent, i));
            if let Some(d) = outcome.delivered() {
                let min_latency = SimDuration::serialization(size, bandwidth)
                    + SimDuration::from_millis(prop_ms);
                prop_assert!(d.arrived_at.as_micros() >= sent.as_micros() + min_latency.as_micros() - 1);
                // FIFO: arrivals are monotone.
                prop_assert!(d.arrived_at >= last_arrival);
                last_arrival = d.arrived_at;
            }
            now += SimDuration::from_micros(u64::from(size) % 777);
        }
        let s = link.stats();
        prop_assert_eq!(s.offered, sizes.len() as u64);
        prop_assert_eq!(s.offered, s.delivered + s.lost);
    }

    /// Same seed ⇒ identical loss pattern; the channel is reproducible.
    #[test]
    fn channel_deterministic(seed in any::<u64>(), count in 1usize..200) {
        let mk = || {
            let mut ch: DuplexChannel<usize, ()> = DuplexChannel::new(
                Link::new(1_200_000, SimDuration::from_millis(11), GilbertModel::paper(0.6, seed)),
                Link::new(64_000, SimDuration::from_millis(11), GilbertModel::paper(0.6, seed ^ 1)),
            );
            for i in 0..count {
                ch.send_data(SimTime::ZERO, 2048, i);
            }
            ch.poll_data(SimTime::from_micros(u64::MAX / 2))
                .map(|d| d.packet.payload)
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(mk(), mk());
    }

    /// The event queue drains in nondecreasing time order regardless of
    /// insertion order, and any interleaving of `schedule`, `pop` and
    /// `drain_until` yields exactly the order of a stable sort of the live
    /// entries by time.
    #[test]
    fn event_queue_sorted(
        times in prop::collection::vec(0u64..1_000, 0..100),
        ops in prop::collection::vec(queue_op(), 0..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut seen = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            seen += 1;
        }
        prop_assert_eq!(seen, times.len());

        // Reference: the live entries in schedule order; a stable sort by
        // time gives the order the queue must yield them in.
        let mut live: Vec<(SimTime, usize)> = Vec::new();
        for (id, op) in ops.into_iter().enumerate() {
            match op {
                QueueOp::Schedule(t) => {
                    q.schedule(SimTime::from_micros(t), id);
                    live.push((SimTime::from_micros(t), id));
                }
                QueueOp::Pop => {
                    let expected = live
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(t, _))| t)
                        .map(|(i, _)| i)
                        .map(|i| live.remove(i));
                    prop_assert_eq!(q.pop(), expected);
                }
                QueueOp::Drain(now) => {
                    let now = SimTime::from_micros(now);
                    let mut expected: Vec<_> =
                        live.iter().copied().filter(|&(t, _)| t <= now).collect();
                    expected.sort_by_key(|&(t, _)| t);
                    live.retain(|&(t, _)| t > now);
                    let drained = q.drain_until(now);
                    prop_assert_eq!(drained.len(), expected.len());
                    prop_assert_eq!(drained.collect::<Vec<_>>(), expected);
                }
            }
            prop_assert_eq!(q.len(), live.len());
            prop_assert_eq!(q.peek_time(), live.iter().map(|&(t, _)| t).min());
        }
    }

    /// On a jittered (reordering) link, each `poll_data` yields exactly the
    /// deliveries due by then, stably sorted by arrival time.
    #[test]
    fn jittered_channel_polls_in_stable_arrival_order(
        seed in any::<u64>(),
        jitter_ms in 0u64..60,
        steps in prop::collection::vec((1u32..4_000, 0u64..20_000, any::<bool>()), 1..80),
    ) {
        let data = Link::new(1_200_000, SimDuration::from_millis(11), GilbertModel::paper(0.6, seed))
            .with_jitter(SimDuration::from_millis(jitter_ms), seed ^ 7);
        // An identical link outside the channel reports every delivery.
        let mut mirror = data.clone();
        let mut ch: DuplexChannel<usize, ()> = DuplexChannel::new(
            data,
            Link::new(64_000, SimDuration::from_millis(11), GilbertModel::new(1.0, 0.0, 0)),
        );
        let mut pending: Vec<(u64, SimTime)> = Vec::new();
        let mut now = SimTime::ZERO;
        for (i, &(size, gap_us, poll)) in steps.iter().enumerate() {
            let seq = ch.send_data(now, size, i);
            if let Some(d) = mirror.transmit(now, Packet::new(seq, size, now, i)).delivered() {
                pending.push((seq, d.arrived_at));
            }
            now += SimDuration::from_micros(gap_us);
            if poll {
                check_poll(&mut ch, &mut pending, now)?;
            }
        }
        check_poll(&mut ch, &mut pending, SimTime::from_micros(u64::MAX / 2))?;
        prop_assert!(pending.is_empty());
    }

    /// Gilbert chains hit their steady-state loss rate within tolerance for
    /// moderate parameters.
    #[test]
    fn gilbert_steady_state(p_good in 0.5f64..0.99, p_bad in 0.1f64..0.9, seed in any::<u64>()) {
        let mut m = GilbertModel::new(p_good, p_bad, seed);
        let expected = m.steady_state_loss();
        let n = 60_000;
        let lost = (0..n).filter(|_| !m.step_delivers()).count();
        let observed = lost as f64 / n as f64;
        // Loose tolerance: chains with long bursts mix slowly.
        prop_assert!((observed - expected).abs() < 0.05,
            "observed {observed} expected {expected} (pg={p_good} pb={p_bad})");
    }
}

#[derive(Debug, Clone)]
enum QueueOp {
    Schedule(u64),
    Pop,
    Drain(u64),
}

/// Polls `ch` at `now` and checks the arrivals against `pending`, the
/// `(seq, arrived_at)` of deliveries not yet polled in send order: the
/// poll must yield those due by `now`, stably sorted by arrival time.
fn check_poll(
    ch: &mut DuplexChannel<usize, ()>,
    pending: &mut Vec<(u64, SimTime)>,
    now: SimTime,
) -> Result<(), TestCaseError> {
    let mut expected: Vec<_> = pending
        .iter()
        .copied()
        .filter(|&(_, at)| at <= now)
        .collect();
    expected.sort_by_key(|&(_, at)| at);
    pending.retain(|&(_, at)| at > now);
    let polled = ch.poll_data(now);
    prop_assert_eq!(polled.len(), expected.len());
    let polled: Vec<_> = polled.map(|d| (d.packet.seq, d.arrived_at)).collect();
    prop_assert_eq!(polled, expected);
    Ok(())
}

/// Three schedules in five, over a narrow time range so equal and out-of-order
/// times are common.
fn queue_op() -> impl Strategy<Value = QueueOp> {
    (0u8..5, 0u64..40).prop_map(|(kind, t)| match kind {
        0 => QueueOp::Pop,
        1 => QueueOp::Drain(t),
        _ => QueueOp::Schedule(t),
    })
}
