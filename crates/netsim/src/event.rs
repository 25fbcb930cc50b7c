//! A deterministic time-ordered event queue.
//!
//! Events leave in time order, and events scheduled for the same instant
//! leave in the order they were scheduled. The queue is one ring kept
//! sorted by time: [`EventQueue::schedule`] appends in O(1) when the new
//! event is not earlier than the last one — always the case on a
//! jitter-free FIFO [`Link`](crate::Link) — and otherwise walks back from
//! the end, costing O(k) for an event that lands k places early. Popping
//! and draining take from the front without allocating.

use std::collections::vec_deque::{Drain, VecDeque};

use crate::time::SimTime;

/// A queue of events ordered by time, with FIFO order among events
/// scheduled for the same instant — the determinism guarantee every
/// simulation in this workspace relies on.
///
/// # Example
///
/// ```
/// use espread_netsim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_micros(20), "second");
/// q.schedule(SimTime::from_micros(10), "first");
/// q.schedule(SimTime::from_micros(20), "third"); // same time: FIFO
///
/// assert_eq!(q.pop().unwrap().1, "first");
/// assert_eq!(q.pop().unwrap().1, "second");
/// assert_eq!(q.pop().unwrap().1, "third");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    ring: VecDeque<(SimTime, E)>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            ring: VecDeque::new(),
        }
    }

    /// Schedules `event` to fire at `at`, after every pending event due
    /// at or before `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        if self.ring.back().is_none_or(|&(last, _)| last <= at) {
            self.ring.push_back((at, event));
            return;
        }
        let mut i = self.ring.len() - 1;
        while i > 0 && self.ring[i - 1].0 > at {
            i -= 1;
        }
        self.ring.insert(i, (at, event));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.ring.pop_front()
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.ring.front().map(|&(at, _)| at)
    }

    /// Removes every event scheduled at or before `now` and yields them in
    /// order. Events the iterator has not yielded when it is dropped are
    /// discarded.
    pub fn drain_until(&mut self, now: SimTime) -> Drain<'_, (SimTime, E)> {
        let due = self.ring.partition_point(|&(at, _)| at <= now);
        self.ring.drain(..due)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.ring.len())
            .field("next", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), 'b');
        q.schedule(SimTime::from_micros(1), 'a');
        q.schedule(SimTime::from_micros(5), 'c');
        q.schedule(SimTime::from_micros(9), 'd');
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn appends_at_the_back_and_inserts_early_events_in_order() {
        let mut q = EventQueue::new();
        for (t, e) in [(1, 'a'), (4, 'b'), (4, 'c'), (7, 'd')] {
            q.schedule(SimTime::from_micros(t), e); // not earlier: appended
        }
        q.schedule(SimTime::from_micros(7), 'e'); // equal to the back: after it
        q.schedule(SimTime::from_micros(4), 'f'); // early: after the other 4s
        q.schedule(SimTime::from_micros(0), 'g'); // earliest: at the front
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!['g', 'a', 'b', 'c', 'f', 'd', 'e']);
    }

    #[test]
    fn drain_until_splits_at_now() {
        let mut q = EventQueue::new();
        for t in [3u64, 1, 4, 1, 5, 9, 2, 6] {
            q.schedule(SimTime::from_micros(t), t);
        }
        let early: Vec<u64> = q
            .drain_until(SimTime::from_micros(4))
            .map(|(_, e)| e)
            .collect();
        assert_eq!(early, vec![1, 1, 2, 3, 4]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.drain_until(SimTime::from_micros(100)).len(), 0);
    }

    #[test]
    fn debug_output() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(2), ());
        let text = format!("{q:?}");
        assert!(text.contains("pending: 1"));
    }
}
