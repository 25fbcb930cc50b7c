//! The bounded, lock-cheap flight recorder.
//!
//! A [`FlightRecorder`] owns a preallocated ring of [`ObsEvent`]s behind a
//! `Mutex`. The steady-state [`record`](FlightRecorder::record) path takes
//! the lock, reads the monotonic clock, and stores one `Copy` struct into
//! a slot that already exists; [`record_at`](FlightRecorder::record_at)
//! stores a timestamp its caller already read from the recorder's
//! [`epoch`](FlightRecorder::epoch). Either way: **zero heap
//! allocations** (asserted by a counting-allocator test) and no
//! unbounded growth: when the ring is
//! full the oldest event is overwritten and a drop counter increments, so
//! a runaway session can never exhaust memory, only shorten its history.
//!
//! Recorders for the three roles of one in-process session should be
//! created together with [`trio`] so they share a single epoch `Instant`
//! — that is what makes cross-role timestamp comparisons (the
//! delivered-before-sent causality check) meaningful. Recordings from
//! different processes have unrelated epochs; [`Recording::shared_epoch`]
//! tells the reconstructor whether timing checks apply.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{EventKind, ObsEvent, Role};

/// Default ring capacity: comfortably above a multi-window loopback
/// session's event volume (a few thousand) while bounding memory at
/// `capacity × size_of::<ObsEvent>()` ≈ 512 KiB.
pub const DEFAULT_CAPACITY: usize = 16_384;

/// A bounded per-session event recorder for one role. Cloning shares the
/// same ring (it is an `Arc` underneath), so a recorder can be handed to
/// the threads of the node it observes.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    role: Role,
    session: u32,
    shared_epoch: bool,
    epoch: Instant,
    ring: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    /// Preallocated storage; never grows after construction.
    buf: Vec<ObsEvent>,
    /// Next slot to write.
    head: usize,
    /// Events currently held (≤ capacity).
    len: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

/// An immutable snapshot of everything one recorder captured, plus the
/// metadata the reconstructor needs to interpret it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recording {
    /// Which node recorded.
    pub role: Role,
    /// Caller-chosen logical session id (distinguishes e.g. the spread
    /// and in-order runs of a compare cell).
    pub session: u32,
    /// Whether this recording's epoch is shared with its siblings (true
    /// for [`trio`]-created recorders). Timestamp causality checks are
    /// only sound across recordings that share an epoch.
    pub shared_epoch: bool,
    /// The ring capacity the recorder ran with.
    pub capacity: usize,
    /// Events overwritten after the ring filled. Nonzero means the
    /// timeline's early history is incomplete and attribution must
    /// degrade gracefully.
    pub dropped: u64,
    /// Captured events, oldest first.
    pub events: Vec<ObsEvent>,
}

impl FlightRecorder {
    /// A standalone recorder with its own epoch.
    pub fn new(role: Role, capacity: usize) -> Self {
        FlightRecorder::with_epoch(role, capacity, 0, false, Instant::now())
    }

    fn with_epoch(
        role: Role,
        capacity: usize,
        session: u32,
        shared_epoch: bool,
        epoch: Instant,
    ) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Arc::new(Inner {
                role,
                session,
                shared_epoch,
                epoch,
                ring: Mutex::new(Ring {
                    buf: vec![ObsEvent::default(); capacity],
                    head: 0,
                    len: 0,
                    dropped: 0,
                }),
            }),
        }
    }

    /// The role this recorder observes.
    pub fn role(&self) -> Role {
        self.inner.role
    }

    /// The instant this recorder's timestamps count µs from. A transport
    /// that takes it as its own clock epoch can hand its clock values
    /// straight to [`record_at`](Self::record_at).
    pub fn epoch(&self) -> Instant {
        self.inner.epoch
    }

    /// Records one event stamped now. Steady-state cost: one mutex lock,
    /// one clock read, one in-place store — no allocation, ever.
    #[inline]
    pub fn record(&self, kind: EventKind, conn: u32, window: u64, frame: u32, detail: u32) {
        let mut ring = lock(&self.inner.ring);
        // Clock read under the lock: the ring is the serialisation
        // point, so the stamps of `record` calls are monotonic in
        // insertion order across every thread that records this way.
        let t_us = self.inner.epoch.elapsed().as_micros() as u64;
        ring.push(t_us, kind, conn, window, frame, detail);
    }

    /// Records one event stamped `t_us` µs after [`epoch`](Self::epoch)
    /// by a caller that has already read its clock: one lock and one
    /// in-place store. Events keep insertion order, so the stamps are
    /// monotonic for each writer whose clock is (a server shard, a
    /// client thread), but not across writers.
    #[inline]
    pub fn record_at(
        &self,
        t_us: u64,
        kind: EventKind,
        conn: u32,
        window: u64,
        frame: u32,
        detail: u32,
    ) {
        lock(&self.inner.ring).push(t_us, kind, conn, window, frame, detail);
    }

    /// Events overwritten so far.
    pub fn dropped(&self) -> u64 {
        lock(&self.inner.ring).dropped
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        lock(&self.inner.ring).len
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots the ring into a [`Recording`], oldest event first. The
    /// recorder keeps running; this copies.
    pub fn recording(&self) -> Recording {
        let ring = lock(&self.inner.ring);
        let capacity = ring.buf.len();
        let mut events = Vec::with_capacity(ring.len);
        // Oldest event sits at `head` once the ring has wrapped, else at 0.
        let start = if ring.len == capacity { ring.head } else { 0 };
        for i in 0..ring.len {
            events.push(ring.buf[(start + i) % capacity]);
        }
        Recording {
            role: self.inner.role,
            session: self.inner.session,
            shared_epoch: self.inner.shared_epoch,
            capacity,
            dropped: ring.dropped,
            events,
        }
    }
}

impl Ring {
    /// Stores one event in the next slot, overwriting the oldest when
    /// the ring is full.
    fn push(
        &mut self,
        t_us: u64,
        kind: EventKind,
        conn: u32,
        window: u64,
        frame: u32,
        detail: u32,
    ) {
        let capacity = self.buf.len();
        self.buf[self.head] = ObsEvent {
            t_us,
            conn,
            window,
            frame,
            kind,
            detail,
        };
        self.head = (self.head + 1) % capacity;
        if self.len < capacity {
            self.len += 1;
        } else {
            self.dropped += 1;
        }
    }
}

fn lock(m: &Mutex<Ring>) -> std::sync::MutexGuard<'_, Ring> {
    // A panicking recorder thread must not silence every other role's
    // recording; the ring holds plain data, safe to keep using.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Creates the server/proxy/client recorders of one in-process session,
/// sharing a single epoch so their timestamps are directly comparable.
/// `session` tags all three recordings (dumps of several sessions can
/// share a file).
pub fn trio(capacity: usize, session: u32) -> (FlightRecorder, FlightRecorder, FlightRecorder) {
    let epoch = Instant::now();
    (
        FlightRecorder::with_epoch(Role::Server, capacity, session, true, epoch),
        FlightRecorder::with_epoch(Role::Proxy, capacity, session, true, epoch),
        FlightRecorder::with_epoch(Role::Client, capacity, session, true, epoch),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FRAME_NONE, WINDOW_NONE};

    #[test]
    fn records_in_order_with_monotonic_timestamps() {
        let rec = FlightRecorder::new(Role::Server, 64);
        for i in 0..10u32 {
            rec.record(EventKind::Sent, 1, 0, i, 0);
        }
        let recording = rec.recording();
        assert_eq!(recording.events.len(), 10);
        assert_eq!(recording.dropped, 0);
        for (i, e) in recording.events.iter().enumerate() {
            assert_eq!(e.frame, i as u32);
            assert_eq!(e.kind, EventKind::Sent);
            if i > 0 {
                assert!(e.t_us >= recording.events[i - 1].t_us);
            }
        }
    }

    #[test]
    fn record_at_keeps_the_callers_stamp_and_epoch_is_shared() {
        let (server, _, client) = trio(8, 0);
        assert_eq!(server.epoch(), client.epoch(), "one clock for the trio");
        server.record_at(40, EventKind::Sent, 1, 0, 0, 0);
        server.record_at(7, EventKind::Sent, 2, 0, 0, 0);
        let stamps: Vec<u64> = server.recording().events.iter().map(|e| e.t_us).collect();
        assert_eq!(stamps, [40, 7], "kept as given, in insertion order");
        let before = server.epoch().elapsed().as_micros() as u64;
        server.record(EventKind::Sent, 1, 0, 1, 0);
        let after = server.epoch().elapsed().as_micros() as u64;
        let stamped = server.recording().events[2].t_us;
        assert!(
            (before..=after).contains(&stamped),
            "record() reads the epoch's clock"
        );
    }

    #[test]
    fn overflow_keeps_the_newest_and_counts_drops_exactly() {
        let rec = FlightRecorder::new(Role::Client, 4);
        for i in 0..11u32 {
            rec.record(EventKind::Delivered, 1, 2, i, 0);
        }
        let recording = rec.recording();
        assert_eq!(recording.events.len(), 4);
        assert_eq!(recording.dropped, 7);
        let frames: Vec<u32> = recording.events.iter().map(|e| e.frame).collect();
        assert_eq!(frames, vec![7, 8, 9, 10], "newest survive, oldest first");
    }

    #[test]
    fn zero_capacity_is_clamped_not_panicking() {
        let rec = FlightRecorder::new(Role::Proxy, 0);
        rec.record(EventKind::DroppedControl, 0, WINDOW_NONE, FRAME_NONE, 3);
        rec.record(EventKind::DroppedControl, 0, WINDOW_NONE, FRAME_NONE, 4);
        let recording = rec.recording();
        assert_eq!(recording.capacity, 1);
        assert_eq!(recording.events.len(), 1);
        assert_eq!(recording.dropped, 1);
        assert_eq!(recording.events[0].detail, 4);
    }

    #[test]
    fn clones_share_the_ring() {
        let rec = FlightRecorder::new(Role::Server, 8);
        let clone = rec.clone();
        rec.record(EventKind::Queued, 1, 0, 0, 0);
        clone.record(EventKind::Queued, 1, 0, 1, 1);
        assert_eq!(rec.recording().events.len(), 2);
    }

    #[test]
    fn trio_shares_an_epoch_and_tags_the_session() {
        let (server, proxy, client) = trio(16, 5);
        server.record(EventKind::Sent, 1, 0, 0, 0);
        proxy.record(EventKind::ForwardedData, 1, 0, 0, 0);
        client.record(EventKind::Delivered, 1, 0, 0, 0);
        for rec in [&server, &proxy, &client] {
            let r = rec.recording();
            assert!(r.shared_epoch);
            assert_eq!(r.session, 5);
            assert_eq!(r.events.len(), 1);
        }
        assert_eq!(server.role(), Role::Server);
        assert_eq!(proxy.role(), Role::Proxy);
        assert_eq!(client.role(), Role::Client);
    }

    #[test]
    fn concurrent_writers_never_lose_counted_events() {
        let rec = FlightRecorder::new(Role::Server, 1024);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let rec = rec.clone();
                scope.spawn(move || {
                    for i in 0..200u32 {
                        rec.record(EventKind::Sent, t, 0, i, 0);
                    }
                });
            }
        });
        let recording = rec.recording();
        assert_eq!(recording.events.len() as u64 + recording.dropped, 800);
        // Each thread's own events stay in its program order.
        for t in 0..4u32 {
            let frames: Vec<u32> = recording
                .events
                .iter()
                .filter(|e| e.conn == t)
                .map(|e| e.frame)
                .collect();
            assert!(frames.windows(2).all(|w| w[0] < w[1]), "thread {t} order");
        }
    }
}
