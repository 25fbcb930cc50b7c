//! A worker event loop over one shard of the connection table.
//!
//! The demux thread owns the socket's receive side and routes each
//! decoded datagram to the shard that owns its connection
//! (`conn_id % workers`). A shard owns its sessions outright, each
//! [`SessionCore`] beside its peer's address, so no lock is taken on the
//! datagram path. [`Shard::run`] is the session path's only clock read
//! and only send: it hands each session call the time, then sends what
//! the call queued to the peer, in encode order, and folds the call's
//! effects into the counters and the flight recorder, before the next
//! call.
//! Sessions keep their own deadlines ([`SessionCore::next_deadline`]),
//! so a cancelled timer cannot wake the shard.
//!
//! Each loop iteration makes one pass over the sessions: fire due timers
//! in `(deadline, conn)` order, pump paced transmissions, reap finished
//! sessions (reporting their conn-ids back to the demux so the ids can
//! be reused), then park on the event channel until the earliest live
//! deadline, or until an event arrives when no session has one. Shutdown
//! reaches a parked shard as a disconnected channel.

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::session::{earliest, us, Ctx, OutQueue, SessionCore, Status};
use crate::telem::ServerTelem;
use crate::wire::Msg;

/// Work routed to a shard by the demux thread.
pub(crate) enum ShardEvent {
    /// A freshly accepted session to adopt into the table, and the
    /// address its datagrams go to.
    Open(SocketAddr, Box<SessionCore>),
    /// A decoded control datagram for a session this shard owns.
    Msg {
        /// Connection id (already `% workers`-routed to this shard).
        conn: u32,
        /// The decoded message.
        msg: Msg,
        /// Arrival time on the session clock (RTT samples use it).
        at: u64,
    },
}

/// One worker event loop; `run` consumes it on the shard thread.
pub(crate) struct Shard {
    pub(crate) rx: Receiver<ShardEvent>,
    pub(crate) socket: Arc<UdpSocket>,
    /// The server epoch the session clock counts µs from.
    pub(crate) epoch: Instant,
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Reports reaped conn-ids back to the demux for id reuse.
    pub(crate) reaped: Sender<u32>,
    /// Live-session gauge shared with the server handle (incremented by
    /// the demux on accept, decremented here on reap).
    pub(crate) live_gauge: Arc<AtomicUsize>,
    pub(crate) telem: ServerTelem,
}

/// A session and the address its datagrams go to.
struct Entry {
    peer: SocketAddr,
    core: SessionCore,
}

/// A shard's sessions, the books their effects fold into, and the
/// reusable buffers of one pass over them.
struct Table {
    telem: ServerTelem,
    sessions: HashMap<u32, Entry>,
    /// The datagrams of the session call in progress.
    out: OutQueue,
    /// Due timers of the current pass, as `(deadline, conn)`.
    timers: Vec<(u64, u32)>,
    /// Sessions with anything due in the current pass.
    due: Vec<u32>,
    /// Sessions that ended since the last reap.
    finished: Vec<u32>,
}

impl Table {
    fn new(telem: ServerTelem) -> Self {
        Table {
            telem,
            sessions: HashMap::new(),
            out: OutQueue::default(),
            timers: Vec::new(),
            due: Vec::new(),
            finished: Vec::new(),
        }
    }

    /// Runs `f` on session `conn` at `now`, then hands each datagram it
    /// queued to `send` with the session's peer, in encode order, and
    /// folds each effect it reported. A session that finished is left in
    /// `finished` for the reap. `None` when `conn` is not in the table.
    fn call(
        &mut self,
        conn: u32,
        now: u64,
        send: &mut impl FnMut(SocketAddr, &[u8]),
        f: impl FnOnce(&mut SessionCore, &mut Ctx<'_>) -> Status,
    ) -> Option<Status> {
        let entry = self.sessions.get_mut(&conn)?;
        let status = f(
            &mut entry.core,
            &mut Ctx {
                now,
                out: &mut self.out,
            },
        );
        self.out.drain(|datagram| send(entry.peer, datagram));
        let telem = &self.telem;
        self.out.drain_effects(|at, effect| telem.fold(at, effect));
        if status == Status::Finished {
            self.finished.push(conn);
        }
        Some(status)
    }

    /// One pass at `now`: fires due timers in `(deadline, conn)` order,
    /// then pumps paced transmissions, each call's datagrams going to
    /// `send`. Returns the earliest live deadline, `None` when every
    /// session only waits for datagrams.
    fn pass(&mut self, now: u64, send: &mut impl FnMut(SocketAddr, &[u8])) -> Option<u64> {
        self.timers.clear();
        self.due.clear();
        let mut wake = None;
        for (&conn, entry) in &self.sessions {
            match entry.core.next_deadline() {
                Some(t) if t <= now => {
                    self.due.push(conn);
                    if let Some(t) = entry.core.timer_at().filter(|&t| t <= now) {
                        self.timers.push((t, conn));
                    }
                }
                later => wake = earliest(wake, later),
            }
        }
        self.timers.sort_unstable();
        for i in 0..self.timers.len() {
            let conn = self.timers[i].1;
            self.call(conn, now, send, |c, ctx| c.on_deadline(ctx));
        }
        // A session whose send clock is not due pumps nothing.
        for i in 0..self.due.len() {
            let conn = self.due[i];
            self.call(conn, now, send, |c, ctx| c.on_tick(ctx));
            if let Some(entry) = self.sessions.get(&conn) {
                wake = earliest(wake, entry.core.next_deadline());
            }
        }
        wake
    }
}

impl Shard {
    pub(crate) fn run(self) {
        let mut table = Table::new(self.telem.clone());
        let clock = || us(self.epoch.elapsed());
        let mut send = |peer, datagram: &[u8]| self.telem.send_to(&self.socket, datagram, peer);
        while !self.shutdown.load(AtomicOrdering::SeqCst) {
            let wake = table.pass(clock(), &mut send);
            // Reap immediately: the table must not grow with completed
            // sessions.
            self.reap(&mut table);

            // Park until the earliest live deadline, waking early for
            // routed datagrams; with no deadline, until one arrives.
            let mut next = match wake {
                None => match self.rx.recv() {
                    Ok(ev) => Some(ev),
                    Err(_) => break,
                },
                Some(t) => match t.saturating_sub(clock()) {
                    // Work is still due (a batch-bounded pump): drain
                    // whatever queued without parking.
                    0 => self.rx.try_recv().ok(),
                    wait => match self.rx.recv_timeout(Duration::from_micros(wait)) {
                        Ok(ev) => Some(ev),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => break,
                    },
                },
            };
            self.telem.shard_wakeups.inc();
            while let Some(ev) = next {
                let now = clock();
                match ev {
                    ShardEvent::Open(peer, core) => {
                        let conn = core.conn_id();
                        table.sessions.insert(conn, Entry { peer, core: *core });
                        table.call(conn, now, &mut send, SessionCore::start);
                    }
                    // Unknown conn: already reaped — stale datagram.
                    ShardEvent::Msg { conn, msg, at } => {
                        table.call(conn, now, &mut send, |c, ctx| c.on_msg(&msg, at, ctx));
                    }
                }
                next = self.rx.try_recv().ok();
            }
            self.reap(&mut table);
        }
        // Shutdown: sessions die with the table; the gauge reflects it.
        self.live_gauge
            .fetch_sub(table.sessions.len(), AtomicOrdering::SeqCst);
    }

    /// Removes every finished session from the table and reports its
    /// conn-id back to the demux for reuse.
    fn reap(&self, table: &mut Table) {
        for conn in table.finished.drain(..) {
            if table.sessions.remove(&conn).is_some() {
                self.live_gauge.fetch_sub(1, AtomicOrdering::SeqCst);
                self.telem.sessions_reaped.inc();
                let _ = self.reaped.send(conn);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! Per-session deadlines driven through [`Table::pass`] under
    //! arbitrary integer clock steps. Sent datagrams are decoded in send
    //! order, so the tests see the order sessions fired in.

    use std::collections::HashMap;
    use std::time::Duration;

    use espread_protocol::{FecPolicy, ProtocolConfig, StreamSource};
    use espread_telemetry::{with_current, Registry};
    use espread_trace::{Movie, MpegTrace};
    use proptest::prelude::*;

    use super::*;
    use crate::obsrec::SessionRecorder;
    use crate::retry::RetryPolicy;
    use crate::session::SessionLimits;
    use crate::wire::{self, WindowAckMsg};

    /// `n` ms on the session clock.
    fn ms(n: u64) -> u64 {
        n * 1_000
    }

    fn policy(attempts: u32, base: u64, max: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: attempts,
            base: Duration::from_millis(base),
            max: Duration::from_millis(max.max(base)),
        }
    }

    /// A one-window session opened at `at`.
    fn session(conn: u32, retry: RetryPolicy, at: u64) -> SessionCore {
        let trace = MpegTrace::new(Movie::JurassicPark, 1);
        SessionCore::new(
            conn,
            ProtocolConfig::paper(0.6, 1),
            StreamSource::mpeg(&trace, 1, 1, false),
            retry,
            Duration::ZERO,
            FecPolicy::off(),
            SessionLimits::unlimited(),
            at,
        )
    }

    /// Session `conn`'s peer: a distinct port per session, so a datagram
    /// sent to the wrong peer shows.
    fn peer(conn: u32) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], 10_000 + conn as u16))
    }

    struct Rig {
        table: Table,
        /// `(conn, msg)` of every datagram sent since the last drain.
        sent: Vec<(u32, Msg)>,
    }

    impl Default for Rig {
        fn default() -> Self {
            Rig {
                table: Table::new(ServerTelem::new(SessionRecorder::disabled())),
                sent: Vec::new(),
            }
        }
    }

    /// Decodes one sent datagram, checking it went to its session's peer.
    fn record(sent: &mut Vec<(u32, Msg)>, to: SocketAddr, datagram: &[u8]) {
        let (conn, msg) = wire::decode(datagram).expect("server datagrams decode");
        assert_eq!(to, peer(conn), "sent to another session's peer");
        sent.push((conn, msg));
    }

    impl Rig {
        fn call(
            &mut self,
            conn: u32,
            now: u64,
            f: impl FnOnce(&mut SessionCore, &mut Ctx<'_>) -> Status,
        ) -> Status {
            let sent = &mut self.sent;
            self.table
                .call(conn, now, &mut |to, d| record(sent, to, d), f)
                .expect("live session")
        }

        /// Adds a one-window session that is accepted and begun at `at`
        /// and pumped until its window closes, so its first ACK deadline
        /// is `at + retry.backoff(0)`.
        fn open(&mut self, conn: u32, retry: RetryPolicy, at: u64) {
            let core = session(conn, retry, at);
            let peer = peer(conn);
            self.table.sessions.insert(conn, Entry { peer, core });
            self.call(conn, at, SessionCore::start);
            self.call(conn, at, |c, ctx| c.on_msg(&Msg::Begin, at, ctx));
            while self.table.sessions[&conn].core.timer_at().is_none() {
                self.call(conn, at, SessionCore::on_tick);
            }
            let armed = self.table.sessions[&conn].core.timer_at();
            assert_eq!(armed, Some(at + us(retry.backoff(0))));
            self.drain();
        }

        /// One pass at `now` and the reap; returns the pass's wake-up
        /// deadline and the conns it finished.
        fn pass(&mut self, now: u64) -> (Option<u64>, Vec<u32>) {
            let sent = &mut self.sent;
            let wake = self.table.pass(now, &mut |to, d| record(sent, to, d));
            let finished: Vec<u32> = self.table.finished.drain(..).collect();
            for conn in &finished {
                self.table.sessions.remove(conn);
            }
            (wake, finished)
        }

        /// `(conn, msg)` of every datagram sent since the last drain, in
        /// send order.
        fn drain(&mut self) -> Vec<(u32, Msg)> {
            std::mem::take(&mut self.sent)
        }

        fn timers(&self) -> HashMap<u32, Option<u64>> {
            self.table
                .sessions
                .iter()
                .map(|(&conn, entry)| (conn, entry.core.timer_at()))
                .collect()
        }
    }

    /// Regression: `send_to` failures used to be `let _ =` discarded.
    /// Port 0 is an invalid destination on Linux, so every datagram the
    /// shard drains for the session fails — each failure must be
    /// counted, none may panic or stall the state machine.
    #[test]
    fn send_failures_are_counted_not_discarded() {
        let registry = Registry::new();
        let telem = with_current(&registry, || ServerTelem::new(SessionRecorder::disabled()));
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut table = Table::new(telem.clone());
        let core = session(1, RetryPolicy::lan(), 0);
        let peer = SocketAddr::from(([127, 0, 0, 1], 0));
        table.sessions.insert(1, Entry { peer, core });
        let mut produced = 0;
        let mut send = |to, datagram: &[u8]| {
            produced += 1;
            telem.send_to(&socket, datagram, to);
        };
        table.call(1, 0, &mut send, SessionCore::start);
        table.call(1, 0, &mut send, |c, ctx| c.on_msg(&Msg::Begin, 0, ctx));
        for _ in 0..100 {
            if table.sessions[&1].core.awaits_ack() {
                break;
            }
            table.pass(0, &mut send);
        }
        assert!(
            table.sessions[&1].core.awaits_ack(),
            "a session whose sends all fail still walks its schedule"
        );
        assert!(produced > 0);
        assert_eq!(
            registry.counter("net.server.send_errors").get(),
            produced,
            "every failed datagram send must be counted"
        );
        assert_eq!(registry.counter("net.server.datagrams_tx").get(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Sessions with different retry policies fire and re-arm while
        /// the clock advances in arbitrary steps. Each re-armed deadline
        /// lies exactly `backoff(attempt)` past the pass that fired it:
        /// `max_attempts` waits for the unacked `WindowEnd`, then as many
        /// for the unacked `Bye`. Due sessions fire in `(deadline, conn)`
        /// order, one datagram each (none for a final `Bye` attempt); a
        /// deadline not yet due is untouched; and the pass wakes at the
        /// earliest live deadline.
        #[test]
        fn resends_follow_the_backoff_and_fire_in_deadline_order(
            sessions in proptest::collection::vec((2u32..5, 1u64..20, 1u64..40, 0u64..30), 1..8),
            steps in proptest::collection::vec(1u64..25, 1..40),
        ) {
            let t0 = ms(1);
            let mut rig = Rig::default();
            let mut gaps: HashMap<u32, Vec<u64>> = HashMap::new();
            let mut sent: HashMap<u32, (u32, u32)> = HashMap::new();
            for (i, &(attempts, base, max, offset)) in sessions.iter().enumerate() {
                rig.open(i as u32, policy(attempts, base, max), t0 + ms(offset));
                gaps.insert(i as u32, vec![ms(base)]);
            }
            let max_attempts = sessions.iter().map(|s| s.0).max().unwrap_or(0);
            let tail = std::iter::repeat_n(10_000, 2 * max_attempts as usize + 1);
            let mut now = t0;
            for step in steps.iter().copied().chain(tail) {
                now += ms(step);
                let before = rig.timers();
                let mut due: Vec<(u64, u32)> = before
                    .iter()
                    .filter_map(|(&conn, t)| t.filter(|&t| t <= now).map(|t| (t, conn)))
                    .collect();
                due.sort_unstable();
                let (wake, finished) = rig.pass(now);
                let after = rig.timers();
                let senders: Vec<u32> = due.iter().map(|d| d.1).filter(|c| !finished.contains(c)).collect();
                let msgs = rig.drain();
                prop_assert_eq!(msgs.iter().map(|m| m.0).collect::<Vec<_>>(), senders);
                for (conn, msg) in msgs {
                    let (ends, byes) = sent.entry(conn).or_default();
                    match msg {
                        Msg::WindowEnd(_) => *ends += 1,
                        Msg::Bye(_) => *byes += 1,
                        other => prop_assert!(false, "unexpected {other:?}"),
                    }
                }
                for (conn, was) in before {
                    let due = was.is_some_and(|t| t <= now);
                    prop_assert!(due || !finished.contains(&conn));
                    match after.get(&conn) {
                        Some(&Some(is)) if due => gaps.get_mut(&conn).unwrap().push(is - now),
                        Some(&is) => prop_assert_eq!(is, was, "a deadline not due moved"),
                        None => {}
                    }
                }
                prop_assert_eq!(wake, after.values().flatten().min().copied());
            }
            prop_assert!(rig.table.sessions.is_empty(), "schedules never ran out");
            for (i, &(attempts, base, max, _)) in sessions.iter().enumerate() {
                let p = policy(attempts, base, max);
                let schedule: Vec<u64> = (0..attempts).map(|a| us(p.backoff(a))).collect();
                prop_assert_eq!(&gaps[&(i as u32)], &[schedule.clone(), schedule].concat());
                prop_assert_eq!(sent[&(i as u32)], (attempts - 1, attempts), "(WindowEnd resends, Byes)");
            }
        }

        /// Some sessions are acked before their first ACK deadline, which
        /// re-arms it as the `Bye` wait; some are acked and `ByeAck`ed,
        /// which disarms it; the rest stay silent. A pass at each old
        /// deadline's exact instant fires only what is live by then, and
        /// no acked session ever resends a `WindowEnd`.
        #[test]
        fn disarmed_or_rearmed_deadlines_never_fire_at_their_old_instant(
            sessions in proptest::collection::vec((0u64..20, 1u64..8, 0u8..3), 1..8),
        ) {
            let t0 = ms(1);
            let mut rig = Rig::default();
            let p = policy(3, 8, 64);
            let mut old: Vec<(u64, u32)> = Vec::new();
            for (i, &(offset, ack_after, action)) in sessions.iter().enumerate() {
                let conn = i as u32;
                let opened = t0 + ms(offset);
                rig.open(conn, p, opened);
                old.push((opened + us(p.backoff(0)), conn));
                let acked = opened + ms(ack_after);
                let ack = Msg::WindowAck(WindowAckMsg {
                    ack_seq: 1,
                    window: 0,
                    echo_us: 0,
                    per_layer_burst: Vec::new(),
                });
                if action > 0 {
                    rig.call(conn, acked, |c, ctx| c.on_msg(&ack, acked, ctx));
                    prop_assert_eq!(rig.table.sessions[&conn].core.timer_at(), Some(acked + us(p.backoff(0))));
                }
                if action > 1 {
                    let status = rig.call(conn, acked, |c, ctx| c.on_msg(&Msg::ByeAck, acked, ctx));
                    prop_assert_eq!(status, Status::Finished);
                    prop_assert_eq!(rig.table.sessions[&conn].core.next_deadline(), None);
                }
            }
            rig.drain();
            old.sort_unstable();
            for &(instant, conn) in &old {
                let live = rig.timers();
                rig.pass(instant);
                for (sender, msg) in rig.drain() {
                    prop_assert!(live[&sender].is_some_and(|t| t <= instant), "{} fired early", sender);
                    let silent = sessions[sender as usize].2 == 0;
                    prop_assert!(silent || !matches!(msg, Msg::WindowEnd(_)), "acked {} resent a WindowEnd", sender);
                }
                if sessions[conn as usize].2 > 0 {
                    let kept = rig.table.sessions.get(&conn).and_then(|e| e.core.timer_at());
                    prop_assert!(kept.is_none_or(|t| t > instant), "{} kept its old deadline", conn);
                }
            }
        }
    }
}
