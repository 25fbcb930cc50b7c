//! A worker event loop over one shard of the connection table.
//!
//! The demux thread owns the socket's receive side and routes each
//! decoded datagram to the shard that owns its connection
//! (`conn_id % workers`). A shard owns its sessions outright — a
//! [`HashMap<u32, SessionCore>`] and one scratch encode buffer — so no
//! lock is ever taken on the datagram path; sends go straight out the
//! shared socket (`UdpSocket::send_to` takes `&self`). Every session
//! keeps its own deadlines ([`SessionCore::next_deadline`]); the shard
//! holds no timer structure, so a cancelled timer cannot wake it.
//!
//! Each loop iteration makes one pass over the sessions: fire due timers
//! in `(deadline, conn)` order, pump paced transmissions, reap finished
//! sessions (reporting their conn-ids back to the demux so the ids can
//! be reused), then park on the event channel until the earliest live
//! deadline, or until an event arrives when no session has one. Shutdown
//! reaches a parked shard as a disconnected channel.

use std::collections::HashMap;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Instant;

use crate::session::{earliest, Ctx, SessionCore, Status};
use crate::telem::ServerTelem;
use crate::wire::Msg;

/// Work routed to a shard by the demux thread.
pub(crate) enum ShardEvent {
    /// A freshly accepted session to adopt into the table.
    Open(Box<SessionCore>),
    /// A decoded control datagram for a session this shard owns.
    Msg {
        /// Connection id (already `% workers`-routed to this shard).
        conn: u32,
        /// The decoded message.
        msg: Msg,
        /// Arrival timestamp (RTT samples use it).
        at: Instant,
    },
}

/// One worker event loop; `run` consumes it on the shard thread.
pub(crate) struct Shard {
    pub(crate) rx: Receiver<ShardEvent>,
    pub(crate) socket: Arc<UdpSocket>,
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Reports reaped conn-ids back to the demux for id reuse.
    pub(crate) reaped: Sender<u32>,
    /// Live-session gauge shared with the server handle (incremented by
    /// the demux on accept, decremented here on reap).
    pub(crate) live_gauge: Arc<AtomicUsize>,
    pub(crate) telem: ServerTelem,
}

/// A shard's sessions and the reusable buffers of one pass over them.
#[derive(Default)]
struct Table {
    sessions: HashMap<u32, SessionCore>,
    /// Due timers of the current pass, as `(deadline, conn)`.
    timers: Vec<(Instant, u32)>,
    /// Sessions with anything due in the current pass.
    due: Vec<u32>,
    /// Sessions that ended since the last reap.
    finished: Vec<u32>,
}

impl Table {
    /// One pass at `ctx.now`: fires due timers in `(deadline, conn)`
    /// order, then pumps paced transmissions. Returns the earliest live
    /// deadline, `None` when every session only waits for datagrams.
    /// Sessions that finished are left in `finished` for the reap.
    fn pass(&mut self, ctx: &mut Ctx<'_>) -> Option<Instant> {
        let now = ctx.now;
        self.timers.clear();
        self.due.clear();
        let mut wake = None;
        for (&conn, core) in &self.sessions {
            match core.next_deadline() {
                Some(t) if t <= now => {
                    self.due.push(conn);
                    if let Some(t) = core.timer_at().filter(|&t| t <= now) {
                        self.timers.push((t, conn));
                    }
                }
                later => wake = earliest(wake, later),
            }
        }
        self.timers.sort_unstable();
        for &(_, conn) in &self.timers {
            if let Some(core) = self.sessions.get_mut(&conn) {
                if core.on_deadline(ctx) == Status::Finished {
                    self.finished.push(conn);
                }
            }
        }
        // A session whose send clock is not due pumps nothing.
        for &conn in &self.due {
            if let Some(core) = self.sessions.get_mut(&conn) {
                if core.on_tick(ctx) == Status::Finished {
                    self.finished.push(conn);
                }
                wake = earliest(wake, core.next_deadline());
            }
        }
        wake
    }
}

impl Shard {
    pub(crate) fn run(self) {
        let mut table = Table::default();
        let mut scratch: Vec<u8> = Vec::with_capacity(4096);
        while !self.shutdown.load(AtomicOrdering::SeqCst) {
            let wake = table.pass(&mut Ctx {
                now: Instant::now(),
                socket: &self.socket,
                scratch: &mut scratch,
            });
            // Reap immediately: the table must not grow with completed
            // sessions.
            self.reap(&mut table);

            // Park until the earliest live deadline, waking early for
            // routed datagrams; with no deadline, until one arrives.
            let first = match wake {
                None => match self.rx.recv() {
                    Ok(ev) => Some(ev),
                    Err(_) => break,
                },
                Some(t) => match t.checked_duration_since(Instant::now()) {
                    Some(timeout) if !timeout.is_zero() => match self.rx.recv_timeout(timeout) {
                        Ok(ev) => Some(ev),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => break,
                    },
                    // Work is still due (a batch-bounded pump): drain
                    // whatever queued without parking.
                    _ => self.rx.try_recv().ok(),
                },
            };
            self.telem.on_shard_wakeup();
            let mut next = first;
            while let Some(ev) = next {
                let mut ctx = Ctx {
                    now: Instant::now(),
                    socket: &self.socket,
                    scratch: &mut scratch,
                };
                match ev {
                    ShardEvent::Open(core) => {
                        let conn = core.conn_id();
                        let core = table.sessions.entry(conn).or_insert(*core);
                        core.start(&mut ctx);
                    }
                    ShardEvent::Msg { conn, msg, at } => {
                        if let Some(core) = table.sessions.get_mut(&conn) {
                            if core.on_msg(&msg, at, &mut ctx) == Status::Finished {
                                table.finished.push(conn);
                            }
                        }
                        // Unknown conn: already reaped — stale datagram.
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
                self.telem.on_session_reaped();
                let _ = self.reaped.send(conn);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! Per-session deadlines driven through [`Table::pass`] under
    //! arbitrary clock steps. Every session sends through one socket to
    //! one sink, and loopback keeps one sender's datagrams in order, so
    //! the sink sees the order sessions fired in.

    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::Duration;

    use espread_protocol::{FecPolicy, ProtocolConfig, StreamSource};
    use espread_trace::{Movie, MpegTrace};
    use proptest::prelude::*;

    use super::*;
    use crate::obsrec::SessionRecorder;
    use crate::retry::RetryPolicy;
    use crate::session::SessionLimits;
    use crate::wire::{self, WindowAckMsg};

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn policy(attempts: u32, base: u64, max: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: attempts,
            base: ms(base),
            max: ms(max.max(base)),
        }
    }

    struct Rig {
        table: Table,
        socket: UdpSocket,
        sink: UdpSocket,
        scratch: Vec<u8>,
    }

    impl Rig {
        fn new() -> Rig {
            let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
            sink.set_nonblocking(true).unwrap();
            Rig {
                table: Table::default(),
                socket: UdpSocket::bind("127.0.0.1:0").unwrap(),
                sink,
                scratch: Vec::new(),
            }
        }

        fn call<R>(
            &mut self,
            conn: u32,
            now: Instant,
            f: impl FnOnce(&mut SessionCore, &mut Ctx<'_>) -> R,
        ) -> R {
            let core = self.table.sessions.get_mut(&conn).expect("live session");
            f(
                core,
                &mut Ctx {
                    now,
                    socket: &self.socket,
                    scratch: &mut self.scratch,
                },
            )
        }

        /// Adds a one-window session that is accepted and begun at `at`
        /// and pumped until its window closes, so its first ACK deadline
        /// is `at + retry.backoff(0)`.
        fn open(&mut self, conn: u32, retry: RetryPolicy, at: Instant) {
            let trace = MpegTrace::new(Movie::JurassicPark, 1);
            let core = SessionCore::new(
                conn,
                self.sink.local_addr().unwrap(),
                ProtocolConfig::paper(0.6, 1),
                Arc::new(StreamSource::mpeg(&trace, 1, 1, false)),
                retry,
                Duration::ZERO,
                FecPolicy::off(),
                SessionLimits::unlimited(),
                ServerTelem::default_global(),
                SessionRecorder::disabled(),
                at,
            );
            self.table.sessions.insert(conn, core);
            let armed = self.call(conn, at, |c, ctx| {
                c.start(ctx);
                c.on_msg(&Msg::Begin, at, ctx);
                while c.timer_at().is_none() {
                    c.on_tick(ctx);
                }
                c.timer_at()
            });
            assert_eq!(armed, Some(at + retry.backoff(0)));
            self.drain();
        }

        /// One pass at `now` and the reap; returns the pass's wake-up
        /// deadline and the conns it finished.
        fn pass(&mut self, now: Instant) -> (Option<Instant>, Vec<u32>) {
            let wake = self.table.pass(&mut Ctx {
                now,
                socket: &self.socket,
                scratch: &mut self.scratch,
            });
            let finished: Vec<u32> = self.table.finished.drain(..).collect();
            for conn in &finished {
                self.table.sessions.remove(conn);
            }
            (wake, finished)
        }

        /// `(conn, msg)` of every datagram the sink holds, in send order.
        fn drain(&self) -> Vec<(u32, Msg)> {
            let mut buf = vec![0u8; 65_536];
            let mut out = Vec::new();
            while let Ok(len) = self.sink.recv(&mut buf) {
                out.push(wire::decode(&buf[..len]).expect("server datagrams decode"));
            }
            out
        }

        fn timers(&self) -> HashMap<u32, Option<Instant>> {
            self.table
                .sessions
                .iter()
                .map(|(&conn, core)| (conn, core.timer_at()))
                .collect()
        }
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
            let t0 = Instant::now();
            let mut rig = Rig::new();
            let mut gaps: HashMap<u32, Vec<Duration>> = HashMap::new();
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
                let mut due: Vec<(Instant, u32)> = before
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
                let schedule: Vec<Duration> = (0..attempts).map(|a| p.backoff(a)).collect();
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
            let t0 = Instant::now();
            let mut rig = Rig::new();
            let p = policy(3, 8, 64);
            let mut old: Vec<(Instant, u32)> = Vec::new();
            for (i, &(offset, ack_after, action)) in sessions.iter().enumerate() {
                let conn = i as u32;
                let opened = t0 + ms(offset);
                rig.open(conn, p, opened);
                old.push((opened + p.backoff(0), conn));
                let acked = opened + ms(ack_after);
                let ack = Msg::WindowAck(WindowAckMsg {
                    ack_seq: 1,
                    window: 0,
                    echo_us: 0,
                    per_layer_burst: Vec::new(),
                });
                if action > 0 {
                    rig.call(conn, acked, |c, ctx| c.on_msg(&ack, acked, ctx));
                    prop_assert_eq!(rig.table.sessions[&conn].timer_at(), Some(acked + p.backoff(0)));
                }
                if action > 1 {
                    let status = rig.call(conn, acked, |c, ctx| c.on_msg(&Msg::ByeAck, acked, ctx));
                    prop_assert_eq!(status, Status::Finished);
                    prop_assert_eq!(rig.table.sessions[&conn].next_deadline(), None);
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
                    let kept = rig.table.sessions.get(&conn).and_then(SessionCore::timer_at);
                    prop_assert!(kept.is_none_or(|t| t > instant), "{} kept its old deadline", conn);
                }
            }
        }
    }
}
