//! Transport instruments and the fold of the cores' effects.
//!
//! Each role resolves its counter and histogram handles once, so the
//! transport loops record with one atomic. Handles resolve against the
//! **current** registry (the thread-local override when installed, else
//! the process global) at construction time, on the caller's thread —
//! construct before spawning worker threads so tests can scope metrics
//! with `with_current`.
//!
//! The sans-IO cores keep no books. The shell that drives a core folds
//! each [`Effect`] it pushed exactly once, through its role's `fold`:
//! the counters, the flight recorder (stamped with the core's own clock
//! value) and, on the client, the report's counters all read the one
//! effect stream, so they agree by construction.

use std::net::{SocketAddr, UdpSocket};

use espread_telemetry::{current, Counter, Histogram};

use crate::client::NetClientReport;
use crate::obsrec::SessionRecorder;
use crate::session::Effect;

/// Server-side instruments: the shell's own counts (demux and shards)
/// and the fold of the session cores' effects.
#[derive(Debug, Clone)]
pub(crate) struct ServerTelem {
    pub(crate) sessions: Counter,
    sessions_completed: Counter,
    pub(crate) sessions_reaped: Counter,
    pub(crate) handshake_evictions: Counter,
    pub(crate) busy_rejections: Counter,
    shed_enhancement: Counter,
    shed_stale_retx: Counter,
    watchdog_terminations: Counter,
    pub(crate) shard_wakeups: Counter,
    datagrams_tx: Counter,
    pub(crate) datagrams_rx: Counter,
    bytes_tx: Counter,
    send_errors: Counter,
    pub(crate) decode_errors: Counter,
    retries: Counter,
    ack_timeouts: Counter,
    handshake_timeouts: Counter,
    retransmissions: Counter,
    pub(crate) encode_oversize: Counter,
    fec_groups: Counter,
    fec_parity_sent: Counter,
    rtt_us: Histogram,
    obs: SessionRecorder,
}

impl ServerTelem {
    /// Handles in the current registry; effects also record into `obs`.
    pub(crate) fn new(obs: SessionRecorder) -> Self {
        let r = current();
        ServerTelem {
            sessions: r.counter("net.server.sessions"),
            sessions_completed: r.counter("net.server.sessions_completed"),
            sessions_reaped: r.counter("net.server.sessions_reaped"),
            handshake_evictions: r.counter("net.server.handshake_evictions"),
            busy_rejections: r.counter("net.server.busy_rejections"),
            shed_enhancement: r.counter("net.server.shed_enhancement"),
            shed_stale_retx: r.counter("net.server.shed_stale_retx"),
            watchdog_terminations: r.counter("net.server.watchdog_terminations"),
            shard_wakeups: r.counter("net.server.shard_wakeups"),
            datagrams_tx: r.counter("net.server.datagrams_tx"),
            datagrams_rx: r.counter("net.server.datagrams_rx"),
            bytes_tx: r.counter("net.server.bytes_tx"),
            send_errors: r.counter("net.server.send_errors"),
            decode_errors: r.counter("net.server.decode_errors"),
            retries: r.counter("net.server.retries"),
            ack_timeouts: r.counter("net.server.ack_timeouts"),
            handshake_timeouts: r.counter("net.server.handshake_timeouts"),
            retransmissions: r.counter("net.server.retransmissions"),
            encode_oversize: r.counter("net.wire.encode_oversize"),
            fec_groups: r.counter("net.fec.groups"),
            fec_parity_sent: r.counter("net.fec.parity_sent"),
            rtt_us: r.histogram("net.server.rtt_us"),
            obs,
        }
    }

    /// The server's one counted send. A refused datagram is counted, so
    /// local-stack refusal is told apart from network loss.
    pub(crate) fn send_to(&self, socket: &UdpSocket, datagram: &[u8], to: SocketAddr) {
        match socket.send_to(datagram, to) {
            Ok(_) => {
                self.datagrams_tx.inc();
                self.bytes_tx.add(datagram.len() as u64);
            }
            Err(_) => self.send_errors.inc(),
        }
    }

    /// Books one session effect, which happened at `at` on the server
    /// clock.
    pub(crate) fn fold(&self, at: u64, effect: Effect) {
        match effect {
            Effect::SendRefused(_) | Effect::EncodeOversize => self.encode_oversize.inc(),
            Effect::ShedEnhancement(_) => self.shed_enhancement.inc(),
            Effect::ShedStaleRetx(_) => self.shed_stale_retx.inc(),
            Effect::Retransmission => self.retransmissions.inc(),
            Effect::Rtt(us) => self.rtt_us.record(us),
            Effect::Retry => self.retries.inc(),
            Effect::AckTimeout(..) => self.ack_timeouts.inc(),
            Effect::HandshakeTimeout => self.handshake_timeouts.inc(),
            Effect::WatchdogTermination => self.watchdog_terminations.inc(),
            Effect::SessionComplete => self.sessions_completed.inc(),
            Effect::FecGroup(parity) => {
                self.fec_groups.inc();
                self.fec_parity_sent.add(u64::from(parity));
            }
            _ => {}
        }
        self.obs.record_effect(at, &effect);
    }
}

/// Client-side instruments and the fold of the client core's effects.
#[derive(Debug, Clone)]
pub(crate) struct ClientTelem {
    datagrams_tx: Counter,
    datagrams_rx: Counter,
    send_errors: Counter,
    hello_retries: Counter,
    begin_retries: Counter,
    windows: Counter,
    bad_fragments: Counter,
    decode_errors: Counter,
    foreign_conn: Counter,
    encode_oversize: Counter,
    fec_recovered: Counter,
    fec_unrecoverable: Counter,
    obs: SessionRecorder,
}

impl ClientTelem {
    /// Handles in the current registry; effects also record into `obs`.
    pub(crate) fn new(obs: SessionRecorder) -> Self {
        let r = current();
        ClientTelem {
            datagrams_tx: r.counter("net.client.datagrams_tx"),
            datagrams_rx: r.counter("net.client.datagrams_rx"),
            send_errors: r.counter("net.client.send_errors"),
            hello_retries: r.counter("net.client.hello_retries"),
            begin_retries: r.counter("net.client.begin_retries"),
            windows: r.counter("net.client.windows"),
            bad_fragments: r.counter("net.client.bad_fragments"),
            decode_errors: r.counter("net.client.decode_errors"),
            foreign_conn: r.counter("net.client.foreign_conn"),
            encode_oversize: r.counter("net.wire.encode_oversize"),
            fec_recovered: r.counter("net.fec.recovered"),
            fec_unrecoverable: r.counter("net.fec.unrecoverable"),
            obs,
        }
    }

    /// The client's one counted send; a refusal also counts in `report`.
    pub(crate) fn send(&self, socket: &UdpSocket, datagram: &[u8], report: &mut NetClientReport) {
        if socket.send(datagram).is_ok() {
            self.datagrams_tx.inc();
        } else {
            self.send_errors.inc();
            report.send_errors += 1;
        }
    }

    /// Books one client effect, which happened at `at` on the client
    /// clock, into the counters, the recorder and `report`. The report
    /// counts the stream only: its receive and send-error counts start
    /// again at [`Effect::Accepted`].
    pub(crate) fn fold(&self, report: &mut NetClientReport, at: u64, effect: Effect) {
        match effect {
            Effect::DatagramRx(bytes) => {
                self.datagrams_rx.inc();
                report.datagrams_rx += 1;
                report.bytes_rx += bytes as u64;
            }
            Effect::Accepted => {
                (report.datagrams_rx, report.bytes_rx, report.send_errors) = (0, 0, 0)
            }
            Effect::DecodeError(_) => self.decode_errors.inc(),
            Effect::ForeignConn => {
                self.foreign_conn.inc();
                report.foreign_conn += 1;
            }
            Effect::HelloRetry => {
                self.hello_retries.inc();
                report.hello_retries += 1;
            }
            Effect::BeginRetry => self.begin_retries.inc(),
            Effect::EncodeOversize => {
                self.encode_oversize.inc();
                report.send_errors += 1;
            }
            Effect::Delivered(_) | Effect::Ignored(_) => report.data_rx += 1,
            Effect::BadFragment(_) => {
                self.bad_fragments.inc();
                report.data_rx += 1;
            }
            Effect::BadLabel => self.bad_fragments.inc(),
            Effect::ParityRx => report.parity_rx += 1,
            Effect::WindowClosed(..) => self.windows.inc(),
            Effect::AckSent(..) => report.acks_sent += 1,
            Effect::NackRound => report.nacks_sent += 1,
            Effect::FecRecovered(n) => {
                self.fec_recovered.add(n);
                report.fec_recovered += n;
            }
            Effect::FecUnrecoverable(n) => {
                self.fec_unrecoverable.add(n);
                report.fec_unrecoverable += n;
            }
            _ => {}
        }
        self.obs.record_effect(at, &effect);
    }
}

/// Proxy fault-injection instruments.
#[derive(Debug, Clone)]
pub(crate) struct ProxyTelem {
    pub(crate) forwarded: Counter,
    pub(crate) dropped: Counter,
    pub(crate) duplicated: Counter,
    pub(crate) reordered: Counter,
    pub(crate) corrupted: Counter,
    pub(crate) truncated: Counter,
    pub(crate) send_errors: Counter,
}

impl ProxyTelem {
    pub(crate) fn default_global() -> Self {
        let r = current();
        ProxyTelem {
            forwarded: r.counter("net.proxy.forwarded"),
            dropped: r.counter("net.proxy.dropped"),
            duplicated: r.counter("net.proxy.duplicated"),
            reordered: r.counter("net.proxy.reordered"),
            corrupted: r.counter("net.proxy.corrupted"),
            truncated: r.counter("net.proxy.truncated"),
            send_errors: r.counter("net.proxy.send_errors"),
        }
    }
}

#[cfg(test)]
mod tests {
    use espread_obs::{trio, EventKind, Recording};
    use espread_telemetry::{with_current, Registry, Snapshot};

    use super::*;
    use crate::session::{FrameLabels, WindowLabels};
    use crate::wire::DataLabels;

    const CONN: u32 = 3;
    const WINDOW: WindowLabels = WindowLabels {
        conn: CONN,
        window: 1,
    };

    fn data(frame: u16, retransmit: bool) -> DataLabels {
        DataLabels {
            conn: CONN,
            window: 1,
            frame,
            frag: 0,
            retransmit,
        }
    }

    fn at(frame: usize) -> FrameLabels {
        FrameLabels::new(CONN, 1, frame)
    }

    /// `(t_us, kind)` of every recorded event, in record order.
    fn events(r: &Recording) -> Vec<(u64, EventKind)> {
        r.events.iter().map(|e| (e.t_us, e.kind)).collect()
    }

    fn counter(snapshot: &Snapshot, name: &str) -> u64 {
        snapshot.counter(name).unwrap_or(0)
    }

    /// Folds `stream`, effect `i` stamped `i`, through books built by
    /// `new` under a private registry with a recorder attached.
    fn fold<B>(
        new: impl FnOnce(SessionRecorder) -> B,
        mut fold: impl FnMut(&B, u64, Effect),
        stream: &[Effect],
    ) -> (Snapshot, Recording) {
        let registry = Registry::new();
        let (server, _, _) = trio(64, 0);
        let books = with_current(&registry, || new(SessionRecorder::attached(server.clone())));
        for (t, &effect) in stream.iter().enumerate() {
            fold(&books, t as u64, effect);
        }
        (registry.snapshot(), server.recording())
    }

    /// One effect stream, three accounts: each effect moves the client's
    /// counters, its recording (stamped with the effect's clock) and its
    /// report's counters once, and they agree.
    #[test]
    fn the_client_fold_books_each_effect_once_in_every_account() {
        use EventKind as K;
        let stream = [
            Effect::DatagramRx(40), // before Accept: not the stream's
            Effect::DecodeError(None),
            Effect::EncodeOversize,
            Effect::HelloRetry,
            Effect::Accepted,
            Effect::DatagramRx(1_000),
            Effect::Delivered(data(0, false)),
            Effect::Reassembled(at(0), 1),
            Effect::DatagramRx(1_000),
            Effect::Ignored(data(1, true)),
            Effect::DatagramRx(1_000),
            Effect::BadFragment(data(2, true)),
            Effect::DatagramRx(300),
            Effect::ParityRx,
            Effect::BadLabel,
            Effect::DatagramRx(7),
            Effect::DecodeError(Some(CONN)),
            Effect::DatagramRx(9),
            Effect::ForeignConn,
            Effect::BeginRetry,
            Effect::FecRecovered(2),
            Effect::FecUnrecoverable(1),
            Effect::NackRound,
            Effect::NackSent(at(2), 1),
            Effect::NackSent(at(3), 1),
            Effect::Abandoned(at(3)),
            Effect::WindowClosed(WINDOW, 4),
            Effect::AckSent(WINDOW, 1),
            Effect::EncodeOversize,
        ];
        let mut report = NetClientReport::default();
        let (snapshot, recording) = fold(
            ClientTelem::new,
            |books, t, effect| books.fold(&mut report, t, effect),
            &stream,
        );
        let c = |name| counter(&snapshot, name);
        let kind = |k| events(&recording).iter().filter(|e| e.1 == k).count() as u64;
        assert_eq!(
            events(&recording),
            [
                (6, K::Delivered),
                (7, K::Reassembled),
                (9, K::Ignored),
                (11, K::BadFragment),
                (16, K::DecodeError),
                (23, K::NackSent),
                (24, K::NackSent),
                (25, K::Abandoned),
                (26, K::WindowClosed),
                (27, K::AckSent),
            ]
        );
        let bad = recording.events.iter().find(|e| e.kind == K::BadFragment);
        assert_eq!(bad.map(|e| e.detail), Some(0), "recorded without its flag");
        assert_eq!(c("net.client.datagrams_rx"), 7);
        assert_eq!((report.datagrams_rx, report.bytes_rx), (6, 3_316));
        assert_eq!(c("net.wire.encode_oversize"), 2);
        assert_eq!(report.send_errors, 1, "the stream's refusals only");
        let data_rx = kind(K::Delivered) + kind(K::Ignored) + kind(K::BadFragment);
        assert_eq!(report.data_rx, data_rx);
        assert_eq!(c("net.client.bad_fragments"), kind(K::BadFragment) + 1);
        assert_eq!(report.parity_rx, 1);
        // Only a connected client's undecodable arrivals are recorded.
        assert_eq!(c("net.client.decode_errors"), kind(K::DecodeError) + 1);
        assert_eq!((c("net.client.foreign_conn"), report.foreign_conn), (1, 1));
        assert_eq!(
            c("net.client.hello_retries"),
            u64::from(report.hello_retries)
        );
        assert_eq!(c("net.client.begin_retries"), 1);
        assert_eq!(c("net.fec.recovered"), report.fec_recovered);
        assert_eq!(c("net.fec.unrecoverable"), report.fec_unrecoverable);
        assert_eq!(c("net.client.windows"), kind(K::WindowClosed));
        assert_eq!(report.acks_sent, kind(K::AckSent));
        assert_eq!((report.nacks_sent, kind(K::NackSent)), (1, 2));
    }

    /// The server's fold: counters and the recording from one stream.
    #[test]
    fn the_server_fold_books_each_effect_once_in_every_account() {
        use EventKind as K;
        let stream = [
            Effect::Queued(at(0), 0),
            Effect::Sent(data(0, false)),
            Effect::SendRefused(data(1, false)),
            Effect::EncodeOversize,
            Effect::FecGroup(2),
            Effect::ShedEnhancement(at(2)),
            Effect::WindowEndSent(WINDOW),
            Effect::Rtt(250),
            Effect::AckReceived(WINDOW, 4),
            Effect::NackReceived(at(1)),
            Effect::Retransmission,
            Effect::Sent(data(1, true)),
            Effect::NackReceived(at(3)),
            Effect::ShedStaleRetx(at(3)),
            Effect::Retry,
            Effect::AckTimeout(WINDOW, 5),
            Effect::HandshakeTimeout,
            Effect::WatchdogTermination,
            Effect::SessionComplete,
        ];
        let (snapshot, recording) = fold(ServerTelem::new, ServerTelem::fold, &stream);
        let c = |name| counter(&snapshot, name);
        let kind = |k| events(&recording).iter().filter(|e| e.1 == k).count() as u64;
        assert_eq!(
            events(&recording),
            [
                (0, K::Queued),
                (1, K::Sent),
                (2, K::SendRefused),
                (5, K::Shed),
                (6, K::WindowEndSent),
                (8, K::AckReceived),
                (9, K::NackReceived),
                (11, K::Retransmitted),
                (12, K::NackReceived),
                (13, K::Shed),
                (15, K::AckTimeout),
            ]
        );
        assert_eq!(c("net.wire.encode_oversize"), kind(K::SendRefused) + 1);
        let shed = c("net.server.shed_enhancement") + c("net.server.shed_stale_retx");
        assert_eq!(shed, kind(K::Shed));
        let served = c("net.server.retransmissions") + c("net.server.shed_stale_retx");
        assert_eq!(served, kind(K::NackReceived));
        assert_eq!(c("net.server.ack_timeouts"), kind(K::AckTimeout));
        assert_eq!((c("net.fec.groups"), c("net.fec.parity_sent")), (1, 2));
        assert_eq!(
            snapshot.histogram("net.server.rtt_us").map(|h| h.count),
            Some(1)
        );
        for name in [
            "net.server.retries",
            "net.server.handshake_timeouts",
            "net.server.watchdog_terminations",
            "net.server.sessions_completed",
        ] {
            assert_eq!(c(name), 1, "{name}");
        }
    }
}
