//! Transport instruments: each role resolves its counter and histogram
//! handles once, so the transport loops record with one atomic. Handles
//! resolve against the **current** registry (the thread-local override
//! when installed, else the process global) at construction time, on
//! the caller's thread — construct before spawning worker threads so
//! tests can scope metrics with `with_current`.

use std::net::{SocketAddr, UdpSocket};

use espread_telemetry::{current, Counter, Histogram};

/// Server-side socket and retry instruments.
#[derive(Debug, Clone)]
pub(crate) struct ServerTelem {
    sessions: Counter,
    sessions_completed: Counter,
    sessions_reaped: Counter,
    handshake_evictions: Counter,
    busy_rejections: Counter,
    shed_enhancement: Counter,
    shed_stale_retx: Counter,
    watchdog_terminations: Counter,
    shard_wakeups: Counter,
    datagrams_tx: Counter,
    datagrams_rx: Counter,
    bytes_tx: Counter,
    send_errors: Counter,
    decode_errors: Counter,
    retries: Counter,
    ack_timeouts: Counter,
    handshake_timeouts: Counter,
    retransmissions: Counter,
    encode_oversize: Counter,
    fec_groups: Counter,
    fec_parity_sent: Counter,
    rtt_us: Histogram,
}

impl ServerTelem {
    pub(crate) fn default_global() -> Self {
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
        }
    }

    #[inline]
    pub(crate) fn on_session(&self) {
        self.sessions.inc();
    }

    #[inline]
    pub(crate) fn on_session_complete(&self) {
        self.sessions_completed.inc();
    }

    #[inline]
    pub(crate) fn on_session_reaped(&self) {
        self.sessions_reaped.inc();
    }

    #[inline]
    pub(crate) fn on_handshake_eviction(&self) {
        self.handshake_evictions.inc();
    }

    #[inline]
    pub(crate) fn on_busy_rejection(&self) {
        self.busy_rejections.inc();
    }

    #[inline]
    pub(crate) fn on_shed_enhancement(&self) {
        self.shed_enhancement.inc();
    }

    #[inline]
    pub(crate) fn on_shed_stale_retx(&self) {
        self.shed_stale_retx.inc();
    }

    #[inline]
    pub(crate) fn on_watchdog_termination(&self) {
        self.watchdog_terminations.inc();
    }

    #[inline]
    pub(crate) fn on_shard_wakeup(&self) {
        self.shard_wakeups.inc();
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

    #[inline]
    pub(crate) fn on_rx(&self) {
        self.datagrams_rx.inc();
    }

    #[inline]
    pub(crate) fn on_decode_error(&self) {
        self.decode_errors.inc();
    }

    #[inline]
    pub(crate) fn on_retry(&self) {
        self.retries.inc();
    }

    #[inline]
    pub(crate) fn on_ack_timeout(&self) {
        self.ack_timeouts.inc();
    }

    #[inline]
    pub(crate) fn on_handshake_timeout(&self) {
        self.handshake_timeouts.inc();
    }

    #[inline]
    pub(crate) fn on_retransmission(&self) {
        self.retransmissions.inc();
    }

    #[inline]
    pub(crate) fn on_encode_oversize(&self) {
        self.encode_oversize.inc();
    }

    #[inline]
    pub(crate) fn on_fec_group(&self, parity_sent: u64) {
        self.fec_groups.inc();
        self.fec_parity_sent.add(parity_sent);
    }

    #[inline]
    pub(crate) fn rtt_us(&self, us: u64) {
        self.rtt_us.record(us);
    }
}

/// Client-side socket instruments.
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
}

impl ClientTelem {
    pub(crate) fn default_global() -> Self {
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
        }
    }

    #[inline]
    pub(crate) fn on_tx(&self) {
        self.datagrams_tx.inc();
    }

    #[inline]
    pub(crate) fn on_rx(&self) {
        self.datagrams_rx.inc();
    }

    #[inline]
    pub(crate) fn on_send_error(&self) {
        self.send_errors.inc();
    }

    #[inline]
    pub(crate) fn on_hello_retry(&self) {
        self.hello_retries.inc();
    }

    #[inline]
    pub(crate) fn on_begin_retry(&self) {
        self.begin_retries.inc();
    }

    #[inline]
    pub(crate) fn on_window(&self) {
        self.windows.inc();
    }

    #[inline]
    pub(crate) fn on_bad_fragment(&self) {
        self.bad_fragments.inc();
    }

    #[inline]
    pub(crate) fn on_decode_error(&self) {
        self.decode_errors.inc();
    }

    #[inline]
    pub(crate) fn on_foreign_conn(&self) {
        self.foreign_conn.inc();
    }

    #[inline]
    pub(crate) fn on_encode_oversize(&self) {
        self.encode_oversize.inc();
    }

    #[inline]
    pub(crate) fn on_fec_recovered(&self, fragments: u64) {
        self.fec_recovered.add(fragments);
    }

    #[inline]
    pub(crate) fn on_fec_unrecoverable(&self, groups: u64) {
        self.fec_unrecoverable.add(groups);
    }
}

/// Proxy fault-injection instruments.
#[derive(Debug, Clone)]
pub(crate) struct ProxyTelem {
    forwarded: Counter,
    dropped: Counter,
    duplicated: Counter,
    reordered: Counter,
    corrupted: Counter,
    truncated: Counter,
    send_errors: Counter,
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

    #[inline]
    pub(crate) fn on_forwarded(&self) {
        self.forwarded.inc();
    }

    #[inline]
    pub(crate) fn on_dropped(&self) {
        self.dropped.inc();
    }

    #[inline]
    pub(crate) fn on_duplicated(&self) {
        self.duplicated.inc();
    }

    #[inline]
    pub(crate) fn on_reordered(&self) {
        self.reordered.inc();
    }

    #[inline]
    pub(crate) fn on_corrupted(&self) {
        self.corrupted.inc();
    }

    #[inline]
    pub(crate) fn on_truncated(&self) {
        self.truncated.inc();
    }

    #[inline]
    pub(crate) fn on_send_error(&self) {
        self.send_errors.inc();
    }
}
