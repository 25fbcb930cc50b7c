//! The UDP streaming client: handshake, un-permute, measure, ACK.
//!
//! [`NetClient::connect`] runs the `Hello`/`Accept` negotiation under
//! bounded retry; [`NetClient::stream`] then receives the whole stream,
//! tracking each window with [`NetWindow`](crate::clientwin::NetWindow) —
//! reassembling fragments, observing per-layer loss bursts in the
//! transmission-slot domain — and answering every `WindowEnd` with a
//! sequence-numbered `WindowAck`. Lost `WindowEnd`s are healed two ways:
//! the server retries them, and data for a *newer* window implicitly
//! finalizes the current one.

use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::time::{Duration, Instant};

use espread_protocol::{ClientCapabilities, Ordering};
use espread_qos::{ContinuityMetrics, LossPattern, WindowSeries};

use crate::clientwin::{NetWindow, RecoverScratch};
use crate::error::NetError;
use crate::obsrec::SessionRecorder;
use crate::retry::RetryPolicy;
use crate::telem::ClientTelem;
use crate::wire::{self, Accept, CriticalNackMsg, Hello, Msg, WindowAckMsg, CONN_NONE};

/// Socket poll granularity. Set as the read timeout **once** at connect
/// — all later deadlines are computed in userspace, so steady-state
/// receives issue zero `set_read_timeout` syscalls (a receive may
/// overshoot its deadline by at most one poll tick).
const POLL: Duration = Duration::from_millis(10);

/// The one sanctioned way to touch the socket's read timeout: every
/// update is counted, so [`NetClientReport::timeout_updates`] acts as a
/// strace-free regression guard against per-receive syscall churn.
fn set_read_timeout_counted(
    socket: &UdpSocket,
    updates: &mut u64,
    timeout: Duration,
) -> io::Result<()> {
    *updates += 1;
    socket.set_read_timeout(Some(timeout))
}

/// Per-process handshake-nonce discriminator (the local port provides
/// cross-process uniqueness).
static NONCE_COUNTER: AtomicU64 = AtomicU64::new(1);

/// A handshake nonce no prior `Hello` from this process+port has used.
fn fresh_nonce(socket: &UdpSocket) -> io::Result<u64> {
    Ok((u64::from(socket.local_addr()?.port()) << 32)
        | NONCE_COUNTER.fetch_add(1, AtomicOrdering::Relaxed))
}

/// Cheap deterministic jitter in `[0, retry_after/4]` ms, derived from
/// the nonce: decorrelates a thundering herd of `Busy`-refused clients
/// without an RNG dependency.
fn busy_jitter_ms(nonce: u64, retry_after_ms: u32) -> u64 {
    let span = u64::from(retry_after_ms) / 4 + 1;
    nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15) % span
}

/// Client-side session parameters.
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// Resources the handshake checks the offer against.
    pub capabilities: ClientCapabilities,
    /// Transmission ordering to request from the server.
    pub ordering: Ordering,
    /// Whether to NACK missing critical frames at window end, for up to
    /// `retry.max_attempts` retransmission rounds per window (each round
    /// rides the channel again, so one round is rarely enough on a lossy
    /// link).
    pub recovery: bool,
    /// Retry schedule for the handshake and `Begin`.
    pub retry: RetryPolicy,
    /// Hard ceiling on the whole stream's wall-clock time.
    pub deadline: Duration,
    /// Optional flight-recorder hook (see `espread-obs`); disabled by
    /// default.
    pub recorder: SessionRecorder,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        NetClientConfig {
            capabilities: ClientCapabilities::desktop(),
            ordering: Ordering::spread(),
            recovery: false,
            retry: RetryPolicy::lan(),
            deadline: Duration::from_secs(60),
            recorder: SessionRecorder::disabled(),
        }
    }
}

/// What the client saw over the whole stream.
#[derive(Debug, Clone)]
pub struct NetClientReport {
    /// Per-window continuity metrics, in window order.
    pub series: WindowSeries,
    /// Per-window playout loss patterns, in window order.
    pub patterns: Vec<LossPattern>,
    /// Windows finalized (acked).
    pub windows_completed: usize,
    /// Windows the server promised at negotiation.
    pub windows_total: usize,
    /// `WindowAck`s sent (including re-acks of retried `WindowEnd`s).
    pub acks_sent: u64,
    /// `CriticalNack`s sent.
    pub nacks_sent: u64,
    /// Datagrams received (including undecodable ones).
    pub datagrams_rx: u64,
    /// `Data` datagrams received. With recovery off this is a pure
    /// function of the channel realisation (each fragment is sent
    /// exactly once), unlike `datagrams_rx`, whose control-plane share
    /// depends on wall-clock retry cadence.
    pub data_rx: u64,
    /// `Parity` datagrams received (same determinism property).
    pub parity_rx: u64,
    /// Bytes received.
    pub bytes_rx: u64,
    /// Extra `Hello` sends beyond the first.
    pub hello_retries: u32,
    /// Whether the server's `Bye` arrived (graceful close).
    pub saw_bye: bool,
    /// `set_read_timeout` syscalls issued over the client's lifetime.
    /// Exactly one (at connect): the poll timeout is set once and every
    /// later deadline is computed in userspace.
    pub timeout_updates: u64,
    /// Fragments recovered by erasure decoding (zero when the server
    /// sent no parity).
    pub fec_recovered: u64,
    /// FEC groups whose erasures exceeded their surviving parity.
    pub fec_unrecoverable: u64,
    /// Control sends the local socket refused (also counted in
    /// `net.client.send_errors`). Nonzero means some ACKs/NACKs never
    /// left the host — the server saw them as loss.
    pub send_errors: u64,
    /// Decoded datagrams dropped because they carried another
    /// connection's id (also counted in `net.client.foreign_conn`) — for
    /// example a `Bye` the server retried at a port this client now
    /// reuses.
    pub foreign_conn: u64,
}

/// A connected (negotiated) client, ready to stream.
#[derive(Debug)]
pub struct NetClient {
    socket: UdpSocket,
    conn_id: u32,
    accept: Accept,
    config: NetClientConfig,
    telem: ClientTelem,
    hello_retries: u32,
    timeout_updates: u64,
}

impl NetClient {
    /// Negotiates a session with the server at `server`.
    ///
    /// # Errors
    ///
    /// Socket errors, a server [`NetError::Rejected`], or
    /// [`NetError::HandshakeTimeout`] after the retry schedule runs dry.
    pub fn connect(server: SocketAddr, config: NetClientConfig) -> Result<Self, NetError> {
        config.retry.validate().map_err(NetError::Config)?;
        if config.deadline.is_zero() {
            return Err(NetError::Config("deadline must be positive".into()));
        }
        let bind_ip: IpAddr = match server.ip() {
            IpAddr::V4(ip) if ip.is_loopback() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::UNSPECIFIED),
            IpAddr::V6(ip) if ip.is_loopback() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::UNSPECIFIED),
        };
        let socket = UdpSocket::bind((bind_ip, 0))?;
        socket.connect(server)?;
        let mut timeout_updates = 0u64;
        set_read_timeout_counted(&socket, &mut timeout_updates, POLL)?;
        let telem = ClientTelem::default_global();
        let make_hello = |nonce: u64| {
            Msg::Hello(Hello {
                nonce,
                buffer_bytes: config.capabilities.buffer_bytes,
                max_startup_delay_ms: config.capabilities.max_startup_delay_ms,
                ordering: config.ordering,
            })
        };
        let mut nonce = fresh_nonce(&socket)?;
        let mut hello = make_hello(nonce);
        let mut buf = vec![0u8; 65_536];
        let mut send_buf = Vec::new();
        let mut hello_retries = 0u32;
        let mut last_busy: Option<u32> = None;
        'attempts: for attempt in 0..config.retry.max_attempts {
            if attempt > 0 {
                hello_retries += 1;
                telem.on_hello_retry();
            }
            send_on(&socket, &telem, CONN_NONE, &hello, &mut send_buf);
            let deadline = Instant::now() + config.retry.backoff(attempt);
            loop {
                // Userspace deadline; the fixed poll timeout bounds how
                // long one recv can overshoot it.
                if Instant::now() >= deadline {
                    break;
                }
                let len = match socket.recv(&mut buf) {
                    Ok(len) => len,
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    Err(e) => return Err(NetError::Io(e)),
                };
                telem.on_rx();
                match wire::decode(&buf[..len]) {
                    Ok((conn_id, Msg::Accept(accept))) if accept.nonce == nonce => {
                        validate_accept(&accept)?;
                        return Ok(NetClient {
                            socket,
                            conn_id,
                            accept,
                            config,
                            telem,
                            hello_retries,
                            timeout_updates,
                        });
                    }
                    Ok((_, Msg::Reject(reject))) if reject.nonce == nonce => {
                        return Err(NetError::Rejected(reject.reason));
                    }
                    Ok((_, Msg::Busy { retry_after_ms })) => {
                        // Admission refusal: honor the server's
                        // retry-after (plus our own jitter), then spend
                        // the next attempt on a *fresh* nonce — the old
                        // nonce's verdict is cached server-side and
                        // duplicated Hellos get the same Busy back.
                        last_busy = Some(retry_after_ms);
                        std::thread::sleep(Duration::from_millis(
                            u64::from(retry_after_ms) + busy_jitter_ms(nonce, retry_after_ms),
                        ));
                        nonce = fresh_nonce(&socket)?;
                        hello = make_hello(nonce);
                        continue 'attempts;
                    }
                    Ok(_) => {} // stale or foreign: keep waiting
                    Err(_) => telem.on_decode_error(),
                }
            }
        }
        Err(match last_busy {
            Some(retry_after_ms) => NetError::ServerBusy { retry_after_ms },
            None => NetError::HandshakeTimeout,
        })
    }

    /// The negotiated session shape.
    pub fn session(&self) -> &Accept {
        &self.accept
    }

    /// Streams to completion (or deadline) and reports what arrived.
    ///
    /// # Errors
    ///
    /// [`NetError::StreamTimeout`] when the first datagram never arrives
    /// or the overall deadline passes; socket errors.
    pub fn stream(self) -> Result<NetClientReport, NetError> {
        let hard_deadline = Instant::now() + self.config.deadline;
        let mut st = StreamState::new(&self.accept, &self.config);
        let mut buf = vec![0u8; 65_536];

        // Begin, retried until the stream actually starts flowing.
        let mut started = false;
        'begin: for attempt in 0..self.config.retry.max_attempts {
            if attempt > 0 {
                self.telem.on_begin_retry();
            }
            if !send_on(
                &self.socket,
                &self.telem,
                self.conn_id,
                &Msg::Begin,
                &mut st.send_buf,
            ) {
                st.send_errors += 1;
            }
            let deadline = Instant::now() + self.config.retry.backoff(attempt);
            while Instant::now() < deadline {
                if let Some(len) = self.recv(&mut buf, deadline)? {
                    st.bytes_rx += len as u64;
                    st.datagrams_rx += 1;
                    match wire::decode_with(&buf[..len], &mut st.decode_scratch) {
                        Ok((conn_id, msg)) if conn_id != self.conn_id => {
                            self.drop_foreign(&mut st, msg)
                        }
                        // Duplicate handshake reply: nothing to do.
                        Ok((_, msg @ Msg::Accept(_))) => st.decode_scratch.recycle(msg),
                        Ok((_, msg)) => {
                            self.process(&mut st, &msg);
                            st.decode_scratch.recycle(msg);
                            started = true;
                            break 'begin;
                        }
                        Err(_) => {
                            self.telem.on_decode_error();
                            self.config.recorder.decode_error(self.conn_id);
                        }
                    }
                }
            }
        }
        if !started {
            return Err(NetError::StreamTimeout);
        }

        while !st.done {
            let now = Instant::now();
            if now >= hard_deadline {
                return Err(NetError::StreamTimeout);
            }
            // All windows in: linger for the Bye, but don't stall forever.
            if let Some(at) = st.completed_at {
                if now.saturating_duration_since(at) > self.config.retry.total_wait() {
                    break;
                }
            }
            let wait_until = Instant::now() + POLL;
            if let Some(len) = self.recv(&mut buf, wait_until.min(hard_deadline))? {
                st.bytes_rx += len as u64;
                st.datagrams_rx += 1;
                match wire::decode_with(&buf[..len], &mut st.decode_scratch) {
                    Ok((conn_id, msg)) if conn_id != self.conn_id => {
                        self.drop_foreign(&mut st, msg)
                    }
                    Ok((_, msg)) => {
                        self.process(&mut st, &msg);
                        st.decode_scratch.recycle(msg);
                    }
                    Err(_) => {
                        self.telem.on_decode_error();
                        self.config.recorder.decode_error(self.conn_id);
                    }
                }
            }
        }

        Ok(NetClientReport {
            series: st.series,
            patterns: st.patterns,
            windows_completed: st.acked.len(),
            windows_total: st.windows_total,
            acks_sent: st.acks_sent,
            nacks_sent: st.nacks_sent,
            datagrams_rx: st.datagrams_rx,
            data_rx: st.data_rx,
            parity_rx: st.parity_rx,
            bytes_rx: st.bytes_rx,
            hello_retries: self.hello_retries,
            saw_bye: st.saw_bye,
            timeout_updates: self.timeout_updates,
            fec_recovered: st.fec_recovered,
            fec_unrecoverable: st.fec_unrecoverable,
            send_errors: st.send_errors,
            foreign_conn: st.foreign_conn,
        })
    }

    /// Drops a decoded datagram addressed to another connection: acting
    /// on it (a stray `Bye` above all) could end this healthy session.
    fn drop_foreign(&self, st: &mut StreamState, msg: Msg) {
        st.foreign_conn += 1;
        self.telem.on_foreign_conn();
        st.decode_scratch.recycle(msg);
    }

    /// One timed receive; `None` on timeout. The deadline is enforced in
    /// userspace against the connect-time poll timeout — no
    /// `set_read_timeout` syscall per receive (the old behaviour, one
    /// syscall per datagram, is what [`NetClientReport::timeout_updates`]
    /// guards against).
    fn recv(&self, buf: &mut [u8], deadline: Instant) -> Result<Option<usize>, NetError> {
        if Instant::now() >= deadline {
            return Ok(None);
        }
        match self.socket.recv(buf) {
            Ok(len) => {
                self.telem.on_rx();
                Ok(Some(len))
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(NetError::Io(e)),
        }
    }

    fn process(&self, st: &mut StreamState, msg: &Msg) {
        match msg {
            Msg::Data(data) => {
                st.data_rx += 1;
                let w = data.fragment.window;
                let frame = data.fragment.frame as u32;
                let frag = data.fragment.frag;
                let retx = data.fragment.retransmit;
                let obs = &self.config.recorder;
                let Some(mut cur) = self.take_window(st, w) else {
                    // Stale retransmission or duplicate after finalize:
                    // decodable, but the window has moved on.
                    obs.ignored(self.conn_id, w, frame, frag, retx);
                    return;
                };
                let was_complete = cur.is_complete(data.fragment.frame);
                if cur.accept(data) {
                    obs.delivered(self.conn_id, w, frame, frag, retx);
                    if !was_complete && cur.is_complete(data.fragment.frame) {
                        obs.reassembled(self.conn_id, w, frame, data.fragment.frags_total);
                    }
                } else {
                    self.telem.on_bad_fragment();
                    obs.bad_fragment(self.conn_id, w, frame, frag);
                }
                st.current = Some(cur);
            }
            Msg::Parity(parity) => {
                st.parity_rx += 1;
                // Parity rides the same window-advance logic as data: a
                // group for a newer window implicitly closes the current
                // one.
                let Some(mut cur) = self.take_window(st, parity.window) else {
                    return;
                };
                if !cur.accept_parity(parity) {
                    self.telem.on_bad_fragment();
                }
                st.current = Some(cur);
            }
            Msg::WindowEnd(end) => {
                if let Some(bursts) = st.acked.get(&end.window).cloned() {
                    // Our ack was lost and the server retried: re-ack
                    // with a fresh sequence number.
                    self.ack(st, end.window, end.sent_at_us, bursts);
                    return;
                }
                let Some(mut cur) = self.take_window(st, end.window) else {
                    return; // stale
                };
                // Erasure recovery repairs what parity can cover BEFORE
                // the NACK decision, so covered losses cost zero
                // retransmission rounds.
                self.run_recovery(st, &mut cur);
                let nack_rounds = match st.nacked {
                    Some((w, rounds)) if w == end.window => rounds,
                    _ => 0,
                };
                if self.config.recovery && nack_rounds < self.config.retry.max_attempts {
                    let mut missing = std::mem::take(&mut st.nack_buf);
                    cur.missing_critical_into(&mut missing);
                    if !missing.is_empty() {
                        st.nacked = Some((end.window, nack_rounds + 1));
                        st.nacks_sent += 1;
                        for &frame in &missing {
                            self.config.recorder.nack_sent(
                                self.conn_id,
                                end.window,
                                u32::from(frame),
                                nack_rounds + 1,
                            );
                        }
                        let nack = Msg::CriticalNack(CriticalNackMsg {
                            window: end.window,
                            missing,
                        });
                        if !send_on(
                            &self.socket,
                            &self.telem,
                            self.conn_id,
                            &nack,
                            &mut st.send_buf,
                        ) {
                            st.send_errors += 1;
                        }
                        if let Msg::CriticalNack(n) = nack {
                            st.nack_buf = n.missing;
                        }
                        // Wait for the recovery round; the server re-sends
                        // WindowEnd after retransmitting.
                        st.current = Some(cur);
                        return;
                    }
                    st.nack_buf = missing;
                }
                self.finalize(st, cur, end.sent_at_us);
            }
            Msg::Bye(_) => {
                if let Some(cur) = st.current.take() {
                    self.finalize(st, cur, 0);
                }
                if !send_on(
                    &self.socket,
                    &self.telem,
                    self.conn_id,
                    &Msg::ByeAck,
                    &mut st.send_buf,
                ) {
                    st.send_errors += 1;
                }
                st.saw_bye = true;
                st.done = true;
            }
            // Handshake duplicates and client-side message types echoed
            // back are not ours to act on.
            _ => {}
        }
    }

    /// Advances the stream to window `w` and takes its tracker out of
    /// `st.current`; the caller puts it back while the window stays open.
    /// A newer window implicitly finalizes the open one (its `WindowEnd`
    /// was lost but the stream moved on; echo 0 = no RTT sample). `None`
    /// for a stale window or a duplicate after finalize, leaving `st`
    /// untouched.
    fn take_window(&self, st: &mut StreamState, w: u64) -> Option<NetWindow> {
        match st.current.take() {
            Some(cur) if w == cur.window() => Some(cur),
            Some(cur) if w > cur.window() => {
                self.finalize(st, cur, 0);
                Some(st.open(w))
            }
            stale @ Some(_) => {
                st.current = stale;
                None
            }
            None if st.acked.contains_key(&w) => None,
            None => Some(st.open(w)),
        }
    }

    /// Runs one erasure-recovery pass over `win`, folding the result
    /// into telemetry and the report counters.
    fn run_recovery(&self, st: &mut StreamState, win: &mut NetWindow) {
        let r = win.recover_with(&mut st.recover_scratch);
        if r.recovered > 0 {
            self.telem.on_fec_recovered(r.recovered as u64);
            st.fec_recovered += r.recovered as u64;
        }
        if r.unrecoverable > 0 {
            self.telem.on_fec_unrecoverable(r.unrecoverable as u64);
            st.fec_unrecoverable += r.unrecoverable as u64;
        }
    }

    fn finalize(&self, st: &mut StreamState, mut win: NetWindow, echo_us: u64) {
        // Windows closed implicitly (lost WindowEnd, data for a newer
        // window) still get their recovery pass; for explicitly closed
        // ones this pass finds nothing new.
        self.run_recovery(st, &mut win);
        let outcome = win.close();
        st.spare = Some(win);
        for frame in outcome.pattern.lost_indices() {
            self.config
                .recorder
                .abandoned(self.conn_id, outcome.window, frame as u32);
        }
        self.config.recorder.window_closed(
            self.conn_id,
            outcome.window,
            outcome.pattern.len() as u32,
        );
        st.series.push(ContinuityMetrics::of(&outcome.pattern));
        st.patterns.push(outcome.pattern);
        self.telem.on_window();
        self.ack(st, outcome.window, echo_us, outcome.per_layer_burst.clone());
        st.acked.insert(outcome.window, outcome.per_layer_burst);
        if st.acked.len() >= st.windows_total && st.completed_at.is_none() {
            st.completed_at = Some(Instant::now());
        }
    }

    fn ack(&self, st: &mut StreamState, window: u64, echo_us: u64, bursts: Vec<u16>) {
        st.ack_seq += 1;
        st.acks_sent += 1;
        self.config
            .recorder
            .ack_sent(self.conn_id, window, st.ack_seq);
        let msg = Msg::WindowAck(WindowAckMsg {
            ack_seq: st.ack_seq,
            window,
            echo_us,
            per_layer_burst: bursts,
        });
        if !send_on(
            &self.socket,
            &self.telem,
            self.conn_id,
            &msg,
            &mut st.send_buf,
        ) {
            st.send_errors += 1;
        }
    }
}

/// Refuses an `Accept` whose session shape is internally inconsistent —
/// a hostile (or corrupted) server must produce a typed error, not a
/// client that NACKs unreachable frames forever.
fn validate_accept(accept: &Accept) -> Result<(), NetError> {
    if accept.frames_per_window == 0 {
        return Err(NetError::Protocol("accept: zero frames per window".into()));
    }
    if let Some(&f) = accept
        .critical_frames
        .iter()
        .find(|&&f| f >= accept.frames_per_window)
    {
        return Err(NetError::Protocol(format!(
            "accept: critical frame {f} outside the {}-frame window",
            accept.frames_per_window
        )));
    }
    Ok(())
}

/// Encodes and sends one control message; `false` when the socket
/// refused it (counted in `net.client.send_errors` — the server's retry
/// machinery sees the gap as loss either way).
fn send_on(
    socket: &UdpSocket,
    telem: &ClientTelem,
    conn_id: u32,
    msg: &Msg,
    buf: &mut Vec<u8>,
) -> bool {
    // An oversize message (e.g. a NACK list inflated by hostile labels)
    // is counted and dropped, never truncated and never a panic.
    if wire::try_encode_into(conn_id, msg, buf).is_err() {
        telem.on_encode_oversize();
        return false;
    }
    if socket.send(buf).is_err() {
        telem.on_send_error();
        return false;
    }
    telem.on_tx();
    true
}

/// Mutable receive-loop state.
struct StreamState {
    frames_per_window: usize,
    layer_sizes: Vec<u16>,
    critical_frames: Vec<u16>,
    windows_total: usize,
    current: Option<NetWindow>,
    /// window → its acked bursts, for re-acking retried `WindowEnd`s.
    acked: HashMap<u64, Vec<u16>>,
    /// `(window, rounds)`: critical-NACK rounds already spent on `window`.
    nacked: Option<(u64, u32)>,
    /// The previous window's tracker, retired for reuse — `open` resets
    /// it instead of allocating a fresh one, so the steady state recycles
    /// one tracker for the whole stream.
    spare: Option<NetWindow>,
    /// Pooled buffers for datagram decode (see [`wire::DecodeScratch`]).
    decode_scratch: wire::DecodeScratch,
    /// Staging buffers for erasure recovery, shared across windows.
    recover_scratch: RecoverScratch,
    /// Reusable datagram encode buffer for every send on this stream.
    send_buf: Vec<u8>,
    /// Reusable body buffer for `CriticalNack` construction.
    nack_buf: Vec<u16>,
    ack_seq: u64,
    acks_sent: u64,
    nacks_sent: u64,
    datagrams_rx: u64,
    data_rx: u64,
    parity_rx: u64,
    bytes_rx: u64,
    fec_recovered: u64,
    fec_unrecoverable: u64,
    send_errors: u64,
    foreign_conn: u64,
    series: WindowSeries,
    patterns: Vec<LossPattern>,
    completed_at: Option<Instant>,
    saw_bye: bool,
    done: bool,
}

impl StreamState {
    fn new(accept: &Accept, _config: &NetClientConfig) -> Self {
        StreamState {
            frames_per_window: usize::from(accept.frames_per_window),
            layer_sizes: accept.layer_sizes.clone(),
            critical_frames: accept.critical_frames.clone(),
            windows_total: accept.windows_total as usize,
            current: None,
            acked: HashMap::new(),
            nacked: None,
            spare: None,
            decode_scratch: wire::DecodeScratch::default(),
            recover_scratch: RecoverScratch::default(),
            send_buf: Vec::new(),
            nack_buf: Vec::new(),
            ack_seq: 0,
            acks_sent: 0,
            nacks_sent: 0,
            datagrams_rx: 0,
            data_rx: 0,
            parity_rx: 0,
            bytes_rx: 0,
            fec_recovered: 0,
            fec_unrecoverable: 0,
            send_errors: 0,
            foreign_conn: 0,
            series: WindowSeries::new(),
            patterns: Vec::new(),
            completed_at: None,
            saw_bye: false,
            done: false,
        }
    }

    /// A tracker for `window`, recycled from `spare` when one is retired.
    fn open(&mut self, window: u64) -> NetWindow {
        match self.spare.take() {
            Some(mut w) => {
                w.reset(
                    window,
                    self.frames_per_window,
                    &self.layer_sizes,
                    &self.critical_frames,
                );
                w
            }
            None => NetWindow::new(
                window,
                self.frames_per_window,
                &self.layer_sizes,
                &self.critical_frames,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = NetClientConfig::default();
        assert_eq!(c.ordering, Ordering::spread());
        assert!(!c.recovery);
        assert!(c.retry.validate().is_ok());
        assert!(c.deadline > Duration::ZERO);
    }

    #[test]
    fn connect_times_out_against_a_silent_peer() {
        // A bound socket nobody serves on: the handshake must give up.
        let silent = UdpSocket::bind("127.0.0.1:0").unwrap();
        let config = NetClientConfig {
            retry: RetryPolicy {
                max_attempts: 2,
                base: Duration::from_millis(5),
                max: Duration::from_millis(10),
            },
            ..NetClientConfig::default()
        };
        let err = NetClient::connect(silent.local_addr().unwrap(), config).unwrap_err();
        assert!(matches!(err, NetError::HandshakeTimeout), "{err}");
    }

    #[test]
    fn busy_server_yields_typed_error_and_fresh_nonce_per_retry() {
        // A fake server that answers every Hello with Busy.
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            server
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let mut buf = [0u8; 2048];
            let mut nonces = Vec::new();
            while let Ok((len, from)) = server.recv_from(&mut buf) {
                if let Ok((_, Msg::Hello(h))) = wire::decode(&buf[..len]) {
                    nonces.push(h.nonce);
                    let reply =
                        wire::try_encode(CONN_NONE, &Msg::Busy { retry_after_ms: 5 }).unwrap();
                    server.send_to(&reply, from).unwrap();
                }
            }
            nonces
        });
        let config = NetClientConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                base: Duration::from_millis(20),
                max: Duration::from_millis(40),
            },
            ..NetClientConfig::default()
        };
        let err = NetClient::connect(addr, config).unwrap_err();
        assert!(
            matches!(err, NetError::ServerBusy { retry_after_ms: 5 }),
            "{err}"
        );
        let nonces = handle.join().unwrap();
        assert!(nonces.len() >= 2, "the client retried after Busy");
        let distinct: std::collections::HashSet<u64> = nonces.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            nonces.len(),
            "every retry after Busy used a fresh nonce"
        );
    }

    #[test]
    fn busy_jitter_stays_inside_a_quarter_of_the_retry_after() {
        for nonce in [0u64, 1, 42, u64::MAX] {
            for retry_after in [0u32, 1, 5, 250, 10_000] {
                let j = busy_jitter_ms(nonce, retry_after);
                assert!(j <= u64::from(retry_after) / 4, "{nonce} {retry_after} {j}");
            }
        }
    }

    #[test]
    fn zero_deadline_rejected() {
        let config = NetClientConfig {
            deadline: Duration::ZERO,
            ..NetClientConfig::default()
        };
        let err = NetClient::connect("127.0.0.1:1".parse().unwrap(), config).unwrap_err();
        assert!(matches!(err, NetError::Config(_)));
    }
}
