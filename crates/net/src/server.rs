//! The event-loop multi-session UDP server.
//!
//! One demux thread owns the socket's receive side: it answers
//! handshakes (idempotently — a duplicate `Hello` gets the cached reply,
//! from a TTL/LRU-bounded cache), assigns connection ids that are never
//! reused while live, and routes decoded control datagrams to a fixed
//! pool of worker event loops (see the `shard` module) over channels —
//! shard = `conn_id % workers`. Sessions are `poll()`-able state objects
//! (the `session` module), not threads: each shard drives hundreds of them,
//! each keeping its own deadlines, through a reusable encode buffer, and
//! reaps them from the connection table the moment they finish.
//! Malformed datagrams are counted and dropped, never trusted.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use espread_protocol::{
    check_wire_limits, negotiate, AgreedSession, ClientCapabilities, ProtocolConfig, SessionOffer,
    StreamSource,
};

use crate::error::NetError;
use crate::obsrec::SessionRecorder;
use crate::retry::RetryPolicy;
use crate::session::{us, SessionCore, SessionLimits};
use crate::shard::{Shard, ShardEvent};
use crate::telem::ServerTelem;
use crate::wire::{self, Accept, Msg, Reject, CONN_NONE};

/// How long a blocking socket wait may run before re-checking the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(5);

/// Most worker shards `workers = 0` (auto) will pick.
const MAX_AUTO_WORKERS: usize = 8;

/// Everything the server needs to stream one source to many clients.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Protocol parameters (α, packet size, recovery…). The *ordering* is
    /// a per-session choice the client makes in its `Hello`.
    pub protocol: ProtocolConfig,
    /// The session offer clients negotiate against.
    pub offer: SessionOffer,
    /// The stream to serve.
    pub source: StreamSource,
    /// Retry schedule for control exchanges (window ACK, teardown).
    pub retry: RetryPolicy,
    /// Inter-datagram send pacing (keeps a burst of a whole window from
    /// overrunning loopback socket buffers).
    pub pace: Duration,
    /// Optional flight-recorder hook (see `espread-obs`); disabled by
    /// default. Events are recorded for every session this server runs.
    pub recorder: SessionRecorder,
    /// Worker event loops sharding the connection table. `0` picks a
    /// pool from the machine's parallelism (capped at 8). Session count
    /// is independent of this — each shard drives many sessions.
    pub workers: usize,
    /// How long a handshake verdict stays cached for duplicate-`Hello`
    /// idempotency before expiring.
    pub handshake_ttl: Duration,
    /// Most handshake verdicts cached at once; the oldest is evicted
    /// past this (LRU), so a nonce flood cannot grow memory unboundedly.
    pub handshake_cap: usize,
    /// Size of the demux's receive buffer — the largest datagram one
    /// read can take in (UDP truncates longer ones, which then count as
    /// decode errors). Defaults to 64 KiB, the wire's ceiling.
    pub recv_buffer_bytes: usize,
    /// Admission cap: most sessions live at once. A `Hello` arriving at
    /// capacity is answered with a typed [`Msg::Busy`] instead of a
    /// session. `0` (the default) disables admission control.
    pub max_sessions: usize,
    /// The retry-after hint carried in `Busy` refusals.
    pub busy_retry_after: Duration,
    /// Perception-ordered shedding: once a session's pacing debt reaches
    /// this lag, enhancement-layer frames are shed (never critical ones)
    /// until the session catches up. Zero (the default) disables it.
    pub shed_lag: Duration,
    /// Stale-retransmission cutoff: recovery rounds arriving this long
    /// after their window closed are counted and skipped instead of
    /// resent — the frames have already missed playout. Zero (the
    /// default) disables it.
    pub stale_retx_after: Duration,
    /// Stuck-session watchdog: a session making no progress (no datagram
    /// sent or received) for this long is terminated into a typed
    /// outcome and reaped. Zero (the default) disables it.
    pub watchdog: Duration,
}

impl NetServerConfig {
    /// A config with the LAN retry schedule, 50 µs pacing, an automatic
    /// worker pool, and a 30 s / 1024-entry handshake cache.
    pub fn new(protocol: ProtocolConfig, offer: SessionOffer, source: StreamSource) -> Self {
        NetServerConfig {
            protocol,
            offer,
            source,
            retry: RetryPolicy::lan(),
            pace: Duration::from_micros(50),
            recorder: SessionRecorder::disabled(),
            workers: 0,
            handshake_ttl: Duration::from_secs(30),
            handshake_cap: 1024,
            recv_buffer_bytes: 65_536,
            max_sessions: 0,
            busy_retry_after: Duration::from_millis(250),
            shed_lag: Duration::ZERO,
            stale_retx_after: Duration::ZERO,
            watchdog: Duration::ZERO,
        }
    }

    fn validate(&self) -> Result<(), NetError> {
        self.protocol.validate().map_err(NetError::Config)?;
        self.retry.validate().map_err(NetError::Config)?;
        self.offer
            .validate()
            .map_err(|e| NetError::Config(e.to_string()))?;
        if self.offer.frames_per_window() != self.source.frames_per_window() {
            return Err(NetError::Config(format!(
                "offer advertises {} frames per window but the source has {}",
                self.offer.frames_per_window(),
                self.source.frames_per_window()
            )));
        }
        if self.offer.fps != self.source.fps {
            return Err(NetError::Config("offer and source disagree on fps".into()));
        }
        // The Accept's frames/window field, the Data frame index and its
        // payload length are all u16 on the wire (see the wire-limits
        // table in `wire`).
        check_wire_limits(self.offer.frames_per_window(), self.offer.packet_bytes)
            .map_err(NetError::Config)?;
        if u32::try_from(self.source.window_count()).is_err() {
            return Err(NetError::Config("too many windows for the wire".into()));
        }
        if self.handshake_cap == 0 {
            return Err(NetError::Config(
                "handshake cache needs at least one slot for idempotent replies".into(),
            ));
        }
        if self.handshake_ttl.is_zero() {
            return Err(NetError::Config(
                "handshake cache TTL must be positive".into(),
            ));
        }
        if self.recv_buffer_bytes < 1500 {
            return Err(NetError::Config(
                "receive buffer below one MTU would truncate every datagram".into(),
            ));
        }
        if self.max_sessions != 0 {
            if self.busy_retry_after.is_zero() {
                return Err(NetError::Config(
                    "busy retry-after must be positive when admission control is on".into(),
                ));
            }
            if u32::try_from(self.busy_retry_after.as_millis()).is_err() {
                return Err(NetError::Config(
                    "busy retry-after exceeds the wire's u32 millisecond field".into(),
                ));
            }
        }
        Ok(())
    }

    fn worker_count(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, MAX_AUTO_WORKERS)
    }
}

/// A running server; dropping (or [`NetServer::shutdown`]) stops the
/// demux and shard threads and joins them all.
#[derive(Debug)]
pub struct NetServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
    demux: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving.
    ///
    /// # Errors
    ///
    /// Configuration inconsistencies and socket errors.
    pub fn bind(addr: impl ToSocketAddrs, config: NetServerConfig) -> Result<Self, NetError> {
        config.validate()?;
        let socket = UdpSocket::bind(addr)?;
        socket.set_read_timeout(Some(POLL))?;
        let local_addr = socket.local_addr()?;
        let socket = Arc::new(socket);
        let shutdown = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(0));
        // Every session clock counts µs from here; with a recorder
        // attached that is the recorder's epoch, so session clock values
        // are the recorded timestamps.
        let epoch = config.recorder.clock_epoch();
        let telem = ServerTelem::new(config.recorder.clone());
        let workers = config.worker_count();
        let (reaped_tx, reaped_rx) = mpsc::channel();
        let mut shards = Vec::with_capacity(workers);
        let mut shard_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = mpsc::channel();
            let shard = Shard {
                rx,
                socket: Arc::clone(&socket),
                epoch,
                shutdown: Arc::clone(&shutdown),
                reaped: reaped_tx.clone(),
                live_gauge: Arc::clone(&live),
                telem: telem.clone(),
            };
            let handle = std::thread::Builder::new()
                .name(format!("espread-net-shard-{i}"))
                .spawn(move || shard.run())
                .map_err(NetError::Io)?;
            shards.push(tx);
            shard_handles.push(handle);
        }
        drop(reaped_tx);
        let demux = Demux {
            socket,
            epoch,
            source: config.source,
            protocol: config.protocol,
            offer: config.offer,
            retry: config.retry,
            pace: config.pace,
            handshake_ttl: config.handshake_ttl,
            handshake_cap: config.handshake_cap,
            recv_buffer_bytes: config.recv_buffer_bytes,
            max_sessions: config.max_sessions,
            busy_retry_after_ms: config.busy_retry_after.as_millis() as u32,
            limits: SessionLimits {
                shed_lag: config.shed_lag,
                stale_retx_after: config.stale_retx_after,
                watchdog: config.watchdog,
            },
            shutdown: Arc::clone(&shutdown),
            live_gauge: Arc::clone(&live),
            telem,
            shards,
            shard_handles,
            reaped_rx,
        };
        let handle = std::thread::Builder::new()
            .name("espread-net-demux".into())
            .spawn(move || demux.run())
            .map_err(NetError::Io)?;
        Ok(NetServer {
            local_addr,
            shutdown,
            live,
            demux: Some(handle),
        })
    }

    /// The bound address clients (or a proxy) should send to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Sessions currently in the connection table. Finished sessions are
    /// reaped immediately, so a long-lived server that has streamed many
    /// clients reads `0` here between bursts.
    pub fn live_sessions(&self) -> usize {
        self.live.load(AtomicOrdering::SeqCst)
    }

    /// Stops serving: signals every thread and joins them. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, AtomicOrdering::SeqCst);
        if let Some(handle) = self.demux.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// TTL + LRU cache of handshake verdicts, keyed by client nonce.
///
/// Duplicate `Hello`s (the reply was lost) get the cached bytes back
/// idempotently; entries expire after `ttl` and the oldest entry is
/// evicted once `cap` is reached, so a hostile nonce flood holds at most
/// `cap` replies — the unbounded-growth bug the threaded demux had.
struct HandshakeCache {
    ttl: Duration,
    cap: usize,
    map: HashMap<u64, (SocketAddr, Vec<u8>, Instant)>,
    /// Insertion order with each entry's timestamp; stale order entries
    /// (superseded by a re-insert) are skipped by timestamp mismatch.
    order: VecDeque<(u64, Instant)>,
}

impl HandshakeCache {
    fn new(ttl: Duration, cap: usize) -> Self {
        HandshakeCache {
            ttl,
            cap,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }

    /// A still-fresh cached verdict for `nonce`, if any.
    fn get(&self, nonce: u64, now: Instant) -> Option<(SocketAddr, &[u8])> {
        let (addr, reply, at) = self.map.get(&nonce)?;
        if now.saturating_duration_since(*at) >= self.ttl {
            return None;
        }
        Some((*addr, reply))
    }

    /// Caches a verdict, expiring stale entries and evicting past the
    /// cap. Returns how many entries were removed to make room.
    fn insert(&mut self, nonce: u64, addr: SocketAddr, reply: Vec<u8>, now: Instant) -> usize {
        let mut evicted = 0;
        while let Some(&(n, at)) = self.order.front() {
            if now.saturating_duration_since(at) < self.ttl {
                break;
            }
            self.order.pop_front();
            // Only drop the map entry if this order record is still its
            // newest (a re-insert leaves stale order records behind).
            if self.map.get(&n).is_some_and(|e| e.2 == at) {
                self.map.remove(&n);
                evicted += 1;
            }
        }
        self.map.insert(nonce, (addr, reply, now));
        self.order.push_back((nonce, now));
        while self.map.len() > self.cap {
            let Some((n, at)) = self.order.pop_front() else {
                break;
            };
            if self.map.get(&n).is_some_and(|e| e.2 == at) {
                self.map.remove(&n);
                evicted += 1;
            }
        }
        evicted
    }
}

/// Picks the next free connection id: skips [`CONN_NONE`] and any id
/// still present in the live table, so a wrapped counter can never
/// silently overwrite a live session's route. `None` only when every
/// one of the 2³²−1 ids is in use.
fn alloc_conn_id(next: &mut u32, live: &HashSet<u32>) -> Option<u32> {
    for _ in 0..u32::MAX {
        let id = *next;
        *next = next.wrapping_add(1).max(1);
        if id != CONN_NONE && !live.contains(&id) {
            return Some(id);
        }
    }
    None
}

struct Demux {
    socket: Arc<UdpSocket>,
    epoch: Instant,
    source: StreamSource,
    protocol: ProtocolConfig,
    offer: SessionOffer,
    retry: RetryPolicy,
    pace: Duration,
    handshake_ttl: Duration,
    handshake_cap: usize,
    recv_buffer_bytes: usize,
    max_sessions: usize,
    busy_retry_after_ms: u32,
    limits: SessionLimits,
    shutdown: Arc<AtomicBool>,
    live_gauge: Arc<AtomicUsize>,
    telem: ServerTelem,
    shards: Vec<Sender<ShardEvent>>,
    shard_handles: Vec<JoinHandle<()>>,
    reaped_rx: Receiver<u32>,
}

impl Demux {
    fn shard_of(&self, conn_id: u32) -> &Sender<ShardEvent> {
        &self.shards[(conn_id as usize) % self.shards.len()]
    }

    fn run(self) {
        let mut handshakes = HandshakeCache::new(self.handshake_ttl, self.handshake_cap);
        let mut live: HashSet<u32> = HashSet::new();
        let mut next_conn: u32 = 1;
        let mut buf = vec![0u8; self.recv_buffer_bytes];
        while !self.shutdown.load(AtomicOrdering::SeqCst) {
            // Fold in reaped conn-ids so the live set tracks the shards'
            // tables and freed ids become reusable.
            while let Ok(conn) = self.reaped_rx.try_recv() {
                live.remove(&conn);
            }
            // A blocking read returns at once while datagrams are queued,
            // so a connection wave drains back-to-back; the timeout only
            // bounds how long an idle demux takes to see the flag above.
            let Ok((len, from)) = self.socket.recv_from(&mut buf) else {
                continue;
            };
            self.handle_datagram(
                &buf[..len],
                from,
                &mut handshakes,
                &mut live,
                &mut next_conn,
            );
        }
        // Disconnect the shard channels, then join the workers.
        drop(self.shards);
        for handle in self.shard_handles {
            let _ = handle.join();
        }
    }

    /// Decodes and routes one datagram: Hello handshakes are answered
    /// inline, session traffic is forwarded to the owning shard.
    fn handle_datagram(
        &self,
        datagram: &[u8],
        from: SocketAddr,
        handshakes: &mut HandshakeCache,
        live: &mut HashSet<u32>,
        next_conn: &mut u32,
    ) {
        self.telem.datagrams_rx.inc();
        let Ok((conn_id, msg)) = wire::decode(datagram) else {
            self.telem.decode_errors.inc();
            return;
        };
        match msg {
            Msg::Hello(hello) => {
                let now = Instant::now();
                if let Some((addr, reply)) = handshakes.get(hello.nonce, now) {
                    // Duplicate Hello (our reply was lost): resend the
                    // cached verdict, idempotently.
                    self.telem.send_to(&self.socket, reply, addr);
                    return;
                }
                let caps = ClientCapabilities {
                    buffer_bytes: hello.buffer_bytes,
                    max_startup_delay_ms: hello.max_startup_delay_ms,
                };
                let reject = |reason: String| {
                    Msg::Reject(Reject {
                        nonce: hello.nonce,
                        reason,
                    })
                };
                let (reply_conn, reply) = match negotiate(self.offer.clone(), caps)
                    .map_err(|e| e.to_string())
                    .and_then(|agreed| accept_msg(hello.nonce, &agreed, self.source.window_count()))
                {
                    // Admission control outranks session spawning: at the
                    // cap the refusal is a typed, retryable `Busy`, and
                    // the cache insert below makes duplicated Hellos get
                    // the identical Busy back.
                    Ok(_) if self.max_sessions != 0 && live.len() >= self.max_sessions => {
                        self.telem.busy_rejections.inc();
                        let retry_after_ms = self.busy_retry_after_ms;
                        (CONN_NONE, Msg::Busy { retry_after_ms })
                    }
                    Ok(accept) => match self.open_session(next_conn, live, from, &hello) {
                        Some(conn_id) => (conn_id, Msg::Accept(accept)),
                        None => (CONN_NONE, reject("server cannot spawn a session".into())),
                    },
                    Err(reason) => (CONN_NONE, reject(reason)),
                };
                let reply = match wire::try_encode(reply_conn, &reply) {
                    Ok(bytes) => bytes,
                    Err(_) => {
                        // A field too long for the wire: send a short
                        // typed refusal instead of a silently cut reply.
                        // An admitted session left without its Accept is
                        // reclaimed by the watchdog like any ghost.
                        self.telem.encode_oversize.inc();
                        let short = reject("negotiation failed".into());
                        let Ok(bytes) = wire::try_encode(CONN_NONE, &short) else {
                            return;
                        };
                        bytes
                    }
                };
                self.telem.send_to(&self.socket, &reply, from);
                let evicted = handshakes.insert(hello.nonce, from, reply, now);
                self.telem.handshake_evictions.add(evicted as u64);
            }
            other if conn_id != CONN_NONE && live.contains(&conn_id) => {
                let _ = self.shard_of(conn_id).send(ShardEvent::Msg {
                    conn: conn_id,
                    msg: other,
                    at: us(self.epoch.elapsed()),
                });
            }
            _ => {} // sessionless non-Hello: ignore
        }
    }

    /// Builds a session state object and hands it to its shard. `None`
    /// when no conn-id is free or the shard is gone — the caller sends a
    /// Reject, mirroring the old spawn-failure path.
    fn open_session(
        &self,
        next_conn: &mut u32,
        live: &mut HashSet<u32>,
        from: SocketAddr,
        hello: &wire::Hello,
    ) -> Option<u32> {
        let conn_id = alloc_conn_id(next_conn, live)?;
        let core = SessionCore::new(
            conn_id,
            self.protocol.clone().with_ordering(hello.ordering),
            self.source.clone(),
            self.retry,
            self.pace,
            self.offer.fec,
            self.limits,
            us(self.epoch.elapsed()),
        );
        let open = ShardEvent::Open(from, Box::new(core));
        if self.shard_of(conn_id).send(open).is_err() {
            return None;
        }
        live.insert(conn_id);
        self.live_gauge.fetch_add(1, AtomicOrdering::SeqCst);
        self.telem.sessions.inc();
        Some(conn_id)
    }
}

/// Builds the wire `Accept`, refusing session shapes the wire's field
/// widths cannot carry.
fn accept_msg(nonce: u64, agreed: &AgreedSession, windows: usize) -> Result<Accept, String> {
    let narrow = |v: usize| -> Result<u16, String> {
        u16::try_from(v).map_err(|_| "session shape exceeds wire limits".to_string())
    };
    if agreed.layer_sizes.len() > wire::MAX_LAYERS {
        return Err(format!("session has more than {} layers", wire::MAX_LAYERS));
    }
    Ok(Accept {
        nonce,
        frames_per_window: narrow(agreed.offer.frames_per_window())?,
        windows_total: u32::try_from(windows).map_err(|_| "too many windows".to_string())?,
        packet_bytes: agreed.offer.packet_bytes,
        fps: agreed.offer.fps,
        layer_sizes: agreed
            .layer_sizes
            .iter()
            .map(|&s| narrow(s))
            .collect::<Result<_, _>>()?,
        critical_frames: agreed
            .critical_frames
            .iter()
            .map(|&f| narrow(f))
            .collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WindowEnd;
    use espread_protocol::FecPolicy;
    use espread_trace::{GopPattern, Movie, MpegTrace};

    fn paper_offer() -> SessionOffer {
        SessionOffer {
            gop_pattern: GopPattern::gop12(),
            gops_per_window: 2,
            open_gop: false,
            fps: 24,
            packet_bytes: 2048,
            max_frame_bytes: 62_776 / 8,
            fec: FecPolicy::off(),
        }
    }

    fn config() -> NetServerConfig {
        let trace = MpegTrace::new(Movie::JurassicPark, 1);
        NetServerConfig::new(
            espread_protocol::ProtocolConfig::paper(0.6, 1),
            paper_offer(),
            StreamSource::mpeg(&trace, 2, 3, false),
        )
    }

    #[test]
    fn config_validation_catches_mismatches() {
        assert!(config().validate().is_ok());

        let mut c = config();
        c.offer.gops_per_window = 1; // 12 frames vs source's 24
        assert!(matches!(c.validate(), Err(NetError::Config(why)) if why.contains("frames")));

        let mut c = config();
        c.offer.fps = 30;
        assert!(matches!(c.validate(), Err(NetError::Config(why)) if why.contains("fps")));

        let mut c = config();
        c.retry.max_attempts = 0;
        assert!(c.validate().is_err());

        let mut c = config();
        c.offer.packet_bytes = 100_000;
        c.protocol.packet_bytes = 100_000;
        assert!(matches!(c.validate(), Err(NetError::Config(why)) if why.contains("64 KiB")));

        let mut c = config();
        c.handshake_cap = 0;
        assert!(matches!(c.validate(), Err(NetError::Config(why)) if why.contains("handshake")));

        let mut c = config();
        c.handshake_ttl = Duration::ZERO;
        assert!(matches!(c.validate(), Err(NetError::Config(why)) if why.contains("TTL")));
    }

    #[test]
    fn accept_msg_narrows_or_refuses() {
        let agreed = negotiate(paper_offer(), ClientCapabilities::desktop()).unwrap();
        let accept = accept_msg(7, &agreed, 20).unwrap();
        assert_eq!(accept.nonce, 7);
        assert_eq!(accept.frames_per_window, 24);
        assert_eq!(accept.windows_total, 20);
        assert_eq!(accept.layer_sizes, vec![2, 2, 2, 2, 16]);
        assert_eq!(accept.critical_frames.len(), 8);
    }

    #[test]
    fn bind_and_shutdown_are_clean_and_idempotent() {
        let mut server = NetServer::bind("127.0.0.1:0", config()).unwrap();
        assert_eq!(
            server.local_addr().ip(),
            "127.0.0.1".parse::<std::net::IpAddr>().unwrap()
        );
        assert_eq!(server.live_sessions(), 0);
        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn alien_datagrams_do_not_crash_the_demux() {
        let mut server = NetServer::bind("127.0.0.1:0", config()).unwrap();
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        probe
            .send_to(b"not espread at all", server.local_addr())
            .unwrap();
        probe.send_to(&[], server.local_addr()).unwrap();
        // A sessionless data message is ignored too.
        let stray = wire::try_encode(
            99,
            &Msg::WindowEnd(WindowEnd {
                window: 0,
                sent_at_us: 1,
                last: false,
            }),
        )
        .unwrap();
        probe.send_to(&stray, server.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown();
    }

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    fn hello_bytes(nonce: u64) -> Vec<u8> {
        let caps = ClientCapabilities::desktop();
        wire::try_encode(
            CONN_NONE,
            &Msg::Hello(wire::Hello {
                nonce,
                buffer_bytes: caps.buffer_bytes,
                max_startup_delay_ms: caps.max_startup_delay_ms,
                ordering: espread_protocol::Ordering::spread(),
            }),
        )
        .unwrap()
    }

    /// Admission control: at the session cap a fresh Hello is refused
    /// with a typed Busy carrying the configured retry-after, and a
    /// duplicated Hello gets the byte-identical cached refusal.
    #[test]
    fn at_capacity_hellos_get_idempotent_busy_refusals() {
        let mut cfg = config();
        cfg.max_sessions = 1;
        cfg.busy_retry_after = Duration::from_millis(123);
        let mut server = NetServer::bind("127.0.0.1:0", cfg).unwrap();
        let mut buf = [0u8; 65_536];

        // Occupy the only slot with a real handshake.
        let first = UdpSocket::bind("127.0.0.1:0").unwrap();
        first
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        first.send_to(&hello_bytes(1), server.local_addr()).unwrap();
        let (len, _) = first.recv_from(&mut buf).unwrap();
        let (_, msg) = wire::decode(&buf[..len]).unwrap();
        assert!(matches!(msg, Msg::Accept(_)), "{msg:?}");
        assert_eq!(server.live_sessions(), 1);

        // A second client is refused, typed and retryable.
        let second = UdpSocket::bind("127.0.0.1:0").unwrap();
        second
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        second
            .send_to(&hello_bytes(2), server.local_addr())
            .unwrap();
        let (len, _) = second.recv_from(&mut buf).unwrap();
        let busy1 = buf[..len].to_vec();
        let (_, msg) = wire::decode(&busy1).unwrap();
        assert!(
            matches!(
                msg,
                Msg::Busy {
                    retry_after_ms: 123
                }
            ),
            "{msg:?}"
        );
        assert_eq!(
            server.live_sessions(),
            1,
            "the refused Hello opened nothing"
        );

        // The same Hello again (our reply "was lost"): the cached Busy
        // comes back byte-identical.
        second
            .send_to(&hello_bytes(2), server.local_addr())
            .unwrap();
        let (len, _) = second.recv_from(&mut buf).unwrap();
        assert_eq!(buf[..len], busy1[..], "duplicate Hello is idempotent");

        server.shutdown();
    }

    /// Regression (nonce flood): the handshake cache holds at most `cap`
    /// entries however many distinct nonces arrive, and expiry frees
    /// slots without eviction pressure.
    #[test]
    fn handshake_cache_is_bounded_under_nonce_flood() {
        let t0 = Instant::now();
        let mut cache = HandshakeCache::new(Duration::from_secs(30), 16);
        let mut evicted = 0;
        for nonce in 0..10_000u64 {
            evicted += cache.insert(nonce, addr(9), vec![1, 2, 3], t0);
        }
        assert_eq!(cache.len(), 16, "cap bounds the cache under flood");
        assert_eq!(evicted, 10_000 - 16, "every overflow entry was evicted");
        // LRU: the newest survive, the oldest are gone.
        assert!(cache.get(9_999, t0).is_some());
        assert!(cache.get(0, t0).is_none());
    }

    #[test]
    fn handshake_cache_expires_by_ttl() {
        let t0 = Instant::now();
        let ttl = Duration::from_millis(100);
        let mut cache = HandshakeCache::new(ttl, 1024);
        cache.insert(1, addr(9), vec![1], t0);
        assert!(cache.get(1, t0 + Duration::from_millis(99)).is_some());
        assert!(cache.get(1, t0 + ttl).is_none(), "expired entries miss");
        // The next insert sweeps the expired entry out of the map.
        cache.insert(2, addr(9), vec![2], t0 + ttl);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn handshake_cache_reinsert_does_not_double_free() {
        let t0 = Instant::now();
        let step = Duration::from_millis(10);
        let mut cache = HandshakeCache::new(Duration::from_secs(30), 2);
        cache.insert(1, addr(9), vec![1], t0);
        cache.insert(1, addr(9), vec![2], t0 + step); // re-insert: newer timestamp
        cache.insert(2, addr(9), vec![3], t0 + step * 2);
        // Cap eviction pops nonce 1's *stale* order record first; the
        // timestamp check must skip it (not count it as freeing a slot)
        // and keep walking to a record that really maps to an entry.
        let evicted = cache.insert(3, addr(9), vec![4], t0 + step * 3);
        assert_eq!(evicted, 1, "exactly one live entry evicted");
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1, t0 + step * 3).is_none(), "oldest entry gone");
        assert!(cache.get(2, t0 + step * 3).is_some());
        assert!(cache.get(3, t0 + step * 3).is_some());
    }

    /// Regression (wraparound collision): a wrapped conn-id counter must
    /// skip ids still live in the connection table instead of silently
    /// reassigning them.
    #[test]
    fn conn_id_allocation_skips_live_ids_at_wrap() {
        let mut live: HashSet<u32> = [u32::MAX, 1, 2].into_iter().collect();
        let mut next = u32::MAX;
        // u32::MAX is live → skipped; 0 is CONN_NONE → never issued;
        // 1 and 2 are live → skipped; 3 is free.
        assert_eq!(alloc_conn_id(&mut next, &live), Some(3));
        assert_eq!(next, 4);
        // The old `wrapping_add(1).max(1)` would have yielded u32::MAX
        // (live!) here. Verify the very ids it collided on are refused.
        let mut next = 1;
        assert_eq!(alloc_conn_id(&mut next, &live), Some(3));
        live.insert(3);
        let mut next = 3;
        assert_eq!(alloc_conn_id(&mut next, &live), Some(4));
    }

    #[test]
    fn conn_id_allocation_exhausts_to_none_on_a_full_table() {
        // A synthetic "everything is live" set is too big to build, so
        // check the boundary behaviour instead: with every id in a small
        // wrap region live, allocation walks past all of them.
        let live: HashSet<u32> = (1..=64).collect();
        let mut next = 1;
        assert_eq!(alloc_conn_id(&mut next, &live), Some(65));
    }
}
