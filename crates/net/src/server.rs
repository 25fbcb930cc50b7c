//! The event-loop multi-session UDP server.
//!
//! One demux thread owns the socket's receive side: it hands each
//! `Hello` to the sans-IO admission core (see the `admission` module),
//! which answers it idempotently and assigns connection ids that are
//! never reused while live, and it routes each live session's decoded
//! control datagrams, from that session's peer only, to a fixed pool of
//! worker event loops (see the `shard` module) over channels —
//! shard = `conn_id % workers`. Sessions are `poll()`-able state objects
//! (the `session` module), not threads: each shard drives hundreds of them,
//! each keeping its own deadlines, through a reusable encode buffer, and
//! reaps them from the connection table the moment they finish.
//! Malformed datagrams are counted and dropped, never trusted.

use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use espread_protocol::{check_wire_limits, ProtocolConfig, SessionOffer, StreamSource};

use crate::admission::Admission;
use crate::error::NetError;
use crate::obsrec::SessionRecorder;
use crate::retry::RetryPolicy;
use crate::session::{us, Ctx, OutQueue};
use crate::shard::{Shard, ShardEvent};
use crate::telem::ServerTelem;
use crate::wire::{self, Msg};

/// How long a blocking socket wait may run before re-checking the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(5);

/// Most worker shards `workers = 0` (auto) will pick.
const MAX_AUTO_WORKERS: usize = 8;

/// The demux's receive buffer: the wire's 64 KiB ceiling. UDP truncates
/// a longer datagram, which then counts as a decode error.
const RECV_BUFFER_BYTES: usize = 65_536;

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
            admission: Admission::new(config),
            out: OutQueue::default(),
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

struct Demux {
    socket: Arc<UdpSocket>,
    epoch: Instant,
    admission: Admission,
    /// The handshake reply of the `Hello` in progress.
    out: OutQueue,
    shutdown: Arc<AtomicBool>,
    live_gauge: Arc<AtomicUsize>,
    telem: ServerTelem,
    shards: Vec<Sender<ShardEvent>>,
    shard_handles: Vec<JoinHandle<()>>,
    reaped_rx: Receiver<u32>,
}

impl Demux {
    fn run(mut self) {
        let mut buf = vec![0u8; RECV_BUFFER_BYTES];
        while !self.shutdown.load(AtomicOrdering::SeqCst) {
            // Fold in reaped conn-ids so admission's live set tracks the
            // shards' tables and freed ids become reusable.
            while let Ok(conn) = self.reaped_rx.try_recv() {
                self.admission.release(conn);
            }
            // A blocking read returns at once while datagrams are queued,
            // so a connection wave drains back-to-back; the timeout only
            // bounds how long an idle demux takes to see the flag above.
            let Ok((len, from)) = self.socket.recv_from(&mut buf) else {
                continue;
            };
            self.handle_datagram(&buf[..len], from);
        }
        // Disconnect the shard channels, then join the workers.
        drop(self.shards);
        for handle in self.shard_handles {
            let _ = handle.join();
        }
    }

    /// Decodes and routes one datagram: admission answers a `Hello`, and
    /// a live session's traffic from its own peer goes to its shard.
    fn handle_datagram(&mut self, datagram: &[u8], from: SocketAddr) {
        self.telem.datagrams_rx.inc();
        let Ok((conn, msg)) = wire::decode(datagram) else {
            self.telem.decode_errors.inc();
            return;
        };
        let now = us(self.epoch.elapsed());
        let (shards, telem) = (&self.shards, &self.telem);
        let shard_of = |conn: u32| &shards[(conn as usize) % shards.len()];
        match msg {
            Msg::Hello(hello) => {
                let live = &self.live_gauge;
                let ctx = &mut Ctx {
                    now,
                    out: &mut self.out,
                };
                let to = self.admission.on_hello(from, &hello, ctx, |core| {
                    let shard = shard_of(core.conn_id());
                    let opened = shard.send(ShardEvent::Open(from, Box::new(core))).is_ok();
                    if opened {
                        live.fetch_add(1, AtomicOrdering::SeqCst);
                    }
                    opened
                });
                self.out
                    .drain(|reply| telem.send_to(&self.socket, reply, to));
                self.out.drain_effects(|at, effect| telem.fold(at, effect));
            }
            other => match self.admission.peer(conn) {
                Some(peer) if peer == from => {
                    let _ = shard_of(conn).send(ShardEvent::Msg {
                        conn,
                        msg: other,
                        at: now,
                    });
                }
                // A live id from another address: never the session's
                // (a client whose address changes mid-session is dropped).
                Some(_) => telem.foreign_source.inc(),
                None => {} // sessionless non-Hello: ignore
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::server_config;
    use crate::wire::{WindowEnd, CONN_NONE};
    use espread_protocol::{ClientCapabilities, FecPolicy};

    fn config() -> NetServerConfig {
        server_config(2, 3, FecPolicy::off())
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
}
