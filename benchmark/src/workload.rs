//! The four workloads and the harness that runs one session of each.
//!
//! Every workload streams the paper's Jurassic Park trace (trace seed 1,
//! GOP 12, 24 fps) and plans each window with the adaptive spread order.
//! `--seed S` derives every channel seed — session `i` rides a
//! Gilbert–Elliott channel seeded `S + i` — and the program under test
//! only ever receives the generated configs.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use espread_net::{
    FaultPolicy, FaultProxy, NetClient, NetClientConfig, NetServer, NetServerConfig, ProxyStats,
};
use espread_protocol::{
    FecPolicy, FecScope, Ordering, ProtocolConfig, Session, SessionOffer, StreamSource,
};
use espread_trace::{GopPattern, Movie, MpegTrace};

use crate::trace::{Recorder, SpanId};

/// Gilbert–Elliott GOOD→GOOD stay probability (§5.1).
pub const P_GOOD: f64 = 0.92;
/// Gilbert–Elliott BAD→BAD stay probability (the Fig. 8 setting).
pub const P_BAD: f64 = 0.6;

/// One named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 8 experiment over the simulated channel, both
    /// arms (spread and in-order) on every seed.
    SimFig8,
    /// Unpaced 8-window sessions at 512-byte packets with RS(8, 2) parity
    /// over loopback: the data plane.
    UdpStream,
    /// Unpaced 1-window sessions: handshake, set-up and teardown.
    UdpChurn,
    /// Shipped defaults through a lossy proxy, with parity and NACKs.
    UdpLossy,
}

impl Workload {
    /// Every workload, in the default run order.
    pub const ALL: [Workload; 4] = [
        Workload::SimFig8,
        Workload::UdpStream,
        Workload::UdpChurn,
        Workload::UdpLossy,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimFig8 => "sim_fig8",
            Workload::UdpStream => "udp_stream",
            Workload::UdpChurn => "udp_churn",
            Workload::UdpLossy => "udp_lossy",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client threads. The simulator needs no sockets, so one
    /// thread keeps its timings free of contention; the UDP workloads use
    /// two clients (two connections) on a two-core host.
    pub fn clients(self) -> usize {
        match self {
            Workload::SimFig8 => 1,
            _ => 2,
        }
    }

    /// Sessions `0..K` every run completes, so quality numbers (CLF on
    /// matched seeds) cover the same sessions on every run of a seed
    /// however fast the host is. Sized to finish well inside a 20 s run.
    pub fn quality_sessions(self) -> usize {
        match self {
            Workload::SimFig8 => 2000,
            Workload::UdpLossy => 200,
            Workload::UdpStream | Workload::UdpChurn => 0,
        }
    }

    /// Whether the path drops nothing, so any lost frame is a bug.
    pub fn lossless(self) -> bool {
        matches!(self, Workload::UdpStream | Workload::UdpChurn)
    }

    /// Whether sessions run over real sockets.
    pub fn is_udp(self) -> bool {
        self != Workload::SimFig8
    }

    /// The session shape this workload streams.
    pub fn shape(self) -> Shape {
        let (gops_per_window, windows, packet_bytes, fec) = match self {
            Workload::SimFig8 => (2, 100, 2048, FecPolicy::off()),
            Workload::UdpStream => (2, 8, 512, FecPolicy::rs(FecScope::All, 8, 2)),
            Workload::UdpChurn => (1, 1, 2048, FecPolicy::off()),
            Workload::UdpLossy => (1, 4, 2048, FecPolicy::xor_critical(4)),
        };
        let trace = MpegTrace::new(Movie::JurassicPark, 1);
        Shape {
            offer: SessionOffer {
                gop_pattern: GopPattern::gop12(),
                gops_per_window,
                open_gop: false,
                fps: trace.fps(),
                packet_bytes,
                max_frame_bytes: (Movie::JurassicPark.max_gop_bits() / 8) as u32,
                fec,
            },
            source: StreamSource::mpeg(&trace, gops_per_window, windows, false),
            lossy: matches!(self, Workload::SimFig8 | Workload::UdpLossy),
        }
    }
}

/// What a workload streams: the offer, the source, and whether a
/// Gilbert–Elliott channel sits on the data path.
#[derive(Debug, Clone)]
pub struct Shape {
    /// The session offer (packet size and FEC policy included).
    pub offer: SessionOffer,
    /// The windows streamed by every session.
    pub source: StreamSource,
    /// Whether data datagrams cross a lossy channel.
    pub lossy: bool,
}

impl Shape {
    /// The server-side protocol config for channel seed `seed`. The server
    /// fragments by `protocol.packet_bytes` while the Accept advertises
    /// `offer.packet_bytes`, so both carry the same size.
    pub fn protocol(&self, seed: u64) -> ProtocolConfig {
        ProtocolConfig {
            packet_bytes: self.offer.packet_bytes,
            ..ProtocolConfig::paper(P_BAD, seed)
        }
    }
}

/// What one session (one seed) produced.
#[derive(Debug, Clone, Default)]
pub struct SessionOutcome {
    /// Session index (channel seed `S + index`).
    pub index: usize,
    /// One `connect` + `stream`, or the spread arm's `Session::run`.
    pub elapsed: Duration,
    /// When the session returned, from the start of its phase.
    pub finished: Duration,
    /// `NetClient::connect` alone (UDP only).
    pub connect: Option<Duration>,
    /// `Session::run` calls (2 per seed on the simulator) or sessions.
    pub runs: u64,
    /// Why the session failed, if it did.
    pub error: Option<String>,
    /// Windows the stream promised and completed.
    pub windows_total: usize,
    /// Windows completed.
    pub windows_completed: usize,
    /// Summed per-window CLF.
    pub clf_sum: u64,
    /// Summed per-window CLF of the in-order arm on the same channel
    /// (simulator only).
    pub in_order_clf_sum: u64,
    /// Frames lost after every repair.
    pub lost_frames: u64,
    /// Critical (anchor) frames lost after parity and NACKs.
    pub critical_lost: u64,
    /// Critical frames streamed.
    pub critical_total: u64,
    /// Client report counters (UDP only).
    pub data_rx: u64,
    /// Parity datagrams received.
    pub parity_rx: u64,
    /// `WindowAck`s sent.
    pub acks: u64,
    /// `CriticalNack`s sent.
    pub nacks: u64,
    /// Extra `Hello` sends.
    pub hello_retries: u64,
    /// Fragments repaired by parity.
    pub fec_recovered: u64,
    /// Client sends the socket refused.
    pub send_errors: u64,
    /// The session's proxy counters (udp_lossy only).
    pub proxy: Option<ProxyStats>,
}

impl SessionOutcome {
    /// Completed every promised window without an error.
    pub fn ok(&self) -> bool {
        self.error.is_none()
            && self.windows_total > 0
            && self.windows_completed == self.windows_total
    }
}

/// A workload set up and ready to run sessions.
pub struct Harness {
    /// The workload.
    pub workload: Workload,
    /// The `--seed` every channel seed derives from.
    pub seed: u64,
    /// The streamed shape.
    pub shape: Shape,
    server: Option<NetServer>,
    client: NetClientConfig,
}

impl Harness {
    /// Builds the trace and source and, for UDP workloads, binds the
    /// server (one worker; unpaced except on `udp_lossy`, which keeps the
    /// shipped 50 µs pacing).
    ///
    /// # Errors
    ///
    /// Server configuration or socket errors.
    pub fn new(workload: Workload, seed: u64) -> Result<Harness, String> {
        let mut h = Harness {
            workload,
            seed,
            shape: workload.shape(),
            server: None,
            client: NetClientConfig {
                recovery: workload == Workload::UdpLossy,
                ..NetClientConfig::default()
            },
        };
        h.rebind()?;
        Ok(h)
    }

    /// Stops the running server, if any, and binds a fresh one (UDP
    /// workloads) — new demux and worker threads on a new port.
    ///
    /// # Errors
    ///
    /// Server configuration or socket errors.
    pub fn rebind(&mut self) -> Result<(), String> {
        self.shutdown();
        if self.workload.is_udp() {
            let mut config = NetServerConfig::new(
                self.shape.protocol(self.seed),
                self.shape.offer.clone(),
                self.shape.source.clone(),
            );
            config.workers = 1;
            if self.workload != Workload::UdpLossy {
                config.pace = Duration::ZERO;
            }
            self.server = Some(
                NetServer::bind("127.0.0.1:0", config).map_err(|e| format!("bind server: {e}"))?,
            );
        }
        Ok(())
    }

    /// Channel seed of session `index`.
    pub fn channel_seed(&self, index: usize) -> u64 {
        self.seed.wrapping_add(index as u64)
    }

    /// The running server (UDP workloads).
    pub fn server(&self) -> Option<&NetServer> {
        self.server.as_ref()
    }

    /// Stops the server and joins its threads.
    pub fn shutdown(&mut self) {
        if let Some(server) = &mut self.server {
            server.shutdown();
        }
    }

    /// Runs session `index`, recording spans into `rec` (a disabled
    /// recorder reads no clock). On `udp_lossy` the session's proxy comes
    /// back still running: see [`retire`].
    pub fn session(
        &self,
        index: usize,
        rec: &mut Recorder,
    ) -> (SessionOutcome, Option<FaultProxy>) {
        let mut out = SessionOutcome {
            index,
            ..SessionOutcome::default()
        };
        let root = rec.open("session", SpanId::NONE);
        let proxy = match &self.server {
            None => {
                self.sim_session(&mut out, rec, root);
                None
            }
            Some(server) => self.udp_session(server.local_addr(), &mut out, rec, root),
        };
        rec.close(root, 1);
        (out, proxy)
    }

    fn sim_session(&self, out: &mut SessionOutcome, rec: &mut Recorder, root: SpanId) {
        let spread_cfg = self.shape.protocol(self.channel_seed(out.index));
        let plain_cfg = spread_cfg.clone().with_ordering(Ordering::InOrder);
        let spread = Session::new(spread_cfg, self.shape.source.clone());
        let plain = Session::new(plain_cfg, self.shape.source.clone());
        let started = Instant::now();
        let s = rec.time("protocol.session.run", root, || (spread.run(), 1));
        out.elapsed = started.elapsed();
        let p = rec.time("protocol.session.run", root, || (plain.run(), 1));
        out.runs = 2;
        out.windows_total = self.shape.source.window_count();
        out.windows_completed = s.series.len().min(p.series.len());
        out.clf_sum = s.series.clf_values().map(|c| c as u64).sum();
        out.in_order_clf_sum = p.series.clf_values().map(|c| c as u64).sum();
        out.lost_frames = s.patterns.iter().map(|pat| pat.lost() as u64).sum();
        out.critical_lost = s.critical_lost;
        out.critical_total = s.critical_total;
    }

    fn udp_session(
        &self,
        server: SocketAddr,
        out: &mut SessionOutcome,
        rec: &mut Recorder,
        root: SpanId,
    ) -> Option<FaultProxy> {
        out.runs = 1;
        let mut proxy = None;
        let target = if self.shape.lossy {
            let policy = FaultPolicy::transparent().gilbert_data_loss(
                P_GOOD,
                P_BAD,
                self.channel_seed(out.index),
            );
            match FaultProxy::spawn(server, policy, FaultPolicy::transparent()) {
                Ok(p) => {
                    let addr = p.client_addr();
                    proxy = Some(p);
                    addr
                }
                Err(e) => {
                    out.error = Some(format!("spawn proxy: {e}"));
                    return None;
                }
            }
        } else {
            server
        };
        let started = Instant::now();
        let connected = rec.time("net.client.connect", root, || {
            (NetClient::connect(target, self.client.clone()), 1)
        });
        out.connect = Some(started.elapsed());
        let result = connected.and_then(|client| {
            let critical = client.session().critical_frames.clone();
            rec.time("net.client.stream", root, || (client.stream(), 1))
                .map(|report| (critical, report))
        });
        out.elapsed = started.elapsed();
        let (critical, report) = match result {
            Ok(ok) => ok,
            Err(e) => {
                out.error = Some(e.to_string());
                return proxy;
            }
        };
        out.windows_total = report.windows_total;
        out.windows_completed = report.windows_completed;
        out.clf_sum = report.series.clf_values().map(|c| c as u64).sum();
        out.lost_frames = report.patterns.iter().map(|p| p.lost() as u64).sum();
        for pattern in &report.patterns {
            out.critical_total += critical.len() as u64;
            out.critical_lost += critical
                .iter()
                .filter(|&&f| pattern.is_lost(usize::from(f)))
                .count() as u64;
        }
        out.data_rx = report.data_rx;
        out.parity_rx = report.parity_rx;
        out.acks = report.acks_sent;
        out.nacks = report.nacks_sent;
        out.hello_retries = u64::from(report.hello_retries);
        out.fec_recovered = report.fec_recovered;
        out.send_errors = report.send_errors;
        if report.windows_total != self.shape.source.window_count() {
            out.error = Some(format!(
                "server promised {} windows, the source has {}",
                report.windows_total,
                self.shape.source.window_count()
            ));
        }
        proxy
    }
}

/// How long a proxy is left running after its session before it may be
/// stopped: longer than the two receive polls of one relay cycle, each a
/// 1 ms timeout the kernel stretches to whole ticks (8 ms measured; see
/// `rcvtimeo_1ms_wait_ms` in a result's `measured_on`).
const PROXY_LINGER: Duration = Duration::from_millis(20);

/// Stops a proxy and reads its counters, which obey the conservation law
/// once it is stopped.
///
/// A client returns as soon as it has sent its `ByeAck`, possibly before
/// the proxy relays it. A proxy stopped at that moment leaves the server
/// retrying `Bye` at a closed port that a later proxy may bind, and the
/// client does not check the connection id of what it receives, so the
/// stray `Bye` ends an unrelated session early (or, landing on a proxy's
/// client-facing socket, redirects that proxy's traffic). Callers
/// therefore keep each proxy running until the client's next session
/// has finished, or [`settle`] the last one.
pub fn retire(mut proxy: FaultProxy) -> ProxyStats {
    proxy.shutdown();
    proxy.stats()
}

/// [`retire`] after a 20 ms linger, for a proxy whose client runs no
/// further session.
pub fn settle(proxy: FaultProxy) -> ProxyStats {
    std::thread::sleep(PROXY_LINGER);
    retire(proxy)
}
