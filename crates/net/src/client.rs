//! The UDP streaming client: handshake, un-permute, measure, ACK.
//!
//! [`NetClient::connect`] runs the `Hello`/`Accept` negotiation under
//! bounded retry; [`NetClient::stream`] then receives the whole stream,
//! tracking each window with [`NetWindow`](crate::clientwin::NetWindow)
//! and answering every `WindowEnd` with a sequence-numbered `WindowAck`.
//!
//! The protocol lives in the sans-IO client core. This module owns the
//! socket and one loop that feeds the core datagrams and clock values and
//! sends what it queues.

use std::io::{self, ErrorKind::TimedOut, ErrorKind::WouldBlock};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::time::{Duration, Instant};

use espread_protocol::{ClientCapabilities, Ordering};
use espread_qos::{LossPattern, WindowSeries};

use crate::clientcore::{ClientCore, Step};
use crate::error::NetError;
use crate::obsrec::SessionRecorder;
use crate::retry::RetryPolicy;
use crate::session::{us, Ctx, OutQueue};
use crate::wire::Accept;

/// Socket poll granularity. Set as the read timeout **once** at connect
/// — every deadline lives in the core as a clock value, so steady-state
/// receives issue zero `set_read_timeout` syscalls (a deadline fires at
/// most one poll tick late).
const POLL: Duration = Duration::from_millis(10);

/// The one sanctioned way to touch the socket's read timeout: every
/// update is counted, so [`NetClientReport::timeout_updates`] acts as a
/// strace-free regression guard against per-receive syscall churn.
fn set_read_timeout_counted(socket: &UdpSocket, updates: &mut u64) -> io::Result<()> {
    *updates += 1;
    socket.set_read_timeout(Some(POLL))
}

/// Per-process handshake-nonce discriminator (the local port provides
/// cross-process uniqueness).
static NONCE_COUNTER: AtomicU64 = AtomicU64::new(1);

/// The first of `attempts` consecutive handshake nonces no prior `Hello`
/// from this process+port has used (the core moves one up per `Busy`).
fn first_nonce(socket: &UdpSocket, attempts: u32) -> io::Result<u64> {
    Ok((u64::from(socket.local_addr()?.port()) << 32)
        | NONCE_COUNTER.fetch_add(u64::from(attempts), AtomicOrdering::Relaxed))
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
    core: ClientCore,
    out: OutQueue,
    /// The core's clock counts µs from connect time.
    epoch: Instant,
    buf: Vec<u8>,
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
        set_read_timeout_counted(&socket, &mut timeout_updates)?;
        let nonce = first_nonce(&socket, config.retry.max_attempts)?;
        let mut client = NetClient {
            socket,
            core: ClientCore::new(config, nonce),
            out: OutQueue::default(),
            epoch: Instant::now(),
            buf: vec![0u8; 65_536],
            timeout_updates,
        };
        client.run(ClientCore::start)?;
        Ok(client)
    }

    /// The negotiated session shape.
    pub fn session(&self) -> &Accept {
        self.core.session()
    }

    /// Streams to completion (or deadline) and reports what arrived.
    ///
    /// # Errors
    ///
    /// [`NetError::StreamTimeout`] when the first datagram never arrives
    /// or the overall deadline passes; socket errors.
    pub fn stream(mut self) -> Result<NetClientReport, NetError> {
        self.run(ClientCore::begin)?;
        Ok(self.core.report(self.timeout_updates))
    }

    /// The one socket loop: `start` queues the opening datagram, then
    /// each pass sends what the core queued, waits in `recv` for a
    /// datagram or one poll tick, reads the clock once, feeds the
    /// datagram and fires the core's deadline when it is due — until the
    /// core connects, finishes or fails.
    fn run(&mut self, start: fn(&mut ClientCore, &mut Ctx<'_>)) -> Result<(), NetError> {
        let (now, out) = (us(self.epoch.elapsed()), &mut self.out);
        start(&mut self.core, &mut Ctx { now, out });
        let mut step = Step::Pending;
        loop {
            let (socket, core) = (&self.socket, &mut self.core);
            self.out
                .drain(|datagram| core.on_sent(socket.send(datagram).is_ok()));
            if step != Step::Pending {
                return Ok(());
            }
            let received = match self.socket.recv(&mut self.buf) {
                Ok(len) => Some(len),
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => None,
                Err(e) => return Err(NetError::Io(e)),
            };
            let (now, out) = (us(self.epoch.elapsed()), &mut self.out);
            let ctx = &mut Ctx { now, out };
            if let Some(len) = received {
                step = self.core.on_datagram(&self.buf[..len], ctx)?;
            }
            if step == Step::Pending && self.core.next_deadline().is_some_and(|t| t <= now) {
                step = self.core.on_deadline(ctx)?;
            }
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
    fn zero_deadline_rejected() {
        let config = NetClientConfig {
            deadline: Duration::ZERO,
            ..NetClientConfig::default()
        };
        let err = NetClient::connect("127.0.0.1:1".parse().unwrap(), config).unwrap_err();
        assert!(matches!(err, NetError::Config(_)));
    }
}
