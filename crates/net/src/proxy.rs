//! A userspace fault-injecting UDP proxy for loopback experiments.
//!
//! The proxy sits between client and server and gives each direction its
//! own [`FaultPolicy`]: a seeded Gilbert–Elliott loss process applied to
//! **data** datagrams only (reusing `espread-netsim`'s channel, so a
//! seed pins the exact loss realisation), a drop-the-first-N knob for
//! **control** datagrams (exercising retry/backoff), and counter-driven
//! duplicate/reorder knobs (deterministic — every Nth survivor, no RNG).
//! Datagrams that don't parse as ours are forwarded untouched.
//!
//! Because the Gilbert chain steps once per data datagram *in arrival
//! order*, two sessions that send the same number of data datagrams per
//! window see the *identical* per-slot loss realisation — the property
//! the end-to-end spread-vs-in-order comparison rests on (the paper's
//! same-channel methodology, §5.1, carried onto real sockets).

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use espread_netsim::GilbertModel;

use crate::obsrec::SessionRecorder;
use crate::telem::ProxyTelem;
use crate::wire::{peek_conn, peek_data_labels, peek_type};

/// Wire type byte of `Msg::Data` (the class the loss process applies to).
const DATA_TYPE: u8 = 4;

/// Wire type byte of `Msg::Parity`. Parity datagrams ride the same
/// channel as data: they step the Gilbert chain **in arrival order**
/// exactly like data datagrams, so enabling FEC shifts the loss
/// realisation the way extra real traffic would — no free parity.
const PARITY_TYPE: u8 = 10;

/// Fault injection for one direction of traffic.
#[derive(Debug, Clone)]
pub struct FaultPolicy {
    gilbert: Option<(f64, f64, u64)>,
    drop_first_control: u32,
    duplicate_every: Option<u64>,
    reorder_every: Option<u64>,
    corrupt_every: Option<u64>,
    truncate_every: Option<u64>,
}

impl FaultPolicy {
    /// Forward everything untouched.
    pub fn transparent() -> Self {
        FaultPolicy {
            gilbert: None,
            drop_first_control: 0,
            duplicate_every: None,
            reorder_every: None,
            corrupt_every: None,
            truncate_every: None,
        }
    }

    /// Drops data datagrams through a seeded Gilbert–Elliott channel with
    /// stay probabilities `p_good`/`p_bad` (the paper's §5.1 channel).
    pub fn gilbert_data_loss(mut self, p_good: f64, p_bad: f64, seed: u64) -> Self {
        self.gilbert = Some((p_good, p_bad, seed));
        self
    }

    /// Drops the first `n` control (non-data) datagrams — handshake and
    /// ACK traffic — to exercise retry paths.
    pub fn drop_first_control(mut self, n: u32) -> Self {
        self.drop_first_control = n;
        self
    }

    /// Duplicates every `n`th surviving datagram.
    pub fn duplicate_every(mut self, n: u64) -> Self {
        self.duplicate_every = Some(n.max(1));
        self
    }

    /// Holds every `n`th surviving datagram back and releases it after
    /// the next one — an adjacent swap (bounded reorder/delay).
    pub fn reorder_every(mut self, n: u64) -> Self {
        self.reorder_every = Some(n.max(1));
        self
    }

    /// XORs one byte of every `n`th surviving datagram (position and
    /// pattern derived from the survivor counter — deterministic, no
    /// RNG). Exercises decode-error and bad-fragment paths.
    pub fn corrupt_every(mut self, n: u64) -> Self {
        self.corrupt_every = Some(n.max(1));
        self
    }

    /// Cuts every `n`th surviving datagram to half its length before
    /// forwarding — the decoder must reject it, never panic.
    pub fn truncate_every(mut self, n: u64) -> Self {
        self.truncate_every = Some(n.max(1));
        self
    }
}

/// Snapshot of what the proxy did.
///
/// At quiescence the counters obey a conservation law — every datagram
/// the proxy ingested is accounted for exactly once:
///
/// ```text
/// processed = (forwarded − duplicated) + dropped_data
///           + dropped_parity + dropped_control + held
/// ```
///
/// [`ProxyStats::conserved`] checks it; the chaos soak asserts it after
/// every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProxyStats {
    /// Datagrams ingested (both directions).
    pub processed: u64,
    /// Datagrams sent on (duplicates included).
    pub forwarded: u64,
    /// Data datagrams the Gilbert channel swallowed.
    pub dropped_data: u64,
    /// Parity datagrams the Gilbert channel swallowed.
    pub dropped_parity: u64,
    /// Control datagrams dropped by `drop_first_control`.
    pub dropped_control: u64,
    /// Extra copies emitted.
    pub duplicated: u64,
    /// Datagrams released out of order.
    pub reordered: u64,
    /// Datagrams with an injected single-byte corruption.
    pub corrupted: u64,
    /// Datagrams cut short before forwarding.
    pub truncated: u64,
    /// Datagrams currently held back by the reorder knob (0 or 1 per
    /// direction; nonzero only when a stream stopped mid-swap).
    pub held: u64,
    /// Forwards the relay socket refused (`send`/`send_to` errors).
    /// Outside the conservation law: the datagram was already counted
    /// `forwarded` when the fault policy released it — this counts how
    /// many of those forwards never left the host.
    pub send_errors: u64,
}

impl ProxyStats {
    /// Whether the conservation law holds: ingested datagrams equal
    /// originals-forwarded plus drops plus still-held.
    pub fn conserved(&self) -> bool {
        self.processed
            == (self.forwarded - self.duplicated)
                + self.dropped_data
                + self.dropped_parity
                + self.dropped_control
                + self.held
    }
}

#[derive(Debug, Default)]
struct Counters {
    processed: AtomicU64,
    forwarded: AtomicU64,
    dropped_data: AtomicU64,
    dropped_parity: AtomicU64,
    dropped_control: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    corrupted: AtomicU64,
    truncated: AtomicU64,
    held: AtomicU64,
    send_errors: AtomicU64,
}

/// Per-direction fault state.
struct DirState {
    gilbert: Option<GilbertModel>,
    to_drop_control: u32,
    duplicate_every: Option<u64>,
    reorder_every: Option<u64>,
    corrupt_every: Option<u64>,
    truncate_every: Option<u64>,
    survivors: u64,
    held: Option<Vec<u8>>,
    counters: Arc<Counters>,
    telem: ProxyTelem,
    obs: SessionRecorder,
}

impl DirState {
    fn new(
        policy: &FaultPolicy,
        counters: Arc<Counters>,
        telem: ProxyTelem,
        obs: SessionRecorder,
    ) -> Self {
        DirState {
            gilbert: policy
                .gilbert
                .map(|(p_good, p_bad, seed)| GilbertModel::new(p_good, p_bad, seed)),
            to_drop_control: policy.drop_first_control,
            duplicate_every: policy.duplicate_every,
            reorder_every: policy.reorder_every,
            corrupt_every: policy.corrupt_every,
            truncate_every: policy.truncate_every,
            survivors: 0,
            held: None,
            counters: counters.clone(),
            telem,
            obs,
        }
    }

    /// Applies the policy to one datagram; returns what to send now, in
    /// order.
    fn process(&mut self, datagram: &[u8]) -> Vec<Vec<u8>> {
        self.counters
            .processed
            .fetch_add(1, AtomicOrdering::Relaxed);
        // Labels are peeked *before* any mangling, so the recorder's
        // verdicts name the true (window, frame, fragment) even when the
        // forwarded bytes end up corrupted.
        let labels = peek_data_labels(datagram);
        let conn = peek_conn(datagram).unwrap_or(0);
        match peek_type(datagram) {
            Some(ty @ (DATA_TYPE | PARITY_TYPE)) => {
                if let Some(channel) = &mut self.gilbert {
                    if !channel.step_delivers() {
                        let counter = if ty == DATA_TYPE {
                            &self.counters.dropped_data
                        } else {
                            &self.counters.dropped_parity
                        };
                        counter.fetch_add(1, AtomicOrdering::Relaxed);
                        self.telem.dropped.inc();
                        if let Some(l) = labels {
                            self.obs.dropped_data(l);
                        }
                        return Vec::new();
                    }
                }
            }
            Some(ty) if self.to_drop_control > 0 => {
                self.to_drop_control -= 1;
                self.counters
                    .dropped_control
                    .fetch_add(1, AtomicOrdering::Relaxed);
                self.telem.dropped.inc();
                self.obs.dropped_control(conn, ty);
                return Vec::new();
            }
            // Other control datagrams and alien traffic pass untouched.
            Some(_) | None => {}
        }
        self.survivors += 1;
        // Corruption/truncation mangle the surviving bytes before any
        // duplicate/reorder handling, so every emitted copy carries the
        // same damage (deterministic — derived from the survivor count).
        let mut datagram = datagram.to_vec();
        if self
            .corrupt_every
            .is_some_and(|n| self.survivors.is_multiple_of(n))
            && !datagram.is_empty()
        {
            let pos = (self.survivors as usize).wrapping_mul(7) % datagram.len();
            datagram[pos] ^= 0x55;
            self.counters
                .corrupted
                .fetch_add(1, AtomicOrdering::Relaxed);
            self.telem.corrupted.inc();
            self.obs.corrupted(labels, conn);
        }
        if self
            .truncate_every
            .is_some_and(|n| self.survivors.is_multiple_of(n))
            && datagram.len() > 1
        {
            datagram.truncate(datagram.len() / 2);
            self.counters
                .truncated
                .fetch_add(1, AtomicOrdering::Relaxed);
            self.telem.truncated.inc();
            self.obs.truncated(labels, conn);
        }
        let mut out = Vec::with_capacity(2);
        if self
            .reorder_every
            .is_some_and(|n| self.survivors.is_multiple_of(n) && self.held.is_none())
        {
            self.held = Some(datagram);
            self.counters.held.fetch_add(1, AtomicOrdering::Relaxed);
            self.counters
                .reordered
                .fetch_add(1, AtomicOrdering::Relaxed);
            self.telem.reordered.inc();
            if let Some(l) = labels {
                self.obs.reordered(l);
            }
            return out;
        }
        if self
            .duplicate_every
            .is_some_and(|n| self.survivors.is_multiple_of(n))
        {
            out.push(datagram.clone());
            self.counters
                .duplicated
                .fetch_add(1, AtomicOrdering::Relaxed);
            self.telem.duplicated.inc();
            if let Some(l) = labels {
                self.obs.duplicated(l);
            }
        }
        out.insert(0, datagram);
        if let Some(l) = labels {
            self.obs.forwarded_data(l);
        }
        if let Some(held) = self.held.take() {
            self.counters.held.fetch_sub(1, AtomicOrdering::Relaxed);
            // The held datagram is only now actually forwarded (its hold
            // was recorded as `reordered`); peek its own labels, which
            // may legitimately differ from the current datagram's.
            if let Some(l) = peek_data_labels(&held) {
                self.obs.forwarded_data(l);
            }
            out.push(held);
        }
        self.counters
            .forwarded
            .fetch_add(out.len() as u64, AtomicOrdering::Relaxed);
        for _ in &out {
            self.telem.forwarded.inc();
        }
        out
    }
}

/// A running proxy; dropping (or [`FaultProxy::shutdown`]) stops and
/// joins its two relay threads.
#[derive(Debug)]
pub struct FaultProxy {
    client_addr: SocketAddr,
    client_sock: Arc<UdpSocket>,
    server_sock: Arc<UdpSocket>,
    shutdown: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    counters: Arc<Counters>,
}

impl FaultProxy {
    /// Starts a proxy in front of the server at `upstream`. `to_client`
    /// shapes server→client traffic (the data path); `to_server` shapes
    /// client→server traffic (the feedback path). Clients connect to
    /// [`FaultProxy::client_addr`].
    ///
    /// # Errors
    ///
    /// Socket setup failures.
    pub fn spawn(
        upstream: SocketAddr,
        to_client: FaultPolicy,
        to_server: FaultPolicy,
    ) -> io::Result<Self> {
        FaultProxy::spawn_with_recorder(upstream, to_client, to_server, SessionRecorder::disabled())
    }

    /// Like [`FaultProxy::spawn`], but every verdict the fault policies
    /// reach (forwarded, dropped, mangled, held…) is also recorded into
    /// `recorder` with the datagram's pre-mangle labels — the proxy leg
    /// of a flight-recorder trio (see `espread-obs`).
    ///
    /// # Errors
    ///
    /// Socket setup failures.
    pub fn spawn_with_recorder(
        upstream: SocketAddr,
        to_client: FaultPolicy,
        to_server: FaultPolicy,
        recorder: SessionRecorder,
    ) -> io::Result<Self> {
        let client_sock = Arc::new(UdpSocket::bind("127.0.0.1:0")?);
        let client_addr = client_sock.local_addr()?;
        // Left unconnected: the relay checks each datagram's source
        // itself, so the shutdown wake can still reach this socket.
        let server_sock = Arc::new(UdpSocket::bind("127.0.0.1:0")?);
        let counters = Arc::new(Counters::default());
        let telem = ProxyTelem::default_global();
        let down = DirState::new(
            &to_client,
            Arc::clone(&counters),
            telem.clone(),
            recorder.clone(),
        );
        let up = DirState::new(&to_server, Arc::clone(&counters), telem, recorder);
        let mut proxy = FaultProxy {
            client_addr,
            client_sock,
            server_sock,
            shutdown: Arc::new(AtomicBool::new(false)),
            handles: Vec::with_capacity(2),
            counters,
        };
        // Replies go to whichever client spoke last. Every write stores
        // a whole `Copy` value, so a poisoned lock still holds a valid one.
        let last_client: Arc<Mutex<Option<SocketAddr>>> = Arc::default();
        let seen = Arc::clone(&last_client);
        // A failed spawn drops `proxy`, which wakes and joins the relay
        // thread already running.
        proxy.handles.push(relay(
            "espread-net-proxy-up",
            &proxy.client_sock,
            &proxy.server_sock,
            &proxy.shutdown,
            up,
            move |from| {
                *seen.lock().unwrap_or_else(PoisonError::into_inner) = Some(from);
                Some(upstream)
            },
        )?);
        proxy.handles.push(relay(
            "espread-net-proxy-down",
            &proxy.server_sock,
            &proxy.client_sock,
            &proxy.shutdown,
            down,
            move |from| {
                // An unconnected socket takes any sender: drop all but
                // the server here, before a stranger can step the chain
                // or touch a counter.
                if from == upstream {
                    *last_client.lock().unwrap_or_else(PoisonError::into_inner)
                } else {
                    None
                }
            },
        )?);
        Ok(proxy)
    }

    /// The address clients should treat as "the server".
    pub fn client_addr(&self) -> SocketAddr {
        self.client_addr
    }

    /// What the proxy has done so far.
    pub fn stats(&self) -> ProxyStats {
        ProxyStats {
            processed: self.counters.processed.load(AtomicOrdering::Relaxed),
            forwarded: self.counters.forwarded.load(AtomicOrdering::Relaxed),
            dropped_data: self.counters.dropped_data.load(AtomicOrdering::Relaxed),
            dropped_parity: self.counters.dropped_parity.load(AtomicOrdering::Relaxed),
            dropped_control: self.counters.dropped_control.load(AtomicOrdering::Relaxed),
            duplicated: self.counters.duplicated.load(AtomicOrdering::Relaxed),
            reordered: self.counters.reordered.load(AtomicOrdering::Relaxed),
            corrupted: self.counters.corrupted.load(AtomicOrdering::Relaxed),
            truncated: self.counters.truncated.load(AtomicOrdering::Relaxed),
            held: self.counters.held.load(AtomicOrdering::Relaxed),
            send_errors: self.counters.send_errors.load(AtomicOrdering::Relaxed),
        }
    }

    /// Stops both relay threads and joins them. Idempotent.
    ///
    /// Each thread is parked in a blocking receive, so after raising the
    /// flag each socket sends the other a zero-length wake datagram.
    pub fn shutdown(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.shutdown.store(true, AtomicOrdering::SeqCst);
        if let Ok(server_side) = self.server_sock.local_addr() {
            let _ = self.client_sock.send_to(&[], server_side);
        }
        let _ = self.server_sock.send_to(&[], self.client_addr);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Spawns one relay thread. It blocks in `recv_from` on `rx` with no
/// timeout, so a datagram is relayed the moment it lands. `route` maps a
/// datagram's source to where `tx` sends it, or to `None` to drop it
/// unprocessed. The stop flag is checked after every receive, before
/// anything is processed, so the zero-length wake
/// [`FaultProxy::shutdown`] sends never reaches the counters.
fn relay(
    name: &str,
    rx: &Arc<UdpSocket>,
    tx: &Arc<UdpSocket>,
    stop: &Arc<AtomicBool>,
    mut dir: DirState,
    mut route: impl FnMut(SocketAddr) -> Option<SocketAddr> + Send + 'static,
) -> io::Result<JoinHandle<()>> {
    let (rx, tx, stop) = (Arc::clone(rx), Arc::clone(tx), Arc::clone(stop));
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            let mut buf = vec![0u8; 65_536];
            loop {
                let received = rx.recv_from(&mut buf);
                if stop.load(AtomicOrdering::SeqCst) {
                    return;
                }
                let Ok((len, source)) = received else {
                    continue;
                };
                let Some(dest) = route(source) else {
                    continue;
                };
                for out in dir.process(&buf[..len]) {
                    if tx.send_to(&out, dest).is_err() {
                        dir.counters
                            .send_errors
                            .fetch_add(1, AtomicOrdering::Relaxed);
                        dir.telem.send_errors.inc();
                    }
                }
            }
        })
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{self, ByeReason, Msg};
    use espread_protocol::client::{DataMsg, ParityMember, ParityMsg};
    use espread_protocol::{Fragment, Ldu};
    use std::time::Duration;

    fn data_bytes(slot: u16) -> Vec<u8> {
        wire::try_encode(
            1,
            &Msg::Data(DataMsg {
                fragment: Fragment {
                    window: 0,
                    frame: usize::from(slot),
                    frag: 0,
                    frags_total: 1,
                    layer: 0,
                    layer_slot: slot,
                    retransmit: false,
                },
                ldu: Ldu::new(64),
                payload_len: 64,
            }),
        )
        .unwrap()
    }

    fn control_bytes() -> Vec<u8> {
        wire::try_encode(1, &Msg::Bye(ByeReason::Complete)).unwrap()
    }

    fn parity_bytes(group: u32) -> Vec<u8> {
        wire::try_encode(
            1,
            &Msg::Parity(ParityMsg {
                window: 0,
                group,
                m: 1,
                parity_index: 0,
                shard_bytes: 64,
                members: vec![ParityMember {
                    frame: 0,
                    frag: 0,
                    frags_total: 1,
                }],
            }),
        )
        .unwrap()
    }

    fn state(policy: FaultPolicy) -> DirState {
        DirState::new(
            &policy,
            Arc::new(Counters::default()),
            ProxyTelem::default_global(),
            SessionRecorder::disabled(),
        )
    }

    #[test]
    fn transparent_forwards_everything() {
        let mut s = state(FaultPolicy::transparent());
        for i in 0..5 {
            assert_eq!(s.process(&data_bytes(i)).len(), 1);
        }
        assert_eq!(s.process(&control_bytes()).len(), 1);
        assert_eq!(s.process(b"alien bytes").len(), 1);
        assert_eq!(s.counters.forwarded.load(AtomicOrdering::Relaxed), 7);
    }

    #[test]
    fn gilbert_drops_data_only_and_matches_the_model() {
        let mut s = state(FaultPolicy::transparent().gilbert_data_loss(0.92, 0.6, 7));
        let mut reference = GilbertModel::new(0.92, 0.6, 7);
        for i in 0..200u16 {
            let forwarded = !s.process(&data_bytes(i)).is_empty();
            assert_eq!(forwarded, reference.step_delivers(), "datagram {i}");
            // Control never steps the chain, never dropped.
            assert_eq!(s.process(&control_bytes()).len(), 1);
        }
        assert!(s.counters.dropped_data.load(AtomicOrdering::Relaxed) > 0);
        assert_eq!(s.counters.dropped_control.load(AtomicOrdering::Relaxed), 0);
    }

    /// Parity datagrams are channel traffic: they step the Gilbert chain
    /// in arrival order exactly as data does (so FEC arms pay for their
    /// redundancy in realisation shift), and their drops land in their
    /// own counter without breaking conservation.
    #[test]
    fn parity_steps_the_gilbert_chain_like_data() {
        let mut s = state(FaultPolicy::transparent().gilbert_data_loss(0.8, 0.5, 11));
        let mut reference = GilbertModel::new(0.8, 0.5, 11);
        for i in 0..200u16 {
            // Interleave data and parity: both must follow the one chain.
            let bytes = if i % 3 == 2 {
                parity_bytes(u32::from(i))
            } else {
                data_bytes(i)
            };
            let forwarded = !s.process(&bytes).is_empty();
            assert_eq!(forwarded, reference.step_delivers(), "datagram {i}");
            // Control still never steps the chain.
            assert_eq!(s.process(&control_bytes()).len(), 1);
            assert!(stats_of(&s.counters).conserved());
        }
        let st = stats_of(&s.counters);
        assert!(st.dropped_data > 0, "data drops observed");
        assert!(st.dropped_parity > 0, "parity drops observed");
        assert_eq!(st.dropped_control, 0);
    }

    #[test]
    fn first_control_datagrams_dropped() {
        let mut s = state(FaultPolicy::transparent().drop_first_control(2));
        assert!(s.process(&control_bytes()).is_empty());
        assert!(s.process(&data_bytes(0)).len() == 1, "data unaffected");
        assert!(s.process(&control_bytes()).is_empty());
        assert_eq!(s.process(&control_bytes()).len(), 1, "budget spent");
        assert_eq!(s.counters.dropped_control.load(AtomicOrdering::Relaxed), 2);
    }

    #[test]
    fn duplicate_and_reorder_are_counter_driven() {
        let mut s = state(FaultPolicy::transparent().duplicate_every(3));
        assert_eq!(s.process(&data_bytes(0)).len(), 1);
        assert_eq!(s.process(&data_bytes(1)).len(), 1);
        assert_eq!(s.process(&data_bytes(2)).len(), 2, "every 3rd doubled");

        let mut s = state(FaultPolicy::transparent().reorder_every(2));
        assert_eq!(s.process(&data_bytes(0)).len(), 1);
        assert!(s.process(&data_bytes(1)).is_empty(), "held back");
        let out = s.process(&data_bytes(2));
        assert_eq!(out.len(), 2, "held one released after the next");
        assert_eq!(out[0], data_bytes(2));
        assert_eq!(out[1], data_bytes(1));
    }

    #[test]
    fn corrupt_every_mangles_one_byte_deterministically() {
        let mut a = state(FaultPolicy::transparent().corrupt_every(2));
        let mut b = state(FaultPolicy::transparent().corrupt_every(2));
        for i in 0..6u16 {
            let out_a = a.process(&data_bytes(i));
            let out_b = b.process(&data_bytes(i));
            assert_eq!(out_a, out_b, "corruption must be deterministic");
            let original = data_bytes(i);
            let differing = out_a[0]
                .iter()
                .zip(&original)
                .filter(|(x, y)| x != y)
                .count();
            assert_eq!(out_a[0].len(), original.len());
            if u64::from(i + 1).is_multiple_of(2) {
                assert_eq!(differing, 1, "datagram {i}: exactly one byte flipped");
            } else {
                assert_eq!(differing, 0, "datagram {i}: untouched");
            }
        }
        assert_eq!(a.counters.corrupted.load(AtomicOrdering::Relaxed), 3);
    }

    #[test]
    fn truncate_every_halves_the_datagram() {
        let mut s = state(FaultPolicy::transparent().truncate_every(3));
        assert_eq!(s.process(&data_bytes(0))[0].len(), data_bytes(0).len());
        assert_eq!(s.process(&data_bytes(1))[0].len(), data_bytes(1).len());
        let out = s.process(&data_bytes(2));
        assert_eq!(out[0].len(), data_bytes(2).len() / 2, "every 3rd cut");
        assert!(crate::wire::decode(&out[0]).is_err(), "cut rejects cleanly");
        assert_eq!(s.counters.truncated.load(AtomicOrdering::Relaxed), 1);
    }

    fn stats_of(c: &Counters) -> ProxyStats {
        ProxyStats {
            processed: c.processed.load(AtomicOrdering::Relaxed),
            forwarded: c.forwarded.load(AtomicOrdering::Relaxed),
            dropped_data: c.dropped_data.load(AtomicOrdering::Relaxed),
            dropped_parity: c.dropped_parity.load(AtomicOrdering::Relaxed),
            dropped_control: c.dropped_control.load(AtomicOrdering::Relaxed),
            duplicated: c.duplicated.load(AtomicOrdering::Relaxed),
            reordered: c.reordered.load(AtomicOrdering::Relaxed),
            corrupted: c.corrupted.load(AtomicOrdering::Relaxed),
            truncated: c.truncated.load(AtomicOrdering::Relaxed),
            held: c.held.load(AtomicOrdering::Relaxed),
            send_errors: c.send_errors.load(AtomicOrdering::Relaxed),
        }
    }

    #[test]
    fn conservation_law_holds_under_every_knob() {
        let mut s = state(
            FaultPolicy::transparent()
                .gilbert_data_loss(0.8, 0.5, 11)
                .drop_first_control(3)
                .duplicate_every(4)
                .reorder_every(5)
                .corrupt_every(6)
                .truncate_every(7),
        );
        for i in 0..300u16 {
            let _ = s.process(&data_bytes(i));
            let _ = s.process(&control_bytes());
            let st = stats_of(&s.counters);
            assert!(st.conserved(), "after datagram {i}: {st:?}");
        }
        let st = stats_of(&s.counters);
        assert!(st.dropped_data > 0 && st.dropped_control == 3);
        assert!(st.duplicated > 0 && st.reordered > 0);
        assert!(st.corrupted > 0 && st.truncated > 0);
    }

    #[test]
    fn spawn_forwards_and_shuts_down_cleanly() {
        let echo = UdpSocket::bind("127.0.0.1:0").unwrap();
        echo.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut proxy = FaultProxy::spawn(
            echo.local_addr().unwrap(),
            FaultPolicy::transparent(),
            FaultPolicy::transparent(),
        )
        .unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        client
            .send_to(&control_bytes(), proxy.client_addr())
            .unwrap();
        let mut buf = [0u8; 1500];
        let (len, from) = echo.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..len], &control_bytes()[..]);
        // And back through the proxy to the client.
        echo.send_to(&data_bytes(3), from).unwrap();
        let (len, _) = client.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..len], &data_bytes(3)[..]);
        assert_eq!(proxy.stats().forwarded, 2);
        proxy.shutdown();
        proxy.shutdown(); // idempotent
    }

    /// A proxy in front of a fresh upstream socket, plus a client socket;
    /// both test sockets time out rather than hang.
    fn proxied() -> (FaultProxy, UdpSocket, UdpSocket) {
        let upstream = UdpSocket::bind("127.0.0.1:0").unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        for sock in [&upstream, &client] {
            sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        }
        let proxy = FaultProxy::spawn(
            upstream.local_addr().unwrap(),
            FaultPolicy::transparent(),
            FaultPolicy::transparent(),
        )
        .unwrap();
        (proxy, upstream, client)
    }

    #[test]
    fn server_side_drops_foreign_sources_unprocessed() {
        let (mut proxy, upstream, client) = proxied();
        client
            .send_to(&control_bytes(), proxy.client_addr())
            .unwrap();
        let mut buf = [0u8; 1500];
        let (_, server_side) = upstream.recv_from(&mut buf).unwrap();
        // A stranger writes to the server-facing socket before the real
        // server does: the relay must neither forward nor count it.
        let stranger = UdpSocket::bind("127.0.0.1:0").unwrap();
        stranger.send_to(&data_bytes(9), server_side).unwrap();
        upstream.send_to(&data_bytes(3), server_side).unwrap();
        let (len, _) = client.recv_from(&mut buf).unwrap();
        assert_eq!(
            &buf[..len],
            &data_bytes(3)[..],
            "only the server's datagram"
        );
        client
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        assert!(client.recv_from(&mut buf).is_err(), "stranger not relayed");
        proxy.shutdown();
        let st = proxy.stats();
        assert_eq!((st.processed, st.forwarded), (2, 2), "{st:?}");
        assert!(st.conserved());
    }

    #[test]
    fn idle_proxy_wakes_and_joins_both_threads() {
        let (mut proxy, _upstream, _client) = proxied();
        assert_eq!(proxy.handles.len(), 2, "one relay thread per direction");
        // Both threads sit in a blocking receive: shutdown must wake them
        // rather than hang, so run it under a watchdog.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            proxy.shutdown();
            let _ = done_tx.send(proxy);
        });
        let mut proxy = done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("shutdown joined both relay threads");
        assert!(proxy.handles.is_empty());
        let st = proxy.stats();
        assert_eq!(st, ProxyStats::default(), "the wakes touch no counter");
        assert!(st.conserved());
        proxy.shutdown(); // a no-op the second time
        assert_eq!(proxy.stats(), st);
    }

    #[test]
    fn concurrent_traffic_both_ways_is_relayed_and_conserves() {
        const N: u16 = 300;
        // Echoes in flight at once, kept well under a loopback socket's
        // receive buffer so the kernel never drops one.
        const WINDOW: usize = 32;
        let (mut proxy, upstream, client) = proxied();
        let echo = std::thread::spawn(move || {
            let mut buf = [0u8; 1500];
            for _ in 0..N {
                let (len, from) = upstream.recv_from(&mut buf).unwrap();
                upstream.send_to(&buf[..len], from).unwrap();
            }
        });
        let client = Arc::new(client);
        let echoed = Arc::new(AtomicU64::new(0));
        let sender = {
            let (client, echoed, to) = (
                Arc::clone(&client),
                Arc::clone(&echoed),
                proxy.client_addr(),
            );
            std::thread::spawn(move || {
                for i in 0..N {
                    while u64::from(i) >= echoed.load(AtomicOrdering::SeqCst) + WINDOW as u64 {
                        std::thread::yield_now();
                    }
                    client.send_to(&data_bytes(i), to).unwrap();
                }
            })
        };
        let mut buf = [0u8; 1500];
        for i in 0..N {
            let (len, _) = client.recv_from(&mut buf).unwrap();
            assert_eq!(&buf[..len], &data_bytes(i)[..], "echo {i} in order");
            echoed.fetch_add(1, AtomicOrdering::SeqCst);
        }
        sender.join().unwrap();
        echo.join().unwrap();
        proxy.shutdown();
        let st = proxy.stats();
        let total = 2 * u64::from(N);
        assert_eq!((st.processed, st.forwarded), (total, total), "{st:?}");
        assert!(st.conserved());
    }
}
