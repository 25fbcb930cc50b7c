//! Whole sessions with no socket: [`Pair`] joins the server's
//! [`Admission`] and [`SessionCore`] to a [`ClientCore`] by plain
//! `Vec<u8>` hand-off on one integer clock, from the client's first
//! `Hello`. It is a shell like the demux, the shard and `NetClient`: it
//! hands each call its clock, carries the datagrams across, and folds
//! each side's effects into that side's counters, flight recorder and
//! report. Test-only.

use std::collections::BTreeSet;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::sync::Arc;
use std::time::Duration;

use espread_obs::{reconstruct, trio, EventKind, FlightRecorder, Recording};
use espread_protocol::{FecPolicy, FecScope, ProtocolConfig, SessionOffer, StreamSource};
use espread_trace::{GopPattern, Movie, MpegTrace};

use crate::admission::Admission;
use crate::client::{NetClientConfig, NetClientReport};
use crate::clientcore::{ClientCore, Step};
use crate::error::NetError;
use crate::obsrec::SessionRecorder;
use crate::server::NetServerConfig;
use crate::session::{earliest, Ctx, OutQueue, SessionCore};
use crate::telem::{ClientTelem, ServerTelem};
use crate::wire::{self, Msg};

pub(crate) const NONCE: u64 = 7 << 32;
/// The id admission gives the first session.
pub(crate) const CONN: u32 = 1;
/// The client's address, as admission sees it.
const CLIENT: SocketAddr = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 9));
/// The shared clock's start: far enough from 0 that nothing clamps.
const T0: u64 = 1_000;

pub(crate) fn decode(datagram: &[u8]) -> Msg {
    wire::decode(datagram).expect("datagrams decode").1
}

pub(crate) fn rs82() -> FecPolicy {
    FecPolicy::rs(FecScope::All, 8, 2)
}

/// The server config the crate's unit tests stream under: `windows`
/// windows of `gops` Jurassic Park GOP 12s each, served with `fec`.
pub(crate) fn server_config(gops: usize, windows: usize, fec: FecPolicy) -> NetServerConfig {
    let trace = MpegTrace::new(Movie::JurassicPark, 1);
    let offer = SessionOffer {
        gop_pattern: GopPattern::gop12(),
        gops_per_window: gops,
        open_gop: false,
        fps: 24,
        packet_bytes: 2048,
        max_frame_bytes: 62_776 / 8,
        fec,
    };
    let source = StreamSource::mpeg(&trace, gops, windows, false);
    NetServerConfig::new(ProtocolConfig::paper(0.6, 1), offer, source)
}

/// One client input, logged with its clock so a script replays.
#[derive(Debug, Clone)]
pub(crate) enum Input {
    Start,
    Begin,
    Datagram(Vec<u8>),
    Deadline,
}

pub(crate) fn apply(
    core: &mut ClientCore,
    input: &Input,
    ctx: &mut Ctx<'_>,
) -> Result<Step, NetError> {
    match input {
        Input::Start => core.start(ctx),
        Input::Begin => core.begin(ctx),
        Input::Datagram(d) => return core.on_datagram(d, ctx),
        Input::Deadline => return core.on_deadline(ctx),
    }
    Ok(Step::Pending)
}

/// The server's admission and session and a `ClientCore` joined by
/// plain `Vec<u8>` hand-off on one integer clock: a session with no
/// socket. Like the demux, the shard and `NetClient`, the harness folds
/// each side's effects into its books, here with a flight recorder
/// attached to each side.
pub(crate) struct Pair {
    admission: Admission,
    /// The session admission opened, once a `Hello` crossed.
    server: Option<SessionCore>,
    client: ClientCore,
    now: u64,
    to_client: OutQueue,
    to_server: OutQueue,
    /// Every client input with its clock.
    inputs: Vec<(u64, Input)>,
    /// Every clock value handed to either core.
    clocks: BTreeSet<u64>,
    server_books: ServerTelem,
    client_books: ClientTelem,
    report: NetClientReport,
    recorders: [FlightRecorder; 2],
}

impl Pair {
    /// A client about to send its `Hello` for a stream of `windows`
    /// Jurassic Park windows, one GOP 12 each.
    pub(crate) fn connect(windows: usize, fec: FecPolicy) -> Self {
        Self::connect_to(server_config(1, windows, fec), NetClientConfig::default())
    }

    /// A client configured by `config`, about to send its `Hello` to a
    /// server configured by `server`, unpaced. The handshake crosses in
    /// the first rounds, and the client begins the stream once accepted.
    fn connect_to(mut server: NetServerConfig, config: NetClientConfig) -> Self {
        server.pace = Duration::ZERO;
        let mut client = ClientCore::new(config, NONCE);
        let mut to_server = OutQueue::default();
        client.start(&mut Ctx {
            now: T0,
            out: &mut to_server,
        });
        let (srec, _, crec) = trio(1 << 16, 0);
        Pair {
            admission: Admission::new(server),
            server: None,
            client,
            now: T0,
            to_client: OutQueue::default(),
            to_server,
            inputs: vec![(T0, Input::Start)],
            clocks: BTreeSet::from([T0]),
            server_books: ServerTelem::new(SessionRecorder::attached(srec.clone())),
            client_books: ClientTelem::new(SessionRecorder::attached(crec.clone())),
            report: NetClientReport::default(),
            recorders: [srec, crec],
        }
    }

    fn feed(&mut self, input: Input) -> Result<Step, NetError> {
        let ctx = &mut Ctx {
            now: self.now,
            out: &mut self.to_server,
        };
        let step = apply(&mut self.client, &input, ctx);
        self.inputs.push((self.now, input));
        step
    }

    /// Folds both cores' pending effects into their books. Every call
    /// since the last fold ran at `self.now`, so each effect must carry
    /// exactly that clock value.
    fn fold(&mut self) {
        let (server, client, now) = (&self.server_books, &self.client_books, self.now);
        self.to_client.drain_effects(|at, effect| {
            assert_eq!(at, now, "{effect:?} is stamped with its call's clock");
            server.fold(at, effect);
        });
        let report = &mut self.report;
        self.to_server.drain_effects(|at, effect| {
            assert_eq!(at, now, "{effect:?} is stamped with its call's clock");
            client.fold(report, at, effect);
        });
    }

    /// One round on the shared clock: the server fires what is due
    /// and pumps, the client fires its deadline when due, then every
    /// queued datagram crosses unless `deliver` drops it, and each
    /// side's effects are folded. When nothing crossed, the clock
    /// moves to the next deadline.
    fn round(&mut self, deliver: &mut impl FnMut(&Msg) -> bool) -> Step {
        self.clocks.insert(self.now);
        let ctx = &mut Ctx {
            now: self.now,
            out: &mut self.to_client,
        };
        if let Some(server) = &mut self.server {
            server.on_deadline(ctx);
            server.on_tick(ctx);
        }
        let mut step = Step::Pending;
        if self.client.next_deadline().is_some_and(|t| t <= self.now) {
            step = self.feed(Input::Deadline).expect("the stream heals");
        }
        let mut down = Vec::new();
        self.to_client.drain(|d| down.push(d.to_vec()));
        let mut crossed = !down.is_empty();
        for d in down {
            if deliver(&decode(&d)) {
                match self.feed(Input::Datagram(d)).expect("the stream heals") {
                    Step::Pending => {}
                    // Accepted: begin the stream, as `NetClient` does.
                    Step::Connected => {
                        self.feed(Input::Begin).expect("a Begin queues");
                    }
                    s => step = s,
                }
            }
        }
        let mut up = Vec::new();
        self.to_server.drain(|d| up.push(decode(d)));
        crossed |= !up.is_empty();
        for msg in up.iter().filter(|m| deliver(m)) {
            self.serve(msg);
        }
        self.fold();
        if !crossed {
            let server = self.server.as_ref().and_then(SessionCore::next_deadline);
            let next = earliest(server, self.client.next_deadline());
            self.now = next.expect("a deadline is armed").max(self.now);
        }
        step
    }

    /// A datagram reaches the server: admission answers a `Hello` and
    /// may open the session, which takes every other datagram.
    fn serve(&mut self, msg: &Msg) {
        let ctx = &mut Ctx {
            now: self.now,
            out: &mut self.to_client,
        };
        let Msg::Hello(hello) = msg else {
            if let Some(server) = &mut self.server {
                server.on_msg(msg, self.now, ctx);
            }
            return;
        };
        let mut opened = None;
        self.admission.on_hello(CLIENT, hello, ctx, |core| {
            opened = Some(core);
            true
        });
        if let Some(mut core) = opened {
            core.start(ctx);
            assert!(
                self.server.replace(core).is_none(),
                "one client, one session"
            );
        }
    }

    /// Rounds until the client's stream ends.
    fn finish(&mut self, deliver: &mut impl FnMut(&Msg) -> bool) {
        for _ in 0..100_000 {
            if self.round(deliver) == Step::Done {
                assert_eq!(
                    self.server.as_ref().and_then(SessionCore::next_deadline),
                    None,
                    "the ByeAck crossed and ended the server session too"
                );
                return;
            }
        }
        panic!("the stream never ended");
    }

    /// Rounds until the client's stream ends; its report and inputs.
    pub(crate) fn run(
        mut self,
        mut deliver: impl FnMut(&Msg) -> bool,
    ) -> (NetClientReport, Vec<(u64, Input)>) {
        self.finish(&mut deliver);
        (self.client.report(self.report), self.inputs)
    }

    /// The server's and the client's recordings.
    fn recordings(&self) -> [Recording; 2] {
        self.recorders.each_ref().map(FlightRecorder::recording)
    }
}

#[test]
fn a_session_with_no_socket_completes_and_heals_through_deadlines() {
    let (report, _) = Pair::connect(4, rs82()).run(|_| true);
    assert_eq!(report.windows_total, 4);
    assert_eq!(report.windows_completed, report.windows_total);
    assert!(report.saw_bye);
    assert!(report.parity_rx > 0, "RS(8,2) parity crossed");
    assert_eq!((report.fec_recovered, report.fec_unrecoverable), (0, 0));
    assert_eq!(report.series.summary().mean_clf, 0.0, "nothing lost");

    // Lose the first Begin and the first WindowEnd of window 1: the
    // client's Begin retry and the server's WindowEnd retry heal both.
    let (mut begins, mut ends) = (0, 0);
    let mut deliver = |msg: &Msg| match msg {
        Msg::Begin => {
            begins += 1;
            begins > 1
        }
        Msg::WindowEnd(end) if end.window == 1 => {
            ends += 1;
            ends > 1
        }
        _ => true,
    };
    let (healed, _) = Pair::connect(4, rs82()).run(&mut deliver);
    assert_eq!((begins, ends), (2, 2), "each was lost once, then retried");
    assert_eq!(healed.windows_completed, healed.windows_total);
    assert_eq!(healed.acks_sent, 4, "one ACK per window");
    assert_eq!(healed.patterns, report.patterns, "no loss reached playout");
}

/// The handshake crosses like any datagram: a lost `Accept` is answered
/// again from admission's cache when the client's `Hello` retry comes,
/// and the stream completes on the one session.
#[test]
fn a_lost_accept_is_answered_again_from_the_cache() {
    let mut accepts = Vec::new();
    let mut pair = Pair::connect(2, rs82());
    pair.finish(&mut |msg: &Msg| match msg {
        Msg::Accept(_) => {
            accepts.push(wire::try_encode(CONN, msg).unwrap());
            accepts.len() > 1
        }
        _ => true,
    });
    assert_eq!(accepts.len(), 2, "lost once, then answered again");
    assert_eq!(accepts[0], accepts[1], "the cached Accept, byte for byte");
    let delivered = pair.inputs.iter().find_map(|(_, input)| match input {
        Input::Datagram(d) if matches!(decode(d), Msg::Accept(_)) => Some(d),
        _ => None,
    });
    assert_eq!(delivered, Some(&accepts[0]), "the datagram that crossed");
    assert_eq!(pair.admission.peer(CONN + 1), None, "one session admitted");
    let report = pair.client.report(pair.report);
    assert_eq!(report.hello_retries, 1);
    assert_eq!(report.windows_completed, report.windows_total);
}

/// A duplicated `Hello` admits exactly one session: the copy gets the
/// cached `Accept`, which the connected client ignores.
#[test]
fn a_duplicated_hello_admits_exactly_one_session() {
    let mut pair = Pair::connect(2, rs82());
    let mut hellos = Vec::new();
    pair.to_server.drain(|d| hellos.push(d.to_vec()));
    assert_eq!(hellos.len(), 1);
    for d in [&hellos[0], &hellos[0]] {
        pair.to_server.push_encoded(d);
    }
    let mut accepts = 0;
    pair.finish(&mut |msg: &Msg| {
        accepts += usize::from(matches!(msg, Msg::Accept(_)));
        true
    });
    assert_eq!(accepts, 2, "each copy was answered");
    assert_eq!(pair.admission.peer(CONN), Some(CLIENT));
    assert_eq!(pair.admission.peer(CONN + 1), None, "one session admitted");
    let report = pair.client.report(pair.report);
    assert_eq!(report.windows_completed, report.windows_total);
}

/// How many events of `kind` a recording holds.
fn count(recording: &Recording, kind: EventKind) -> u64 {
    recording.events.iter().filter(|e| e.kind == kind).count() as u64
}

/// The recorders take the cores' own clock values, so a recording
/// made through the harness carries exactly its integer clock, and
/// it reconstructs cleanly: causal, every window closed, no loss.
#[test]
fn a_recording_through_the_harness_carries_the_harness_clock() {
    let (mut begins, mut ends) = (0, 0);
    let mut deliver = |msg: &Msg| match msg {
        Msg::Begin => {
            begins += 1;
            begins > 1
        }
        Msg::WindowEnd(end) if end.window == 1 => {
            ends += 1;
            ends > 1
        }
        _ => true,
    };
    let mut pair = Pair::connect(4, rs82());
    pair.finish(&mut deliver);
    assert!(pair.clocks.len() > 2, "the clock moved through deadlines");
    let recordings = pair.recordings();
    for rec in &recordings {
        assert!(!rec.events.is_empty());
        for e in &rec.events {
            assert!(pair.clocks.contains(&e.t_us), "{} stamped {e:?}", rec.role);
        }
        let stamps: Vec<u64> = rec.events.iter().map(|e| e.t_us).collect();
        assert!(stamps.is_sorted(), "{} records in clock order", rec.role);
    }
    let timeline = reconstruct(&recordings);
    assert!(timeline.is_clean(), "{:?}", timeline.violations);
    assert_eq!(timeline.total_lost(), 0);
    let windows: usize = timeline.sessions.iter().map(|s| s.windows.len()).sum();
    assert_eq!(windows, 4);
}

/// One effect stream feeds the report and the recording, so on a
/// lossy stream with NACK rounds and parity repair the two accounts
/// agree count for count.
#[test]
fn the_report_and_the_recording_fold_the_same_effects() {
    let config = NetClientConfig {
        recovery: true,
        ..NetClientConfig::default()
    };
    let fec = FecPolicy::rs(FecScope::All, 4, 1);
    let mut pair = Pair::connect_to(server_config(1, 4, fec), config);
    let mut n = 0u32;
    // Two of every nine first transmissions are lost: a group that
    // loses one repairs, one that loses both needs recovery rounds.
    pair.finish(&mut |msg: &Msg| match msg {
        Msg::Data(d) if !d.fragment.retransmit => {
            n += 1;
            n % 9 > 1
        }
        _ => true,
    });
    let [server, client] = pair.recordings();
    let report = pair.client.report(pair.report);
    assert!(report.nacks_sent > 0 && report.fec_recovered > 0);
    let data_rx = [
        EventKind::Delivered,
        EventKind::Ignored,
        EventKind::BadFragment,
    ];
    let data_rx: u64 = data_rx.iter().map(|&k| count(&client, k)).sum();
    assert_eq!(report.data_rx, data_rx);
    assert_eq!(report.acks_sent, count(&client, EventKind::AckSent));
    assert_eq!(report.acks_sent, count(&server, EventKind::AckReceived));
    assert_eq!(
        report.windows_completed as u64,
        count(&client, EventKind::WindowClosed)
    );
    let nacked = count(&client, EventKind::NackSent);
    assert_eq!(nacked, count(&server, EventKind::NackReceived));
    assert!(report.nacks_sent <= nacked);
}

/// The effect buffers are reused: once a window has run, an identical
/// second window and the teardown fit in the capacity it left.
#[test]
fn effect_buffers_keep_their_capacity_across_identical_windows() {
    let mut server = server_config(1, 2, rs82());
    let first = server.source.windows[0].clone();
    Arc::make_mut(&mut server.source.windows).fill(first);
    let mut pair = Pair::connect_to(server, NetClientConfig::default());
    let mut all = |_: &Msg| true;
    while pair.report.acks_sent == 0 {
        assert_eq!(pair.round(&mut all), Step::Pending);
    }
    let held = |p: &Pair| [&p.to_client, &p.to_server].map(OutQueue::effect_capacity);
    let after_one = held(&pair);
    assert!(after_one.iter().all(|&c| c > 0));
    pair.finish(&mut all);
    assert_eq!(held(&pair), after_one, "the second window grew a buffer");
}
