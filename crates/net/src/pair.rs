//! Whole sessions with no socket: [`Pair`] joins a [`SessionCore`] and a
//! [`ClientCore`] by plain `Vec<u8>` hand-off on one integer clock. It is
//! a shell like the shard and `NetClient`: it hands each call its clock,
//! carries the datagrams across, and folds each side's effects into that
//! side's counters, flight recorder and report. Test-only.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use espread_obs::{reconstruct, trio, EventKind, FlightRecorder, Recording};
use espread_protocol::{
    negotiate, FecPolicy, FecScope, ProtocolConfig, SessionOffer, StreamSource,
};
use espread_trace::{GopPattern, Movie, MpegTrace};

use crate::client::{NetClientConfig, NetClientReport};
use crate::clientcore::{ClientCore, Step};
use crate::error::NetError;
use crate::obsrec::SessionRecorder;
use crate::retry::RetryPolicy;
use crate::session::{earliest, Ctx, OutQueue, SessionCore, SessionLimits};
use crate::telem::{ClientTelem, ServerTelem};
use crate::wire::{self, Accept, Msg};

pub(crate) const NONCE: u64 = 7 << 32;
pub(crate) const CONN: u32 = 1;
/// The shared clock's start: far enough from 0 that nothing clamps.
const T0: u64 = 1_000;

pub(crate) fn decode(datagram: &[u8]) -> Msg {
    wire::decode(datagram).expect("datagrams decode").1
}

pub(crate) fn rs82() -> FecPolicy {
    FecPolicy::rs(FecScope::All, 8, 2)
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

/// A `SessionCore` and a `ClientCore` joined by plain `Vec<u8>`
/// hand-off on one integer clock: a session with no socket. Like the
/// shard and `NetClient`, the harness folds each side's effects into
/// its books, here with a flight recorder attached to each side.
pub(crate) struct Pair {
    server: SessionCore,
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
    /// Runs the handshake (never lost) and begins a stream of
    /// `windows` Jurassic Park windows, one GOP 12 each.
    pub(crate) fn connect(windows: usize, fec: FecPolicy) -> Self {
        let trace = MpegTrace::new(Movie::JurassicPark, 1);
        let source = StreamSource::mpeg(&trace, 1, windows, false);
        Self::connect_to(source, fec, NetClientConfig::default())
    }

    /// Runs the handshake (never lost) and begins streaming `source` to
    /// a client configured by `config`.
    fn connect_to(source: StreamSource, fec: FecPolicy, config: NetClientConfig) -> Self {
        let mut client = ClientCore::new(config.clone(), NONCE);
        let (mut to_client, mut to_server) = (OutQueue::default(), OutQueue::default());
        client.start(&mut Ctx {
            now: T0,
            out: &mut to_server,
        });
        let mut hellos = Vec::new();
        to_server.drain(|d| hellos.push(decode(d)));
        let [Msg::Hello(hello)] = &hellos[..] else {
            panic!("one Hello: {hellos:?}");
        };
        let offer = SessionOffer {
            gop_pattern: GopPattern::gop12(),
            gops_per_window: 1,
            open_gop: false,
            fps: 24,
            packet_bytes: 2048,
            max_frame_bytes: 62_776 / 8,
            fec,
        };
        let agreed = negotiate(offer, config.capabilities).expect("the offer fits");
        let narrow = |v: &[usize]| v.iter().map(|&x| x as u16).collect();
        let accept = Accept {
            nonce: hello.nonce,
            frames_per_window: agreed.offer.frames_per_window() as u16,
            windows_total: source.window_count() as u32,
            packet_bytes: agreed.offer.packet_bytes,
            fps: agreed.offer.fps,
            layer_sizes: narrow(&agreed.layer_sizes),
            critical_frames: narrow(&agreed.critical_frames),
        };
        let mut server = SessionCore::new(
            CONN,
            ProtocolConfig::paper(0.6, 1).with_ordering(hello.ordering),
            Arc::new(source),
            RetryPolicy::lan(),
            Duration::ZERO,
            fec,
            SessionLimits::unlimited(),
            T0,
        );
        server.start(&mut Ctx {
            now: T0,
            out: &mut to_client,
        });
        let (srec, _, crec) = trio(1 << 16, 0);
        let mut pair = Pair {
            server,
            client,
            now: T0,
            to_client,
            to_server,
            inputs: vec![(T0, Input::Start)],
            clocks: BTreeSet::from([T0]),
            server_books: ServerTelem::new(SessionRecorder::attached(srec.clone())),
            client_books: ClientTelem::new(SessionRecorder::attached(crec.clone())),
            report: NetClientReport::default(),
            recorders: [srec, crec],
        };
        let accept = wire::try_encode(CONN, &Msg::Accept(accept)).unwrap();
        assert_eq!(pair.feed(Input::Datagram(accept)).unwrap(), Step::Connected);
        pair.feed(Input::Begin).unwrap();
        pair
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
        self.server.on_deadline(ctx);
        self.server.on_tick(ctx);
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
                    s => step = s,
                }
            }
        }
        let mut up = Vec::new();
        self.to_server.drain(|d| up.push(decode(d)));
        crossed |= !up.is_empty();
        for msg in up.iter().filter(|m| deliver(m)) {
            let ctx = &mut Ctx {
                now: self.now,
                out: &mut self.to_client,
            };
            self.server.on_msg(msg, self.now, ctx);
        }
        self.fold();
        if !crossed {
            let next = earliest(self.server.next_deadline(), self.client.next_deadline());
            self.now = next.expect("a deadline is armed").max(self.now);
        }
        step
    }

    /// Rounds until the client's stream ends.
    fn finish(&mut self, deliver: &mut impl FnMut(&Msg) -> bool) {
        for _ in 0..100_000 {
            if self.round(deliver) == Step::Done {
                assert_eq!(
                    self.server.next_deadline(),
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
    let trace = MpegTrace::new(Movie::JurassicPark, 1);
    let source = StreamSource::mpeg(&trace, 1, 4, false);
    let config = NetClientConfig {
        recovery: true,
        ..NetClientConfig::default()
    };
    let mut pair = Pair::connect_to(source, FecPolicy::rs(FecScope::All, 4, 1), config);
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
    let trace = MpegTrace::new(Movie::JurassicPark, 1);
    let mut source = StreamSource::mpeg(&trace, 1, 2, false);
    let first = source.windows[0].clone();
    source.windows.fill(first);
    let mut pair = Pair::connect_to(source, rs82(), NetClientConfig::default());
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
