//! Overload-protection bench: a capacity-capped server under a wave of
//! twice its admission cap.
//!
//! ```sh
//! cargo run --release -p espread-bench --bin net_overload
//! ```
//!
//! The server admits at most [`CAP`] concurrent sessions and refuses the
//! rest with typed `Busy` replies; every client in the wave honours the
//! retry-after hint (with jitter, on a fresh nonce) until it gets in.
//! The server's pacing is set deliberately beyond what one shard can
//! sustain, so its perception-ordered shedder runs hot: enhancement
//! frames are dropped to pay down pacing debt while critical frames are
//! never shed — the bench recomputes the negotiated critical set
//! client-side and **fails** if any completed session lost one.
//!
//! The binary asserts the overload invariants itself: every admitted
//! session completes and is reaped, live sessions never exceed the cap,
//! zero critical frames are lost, and both the shedder and the `Busy`
//! refusals engage. The artifact `results/net_overload.json` carries the
//! wave's rate (`sessions_per_sec`: wave size over wall-clock, Busy
//! waits included) plus the overload counters (Busy refusals, sheds,
//! reap totals) and window-RTT percentiles. The rate is checked against
//! the `net_overload.sessions_per_s` row of
//! [`espread_bench::gate::GATES`] and the binary exits non-zero on a
//! regression. Timing-derived numbers are host-dependent, so the
//! artifact is not part of the determinism surface.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use espread_bench::{gate, sweep};
use espread_exec::Json;
use espread_net::{NetClient, NetClientConfig, NetError, NetServer, NetServerConfig, RetryPolicy};
use espread_protocol::{
    negotiate, ClientCapabilities, FecPolicy, ProtocolConfig, SessionOffer, StreamSource,
};
use espread_trace::{GopPattern, Movie, MpegTrace};

/// The admission cap under test.
const CAP: usize = 50;
/// The wave: twice the cap.
const WAVE: usize = 2 * CAP;
/// Short streams keep the bench about admission churn, not bytes.
const WINDOWS: usize = 3;
/// Two GOPs per window puts each window well past one 64-datagram pump
/// batch, so a window spans several timer fires — a precondition for
/// pacing debt to be visible at all.
const GOPS_PER_WINDOW: usize = 2;
/// One shard: the shedder only matters when the send loop cannot keep
/// up, and a single overloaded shard is the cleanest way to stay there.
const WORKERS: usize = 1;
/// A pace the shard cannot sustain across a wave: a session pumps at
/// most 64 datagrams per turn and every other due session on the one
/// shard takes its turn before the next, so each round of pumps puts
/// every session the others' send time further behind a 2 us/datagram
/// schedule.
const PACE: Duration = Duration::from_micros(2);
/// Debt threshold for shedding enhancement frames: a few rounds of the
/// other sessions' 64-datagram batches, so the contended shard crosses
/// it within a window while a session pumping alone does not.
const SHED_LAG: Duration = Duration::from_micros(900);
/// The server's own honest estimate of when capacity frees up.
const BUSY_RETRY_AFTER: Duration = Duration::from_millis(150);

/// What one wave client brings home. Failures travel as data: a panic
/// inside `thread::scope` would strand the gauge sampler.
enum Outcome {
    /// Completed all windows; carries the count of critical frames the
    /// client's playout lost (must be zero).
    Done { critical_lost: usize },
    /// The server said Busy and the retry budget ran out — a typed,
    /// legitimate refusal under overload.
    Busy,
    /// Anything else is a bench failure.
    Failed(String),
}

fn run_client(server: std::net::SocketAddr, critical: &[usize], release: &Barrier) -> Outcome {
    release.wait();
    let config = NetClientConfig {
        recovery: true,
        // Wide enough to ride out several Busy waits while the first
        // admitted wave drains.
        retry: RetryPolicy {
            max_attempts: 10,
            base: Duration::from_millis(50),
            max: Duration::from_secs(1),
        },
        deadline: Duration::from_secs(60),
        ..NetClientConfig::default()
    };
    match NetClient::connect(server, config).and_then(|client| client.stream()) {
        Ok(report) => {
            if report.windows_completed != WINDOWS {
                return Outcome::Failed(format!(
                    "completed {}/{WINDOWS} windows without a typed error",
                    report.windows_completed
                ));
            }
            let critical_lost = report
                .patterns
                .iter()
                .map(|p| critical.iter().filter(|&&f| p.is_lost(f)).count())
                .sum();
            Outcome::Done { critical_lost }
        }
        Err(NetError::ServerBusy { .. }) => Outcome::Busy,
        Err(e) => Outcome::Failed(format!("stream: {e}")),
    }
}

/// Overload counters from the global registry.
fn overload_counters() -> (u64, u64, u64, u64, u64) {
    let snapshot = espread_telemetry::global().snapshot();
    let c = |name: &str| snapshot.counter(name).unwrap_or(0);
    (
        c("net.server.busy_rejections"),
        c("net.server.shed_enhancement"),
        c("net.server.shed_stale_retx"),
        c("net.server.watchdog_terminations"),
        c("net.server.sessions_reaped"),
    )
}

fn main() -> ExitCode {
    // Accepted for script uniformity; concurrency is the wave itself.
    let _ = sweep::jobs_from_args();

    let trace = MpegTrace::new(Movie::JurassicPark, 1);
    let offer = SessionOffer {
        gop_pattern: GopPattern::gop12(),
        gops_per_window: GOPS_PER_WINDOW,
        open_gop: false,
        fps: 24,
        packet_bytes: 2048,
        max_frame_bytes: 62_776 / 8,
        fec: FecPolicy::off(),
    };
    // The same negotiation both endpoints run — the playout indices the
    // shedder must never touch.
    let critical = negotiate(offer.clone(), ClientCapabilities::desktop())
        .expect("bench offer negotiates")
        .critical_frames;
    let mut config = NetServerConfig::new(
        ProtocolConfig::paper(0.6, 1),
        offer,
        StreamSource::mpeg(&trace, GOPS_PER_WINDOW, WINDOWS, false),
    );
    config.workers = WORKERS;
    config.handshake_cap = WAVE.max(256);
    config.pace = PACE;
    config.max_sessions = CAP;
    config.busy_retry_after = BUSY_RETRY_AFTER;
    config.shed_lag = SHED_LAG;
    config.watchdog = Duration::from_secs(2);
    let mut server = NetServer::bind("127.0.0.1:0", config).expect("bind server");
    let server_addr = server.local_addr();

    println!(
        "net_overload: a {WAVE}-client wave against an admission cap of {CAP} \
         ({WINDOWS} windows x {GOPS_PER_WINDOW} GOP each, {WORKERS} worker, \
         pace {}us, shed lag {}us)\n",
        PACE.as_micros(),
        SHED_LAG.as_micros()
    );

    let release = Arc::new(Barrier::new(WAVE + 1));
    let done = AtomicBool::new(false);
    let server_ref = &server;
    let critical_ref = critical.as_slice();
    let (outcomes, elapsed, peak_live) = thread::scope(|scope| {
        let mut joins = Vec::with_capacity(WAVE);
        for i in 0..WAVE {
            let release = Arc::clone(&release);
            joins.push(
                thread::Builder::new()
                    .name(format!("overload-{i}"))
                    .stack_size(512 * 1024)
                    .spawn_scoped(scope, move || {
                        run_client(server_addr, critical_ref, &release)
                    })
                    .expect("spawn client thread"),
            );
        }
        release.wait();
        let started = Instant::now();
        let done = &done;
        let sampler = scope.spawn(move || {
            let mut peak = 0usize;
            while !done.load(AtomicOrdering::Relaxed) {
                peak = peak.max(server_ref.live_sessions());
                thread::sleep(Duration::from_micros(500));
            }
            peak
        });
        let mut outcomes = Vec::with_capacity(WAVE);
        for join in joins {
            outcomes.push(join.join());
        }
        let elapsed = started.elapsed();
        done.store(true, AtomicOrdering::Relaxed);
        let peak = sampler.join().expect("sampler thread panicked");
        let outcomes = outcomes
            .into_iter()
            .map(|j| j.expect("client thread panicked"))
            .collect::<Vec<_>>();
        (outcomes, elapsed, peak)
    });

    // Every admitted session must end typed and be reaped.
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    while server.live_sessions() > 0 && Instant::now() < drain_deadline {
        thread::sleep(Duration::from_millis(1));
    }
    let leaked = server.live_sessions();
    server.shutdown();

    let mut completed = 0usize;
    let mut rejected = 0usize;
    let mut critical_lost = 0usize;
    let mut failures = Vec::new();
    for outcome in &outcomes {
        match outcome {
            Outcome::Done { critical_lost: c } => {
                completed += 1;
                critical_lost += c;
            }
            Outcome::Busy => rejected += 1,
            Outcome::Failed(e) => failures.push(e.clone()),
        }
    }
    for failure in failures.iter().take(5) {
        eprintln!("session failure: {failure}");
    }
    let admitted = WAVE - rejected;
    let (busy_rejections, shed_enhancement, shed_stale_retx, watchdog_terminations, reaped) =
        overload_counters();

    assert!(failures.is_empty(), "{} untyped failures", failures.len());
    assert_eq!(
        completed, admitted,
        "every admitted session must complete; the rest must be typed Busy"
    );
    assert!(
        peak_live <= CAP,
        "live sessions peaked at {peak_live}, above the cap {CAP}"
    );
    assert_eq!(leaked, 0, "{leaked} sessions never reaped after the wave");
    assert_eq!(critical_lost, 0, "critical frames lost under overload");
    assert!(
        shed_enhancement > 0,
        "an unsustainable pace must shed enhancement frames"
    );
    assert!(
        busy_rejections > 0,
        "a wave of twice the cap must draw Busy refusals"
    );
    assert_eq!(
        reaped, admitted as u64,
        "every admitted session must be reaped"
    );

    let rate = WAVE as f64 / elapsed.as_secs_f64();
    let (rtt_samples, rtt_p50, rtt_p99, rtt_max) = espread_bench::rtt_summary();
    println!(
        "{:<28}{:>10}\n{:<28}{:>10}\n{:<28}{:>10}\n{:<28}{:>10}\n{:<28}{:>10}\n\
         {:<28}{:>10}\n{:<28}{:>10}\n{:<28}{:>10}\n{:<28}{:>10}\n{:<28}{:>10}\n\
         {:<28}{:>10.3}\n{:<28}{:>10.1}\n{:<28}{:>10}\n{:<28}{:>10}",
        "wave size",
        WAVE,
        "admitted",
        admitted,
        "completed",
        completed,
        "rejected (typed Busy)",
        rejected,
        "busy refusals (server)",
        busy_rejections,
        "enhancement frames shed",
        shed_enhancement,
        "stale retransmits shed",
        shed_stale_retx,
        "watchdog terminations",
        watchdog_terminations,
        "critical frames lost",
        critical_lost,
        "sessions leaked",
        leaked,
        "wave wall-clock (s)",
        elapsed.as_secs_f64(),
        "sessions/sec",
        rate,
        "peak live sessions",
        peak_live,
        "window RTT p99 (us)",
        rtt_p99,
    );

    let mut doc = Json::object();
    doc.push("experiment", "net_overload")
        .push("cap", CAP)
        .push("wave", WAVE)
        .push("windows_per_session", WINDOWS)
        .push("workers", WORKERS)
        .push("admitted", admitted)
        .push("completed", completed)
        .push("rejected_busy", rejected)
        .push("busy_rejections", busy_rejections)
        .push("shed_enhancement", shed_enhancement)
        .push("shed_stale_retx", shed_stale_retx)
        .push("watchdog_terminations", watchdog_terminations)
        .push("critical_frames_lost", critical_lost)
        .push("sessions_reaped", reaped)
        .push("peak_live", peak_live)
        .push("elapsed_s", elapsed.as_secs_f64())
        .push("sessions_per_sec", rate)
        .push("rtt_us_samples", rtt_samples)
        .push("rtt_us_p50", rtt_p50)
        .push("rtt_us_p99", rtt_p99)
        .push("rtt_us_max", rtt_max);
    sweep::write_results("net_overload", &doc);
    espread_bench::write_telemetry_snapshot("net_overload");

    println!();
    if gate::check(&[("net_overload.sessions_per_s", rate)]) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
