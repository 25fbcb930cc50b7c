//! Concurrent-session scaling bench for the event-loop server core.
//!
//! ```sh
//! cargo run --release -p espread-bench --bin net_c10k -- [--sessions N]
//! ```
//!
//! Streams `--sessions` (default [`GATED_SESSIONS`]) short Jurassic Park
//! sessions **concurrently** through one server on a fixed worker pool.
//! Every client rides its own fault-injecting proxy with a per-session
//! Gilbert–Elliott seed, so the server demultiplexes hundreds of lossy
//! flows at once — exactly the regime the old thread-per-session core
//! could not enter without a thread per flow. A barrier releases every
//! client in the same instant; a sampler tracks the peak of the server's
//! live-session gauge while the wave is in flight.
//!
//! The artifact `results/net_c10k.json` carries the wave's rate
//! (`sessions_per_sec`, wave size over wall-clock) plus window-RTT
//! percentiles from the server's `net.server.rtt_us` histogram. At the
//! default wave the rate is checked against the `net_c10k.sessions_per_s`
//! row of [`espread_bench::gate::GATES`] and the binary exits non-zero on
//! a regression; any other wave size prints its rate as ungated.
//! Timing-derived numbers are inherently host-dependent, so this
//! artifact is **not** part of the determinism surface.

use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use espread_bench::{gate, sweep};
use espread_exec::Json;
use espread_net::{
    FaultPolicy, FaultProxy, NetClient, NetClientConfig, NetServer, NetServerConfig,
};
use espread_protocol::{FecPolicy, ProtocolConfig, SessionOffer, StreamSource};
use espread_trace::{GopPattern, Movie, MpegTrace};

/// Short streams keep the bench about *session count*, not bytes.
const WINDOWS: usize = 4;
const GOPS_PER_WINDOW: usize = 1;
/// Fixed pool: the point is many sessions per worker, and a pinned count
/// keeps the artifact comparable across hosts with different core counts.
const WORKERS: usize = 4;
const P_BAD: f64 = 0.6;
const SEED_BASE: u64 = 0xC10C;
/// The default wave, and the only size the gate's pin applies to.
const GATED_SESSIONS: usize = 200;

fn sessions_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--sessions")
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse().ok())
                .expect("--sessions takes a session count")
        })
        .unwrap_or(GATED_SESSIONS)
}

/// What one client thread brings home. Never panics: a panic inside
/// `thread::scope` would strand the gauge sampler (the scope waits for
/// every scoped thread during unwinding), so failures travel as data.
struct Outcome {
    windows_completed: usize,
    dropped_data: u64,
    bytes_rx: u64,
    error: Option<String>,
}

fn run_client(server: std::net::SocketAddr, seed: u64, release: &Barrier) -> Outcome {
    let failed = |error: String| Outcome {
        windows_completed: 0,
        dropped_data: 0,
        bytes_rx: 0,
        error: Some(error),
    };
    let mut proxy = match FaultProxy::spawn(
        server,
        FaultPolicy::transparent().gilbert_data_loss(0.92, P_BAD, seed),
        FaultPolicy::transparent(),
    ) {
        Ok(proxy) => proxy,
        Err(e) => {
            release.wait();
            return failed(format!("spawn proxy: {e}"));
        }
    };
    release.wait();
    // The whole wave handshakes in the same instant and the demux
    // negotiates serially, so the Hello budget scales with the wave —
    // the LAN default gives up after ~1.2 s, which a multi-thousand
    // wave's tail can exceed.
    let config = NetClientConfig {
        retry: espread_net::RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(50),
            max: Duration::from_secs(2),
        },
        ..NetClientConfig::default()
    };
    let report =
        match NetClient::connect(proxy.client_addr(), config).and_then(|client| client.stream()) {
            Ok(report) => report,
            Err(e) => {
                proxy.shutdown();
                return failed(format!("stream: {e}"));
            }
        };
    let stats = proxy.stats();
    proxy.shutdown();
    Outcome {
        windows_completed: report.windows_completed,
        dropped_data: stats.dropped_data,
        bytes_rx: report.bytes_rx,
        error: None,
    }
}

fn main() -> ExitCode {
    // Accepted for script uniformity; concurrency is --sessions itself.
    let _ = sweep::jobs_from_args();
    let sessions = sessions_from_args();
    assert!(sessions > 0, "--sessions must be positive");

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
    let mut config = NetServerConfig::new(
        ProtocolConfig::paper(P_BAD, 1),
        offer,
        StreamSource::mpeg(&trace, GOPS_PER_WINDOW, WINDOWS, false),
    );
    config.workers = WORKERS;
    // Cache sized to the wave: every client handshakes in the same burst.
    config.handshake_cap = sessions.max(1024);
    let mut server = NetServer::bind("127.0.0.1:0", config).expect("bind server");
    let server_addr = server.local_addr();

    println!(
        "net_c10k: {sessions} concurrent proxy-faulted sessions \
         ({WINDOWS} windows x {GOPS_PER_WINDOW} GOP each) on {WORKERS} workers\n"
    );

    // All clients arm their proxies first, then the barrier releases the
    // whole wave at once — the server sees `sessions` handshakes in the
    // same instant, which is the scenario under test.
    let release = Arc::new(Barrier::new(sessions + 1));
    let done = std::sync::atomic::AtomicBool::new(false);
    let server_ref = &server;
    let (outcomes, elapsed, peak_live) = thread::scope(|scope| {
        let mut joins = Vec::with_capacity(sessions);
        for i in 0..sessions {
            let release = Arc::clone(&release);
            joins.push(
                thread::Builder::new()
                    .name(format!("c10k-{i}"))
                    .stack_size(512 * 1024)
                    .spawn_scoped(scope, move || {
                        run_client(server_addr, SEED_BASE + i as u64, &release)
                    })
                    .expect("spawn client thread"),
            );
        }
        release.wait();
        let started = Instant::now();
        // Sample the live gauge while the wave drains; the clients'
        // joins below are the loop's exit condition.
        let done = &done;
        let sampler = scope.spawn(move || {
            let mut peak = 0usize;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                peak = peak.max(server_ref.live_sessions());
                thread::sleep(Duration::from_micros(500));
            }
            peak
        });
        // Collect every join before asserting anything: panicking here
        // would strand the sampler (the scope joins it during unwind).
        let mut outcomes = Vec::with_capacity(sessions);
        for join in joins {
            outcomes.push(join.join());
        }
        let elapsed = started.elapsed();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        let peak = sampler.join().expect("sampler thread panicked");
        let outcomes = outcomes
            .into_iter()
            .map(|j| j.expect("client thread panicked"))
            .collect::<Vec<_>>();
        (outcomes, elapsed, peak)
    });

    // Clients return as soon as they send `ByeAck`; give the shards a
    // bounded window to process the teardowns and reap every session
    // (the reaping is the whole point — the old core leaked these).
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    while server.live_sessions() > 0 && Instant::now() < drain_deadline {
        thread::sleep(Duration::from_millis(1));
    }
    let leaked = server.live_sessions();
    assert_eq!(leaked, 0, "{leaked} sessions never reaped after teardown");
    server.shutdown();

    let completed = outcomes
        .iter()
        .filter(|o| o.windows_completed == WINDOWS)
        .count();
    let dropped: u64 = outcomes.iter().map(|o| o.dropped_data).sum();
    let bytes_rx: u64 = outcomes.iter().map(|o| o.bytes_rx).sum();
    for error in outcomes.iter().filter_map(|o| o.error.as_deref()).take(5) {
        eprintln!("session failure: {error}");
    }
    assert_eq!(completed, sessions, "sessions failed to complete");
    assert!(dropped > 0, "the proxies injected no data loss");
    assert!(
        peak_live >= sessions / 4,
        "peak live sessions {peak_live} never approached the wave size {sessions}"
    );

    let rate = sessions as f64 / elapsed.as_secs_f64();
    let (rtt_samples, rtt_p50, rtt_p99, rtt_max) = espread_bench::rtt_summary();
    println!(
        "{:<24} {:>12}\n{:<24} {:>12}\n{:<24} {:>12}\n{:<24} {:>12.3}\n\
         {:<24} {:>12.1}\n{:<24} {:>12}\n{:<24} {:>12}\n{:<24} {:>12}",
        "sessions completed",
        completed,
        "peak live sessions",
        peak_live,
        "data datagrams dropped",
        dropped,
        "wave wall-clock (s)",
        elapsed.as_secs_f64(),
        "sessions/sec",
        rate,
        "window RTT p50 (us)",
        rtt_p50,
        "window RTT p99 (us)",
        rtt_p99,
        "window RTT max (us)",
        rtt_max,
    );

    let mut doc = Json::object();
    doc.push("experiment", "net_c10k")
        .push("sessions", sessions)
        .push("windows_per_session", WINDOWS)
        .push("workers", WORKERS)
        .push("completed", completed)
        .push("peak_live", peak_live)
        .push("dropped_data_datagrams", dropped)
        .push("bytes_rx", bytes_rx)
        .push("elapsed_s", elapsed.as_secs_f64())
        .push("sessions_per_sec", rate)
        .push("rtt_us_samples", rtt_samples)
        .push("rtt_us_p50", rtt_p50)
        .push("rtt_us_p99", rtt_p99)
        .push("rtt_us_max", rtt_max);
    sweep::write_results("net_c10k", &doc);
    espread_bench::write_telemetry_snapshot("net_c10k");

    println!();
    if sessions != GATED_SESSIONS {
        println!(
            "gate net_c10k.sessions_per_s: fresh {rate:.3} at a {sessions}-session wave, \
             ungated (pinned at {GATED_SESSIONS})"
        );
        ExitCode::SUCCESS
    } else if gate::check(&[("net_c10k.sessions_per_s", rate)]) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
