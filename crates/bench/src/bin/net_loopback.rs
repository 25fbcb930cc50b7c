//! Loopback network experiment — the simulator's spread-vs-in-order
//! comparison (Figure 8's question) replayed over **real UDP sockets**
//! through the fault-injecting proxy.
//!
//! ```sh
//! cargo run -p espread-bench --bin net_loopback
//! ```
//!
//! Each ordering streams the same Jurassic Park windows through a proxy
//! whose seeded Gilbert–Elliott channel drops only data datagrams, in
//! arrival order — so both orderings face the identical per-slot loss
//! realisation and the artifact in `results/net_loopback.json` is
//! deterministic, as is stdout. Wall-clock throughput goes to stderr
//! only.

use std::time::Instant;

use espread_bench::sweep;
use espread_exec::Json;
use espread_net::{
    FaultPolicy, FaultProxy, NetClient, NetClientConfig, NetServer, NetServerConfig,
};
use espread_protocol::{FecPolicy, Ordering, ProtocolConfig, SessionOffer, StreamSource};
use espread_trace::{GopPattern, Movie, MpegTrace};

const WINDOWS: usize = 12;
const GOPS_PER_WINDOW: usize = 2;
const CHANNEL_SEED: u64 = 42;
const P_BAD: f64 = 0.6;

struct Run {
    name: &'static str,
    mean_clf: f64,
    clf: Vec<usize>,
    lost_frames: usize,
    dropped_data: u64,
    bytes_rx: u64,
    elapsed_ms: f64,
}

fn run_once(name: &'static str, ordering: Ordering) -> Run {
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
    let config = NetServerConfig::new(
        ProtocolConfig::paper(P_BAD, 1),
        offer,
        StreamSource::mpeg(&trace, GOPS_PER_WINDOW, WINDOWS, false),
    );
    let mut server = NetServer::bind("127.0.0.1:0", config).expect("bind server");
    let mut proxy = FaultProxy::spawn(
        server.local_addr(),
        FaultPolicy::transparent().gilbert_data_loss(0.92, P_BAD, CHANNEL_SEED),
        FaultPolicy::transparent(),
    )
    .expect("spawn proxy");

    let started = Instant::now();
    let client = NetClient::connect(
        proxy.client_addr(),
        NetClientConfig {
            ordering,
            ..NetClientConfig::default()
        },
    )
    .expect("connect");
    let report = client.stream().expect("stream");
    let elapsed = started.elapsed();
    let stats = proxy.stats();
    proxy.shutdown();
    server.shutdown();

    assert_eq!(report.windows_completed, WINDOWS, "{name}: incomplete");
    Run {
        name,
        mean_clf: report.series.summary().mean_clf,
        clf: report.series.clf_values().collect(),
        lost_frames: report.patterns.iter().map(|p| p.lost()).sum(),
        dropped_data: stats.dropped_data,
        bytes_rx: report.bytes_rx,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
    }
}

fn main() {
    // The loopback run is inherently serial; the flag is accepted (for
    // script uniformity) and ignored.
    let _ = sweep::jobs_from_args();
    println!(
        "Loopback UDP: {WINDOWS} windows of Jurassic Park through a seeded \
         Gilbert-Elliott proxy (P_good=0.92, P_bad={P_BAD}, seed {CHANNEL_SEED})\n"
    );

    let runs = [
        run_once("in-order", Ordering::InOrder),
        run_once("spread", Ordering::spread()),
    ];

    println!(
        "{:<10} {:>9} {:>12} {:>13} {:>12}",
        "ordering", "mean CLF", "lost frames", "dropped data", "rx MB"
    );
    let mut rows = Vec::new();
    for run in &runs {
        let mb = run.bytes_rx as f64 / 1e6;
        println!(
            "{:<10} {:>9.3} {:>12} {:>13} {:>12.2}",
            run.name, run.mean_clf, run.lost_frames, run.dropped_data, mb,
        );
        eprintln!(
            "{}: {:.1} MB/s wall-clock throughput",
            run.name,
            mb / (run.elapsed_ms / 1e3)
        );
        // Deterministic fields only: no timings, no control-plane counts
        // (retry cadence is wall-clock-dependent).
        let mut row = Json::object();
        row.push("ordering", run.name)
            .push("windows", WINDOWS as i64)
            .push("mean_clf", run.mean_clf)
            .push(
                "clf",
                Json::Array(run.clf.iter().map(|&c| Json::Int(c as i64)).collect()),
            )
            .push("lost_frames", run.lost_frames as i64)
            .push("dropped_data_datagrams", run.dropped_data as i64);
        rows.push(row);
    }
    let (inorder, spread) = (&runs[0], &runs[1]);
    assert_eq!(
        inorder.dropped_data, spread.dropped_data,
        "both orderings must face the identical loss realisation"
    );
    println!(
        "\nsame channel realisation ({} data datagrams dropped in both runs): \
         spreading cuts mean CLF {:.3} -> {:.3}",
        inorder.dropped_data, inorder.mean_clf, spread.mean_clf
    );

    sweep::write_results("net_loopback", &sweep::results_doc("net_loopback", rows));
    espread_bench::write_telemetry_snapshot("net_loopback");
}
