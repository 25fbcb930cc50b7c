//! The spreading × FEC frontier — what each mechanism buys, measured
//! over real UDP sockets through the fault-injecting proxy.
//!
//! ```sh
//! cargo run -p espread-bench --bin fec_frontier [-- --jobs N]
//! ```
//!
//! Five arms stream identical Jurassic Park windows with recovery
//! (NACK/retransmission) disabled, so every loss the channel inflicts
//! either stays lost or is repaired by parity:
//!
//! | arm              | ordering | FEC                  |
//! |------------------|----------|----------------------|
//! | `nothing`        | in-order | off                  |
//! | `spread`         | spread   | off                  |
//! | `fec`            | in-order | RS(4,2) on critical  |
//! | `spread+fec`     | spread   | RS(4,2) on critical  |
//! | `spread+fec_all` | spread   | RS(4,2) on all       |
//!
//! The all-scope arm measures the headroom of protecting every layer:
//! its bandwidth-overhead column must exceed the critical-scope arms'
//! (parity now covers enhancement fragments too), which is exactly the
//! cost the perceptual prioritisation avoids.
//!
//! All arms share each channel seed (matched Gilbert–Elliott
//! realisations; the two FEC-off arms face drop-for-drop identical
//! channels, asserted below). Beyond CLF/ALF the table charts the two
//! quantities the McCann–Fendick analysis predicts spreading changes
//! even when FEC already handles raw loss rate:
//!
//! * **residual burstiness** — mean length of the loss runs that survive
//!   all repair (spreading breaks bursts into isolated losses, which is
//!   also exactly what makes them coverable by a (k, m) code);
//! * **error-propagation depth** — for every residually lost frame, the
//!   number of frames whose decode transitively depends on it (the GOP
//!   dependency poset's up-set), summed.
//!
//! The frontier invariants (`spread+fec` CLF ≤ each single mechanism;
//! FEC-alone residual bursts at least as long as `spread+fec`'s) are
//! asserted here *and* in this binary's `#[test]`, so `cargo test`
//! guards them. `results/fec_frontier.json` holds deterministic fields
//! only and is byte-identical across `--jobs` counts.

use espread_bench::sweep;
use espread_exec::Json;
use espread_net::{
    FaultPolicy, FaultProxy, NetClient, NetClientConfig, NetServer, NetServerConfig,
};
use espread_protocol::{FecPolicy, FecScope, Ordering, ProtocolConfig, SessionOffer, StreamSource};
use espread_trace::{GopPattern, Movie, MpegTrace};

const WINDOWS: usize = 8;
const GOPS_PER_WINDOW: usize = 2;
const P_STAY_GOOD: f64 = 0.92;
const P_BAD: f64 = 0.5;
/// Channel seeds swept; chosen so the committed artifact exercises both
/// coverable and saturating bursts (the FEC arms record unrecoverable
/// groups as well as recoveries).
const SEEDS: [u64; 6] = [1, 5, 7, 9, 12, 31];

#[derive(Clone, Copy)]
struct Arm {
    name: &'static str,
    spread: bool,
    scope: FecScope,
}

const ARMS: [Arm; 5] = [
    Arm {
        name: "nothing",
        spread: false,
        scope: FecScope::Off,
    },
    Arm {
        name: "spread",
        spread: true,
        scope: FecScope::Off,
    },
    Arm {
        name: "fec",
        spread: false,
        scope: FecScope::Critical,
    },
    Arm {
        name: "spread+fec",
        spread: true,
        scope: FecScope::Critical,
    },
    Arm {
        name: "spread+fec_all",
        spread: true,
        scope: FecScope::All,
    },
];

fn frontier_fec(scope: FecScope) -> FecPolicy {
    FecPolicy::rs(scope, 4, 2)
}

/// One (arm, seed) stream's deterministic outcome.
struct Trial {
    clf: Vec<usize>,
    alf: Vec<f64>,
    lost: usize,
    /// Number of maximal residual loss runs across all windows.
    bursts: usize,
    /// Σ up-set sizes over residually lost frames (propagation depth).
    depth: usize,
    data_rx: u64,
    parity_rx: u64,
    dropped_data: u64,
    dropped_parity: u64,
    fec_recovered: u64,
    fec_unrecoverable: u64,
}

fn run_trial(arm: Arm, seed: u64) -> Trial {
    let trace = MpegTrace::new(Movie::JurassicPark, 1);
    let offer = SessionOffer {
        gop_pattern: GopPattern::gop12(),
        gops_per_window: GOPS_PER_WINDOW,
        open_gop: false,
        fps: 24,
        packet_bytes: 2048,
        max_frame_bytes: 62_776 / 8,
        fec: match arm.scope {
            FecScope::Off => FecPolicy::off(),
            scope => frontier_fec(scope),
        },
    };
    let config = NetServerConfig::new(
        ProtocolConfig::paper(0.6, 1),
        offer,
        StreamSource::mpeg(&trace, GOPS_PER_WINDOW, WINDOWS, false),
    );
    let mut server = NetServer::bind("127.0.0.1:0", config).expect("bind server");
    let mut proxy = FaultProxy::spawn(
        server.local_addr(),
        FaultPolicy::transparent().gilbert_data_loss(P_STAY_GOOD, P_BAD, seed),
        FaultPolicy::transparent(),
    )
    .expect("spawn proxy");

    let client = NetClient::connect(
        proxy.client_addr(),
        NetClientConfig {
            ordering: if arm.spread {
                Ordering::spread()
            } else {
                Ordering::InOrder
            },
            recovery: false,
            ..NetClientConfig::default()
        },
    )
    .expect("connect");
    let report = client.stream().expect("stream");
    let stats = proxy.stats();
    proxy.shutdown();
    server.shutdown();

    assert_eq!(
        report.windows_completed, WINDOWS,
        "{}/seed {seed}: incomplete stream",
        arm.name
    );
    let poset = GopPattern::gop12().dependency_poset(GOPS_PER_WINDOW, false);
    let mut bursts = 0;
    let mut depth = 0;
    for pattern in &report.patterns {
        bursts += pattern.runs().len();
        depth += pattern
            .lost_indices()
            .iter()
            .map(|&f| poset.upset_size(f))
            .sum::<usize>();
    }
    Trial {
        clf: report.series.clf_values().collect(),
        alf: report.series.alf_values().collect(),
        lost: report.patterns.iter().map(|p| p.lost()).sum(),
        bursts,
        depth,
        data_rx: report.data_rx,
        parity_rx: report.parity_rx,
        dropped_data: stats.dropped_data,
        dropped_parity: stats.dropped_parity,
        fec_recovered: report.fec_recovered,
        fec_unrecoverable: report.fec_unrecoverable,
    }
}

/// One arm's aggregate over the seed sweep.
struct ArmResult {
    name: &'static str,
    mean_clf: f64,
    mean_alf: f64,
    clf: Vec<usize>,
    lost: usize,
    bursts: usize,
    /// Mean residual loss-run length (`0` when nothing was lost).
    burst_mean_len: f64,
    depth: usize,
    data_sent: u64,
    parity_sent: u64,
    /// Extra datagrams the code costs, as a fraction of data datagrams.
    overhead: f64,
    fec_recovered: u64,
    fec_unrecoverable: u64,
    dropped_data: Vec<u64>,
}

fn aggregate(arm: Arm, trials: &[Trial]) -> ArmResult {
    let clf: Vec<usize> = trials.iter().flat_map(|t| t.clf.iter().copied()).collect();
    let alf_sum: f64 = trials.iter().flat_map(|t| t.alf.iter()).sum();
    let lost: usize = trials.iter().map(|t| t.lost).sum();
    let bursts: usize = trials.iter().map(|t| t.bursts).sum();
    // A residual run's length summed over all runs is exactly the
    // residual loss count, so the mean length is their ratio.
    let burst_mean_len = if bursts == 0 {
        0.0
    } else {
        lost as f64 / bursts as f64
    };
    let data_sent: u64 = trials.iter().map(|t| t.data_rx + t.dropped_data).sum();
    let parity_sent: u64 = trials.iter().map(|t| t.parity_rx + t.dropped_parity).sum();
    ArmResult {
        name: arm.name,
        mean_clf: clf.iter().sum::<usize>() as f64 / clf.len() as f64,
        mean_alf: alf_sum / clf.len() as f64,
        lost,
        bursts,
        burst_mean_len,
        depth: trials.iter().map(|t| t.depth).sum(),
        data_sent,
        parity_sent,
        overhead: parity_sent as f64 / data_sent as f64,
        fec_recovered: trials.iter().map(|t| t.fec_recovered).sum(),
        fec_unrecoverable: trials.iter().map(|t| t.fec_unrecoverable).sum(),
        dropped_data: trials.iter().map(|t| t.dropped_data).collect(),
        clf,
    }
}

/// Runs the full grid (arm-major, seed-minor) and aggregates per arm.
fn run_frontier(seeds: &[u64]) -> Vec<ArmResult> {
    let cells: Vec<(Arm, u64)> = ARMS
        .iter()
        .flat_map(|&arm| seeds.iter().map(move |&s| (arm, s)))
        .collect();
    let trials =
        sweep::executor("fec_frontier").run(cells, |_ctx, (arm, seed)| run_trial(arm, seed));
    ARMS.iter()
        .zip(trials.chunks(seeds.len()))
        .map(|(&arm, chunk)| aggregate(arm, chunk))
        .collect()
}

/// The frontier's load-bearing inequalities; panics name the offender.
fn assert_frontier(arms: &[ArmResult]) {
    let by_name = |n: &str| arms.iter().find(|a| a.name == n).unwrap();
    let (nothing, spread) = (by_name("nothing"), by_name("spread"));
    let (fec, both) = (by_name("fec"), by_name("spread+fec"));

    // The FEC-off arms face drop-for-drop identical channels (parity
    // datagrams would step the chain; there are none to step it).
    assert_eq!(
        nothing.dropped_data, spread.dropped_data,
        "FEC-off arms must see identical loss realisations"
    );
    assert!(
        both.mean_clf <= spread.mean_clf,
        "spread+fec mean CLF {} exceeds spreading alone {}",
        both.mean_clf,
        spread.mean_clf
    );
    assert!(
        both.mean_clf <= fec.mean_clf,
        "spread+fec mean CLF {} exceeds FEC alone {}",
        both.mean_clf,
        fec.mean_clf
    );
    // McCann–Fendick: with the raw loss process matched, dispersion is
    // what shortens the bursts FEC cannot cover.
    assert!(
        fec.burst_mean_len >= both.burst_mean_len,
        "FEC-alone residual bursts ({}) shorter than spread+fec ({})",
        fec.burst_mean_len,
        both.burst_mean_len
    );
    // Parity must actually be load-bearing, not vacuously equal.
    assert!(
        both.fec_recovered > 0,
        "no parity recovery happened; the frontier says nothing"
    );
    // All-scope parity covers enhancement fragments too, so its
    // bandwidth overhead must strictly exceed the critical-scope arm's —
    // the cost the perceptual prioritisation avoids.
    let all = by_name("spread+fec_all");
    assert!(
        all.overhead > both.overhead,
        "all-scope FEC overhead {} does not exceed critical-scope {}",
        all.overhead,
        both.overhead
    );
}

fn rows(arms: &[ArmResult], seeds: &[u64]) -> Vec<Json> {
    arms.iter()
        .map(|a| {
            let mut row = Json::object();
            row.push("arm", a.name)
                .push("seeds", seeds.len() as i64)
                .push("windows_per_seed", WINDOWS as i64)
                .push("mean_clf", a.mean_clf)
                .push("mean_alf", a.mean_alf)
                .push(
                    "clf",
                    Json::Array(a.clf.iter().map(|&c| Json::Int(c as i64)).collect()),
                )
                .push("lost_frames", a.lost as i64)
                .push("residual_bursts", a.bursts as i64)
                .push("residual_burst_mean_len", a.burst_mean_len)
                .push("propagation_depth", a.depth as i64)
                .push("data_datagrams_sent", a.data_sent as i64)
                .push("parity_datagrams_sent", a.parity_sent as i64)
                .push("bandwidth_overhead", a.overhead)
                .push("fec_recovered", a.fec_recovered as i64)
                .push("fec_unrecoverable", a.fec_unrecoverable as i64);
            row
        })
        .collect()
}

fn main() {
    let seeds: &[u64] = &SEEDS;
    println!(
        "FEC frontier: {} arms x {} seeds, {WINDOWS} windows each \
         (Gilbert-Elliott P_stay_good={P_STAY_GOOD}, P_bad={P_BAD}; \
         FEC = RS(4,2) on critical or all layers; recovery off)\n",
        ARMS.len(),
        seeds.len()
    );

    let arms = run_frontier(seeds);

    println!(
        "{:<15} {:>9} {:>9} {:>7} {:>7} {:>9} {:>7} {:>9} {:>10}",
        "arm",
        "mean CLF",
        "mean ALF",
        "lost",
        "bursts",
        "mean len",
        "depth",
        "overhead",
        "recovered"
    );
    for a in &arms {
        println!(
            "{:<15} {:>9.3} {:>9.3} {:>7} {:>7} {:>9.2} {:>7} {:>8.1}% {:>10}",
            a.name,
            a.mean_clf,
            a.mean_alf,
            a.lost,
            a.bursts,
            a.burst_mean_len,
            a.depth,
            a.overhead * 100.0,
            a.fec_recovered,
        );
    }

    assert_frontier(&arms);
    let by_name = |n: &str| arms.iter().find(|a| a.name == n).unwrap();
    println!(
        "\nfrontier invariants hold: spread+fec CLF {:.3} <= spread {:.3}, <= fec {:.3}; \
         residual burst len fec {:.2} >= spread+fec {:.2}",
        by_name("spread+fec").mean_clf,
        by_name("spread").mean_clf,
        by_name("fec").mean_clf,
        by_name("fec").burst_mean_len,
        by_name("spread+fec").burst_mean_len,
    );

    let mut doc = sweep::results_doc("fec_frontier", rows(&arms, seeds));
    doc.push(
        "channel_seeds",
        Json::Array(seeds.iter().map(|&s| Json::Int(s as i64)).collect()),
    );
    sweep::write_results("fec_frontier", &doc);
    espread_bench::write_telemetry_snapshot("fec_frontier");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-seed subset of [`SEEDS`], for a test that runs in seconds.
    const TEST_SEEDS: [u64; 2] = [1, 9];

    /// The acceptance inequalities, guarded by `cargo test` on a subset
    /// of the binary's seeds.
    #[test]
    fn frontier_invariants_hold_on_quick_seeds() {
        assert_frontier(&run_frontier(&TEST_SEEDS));
    }
}
