//! Deterministic chaos soak over the UDP stack.
//!
//! ```sh
//! cargo run --release -p espread-bench --bin chaos_soak [--jobs N] [--quick]
//! ```
//!
//! Runs [`espread_chaos::DEFAULT_SEEDS`] (or a four-seed subset with
//! `--quick`) through the full client/server/proxy stack under seeded
//! fault schedules, checks every invariant, and writes the report to
//! `results/chaos_soak.json`. It then runs the overload regime
//! ([`espread_chaos::DEFAULT_OVERLOAD_SEEDS`], or the first seed with
//! `--quick`) — a capacity-capped server under a handshake flood, a
//! wedged reader, and a client swarm above the cap — and writes that
//! report to `results/chaos_overload.json`. Both artifacts are
//! byte-identical for any `--jobs` value and any rerun — CI diffs two
//! runs and greps for `"violations": 0`. On a violation, one minimized
//! `REPRODUCER seed=… cell=… schedule=… trace=…` line per breakage goes
//! to stdout and the process exits nonzero.
//!
//! Every cell also dumps its flight-recorder trio (server, proxy,
//! client event rings) to `results/timeline_seed<seed>.jsonl`
//! (`timeline_overload_seed<seed>.jsonl` for overload cells); replay
//! one with `cargo run --release -p espread-bench --bin timeline -- \
//! --check results/timeline_seed<seed>.jsonl`. The dumps carry
//! timestamps and are excluded from the byte-identical diff.

use std::process::ExitCode;
use std::time::Instant;

use espread_bench::sweep;
use espread_chaos::{
    run_overload_soak, run_soak, InvariantReport, SoakConfig, DEFAULT_OVERLOAD_SEEDS,
};

/// One seed per invariant regime plus a second compare cell — the same
/// subset the `espread-chaos` integration test drives.
const QUICK_SEEDS: [u64; 4] = [3, 4, 8, 9];

fn print_cells(report: &InvariantReport, elapsed_s: f64) {
    for cell in &report.cells {
        let verdict = if cell.violations.is_empty() {
            "ok  "
        } else {
            "FAIL"
        };
        println!("  {verdict} seed={:<3} {}", cell.seed, cell.schedule);
    }
    for line in report.reproducers() {
        println!("{line}");
    }
    println!(
        "\n{} cells, {} violations",
        report.cells.len(),
        report.violation_count(),
    );
    // Wall-clock time goes to stderr, so stdout stays deterministic.
    eprintln!("regime took {elapsed_s:.1}s");
}

fn main() -> ExitCode {
    let jobs = sweep::jobs_from_args();
    let quick = std::env::args().any(|a| a == "--quick");
    let mut config = if quick {
        SoakConfig::new(QUICK_SEEDS.to_vec())
    } else {
        SoakConfig::default_seeds()
    };
    config.jobs = jobs;
    config.trace_dir = Some("results".into());

    println!(
        "Chaos soak: {} seeded fault schedules through the UDP \
         client/server/proxy stack\n",
        config.seeds.len()
    );
    let started = Instant::now();
    let report = run_soak(&config);
    print_cells(&report, started.elapsed().as_secs_f64());
    sweep::write_results("chaos_soak", &report.to_json());

    let mut overload_config = if quick {
        SoakConfig::new(DEFAULT_OVERLOAD_SEEDS[..1].to_vec())
    } else {
        SoakConfig::default_overload_seeds()
    };
    overload_config.jobs = jobs;
    overload_config.trace_dir = Some("results".into());

    println!(
        "\nOverload regime: {} seeded demand storms against a \
         capacity-capped server\n",
        overload_config.seeds.len()
    );
    let overload_started = Instant::now();
    let overload_report = run_overload_soak(&overload_config);
    print_cells(&overload_report, overload_started.elapsed().as_secs_f64());
    sweep::write_results("chaos_overload", &overload_report.to_json());

    espread_bench::write_telemetry_snapshot("chaos_soak");
    if report.is_clean() && overload_report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
