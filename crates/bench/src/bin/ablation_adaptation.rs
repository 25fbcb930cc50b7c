//! Ablation — does the adaptation (eq. 1) earn its keep?
//!
//! Compares three spreading variants on matched channels: adaptive
//! estimation with the paper's α = ½, a sweep of other α values, and the
//! non-adaptive fixed permutation. Also ablates the CMT-style baseline
//! (IBO) as a reference interleaver.
//!
//! ```sh
//! cargo run --release -p espread-bench --bin ablation_adaptation -- --jobs 4
//! ```

use espread_bench::{mean, paper_source, sweep};
use espread_exec::Json;
use espread_protocol::{Ordering, ProtocolConfig, Session};

fn seeds() -> Vec<u64> {
    (100..110).collect()
}

/// Mean CLF over the per-seed cells of one grid row.
fn row_mean(cells: &[f64], row: usize, per_row: usize) -> f64 {
    mean(&cells[row * per_row..(row + 1) * per_row])
}

fn main() {
    let seeds = seeds();
    println!(
        "Adaptation ablation (Pbad=0.7, 80 windows, {} seeds)\n",
        seeds.len()
    );
    let mut rows = Vec::new();

    println!("α sweep (adaptive spread):");
    println!("{:>6} {:>10}", "α", "mean CLF");
    let alphas = [0.0, 0.25, 0.5, 0.75, 1.0];
    let alpha_grid: Vec<(f64, u64)> = alphas
        .into_iter()
        .flat_map(|alpha| seeds.iter().map(move |&seed| (alpha, seed)))
        .collect();
    let alpha_cells =
        sweep::executor("ablation_adaptation.alpha").run(alpha_grid, |_, (alpha, seed)| {
            let mut cfg = ProtocolConfig::paper(0.7, seed).with_ordering(Ordering::spread());
            cfg.alpha = alpha;
            Session::new(cfg, paper_source(2, 80, 1))
                .run()
                .summary()
                .mean_clf
        });
    for (i, alpha) in alphas.into_iter().enumerate() {
        let m = row_mean(&alpha_cells, i, seeds.len());
        let marker = if alpha == 0.5 {
            "  ← paper's choice"
        } else {
            ""
        };
        println!("{alpha:>6.2} {m:>10.3}{marker}");
        let mut row = Json::object();
        row.push("kind", "alpha_sweep")
            .push("alpha", alpha)
            .push("mean_clf", m);
        rows.push(row);
    }

    println!("\nscheme comparison:");
    println!("{:>22} {:>10}", "scheme", "mean CLF");
    let schemes: [(&str, Ordering); 4] = [
        ("spread (adaptive)", Ordering::spread()),
        ("spread (fixed b=n/2)", Ordering::Spread { adaptive: false }),
        ("IBO layers", Ordering::Ibo),
        ("in-order", Ordering::InOrder),
    ];
    let scheme_grid: Vec<(Ordering, u64)> = schemes
        .iter()
        .flat_map(|&(_, ordering)| seeds.iter().map(move |&seed| (ordering, seed)))
        .collect();
    let scheme_cells =
        sweep::executor("ablation_adaptation.scheme").run(scheme_grid, |_, (ordering, seed)| {
            let cfg = ProtocolConfig::paper(0.7, seed).with_ordering(ordering);
            Session::new(cfg, paper_source(2, 80, 1))
                .run()
                .summary()
                .mean_clf
        });
    for (i, (name, _)) in schemes.into_iter().enumerate() {
        let m = row_mean(&scheme_cells, i, seeds.len());
        println!("{name:>22} {m:>10.3}");
        let mut row = Json::object();
        row.push("kind", "scheme_comparison")
            .push("scheme", name)
            .push("mean_clf", m);
        rows.push(row);
    }

    println!("\nreading: the dominant effect is spreading itself (≈ 2× over in-order);");
    println!("because calculatePermutation's multi-scale tie-breaking returns orders that");
    println!("are robust across burst sizes, performance is nearly insensitive to α — the");
    println!("estimator's job (per the paper) is to stay calibrated with *minimal feedback*,");
    println!("one ACK per buffer window, not to eke out extra CLF. The estimate itself does");
    println!("track the channel (see the adaptation integration tests).");

    // Cache counters go to stderr: concurrent first misses make them vary
    // from run to run, and stdout is a committed artifact.
    for (name, stats) in [
        ("plan cache", espread_protocol::plan_cache_stats()),
        ("order cache", espread_core::spread_cache_stats()),
    ] {
        eprintln!(
            "{name}: {} hits / {} misses ({} entries, hit rate {:.1}%)",
            stats.hits,
            stats.misses,
            stats.entries,
            stats.hit_rate() * 100.0
        );
    }

    sweep::write_results(
        "ablation_adaptation",
        &sweep::results_doc("ablation_adaptation", rows),
    );
    espread_bench::write_telemetry_snapshot("ablation_adaptation");
}
