//! The executor's headline guarantee: a sweep's serialized results are
//! byte-identical for every worker count.

use espread_exec::{Executor, Json};

/// A miniature Monte-Carlo cell: consumes a nontrivial amount of RNG and
/// returns a float statistic plus an integer count, like the real bench
/// grids do.
fn run_cell(ctx: espread_exec::TrialCtx<'_>, cell: (u64, u64)) -> (f64, u64) {
    let (param, seed) = cell;
    let mut rng = ctx.rng(seed);
    let p = 0.01 + param as f64 / 100.0;
    let mut losses = 0u64;
    let mut run = 0u64;
    let mut longest = 0u64;
    for _ in 0..5_000 {
        if rng.chance(p) {
            losses += 1;
            run += 1;
            longest = longest.max(run);
        } else {
            run = 0;
        }
    }
    (losses as f64 / 5_000.0, longest)
}

fn serialize(grid: &[(u64, u64)], results: &[(f64, u64)]) -> String {
    let rows: Vec<Json> = grid
        .iter()
        .zip(results)
        .map(|(&(param, seed), &(rate, longest))| {
            let mut row = Json::object();
            row.push("param", param)
                .push("seed", seed)
                .push("loss_rate", rate)
                .push("longest_burst", longest);
            row
        })
        .collect();
    let mut doc = Json::object();
    doc.push("experiment", "determinism.test")
        .push("rows", Json::Array(rows));
    doc.render_pretty()
}

#[test]
fn serialized_results_identical_for_j1_and_j4() {
    let grid: Vec<(u64, u64)> = (0..6)
        .flat_map(|param| (0..5).map(move |seed| (param, seed)))
        .collect();

    let baseline = Executor::new("determinism.test", 1).run(grid.clone(), run_cell);
    let reference = serialize(&grid, &baseline);

    for jobs in [2, 4] {
        let parallel = Executor::new("determinism.test", jobs).run(grid.clone(), run_cell);
        assert_eq!(
            serialize(&grid, &parallel),
            reference,
            "jobs={jobs} diverged from jobs=1"
        );
    }
}

#[test]
fn telemetry_counters_identical_for_j1_and_j4() {
    use espread_telemetry::{with_current, Registry};

    let run_with = |jobs: usize| {
        let registry = Registry::new();
        with_current(&registry, || {
            let exec = Executor::new("determinism.telem", jobs);
            let _ = exec.run((0..24u64).collect::<Vec<_>>(), |ctx, cell| {
                let reg = espread_telemetry::current();
                reg.counter("test.cells").inc();
                reg.counter("test.draws").add(cell + 1);
                reg.histogram("test.index").record(ctx.index() as u64);
                cell
            });
        });
        registry.snapshot()
    };

    let serial = run_with(1);
    let parallel = run_with(4);
    assert_eq!(serial.counter("test.cells"), parallel.counter("test.cells"));
    assert_eq!(serial.counter("test.draws"), parallel.counter("test.draws"));
    let (a, b) = (
        serial.histogram("test.index").expect("recorded"),
        parallel.histogram("test.index").expect("recorded"),
    );
    assert_eq!(a, b, "histogram deltas must merge to the same snapshot");
}
