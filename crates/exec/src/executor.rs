//! The worker pool: scoped threads, static sharding, ordered results.

use std::thread;

use espread_telemetry::{with_current, Registry};

use crate::seed::TrialCtx;

/// A deterministic parallel sweep runner.
///
/// See the [crate docs](crate) for the determinism contract. Construct
/// one per experiment (the name keys every trial's RNG derivation) and
/// call [`Executor::run`] once per grid.
#[derive(Debug, Clone)]
pub struct Executor {
    experiment: String,
    jobs: usize,
}

impl Executor {
    /// Creates an executor for `experiment` with `jobs` workers.
    ///
    /// `jobs == 0` means "use available parallelism" (the `--jobs`
    /// default in the bench binaries). The worker count never changes
    /// results — only wall-clock.
    pub fn new(experiment: impl Into<String>, jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            thread::available_parallelism().map_or(1, usize::from)
        } else {
            jobs
        };
        Executor {
            experiment: experiment.into(),
            jobs,
        }
    }

    /// The experiment name used for seed derivation.
    pub fn experiment(&self) -> &str {
        &self.experiment
    }

    /// The resolved worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f` over every cell, in parallel, returning results in cell
    /// order.
    ///
    /// Worker `k` of `J` owns cells `k, k+J, k+2J, …` (static sharding —
    /// no stealing, so thread assignment is deterministic). Each call
    /// receives a [`TrialCtx`] naming the cell; derive RNG streams from
    /// it rather than carrying generators across cells.
    ///
    /// Each worker records into a private telemetry registry and the
    /// deltas are folded into the caller's current registry at join, in
    /// worker order.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any cell closure after the remaining
    /// workers finish.
    pub fn run<C, T>(&self, cells: Vec<C>, f: impl Fn(TrialCtx<'_>, C) -> T + Sync) -> Vec<T>
    where
        C: Send,
        T: Send,
    {
        let n = cells.len();
        if n == 0 {
            return Vec::new();
        }
        let jobs = self.jobs.min(n);

        // Static round-robin sharding: worker k owns cells k, k+J, …
        let mut shards: Vec<Vec<(usize, C)>> = (0..jobs).map(|_| Vec::new()).collect();
        for (index, cell) in cells.into_iter().enumerate() {
            shards[index % jobs].push((index, cell));
        }

        let f = &f;
        let experiment = self.experiment.as_str();
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();

        thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|shard| {
                    scope.spawn(move || {
                        // Each worker records into a private registry; its
                        // snapshot is the delta folded in at join.
                        let local = Registry::new();
                        let results = with_current(&local, || {
                            shard
                                .into_iter()
                                .map(|(index, cell)| {
                                    let ctx = TrialCtx { experiment, index };
                                    (index, f(ctx, cell))
                                })
                                .collect::<Vec<_>>()
                        });
                        (results, local.snapshot())
                    })
                })
                .collect();

            // Join in worker order so telemetry deltas (notably event
            // logs) merge deterministically for a fixed worker count.
            for handle in handles {
                let (results, delta) = match handle.join() {
                    Ok(out) => out,
                    Err(payload) => std::panic::resume_unwind(payload),
                };
                espread_telemetry::current().absorb(&delta);
                for (index, value) in results {
                    slots[index] = Some(value);
                }
            }
        });

        slots
            .into_iter()
            .map(|slot| slot.expect("every cell produced a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_grid_is_fine() {
        let exec = Executor::new("t.empty", 4);
        let out: Vec<u64> = exec.run(Vec::<u64>::new(), |_, c| c);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        let exec = Executor::new("t.auto", 0);
        assert!(exec.jobs() >= 1);
    }

    #[test]
    fn results_keep_input_order() {
        for jobs in [1, 2, 3, 7, 64] {
            let exec = Executor::new("t.order", jobs);
            let out = exec.run((0..20usize).collect(), |ctx, cell| {
                assert_eq!(ctx.index(), cell);
                cell * 10
            });
            assert_eq!(out, (0..20).map(|c| c * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn more_workers_than_cells() {
        let exec = Executor::new("t.wide", 16);
        let out = exec.run(vec![1u64, 2, 3], |_, c| c * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn rng_streams_match_across_worker_counts() {
        let grid: Vec<u64> = (0..33).collect();
        let draw = |ctx: TrialCtx<'_>, cell: u64| {
            let mut rng = ctx.rng(cell);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        let serial = Executor::new("t.det", 1).run(grid.clone(), draw);
        for jobs in [2, 4, 5] {
            let parallel = Executor::new("t.det", jobs).run(grid.clone(), draw);
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "cell 3 exploded")]
    fn worker_panic_propagates() {
        let exec = Executor::new("t.panic", 2);
        let _ = exec.run((0..8usize).collect(), |_, cell| {
            assert!(cell != 3, "cell 3 exploded");
            cell
        });
    }

    #[test]
    fn telemetry_merges_at_join() {
        let outer = Registry::new();
        with_current(&outer, || {
            let exec = Executor::new("t.telem", 4);
            let _ = exec.run((0..12u64).collect(), |_, cell| {
                espread_telemetry::current()
                    .counter("exec.test.cells")
                    .inc();
                cell
            });
        });
        // All per-worker deltas landed in the caller's registry...
        assert_eq!(outer.snapshot().counter("exec.test.cells"), Some(12));
        // ...and none leaked to the global registry.
        assert_ne!(
            espread_telemetry::global()
                .snapshot()
                .counter("exec.test.cells"),
            Some(12)
        );
    }
}
