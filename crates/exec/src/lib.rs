//! # espread-exec
//!
//! A dependency-free parallel experiment executor for the error-spreading
//! workspace. Every bench binary is a grid sweep — movie × seed ×
//! parameter cells that are independent of one another — and this crate
//! runs those cells on a [`std::thread::scope`] worker pool while keeping
//! the output **byte-identical for any worker count**.
//!
//! ## Determinism contract
//!
//! * **No work stealing.** Cells are sharded statically: worker `k` of
//!   `J` owns cells `k, k+J, k+2J, …`. Which thread runs a cell is a pure
//!   function of `(index, jobs)`, never of timing.
//! * **Results keep input order.** Each worker tags results with the cell
//!   index and the executor places them back into index slots, so
//!   [`Executor::run`] returns results in cell order regardless of which
//!   worker finished first.
//! * **Stable RNG streams.** A trial never inherits RNG state from a
//!   predecessor on the same thread. [`TrialCtx::rng`] derives an
//!   independent stream from the `(experiment, cell index, seed)` key via
//!   FNV-1a into [`espread_netsim::rng::DetRng`], so `-j1` and `-jN`
//!   draw exactly the same deviates.
//! * **Telemetry merges at join.** Each worker records into a private
//!   registry (installed thread-locally via `espread_telemetry::with_current`)
//!   and the executor folds the deltas into the caller's current registry
//!   when the worker joins — in worker order, without hot-loop contention
//!   on shared atomics.
//!
//! ## Example
//!
//! ```
//! use espread_exec::Executor;
//!
//! let exec = Executor::new("doc.sweep", 4);
//! let cells: Vec<u64> = (0..32).collect();
//! let results = exec.run(cells, |ctx, cell| {
//!     let mut rng = ctx.rng(cell); // stable per (experiment, index, seed)
//!     rng.next_u64()
//! });
//! assert_eq!(results.len(), 32);
//! // Same grid on one worker: byte-identical.
//! let again = Executor::new("doc.sweep", 1).run((0..32).collect(), |ctx, cell| {
//!     ctx.rng(cell).next_u64()
//! });
//! assert_eq!(results, again);
//! ```
//!
//! [`Json`] (re-exported from `espread-telemetry`) renders result
//! artifacts deterministically (insertion-ordered objects,
//! shortest-roundtrip floats) so sweep outputs can be diffed
//! byte-for-byte across worker counts.

mod executor;
pub mod isolate;
mod seed;

pub use espread_telemetry::Json;
pub use executor::Executor;
pub use isolate::{isolate, CellFailure};
pub use seed::{trial_seed, TrialCtx};
