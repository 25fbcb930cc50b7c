//! # espread-telemetry
//!
//! Observability substrate for the error-spreading workspace: a lock-cheap
//! [`Registry`] of counters / gauges / log-linear histograms, RAII
//! [span timing](Histogram::start_timer) for hot paths, a streaming-domain
//! [event log](Event) (adaptation decisions, per-window continuity
//! metrics), and pluggable [sinks](sink) — JSON-lines, Prometheus text
//! exposition, and an in-memory sink for test assertions.
//!
//! ## Design
//!
//! * **Recording is lock-free.** Handles ([`Counter`], [`Gauge`],
//!   [`Histogram`]) are `Arc`s over atomics; the registry's maps are only
//!   locked at registration/lookup and snapshot time. Hot paths keep their
//!   handle and record with a single atomic RMW.
//! * **Snapshot anywhere.** [`Registry::snapshot`] reads every instrument
//!   without stopping writers; [`Snapshot::merge`] folds snapshots from
//!   several registries (or runs) together, and [`Registry::absorb`]
//!   folds a snapshot back into a live registry.
//! * **Thread-scoped routing.** [`with_current`] installs a thread-local
//!   registry override that [`current`] resolves; [`span`], [`count`] and
//!   the per-crate instrument handles record through [`current`], so a
//!   parallel executor can hand each worker a private registry and merge
//!   the deltas once at join instead of contending on shared atomics in
//!   the hot loop.
//! * **Always on.** The crate is std-only and every instrumented crate
//!   depends on it unconditionally; there is no feature flag.
//! * **One JSON writer.** [`Json`] renders both the telemetry JSON lines
//!   and the workspace's deterministic result artifacts.
//!
//! ## Example
//!
//! ```
//! use espread_telemetry::{Registry, sink::{InMemorySink, Sink}};
//!
//! let registry = Registry::new();
//! registry.counter("windows.sent").add(3);
//! registry.gauge("window.alf").set(0.25);
//! let hist = registry.histogram("plan.ns");
//! hist.record(1_200);
//! {
//!     let _span = hist.start_timer(); // records on drop
//! }
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("windows.sent"), Some(3));
//!
//! let mut sink = InMemorySink::new();
//! // export() returns a typed ExportError — no sink panics on export.
//! if let Err(e) = sink.export(&snapshot) {
//!     eprintln!("telemetry export failed: {e}");
//! }
//! assert_eq!(sink.last().unwrap().counter("windows.sent"), Some(3));
//! ```

mod event;
mod hist;
mod json;
mod registry;
pub mod sink;

pub use event::Event;
pub use hist::HistogramSnapshot;
pub use json::Json;
pub use registry::{
    count, current, global, span, with_current, Counter, Gauge, Histogram, Registry, Snapshot,
    SpanGuard,
};
