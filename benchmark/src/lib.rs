//! One benchmark for the error-spreading streaming stack.
//!
//! Four closed-loop workloads — the paper's Fig. 8 simulation, and three
//! loopback UDP mixes (data plane, session churn, lossy proxy) — each run
//! in a fresh process. The untraced pass reports end-to-end metrics and
//! checks the outputs; the traced pass replays the workload's windows
//! through each layer's public calls and reports per-layer numbers. See
//! `README.md` for the metric table and the commands.

#![forbid(unsafe_code)]

pub mod compare;
pub mod json;
pub mod meta;
pub mod metrics;
pub mod procstat;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
