//! # espread-chaos
//!
//! A deterministic chaos-soak harness for the UDP stack. Each u64 seed
//! expands into a complete fault schedule — Gilbert–Elliott channel
//! parameters, control-datagram drop windows, duplication/reorder
//! bursts, corruption and truncation cadences, session-shape fuzzing —
//! and drives the real `espread-net` client/server/proxy through it,
//! checking invariants after every run:
//!
//! * **No panic, no stall.** Every cell runs under
//!   [`espread_exec::isolate`]'s watchdog; both failure modes become
//!   typed violations instead of a dead process.
//! * **Typed outcomes only.** Every session reaches teardown with a
//!   completion report or a typed [`espread_net::NetError`].
//! * **Conservation.** The proxy's books must balance: datagrams in =
//!   forwarded originals + drops + held, with the scoped telemetry
//!   counters agreeing with the proxy's own tallies.
//! * **The paper's inequality.** Compare-regime cells stream both
//!   orderings over the *identical* loss realisation and require
//!   spread CLF ≤ in-order CLF (§5.1's same-channel methodology).
//! * **Codec honesty.** Every cell re-proves the counterfactual encode
//!   rule at the wire limits: what `try_encode` accepts must decode
//!   back exactly; what is oversize must be refused with a typed error
//!   naming the field. A silently-truncating encoder fails every seed.
//! * **Explained losses.** Every session runs under an `espread-obs`
//!   flight-recorder trio; the reconstructed timeline must attribute
//!   100% of residual losses to a concrete cause, hold causality
//!   (nothing delivered before it was sent), and reproduce the
//!   client-measured per-window CLF from the recorded burst/gap
//!   structure alone.
//!
//! Determinism is the load-bearing property: everything a cell records
//! is a pure function of its seed, so [`run_soak`] renders a
//! byte-identical [`InvariantReport`] for any worker count and any
//! rerun, and every violation carries a minimized
//! `REPRODUCER seed=… cell=… schedule=…` line that re-creates the
//! failing cell anywhere.
//!
//! A fourth regime, **overload** ([`ChaosMode::Overload`]), swaps the
//! faulty channel for a demand storm: a capacity-capped server under a
//! handshake flood, ghost sessions that never `Begin`, a wedged reader,
//! and a real-client swarm above the cap. Its invariants are the
//! admission-control contract — live sessions never exceed the cap,
//! refusals are typed `Busy` replies, no critical frame is ever shed,
//! and every admitted session ends in a typed outcome and is reaped.
//! Overload seeds live in their own namespace
//! ([`FaultSchedule::derive_overload`], [`run_overload_soak`]) and
//! render a separate `"chaos_overload"` report, so the fault soak's
//! artifact keeps its bytes.
//!
//! The `chaos_soak` bench binary (in `espread-bench`) wires this into
//! `results/chaos_soak.json`, `results/chaos_overload.json`, and the CI
//! gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod report;
pub mod schedule;
pub mod soak;

pub use report::{CellReport, CompareOutcome, InvariantReport};
pub use schedule::{ChaosMode, FaultSchedule};
pub use soak::{run_overload_soak, run_soak, SoakConfig, DEFAULT_OVERLOAD_SEEDS, DEFAULT_SEEDS};
