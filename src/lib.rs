//! **error-spreading** — a Rust reproduction of *"An Adaptive,
//! Perception-Driven Error Spreading Scheme in Continuous Media Streaming"*
//! (Varadarajan, Ngo & Srivastava, ICDCS 2000).
//!
//! Bursty packet loss is the perceptually damaging failure mode of
//! continuous-media streaming. **Error spreading** permutes the frames of
//! each sender-buffer window before transmission and un-permutes them at
//! the receiver, trading consecutive loss (intolerable beyond ≈ 2 video /
//! 3 audio frames) for spread-out aggregate loss (well tolerated) at zero
//! extra bandwidth — and it composes with retransmission and FEC instead
//! of replacing them.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`qos`] | LDU model, ALF/CLF continuity metrics, perceptual thresholds |
//! | [`poset`] | dependency posets: antichains, Mirsky layers, linear extensions |
//! | [`core`] | permutations, `calculatePermutation`, Theorem 1 bounds, layered orders |
//! | [`trace`] | calibrated synthetic MPEG traces, GOP posets, audio streams |
//! | [`netsim`] | deterministic event simulator, Gilbert loss channel, UDP-like links |
//! | [`protocol`] | the adaptive transmission protocol, retransmission, FEC, baselines |
//! | [`net`] | the protocol over real UDP: wire codec, server/client, fault proxy |
//! | [`obs`] | causal flight recorder, session dumps, per-loss timeline attribution |
//!
//! # Quick start
//!
//! ```
//! use error_spreading::prelude::*;
//!
//! // The paper's Table 1: 17 frames, bursts of 5.
//! let choice = calculate_permutation(17, 5);
//! assert_eq!(choice.worst_clf, 1);
//! assert_eq!(worst_case_clf(&Permutation::identity(17), 5), 5);
//!
//! // Stream MPEG over a bursty channel, scrambled vs unscrambled.
//! let trace = MpegTrace::new(Movie::JurassicPark, 1);
//! let source = StreamSource::mpeg(&trace, 2, 10, false);
//! let spread = Session::new(ProtocolConfig::paper(0.6, 7), source.clone()).run();
//! let plain = Session::new(
//!     ProtocolConfig::paper(0.6, 7).with_ordering(Ordering::InOrder),
//!     source,
//! )
//! .run();
//! assert!(spread.summary().mean_clf <= plain.summary().mean_clf);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod guide;

pub use espread_core as core;
pub use espread_fec as fec;
pub use espread_net as net;
pub use espread_netsim as netsim;
pub use espread_obs as obs;
pub use espread_poset as poset;
pub use espread_protocol as protocol;
pub use espread_qos as qos;
pub use espread_trace as trace;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use espread_core::{
        calculate_permutation, clf_lower_bound, k_cpo, max_tolerable_burst, theorem_one,
        worst_case_clf, worst_case_clf_multi, BurstEstimator, LayeredOrder, Permutation,
    };
    pub use espread_fec::{Codec, Scratch};
    pub use espread_net::{
        FaultPolicy, FaultProxy, NetClient, NetClientConfig, NetServer, NetServerConfig,
    };
    pub use espread_netsim::{GilbertModel, Link, SimDuration, SimTime};
    pub use espread_poset::Poset;
    pub use espread_protocol::{
        FecPolicy, FecScope, Ordering, ProtocolConfig, Recovery, Session, SessionReport,
        StreamSource,
    };
    pub use espread_qos::{
        Acceptability, ContinuityMetrics, LossPattern, MediaKind, PerceptionProfile, WindowSeries,
        WindowSummary,
    };
    pub use espread_trace::{AudioStream, FrameType, GopPattern, Movie, MpegTrace};
}
