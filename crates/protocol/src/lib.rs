//! The adaptive error-spreading transmission protocol of §4, over a
//! simulated lossy network.
//!
//! This crate assembles the workspace's pieces into the paper's protocol:
//! a UDP-style **server** that permutes each buffer window with the
//! Layered Permutation Transmission Order (critical anchor layers first,
//! non-critical layers scrambled by `calculatePermutation` under
//! adaptively estimated burst bounds), a **client** that un-permutes,
//! measures per-layer loss bursts, and feeds them back in
//! sequence-numbered ACKs, and the orthogonal recovery schemes
//! (retransmission of critical frames, XOR FEC) of Fig. 4. The client
//! window ([`ClientWindow`]) is the one the UDP transport in
//! `espread-net` drives too.
//!
//! # Example
//!
//! Reproduce the flavour of the paper's Fig. 8: stream 20 buffer windows
//! of Jurassic Park over a bursty channel, scrambled vs. unscrambled, on
//! the *same* loss realisation:
//!
//! ```
//! use espread_protocol::{Ordering, ProtocolConfig, Session, StreamSource};
//! use espread_trace::{Movie, MpegTrace};
//!
//! let trace = MpegTrace::new(Movie::JurassicPark, 1);
//! let source = StreamSource::mpeg(&trace, 2, 20, false);
//!
//! let spread = Session::new(ProtocolConfig::paper(0.6, 42), source.clone()).run();
//! let plain = Session::new(
//!     ProtocolConfig::paper(0.6, 42).with_ordering(Ordering::InOrder),
//!     source,
//! )
//! .run();
//!
//! // Same channel, same losses — only the order differs.
//! assert_eq!(spread.packets_offered, plain.packets_offered);
//! println!(
//!     "scrambled CLF {:.2} vs unscrambled {:.2}",
//!     spread.summary().mean_clf,
//!     plain.summary().mean_clf
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod feedback;
pub mod layers;
pub mod negotiation;
pub mod packetize;
pub mod server;
pub mod session;
pub mod source;
mod telem;
pub mod timing;

pub use client::{
    ClientWindow, DataMsg, DataPayload, FecRecovery, ParityMember, ParityMsg, ShardDecoder,
    VerdictOnly, WindowOutcome,
};
pub use config::{check_wire_limits, LossModel, Ordering, ProtocolConfig, Recovery};
pub use feedback::{AckTracker, FeedbackMsg, WindowFeedback};
pub use layers::{LayerInfo, ScheduledFrame, WindowPlan};
pub use negotiation::{
    negotiate, AgreedSession, ClientCapabilities, FecPolicy, FecScope, NegotiationError,
    SessionOffer,
};
pub use packetize::{Fragment, InvalidLduSize, Ldu, ParityGrouper};
pub use server::{plan_cache_stats, AdaptationRecord, Server};
pub use session::{Session, SessionReport};
pub use source::StreamSource;
pub use timing::{TimingAccumulator, TimingStats};
