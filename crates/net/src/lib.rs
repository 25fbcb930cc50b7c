//! The adaptive error-spreading protocol over **real UDP sockets**.
//!
//! Where `espread-protocol` runs the paper's §4 protocol against a
//! simulated channel, this crate puts the same planner and observation
//! machinery on the wire: a versioned binary codec ([`wire`]), an
//! event-loop multi-session server ([`server`]) whose fixed worker pool
//! drives `poll()`-able session state machines that own their retry
//! deadlines, demuxing by connection id and
//! closing every window with a retried `WindowEnd`/`WindowAck` exchange, a
//! client ([`client`]) that un-permutes, measures per-layer loss bursts,
//! and feeds them back in sequence-numbered ACKs, and a fault-injecting
//! loopback proxy ([`proxy`]) whose seeded Gilbert–Elliott channel makes
//! end-to-end loss realisations reproducible. Both ends keep the protocol
//! in sans-IO cores fed µs clock values, so tests run a whole session on
//! an integer clock with no socket.
//!
//! Everything is `std::net` only — no external dependencies.
//!
//! # Example
//!
//! Stream two buffer windows of Jurassic Park over loopback, losslessly.
//! Every fallible step returns a typed [`NetError`] — the documented
//! entry path propagates with `?` instead of unwrapping:
//!
//! ```
//! use espread_net::{NetClient, NetClientConfig, NetError, NetServer, NetServerConfig};
//! use espread_protocol::{FecPolicy, ProtocolConfig, SessionOffer, StreamSource};
//! use espread_trace::{GopPattern, Movie, MpegTrace};
//!
//! fn stream() -> Result<(), NetError> {
//!     let trace = MpegTrace::new(Movie::JurassicPark, 1);
//!     let offer = SessionOffer {
//!         gop_pattern: GopPattern::gop12(),
//!         gops_per_window: 1,
//!         open_gop: false,
//!         fps: 24,
//!         packet_bytes: 2048,
//!         max_frame_bytes: 62_776 / 8,
//!         fec: FecPolicy::off(),
//!     };
//!     let config = NetServerConfig::new(
//!         ProtocolConfig::paper(0.6, 42),
//!         offer,
//!         StreamSource::mpeg(&trace, 1, 2, false),
//!     );
//!     let mut server = NetServer::bind("127.0.0.1:0", config)?;
//!
//!     let client = NetClient::connect(server.local_addr(), NetClientConfig::default())?;
//!     let report = client.stream()?;
//!     server.shutdown();
//!
//!     assert_eq!(report.windows_completed, 2);
//!     assert_eq!(report.series.summary().mean_clf, 0.0); // nothing lost
//!     Ok(())
//! }
//! stream().expect("loopback stream");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod clientcore;
pub mod clientwin;
pub mod error;
pub mod obsrec;
pub mod proxy;
pub mod retry;
pub mod server;
mod session;
mod shard;
mod telem;
pub mod wire;

pub use client::{NetClient, NetClientConfig, NetClientReport};
pub use error::NetError;
pub use obsrec::SessionRecorder;
pub use proxy::{FaultPolicy, FaultProxy, ProxyStats};
pub use retry::RetryPolicy;
pub use server::{NetServer, NetServerConfig};
pub use wire::{decode, try_encode, try_encode_into, Msg, WireError};

/// Whole sessions through both sans-IO cores with no socket.
#[cfg(test)]
mod pair;
