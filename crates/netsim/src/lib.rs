//! A deterministic discrete-event network simulator for continuous-media
//! transport experiments.
//!
//! This crate implements the evaluation substrate of §5.1 of the
//! error-spreading paper: a **fixed-bandwidth, fixed-delay** path whose
//! only nondeterminism is packet loss from a **two-state Markov (Gilbert)
//! model** (Fig. 7), carrying UDP-like datagrams in both directions (data
//! forward, loss-estimation feedback backward).
//!
//! Everything is deterministic given a seed: the loss chains use seeded
//! generators (see [`DetRng`]) and the event queue breaks time ties FIFO, so
//! every experiment in the workspace is exactly reproducible.
//!
//! # Example
//!
//! ```
//! use espread_netsim::{DuplexChannel, GilbertModel, Link, SimDuration, SimTime};
//!
//! // The paper's channel: 1.2 Mbps, 23 ms RTT, P_good=0.92, P_bad=0.6.
//! let data = Link::new(
//!     1_200_000,
//!     SimDuration::from_millis(11),
//!     GilbertModel::paper(0.6, 42),
//! );
//! let feedback = Link::new(
//!     64_000,
//!     SimDuration::from_millis(11),
//!     GilbertModel::paper(0.6, 43),
//! );
//! let mut channel: DuplexChannel<u64, ()> = DuplexChannel::new(data, feedback);
//!
//! for frame in 0..24u64 {
//!     channel.send_data(SimTime::ZERO, 2048, frame);
//! }
//! let arrived: Vec<u64> = channel
//!     .poll_data(SimTime::from_micros(2_000_000))
//!     .map(|d| d.packet.payload)
//!     .collect();
//! assert!(arrived.len() <= 24); // some frames were lost in bursts
//! assert!(arrived.windows(2).all(|w| w[0] < w[1])); // a FIFO link keeps send order
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod droptail;
pub mod event;
pub mod gilbert;
pub mod link;
pub mod lossmodel;
pub mod packet;
pub mod rng;
mod telem;
pub mod time;

pub use channel::DuplexChannel;
pub use droptail::{DropTailConfig, DropTailQueue};
pub use event::EventQueue;
pub use gilbert::{ChannelState, GilbertModel};
pub use link::{Link, LinkStats, TransmitOutcome};
pub use lossmodel::LossProcess;
pub use packet::{Delivery, Packet};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
