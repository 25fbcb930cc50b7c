//! Content-based continuity Quality-of-Service metrics for continuous media.
//!
//! This crate implements the QoS model the error-spreading paper builds on
//! (Wijesekera & Srivastava, *"Quality of Service (QoS) Metrics for
//! Continuous Media"*, Multimedia Tools and Applications, 1996 — reference
//! \[21\] of the ICDCS 2000 paper).
//!
//! A continuous-media (CM) stream is viewed as a flow of **logical data
//! units** (LDUs): a video LDU is one frame; an audio LDU is 266 samples of
//! 8-bit 8 kHz audio (≈ one video-frame time at 30 fps). Each LDU has an
//! ideal playout **slot**; deviation from the ideal contents is measured by
//! two *content-based continuity* metrics over a window of `n` LDUs:
//!
//! * **Aggregate Loss Factor (ALF)** — the fraction of unit losses in the
//!   window (how *much* was lost);
//! * **Consecutive Loss Factor (CLF)** — the largest run of consecutive unit
//!   losses (how *bursty* the loss was).
//!
//! Perceptual studies (reference \[6\]) show users tolerate a moderate ALF
//! but very little CLF: the tolerance threshold is about **2 consecutive
//! frames for video** and **3 for audio**. The entire point of error
//! spreading is to trade CLF for ALF.
//!
//! # Example
//!
//! The two example streams of Fig. 1 of the paper: both lose 2 of 4 interior
//! LDUs (equal aggregate loss), but stream 1 loses them back-to-back (CLF 2)
//! while stream 2's losses are spread out (CLF 1):
//!
//! ```
//! use espread_qos::{LossPattern, ContinuityMetrics};
//!
//! let stream1 = LossPattern::from_received([true, false, false, true, true, true]);
//! let stream2 = LossPattern::from_received([true, false, true, true, false, true]);
//!
//! let m1 = ContinuityMetrics::of(&stream1);
//! let m2 = ContinuityMetrics::of(&stream2);
//!
//! assert_eq!(m1.lost(), 2);
//! assert_eq!(m2.lost(), 2);          // same aggregate loss...
//! assert_eq!(m1.clf(), 2);
//! assert_eq!(m2.clf(), 1);           // ...but stream 2 is less bursty
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concealment;
pub mod ldu;
pub mod loss;
pub mod metrics;
pub mod perception;
pub mod quality;
pub mod window;

pub use concealment::Concealment;
pub use ldu::{LduClock, LduId, MediaKind, StreamSpec};
pub use loss::{LossPattern, LossRun};
pub use metrics::{Alf, ContinuityMetrics};
pub use perception::{Acceptability, PerceptionProfile};
pub use quality::{score, QualityScore};
pub use window::{WindowSeries, WindowSummary};
