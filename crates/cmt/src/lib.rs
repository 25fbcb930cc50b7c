//! A miniature Berkeley Continuous Media Toolkit (CMT) pipeline.
//!
//! §4.4 of the error-spreading paper validates the scheme by implementing
//! it inside CMT: the `cmFileSegment` object decodes and prioritises
//! frames into a common buffer, and `pktSrc` picks frames from the buffer,
//! drops low-priority frames under resource pressure, and orders the
//! B-frames — stock CMT with the **Inverse Binary Order**, the paper with
//! **k-CPO**. This crate reproduces exactly those object roles so the two
//! orderings can be compared in an otherwise identical host:
//!
//! * [`FileSegment`] — stages one buffer cycle of frames at a time;
//! * [`PriorityBuffer`] — the common buffer (I > P > B, deadline expiry);
//! * [`PktSrc`] — resource-estimating sender with prioritised dropping
//!   and the pluggable [`BFrameOrdering`];
//! * [`Pipeline`] — the assembled FileSegment → buffer → PktSrc chain.
//!
//! # Example
//!
//! ```
//! use espread_cmt::{BFrameOrdering, Pipeline, PipelineConfig};
//! use espread_trace::{Movie, MpegTrace};
//!
//! let config = PipelineConfig { cycles: 5, ..PipelineConfig::default() };
//! let trace = MpegTrace::new(Movie::JurassicPark, 1);
//!
//! let ibo = Pipeline::new(trace.clone(), &config, BFrameOrdering::Ibo).run();
//! let cpo = Pipeline::new(trace, &config, BFrameOrdering::Cpo { burst: 4 }).run();
//! println!("IBO CLF {:.2} vs CPO CLF {:.2}",
//!          ibo.summary().mean_clf, cpo.summary().mean_clf);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod file_segment;
pub mod ordering;
pub mod pipeline;
pub mod pkt_dest;
pub mod pkt_src;

pub use buffer::{priority_of, BufferedFrame, PriorityBuffer};
pub use file_segment::FileSegment;
pub use ordering::BFrameOrdering;
pub use pipeline::{Pipeline, PipelineConfig};
pub use pkt_dest::PktDest;
pub use pkt_src::{CycleOutcome, PktSrc, SendStrategy};
