//! # espread-obs — causal flight recorder & timeline reconstructor
//!
//! Observability for the error-spreading UDP stack: each of the three
//! nodes (server, fault proxy, client) records fixed-size structured
//! events into a bounded per-session ring buffer, the rings are dumped as
//! versioned JSON lines next to the existing telemetry snapshots, and the
//! [`reconstruct`] pass merges the dumps back into a single causal
//! per-frame timeline that
//!
//! * attributes **every residual loss and retransmission** to a concrete
//!   [`Cause`] (Gilbert–Elliott loss at the proxy, a dropped control
//!   datagram, an oversize send refusal, retry exhaustion, …),
//! * recomputes per-window **burst/gap statistics and the CLF** so they
//!   can be cross-checked against what `espread-qos` measured client-side
//!   on the very same realisation, and
//! * **fails loudly** — unattributed losses and causality violations
//!   (a fragment delivered that was never sent, or delivered before it
//!   was sent on a shared clock) land in
//!   [`TimelineReport::violations`].
//!
//! The recorder is deliberately boring: [`FlightRecorder::record`] is one
//! clock read, one mutex lock, and one in-place `Copy` store into a
//! preallocated slot — zero heap allocation on the steady-state hot path
//! (asserted by a counting-allocator test) and bounded memory always
//! (overflow overwrites the oldest event and increments a drop counter).
//! A transport endpoint with no recorder attached skips the hook with
//! one branch.
//!
//! ```
//! use espread_obs::{data_detail, reconstruct, trio, EventKind};
//!
//! // One in-process session: the three recorders share an epoch.
//! let (server, proxy, client) = trio(1024, 0);
//! server.record(EventKind::Sent, 1, 0, 0, data_detail(0, false));
//! proxy.record(EventKind::ForwardedData, 1, 0, 0, data_detail(0, false));
//! client.record(EventKind::Delivered, 1, 0, 0, data_detail(0, false));
//! client.record(EventKind::Reassembled, 1, 0, 0, 1);
//! client.record(EventKind::WindowClosed, 1, 0, u32::MAX, 1);
//!
//! let report = reconstruct(&[server.recording(), proxy.recording(), client.recording()]);
//! assert!(report.is_clean());
//! assert_eq!(report.total_lost(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dump;
pub mod event;
pub mod recorder;
pub mod timeline;

pub use dump::{all_to_json_lines, parse_json_lines, to_json_lines, DumpError, DUMP_VERSION};
pub use event::{
    data_detail, detail_frag, detail_retransmit, EventKind, ObsEvent, Role, ALL_KINDS, FRAME_NONE,
    WINDOW_NONE,
};
pub use recorder::{trio, FlightRecorder, Recording, DEFAULT_CAPACITY};
pub use timeline::{
    reconstruct, Cause, FrameOutcome, FrameVerdict, SessionTimeline, TimelineReport,
    WindowTimeline, ALL_CAUSES,
};
