//! Fixtures the loopback suites share. Each suite compiles this module
//! on its own and uses part of it.
#![allow(dead_code)]

use std::time::Duration;

use espread_net::{NetServerConfig, RetryPolicy};
use espread_protocol::{FecPolicy, ProtocolConfig, SessionOffer, StreamSource};
use espread_trace::{GopPattern, Movie, MpegTrace};

/// The paper's Jurassic Park offer, `gops_per_window` GOP 12s a window.
pub fn paper_offer(gops_per_window: usize) -> SessionOffer {
    SessionOffer {
        gop_pattern: GopPattern::gop12(),
        gops_per_window,
        open_gop: false,
        fps: 24,
        packet_bytes: 2048,
        max_frame_bytes: 62_776 / 8,
        fec: FecPolicy::off(),
    }
}

/// A server streaming `windows` windows of [`paper_offer`].
pub fn server_config(windows: usize, gops_per_window: usize) -> NetServerConfig {
    let trace = MpegTrace::new(Movie::JurassicPark, 1);
    NetServerConfig::new(
        ProtocolConfig::paper(0.6, 1),
        paper_offer(gops_per_window),
        StreamSource::mpeg(&trace, gops_per_window, windows, false),
    )
}

/// A retry schedule short enough for loopback tests.
pub fn quick_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base: Duration::from_millis(20),
        max: Duration::from_millis(200),
    }
}
