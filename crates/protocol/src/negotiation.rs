//! The initial negotiation of §4.2.
//!
//! "We assume that N, the buffer size, and the GOP pattern is known in
//! advance by both client and server. This can be obtained by an initial
//! negotiation." This module makes that handshake explicit: the server
//! proposes the session parameters, the client checks them against its
//! own resources (decoder buffer, §4.1's `N = W × GOP × maxFrame` sizing)
//! and either accepts or rejects with a reason. Both sides then derive
//! identical layer structure from the agreed parameters — the shared
//! knowledge the adaptive protocol relies on.

use std::error::Error;
use std::fmt;

use espread_trace::GopPattern;

/// Which fragments the erasure coder protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FecScope {
    /// No parity is generated — pure spreading (the seed behaviour).
    #[default]
    Off,
    /// Only critical-layer frames (the paper's anchor frames — the
    /// layers whose loss propagates through the GOP) get parity;
    /// non-critical layers rely on spreading alone.
    Critical,
    /// Every data fragment is grouped for parity.
    All,
}

/// Per-session erasure-coding policy, proposed with the rest of the
/// offer and applied identically on both sides.
///
/// Parity is computed over **transmission-order groups**: the server
/// collects `group_k` consecutive in-scope fragments as it sends them
/// and emits `parity_m` parity datagrams per group, so parity protects
/// exactly the bursts the spread order produces on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FecPolicy {
    /// Which fragments are grouped.
    pub scope: FecScope,
    /// Data fragments per parity group (`k` of the `(k, m)` code).
    pub group_k: u8,
    /// Parity shards per group (`m`); any `≤ m` losses inside a group
    /// are recoverable.
    pub parity_m: u8,
}

impl FecPolicy {
    /// No erasure coding (the default).
    pub fn off() -> Self {
        FecPolicy::default()
    }

    /// XOR parity (`m = 1`) over groups of `k` critical-layer fragments.
    pub fn xor_critical(k: u8) -> Self {
        FecPolicy {
            scope: FecScope::Critical,
            group_k: k,
            parity_m: 1,
        }
    }

    /// A Reed–Solomon-style `(k, m)` code over the given scope.
    pub fn rs(scope: FecScope, k: u8, m: u8) -> Self {
        FecPolicy {
            scope,
            group_k: k,
            parity_m: m,
        }
    }

    /// Whether any parity will be generated.
    pub fn enabled(&self) -> bool {
        self.scope != FecScope::Off
    }

    /// Validates the geometry against the GF(256) code's limits.
    ///
    /// # Errors
    ///
    /// Returns [`NegotiationError::Invalid`] when the scope is on but
    /// `k` or `m` is zero, or `k + m` exceeds the field's 255 symbols.
    pub fn validate(&self) -> Result<(), NegotiationError> {
        if !self.enabled() {
            return Ok(());
        }
        if self.group_k == 0 || self.parity_m == 0 {
            return Err(NegotiationError::Invalid(
                "FEC group and parity counts must be positive".into(),
            ));
        }
        if usize::from(self.group_k) + usize::from(self.parity_m) > 255 {
            return Err(NegotiationError::Invalid(
                "FEC k + m exceeds the GF(256) symbol budget".into(),
            ));
        }
        Ok(())
    }
}

/// The server's proposed session parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOffer {
    /// Display-order GOP pattern of the stream.
    pub gop_pattern: GopPattern,
    /// GOPs per buffer window (W).
    pub gops_per_window: usize,
    /// Whether GOPs are open (trailing B-frames reference the next GOP).
    pub open_gop: bool,
    /// Frame rate in frames per second.
    pub fps: u32,
    /// Negotiated packet payload size in bytes.
    pub packet_bytes: u32,
    /// Upper bound on any frame's encoded size in bytes (for §4.1 buffer
    /// sizing).
    pub max_frame_bytes: u32,
    /// Erasure-coding policy ([`FecPolicy::off`] reproduces the paper's
    /// pure-spreading protocol bit for bit).
    pub fec: FecPolicy,
}

impl SessionOffer {
    /// Frames per buffer window (`N` of the paper).
    pub fn frames_per_window(&self) -> usize {
        self.gop_pattern.len() * self.gops_per_window
    }

    /// The §4.1 buffer requirement in bytes:
    /// `N_bytes = W × GOP × maxFrame` on each side.
    pub fn buffer_bytes(&self) -> u64 {
        self.frames_per_window() as u64 * u64::from(self.max_frame_bytes)
    }

    /// Client-side start-up delay: one buffer window.
    pub fn startup_delay_secs(&self) -> f64 {
        self.frames_per_window() as f64 / f64::from(self.fps)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), NegotiationError> {
        if self.gops_per_window == 0 {
            return Err(NegotiationError::Invalid("W must be at least 1 GOP".into()));
        }
        if self.fps == 0 {
            return Err(NegotiationError::Invalid("fps must be positive".into()));
        }
        if self.packet_bytes == 0 {
            return Err(NegotiationError::Invalid(
                "packet size must be positive".into(),
            ));
        }
        if self.max_frame_bytes == 0 {
            return Err(NegotiationError::Invalid(
                "max frame size must be positive".into(),
            ));
        }
        self.fec.validate()
    }
}

/// Client resource constraints checked against an offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientCapabilities {
    /// Client decoder/reassembly buffer in bytes.
    pub buffer_bytes: u64,
    /// Largest start-up delay the application tolerates, in milliseconds.
    pub max_startup_delay_ms: u64,
}

impl ClientCapabilities {
    /// A comfortable desktop client (1 MiB buffer, 2 s start-up).
    pub fn desktop() -> Self {
        ClientCapabilities {
            buffer_bytes: 1024 * 1024,
            max_startup_delay_ms: 2_000,
        }
    }

    /// An interactive client (256 KiB buffer, 600 ms start-up) — Internet
    /// phone territory.
    pub fn interactive() -> Self {
        ClientCapabilities {
            buffer_bytes: 256 * 1024,
            max_startup_delay_ms: 600,
        }
    }
}

/// Negotiation failure reasons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NegotiationError {
    /// The offer itself is malformed.
    Invalid(String),
    /// The client cannot buffer `required` bytes (`available` on hand).
    BufferTooSmall {
        /// Bytes the offer requires.
        required: u64,
        /// Bytes the client has.
        available: u64,
    },
    /// The start-up delay exceeds the client's tolerance.
    StartupDelayTooLong {
        /// Offered delay in milliseconds.
        offered_ms: u64,
        /// Client limit in milliseconds.
        limit_ms: u64,
    },
}

impl fmt::Display for NegotiationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NegotiationError::Invalid(why) => write!(f, "invalid offer: {why}"),
            NegotiationError::BufferTooSmall {
                required,
                available,
            } => write!(
                f,
                "client buffer too small: offer needs {required} B, client has {available} B"
            ),
            NegotiationError::StartupDelayTooLong {
                offered_ms,
                limit_ms,
            } => write!(
                f,
                "start-up delay {offered_ms} ms exceeds client limit {limit_ms} ms"
            ),
        }
    }
}

impl Error for NegotiationError {}

/// The agreement both sides derive their shared state from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgreedSession {
    /// The accepted offer.
    pub offer: SessionOffer,
    /// Per-window layer sizes (identical on both sides by construction).
    pub layer_sizes: Vec<usize>,
    /// Playout indices of the critical (anchor) frames per window.
    pub critical_frames: Vec<usize>,
}

/// Runs the negotiation: validates the offer, checks it against the
/// client's capabilities, and derives the shared layer structure.
///
/// # Errors
///
/// Returns a [`NegotiationError`] when the offer is malformed or exceeds
/// the client's resources.
pub fn negotiate(
    offer: SessionOffer,
    client: ClientCapabilities,
) -> Result<AgreedSession, NegotiationError> {
    offer.validate()?;
    let required = offer.buffer_bytes();
    if required > client.buffer_bytes {
        return Err(NegotiationError::BufferTooSmall {
            required,
            available: client.buffer_bytes,
        });
    }
    let offered_ms = (offer.startup_delay_secs() * 1000.0).round() as u64;
    if offered_ms > client.max_startup_delay_ms {
        return Err(NegotiationError::StartupDelayTooLong {
            offered_ms,
            limit_ms: client.max_startup_delay_ms,
        });
    }
    let poset = offer
        .gop_pattern
        .dependency_poset(offer.gops_per_window, offer.open_gop);
    let decomposition = poset.depth_decomposition();
    let layer_sizes = decomposition.iter().map(|l| l.len()).collect();
    let mut critical_frames: Vec<usize> = decomposition
        .iter()
        .filter(|layer| layer.iter().any(|&f| poset.upset_size(f) > 0))
        .flatten()
        .copied()
        .collect();
    critical_frames.sort_unstable();
    Ok(AgreedSession {
        offer,
        layer_sizes,
        critical_frames,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_offer() -> SessionOffer {
        SessionOffer {
            gop_pattern: GopPattern::gop12(),
            gops_per_window: 2,
            open_gop: false,
            fps: 24,
            packet_bytes: 2048,
            max_frame_bytes: 62_776 / 8, // Jurassic Park's worst GOP bounds any frame
            fec: FecPolicy::off(),
        }
    }

    #[test]
    fn offer_derived_quantities() {
        let offer = paper_offer();
        assert_eq!(offer.frames_per_window(), 24);
        assert!((offer.startup_delay_secs() - 1.0).abs() < 1e-12);
        assert_eq!(offer.buffer_bytes(), 24 * u64::from(offer.max_frame_bytes));
    }

    #[test]
    fn desktop_client_accepts_paper_offer() {
        let agreed = negotiate(paper_offer(), ClientCapabilities::desktop()).unwrap();
        assert_eq!(agreed.layer_sizes, vec![2, 2, 2, 2, 16]);
        assert_eq!(agreed.critical_frames.len(), 8);
        assert!(agreed.critical_frames.contains(&0));
        assert!(agreed.critical_frames.contains(&21));
    }

    #[test]
    fn interactive_client_rejects_long_startup() {
        let err = negotiate(paper_offer(), ClientCapabilities::interactive()).unwrap_err();
        assert_eq!(
            err,
            NegotiationError::StartupDelayTooLong {
                offered_ms: 1000,
                limit_ms: 600
            }
        );
        // A W=1 offer halves the delay below the limit.
        let offer = SessionOffer {
            gops_per_window: 1,
            ..paper_offer()
        };
        assert!(negotiate(offer, ClientCapabilities::interactive()).is_ok());
    }

    #[test]
    fn tiny_client_rejects_big_buffers() {
        let client = ClientCapabilities {
            buffer_bytes: 1024,
            max_startup_delay_ms: 10_000,
        };
        let err = negotiate(paper_offer(), client).unwrap_err();
        assert!(matches!(err, NegotiationError::BufferTooSmall { .. }));
    }

    #[test]
    fn malformed_offers_rejected() {
        let mut offer = paper_offer();
        offer.gops_per_window = 0;
        assert!(matches!(
            negotiate(offer, ClientCapabilities::desktop()),
            Err(NegotiationError::Invalid(_))
        ));
        let mut offer = paper_offer();
        offer.fps = 0;
        assert!(negotiate(offer, ClientCapabilities::desktop()).is_err());
        let mut offer = paper_offer();
        offer.packet_bytes = 0;
        assert!(negotiate(offer, ClientCapabilities::desktop()).is_err());
        let mut offer = paper_offer();
        offer.max_frame_bytes = 0;
        assert!(negotiate(offer, ClientCapabilities::desktop()).is_err());
    }

    #[test]
    fn fec_geometry_is_validated() {
        assert!(FecPolicy::off().validate().is_ok());
        assert!(FecPolicy::xor_critical(8).validate().is_ok());
        assert!(FecPolicy::rs(FecScope::All, 200, 55).validate().is_ok());
        assert!(FecPolicy::rs(FecScope::All, 200, 56).validate().is_err());
        assert!(FecPolicy::rs(FecScope::Critical, 0, 1).validate().is_err());
        assert!(FecPolicy::rs(FecScope::Critical, 4, 0).validate().is_err());
        // Zero geometry is fine as long as the scope is off.
        assert!(FecPolicy::rs(FecScope::Off, 0, 0).validate().is_ok());

        let mut offer = paper_offer();
        offer.fec = FecPolicy::xor_critical(0);
        assert!(matches!(
            negotiate(offer, ClientCapabilities::desktop()),
            Err(NegotiationError::Invalid(_))
        ));
        let mut offer = paper_offer();
        offer.fec = FecPolicy::rs(FecScope::All, 6, 2);
        let agreed = negotiate(offer, ClientCapabilities::desktop()).unwrap();
        assert!(agreed.offer.fec.enabled());
    }

    #[test]
    fn error_display() {
        let e = NegotiationError::BufferTooSmall {
            required: 100,
            available: 10,
        };
        assert!(e.to_string().contains("too small"));
        let e = NegotiationError::StartupDelayTooLong {
            offered_ms: 900,
            limit_ms: 600,
        };
        assert!(e.to_string().contains("start-up delay"));
        assert!(NegotiationError::Invalid("x".into())
            .to_string()
            .contains("invalid"));
    }

    #[test]
    fn agreement_matches_window_plan_layering() {
        // The client-side derivation equals what the server's planner uses.
        use crate::config::Ordering;
        use crate::layers::WindowPlan;
        let agreed = negotiate(paper_offer(), ClientCapabilities::desktop()).unwrap();
        let poset = agreed
            .offer
            .gop_pattern
            .dependency_poset(agreed.offer.gops_per_window, agreed.offer.open_gop);
        let plan = WindowPlan::build(Ordering::spread(), &poset, &agreed.layer_sizes);
        assert_eq!(plan.layer_sizes(), agreed.layer_sizes);
        assert!(plan
            .critical_frames()
            .eq(agreed.critical_frames.iter().copied()));
    }

    #[test]
    fn negotiation_drives_a_real_session() {
        // End-to-end: negotiate, then stream with the agreed parameters.
        use crate::{ProtocolConfig, Session, StreamSource};
        use espread_trace::{Movie, MpegTrace};
        let offer = SessionOffer {
            gops_per_window: 1,
            ..paper_offer()
        };
        let agreed = negotiate(offer, ClientCapabilities::interactive()).expect("fits");
        let trace = MpegTrace::new(Movie::JurassicPark, 1);
        let src = StreamSource::mpeg(
            &trace,
            agreed.offer.gops_per_window,
            10,
            agreed.offer.open_gop,
        );
        let report = Session::new(ProtocolConfig::paper(0.6, 31), src).run();
        assert_eq!(report.series.len(), 10);
        assert_eq!(report.estimate_history[0].len(), agreed.layer_sizes.len());
    }
}
