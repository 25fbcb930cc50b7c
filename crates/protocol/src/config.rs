//! Protocol and experiment configuration.
//!
//! Defaults follow §5.1 of the paper: 2 KiB packets, 23 ms round trip,
//! 1.2 Mbps bandwidth, `P_good = 0.92`, exponential-averaging weight
//! `α = ½`. The buffer (`W = 2` GOPs of 12 frames at 24 fps in §5.1) and
//! its cycle are the stream source's.

use std::fmt;

use espread_netsim::{DropTailConfig, SimDuration};

/// Which transmission ordering the sender uses (the schemes compared in
/// §5.2 and Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ordering {
    /// Frames sent in playout order — the "usual MPEG transmission model"
    /// baseline (block A of Fig. 4).
    InOrder,
    /// The error-spreading Layered Permutation Transmission Order
    /// (block D); per-layer permutations adapt to estimated burst sizes
    /// unless `adaptive` is false (fixed-estimate ablation).
    Spread {
        /// Whether per-layer burst estimates adapt to client feedback.
        adaptive: bool,
    },
    /// CMT's layered order with B-frames in Inverse Binary Order — the
    /// baseline of Table 2 / §4.4.
    Ibo,
}

impl Ordering {
    /// The paper's adaptive error-spreading scheme.
    pub fn spread() -> Self {
        Ordering::Spread { adaptive: true }
    }

    /// Whether plans under this ordering read the per-layer burst
    /// estimates (only the adaptive spread does).
    pub fn is_adaptive(self) -> bool {
        matches!(self, Ordering::Spread { adaptive: true })
    }
}

impl fmt::Display for Ordering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ordering::InOrder => f.write_str("in-order"),
            Ordering::Spread { adaptive: true } => f.write_str("spread (adaptive)"),
            Ordering::Spread { adaptive: false } => f.write_str("spread (fixed)"),
            Ordering::Ibo => f.write_str("IBO"),
        }
    }
}

/// The orthogonal error-recovery scheme layered on top of the ordering
/// (the other axis of Fig. 4's taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Recovery {
    /// No recovery: losses stay lost (blocks A and D).
    None,
    /// Reactive: missing critical-layer frames are NACKed after the
    /// critical phase and retransmitted while the buffer cycle allows
    /// (blocks B and E).
    Retransmit,
    /// Proactive: one XOR parity packet per `group` data packets lets the
    /// client repair any single loss per group, at a bandwidth cost of
    /// `1/group` (blocks C and F).
    Fec {
        /// Data packets per parity group (≥ 1).
        group: u16,
    },
    /// Proactive protection of the **critical layers only** — §4.2's
    /// alternative to retransmission ("so a feedback on the loss rate for
    /// these frames can be avoided"); non-critical layers rely on
    /// spreading alone.
    FecCritical {
        /// Data packets per parity group (≥ 1).
        group: u16,
    },
}

impl fmt::Display for Recovery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Recovery::None => f.write_str("none"),
            Recovery::Retransmit => f.write_str("retransmit"),
            Recovery::Fec { group } => write!(f, "FEC(k={group})"),
            Recovery::FecCritical { group } => write!(f, "critical-FEC(k={group})"),
        }
    }
}

/// Which bursty-loss process the data path uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// The paper's two-state Markov channel (Fig. 7), parameterised by the
    /// config's `p_good`/`p_bad`.
    Gilbert,
    /// A drop-tail bottleneck queue with cross traffic — the loss
    /// *mechanism* the paper attributes burstiness to (§1), used to check
    /// the scheme beyond the Markov abstraction.
    DropTail(DropTailConfig),
}

impl fmt::Display for LossModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LossModel::Gilbert => f.write_str("Gilbert"),
            LossModel::DropTail(_) => f.write_str("drop-tail queue"),
        }
    }
}

/// Full configuration of one streaming session.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Sender ordering scheme.
    pub ordering: Ordering,
    /// Orthogonal recovery scheme.
    pub recovery: Recovery,
    /// Data-path bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Round-trip time (propagation is half of this each way).
    pub rtt: SimDuration,
    /// Maximum packet payload in bytes (frames are fragmented to this).
    pub packet_bytes: u32,
    /// Per-packet header overhead in bytes (UDP/IP-ish).
    pub header_bytes: u32,
    /// Feedback-path bandwidth in bits per second.
    pub feedback_bandwidth_bps: u64,
    /// Gilbert GOOD→GOOD stay probability.
    pub p_good: f64,
    /// Gilbert BAD→BAD stay probability.
    pub p_bad: f64,
    /// Exponential-averaging weight α of eq. (1).
    pub alpha: f64,
    /// Initial burst estimate as a fraction of each layer's length
    /// ("initially the server assumes the average case" — ½ by default).
    pub initial_estimate_fraction: f64,
    /// Channel RNG seed (same seed ⇒ identical loss realisation).
    pub seed: u64,
    /// Data-path loss process.
    pub loss_model: LossModel,
    /// Per-packet delay jitter bound (both directions); non-zero jitter
    /// can reorder packets and ACKs, exercising the protocol's
    /// sequence-number handling.
    pub jitter: SimDuration,
}

impl ProtocolConfig {
    /// The paper's Fig. 8 setting (with `P_bad` supplied by the caller).
    pub fn paper(p_bad: f64, seed: u64) -> Self {
        ProtocolConfig {
            ordering: Ordering::spread(),
            recovery: Recovery::None,
            bandwidth_bps: 1_200_000,
            rtt: SimDuration::from_millis(23),
            packet_bytes: 2048,
            header_bytes: 28,
            feedback_bandwidth_bps: 64_000,
            p_good: 0.92,
            p_bad,
            alpha: 0.5,
            initial_estimate_fraction: 0.5,
            seed,
            loss_model: LossModel::Gilbert,
            jitter: SimDuration::ZERO,
        }
    }

    /// Replaces the ordering scheme.
    pub fn with_ordering(mut self, ordering: Ordering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Replaces the recovery scheme.
    pub fn with_recovery(mut self, recovery: Recovery) -> Self {
        self.recovery = recovery;
        self
    }

    /// Replaces the data bandwidth.
    pub fn with_bandwidth(mut self, bps: u64) -> Self {
        self.bandwidth_bps = bps;
        self
    }

    /// Replaces the data-path loss model.
    pub fn with_loss_model(mut self, loss_model: LossModel) -> Self {
        self.loss_model = loss_model;
        self
    }

    /// Sets the per-packet delay jitter bound.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.bandwidth_bps == 0 {
            return Err("bandwidth must be positive".into());
        }
        if self.feedback_bandwidth_bps == 0 {
            return Err("feedback bandwidth must be positive".into());
        }
        if self.packet_bytes == 0 {
            return Err("packet size must be positive".into());
        }
        for (name, p) in [("P_good", self.p_good), ("P_bad", self.p_bad)] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability, got {p}"));
            }
        }
        if !self.alpha.is_finite() || !(0.0..=1.0).contains(&self.alpha) {
            return Err(format!("alpha must be in [0,1], got {}", self.alpha));
        }
        if !self.initial_estimate_fraction.is_finite()
            || !(0.0..=1.0).contains(&self.initial_estimate_fraction)
        {
            return Err("initial estimate fraction must be in [0,1]".into());
        }
        if let Recovery::Fec { group } | Recovery::FecCritical { group } = self.recovery {
            if group == 0 {
                return Err("FEC group must be at least 1".into());
            }
        }
        if let LossModel::DropTail(cfg) = self.loss_model {
            cfg.validate()?;
        }
        Ok(())
    }
}

/// Checks a session shape against the `u16` labels the client window
/// and the UDP wire carry: a frame index (so the window length) and a
/// fragment's payload length must each fit in 16 bits. Both transports
/// refuse what these labels cannot express.
///
/// # Errors
///
/// Names the first limit exceeded.
pub fn check_wire_limits(frames_per_window: usize, packet_bytes: u32) -> Result<(), String> {
    if frames_per_window > usize::from(u16::MAX) {
        return Err(format!(
            "window of {frames_per_window} frames exceeds the wire's {} maximum",
            u16::MAX
        ));
    }
    if packet_bytes > u32::from(u16::MAX) {
        return Err("packet size exceeds the wire's 64 KiB payload field".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_5_1() {
        let c = ProtocolConfig::paper(0.6, 1);
        assert_eq!(c.bandwidth_bps, 1_200_000);
        assert_eq!(c.rtt, SimDuration::from_millis(23));
        assert_eq!(c.packet_bytes, 2048);
        assert_eq!(c.p_good, 0.92);
        assert_eq!(c.p_bad, 0.6);
        assert_eq!(c.alpha, 0.5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_style_overrides() {
        let c = ProtocolConfig::paper(0.6, 1)
            .with_ordering(Ordering::InOrder)
            .with_recovery(Recovery::Fec { group: 4 })
            .with_bandwidth(300_000);
        assert_eq!(c.ordering, Ordering::InOrder);
        assert_eq!(c.recovery, Recovery::Fec { group: 4 });
        assert_eq!(c.bandwidth_bps, 300_000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let mut c = ProtocolConfig::paper(0.6, 1);
        c.bandwidth_bps = 0;
        assert!(c.validate().unwrap_err().contains("bandwidth"));

        let mut c = ProtocolConfig::paper(0.6, 1);
        c.p_bad = 1.5;
        assert!(c.validate().unwrap_err().contains("P_bad"));

        let mut c = ProtocolConfig::paper(0.6, 1);
        c.alpha = -0.2;
        assert!(c.validate().unwrap_err().contains("alpha"));

        let mut c = ProtocolConfig::paper(0.6, 1);
        c.recovery = Recovery::Fec { group: 0 };
        assert!(c.validate().unwrap_err().contains("FEC"));
    }

    #[test]
    fn loss_model_selection_and_validation() {
        let c = ProtocolConfig::paper(0.6, 1)
            .with_loss_model(LossModel::DropTail(DropTailConfig::paper_like()));
        assert!(c.validate().is_ok());
        assert_eq!(c.loss_model.to_string(), "drop-tail queue");

        let mut bad = DropTailConfig::paper_like();
        bad.capacity_bytes = 0;
        let c = ProtocolConfig::paper(0.6, 1).with_loss_model(LossModel::DropTail(bad));
        assert!(c.validate().is_err());
        assert_eq!(LossModel::Gilbert.to_string(), "Gilbert");
    }

    #[test]
    fn display_names() {
        assert_eq!(Ordering::InOrder.to_string(), "in-order");
        assert_eq!(Ordering::spread().to_string(), "spread (adaptive)");
        assert_eq!(
            Ordering::Spread { adaptive: false }.to_string(),
            "spread (fixed)"
        );
        assert_eq!(Ordering::Ibo.to_string(), "IBO");
        assert_eq!(Recovery::None.to_string(), "none");
        assert_eq!(Recovery::Retransmit.to_string(), "retransmit");
        assert_eq!(Recovery::Fec { group: 8 }.to_string(), "FEC(k=8)");
        assert_eq!(
            Recovery::FecCritical { group: 4 }.to_string(),
            "critical-FEC(k=4)"
        );
    }
}
