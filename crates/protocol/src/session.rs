//! End-to-end streaming sessions over the simulated network.
//!
//! A [`Session`] wires a [`crate::server::Server`], a per-window
//! client, and a [`DuplexChannel`] together and executes the §4.2 protocol
//! window by window:
//!
//! 1. at each window start the server folds in the freshest ACK and plans
//!    the window (layered, permuted per current estimates);
//! 2. the **critical phase** sends anchor-layer packets; with
//!    [`Recovery::Retransmit`] the client NACKs missing critical frames
//!    one propagation later and the server retransmits while the buffer
//!    cycle allows;
//! 3. the remaining layers are sent, **dropping frames from the schedule
//!    tail** that cannot depart before the cycle ends (CMT-style
//!    prioritised frame dropping);
//! 4. at window end the client applies FEC recovery, derives the playout
//!    loss pattern and its [`ContinuityMetrics`], and ACKs per-layer burst
//!    observations (sequence-numbered; out-of-order ACKs are ignored).
//!
//! The receive side is the transport-neutral [`ClientWindow`] the UDP
//! client drives too; the simulator carries no payload bytes, so it
//! repairs with [`VerdictOnly`].
//!
//! Both directions ride lossy links; the same seed reproduces the same
//! loss realisation, so schemes can be compared on identical channels.

use std::time::Instant;

use espread_netsim::{
    DropTailQueue, DuplexChannel, GilbertModel, Link, LossProcess, SimDuration, SimTime,
};
use espread_qos::{ContinuityMetrics, LossPattern, WindowSeries, WindowSummary};

use crate::client::{ClientWindow, DataMsg, DataPayload, ParityMember, VerdictOnly, WindowOutcome};
use crate::config::{check_wire_limits, LossModel, ProtocolConfig, Recovery};
use crate::feedback::FeedbackMsg;
use crate::layers::{ScheduledFrame, WindowPlan};
use crate::packetize::{Fragment, ParityGrouper};
use crate::server::Server;
use crate::source::StreamSource;
use crate::timing::{TimingAccumulator, TimingStats};

/// Wire size of a feedback (ACK/NACK) packet in bytes.
const FEEDBACK_BYTES: u32 = 64;

/// Result of one streaming session.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Per-window continuity metrics, in window order.
    pub series: WindowSeries,
    /// Data packets offered / lost on the forward link.
    pub packets_offered: u64,
    /// Data packets lost on the forward link.
    pub packets_lost: u64,
    /// Frames retransmitted (critical recovery).
    pub retransmissions: u64,
    /// Fragments repaired by FEC.
    pub fec_recovered: u64,
    /// Frames dropped at the sender for lack of cycle time.
    pub dropped_frames: u64,
    /// Per-window per-layer raw burst estimates (before rounding).
    pub estimate_history: Vec<Vec<f64>>,
    /// Total bytes offered to the forward link (payload + headers).
    pub bytes_offered: u64,
    /// Per-frame delivery timing (latency, jitter, lateness).
    pub timing: TimingStats,
    /// The playout-order loss pattern of every window (for downstream
    /// analyses such as concealment modelling).
    pub patterns: Vec<LossPattern>,
    /// Critical (anchor) frames lost after all recovery, across the run.
    pub critical_lost: u64,
    /// Critical (anchor) frames streamed, across the run.
    pub critical_total: u64,
}

impl SessionReport {
    /// Summary statistics of the CLF series (the numbers Fig. 8 reports).
    pub fn summary(&self) -> WindowSummary {
        self.series.summary()
    }

    /// Observed forward-path packet loss fraction.
    pub fn packet_loss_rate(&self) -> f64 {
        if self.packets_offered == 0 {
            0.0
        } else {
            self.packets_lost as f64 / self.packets_offered as f64
        }
    }

    /// Residual loss rate of the critical (anchor) frames — the quantity
    /// retransmission / critical FEC exists to suppress (a lost anchor
    /// cascades into its whole dependent subtree).
    pub fn critical_loss_rate(&self) -> f64 {
        if self.critical_total == 0 {
            0.0
        } else {
            self.critical_lost as f64 / self.critical_total as f64
        }
    }
}

/// One end-to-end streaming session.
#[derive(Debug)]
pub struct Session {
    config: ProtocolConfig,
    source: StreamSource,
    telem: crate::telem::SessionTelem,
}

impl Session {
    /// Creates a session.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ProtocolConfig::validate`] or
    /// the session shape exceeds [`check_wire_limits`].
    pub fn new(config: ProtocolConfig, source: StreamSource) -> Self {
        if let Err(e) = config
            .validate()
            .and_then(|()| check_wire_limits(source.frames_per_window(), config.packet_bytes))
        {
            panic!("invalid protocol configuration: {e}");
        }
        Session {
            config,
            source,
            telem: crate::telem::SessionTelem::default_global(),
        }
    }

    /// Routes this session's telemetry (phase spans, per-window ALF/CLF
    /// gauges, adaptation events) to `registry` instead of the process
    /// global — used by tests to observe one session in isolation.
    pub fn with_telemetry(mut self, registry: espread_telemetry::Registry) -> Self {
        self.telem = crate::telem::SessionTelem::new(registry);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Runs the whole stream and reports per-window metrics.
    pub fn run(&self) -> SessionReport {
        let cfg = &self.config;
        let prop = SimDuration::from_micros(cfg.rtt.as_micros() / 2);
        let forward_loss: LossProcess = match cfg.loss_model {
            LossModel::Gilbert => GilbertModel::new(cfg.p_good, cfg.p_bad, cfg.seed).into(),
            LossModel::DropTail(dt) => DropTailQueue::new(dt, cfg.seed).into(),
        };
        let mut channel: DuplexChannel<DataPayload, FeedbackMsg> = DuplexChannel::new(
            Link::new(cfg.bandwidth_bps, prop, forward_loss)
                .with_jitter(cfg.jitter, cfg.seed ^ 0x0071_7E12),
            Link::new(
                cfg.feedback_bandwidth_bps,
                prop,
                // Independent loss process for the feedback path.
                GilbertModel::new(cfg.p_good, cfg.p_bad, cfg.seed ^ 0x5EED_FEED),
            )
            .with_jitter(cfg.jitter, cfg.seed ^ 0x0071_7E13),
        );

        let mut server = Server::new(cfg, &self.source.poset);
        let n = self.source.frames_per_window();
        let cycle = SimDuration::from_micros(n as u64 * 1_000_000 / u64::from(cfg.fps));

        let mut series = WindowSeries::with_capacity(self.source.window_count());
        let mut patterns = Vec::with_capacity(self.source.window_count());
        let mut retransmissions = 0u64;
        let mut fec_recovered = 0u64;
        let mut dropped_frames = 0u64;
        let mut estimate_history = Vec::with_capacity(self.source.window_count());
        let mut timing = TimingAccumulator::with_capacity(self.source.window_count() * n);
        let frame_duration = SimDuration::from_micros(1_000_000 / u64::from(cfg.fps));
        let mut critical_lost = 0u64;
        let mut critical_total = 0u64;
        let mut client = SimClient::new();
        let mut parity = match cfg.recovery {
            Recovery::Fec { group } | Recovery::FecCritical { group } => {
                Some(ParityGrouper::new(usize::from(group), 1))
            }
            _ => None,
        };
        let fec_critical_only = matches!(cfg.recovery, Recovery::FecCritical { .. });

        for (w, ldus) in self.source.windows.iter().enumerate() {
            let w = w as u64;
            let window_start = SimTime::ZERO + SimDuration::from_micros(cycle.as_micros() * w);
            let window_end = window_start + cycle;

            // 1. Server reads feedback that has arrived by now, then plans.
            let start = Instant::now();
            for d in channel.poll_acks(window_start) {
                if let FeedbackMsg::WindowAck(fb) = d.packet.payload {
                    server.offer_ack(d.packet.seq, fb);
                }
            }
            let fed = Instant::now();
            let plan = server.plan_window(&self.source.poset);
            self.telem.feedback_and_plan(start, fed, Instant::now());
            if let Some(record) = server.last_adaptation() {
                // Project the observed bursts through the freshly planned
                // orders: the worst CLF the new plan would admit if each
                // layer's reported burst recurred at the least favourable
                // slot. Observed bursts can exceed a (shrunken) layer or
                // straddle the window boundary, hence the truncating
                // projection.
                let worst = plan.worst_projected_clf(&record.observed_bursts);
                self.telem.adaptation(w, record);
                if let Some(clf) = worst {
                    self.telem.projected_clf(clf);
                }
            }
            estimate_history.push(server.raw_estimates());

            client.open(w, ldus.len(), &plan);
            if let Some(groups) = parity.as_mut() {
                groups.reset(w);
            }

            // Sends every fragment of one scheduled frame; returns false
            // (and counts a drop) when the frame cannot depart in time.
            let mut send_frame = |channel: &mut DuplexChannel<DataPayload, FeedbackMsg>,
                                  sf: &ScheduledFrame,
                                  retransmit: bool,
                                  fec_protect: bool,
                                  offer_at: SimTime,
                                  dropped: &mut u64|
             -> bool {
                let ldu = ldus[sf.frame];
                let frags = ldu.fragment_count(cfg.packet_bytes);
                // Project the whole frame's departure (all fragments plus
                // their headers) before committing any of it.
                let total_wire = ldu.size_bytes + u32::from(frags) * cfg.header_bytes;
                let projected = channel.earliest_data_departure(offer_at, total_wire);
                if projected > window_end {
                    if !retransmit {
                        *dropped += 1;
                    }
                    return false;
                }
                // Every fragment but the last is full; the last carries
                // the rest (`Ldu::fragment_size`, computed once).
                let last_bytes = ldu.size_bytes - (u32::from(frags) - 1) * cfg.packet_bytes;
                for frag in 0..frags {
                    let payload_bytes = if frag + 1 < frags {
                        cfg.packet_bytes
                    } else {
                        last_bytes
                    };
                    // `Session::new` checked the wire limits: frame
                    // indices and payload lengths fit their u16 labels.
                    let payload_len = payload_bytes as u16;
                    channel.send_data(
                        offer_at,
                        payload_bytes + cfg.header_bytes,
                        DataPayload::Data(DataMsg {
                            fragment: Fragment {
                                window: w,
                                frame: sf.frame,
                                frag,
                                frags_total: frags,
                                layer: sf.layer,
                                layer_slot: sf.layer_slot,
                                retransmit,
                            },
                            ldu,
                            payload_len,
                        }),
                    );
                    if let Some(groups) = parity.as_mut().filter(|_| fec_protect) {
                        let member = ParityMember {
                            frame: sf.frame as u16,
                            frag,
                            frags_total: frags,
                        };
                        if let Some(p) = groups.push(member, payload_len) {
                            channel.send_data(
                                offer_at,
                                u32::from(p.shard_bytes) + cfg.header_bytes,
                                DataPayload::Parity(p),
                            );
                        }
                    }
                }
                true
            };

            // 2. Critical phase.
            let send_start = Instant::now();
            let (critical, rest) = plan.schedule.split_at(plan.critical_prefix);
            for sf in critical {
                let _ = send_frame(
                    &mut channel,
                    sf,
                    false,
                    true,
                    window_start,
                    &mut dropped_frames,
                );
            }
            let critical_done = channel.forward().busy_until().max(window_start);
            let client_sees_critical = critical_done + prop;

            // Deliver the critical phase to the client.
            for d in channel.poll_data(client_sees_critical) {
                client.deliver(d.arrived_at, &d.packet.payload);
            }

            // 3. Retransmission round (reactive recovery).
            let mut resume_at = critical_done;
            if cfg.recovery == Recovery::Retransmit {
                let missing = client.missing_critical();
                if !missing.is_empty() {
                    channel.send_ack(
                        client_sees_critical,
                        FEEDBACK_BYTES,
                        FeedbackMsg::CriticalNack { window: w, missing },
                    );
                    // The server acts on the NACK when it arrives (if it
                    // survives the reverse path). Window ACKs drained in
                    // the same poll are fed to the estimator as usual.
                    let mut nacked: Vec<usize> = Vec::new();
                    let mut nack_seen_at = client_sees_critical;
                    for d in channel.poll_acks(window_end) {
                        match d.packet.payload {
                            FeedbackMsg::CriticalNack { window, missing } if window == w => {
                                nacked = missing;
                                nack_seen_at = d.arrived_at;
                            }
                            FeedbackMsg::CriticalNack { .. } => {}
                            FeedbackMsg::WindowAck(fb) => {
                                server.offer_ack(d.packet.seq, fb);
                            }
                        }
                    }
                    resume_at = resume_at.max(nack_seen_at);
                    for frame in nacked {
                        let sf = plan
                            .schedule
                            .iter()
                            .find(|s| s.frame == frame)
                            .expect("critical frame is scheduled");
                        if send_frame(
                            &mut channel,
                            sf,
                            true,
                            false,
                            resume_at,
                            &mut dropped_frames,
                        ) {
                            retransmissions += 1;
                            self.telem.on_retransmission();
                        }
                    }
                    resume_at = channel.forward().busy_until().max(resume_at);
                }
            }

            // 4. Non-critical phase, tail-dropped on deadline.
            for sf in rest {
                let _ = send_frame(
                    &mut channel,
                    sf,
                    false,
                    !fec_critical_only,
                    resume_at,
                    &mut dropped_frames,
                );
            }
            if let Some(p) = parity.as_mut().and_then(ParityGrouper::flush) {
                // Best effort: the trailing parity ships if it fits.
                let wire = u32::from(p.shard_bytes) + cfg.header_bytes;
                if channel.earliest_data_departure(resume_at, wire) <= window_end {
                    channel.send_data(resume_at, wire, DataPayload::Parity(p));
                }
            }
            self.telem.sent(send_start);

            // 5. Window close: deliver everything sent this cycle.
            let deadline = window_end + prop;
            for d in channel.poll_data(deadline) {
                client.deliver(d.arrived_at, &d.packet.payload);
            }
            let repaired = client.close(deadline);
            fec_recovered += repaired as u64;
            timing.record_window(window_start, cycle, frame_duration, &client.completions);
            let outcome = &client.outcome;
            for f in plan.critical_frames() {
                critical_total += 1;
                critical_lost += u64::from(outcome.pattern.is_lost(f));
            }
            let metrics = ContinuityMetrics::of(&outcome.pattern);
            self.telem
                .window_metrics(w, metrics.lost(), metrics.window_len(), metrics.clf());
            series.push(metrics);
            channel.send_ack(
                deadline,
                FEEDBACK_BYTES,
                FeedbackMsg::WindowAck(outcome.feedback()),
            );
            patterns.push(outcome.pattern.clone());
        }

        let fstats = channel.forward().stats();
        SessionReport {
            series,
            packets_offered: fstats.offered,
            packets_lost: fstats.lost,
            retransmissions,
            fec_recovered,
            dropped_frames,
            estimate_history,
            bytes_offered: fstats.bytes_offered,
            timing: timing.stats(),
            patterns,
            critical_lost,
            critical_total,
        }
    }
}

/// The simulator's receive side: one [`ClientWindow`], reset for every
/// window, plus the per-frame completion times [`TimingAccumulator`]
/// reads — the window itself owns no clock — and the outcome the window
/// last closed into.
#[derive(Debug)]
pub(crate) struct SimClient {
    window: ClientWindow,
    /// When each frame of the open window finished reassembly.
    completions: Vec<Option<SimTime>>,
    /// The last closed window's outcome, refilled by every close.
    pub(crate) outcome: WindowOutcome,
    layer_sizes: Vec<u16>,
    critical: Vec<u16>,
}

impl SimClient {
    pub(crate) fn new() -> Self {
        SimClient {
            window: ClientWindow::new(0, 0, &[], &[]),
            completions: Vec::new(),
            outcome: WindowOutcome::default(),
            layer_sizes: Vec::new(),
            critical: Vec::new(),
        }
    }

    /// Re-arms the window for window `w` of `frames` frames, with the
    /// layers and critical frames of `plan`.
    pub(crate) fn open(&mut self, w: u64, frames: usize, plan: &WindowPlan) {
        // The sessions checked the wire limits: layer sizes and frame
        // indices are bounded by a window length that fits in u16.
        self.layer_sizes.clear();
        self.layer_sizes
            .extend(plan.layer_sizes().iter().map(|&n| n as u16));
        self.critical.clear();
        self.critical
            .extend(plan.critical_frames().map(|f| f as u16));
        self.window
            .reset(w, frames, &self.layer_sizes, &self.critical);
        self.completions.clear();
        self.completions.resize(frames, None);
    }

    /// Delivers one data-path packet that arrived at `at`; a frame's
    /// completion time is when its last missing fragment lands.
    pub(crate) fn deliver(&mut self, at: SimTime, payload: &DataPayload) {
        match payload {
            DataPayload::Data(d) => {
                let f = d.fragment.frame;
                if self.window.accept(d)
                    && self.completions[f].is_none()
                    && self.window.is_complete(f)
                {
                    self.completions[f] = Some(at);
                }
            }
            DataPayload::Parity(p) => {
                self.window.accept_parity(p);
            }
        }
    }

    /// Critical frames still missing a fragment (the NACK body).
    fn missing_critical(&self) -> Vec<usize> {
        let missing = self.window.missing_critical();
        missing.into_iter().map(usize::from).collect()
    }

    /// Closes the window at `at`: repairs what parity covers (frames
    /// completed only by that repair are stamped `at`), closes into
    /// `outcome` and returns the number of repaired fragments.
    pub(crate) fn close(&mut self, at: SimTime) -> usize {
        let repaired = self.window.recover_with(&mut VerdictOnly).recovered;
        for (f, done) in self.completions.iter_mut().enumerate() {
            if done.is_none() && self.window.is_complete(f) {
                *done = Some(at);
            }
        }
        self.window.close_into(&mut self.outcome);
        repaired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Ordering;
    use espread_trace::{AudioStream, Movie, MpegTrace};

    fn mpeg_source(seed: u64) -> StreamSource {
        let trace = MpegTrace::new(Movie::JurassicPark, seed);
        StreamSource::mpeg(&trace, 2, 20, false)
    }

    #[test]
    fn lossless_channel_delivers_everything() {
        let mut cfg = ProtocolConfig::paper(0.0, 1);
        cfg.p_good = 1.0;
        cfg.p_bad = 0.0;
        let report = Session::new(cfg, mpeg_source(1)).run();
        assert_eq!(report.summary().mean_clf, 0.0);
        assert_eq!(report.packets_lost, 0);
        assert_eq!(report.dropped_frames, 0);
        assert_eq!(report.series.len(), 20);
    }

    #[test]
    fn lossy_channel_produces_losses_and_feedback_adapts() {
        let cfg = ProtocolConfig::paper(0.6, 7);
        let report = Session::new(cfg, mpeg_source(1)).run();
        assert!(report.packets_lost > 0);
        assert!(report.summary().mean_clf > 0.0);
        // Adaptation must have moved the B-layer estimate off its prior.
        let first = report.estimate_history.first().unwrap();
        let last = report.estimate_history.last().unwrap();
        assert_ne!(first, last);
    }

    #[test]
    fn same_seed_same_report() {
        let run = || {
            Session::new(ProtocolConfig::paper(0.6, 33), mpeg_source(5))
                .run()
                .series
                .clf_values()
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spread_beats_in_order_on_mean_clf() {
        // The paper's core claim, on a common channel realisation; CMT's
        // IBO interleaver beats the unscrambled order too.
        let mean_clf = |ordering: Ordering| -> f64 {
            [11u64, 22, 33, 44, 55]
                .into_iter()
                .map(|seed| {
                    let cfg = ProtocolConfig::paper(0.6, seed).with_ordering(ordering);
                    Session::new(cfg, mpeg_source(2)).run().summary().mean_clf
                })
                .sum()
        };
        let spread_mean = mean_clf(Ordering::spread());
        let ibo_mean = mean_clf(Ordering::Ibo);
        let inorder_mean = mean_clf(Ordering::InOrder);
        assert!(
            spread_mean < inorder_mean,
            "spread {spread_mean} vs in-order {inorder_mean}"
        );
        assert!(
            ibo_mean < inorder_mean,
            "IBO {ibo_mean} vs in-order {inorder_mean}"
        );
    }

    #[test]
    fn interleavers_beat_in_order_and_track_each_other() {
        // §4.4 at the adaptation ablation's setting (Pbad 0.7, W = 2,
        // 80 windows, seeds 100..110): both interleavers crush the
        // unscrambled order, and spread stays within 15% of IBO on the
        // stochastic channel (the single-burst comparison is exact in
        // `espread_core::ibo`'s tests).
        let trace = MpegTrace::new(Movie::JurassicPark, 1);
        let src = StreamSource::mpeg(&trace, 2, 80, false);
        let mean_clf = |ordering: Ordering| -> f64 {
            (100u64..110)
                .map(|seed| {
                    let cfg = ProtocolConfig::paper(0.7, seed).with_ordering(ordering);
                    Session::new(cfg, src.clone()).run().summary().mean_clf
                })
                .sum::<f64>()
                / 10.0
        };
        let spread = mean_clf(Ordering::spread());
        let ibo = mean_clf(Ordering::Ibo);
        let in_order = mean_clf(Ordering::InOrder);
        assert!(spread < in_order, "spread {spread} vs in-order {in_order}");
        assert!(ibo < in_order, "IBO {ibo} vs in-order {in_order}");
        assert!(spread <= ibo * 1.15, "spread {spread} vs IBO {ibo}");
    }

    #[test]
    fn retransmission_reduces_critical_losses() {
        let src = mpeg_source(3);
        let none = Session::new(ProtocolConfig::paper(0.7, 9), src.clone()).run();
        let retx = Session::new(
            ProtocolConfig::paper(0.7, 9).with_recovery(Recovery::Retransmit),
            src,
        )
        .run();
        assert!(retx.retransmissions > 0);
        assert!(retx.summary().mean_alf <= none.summary().mean_alf);
    }

    #[test]
    fn fec_recovers_fragments() {
        let src = mpeg_source(4);
        let fec = Session::new(
            ProtocolConfig::paper(0.6, 13).with_recovery(Recovery::Fec { group: 4 }),
            src.clone(),
        )
        .run();
        let none = Session::new(ProtocolConfig::paper(0.6, 13), src).run();
        assert!(fec.fec_recovered > 0);
        assert!(fec.summary().mean_alf <= none.summary().mean_alf);
        // FEC costs bandwidth: more packets offered.
        assert!(fec.packets_offered > none.packets_offered);
    }

    #[test]
    fn retransmission_suppresses_anchor_loss_specifically() {
        let src = mpeg_source(3);
        let none = Session::new(ProtocolConfig::paper(0.7, 23), src.clone()).run();
        let retx = Session::new(
            ProtocolConfig::paper(0.7, 23).with_recovery(Recovery::Retransmit),
            src,
        )
        .run();
        assert!(none.critical_total > 0);
        assert!(
            retx.critical_loss_rate() < none.critical_loss_rate(),
            "retransmit {} !< none {}",
            retx.critical_loss_rate(),
            none.critical_loss_rate()
        );
    }

    #[test]
    fn critical_only_fec_cheaper_than_full_fec() {
        let src = mpeg_source(4);
        let full = Session::new(
            ProtocolConfig::paper(0.6, 13).with_recovery(Recovery::Fec { group: 4 }),
            src.clone(),
        )
        .run();
        let critical = Session::new(
            ProtocolConfig::paper(0.6, 13).with_recovery(Recovery::FecCritical { group: 4 }),
            src.clone(),
        )
        .run();
        let none = Session::new(ProtocolConfig::paper(0.6, 13), src).run();
        // Critical-only parity costs less bandwidth than full FEC but more
        // than none, and still repairs some critical fragments.
        assert!(critical.bytes_offered < full.bytes_offered);
        assert!(critical.bytes_offered > none.bytes_offered);
        assert!(critical.fec_recovered > 0);
    }

    #[test]
    fn low_bandwidth_drops_frames() {
        let cfg = ProtocolConfig::paper(0.0, 1).with_bandwidth(40_000);
        let report = Session::new(cfg, mpeg_source(6)).run();
        assert!(report.dropped_frames > 0);
        assert!(report.summary().mean_alf > 0.0);
    }

    #[test]
    fn heavy_jitter_tolerated() {
        // 40 ms of jitter (≫ the 23 ms RTT) reorders data and ACKs; the
        // sequence-numbered feedback keeps the session sane.
        let cfg = ProtocolConfig::paper(0.6, 19).with_jitter(SimDuration::from_millis(40));
        let report = Session::new(cfg, mpeg_source(2)).run();
        assert_eq!(report.series.len(), 20);
        for m in report.series.windows() {
            assert!(m.clf() <= m.window_len());
        }
        // Adaptation still happened.
        assert_ne!(
            report.estimate_history.first(),
            report.estimate_history.last()
        );
    }

    #[test]
    fn audio_stream_sessions_work() {
        let src = StreamSource::audio(AudioStream::sun_audio(), 30, 15);
        let report = Session::new(ProtocolConfig::paper(0.6, 21), src).run();
        assert_eq!(report.series.len(), 15);
        // Audio is one antichain layer: estimates history has width 1.
        assert_eq!(report.estimate_history[0].len(), 1);
    }

    #[test]
    #[should_panic(expected = "64 KiB")]
    fn oversized_packets_rejected_like_the_wire() {
        let cfg = ProtocolConfig {
            packet_bytes: 100_000,
            ..ProtocolConfig::paper(0.6, 1)
        };
        let _ = Session::new(cfg, mpeg_source(1));
    }

    #[test]
    #[should_panic(expected = "invalid protocol configuration")]
    fn invalid_config_rejected() {
        let mut cfg = ProtocolConfig::paper(0.6, 1);
        cfg.packet_bytes = 0;
        let _ = Session::new(cfg, mpeg_source(1));
    }
}
