//! End-to-end streaming sessions over the simulated network.
//!
//! A [`Session`] carries one or more streams on one [`DuplexChannel`].
//! The paper's target applications ("Internet phone, video
//! conferencing") carry audio and video on one path, where one burst
//! hits both; a single stream is the one-element case. Each stream has
//! its own [`crate::server::Server`] and per-window client, and every
//! packet names its stream's index. The session executes the §4.2
//! protocol window by window:
//!
//! 1. at each window start every server folds in the freshest ACK and
//!    plans the window (layered, permuted per current estimates);
//! 2. each stream is sent in turn, in the order the streams were added.
//!    The **critical phase** sends anchor-layer packets; with
//!    [`Recovery::Retransmit`] the client NACKs missing critical frames
//!    one propagation later and the server retransmits while the buffer
//!    cycle allows;
//! 3. the remaining layers are sent, **dropping frames from the schedule
//!    tail** that cannot depart before the cycle ends (CMT-style
//!    prioritised frame dropping);
//! 4. at window end each client applies FEC recovery, derives the
//!    playout loss pattern and its [`ContinuityMetrics`], and ACKs
//!    per-layer burst observations (sequence-numbered; out-of-order ACKs
//!    are ignored).
//!
//! The receive side is the transport-neutral [`ClientWindow`] the UDP
//! client drives too; the simulator carries no payload bytes, so it
//! repairs with [`VerdictOnly`].
//!
//! Both directions ride lossy links; the same seed reproduces the same
//! loss realisation, so schemes can be compared on identical channels.

use std::sync::Arc;
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
use crate::telem::SessionTelem;
use crate::timing::{TimingAccumulator, TimingStats};

/// Wire size of a feedback (ACK/NACK) packet in bytes.
const FEEDBACK_BYTES: u32 = 64;

/// The simulated channel: every payload carries its stream's index.
type SimChannel = DuplexChannel<(usize, DataPayload), (usize, FeedbackMsg)>;

/// Result of one stream of a session.
#[derive(Debug, Clone, Default)]
pub struct SessionReport {
    /// Per-window continuity metrics, in window order.
    pub series: WindowSeries,
    /// Data packets offered to the (shared) forward link.
    pub packets_offered: u64,
    /// Data packets lost on the (shared) forward link.
    pub packets_lost: u64,
    /// Frames retransmitted (critical recovery).
    pub retransmissions: u64,
    /// Fragments repaired by FEC.
    pub fec_recovered: u64,
    /// Frames dropped at the sender for lack of cycle time.
    pub dropped_frames: u64,
    /// Per-window per-layer raw burst estimates (before rounding).
    pub estimate_history: Vec<Vec<f64>>,
    /// Bytes offered to the (shared) forward link, headers included.
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

/// One end-to-end streaming session: one or more streams on one channel.
#[derive(Debug)]
pub struct Session {
    config: ProtocolConfig,
    /// The streams in the order they were added; all share the first's
    /// buffer cycle and window count.
    sources: Vec<StreamSource>,
    telem: SessionTelem,
}

impl Session {
    /// Creates a session carrying `source`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ProtocolConfig::validate`],
    /// the source's frame rate is zero, or the session shape exceeds
    /// [`check_wire_limits`].
    pub fn new(config: ProtocolConfig, source: StreamSource) -> Self {
        if let Err(e) = config
            .validate()
            .and_then(|()| check_stream(&config, &source))
        {
            panic!("invalid protocol configuration: {e}");
        }
        Session {
            config,
            sources: vec![source],
            telem: SessionTelem::default_global(),
        }
    }

    /// Adds a stream to the channel; every cycle sends it after the
    /// streams added before it.
    ///
    /// # Panics
    ///
    /// Panics if `source` fails the checks of [`Session::new`], or its
    /// buffer cycle (`frames / fps`) or window count differs from the
    /// first stream's.
    pub fn with_stream(mut self, source: StreamSource) -> Self {
        if let Err(e) = check_stream(&self.config, &source) {
            panic!("invalid protocol configuration: {e}");
        }
        let first = &self.sources[0];
        let (cycle, added) = (cycle_micros(first), cycle_micros(&source));
        assert_eq!(
            cycle, added,
            "buffer cycles must align ({cycle} vs {added} µs)"
        );
        assert_eq!(
            first.window_count(),
            source.window_count(),
            "streams must cover the same number of windows"
        );
        self.sources.push(source);
        self
    }

    /// Routes this session's telemetry (phase spans, per-window ALF/CLF
    /// gauges, adaptation events) to `registry` instead of the process
    /// global — used by tests to observe one session in isolation.
    pub fn with_telemetry(mut self, registry: espread_telemetry::Registry) -> Self {
        self.telem = SessionTelem::new(registry);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Runs the whole session and reports the first stream.
    pub fn run(&self) -> SessionReport {
        self.run_streams().swap_remove(0)
    }

    /// Runs the whole session: one report per stream, in the order the
    /// streams were added. `packets_offered`, `packets_lost` and
    /// `bytes_offered` describe the shared forward link in every report.
    pub fn run_streams(&self) -> Vec<SessionReport> {
        let cfg = &self.config;
        let prop = SimDuration::from_micros(cfg.rtt.as_micros() / 2);
        let forward_loss: LossProcess = match cfg.loss_model {
            LossModel::Gilbert => GilbertModel::new(cfg.p_good, cfg.p_bad, cfg.seed).into(),
            LossModel::DropTail(dt) => DropTailQueue::new(dt, cfg.seed).into(),
        };
        let mut channel: SimChannel = DuplexChannel::new(
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

        let cycle = SimDuration::from_micros(cycle_micros(&self.sources[0]));
        let mut streams: Vec<StreamRun> = self
            .sources
            .iter()
            .enumerate()
            .map(|(index, source)| StreamRun::new(cfg, index, source))
            .collect();
        // The open window's plan of every stream, refilled in place.
        let mut plans: Vec<Arc<WindowPlan>> = Vec::with_capacity(streams.len());
        let fec_critical_only = matches!(cfg.recovery, Recovery::FecCritical { .. });

        for w in 0..self.sources[0].window_count() as u64 {
            let window_start = SimTime::ZERO + SimDuration::from_micros(cycle.as_micros() * w);
            let window_end = window_start + cycle;

            // 1. Servers read feedback that has arrived by now, then plan.
            let start = Instant::now();
            for d in channel.poll_acks(window_start) {
                if let (i, FeedbackMsg::WindowAck(fb)) = d.packet.payload {
                    streams[i].server.offer_ack(d.packet.seq, fb);
                }
            }
            let fed = Instant::now();
            plans.clear();
            plans.extend(
                streams
                    .iter_mut()
                    .map(|s| s.server.plan_window(&s.source.poset)),
            );
            self.telem.feedback_and_plan(start, fed, Instant::now());
            for (s, plan) in streams.iter_mut().zip(&plans) {
                if let Some(record) = s.server.last_adaptation() {
                    // Project the observed bursts through the freshly
                    // planned orders: the worst CLF the new plan would
                    // admit if each layer's reported burst recurred at the
                    // least favourable slot. Observed bursts can exceed a
                    // (shrunken) layer or straddle the window boundary,
                    // hence the truncating projection.
                    let worst = plan.worst_projected_clf(&record.observed_bursts);
                    self.telem.adaptation(w, record);
                    if let Some(clf) = worst {
                        self.telem.projected_clf(clf);
                    }
                }
                s.report.estimate_history.push(s.server.raw_estimates());
                s.client.open(w, s.source.frames_per_window(), plan);
                if let Some(groups) = s.parity.as_mut() {
                    groups.reset(w);
                }
            }

            // Sends every fragment of one scheduled frame of stream `s`;
            // returns false (and counts a drop) when the frame cannot
            // depart in time.
            let send_frame = |channel: &mut SimChannel,
                              s: &mut StreamRun,
                              sf: &ScheduledFrame,
                              retransmit: bool,
                              fec_protect: bool,
                              offer_at: SimTime|
             -> bool {
                let ldu = s.source.windows[w as usize][sf.frame];
                let frags = ldu.fragment_count(cfg.packet_bytes);
                // Project the whole frame's departure (all fragments plus
                // their headers) before committing any of it.
                let total_wire = ldu.size_bytes + u32::from(frags) * cfg.header_bytes;
                let projected = channel.earliest_data_departure(offer_at, total_wire);
                if projected > window_end {
                    if !retransmit {
                        s.report.dropped_frames += 1;
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
                    let msg = DataMsg {
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
                    };
                    let wire = payload_bytes + cfg.header_bytes;
                    channel.send_data(offer_at, wire, (s.index, DataPayload::Data(msg)));
                    if let Some(groups) = s.parity.as_mut().filter(|_| fec_protect) {
                        let member = ParityMember {
                            frame: sf.frame as u16,
                            frag,
                            frags_total: frags,
                        };
                        if let Some(p) = groups.push(member, payload_len) {
                            channel.send_data(
                                offer_at,
                                u32::from(p.shard_bytes) + cfg.header_bytes,
                                (s.index, DataPayload::Parity(p)),
                            );
                        }
                    }
                }
                true
            };

            // Each stream in turn, in the order the streams were added.
            let send_start = Instant::now();
            for (i, plan) in plans.iter().enumerate() {
                // 2. Critical phase.
                let (critical, rest) = plan.schedule.split_at(plan.critical_prefix);
                for sf in critical {
                    send_frame(&mut channel, &mut streams[i], sf, false, true, window_start);
                }
                let critical_done = channel.forward().busy_until().max(window_start);
                let client_sees_critical = critical_done + prop;

                // Deliver the critical phase to the clients.
                deliver(&mut channel, &mut streams, client_sees_critical);

                // 3. Retransmission round (reactive recovery).
                let mut resume_at = critical_done;
                if cfg.recovery == Recovery::Retransmit {
                    let missing = streams[i].client.missing_critical();
                    if !missing.is_empty() {
                        channel.send_ack(
                            client_sees_critical,
                            FEEDBACK_BYTES,
                            (i, FeedbackMsg::CriticalNack { window: w, missing }),
                        );
                        // The server acts on the NACK when it arrives (if
                        // it survives the reverse path). Window ACKs
                        // drained in the same poll are fed to the
                        // estimators as usual.
                        let mut nacked: Vec<usize> = Vec::new();
                        let mut nack_seen_at = client_sees_critical;
                        for d in channel.poll_acks(window_end) {
                            match d.packet.payload {
                                (j, FeedbackMsg::CriticalNack { window, missing })
                                    if j == i && window == w =>
                                {
                                    nacked = missing;
                                    nack_seen_at = d.arrived_at;
                                }
                                (_, FeedbackMsg::CriticalNack { .. }) => {}
                                (j, FeedbackMsg::WindowAck(fb)) => {
                                    streams[j].server.offer_ack(d.packet.seq, fb);
                                }
                            }
                        }
                        resume_at = resume_at.max(nack_seen_at);
                        let s = &mut streams[i];
                        for frame in nacked {
                            let sf = plan
                                .schedule
                                .iter()
                                .find(|sf| sf.frame == frame)
                                .expect("critical frame is scheduled");
                            if send_frame(&mut channel, s, sf, true, false, resume_at) {
                                s.report.retransmissions += 1;
                                self.telem.on_retransmission();
                            }
                        }
                        resume_at = channel.forward().busy_until().max(resume_at);
                    }
                }

                // 4. Non-critical phase, tail-dropped on deadline.
                let s = &mut streams[i];
                for sf in rest {
                    send_frame(&mut channel, s, sf, false, !fec_critical_only, resume_at);
                }
                if let Some(p) = s.parity.as_mut().and_then(ParityGrouper::flush) {
                    // Best effort: the trailing parity ships if it fits.
                    let wire = u32::from(p.shard_bytes) + cfg.header_bytes;
                    if channel.earliest_data_departure(resume_at, wire) <= window_end {
                        channel.send_data(resume_at, wire, (s.index, DataPayload::Parity(p)));
                    }
                }
            }
            self.telem.sent(send_start);

            // 5. Window close: deliver everything sent this cycle.
            let deadline = window_end + prop;
            deliver(&mut channel, &mut streams, deadline);
            for (s, plan) in streams.iter_mut().zip(&plans) {
                let report = &mut s.report;
                report.fec_recovered += s.client.close(deadline) as u64;
                s.timing.record_window(
                    window_start,
                    cycle,
                    s.frame_duration,
                    &s.client.completions,
                );
                let outcome = &s.client.outcome;
                for f in plan.critical_frames() {
                    report.critical_total += 1;
                    report.critical_lost += u64::from(outcome.pattern.is_lost(f));
                }
                let metrics = ContinuityMetrics::of(&outcome.pattern);
                self.telem
                    .window_metrics(w, metrics.lost(), metrics.window_len(), metrics.clf());
                report.series.push(metrics);
                channel.send_ack(
                    deadline,
                    FEEDBACK_BYTES,
                    (s.index, FeedbackMsg::WindowAck(outcome.feedback())),
                );
                report.patterns.push(outcome.pattern.clone());
            }
        }

        let fstats = channel.forward().stats();
        streams
            .into_iter()
            .map(|s| SessionReport {
                packets_offered: fstats.offered,
                packets_lost: fstats.lost,
                bytes_offered: fstats.bytes_offered,
                timing: s.timing.stats(),
                ..s.report
            })
            .collect()
    }
}

/// The checks every stream passes: a positive frame rate and the wire's
/// labels.
fn check_stream(config: &ProtocolConfig, source: &StreamSource) -> Result<(), String> {
    if source.fps == 0 {
        return Err("frame rate must be positive".into());
    }
    check_wire_limits(source.frames_per_window(), config.packet_bytes)
}

/// A stream's buffer cycle in µs: one window of frames at its own rate.
fn cycle_micros(source: &StreamSource) -> u64 {
    source.frames_per_window() as u64 * 1_000_000 / u64::from(source.fps)
}

/// Delivers every data packet arrived by `until` to its stream's client.
fn deliver(channel: &mut SimChannel, streams: &mut [StreamRun], until: SimTime) {
    for d in channel.poll_data(until) {
        let (i, payload) = &d.packet.payload;
        streams[*i].client.deliver(d.arrived_at, payload);
    }
}

/// One stream of a running session: its server and client, and its
/// report under construction (the link-wide counters and the timing
/// statistics are filled in at the end).
struct StreamRun<'a> {
    /// The stream's index on the channel.
    index: usize,
    source: &'a StreamSource,
    server: Server,
    client: SimClient,
    parity: Option<ParityGrouper>,
    frame_duration: SimDuration,
    timing: TimingAccumulator,
    report: SessionReport,
}

impl<'a> StreamRun<'a> {
    fn new(cfg: &ProtocolConfig, index: usize, source: &'a StreamSource) -> Self {
        let windows = source.window_count();
        StreamRun {
            index,
            source,
            server: Server::new(cfg, &source.poset),
            client: SimClient::new(),
            parity: match cfg.recovery {
                Recovery::Fec { group } | Recovery::FecCritical { group } => {
                    Some(ParityGrouper::new(usize::from(group), 1))
                }
                _ => None,
            },
            frame_duration: SimDuration::from_micros(1_000_000 / u64::from(source.fps)),
            timing: TimingAccumulator::with_capacity(windows * source.frames_per_window()),
            report: SessionReport {
                series: WindowSeries::with_capacity(windows),
                estimate_history: Vec::with_capacity(windows),
                patterns: Vec::with_capacity(windows),
                ..SessionReport::default()
            },
        }
    }
}

/// The simulator's receive side: one [`ClientWindow`], reset for every
/// window, plus the per-frame completion times [`TimingAccumulator`]
/// reads — the window itself owns no clock — and the outcome the window
/// last closed into.
#[derive(Debug)]
struct SimClient {
    window: ClientWindow,
    /// When each frame of the open window finished reassembly.
    completions: Vec<Option<SimTime>>,
    /// The last closed window's outcome, refilled by every close.
    outcome: WindowOutcome,
    layer_sizes: Vec<u16>,
    critical: Vec<u16>,
}

impl SimClient {
    fn new() -> Self {
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
    fn open(&mut self, w: u64, frames: usize, plan: &WindowPlan) {
        // The session checked the wire limits: layer sizes and frame
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
    fn deliver(&mut self, at: SimTime, payload: &DataPayload) {
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
    fn close(&mut self, at: SimTime) -> usize {
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

    /// Aligned one-second cycles: 30 SunAudio LDUs, then 2 GOPs of video.
    fn av_session(cfg: ProtocolConfig, windows: usize) -> Session {
        let trace = MpegTrace::new(Movie::JurassicPark, 1);
        let audio = StreamSource::audio(AudioStream::sun_audio(), 30, windows);
        Session::new(cfg, audio).with_stream(StreamSource::mpeg(&trace, 2, windows, false))
    }

    #[test]
    fn lossless_channel_delivers_everything() {
        // Alone, or sharing the channel with audio.
        let mut cfg = ProtocolConfig::paper(0.0, 1);
        cfg.p_good = 1.0;
        let alone = Session::new(cfg.clone(), mpeg_source(1)).run_streams();
        for r in alone.iter().chain(&av_session(cfg, 20).run_streams()) {
            assert_eq!(r.summary().mean_clf, 0.0);
            assert_eq!(r.packets_lost, 0);
            assert_eq!(r.dropped_frames, 0);
            assert_eq!(r.series.len(), 20);
        }
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
            av_session(ProtocolConfig::paper(0.6, 33), 10)
                .run_streams()
                .iter()
                .map(|r| r.series.clf_values().collect::<Vec<_>>())
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
    fn the_cycle_is_the_sources() {
        // 30 SunAudio LDUs a second: one window of 30 × (266 + 28) bytes
        // needs 1.1 s of a 64 kbps link, so a 1 s cycle sends 27 of them.
        let mut cfg = ProtocolConfig::paper(0.0, 1).with_bandwidth(64_000);
        cfg.p_good = 1.0;
        let src = StreamSource::audio(AudioStream::sun_audio(), 30, 10);
        let report = Session::new(cfg, src).run();
        assert_eq!(report.dropped_frames, 30);
        assert_eq!(report.packets_lost, 0);
    }

    #[test]
    #[should_panic(expected = "frame rate must be positive")]
    fn zero_frame_rate_rejected() {
        let src = StreamSource {
            fps: 0,
            ..mpeg_source(1)
        };
        let _ = Session::new(ProtocolConfig::paper(0.6, 1), src);
    }

    #[test]
    fn shared_bursts_hit_both_streams_and_spreading_helps_both() {
        let mut spread = [0.0; 2];
        let mut plain = [0.0; 2];
        for seed in [7u64, 8, 9, 10] {
            let cfg = ProtocolConfig::paper(0.7, seed);
            let arms = [
                (&mut spread, cfg.clone()),
                (&mut plain, cfg.with_ordering(Ordering::InOrder)),
            ];
            for (sums, cfg) in arms {
                for (sum, r) in sums.iter_mut().zip(av_session(cfg, 40).run_streams()) {
                    *sum += r.summary().mean_clf;
                }
            }
        }
        for (s, p) in spread.into_iter().zip(plain) {
            assert!(s < p, "spread {s} vs in-order {p}");
        }
    }

    #[test]
    fn retransmission_serves_every_stream() {
        // Two video streams on one link: each NACKs its own critical
        // losses and its own server retransmits them.
        let session = |recovery: Recovery| {
            let cfg = ProtocolConfig::paper(0.7, 9)
                .with_recovery(recovery)
                .with_bandwidth(2_400_000);
            let second = MpegTrace::new(Movie::StarWars, 1);
            Session::new(cfg, mpeg_source(3))
                .with_stream(StreamSource::mpeg(&second, 2, 20, false))
                .run_streams()
        };
        let (none, retx) = (session(Recovery::None), session(Recovery::Retransmit));
        for (n, r) in none.iter().zip(&retx) {
            assert!(r.retransmissions > 0);
            assert!(
                r.critical_lost < n.critical_lost,
                "retransmit {} !< none {}",
                r.critical_lost,
                n.critical_lost
            );
        }
    }

    #[test]
    #[should_panic(expected = "cycles must align")]
    fn misaligned_cycles_rejected() {
        let audio = StreamSource::audio(AudioStream::sun_audio(), 7, 3);
        let _ = Session::new(ProtocolConfig::paper(0.6, 1), mpeg_source(1)).with_stream(audio);
    }

    #[test]
    #[should_panic(expected = "same number of windows")]
    fn misaligned_window_counts_rejected() {
        let audio = StreamSource::audio(AudioStream::sun_audio(), 30, 3);
        let _ = Session::new(ProtocolConfig::paper(0.6, 1), mpeg_source(1)).with_stream(audio);
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
