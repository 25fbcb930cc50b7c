//! Multiplexed audio + video sessions over one channel.
//!
//! The paper motivates error spreading with "Internet phone, video
//! conferencing, distance learning" — applications that carry an audio
//! and a video stream *together* on one path, where a network burst hits
//! both. [`MuxSession`] streams two sources over a shared link, spreading
//! each stream within its own windows: audio (an antichain, the stricter
//! perceptual deadline) is sent first in each cycle, then the video's
//! layered order.
//!
//! Recovery schemes are deliberately out of scope here (compose them per
//! stream with [`Session`](crate::session::Session) if needed); the mux
//! demonstrates that spreading protects both media simultaneously even
//! though they share one loss process.

use espread_netsim::{DuplexChannel, GilbertModel, Link, SimDuration, SimTime};
use espread_qos::{ContinuityMetrics, WindowSeries};

use crate::client::{DataMsg, DataPayload};
use crate::config::{check_wire_limits, ProtocolConfig, Recovery};
use crate::feedback::FeedbackMsg;
use crate::layers::WindowPlan;
use crate::server::Server;
use crate::session::SimClient;
use crate::source::StreamSource;

/// Which stream a mux packet belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamId {
    /// The audio stream (sent first each cycle).
    Audio,
    /// The video stream.
    Video,
}

/// Per-stream results of a mux session.
#[derive(Debug, Clone)]
pub struct MuxReport {
    /// Audio per-window continuity.
    pub audio: WindowSeries,
    /// Video per-window continuity.
    pub video: WindowSeries,
    /// Packets offered / lost on the shared forward link.
    pub packets_offered: u64,
    /// Packets lost on the shared forward link.
    pub packets_lost: u64,
}

/// An audio + video session sharing one lossy channel.
#[derive(Debug)]
pub struct MuxSession {
    config: ProtocolConfig,
    audio: StreamSource,
    video: StreamSource,
}

impl MuxSession {
    /// Creates a mux session. Both sources must span the same buffer-cycle
    /// duration (`frames / fps`), so their windows stay aligned.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, either stream exceeds
    /// [`check_wire_limits`], the configuration uses a recovery scheme
    /// (unsupported in the mux), the cycle durations differ, or the window
    /// counts differ.
    pub fn new(config: ProtocolConfig, audio: StreamSource, video: StreamSource) -> Self {
        if let Err(e) = config.validate().and_then(|()| {
            check_wire_limits(audio.frames_per_window(), config.packet_bytes)?;
            check_wire_limits(video.frames_per_window(), config.packet_bytes)
        }) {
            panic!("invalid protocol configuration: {e}");
        }
        assert!(
            config.recovery == Recovery::None,
            "mux sessions do not support recovery schemes"
        );
        let audio_cycle = audio.frames_per_window() as u64 * 1_000_000 / u64::from(audio.fps);
        let video_cycle = video.frames_per_window() as u64 * 1_000_000 / u64::from(video.fps);
        assert_eq!(
            audio_cycle, video_cycle,
            "audio and video buffer cycles must align ({audio_cycle} vs {video_cycle} µs)"
        );
        assert_eq!(
            audio.window_count(),
            video.window_count(),
            "streams must cover the same number of windows"
        );
        MuxSession {
            config,
            audio,
            video,
        }
    }

    /// Runs the multiplexed stream.
    pub fn run(&self) -> MuxReport {
        let cfg = &self.config;
        let prop = SimDuration::from_micros(cfg.rtt.as_micros() / 2);
        let mut channel: DuplexChannel<(StreamId, DataPayload), (StreamId, FeedbackMsg)> =
            DuplexChannel::new(
                Link::new(
                    cfg.bandwidth_bps,
                    prop,
                    GilbertModel::new(cfg.p_good, cfg.p_bad, cfg.seed),
                ),
                Link::new(
                    cfg.feedback_bandwidth_bps,
                    prop,
                    GilbertModel::new(cfg.p_good, cfg.p_bad, cfg.seed ^ 0x5EED_FEED),
                ),
            );

        let mut audio_server = Server::new(cfg, &self.audio.poset);
        let mut video_server = Server::new(cfg, &self.video.poset);
        let cycle = SimDuration::from_micros(
            self.video.frames_per_window() as u64 * 1_000_000 / u64::from(self.video.fps),
        );

        let mut audio_series = WindowSeries::new();
        let mut video_series = WindowSeries::new();
        let mut audio_client = SimClient::new();
        let mut video_client = SimClient::new();

        for w in 0..self.video.window_count() {
            let window_start =
                SimTime::ZERO + SimDuration::from_micros(cycle.as_micros() * w as u64);
            let window_end = window_start + cycle;
            let deadline = window_end + prop;

            // Fold in whatever feedback has arrived.
            for d in channel.poll_acks(window_start) {
                let (stream, msg) = d.packet.payload;
                if let FeedbackMsg::WindowAck(fb) = msg {
                    match stream {
                        StreamId::Audio => audio_server.offer_ack(d.packet.seq, fb),
                        StreamId::Video => video_server.offer_ack(d.packet.seq, fb),
                    };
                }
            }

            let audio_plan = audio_server.plan_window(&self.audio.poset);
            let video_plan = video_server.plan_window(&self.video.poset);
            let audio_ldus = &self.audio.windows[w];
            let video_ldus = &self.video.windows[w];

            audio_client.open(w as u64, audio_ldus.len(), &audio_plan);
            video_client.open(w as u64, video_ldus.len(), &video_plan);

            // Audio first (tighter perceptual budget), then video.
            let mut send_plan = |stream: StreamId, plan: &WindowPlan, ldus: &[crate::Ldu]| {
                for sf in &plan.schedule {
                    let ldu = ldus[sf.frame];
                    let frags = ldu.fragment_count(cfg.packet_bytes);
                    let total_wire = ldu.size_bytes + u32::from(frags) * cfg.header_bytes;
                    if channel.earliest_data_departure(window_start, total_wire) > window_end {
                        continue; // dropped for lack of cycle time
                    }
                    for frag in 0..frags {
                        let payload = ldu.fragment_size(cfg.packet_bytes, frag);
                        let msg = DataMsg {
                            fragment: crate::Fragment {
                                window: w as u64,
                                frame: sf.frame,
                                frag,
                                frags_total: frags,
                                layer: sf.layer,
                                layer_slot: sf.layer_slot,
                                retransmit: false,
                            },
                            ldu,
                            // `new` checked the wire limits.
                            payload_len: payload as u16,
                        };
                        channel.send_data(
                            window_start,
                            payload + cfg.header_bytes,
                            (stream, DataPayload::Data(msg)),
                        );
                    }
                }
            };
            send_plan(StreamId::Audio, &audio_plan, audio_ldus);
            send_plan(StreamId::Video, &video_plan, video_ldus);

            for d in channel.poll_data(deadline) {
                let (stream, payload) = d.packet.payload;
                match stream {
                    StreamId::Audio => audio_client.deliver(d.arrived_at, &payload),
                    StreamId::Video => video_client.deliver(d.arrived_at, &payload),
                }
            }

            audio_client.close(deadline);
            video_client.close(deadline);
            let (audio_outcome, video_outcome) = (&audio_client.outcome, &video_client.outcome);
            audio_series.push(ContinuityMetrics::of(&audio_outcome.pattern));
            video_series.push(ContinuityMetrics::of(&video_outcome.pattern));
            channel.send_ack(
                deadline,
                64,
                (
                    StreamId::Audio,
                    FeedbackMsg::WindowAck(audio_outcome.feedback()),
                ),
            );
            channel.send_ack(
                deadline,
                64,
                (
                    StreamId::Video,
                    FeedbackMsg::WindowAck(video_outcome.feedback()),
                ),
            );
        }

        let stats = channel.forward().stats();
        MuxReport {
            audio: audio_series,
            video: video_series,
            packets_offered: stats.offered,
            packets_lost: stats.lost,
        }
    }
}

/// Builds aligned audio and video sources for a mux session: `windows`
/// cycles of `w` GOPs of video plus the matching quantity of SunAudio.
pub fn aligned_av_sources(
    trace: &espread_trace::MpegTrace,
    w: usize,
    windows: usize,
    open_gop: bool,
) -> (StreamSource, StreamSource) {
    let video = StreamSource::mpeg(trace, w, windows, open_gop);
    let cycle_secs = video.frames_per_window() as f64 / f64::from(video.fps);
    let audio_ldus = (cycle_secs * 30.0).round() as usize;
    let audio = StreamSource::audio(espread_trace::AudioStream::sun_audio(), audio_ldus, windows);
    (audio, video)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Ordering;
    use espread_trace::{Movie, MpegTrace};

    fn sources(windows: usize) -> (StreamSource, StreamSource) {
        let trace = MpegTrace::new(Movie::JurassicPark, 1);
        aligned_av_sources(&trace, 2, windows, false)
    }

    #[test]
    fn aligned_sources_share_cycle() {
        let (audio, video) = sources(5);
        assert_eq!(video.frames_per_window(), 24); // 1 s at 24 fps
        assert_eq!(audio.frames_per_window(), 30); // 1 s at 30 LDU/s
        assert_eq!(audio.window_count(), video.window_count());
    }

    #[test]
    fn lossless_mux_is_clean() {
        let (audio, video) = sources(5);
        let mut cfg = ProtocolConfig::paper(0.0, 1);
        cfg.p_good = 1.0;
        cfg.p_bad = 0.0;
        let report = MuxSession::new(cfg, audio, video).run();
        assert_eq!(report.audio.summary().mean_clf, 0.0);
        assert_eq!(report.video.summary().mean_clf, 0.0);
        assert_eq!(report.packets_lost, 0);
    }

    #[test]
    fn shared_bursts_hit_both_streams_and_spreading_helps_both() {
        let mut spread_audio = 0.0;
        let mut spread_video = 0.0;
        let mut plain_audio = 0.0;
        let mut plain_video = 0.0;
        for seed in [7u64, 8, 9, 10] {
            let (audio, video) = sources(40);
            let spread = MuxSession::new(
                ProtocolConfig::paper(0.7, seed),
                audio.clone(),
                video.clone(),
            )
            .run();
            let plain = MuxSession::new(
                ProtocolConfig::paper(0.7, seed).with_ordering(Ordering::InOrder),
                audio,
                video,
            )
            .run();
            spread_audio += spread.audio.summary().mean_clf;
            spread_video += spread.video.summary().mean_clf;
            plain_audio += plain.audio.summary().mean_clf;
            plain_video += plain.video.summary().mean_clf;
        }
        assert!(
            spread_audio < plain_audio,
            "{spread_audio} vs {plain_audio}"
        );
        assert!(
            spread_video < plain_video,
            "{spread_video} vs {plain_video}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let (audio, video) = sources(10);
            let r = MuxSession::new(ProtocolConfig::paper(0.6, 5), audio, video).run();
            (
                r.audio.clf_values().collect::<Vec<_>>(),
                r.video.clf_values().collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "do not support recovery")]
    fn recovery_rejected() {
        let (audio, video) = sources(2);
        let _ = MuxSession::new(
            ProtocolConfig::paper(0.6, 1).with_recovery(Recovery::Retransmit),
            audio,
            video,
        );
    }

    #[test]
    #[should_panic(expected = "cycles must align")]
    fn misaligned_cycles_rejected() {
        let trace = MpegTrace::new(Movie::JurassicPark, 1);
        let video = StreamSource::mpeg(&trace, 2, 3, false);
        let audio = StreamSource::audio(espread_trace::AudioStream::sun_audio(), 7, 3);
        let _ = MuxSession::new(ProtocolConfig::paper(0.6, 1), audio, video);
    }
}
