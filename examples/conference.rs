//! Video conferencing: audio + video multiplexed over one lossy path.
//!
//! The paper's motivating applications — Internet phone, video
//! conferencing — carry both media together, so a network burst hits
//! both. This demo streams one minute of multiplexed SunAudio + MPEG over
//! the Fig. 8 channel, scrambled vs unscrambled, and reports per-medium
//! continuity and MOS-style quality.
//!
//! ```sh
//! cargo run --release --example conference
//! ```

use error_spreading::prelude::*;
use error_spreading::qos::score;

/// Aligned audio and video sources for one channel: `windows` cycles of
/// `w` GOPs of video plus the matching quantity of SunAudio.
fn aligned_av_sources(
    trace: &MpegTrace,
    w: usize,
    windows: usize,
    open_gop: bool,
) -> (StreamSource, StreamSource) {
    let video = StreamSource::mpeg(trace, w, windows, open_gop);
    let cycle_secs = video.frames_per_window() as f64 / f64::from(video.fps);
    let audio_ldus = (cycle_secs * 30.0).round() as usize;
    let audio = StreamSource::audio(AudioStream::sun_audio(), audio_ldus, windows);
    (audio, video)
}

fn main() {
    let windows = 60; // one minute of 1 s buffer cycles
    let trace = MpegTrace::new(Movie::JurassicPark, 1);
    let (audio, video) = aligned_av_sources(&trace, 2, windows, false);
    println!(
        "conference: {windows} cycles × ({} audio LDUs + {} video frames) over one 1.2 Mbps path\n",
        audio.frames_per_window(),
        video.frames_per_window()
    );

    let p_bad = 0.7;
    let seed = 77;
    // Audio first in every cycle (the tighter perceptual budget), then
    // the video's layered order.
    let run = |ordering: Ordering| {
        Session::new(
            ProtocolConfig::paper(p_bad, seed).with_ordering(ordering),
            audio.clone(),
        )
        .with_stream(video.clone())
        .run_streams()
    };
    let (spread, plain) = (run(Ordering::spread()), run(Ordering::InOrder));

    let mos = |series: &WindowSeries, kind: MediaKind| {
        let total: f64 = series
            .windows()
            .iter()
            .map(|&m| score(m, kind).value())
            .sum();
        total / series.len() as f64
    };

    println!(
        "{:<14} {:>12} {:>12} {:>10}",
        "stream", "mean CLF", "dev", "mean MOS"
    );
    for (label, series, kind) in [
        ("audio plain", &plain[0].series, MediaKind::Audio),
        ("audio spread", &spread[0].series, MediaKind::Audio),
        ("video plain", &plain[1].series, MediaKind::Video),
        ("video spread", &spread[1].series, MediaKind::Video),
    ] {
        let s = series.summary();
        println!(
            "{label:<14} {:>12.2} {:>12.2} {:>10.2}",
            s.mean_clf,
            s.dev_clf,
            mos(series, kind)
        );
    }
    println!(
        "\nshared channel: {} packets, {:.1}% lost — one loss process, both media protected",
        spread[0].packets_offered,
        spread[0].packet_loss_rate() * 100.0
    );
}
