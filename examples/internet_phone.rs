//! Internet phone: the dependency-free audio case.
//!
//! Audio is the paper's most pressing motivation — the consecutive-loss
//! tolerance is only ≈ 3 LDUs (~100 ms) before a call becomes annoying.
//! Audio LDUs have no inter-frame dependency, so the protocol degenerates
//! to pure window scrambling (the authors' earlier ICMCS '99 scheme),
//! which this workspace expresses as a one-antichain-layer stream.
//!
//! ```sh
//! cargo run --release --example internet_phone
//! ```

use error_spreading::prelude::*;

fn main() {
    // One second of 8 kHz SunAudio per buffer window (30 × 266-sample LDUs).
    let ldus_per_window = 30;
    let windows = 120; // a two-minute call
    let source = StreamSource::audio(AudioStream::sun_audio(), ldus_per_window, windows);

    println!(
        "internet phone: {} windows × {} LDUs ({} B each, {} kbps raw)",
        windows,
        ldus_per_window,
        AudioStream::sun_audio().ldu_bytes(),
        AudioStream::sun_audio().bits_per_second() / 1000,
    );

    // A narrowband link with nasty bursts.
    let config = ProtocolConfig::paper(0.7, 1234).with_bandwidth(128_000);

    let spread = Session::new(config.clone(), source.clone()).run();
    let plain = Session::new(config.with_ordering(Ordering::InOrder), source).run();

    let profile = PerceptionProfile::for_media(MediaKind::Audio);
    let ok_plain = plain.series.fraction_within_clf(profile.max_clf());
    let ok_spread = spread.series.fraction_within_clf(profile.max_clf());

    println!(
        "\n             mean CLF   dev    acceptable windows (CLF ≤ {})",
        profile.max_clf()
    );
    println!(
        "unscrambled  {:>8.2}  {:>5.2}   {:>5.1}%",
        plain.summary().mean_clf,
        plain.summary().dev_clf,
        ok_plain * 100.0
    );
    println!(
        "scrambled    {:>8.2}  {:>5.2}   {:>5.1}%",
        spread.summary().mean_clf,
        spread.summary().dev_clf,
        ok_spread * 100.0
    );
    println!(
        "\naggregate loss is unchanged ({:.1}% vs {:.1}%) — only its *shape* differs",
        plain.summary().mean_alf * 100.0,
        spread.summary().mean_alf * 100.0
    );
}
