//! End-to-end integration tests: trace → protocol → netsim → qos.

use error_spreading::prelude::*;

fn mpeg_source(seed: u64, w: usize, windows: usize) -> StreamSource {
    let trace = MpegTrace::new(Movie::JurassicPark, seed);
    StreamSource::mpeg(&trace, w, windows, false)
}

#[test]
fn deterministic_across_runs() {
    let report = |seed| {
        Session::new(ProtocolConfig::paper(0.6, seed), mpeg_source(1, 2, 30))
            .run()
            .series
            .clf_values()
            .collect::<Vec<_>>()
    };
    assert_eq!(report(5), report(5));
    assert_ne!(report(5), report(6));
}

#[test]
fn spread_dominates_in_order_across_seeds_and_pbad() {
    // The Fig. 8 claim, aggregated: over many channel realisations the
    // scrambled scheme must win on mean CLF *and* deviation.
    for p_bad in [0.6, 0.7] {
        let mut spread_mean = 0.0;
        let mut plain_mean = 0.0;
        let mut spread_dev = 0.0;
        let mut plain_dev = 0.0;
        for seed in 0..8u64 {
            let src = mpeg_source(1, 2, 50);
            let spread =
                Session::new(ProtocolConfig::paper(p_bad, seed * 31 + 7), src.clone()).run();
            let plain = Session::new(
                ProtocolConfig::paper(p_bad, seed * 31 + 7).with_ordering(Ordering::InOrder),
                src,
            )
            .run();
            spread_mean += spread.summary().mean_clf;
            plain_mean += plain.summary().mean_clf;
            spread_dev += spread.summary().dev_clf;
            plain_dev += plain.summary().dev_clf;
        }
        assert!(
            spread_mean < plain_mean,
            "p_bad={p_bad}: mean {spread_mean} !< {plain_mean}"
        );
        assert!(
            spread_dev < plain_dev,
            "p_bad={p_bad}: dev {spread_dev} !< {plain_dev}"
        );
    }
}

#[test]
fn alf_is_invariant_under_spreading() {
    // Error spreading trades CLF for nothing: aggregate loss is identical
    // on the same channel realisation (same packets, same slots).
    let src = mpeg_source(2, 2, 40);
    let spread = Session::new(ProtocolConfig::paper(0.6, 77), src.clone()).run();
    let plain = Session::new(
        ProtocolConfig::paper(0.6, 77).with_ordering(Ordering::InOrder),
        src,
    )
    .run();
    assert_eq!(spread.packets_offered, plain.packets_offered);
    assert_eq!(spread.packets_lost, plain.packets_lost);
    assert_eq!(spread.summary().total_lost, plain.summary().total_lost);
    assert!(spread.summary().mean_clf <= plain.summary().mean_clf);
}

#[test]
fn spreading_wins_at_every_buffer_size() {
    // Fig. 12's claim: for each buffer size W the scrambled scheme beats
    // the unscrambled one on mean CLF — "error spreading scales well in
    // various scenarios". (Longer windows naturally see more bursts, so
    // the absolute per-window CLF grows with W for both schemes.)
    for w in [1usize, 2, 4] {
        let mut spread_total = 0.0;
        let mut plain_total = 0.0;
        for seed in 0..6u64 {
            let src = mpeg_source(1, w, 40);
            spread_total += Session::new(ProtocolConfig::paper(0.6, 1000 + seed), src.clone())
                .run()
                .summary()
                .mean_clf;
            plain_total += Session::new(
                ProtocolConfig::paper(0.6, 1000 + seed).with_ordering(Ordering::InOrder),
                src,
            )
            .run()
            .summary()
            .mean_clf;
        }
        assert!(
            spread_total < plain_total,
            "W={w}: spread {spread_total} !< plain {plain_total}"
        );
    }
}

#[test]
fn adaptation_tracks_channel_quality() {
    // A quieter channel must drive the B-layer estimate down towards the
    // small bursts actually observed.
    let src = mpeg_source(1, 2, 60);
    let quiet = Session::new(ProtocolConfig::paper(0.3, 5), src.clone()).run();
    let noisy = Session::new(ProtocolConfig::paper(0.85, 5), src).run();
    let final_quiet = *quiet.estimate_history.last().unwrap().last().unwrap();
    let final_noisy = *noisy.estimate_history.last().unwrap().last().unwrap();
    assert!(
        final_quiet < final_noisy,
        "quiet estimate {final_quiet} !< noisy estimate {final_noisy}"
    );
}

#[test]
fn open_gop_sessions_work() {
    let trace = MpegTrace::new(Movie::JurassicPark, 4);
    let src = StreamSource::mpeg(&trace, 2, 20, true);
    let report = Session::new(ProtocolConfig::paper(0.6, 9), src).run();
    assert_eq!(report.series.len(), 20);
}

#[test]
fn every_movie_profile_streams() {
    for movie in Movie::ALL {
        let trace = MpegTrace::new(movie, 11);
        let src = StreamSource::mpeg(&trace, 1, 8, false);
        // Star Wars needs real bandwidth; give every movie plenty.
        let cfg = ProtocolConfig::paper(0.5, 3).with_bandwidth(8_000_000);
        let report = Session::new(cfg, src).run();
        assert_eq!(report.series.len(), 8, "{movie:?}");
        assert_eq!(report.dropped_frames, 0, "{movie:?} should fit 8 Mbps");
    }
}

#[test]
fn audio_spread_beats_in_order() {
    let src = StreamSource::audio(AudioStream::sun_audio(), 30, 60);
    let mut spread_total = 0.0;
    let mut plain_total = 0.0;
    for seed in 0..6u64 {
        let cfg = ProtocolConfig::paper(0.7, 500 + seed).with_bandwidth(128_000);
        spread_total += Session::new(cfg.clone(), src.clone())
            .run()
            .summary()
            .mean_clf;
        plain_total += Session::new(cfg.with_ordering(Ordering::InOrder), src.clone())
            .run()
            .summary()
            .mean_clf;
    }
    assert!(
        spread_total < plain_total,
        "audio spread {spread_total} !< in-order {plain_total}"
    );
}

#[test]
fn perception_verdicts_improve_under_spreading() {
    let src = mpeg_source(3, 2, 60);
    let spread = Session::new(ProtocolConfig::paper(0.6, 21), src.clone()).run();
    let plain = Session::new(
        ProtocolConfig::paper(0.6, 21).with_ordering(Ordering::InOrder),
        src,
    )
    .run();
    let threshold = PerceptionProfile::for_media(MediaKind::Video).max_clf();
    assert!(
        spread.series.fraction_within_clf(threshold) >= plain.series.fraction_within_clf(threshold)
    );
}

#[test]
fn recovery_composes_with_spreading() {
    // Blocks D, E, F of Fig. 4: adding recovery to spreading must not
    // hurt aggregate loss, and FEC must cost bandwidth.
    let src = mpeg_source(5, 2, 40);
    let d = Session::new(ProtocolConfig::paper(0.7, 13), src.clone()).run();
    let e = Session::new(
        ProtocolConfig::paper(0.7, 13).with_recovery(Recovery::Retransmit),
        src.clone(),
    )
    .run();
    let f = Session::new(
        ProtocolConfig::paper(0.7, 13).with_recovery(Recovery::Fec { group: 4 }),
        src,
    )
    .run();
    assert!(e.summary().mean_alf <= d.summary().mean_alf);
    assert!(f.summary().mean_alf <= d.summary().mean_alf);
    assert!(f.bytes_offered > d.bytes_offered);
    assert!(e.retransmissions > 0);
    assert!(f.fec_recovered > 0);
}
