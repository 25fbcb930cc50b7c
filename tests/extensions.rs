//! Integration tests for the reproduction's extension features:
//! concealment synergy, timing accounting, drop-tail loss, critical-only
//! FEC, multi-burst analysis, retransmission under spreading, H.261.

use error_spreading::core::burst::worst_case_clf_multi;
use error_spreading::netsim::DropTailConfig;
use error_spreading::prelude::*;
use error_spreading::protocol::{LossModel, Recovery};
use error_spreading::qos::Concealment;

fn mpeg_source(w: usize, windows: usize) -> StreamSource {
    let trace = MpegTrace::new(Movie::JurassicPark, 1);
    StreamSource::mpeg(&trace, w, windows, false)
}

#[test]
fn spreading_makes_losses_concealable_end_to_end() {
    let conceal = Concealment::simple();
    let mut plain_frac = 0.0;
    let mut spread_frac = 0.0;
    for seed in [42u64, 43, 44] {
        let src = mpeg_source(2, 60);
        let spread = Session::new(ProtocolConfig::paper(0.6, seed), src.clone()).run();
        let plain = Session::new(
            ProtocolConfig::paper(0.6, seed).with_ordering(Ordering::InOrder),
            src,
        )
        .run();
        let frac = |r: &SessionReport| {
            let fs: Vec<f64> = r
                .patterns
                .iter()
                .filter(|p| p.lost() > 0)
                .map(|p| conceal.concealable_fraction(p))
                .collect();
            fs.iter().sum::<f64>() / fs.len().max(1) as f64
        };
        plain_frac += frac(&plain);
        spread_frac += frac(&spread);
    }
    assert!(
        spread_frac > plain_frac,
        "spread {spread_frac} must beat plain {plain_frac} on concealability"
    );
}

#[test]
fn timing_reported_and_spreading_adds_no_jitter_blowup() {
    let src = mpeg_source(2, 40);
    let spread = Session::new(ProtocolConfig::paper(0.6, 11), src.clone()).run();
    let plain = Session::new(
        ProtocolConfig::paper(0.6, 11).with_ordering(Ordering::InOrder),
        src.clone(),
    )
    .run();
    let retx = Session::new(
        ProtocolConfig::paper(0.6, 11).with_recovery(Recovery::Retransmit),
        src,
    )
    .run();
    assert!(spread.timing.frames_measured > 0);
    // Spreading stays within 1.5× of the baseline's jitter; retransmission
    // stretches the maximum latency beyond the no-recovery runs.
    assert!(spread.timing.jitter_us <= plain.timing.jitter_us * 1.5);
    assert!(retx.timing.max_latency_us >= spread.timing.max_latency_us);
    // One-window start-up delay absorbs everything: nothing arrives late.
    assert_eq!(spread.timing.late_frames, 0);
    assert_eq!(plain.timing.late_frames, 0);
}

#[test]
fn drop_tail_sessions_preserve_the_spreading_win() {
    let model = LossModel::DropTail(DropTailConfig::paper_like());
    let mut spread_total = 0.0;
    let mut plain_total = 0.0;
    for seed in [3u64, 4, 5, 6] {
        let src = mpeg_source(2, 60);
        let base = ProtocolConfig::paper(0.6, seed).with_loss_model(model);
        spread_total += Session::new(base.clone(), src.clone())
            .run()
            .summary()
            .mean_clf;
        plain_total += Session::new(base.with_ordering(Ordering::InOrder), src)
            .run()
            .summary()
            .mean_clf;
    }
    assert!(
        spread_total < plain_total,
        "drop-tail: spread {spread_total} !< plain {plain_total}"
    );
}

#[test]
fn critical_fec_protects_anchors_without_full_overhead() {
    let src = mpeg_source(2, 40);
    let run = |recovery| {
        Session::new(
            ProtocolConfig::paper(0.7, 17).with_recovery(recovery),
            src.clone(),
        )
        .run()
    };
    let none = run(Recovery::None);
    let critical = run(Recovery::FecCritical { group: 2 });
    let full = run(Recovery::Fec { group: 2 });
    assert!(critical.bytes_offered < full.bytes_offered);
    assert!(critical.fec_recovered > 0);
    assert!(critical.summary().mean_alf <= none.summary().mean_alf);
}

#[test]
fn multi_burst_analysis_consistent_with_sessions() {
    // The multi-burst adversary generalises the single-burst evaluator.
    let spread = calculate_permutation(24, 3);
    assert_eq!(
        worst_case_clf_multi(&spread.permutation, 3, 1),
        spread.worst_clf
    );
    assert!(worst_case_clf_multi(&spread.permutation, 3, 2) >= spread.worst_clf);
}

#[test]
fn retransmission_composes_with_fixed_spreading() {
    // NACK retransmission on top of the fixed k-CPO order costs neither
    // delivery (ALF) nor continuity (CLF).
    let trace = MpegTrace::new(Movie::JurassicPark, 5);
    let src = StreamSource::mpeg(&trace, 2, 20, false);
    let base = ProtocolConfig::paper(0.6, 9).with_ordering(Ordering::Spread { adaptive: false });
    let single = Session::new(base.clone(), src.clone()).run();
    let resent = Session::new(base.with_recovery(Recovery::Retransmit), src).run();
    assert!(resent.summary().mean_alf <= single.summary().mean_alf);
    assert!(resent.summary().mean_clf <= single.summary().mean_clf + 1e-9);
}

#[test]
fn h261_streams_through_the_protocol() {
    // H.261: I + P-chain, no B frames — every layer is critical, spreading
    // happens across GOPs within the buffer.
    let pattern = GopPattern::h261(6);
    let trace = MpegTrace::with_pattern(Movie::JurassicPark, pattern, 24, 1);
    let src = StreamSource::mpeg(&trace, 4, 20, false);
    assert_eq!(src.poset.height(), 6);
    let report = Session::new(ProtocolConfig::paper(0.6, 7), src).run();
    assert_eq!(report.series.len(), 20);
    // All-critical layers mean layer sizes of 4 (one frame per GOP).
    assert_eq!(report.estimate_history[0].len(), 6);
}

#[test]
fn poset_width_bounds_spreading_freedom() {
    // The B layer is the widest antichain of the MPEG poset: the exact
    // Dilworth width equals the depth decomposition's largest layer here.
    let poset = GopPattern::gop12().dependency_poset(2, false);
    assert_eq!(poset.width(), 16);
    assert_eq!(poset.width(), poset.max_layer_width());
    // Audio has full freedom.
    assert_eq!(AudioStream::sun_audio().dependency_poset(30).width(), 30);
}
