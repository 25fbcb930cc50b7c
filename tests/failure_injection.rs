//! Failure-injection tests: the protocol must stay sane at the extremes —
//! dead feedback paths, total loss, absurd fragmentation, degenerate
//! windows.

use error_spreading::netsim::SimDuration;
use error_spreading::prelude::*;
use error_spreading::protocol::Recovery;

fn mpeg_source(windows: usize) -> StreamSource {
    let trace = MpegTrace::new(Movie::JurassicPark, 1);
    StreamSource::mpeg(&trace, 2, windows, false)
}

#[test]
fn dead_data_path_loses_every_window() {
    // GOOD state unreachable: every packet dies.
    let mut cfg = ProtocolConfig::paper(1.0, 3);
    cfg.p_good = 0.0;
    cfg.p_bad = 1.0;
    let report = Session::new(cfg, mpeg_source(10)).run();
    for m in report.series.windows() {
        assert_eq!(m.lost(), m.window_len());
        assert_eq!(m.clf(), m.window_len());
    }
    assert_eq!(report.packets_lost, report.packets_offered);
}

#[test]
fn dead_feedback_path_only_stalls_adaptation() {
    // The forward path works; the reverse path never delivers. Estimates
    // must stay at the prior and streaming must continue unharmed.
    let mut cfg = ProtocolConfig::paper(0.6, 5);
    cfg.feedback_bandwidth_bps = 1; // ~infinite serialisation: ACKs never land in time
    let report = Session::new(cfg, mpeg_source(15)).run();
    assert_eq!(report.series.len(), 15);
    let first = report.estimate_history.first().unwrap().clone();
    let last = report.estimate_history.last().unwrap().clone();
    assert_eq!(first, last, "no feedback ⇒ no adaptation");
    // Spreading still works off the prior.
    assert!(report.summary().mean_clf < 24.0);
}

#[test]
fn retransmission_with_dead_reverse_path_degrades_to_plain() {
    let mut cfg = ProtocolConfig::paper(0.7, 5).with_recovery(Recovery::Retransmit);
    cfg.feedback_bandwidth_bps = 1;
    let report = Session::new(cfg, mpeg_source(10)).run();
    // NACKs never arrive, so nothing is retransmitted — but nothing breaks.
    assert_eq!(report.retransmissions, 0);
    assert_eq!(report.series.len(), 10);
}

#[test]
fn extreme_fragmentation_still_round_trips() {
    // 64-byte packets: every frame becomes dozens of fragments.
    let mut cfg = ProtocolConfig::paper(0.0, 1).with_bandwidth(50_000_000);
    cfg.p_good = 1.0;
    cfg.p_bad = 0.0;
    cfg.packet_bytes = 64;
    let report = Session::new(cfg, mpeg_source(5)).run();
    assert_eq!(report.summary().total_lost, 0);
    assert!(
        report.packets_offered > 500,
        "fragmentation must multiply packets"
    );
}

#[test]
fn single_gop_single_window_works() {
    let trace = MpegTrace::new(Movie::JurassicPark, 2);
    let src = StreamSource::mpeg(&trace, 1, 1, false);
    let report = Session::new(ProtocolConfig::paper(0.6, 2), src).run();
    assert_eq!(report.series.len(), 1);
}

#[test]
fn tiny_audio_windows_work() {
    // Window of 2 LDUs: the permutation space is trivial but nothing panics.
    let src = StreamSource::audio(AudioStream::sun_audio(), 2, 8);
    let report = Session::new(ProtocolConfig::paper(0.6, 4), src).run();
    assert_eq!(report.series.len(), 8);
}

#[test]
fn zero_loss_zero_everything() {
    let mut cfg = ProtocolConfig::paper(0.0, 9).with_recovery(Recovery::Fec { group: 3 });
    cfg.p_good = 1.0;
    cfg.p_bad = 0.0;
    let report = Session::new(cfg, mpeg_source(5)).run();
    assert_eq!(report.summary().total_lost, 0);
    assert_eq!(report.fec_recovered, 0);
    assert_eq!(report.critical_lost, 0);
    assert_eq!(report.timing.late_frames, 0);
}

#[test]
fn giant_jitter_with_losses_stays_consistent() {
    let cfg = ProtocolConfig::paper(0.7, 12).with_jitter(SimDuration::from_millis(200));
    let report = Session::new(cfg, mpeg_source(12)).run();
    assert_eq!(report.series.len(), 12);
    for m in report.series.windows() {
        assert!(m.clf() <= m.lost());
    }
}

#[test]
fn bandwidth_starvation_prioritises_anchors() {
    // At 30 kbps (< half the stream rate) most of the window is dropped;
    // the layered order must keep anchors alive preferentially.
    let cfg = ProtocolConfig::paper(0.0, 1).with_bandwidth(30_000);
    let mut cfg = cfg;
    cfg.p_good = 1.0;
    cfg.p_bad = 0.0;
    let report = Session::new(cfg, mpeg_source(10)).run();
    assert!(report.dropped_frames > 0);
    let overall_loss = report.summary().total_lost as f64 / (report.series.len() * 24) as f64;
    assert!(
        report.critical_loss_rate() < overall_loss,
        "anchors must fare better than average: {} !< {overall_loss}",
        report.critical_loss_rate()
    );
}

#[test]
fn estimator_saturates_gracefully_under_total_loss_feedback() {
    // Estimates are clamped to layer lengths even if the observed bursts
    // equal the full window repeatedly.
    let mut cfg = ProtocolConfig::paper(0.97, 8);
    cfg.p_good = 0.5; // heavy, highly bursty loss
    let report = Session::new(cfg, mpeg_source(30)).run();
    for estimates in &report.estimate_history {
        for &e in estimates {
            assert!(e.is_finite() && e >= 0.0);
        }
    }
}
