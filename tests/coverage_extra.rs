//! Supplementary edge-case coverage across crates.

use error_spreading::core::{
    burst::min_spread_gap, cpo::EXHAUSTIVE_LIMIT, k_cpo, monte_carlo_series,
};
use error_spreading::prelude::*;
use error_spreading::protocol::{
    negotiate, ClientCapabilities, FecPolicy, SessionOffer, WindowPlan,
};

#[test]
fn gop15_layer_structure() {
    // GOP 15 = I BB P BB P BB P BB P BB: chain I<P1<P2<P3<P4 plus B's.
    let poset = GopPattern::gop15().dependency_poset(1, false);
    assert_eq!(poset.len(), 15);
    assert_eq!(poset.height(), 6);
    let layers = poset.depth_decomposition();
    assert_eq!(layers.len(), 6);
    assert_eq!(layers[0], vec![0]); // the I frame
    assert_eq!(layers[5].len(), 10); // all B frames
    assert_eq!(poset.width(), 10);
}

#[test]
fn ibo_plan_on_audio_is_pure_ibo() {
    // An antichain has one non-critical layer, so the IBO ordering is the
    // bit-reversal of the whole window.
    let poset = AudioStream::sun_audio().dependency_poset(8);
    let plan = WindowPlan::build(error_spreading::protocol::Ordering::Ibo, &poset, &[]);
    let order: Vec<usize> = plan.schedule.iter().map(|s| s.frame).collect();
    assert_eq!(order, vec![0, 4, 2, 6, 1, 5, 3, 7]);
    assert_eq!(plan.critical_prefix, 0);
}

#[test]
fn k_cpo_window_sizing_consistency() {
    // k_cpo's chosen order tolerates the burst max_tolerable_burst reports.
    for (n, k) in [(17usize, 2usize), (24, 1), (30, 3)] {
        let b = max_tolerable_burst(n, k);
        let choice = k_cpo(n, k);
        assert!(worst_case_clf(&choice.permutation, b) <= k, "n={n} k={k}");
    }
}

#[test]
fn exhaustive_limit_is_honoured() {
    // Below the limit the search may return the Exhaustive family; above
    // it, never (the families must suffice).
    use error_spreading::core::OrderFamily;
    for n in (EXHAUSTIVE_LIMIT + 1)..=16 {
        for b in 1..n {
            let c = calculate_permutation(n, b);
            assert_ne!(c.family, OrderFamily::Exhaustive, "n={n} b={b}");
        }
    }
}

#[test]
fn spread_gap_of_optimal_orders_exceeds_one() {
    // Whenever CLF 1 is achieved against b ≥ 2, lost frames are pairwise
    // non-adjacent, i.e. the minimum spread gap is at least 2.
    for (n, b) in [(17usize, 5usize), (16, 4), (25, 5)] {
        let c = calculate_permutation(n, b);
        assert_eq!(c.worst_clf, 1);
        assert!(min_spread_gap(&c.permutation, b) >= 2, "n={n} b={b}");
    }
}

#[test]
fn monte_carlo_series_length_and_range() {
    let perm = calculate_permutation(12, 3).permutation;
    let mut flip = false;
    let mut process = move || {
        flip = !flip;
        flip
    };
    let series = monte_carlo_series(&perm, 7, &mut process);
    assert_eq!(series.len(), 7);
    for m in series.windows() {
        assert_eq!(m.lost(), 6); // alternating process loses half
    }
}

#[test]
fn negotiation_drives_a_real_session() {
    // End-to-end: negotiate, then stream with the agreed parameters.
    let offer = SessionOffer {
        gop_pattern: GopPattern::gop12(),
        gops_per_window: 1,
        open_gop: false,
        fps: 24,
        packet_bytes: 2048,
        max_frame_bytes: 62_776 / 8,
        fec: FecPolicy::off(),
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

#[test]
fn trace_io_round_trips_every_movie() {
    use error_spreading::trace::{read_trace, write_trace};
    for movie in Movie::ALL {
        let frames = MpegTrace::new(movie, 4).gops(3);
        let mut buf = Vec::new();
        write_trace(&mut buf, &frames).unwrap();
        assert_eq!(read_trace(buf.as_slice()).unwrap(), frames);
    }
}
