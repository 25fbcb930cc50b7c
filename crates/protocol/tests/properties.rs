//! Property-based tests for protocol invariants across random
//! configurations and channels.

use espread_protocol::{
    Ordering, ProtocolConfig, Recovery, Server, Session, StreamSource, WindowFeedback, WindowPlan,
};
use espread_trace::{AudioStream, GopPattern, Movie, MpegTrace};
use proptest::prelude::*;

fn any_ordering() -> impl Strategy<Value = Ordering> {
    prop_oneof![
        Just(Ordering::InOrder),
        Just(Ordering::spread()),
        Just(Ordering::Spread { adaptive: false }),
        Just(Ordering::Ibo),
    ]
}

fn any_recovery() -> impl Strategy<Value = Recovery> {
    prop_oneof![
        Just(Recovery::None),
        Just(Recovery::Retransmit),
        (2u16..8).prop_map(|group| Recovery::Fec { group }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every ordering's window plan is a permutation of the window that
    /// respects the dependency poset.
    #[test]
    fn plans_are_valid_linear_extensions(
        ordering in any_ordering(),
        w in 1usize..4,
        open in any::<bool>(),
        estimates in prop::collection::vec(1usize..20, 5),
    ) {
        let poset = GopPattern::gop12().dependency_poset(w, open);
        let plan = WindowPlan::build(ordering, &poset, &estimates);
        let order: Vec<usize> = plan.schedule.iter().map(|s| s.frame).collect();
        prop_assert_eq!(order.len(), poset.len());
        prop_assert!(poset.is_linear_extension(&order), "{} {:?}", ordering, order);
        prop_assert!(plan.critical_prefix <= plan.schedule.len());
    }

    /// The plan cache is invisible: whatever the ACK sequence (fresh,
    /// repeated or reordered feedback, windows without any), every cached
    /// plan equals a fresh build from the server's estimates, and
    /// its worst projected CLF equals the per-start projection's maximum.
    #[test]
    fn memoized_plans_equal_fresh_builds(
        ordering in any_ordering(),
        w in 1usize..3,
        acks in prop::collection::vec(
            (0u64..40, prop::collection::vec(0usize..8, 5)),
            1..40,
        ),
    ) {
        let poset = GopPattern::gop12().dependency_poset(w, false);
        let cfg = ProtocolConfig::paper(0.6, 1).with_ordering(ordering);
        let mut server = Server::new(&cfg, &poset);
        for (window, (seq, bursts)) in acks.into_iter().enumerate() {
            // Sequence 0 stands for a window whose ACK never arrived.
            if seq > 0 {
                server.offer_ack(seq, WindowFeedback {
                    window: window as u64,
                    per_layer_burst: bursts.clone(),
                });
            }
            let plan = server.plan_window(&poset);
            prop_assert_eq!(&*plan, &WindowPlan::build(ordering, &poset, &server.estimates()));
            let projected = plan
                .layers
                .iter()
                .zip(&bursts)
                .filter(|&(_, &b)| b > 0)
                .filter_map(|(layer, &b)| {
                    (0..layer.order.len())
                        .filter_map(|start| layer.projected_clf(start, b))
                        .max()
                })
                .max();
            prop_assert_eq!(plan.worst_projected_clf(&bursts), projected);
        }
    }

    /// Sessions are deterministic in the seed and never report more loss
    /// than frames.
    #[test]
    fn sessions_deterministic_and_sane(
        ordering in any_ordering(),
        recovery in any_recovery(),
        p_bad in 0.0f64..0.9,
        seed in any::<u64>(),
    ) {
        let trace = MpegTrace::new(Movie::JurassicPark, 3);
        let source = StreamSource::mpeg(&trace, 1, 6, false);
        let cfg = ProtocolConfig::paper(p_bad, seed)
            .with_ordering(ordering)
            .with_recovery(recovery);
        let run = |cfg: ProtocolConfig, src: StreamSource| Session::new(cfg, src).run();
        let a = run(cfg.clone(), source.clone());
        let b = run(cfg, source.clone());
        prop_assert_eq!(
            a.series.clf_values().collect::<Vec<_>>(),
            b.series.clf_values().collect::<Vec<_>>()
        );
        for m in a.series.windows() {
            prop_assert!(m.clf() <= m.window_len());
            prop_assert!(m.lost() <= m.window_len());
            prop_assert_eq!(m.window_len(), source.frames_per_window());
        }
        prop_assert!(a.packets_lost <= a.packets_offered);
    }

    /// On a lossless channel with ample bandwidth every scheme is
    /// loss-free: permuting can never *create* discontinuity.
    #[test]
    fn lossless_channel_is_loss_free(ordering in any_ordering(), recovery in any_recovery()) {
        let trace = MpegTrace::new(Movie::JurassicPark, 4);
        let source = StreamSource::mpeg(&trace, 2, 4, true);
        let mut cfg = ProtocolConfig::paper(0.0, 1)
            .with_ordering(ordering)
            .with_recovery(recovery);
        cfg.p_good = 1.0;
        cfg.p_bad = 0.0;
        let report = Session::new(cfg, source).run();
        prop_assert_eq!(report.summary().mean_clf, 0.0);
        prop_assert_eq!(report.summary().total_lost, 0);
        prop_assert_eq!(report.dropped_frames, 0);
    }

    /// Audio (dependency-free) sessions: the protocol degenerates to pure
    /// scrambling with a single layer and still works for any window size.
    #[test]
    fn audio_any_window_size(n in 4usize..64, p_bad in 0.0f64..0.8, seed in any::<u64>()) {
        let source = StreamSource::audio(AudioStream::sun_audio(), n, 5);
        let report = Session::new(ProtocolConfig::paper(p_bad, seed), source).run();
        prop_assert_eq!(report.series.len(), 5);
        prop_assert_eq!(report.estimate_history[0].len(), 1);
    }

    /// FEC strictly adds bandwidth and never increases aggregate loss on
    /// the same channel realisation.
    #[test]
    fn fec_costs_bandwidth(group in 2u16..10, seed in any::<u64>()) {
        let trace = MpegTrace::new(Movie::JurassicPark, 5);
        let source = StreamSource::mpeg(&trace, 1, 8, false);
        let base = Session::new(ProtocolConfig::paper(0.5, seed), source.clone()).run();
        let fec = Session::new(
            ProtocolConfig::paper(0.5, seed).with_recovery(Recovery::Fec { group }),
            source,
        )
        .run();
        prop_assert!(fec.bytes_offered > base.bytes_offered);
    }
}
