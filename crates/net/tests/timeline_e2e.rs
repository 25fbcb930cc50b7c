//! The flight recorder riding a real proxy-faulted session: server,
//! proxy, and client each record into one `espread_obs::trio`, the dumps
//! round-trip through JSON lines, and the reconstructed timeline must
//! explain every residual loss and reproduce the client-measured CLF.

use espread_net::{
    FaultPolicy, FaultProxy, NetClient, NetClientConfig, NetServer, SessionRecorder,
};
use espread_obs::{
    all_to_json_lines, parse_json_lines, reconstruct, trio, FrameOutcome, DEFAULT_CAPACITY,
};

mod common;
use common::{quick_retry, server_config};

/// One recorded session through a seeded Gilbert proxy: every residual
/// loss attributed (zero violations), the reconstructed per-window CLF
/// identical to the client's own `espread-qos` measurement, and the whole
/// path exercised through the JSONL dump/parse round trip.
#[test]
fn recorded_session_timeline_attributes_every_loss_and_matches_clf() {
    const WINDOWS: usize = 8;
    let (srec, prec, crec) = trio(DEFAULT_CAPACITY, 0);

    let mut cfg = server_config(WINDOWS, 2);
    cfg.recorder = SessionRecorder::attached(srec.clone());
    let mut server = NetServer::bind("127.0.0.1:0", cfg).unwrap();
    let mut proxy = FaultProxy::spawn_with_recorder(
        server.local_addr(),
        FaultPolicy::transparent().gilbert_data_loss(0.92, 0.6, 42),
        FaultPolicy::transparent(),
        SessionRecorder::attached(prec.clone()),
    )
    .unwrap();
    let config = NetClientConfig {
        recovery: true,
        retry: quick_retry(),
        recorder: SessionRecorder::attached(crec.clone()),
        ..NetClientConfig::default()
    };
    let client = NetClient::connect(proxy.client_addr(), config).unwrap();
    let report = client.stream().unwrap();
    proxy.shutdown();
    server.shutdown();
    assert_eq!(report.windows_completed, WINDOWS);

    let recordings = vec![srec.recording(), prec.recording(), crec.recording()];
    assert!(
        recordings.iter().all(|r| r.dropped == 0),
        "rings must not overflow at this session size"
    );

    // Round-trip through the on-disk format before reconstructing, so
    // the test covers exactly what the CI job and bench binary do.
    let text = all_to_json_lines(&recordings);
    let parsed = parse_json_lines(&text).unwrap();
    let timeline = reconstruct(&parsed);

    assert!(
        timeline.is_clean(),
        "unexplained timeline: {:?}",
        timeline.violations
    );
    assert!(!timeline.overflowed);
    assert_eq!(timeline.sessions.len(), 1, "one conn in the group");

    let session = &timeline.sessions[0];
    assert_eq!(session.windows.len(), WINDOWS);
    assert!(session.unclosed_windows.is_empty());
    let unattributed = session
        .windows
        .iter()
        .flat_map(|w| &w.frames)
        .filter(|f| f.outcome == FrameOutcome::LostUnattributed)
        .count();
    assert_eq!(unattributed, 0, "100% of residual losses attributed");

    // The burst-gap statistics must reproduce the CLF espread-qos
    // measured client-side on the very same realisation.
    let measured: Vec<usize> = report.series.clf_values().collect();
    assert_eq!(session.clf_values(), measured, "CLF cross-check");

    // This seed loses data, and recovery keeps every critical frame, so
    // both loss and recovery paths were actually exercised.
    assert!(timeline.total_lost() > 0, "seed 42 must lose frames");
    assert!(timeline.total_recovered() > 0, "NACK recovery must appear");
    assert!(session.windows.iter().any(|w| !w.burst_lengths.is_empty()));
}

/// Determinism of the attribution artifact: two runs on the same seed
/// reconstruct byte-identical timelines once timing-derived fields
/// (latencies) are set aside.
#[test]
fn reconstruction_is_deterministic_across_reruns() {
    const WINDOWS: usize = 4;
    let run = || {
        let (srec, prec, crec) = trio(DEFAULT_CAPACITY, 0);
        let mut cfg = server_config(WINDOWS, 2);
        cfg.recorder = SessionRecorder::attached(srec.clone());
        let mut server = NetServer::bind("127.0.0.1:0", cfg).unwrap();
        let mut proxy = FaultProxy::spawn_with_recorder(
            server.local_addr(),
            FaultPolicy::transparent().gilbert_data_loss(0.92, 0.6, 9),
            FaultPolicy::transparent(),
            SessionRecorder::attached(prec.clone()),
        )
        .unwrap();
        let config = NetClientConfig {
            retry: quick_retry(),
            recorder: SessionRecorder::attached(crec.clone()),
            ..NetClientConfig::default()
        };
        let client = NetClient::connect(proxy.client_addr(), config).unwrap();
        client.stream().unwrap();
        proxy.shutdown();
        server.shutdown();
        let mut timeline = reconstruct(&[srec.recording(), prec.recording(), crec.recording()]);
        for s in &mut timeline.sessions {
            for w in &mut s.windows {
                for f in &mut w.frames {
                    f.latency_us = None;
                }
            }
        }
        timeline
    };
    let a = run();
    let b = run();
    assert!(a.is_clean(), "unexplained timeline: {:?}", a.violations);
    assert_eq!(a, b, "same seed must reconstruct the same timeline");
}
