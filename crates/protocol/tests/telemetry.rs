//! Integration test: a protocol session run against an isolated registry
//! records adaptation events, per-window ALF/CLF gauges, and span
//! histograms, all observable through the in-memory sink.

use espread_protocol::{ProtocolConfig, Session, StreamSource};
use espread_telemetry::sink::{InMemorySink, Sink};
use espread_telemetry::{Event, Registry};
use espread_trace::{Movie, MpegTrace};

const WINDOWS: usize = 10;

fn run_session(registry: Registry) -> espread_protocol::SessionReport {
    let trace = MpegTrace::new(Movie::JurassicPark, 1);
    let source = StreamSource::mpeg(&trace, 2, WINDOWS, false);
    Session::new(ProtocolConfig::paper(0.6, 42), source)
        .with_telemetry(registry)
        .run()
}

#[test]
fn session_records_adaptation_events_and_window_gauges() {
    let registry = Registry::new();
    let report = run_session(registry.clone());

    let mut sink = InMemorySink::new();
    sink.export(&registry.snapshot()).expect("in-memory export");
    let snap = sink.last().expect("snapshot captured");

    // ≥1 adaptation decision was logged, with coherent payload.
    let adaptations: Vec<_> = snap
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Adaptation {
                feedback_window,
                observed_bursts,
                old_estimates,
                new_estimates,
                ..
            } => Some((
                feedback_window,
                observed_bursts,
                old_estimates,
                new_estimates,
            )),
            _ => None,
        })
        .collect();
    assert!(
        !adaptations.is_empty(),
        "a {WINDOWS}-window session with feedback must adapt at least once"
    );
    for (feedback_window, bursts, old, new) in &adaptations {
        assert!(**feedback_window < WINDOWS as u64);
        assert_eq!(bursts.len(), old.len());
        assert_eq!(old.len(), new.len());
    }

    // One WindowMetrics event per playout window, in order.
    let windows: Vec<u64> = snap
        .events
        .iter()
        .filter_map(|e| match e {
            Event::WindowMetrics { window, .. } => Some(*window),
            _ => None,
        })
        .collect();
    assert_eq!(windows, (0..WINDOWS as u64).collect::<Vec<_>>());

    // Gauges hold the final window's ALF/CLF.
    let last = report.series.windows().last().expect("non-empty series");
    let alf = snap.gauge("protocol.window.alf").expect("alf gauge");
    let clf = snap.gauge("protocol.window.clf").expect("clf gauge");
    assert!((alf - last.alf().as_f64()).abs() < 1e-12);
    assert!((clf - last.clf() as f64).abs() < 1e-12);

    // Counters and span histograms saw every window.
    assert_eq!(
        snap.counter("protocol.session.windows"),
        Some(WINDOWS as u64)
    );
    for span in [
        "protocol.session.send_ns",
        "protocol.session.plan_ns",
        "protocol.session.feedback_ns",
    ] {
        let hist = snap
            .histogram(span)
            .unwrap_or_else(|| panic!("{span} histogram missing"));
        assert_eq!(hist.count, WINDOWS as u64, "{span} once per window");
        assert_eq!(hist.bucket_total(), hist.count);
    }
}

#[test]
fn isolated_registry_does_not_leak_into_global() {
    // Session-scoped instruments (windows counter, gauges, adaptation
    // events) must land only in the injected registry, never the global
    // one. Core/netsim spans still go global; those are out of scope here.
    let before = espread_telemetry::global()
        .snapshot()
        .counter("protocol.session.windows")
        .unwrap_or(0);
    let registry = Registry::new();
    let _ = run_session(registry.clone());
    let after = espread_telemetry::global()
        .snapshot()
        .counter("protocol.session.windows")
        .unwrap_or(0);
    assert_eq!(
        before, after,
        "isolated session leaked into global registry"
    );
    assert_eq!(
        registry.snapshot().counter("protocol.session.windows"),
        Some(WINDOWS as u64)
    );
}

#[test]
fn adaptation_events_round_trip_through_json_sink() {
    let registry = Registry::new();
    let _ = run_session(registry.clone());
    let json = espread_telemetry::sink::to_json_lines(&registry.snapshot());
    assert!(json
        .lines()
        .any(|l| l.contains("\"type\":\"event\"") && l.contains("\"adaptation\"")));
    assert!(json.lines().any(|l| l.contains("protocol.window.alf")));
}
