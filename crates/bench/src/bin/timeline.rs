//! Causal session timelines from flight-recorder dumps.
//!
//! ```sh
//! # Record one proxy-faulted session, dump the trio, reconstruct:
//! cargo run --release -p espread-bench --bin timeline
//!
//! # Re-validate existing dumps (e.g. the chaos soak's):
//! cargo run --release -p espread-bench --bin timeline -- \
//!     --check results/timeline_seed*.jsonl
//! ```
//!
//! The live mode streams Jurassic Park through a seeded Gilbert–Elliott
//! proxy with server, proxy, and client each recording into one
//! `espread_obs::trio`, dumps all three rings to
//! `results/timeline_session.jsonl`, re-parses that file, and
//! reconstructs the causal timeline from the bytes on disk. It exits
//! nonzero unless **every** residual loss is attributed to a concrete
//! cause, causality holds (nothing delivered before it was sent), and
//! the reconstructed per-window CLF reproduces what the client's own
//! `espread-qos` series measured on the same realisation. The summary
//! artifact `results/timeline.json` keeps only realisation-derived
//! facts (no latencies), so it is byte-identical across reruns.
//!
//! `--check` skips the live session and just parses + reconstructs each
//! given dump, exiting nonzero on unattributed losses, causality
//! violations, or malformed files.

use std::process::ExitCode;
use std::time::Duration;

use espread_bench::sweep;
use espread_exec::Json;
use espread_net::{
    FaultPolicy, FaultProxy, NetClient, NetClientConfig, NetServer, NetServerConfig, RetryPolicy,
    SessionRecorder,
};
use espread_obs::{
    all_to_json_lines, parse_json_lines, reconstruct, trio, Cause, TimelineReport, ALL_CAUSES,
    DEFAULT_CAPACITY,
};
use espread_protocol::{FecPolicy, ProtocolConfig, SessionOffer, StreamSource};
use espread_trace::{GopPattern, Movie, MpegTrace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        return check_dumps(&args[1..]);
    }
    live()
}

/// Parse + reconstruct pre-recorded dumps; nonzero exit on any breakage.
fn check_dumps(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("usage: timeline --check <dump.jsonl>...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                println!("FAIL {path}: {e}");
                failed = true;
                continue;
            }
        };
        let recordings = match parse_json_lines(&text) {
            Ok(recordings) => recordings,
            Err(e) => {
                println!("FAIL {path}: {e}");
                failed = true;
                continue;
            }
        };
        let timeline = reconstruct(&recordings);
        let windows: usize = timeline.sessions.iter().map(|s| s.windows.len()).sum();
        if timeline.is_clean() {
            println!(
                "ok   {path}: {} recordings, {} session(s), {windows} windows, \
                 {} lost ({} recovered), all attributed",
                recordings.len(),
                timeline.sessions.len(),
                timeline.total_lost(),
                timeline.total_recovered(),
            );
        } else {
            println!("FAIL {path}:");
            for viol in &timeline.violations {
                println!("  {viol}");
            }
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One recorded live session; see the module docs.
fn live() -> ExitCode {
    const SEED: u64 = 42;
    const WINDOWS: usize = 8;
    println!(
        "Timeline: one {WINDOWS}-window session through a seeded lossy proxy \
         (seed {SEED}), flight-recorded at all three nodes\n"
    );

    let (measured_clf, dump) = match recorded_session(SEED, WINDOWS) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("session failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The reconstruction input is the dump *file*, so the artifact
    // certifies the full record → dump → parse → attribute pipeline.
    let dump_path = "results/timeline_session.jsonl";
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(dump_path, &dump))
    {
        eprintln!("could not write {dump_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("trace dump written to {dump_path}");
    let text = std::fs::read_to_string(dump_path).expect("just written");
    let recordings = match parse_json_lines(&text) {
        Ok(recordings) => recordings,
        Err(e) => {
            eprintln!("dump round-trip failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let timeline = reconstruct(&recordings);

    let mut ok = timeline.is_clean();
    for viol in &timeline.violations {
        println!("VIOLATION {viol}");
    }
    let reconstructed: Vec<usize> = timeline
        .sessions
        .iter()
        .flat_map(|s| s.clf_values())
        .collect();
    if reconstructed != measured_clf {
        println!(
            "VIOLATION reconstructed CLF {reconstructed:?} disagrees with the \
             client-measured {measured_clf:?}"
        );
        ok = false;
    }

    for session in &timeline.sessions {
        println!("session {} conn {}:", session.session, session.conn);
        for w in &session.windows {
            println!(
                "  window {:>2}: {:>2}/{} lost, clf={}, bursts={:?}, gaps={:?}",
                w.window, w.lost, w.frames_total, w.clf, w.burst_lengths, w.gap_lengths
            );
        }
        for &(cause, n) in &session.cause_totals {
            if n > 0 {
                println!("  {:>18}: {n}", cause.as_str());
            }
        }
    }
    println!(
        "\n{} lost, {} recovered, {} violations — CLF cross-check {}",
        timeline.total_lost(),
        timeline.total_recovered(),
        timeline.violations.len(),
        if reconstructed == measured_clf {
            "passed"
        } else {
            "FAILED"
        }
    );

    sweep::write_results(
        "timeline",
        &artifact(SEED, &timeline, reconstructed == measured_clf),
    );
    espread_bench::write_telemetry_snapshot("timeline");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The deterministic summary: realisation-derived facts only — no
/// latencies, no timestamps.
fn artifact(seed: u64, timeline: &TimelineReport, clf_match: bool) -> Json {
    let mut doc = Json::object();
    doc.push("experiment", "timeline")
        .push("seed", seed)
        .push("violations", timeline.violations.len() as i64)
        .push("clf_match", clf_match)
        .push("lost", timeline.total_lost() as i64)
        .push("recovered", timeline.total_recovered() as i64);
    let mut causes = Json::object();
    for &cause in &ALL_CAUSES {
        let total: usize = timeline
            .sessions
            .iter()
            .flat_map(|s| &s.cause_totals)
            .filter(|&&(c, _)| c == cause)
            .map(|&(_, n)| n)
            .sum();
        causes.push(Cause::as_str(cause), total as i64);
    }
    doc.push("causes", causes);
    let mut windows = Vec::new();
    for session in &timeline.sessions {
        for w in &session.windows {
            let mut row = Json::object();
            row.push("window", w.window)
                .push("frames", w.frames_total as i64)
                .push("lost", w.lost as i64)
                .push("clf", w.clf as i64)
                .push(
                    "bursts",
                    Json::Array(
                        w.burst_lengths
                            .iter()
                            .map(|&b| Json::Int(b as i64))
                            .collect(),
                    ),
                )
                .push(
                    "gaps",
                    Json::Array(w.gap_lengths.iter().map(|&g| Json::Int(g as i64)).collect()),
                );
            windows.push(row);
        }
    }
    doc.push("windows", Json::Array(windows));
    doc
}

/// Runs the recorded session; returns the client-measured per-window
/// CLF values and the trio's JSONL dump.
fn recorded_session(seed: u64, windows: usize) -> Result<(Vec<usize>, String), String> {
    let (srec, prec, crec) = trio(DEFAULT_CAPACITY, 0);
    let trace = MpegTrace::new(Movie::JurassicPark, 1);
    let offer = SessionOffer {
        gop_pattern: GopPattern::gop12(),
        gops_per_window: 2,
        open_gop: false,
        fps: 24,
        packet_bytes: 2048,
        max_frame_bytes: 62_776 / 8,
        fec: FecPolicy::off(),
    };
    let mut server_config = NetServerConfig::new(
        ProtocolConfig::paper(0.6, 1),
        offer,
        StreamSource::mpeg(&trace, 2, windows, false),
    );
    server_config.recorder = SessionRecorder::attached(srec.clone());
    let mut server = NetServer::bind("127.0.0.1:0", server_config).map_err(|e| e.to_string())?;
    let mut proxy = FaultProxy::spawn_with_recorder(
        server.local_addr(),
        FaultPolicy::transparent().gilbert_data_loss(0.92, 0.6, seed),
        FaultPolicy::transparent(),
        SessionRecorder::attached(prec.clone()),
    )
    .map_err(|e| e.to_string())?;
    let client_config = NetClientConfig {
        recovery: true,
        retry: RetryPolicy {
            max_attempts: 6,
            base: Duration::from_millis(20),
            max: Duration::from_millis(200),
        },
        recorder: SessionRecorder::attached(crec.clone()),
        ..NetClientConfig::default()
    };
    let report =
        NetClient::connect(proxy.client_addr(), client_config).and_then(|client| client.stream());
    proxy.shutdown();
    server.shutdown();
    let report = report.map_err(|e| e.to_string())?;
    if report.windows_completed != windows {
        return Err(format!(
            "only {}/{} windows completed",
            report.windows_completed, windows
        ));
    }
    let recordings = vec![srec.recording(), prec.recording(), crec.recording()];
    Ok((
        report.series.clf_values().collect(),
        all_to_json_lines(&recordings),
    ))
}
