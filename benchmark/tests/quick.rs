//! Smoke test: the whole benchmark — every workload, untraced and traced —
//! at tiny session counts, checked against `BENCHMARK.json`.

use std::path::Path;
use std::process::Command;

use espread_benchmark::json::{entries, field, parse, string};
use espread_benchmark::metrics::{END_TO_END, PER_LAYER};
use espread_benchmark::workload::Workload;
use espread_exec::Json;

fn declared(bench: &Json, key: &str) -> Vec<String> {
    let Some(Json::Array(list)) = field(bench, key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    list.iter()
        .map(|m| {
            field(m, "name")
                .and_then(string)
                .expect("named")
                .to_string()
        })
        .collect()
}

fn metric_names(report: &Json) -> Vec<String> {
    entries(field(report, "metrics").expect("metrics"))
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn quick_pass_emits_every_declared_metric_and_passes_every_check() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository");
    let bench = parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read"))
        .expect("BENCHMARK.json parses");
    let e2e = declared(&bench, "end_to_end");
    let layers = declared(&bench, "per_layer");
    assert_eq!(e2e, END_TO_END.map(|(n, _)| n.to_string()));
    assert_eq!(layers, PER_LAYER.map(String::from));

    // Reports land under the working directory's target/benchmark.
    let dir = std::env::temp_dir().join(format!("espread-benchmark-quick-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join("result.json");
    let run = Command::new(env!("CARGO_BIN_EXE_espread-benchmark"))
        .args(["--quick", "--trace", "1", "--out"])
        .arg(&out)
        .current_dir(&dir)
        .output()
        .expect("run the benchmark");
    let result = std::fs::read_to_string(&out).map(|t| parse(&t));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        run.status.success(),
        "a check failed or a workload did not run:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    let result = result.expect("result file").expect("result parses");

    for (pass, expected) in [("workloads", &e2e), ("per_layer", &layers)] {
        let reports = field(&result, pass).expect(pass);
        for w in Workload::ALL {
            let report = field(reports, w.name()).unwrap_or_else(|| panic!("{pass}: {}", w.name()));
            assert_eq!(&metric_names(report), expected, "{pass}: {}", w.name());
            assert_eq!(
                field(report, "correct"),
                Some(&Json::Bool(true)),
                "{pass}: {}",
                w.name()
            );
        }
    }
    let measured_on = field(&result, "measured_on").expect("measured_on");
    for key in [
        "seed",
        "git_rev",
        "nproc",
        "kernel",
        "rcvtimeo_1ms_wait_ms",
        "profile",
        "telemetry",
    ] {
        assert!(field(measured_on, key).is_some(), "measured_on.{key}");
    }
}
