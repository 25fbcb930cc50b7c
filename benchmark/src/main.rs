//! Command line of the streaming-stack benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [--workload NAME] \
//!     [--seed N] [--seconds N] [--trace [0|1]] [--quick] [--reverse] [--out FILE]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json
//! ```
//!
//! Without `--workload` every workload runs, each in a fresh process, and
//! the combined result file is written. `--setup-probe` is the child mode
//! the set-up measurement spawns: one cold set-up, its time on the last
//! line.

use std::path::PathBuf;
use std::process::ExitCode;

use espread_benchmark::run::{self, Options};
use espread_benchmark::workload::Workload;

const USAGE: &str = "usage: espread-benchmark [--workload NAME|all] [--seed N] [--seconds N] \
[--trace [0|1]] [--quick] [--reverse] [--out FILE]
       espread-benchmark compare A.json[,A2.json...] B.json[,B2.json...]
workloads: sim_fig8 udp_stream udp_churn udp_lossy";

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut opts = Options {
        workload: None,
        seed: 42,
        seconds: 20,
        trace: false,
        quick: false,
        reverse: false,
        out: None,
    };
    let mut probe = false;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let name = value(i)?;
                opts.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(
                        Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
                    ),
                };
                i += 1;
            }
            "--seed" => {
                opts.seed = value(i)?.parse().map_err(|_| "--seed takes an integer")?;
                i += 1;
            }
            "--seconds" => {
                opts.seconds = value(i)?
                    .parse()
                    .map_err(|_| "--seconds takes an integer")?;
                if opts.seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
                i += 1;
            }
            "--trace" => {
                opts.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => opts.quick = true,
            "--reverse" => opts.reverse = true,
            "--out" => {
                opts.out = Some(PathBuf::from(value(i)?));
                i += 1;
            }
            "--setup-probe" => probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok((opts, probe))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => ExitCode::from(espread_benchmark::compare::main(a, b) as u8),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let (opts, probe) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let code = match (opts.workload, probe) {
        (Some(w), true) => match run::setup_probe(w, opts.seed) {
            Ok(s) => {
                println!("setup_s {s}");
                0
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                1
            }
        },
        (None, true) => {
            eprintln!("--setup-probe needs --workload");
            2
        }
        (Some(w), false) => match run::run_workload(w, &opts) {
            Ok(report) => run::emit(&report, &opts),
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                1
            }
        },
        (None, false) => run::run_all(&opts),
    };
    ExitCode::from(code as u8)
}
