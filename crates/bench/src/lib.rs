//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! Each binary in `src/bin/` reproduces one artifact of the evaluation
//! (see `DESIGN.md` §4 for the index); this library holds the common
//! machinery: comparison runs over matched channel realisations, simple
//! aligned-table printing, ASCII series plots for the figure-style
//! outputs, and the performance gate ([`gate`]) the timing benches check
//! themselves against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod report;
pub mod sweep;

use espread_protocol::{Ordering, ProtocolConfig, Session, SessionReport, StreamSource};
use espread_qos::WindowSummary;
use espread_trace::{Movie, MpegTrace};

/// The per-scheme outcome of one matched comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Report of the unscrambled (in-order) run.
    pub plain: SessionReport,
    /// Report of the scrambled (adaptive spread) run.
    pub spread: SessionReport,
}

impl Comparison {
    /// Runs both schemes on the same source and channel seed.
    pub fn run(config: &ProtocolConfig, source: &StreamSource) -> Comparison {
        let spread = Session::new(
            config.clone().with_ordering(Ordering::spread()),
            source.clone(),
        )
        .run();
        let plain = Session::new(
            config.clone().with_ordering(Ordering::InOrder),
            source.clone(),
        )
        .run();
        Comparison { plain, spread }
    }

    /// Summaries of both runs (plain, spread).
    pub fn summaries(&self) -> (WindowSummary, WindowSummary) {
        (self.plain.summary(), self.spread.summary())
    }
}

/// The paper's standard workload: Jurassic Park, GOP 12, `w` GOPs per
/// buffer, `windows` buffer windows.
pub fn paper_source(w: usize, windows: usize, trace_seed: u64) -> StreamSource {
    let trace = MpegTrace::new(Movie::JurassicPark, trace_seed);
    StreamSource::mpeg(&trace, w, windows, false)
}

/// Renders one row of an aligned table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// A small ASCII plot of one or two series (the figure-style output).
///
/// Each value is scaled to `height` rows; the series are drawn with `*`
/// (first) and `o` (second).
pub fn ascii_plot(title: &str, series: &[(&str, Vec<f64>)], height: usize) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let max = series
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .fold(1.0f64, f64::max);
    let cols = series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    let marks = ['*', 'o', '+', 'x'];
    for level in (1..=height).rev() {
        let cutoff = max * level as f64 / height as f64;
        let prev_cutoff = max * (level - 1) as f64 / height as f64;
        let mut line = format!("{cutoff:>7.2} |");
        for col in 0..cols {
            let mut ch = ' ';
            for (s, (_, values)) in series.iter().enumerate() {
                if let Some(&v) = values.get(col) {
                    if v > prev_cutoff && v <= cutoff {
                        ch = marks[s % marks.len()];
                    }
                }
            }
            line.push(ch);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&format!("        +{}\n", "-".repeat(cols)));
    for (s, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("        {} = {}\n", marks[s % marks.len()], name));
    }
    out
}

/// Dumps the global telemetry snapshot to `results/telemetry_<name>.json`
/// (JSON-lines) and reports the path on stdout. Call at the end of each
/// experiment binary.
pub fn write_telemetry_snapshot(name: &str) {
    let snapshot = espread_telemetry::global().snapshot();
    let path = format!("results/telemetry_{name}.json");
    // Leading meta line keeps the file self-describing (and non-empty even
    // for binaries that never touch an instrumented path).
    let mut body = format!("{{\"type\":\"meta\",\"bench\":\"{name}\"}}\n");
    body.push_str(&espread_telemetry::sink::to_json_lines(&snapshot));
    let result = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, body));
    match result {
        Ok(()) => println!("\ntelemetry snapshot written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

/// `(count, p50, p99, max)` of the server's window-RTT histogram
/// (`net.server.rtt_us`) in the global registry; zeros before any
/// window closed.
pub fn rtt_summary() -> (u64, u64, u64, u64) {
    let snapshot = espread_telemetry::global().snapshot();
    let Some(h) = snapshot.histogram("net.server.rtt_us") else {
        return (0, 0, 0, 0);
    };
    let percentile = |q: f64| -> u64 {
        let rank = ((q * h.count as f64).ceil() as u64).clamp(1, h.count);
        let mut seen = 0;
        for &(bound, n) in &h.buckets {
            seen += n;
            if seen >= rank {
                return bound;
            }
        }
        h.max
    };
    (h.count, percentile(0.50), percentile(0.99), h.max)
}

/// Mean of a slice (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_runs_matched_channels() {
        let source = paper_source(1, 5, 1);
        let cfg = ProtocolConfig::paper(0.6, 3);
        let cmp = Comparison::run(&cfg, &source);
        assert_eq!(cmp.plain.packets_offered, cmp.spread.packets_offered);
        let (p, s) = cmp.summaries();
        assert_eq!(p.windows, 5);
        assert_eq!(s.windows, 5);
    }

    #[test]
    fn row_aligns() {
        let r = row(&["a".into(), "42".into()], &[3, 5]);
        assert_eq!(r, "  a     42");
    }

    #[test]
    fn plot_contains_series_names() {
        let p = ascii_plot(
            "test",
            &[("first", vec![1.0, 2.0]), ("second", vec![2.0, 1.0])],
            4,
        );
        assert!(p.contains("first"));
        assert!(p.contains("second"));
        assert!(p.contains('*'));
        assert!(p.contains('o'));
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
