//! `compare A.json B.json`: every (end-to-end metric, workload) pair of two
//! result files, checked against its bound. `A` is the reference (the
//! parent), `B` the candidate; only a change for the worse can break a
//! bound.

use espread_exec::Json;

use crate::json::{entries, field, number, parse, string};
use crate::stats::median;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, losses).
    Lower,
    /// Larger is better (rates, reductions).
    Higher,
}

/// How far a metric may get worse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the reference value.
    Relative(f64),
    /// An amount in the metric's unit; `Absolute(0.0)` for numbers that
    /// must repeat exactly.
    Absolute(f64),
}

/// Bounds of the workload-specific quality metrics `BENCHMARK.json` cannot
/// list: they are deterministic per seed, so they must repeat. The other
/// workload-specific numbers (whole-run p99, connect times) swing by more
/// than a quarter between runs on a shared host and are not compared.
pub const EXTRA_BOUNDS: [(&str, Better, Bound); 3] = [
    ("clf_mean", Better::Lower, Bound::Absolute(0.0)),
    ("clf_reduction", Better::Higher, Bound::Absolute(0.0)),
    ("critical_loss_share", Better::Lower, Bound::Absolute(0.0)),
];

/// Whether `b` is no worse than `a` by more than `bound`.
pub fn within(a: f64, b: f64, better: Better, bound: Bound) -> bool {
    let worse_by = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    match bound {
        Bound::Relative(share) => worse_by <= share * a.abs(),
        Bound::Absolute(amount) => worse_by <= amount,
    }
}

/// One checked pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (or `failed`).
    pub metric: String,
    /// Reference value.
    pub a: f64,
    /// Candidate value.
    pub b: f64,
    /// The bound applied.
    pub bound: Bound,
    /// Whether the candidate stayed within it.
    pub ok: bool,
}

/// `BENCHMARK.json`'s end-to-end metrics as `(name, better, relative bound)`.
///
/// # Errors
///
/// A malformed file.
pub fn declared_bounds(benchmark: &Json) -> Result<Vec<(String, Better, Bound)>, String> {
    let Some(Json::Array(list)) = field(benchmark, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    list.iter()
        .map(|m| {
            let name = field(m, "name")
                .and_then(string)
                .ok_or("metric without a name")?;
            let better = match field(m, "better").and_then(string) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = field(m, "bound")
                .and_then(number)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok((name.to_string(), better, Bound::Relative(bound)))
        })
        .collect()
}

fn value(report: &Json, section: &str, metric: &str) -> Option<f64> {
    field(report, section)
        .and_then(|s| field(s, metric))
        .and_then(|m| field(m, "value"))
        .and_then(number)
}

/// The median over one side's result files of a number in a workload's
/// report; `None` when no file has it.
fn side_value(docs: &[Json], workload: &str, pick: &dyn Fn(&Json) -> Option<f64>) -> Option<f64> {
    let values: Vec<f64> = docs
        .iter()
        .filter_map(|d| field(d, "workloads").and_then(|w| field(w, workload)))
        .filter_map(pick)
        .collect();
    median(&values)
}

/// Checks every pair both sides carry, each side the median over its
/// result files (one file per run).
///
/// # Errors
///
/// A side without files, or a result file without a `workloads` object.
pub fn rows(
    a: &[Json],
    b: &[Json],
    declared: &[(String, Better, Bound)],
) -> Result<Vec<Row>, String> {
    if a.is_empty() || b.is_empty() || a.iter().chain(b).any(|d| field(d, "workloads").is_none()) {
        return Err("result file without a workloads object".into());
    }
    let mut rows = Vec::new();
    for (workload, _) in entries(field(&a[0], "workloads").expect("checked above")) {
        let mut push = |metric: &str, pick: &dyn Fn(&Json) -> Option<f64>, better, bound| {
            let va = side_value(a, workload, pick);
            let vb = side_value(b, workload, pick);
            if let (Some(va), Some(vb)) = (va, vb) {
                rows.push(Row {
                    workload: workload.clone(),
                    metric: metric.to_string(),
                    a: va,
                    b: vb,
                    bound,
                    ok: within(va, vb, better, bound),
                });
            }
        };
        for (name, better, bound) in declared {
            push(name, &|r| value(r, "metrics", name), *better, *bound);
        }
        for (name, better, bound) in EXTRA_BOUNDS {
            push(name, &|r| value(r, "extra", name), better, bound);
        }
        push(
            "failed",
            &|r| field(r, "failed").and_then(number),
            Better::Lower,
            Bound::Absolute(0.0),
        );
    }
    Ok(rows)
}

/// Runs the subcommand with the bounds of `./BENCHMARK.json`; `a` and `b`
/// each name one result file or a comma-separated list of them. Returns
/// the exit code.
pub fn main(a: &str, b: &str) -> i32 {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let load_side = |list: &str| list.split(',').map(load).collect::<Result<Vec<_>, _>>();
    let result = (|| {
        let declared = declared_bounds(&load("BENCHMARK.json")?)?;
        let (a, b) = (load_side(a)?, load_side(b)?);
        let seeds = |docs: &[Json]| -> Vec<Json> {
            docs.iter()
                .filter_map(|d| {
                    field(d, "measured_on")
                        .and_then(|m| field(m, "seed"))
                        .cloned()
                })
                .collect()
        };
        if seeds(&a) != seeds(&b) {
            println!("note: the two sides used different seeds; quality numbers will differ");
        }
        rows(&a, &b, &declared)
    })();
    let rows = match result {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<11} {:<20} {:>14} {:>14} {:>12} {:>9} {:>12}  verdict",
        "workload", "metric", "A", "B", "B-A", "B/A-1", "bound"
    );
    for r in &rows {
        let rel = if r.a != 0.0 {
            format!("{:+.2}%", (r.b / r.a - 1.0) * 100.0)
        } else {
            "-".into()
        };
        let bound = match r.bound {
            Bound::Relative(s) => format!("{:.0}%", s * 100.0),
            Bound::Absolute(x) => format!("±{x}"),
        };
        println!(
            "{:<11} {:<20} {:>14.6} {:>14.6} {:>12.6} {:>9} {:>12}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.b - r.a,
            rel,
            bound,
            if r.ok { "ok" } else { "WORSE" }
        );
    }
    let worse = rows.iter().filter(|r| !r.ok).count();
    println!("{} pairs compared, {worse} outside their bound", rows.len());
    i32::from(worse > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_bounds_are_one_sided() {
        let b = Bound::Relative(0.1);
        assert!(within(100.0, 109.0, Better::Lower, b));
        assert!(!within(100.0, 111.0, Better::Lower, b));
        assert!(within(100.0, 50.0, Better::Lower, b), "better is fine");
        assert!(within(100.0, 91.0, Better::Higher, b));
        assert!(!within(100.0, 89.0, Better::Higher, b));
        assert!(within(100.0, 200.0, Better::Higher, b));
    }

    #[test]
    fn absolute_zero_bounds_demand_no_change_for_the_worse() {
        let exact = Bound::Absolute(0.0);
        assert!(within(1.24, 1.24, Better::Lower, exact));
        assert!(!within(1.24, 1.2400001, Better::Lower, exact));
        assert!(within(1.24, 1.2, Better::Lower, exact));
        assert!(!within(0.4, 0.39, Better::Higher, exact));
        assert!(within(0.0, 0.0, Better::Lower, exact), "failed count 0 → 0");
        assert!(!within(0.0, 1.0, Better::Lower, exact));
    }

    fn result(sessions_per_s: f64, clf: f64, failed: i64) -> Json {
        parse(&format!(
            r#"{{"measured_on": {{"seed": 42}}, "workloads": {{"sim_fig8": {{
                "failed": {failed},
                "metrics": {{"sessions_per_s": {{"value": {sessions_per_s}, "unit": "1/s"}}}},
                "extra": {{"clf_mean": {{"value": {clf}, "unit": "frames"}},
                          "critical_loss_share": {{"value": null, "unit": "ratio"}}}}}}}}}}"#
        ))
        .expect("well-formed")
    }

    #[test]
    fn rows_cover_declared_extra_and_failed() {
        let bench = parse(
            r#"{"end_to_end": [{"name": "sessions_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let declared = declared_bounds(&bench).unwrap();
        let rows = rows(
            &[result(1000.0, 1.24, 0)],
            &[result(950.0, 1.24, 0)],
            &declared,
        )
        .unwrap();
        let names: Vec<&str> = rows.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(
            names,
            ["sessions_per_s", "clf_mean", "failed"],
            "null pairs skipped"
        );
        assert!(rows.iter().all(|r| r.ok));

        let rows2 = super::rows(
            &[result(1000.0, 1.24, 0)],
            &[result(850.0, 1.3, 2)],
            &declared,
        )
        .unwrap();
        assert!(rows2.iter().all(|r| !r.ok));
    }

    #[test]
    fn each_side_is_the_median_of_its_runs() {
        let bench = parse(
            r#"{"end_to_end": [{"name": "sessions_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let declared = declared_bounds(&bench).unwrap();
        // One slow outlier on B does not move its median.
        let a = [result(1000.0, 1.24, 0)];
        let b = [
            result(700.0, 1.24, 0),
            result(990.0, 1.24, 0),
            result(1010.0, 1.24, 0),
        ];
        let rows = rows(&a, &b, &declared).unwrap();
        assert_eq!((rows[0].a, rows[0].b), (1000.0, 990.0));
        assert!(rows.iter().all(|r| r.ok));
    }
}
