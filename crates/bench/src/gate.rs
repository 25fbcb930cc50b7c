//! The one performance gate: every gated metric with its pinned value,
//! checked in-process by the bench binary that measures it.
//!
//! `bench_hotpath` gates its eight families' ratios to their floors,
//! `net_c10k` and `net_overload` their session rates. Each calls
//! [`check`] with its fresh numbers and exits non-zero when it returns
//! `false`. A value fails when it is worse than `value × (1 ± TOLERANCE)`.
//!
//! Re-pinning a gate means editing its row: `value` is the worst of the
//! runs named in the table's comment (the minimum for rates, the maximum
//! for ratios), so a fresh run past the limit is a regression, not noise.
//! A re-pin never loosens a gate: when the worst run is worse than the
//! old pin, the old pin stays and the row's comment says so.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, cost ratios).
    Lower,
    /// Larger is better (rates).
    Higher,
}

/// Allowed relative slack past a pinned value.
const TOLERANCE: f64 = 0.20;

/// One gated metric.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// `<binary>.<family>.<unit>` name the measuring binary reports.
    pub metric: &'static str,
    /// The pinned value.
    pub value: f64,
    /// Which direction is an improvement.
    pub better: Better,
}

impl Gate {
    const fn lower(metric: &'static str, value: f64) -> Gate {
        Gate {
            metric,
            value,
            better: Better::Lower,
        }
    }

    const fn higher(metric: &'static str, value: f64) -> Gate {
        Gate {
            metric,
            value,
            better: Better::Higher,
        }
    }

    /// The worst fresh value that still passes.
    fn limit(&self) -> f64 {
        match self.better {
            Better::Lower => self.value * (1.0 + TOLERANCE),
            Better::Higher => self.value * (1.0 - TOLERANCE),
        }
    }

    /// Whether `fresh` is within the limit.
    fn passes(&self, fresh: f64) -> bool {
        match self.better {
            Better::Lower => fresh <= self.limit(),
            Better::Higher => fresh >= self.limit(),
        }
    }
}

/// Every gated metric. Pins are the worst of 7 runs on a 2-vCPU shared
/// Linux container with rustc 1.95 (2026-10).
pub const GATES: &[Gate] = &[
    // The hotpath ratios' worst runs were above their earlier pins, so
    // those pins are kept.
    Gate::lower("hotpath.kcpo_apply.ratio", 12.151),
    Gate::lower("hotpath.layered_build.ratio", 138.654),
    Gate::lower("hotpath.wire_codec.ratio", 6.453),
    Gate::lower("hotpath.reassembly.ratio", 13.337),
    Gate::lower("hotpath.obs_record.ratio", 1.104),
    // Worst of 10 runs of the interleaved-median measurement.
    Gate::lower("hotpath.plan.ratio", 13.334),
    // Worst of 7 runs (731.1–956.6).
    Gate::lower("hotpath.fec.ratio", 956.588),
    // Worst of 7 runs (67.97–74.84).
    Gate::lower("hotpath.netsim.ratio", 74.840),
    // Worst of 7 runs after shards stopped busy-polling (1256–6607).
    Gate::higher("net_c10k.sessions_per_s", 1256.168),
    // Earlier pin kept: 7 runs gave 482–554.
    Gate::higher("net_overload.sessions_per_s", 512.0),
];

/// Checks each `(metric, fresh)` pair against [`GATES`], printing one
/// verdict line per metric. `false` on any regression or on a metric
/// the table does not know.
pub fn check(results: &[(&str, f64)]) -> bool {
    let mut ok = true;
    for &(metric, fresh) in results {
        match GATES.iter().find(|g| g.metric == metric) {
            Some(gate) => {
                let pass = gate.passes(fresh);
                println!(
                    "gate {metric}: pinned {:.3}, fresh {fresh:.3}, limit {:.3} -> {}",
                    gate.value,
                    gate.limit(),
                    if pass { "ok" } else { "REGRESSION" }
                );
                ok &= pass;
            }
            None => {
                println!("gate {metric}: fresh {fresh:.3}, not in the gate table -> FAIL");
                ok = false;
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(better: Better) -> &'static Gate {
        GATES
            .iter()
            .find(|g| g.better == better)
            .expect("the table gates both directions")
    }

    #[test]
    fn lower_is_better_passes_at_the_limit_and_fails_past_it() {
        let g = first(Better::Lower);
        assert!(check(&[(g.metric, g.limit())]));
        assert!(check(&[(g.metric, g.value)]));
        assert!(!check(&[(g.metric, g.limit() * (1.0 + 1e-9))]));
    }

    #[test]
    fn higher_is_better_passes_at_the_limit_and_fails_past_it() {
        let g = first(Better::Higher);
        assert!(check(&[(g.metric, g.limit())]));
        assert!(check(&[(g.metric, g.value)]));
        assert!(!check(&[(g.metric, g.limit() * (1.0 - 1e-9))]));
    }

    #[test]
    fn unknown_metric_fails() {
        assert!(!check(&[("hotpath.no_such_family.ratio", 1.0)]));
        // One unknown name fails the whole check.
        let g = first(Better::Lower);
        assert!(!check(&[(g.metric, g.value), ("typo", 1.0)]));
    }

    #[test]
    fn table_is_well_formed() {
        for (i, g) in GATES.iter().enumerate() {
            assert!(
                GATES[i + 1..].iter().all(|other| other.metric != g.metric),
                "{} is gated twice",
                g.metric
            );
            assert!(g.value > 0.0, "{}: non-positive pin", g.metric);
        }
    }
}
