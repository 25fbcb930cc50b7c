//! Stochastic (expected-case) analysis of transmission orders.
//!
//! The paper's theory is adversarial — [`crate::burst::worst_case_clf`] bounds the damage
//! of the single worst burst — but its evaluation is stochastic: windows
//! face a random *process* that may produce several bursts of varying
//! length. The two rankings need not agree (see the multi-burst
//! experiment), so this module estimates the **expected** per-window CLF
//! of an order under any caller-supplied slot-loss process, by Monte
//! Carlo over windows.
//!
//! The loss process is a plain `FnMut() -> bool` (`true` = the next
//! transmission slot's frame is lost), keeping this crate free of any
//! channel-model dependency: feed it a Gilbert chain, a drop-tail trace,
//! or captured real losses.

use espread_qos::{ContinuityMetrics, LossPattern, WindowSeries, WindowSummary};

use crate::permutation::Permutation;

/// Monte-Carlo estimate of an order's per-window continuity under a
/// slot-loss process.
///
/// Simulates `windows` consecutive windows: for each, the process is
/// polled once per transmission slot, the resulting slot-loss vector is
/// pulled back through the permutation, and the playout-domain metrics
/// are recorded. Returns the summary ([`WindowSummary::mean_clf`] is the
/// quantity Fig. 8 plots).
///
/// # Example
///
/// ```
/// use espread_core::{stochastic::monte_carlo_clf, Permutation};
/// use espread_core::cpo::stride_permutation;
///
/// // A deterministic process losing 3 consecutive slots per 17-slot window.
/// let mut slot = 0usize;
/// let mut process = move || {
///     let lost = (5..8).contains(&(slot % 17));
///     slot += 1;
///     lost
/// };
/// let spread = monte_carlo_clf(&stride_permutation(17, 5), 10, &mut process);
/// assert_eq!(spread.mean_clf, 1.0); // every burst spread to isolated losses
///
/// let mut slot = 0usize;
/// let mut process = move || {
///     let lost = (5..8).contains(&(slot % 17));
///     slot += 1;
///     lost
/// };
/// let plain = monte_carlo_clf(&Permutation::identity(17), 10, &mut process);
/// assert_eq!(plain.mean_clf, 3.0);
/// ```
pub fn monte_carlo_clf(
    perm: &Permutation,
    windows: usize,
    slot_lost: &mut dyn FnMut() -> bool,
) -> WindowSummary {
    monte_carlo_series(perm, windows, slot_lost).summary()
}

/// Like [`monte_carlo_clf`] but returns the full per-window series.
pub fn monte_carlo_series(
    perm: &Permutation,
    windows: usize,
    slot_lost: &mut dyn FnMut() -> bool,
) -> WindowSeries {
    let n = perm.len();
    let mut series = WindowSeries::new();
    for _ in 0..windows {
        let mut playout = LossPattern::all_received(n);
        for slot in 0..n {
            if slot_lost() {
                playout.mark_lost(perm.playout_of_slot(slot));
            }
        }
        series.push(ContinuityMetrics::of(&playout));
    }
    series
}

/// Ranks a set of named orders under the same loss process (replayed from
/// the start for each candidate via the factory), best expected CLF first.
///
/// Returns `(name, mean CLF)` pairs sorted ascending. All candidates must
/// share one window length.
///
/// # Panics
///
/// Panics if the orders' lengths differ.
pub fn rank_orders<'a>(
    orders: &'a [(&'a str, Permutation)],
    windows: usize,
    mut process_factory: impl FnMut() -> Box<dyn FnMut() -> bool>,
) -> Vec<(&'a str, f64)> {
    if let Some(first) = orders.first() {
        assert!(
            orders.iter().all(|(_, p)| p.len() == first.1.len()),
            "all candidate orders must share a window length"
        );
    }
    rank_orders_by(orders, |_, perm| {
        let mut process = process_factory();
        monte_carlo_clf(perm, windows, &mut process).mean_clf
    })
}

/// Ranks named orders by an arbitrary score (smaller is better), ascending.
///
/// The sort uses [`f64::total_cmp`], so degenerate scores (a NaN mean from
/// an empty or zero-probability sample set) rank after every finite score
/// instead of panicking the comparison.
pub fn rank_orders_by<'a>(
    orders: &'a [(&'a str, Permutation)],
    mut score: impl FnMut(&str, &Permutation) -> f64,
) -> Vec<(&'a str, f64)> {
    let mut scored: Vec<(&str, f64)> = orders
        .iter()
        .map(|(name, perm)| (*name, score(name, perm)))
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1));
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpo::stride_permutation;
    use crate::ibo::inverse_binary_order;

    /// A tiny deterministic LCG-driven Bernoulli process for tests.
    fn bernoulli(seed: u64, p_milli: u64) -> Box<dyn FnMut() -> bool> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(1);
        Box::new(move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 1000 < p_milli
        })
    }

    #[test]
    fn lossless_process_gives_zero() {
        let perm = stride_permutation(12, 5);
        let mut never = || false;
        let s = monte_carlo_clf(&perm, 20, &mut never);
        assert_eq!(s.mean_clf, 0.0);
        assert_eq!(s.total_lost, 0);
        assert_eq!(s.windows, 20);
    }

    #[test]
    fn total_loss_process_gives_window() {
        let perm = stride_permutation(12, 5);
        let mut always = || true;
        let s = monte_carlo_clf(&perm, 5, &mut always);
        assert_eq!(s.mean_clf, 12.0);
        assert_eq!(s.mean_alf, 1.0);
    }

    #[test]
    fn alf_independent_of_order() {
        // Same process ⇒ same aggregate loss regardless of permutation.
        let a = {
            let mut p = bernoulli(7, 200);
            monte_carlo_clf(&Permutation::identity(24), 50, &mut p)
        };
        let b = {
            let mut p = bernoulli(7, 200);
            monte_carlo_clf(&stride_permutation(24, 7), 50, &mut p)
        };
        assert_eq!(a.total_lost, b.total_lost);
    }

    #[test]
    fn under_iid_loss_orders_are_equivalent() {
        // With independent slot losses the permutation cannot matter:
        // the playout pattern distribution is exchangeable.
        let mut means = Vec::new();
        for perm in [
            Permutation::identity(20),
            stride_permutation(20, 7),
            inverse_binary_order(20),
        ] {
            let mut p = bernoulli(11, 150);
            means.push(monte_carlo_clf(&perm, 4000, &mut p).mean_clf);
        }
        let spread = means.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
            - means.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        assert!(spread < 0.12, "iid means should agree, got {means:?}");
    }

    #[test]
    fn bursty_process_separates_orders() {
        // A deterministic periodic burst: 4 lost slots every 20.
        let factory = || {
            let mut slot = 0usize;
            Box::new(move || {
                let lost = slot % 20 < 4;
                slot += 1;
                lost
            }) as Box<dyn FnMut() -> bool>
        };
        let orders = vec![
            ("identity", Permutation::identity(20)),
            ("stride7", stride_permutation(20, 7)),
            ("ibo", inverse_binary_order(20)),
        ];
        let ranking = rank_orders(&orders, 30, factory);
        // The identity eats the whole burst (CLF 4); interleavers spread it.
        assert_eq!(ranking.last().unwrap().0, "identity");
        assert_eq!(ranking.last().unwrap().1, 4.0);
        assert!(ranking[0].1 <= 2.0);
    }

    #[test]
    fn nan_scores_rank_last_without_panicking() {
        // Regression: a degenerate loss model (zero-probability window,
        // empty sample set) yields a NaN mean CLF; ranking used to panic
        // in partial_cmp. NaN candidates must sort after every finite one.
        let orders = vec![
            ("healthy", Permutation::identity(8)),
            ("degenerate", stride_permutation(8, 3)),
            ("worse", inverse_binary_order(8)),
        ];
        let ranking = rank_orders_by(&orders, |name, _| match name {
            "healthy" => 1.5,
            "worse" => 3.0,
            _ => f64::NAN,
        });
        assert_eq!(ranking[0].0, "healthy");
        assert_eq!(ranking[1].0, "worse");
        assert_eq!(ranking[2].0, "degenerate");
        assert!(ranking[2].1.is_nan());

        // All-NaN: still no panic, order is the (stable) input order.
        let all_nan = rank_orders_by(&orders, |_, _| f64::NAN);
        assert_eq!(all_nan.len(), 3);
        assert!(all_nan.iter().all(|(_, s)| s.is_nan()));
        assert_eq!(all_nan[0].0, "healthy");
    }

    #[test]
    #[should_panic(expected = "share a window length")]
    fn mixed_lengths_rejected() {
        let orders = vec![
            ("a", Permutation::identity(4)),
            ("b", Permutation::identity(5)),
        ];
        let _ = rank_orders(&orders, 1, || Box::new(|| false));
    }

    #[test]
    fn monte_carlo_series_length_and_range() {
        let perm = crate::cpo::calculate_permutation(12, 3).permutation;
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
}
