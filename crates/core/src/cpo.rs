//! Cyclic Permutation Orders and the `calculatePermutation` search.
//!
//! The paper's scrambling scheme is the **k-Cyclic Permutation Order**
//! (k-CPO): frames of a window of `n` LDUs are sent along a cyclic stride,
//! so that a network burst hits frames far apart in playout order. The
//! companion algorithm `calculatePermutation(n, b)` returns the appropriate
//! order for a sender buffer of `n` LDUs under a bursty-loss bound `b`.
//!
//! Our reconstruction (the original pseudo-code did not survive OCR; see
//! `DESIGN.md` §2.1) performs an **exact search** over two structured
//! families that contain the paper's published example orders:
//!
//! * the [cyclic stride orders](stride_permutation) `π(t) = t·s mod n`
//!   (generalised to non-coprime strides by coset traversal) — the paper's
//!   Table 1 order is `stride_permutation(17, 5)`;
//! * the [block interleavers](crate::interleave::block_interleaver)
//!   (write row-wise, read column-wise), the classical scheme error
//!   spreading generalises.
//!
//! Each candidate is scored by its exact worst-case CLF
//! ([`crate::burst::worst_case_clf`]); ties are broken by the larger
//! [minimum spread gap](crate::burst::min_spread_gap), then by the smaller
//! stride for determinism. Tests verify the search attains the true optimum
//! (over *all* `n!` orders) for every small `n`.

use crate::burst::{min_spread_gap, worst_case_clf};
use crate::interleave::{block_interleaver, block_interleaver_reversed};
use crate::permutation::Permutation;

/// Window sizes up to this bound are solved by exhaustive search over all
/// `n!` orders, guaranteeing true optimality where the structured families
/// have (rare) gaps.
pub const EXHAUSTIVE_LIMIT: usize = 7;

/// The family a chosen spreading order came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderFamily {
    /// The identity (in-playout-order) transmission.
    Identity,
    /// A cyclic stride order with the given stride.
    CyclicStride(usize),
    /// A block interleaver with the given number of rows.
    BlockInterleave(usize),
    /// A block interleaver read with reversed rows, with the given number
    /// of rows.
    BlockInterleaveReversed(usize),
    /// Found by exhaustive search over all orders (tiny windows only).
    Exhaustive,
}

impl std::fmt::Display for OrderFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderFamily::Identity => write!(f, "identity"),
            OrderFamily::CyclicStride(s) => write!(f, "cyclic stride {s}"),
            OrderFamily::BlockInterleave(r) => write!(f, "block interleave {r} rows"),
            OrderFamily::BlockInterleaveReversed(r) => {
                write!(f, "reversed block interleave {r} rows")
            }
            OrderFamily::Exhaustive => write!(f, "exhaustive search"),
        }
    }
}

/// Result of [`calculate_permutation`]: the chosen order plus its exact
/// worst-case guarantee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpreadChoice {
    /// The chosen transmission order.
    pub permutation: Permutation,
    /// The exact worst-case CLF of `permutation` against any single burst
    /// of at most `b` slots.
    pub worst_clf: usize,
    /// Which structured family the order came from.
    pub family: OrderFamily,
}

/// The cyclic stride order over `n` slots with stride `s`.
///
/// For `gcd(s, n) = 1` this is `π(t) = t·s mod n` — the paper's CPO; the
/// Table 1 example is `stride_permutation(17, 5)`. For non-coprime strides
/// the walk `0, s, 2s, …` only visits one residue class, so after each
/// cycle closes the walk restarts from the next unvisited playout index
/// (coset traversal), still yielding a permutation.
///
/// # Panics
///
/// Panics if `s == 0` and `n > 0`.
///
/// # Example
///
/// ```
/// use espread_core::cpo::stride_permutation;
///
/// assert_eq!(stride_permutation(6, 2).as_slice(), &[0, 2, 4, 1, 3, 5]);
/// assert_eq!(
///     stride_permutation(17, 5).as_slice()[..5],
///     [0, 5, 10, 15, 3]
/// );
/// ```
pub fn stride_permutation(n: usize, s: usize) -> Permutation {
    if n == 0 {
        return Permutation::identity(0);
    }
    assert!(s > 0, "stride must be positive");
    let mut forward = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut start = 0;
    while forward.len() < n {
        let mut cur = start;
        while !visited[cur] {
            visited[cur] = true;
            forward.push(cur);
            cur = (cur + s) % n;
        }
        start += 1;
        while start < n && visited[start] {
            start += 1;
        }
        if start >= n {
            break;
        }
    }
    Permutation::from_vec(forward).expect("coset traversal visits each index once")
}

/// `calculatePermutation(n, b)` — the appropriate error-spreading order for
/// a sender buffer of `n` LDUs under a bursty-loss bound of `b` slots per
/// window, together with its exact worst-case CLF.
///
/// Degenerate cases: `b == 0` (no loss) and `b ≥ n` (whole window lost)
/// return the identity, since no order can do better.
///
/// # Example
///
/// ```
/// use espread_core::calculate_permutation;
///
/// let choice = calculate_permutation(17, 5);
/// assert_eq!(choice.worst_clf, 1); // Table 1: burst of 5 spread to CLF 1
/// ```
pub fn calculate_permutation(n: usize, b: usize) -> SpreadChoice {
    let _span = espread_telemetry::span("core.calculate_permutation.ns");
    espread_telemetry::count("core.calculate_permutation.calls", 1);
    if n == 0 || b == 0 || b >= n {
        let permutation = Permutation::identity(n);
        let worst_clf = worst_case_clf(&permutation, b);
        return SpreadChoice {
            permutation,
            worst_clf,
            family: OrderFamily::Identity,
        };
    }

    // Pass 1: score every structured candidate at the design burst size.
    let mut candidates: Vec<(Permutation, OrderFamily)> =
        vec![(Permutation::identity(n), OrderFamily::Identity)];
    for s in 2..n {
        candidates.push((stride_permutation(n, s), OrderFamily::CyclicStride(s)));
    }
    // Block interleavers with every feasible row count (rows ≥ 2, at least
    // two columns); these occasionally beat strides for composite n.
    for rows in 2..=n / 2 {
        candidates.push((
            block_interleaver(n, rows),
            OrderFamily::BlockInterleave(rows),
        ));
        candidates.push((
            block_interleaver_reversed(n, rows),
            OrderFamily::BlockInterleaveReversed(rows),
        ));
    }
    let scores: Vec<usize> = candidates
        .iter()
        .map(|(p, _)| worst_case_clf(p, b))
        .collect();
    let mut best_clf = scores.iter().copied().min().expect("non-empty candidates");

    // For tiny windows the structured families can miss the optimum (the
    // smallest known gap is n = 7, b = 5); close it exhaustively.
    if n <= EXHAUSTIVE_LIMIT {
        if let Some(perm) = exhaustive_better_than(n, b, best_clf) {
            best_clf = worst_case_clf(&perm, b);
            return SpreadChoice {
                permutation: perm,
                worst_clf: best_clf,
                family: OrderFamily::Exhaustive,
            };
        }
    }

    // Pass 2: among ties at the design burst, prefer multi-scale
    // robustness — real channels produce bursts *around* the estimate,
    // and an order that is optimal only at exactly `b` (but fragile at
    // other scales) loses to hierarchical orders like IBO in practice.
    // Score ties by their summed worst-case CLF over power-of-two burst
    // sizes, then by larger minimum spread gap, then first-found.
    let probe_sizes: Vec<usize> = {
        let mut sizes = vec![];
        let mut s = 1;
        while s < n {
            sizes.push(s);
            s *= 2;
        }
        sizes
    };
    let mut best: Option<(usize, usize, usize)> = None; // (idx, profile, gap)
    for (idx, (perm, _)) in candidates.iter().enumerate() {
        if scores[idx] != best_clf {
            continue;
        }
        let profile: usize = probe_sizes.iter().map(|&pb| worst_case_clf(perm, pb)).sum();
        let gap = min_spread_gap(perm, b);
        let better = match best {
            None => true,
            Some((_, cur_profile, cur_gap)) => {
                profile < cur_profile || (profile == cur_profile && gap > cur_gap)
            }
        };
        if better {
            best = Some((idx, profile, gap));
        }
    }
    let (idx, _, _) = best.expect("at least one tied candidate");
    let (permutation, family) = candidates.swap_remove(idx);
    SpreadChoice {
        permutation,
        worst_clf: best_clf,
        family,
    }
}

/// Finds an order over `n` slots with worst-case CLF strictly below
/// `target`, minimising the CLF, by scanning all `n!` orders.
/// Returns `None` when no order beats `target`.
fn exhaustive_better_than(n: usize, b: usize, target: usize) -> Option<Permutation> {
    let mut best: Option<(usize, Vec<usize>)> = None;
    let mut items: Vec<usize> = (0..n).collect();
    // Heap's algorithm, iterative.
    let mut c = vec![0usize; n];
    let evaluate = |items: &[usize], best: &mut Option<(usize, Vec<usize>)>| {
        let perm = Permutation::from_vec(items.to_vec()).expect("permutation by construction");
        let clf = worst_case_clf(&perm, b);
        let current_best = best.as_ref().map(|(v, _)| *v).unwrap_or(target);
        if clf < current_best {
            *best = Some((clf, items.to_vec()));
        }
    };
    evaluate(&items, &mut best);
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                items.swap(0, i);
            } else {
                items.swap(c[i], i);
            }
            evaluate(&items, &mut best);
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    best.map(|(_, v)| Permutation::from_vec(v).expect("permutation by construction"))
}

/// The largest burst bound `b` for which some order over `n` slots keeps
/// the worst-case CLF at or below `k` — the sizing question behind the
/// name *k-CPO* ("k is the user's maximum acceptable CLF").
///
/// Returns `0` when even `b = 1` exceeds the tolerance (only possible for
/// `k == 0`), and `n` when every burst is tolerable.
///
/// # Example
///
/// ```
/// use espread_core::cpo::max_tolerable_burst;
///
/// // A 17-slot window can spread bursts of up to 8 slots at CLF ≤ 2.
/// let b = max_tolerable_burst(17, 2);
/// assert!(b >= 5);
/// ```
pub fn max_tolerable_burst(n: usize, k: usize) -> usize {
    if k == 0 {
        return 0;
    }
    if k >= n {
        return n;
    }
    // worst CLF of the best order is nondecreasing in b, so scan upward.
    // The scan revisits the same (n, b) pairs every adaptation step, so it
    // goes through the memoized cache.
    let mut best_b = 0;
    for b in 1..=n {
        if crate::cache::calculate_permutation_cached(n, b).worst_clf <= k {
            best_b = b;
        } else {
            break;
        }
    }
    best_b
}

/// The smallest window size whose optimal order keeps the worst-case CLF
/// at or below `k` against bursts of `b` — the §4.1 buffer-sizing question
/// inverted: *how much buffering does a given tolerance demand?*
///
/// Scans window sizes from `b + 1` (a window no larger than the burst
/// "meets" any tolerance only by losing everything) up to `limit`;
/// returns `None` when even `limit` slots cannot meet the tolerance.
///
/// # Example
///
/// ```
/// use espread_core::cpo::min_window_for;
///
/// // Spreading a 5-packet burst down to isolated losses needs 17 slots...
/// let n = min_window_for(1, 5, 64).unwrap();
/// assert!(n <= 17);
/// // ...but CLF ≤ 2 is far cheaper.
/// assert!(min_window_for(2, 5, 64).unwrap() < n);
/// ```
pub fn min_window_for(k: usize, b: usize, limit: usize) -> Option<usize> {
    if k == 0 {
        return (b == 0).then_some(0);
    }
    (b + 1..=limit).find(|&n| crate::cache::calculate_permutation_cached(n, b).worst_clf <= k)
}

/// A `k`-CPO: the best order for window `n` sized to the largest burst the
/// user tolerance `k` admits (see [`max_tolerable_burst`]).
///
/// When every burst is tolerable (`k ≥ n`) the order is sized for the
/// largest *spreadable* burst, `n − 1`, so the returned permutation is
/// still a useful interleaving rather than the degenerate identity.
pub fn k_cpo(n: usize, k: usize) -> SpreadChoice {
    (*k_cpo_cached(n, k)).clone()
}

/// [`k_cpo`] without the defensive clone: the shared cache entry itself.
///
/// This is the steady-state form — the returned [`SpreadChoice`] (and the
/// permutation tables inside it) are owned by the process-global order
/// cache, so a window pipeline holding the `Arc` does table lookups with
/// zero per-window allocation.
pub fn k_cpo_cached(n: usize, k: usize) -> std::sync::Arc<SpreadChoice> {
    let _span = espread_telemetry::span("core.k_cpo.ns");
    let b = max_tolerable_burst(n, k).clamp(1, n.saturating_sub(1).max(1));
    crate::cache::calculate_permutation_cached(n, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::clf_lower_bound;

    #[test]
    fn stride_basic_shapes() {
        assert_eq!(stride_permutation(0, 3).len(), 0);
        assert_eq!(stride_permutation(1, 1).as_slice(), &[0]);
        assert_eq!(stride_permutation(5, 1), Permutation::identity(5));
        assert_eq!(stride_permutation(6, 2).as_slice(), &[0, 2, 4, 1, 3, 5]);
        assert_eq!(stride_permutation(6, 3).as_slice(), &[0, 3, 1, 4, 2, 5]);
    }

    #[test]
    fn stride_is_always_a_permutation() {
        for n in 1..40 {
            for s in 1..n {
                let p = stride_permutation(n, s);
                assert_eq!(p.len(), n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_rejected() {
        let _ = stride_permutation(4, 0);
    }

    #[test]
    fn paper_table1_order() {
        let p = stride_permutation(17, 5);
        let expected = [0, 5, 10, 15, 3, 8, 13, 1, 6, 11, 16, 4, 9, 14, 2, 7, 12];
        assert_eq!(p.as_slice(), &expected);
    }

    #[test]
    fn calculate_permutation_degenerate_cases() {
        assert_eq!(calculate_permutation(0, 3).permutation.len(), 0);
        let c = calculate_permutation(8, 0);
        assert!(c.permutation.is_identity());
        assert_eq!(c.worst_clf, 0);
        let c = calculate_permutation(8, 8);
        assert!(c.permutation.is_identity());
        assert_eq!(c.worst_clf, 8);
        let c = calculate_permutation(8, 100);
        assert_eq!(c.worst_clf, 8);
    }

    #[test]
    fn table1_parameters_reach_clf_one() {
        let c = calculate_permutation(17, 5);
        assert_eq!(c.worst_clf, 1);
    }

    #[test]
    fn small_square_windows_reach_clf_one() {
        // Theorem reconstruction: b² ≤ n ⇒ optimal CLF 1.
        for (n, b) in [(9, 3), (16, 4), (25, 5), (10, 3), (20, 4)] {
            let c = calculate_permutation(n, b);
            assert_eq!(c.worst_clf, 1, "n={n} b={b}");
        }
    }

    #[test]
    fn chosen_order_never_worse_than_identity_or_bound() {
        for n in 2..24 {
            for b in 1..n {
                let c = calculate_permutation(n, b);
                assert!(c.worst_clf <= b, "never worse than identity: n={n} b={b}");
                assert!(
                    c.worst_clf >= clf_lower_bound(n, b),
                    "lower bound violated: n={n} b={b}"
                );
            }
        }
    }

    #[test]
    fn exhaustive_optimality_small_n() {
        // Against ALL n! orders: the structured search must attain the true
        // optimum. This is the strongest validation of the reconstruction.
        fn permutations(n: usize) -> Vec<Vec<usize>> {
            if n == 0 {
                return vec![vec![]];
            }
            let mut out = Vec::new();
            let mut items: Vec<usize> = (0..n).collect();
            heap_permute(&mut items, n, &mut out);
            out
        }
        fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
            if k == 1 {
                out.push(items.clone());
                return;
            }
            for i in 0..k {
                heap_permute(items, k - 1, out);
                if k.is_multiple_of(2) {
                    items.swap(i, k - 1);
                } else {
                    items.swap(0, k - 1);
                }
            }
        }
        for n in 2..=7 {
            let all = permutations(n);
            for b in 1..n {
                let optimum = all
                    .iter()
                    .map(|v| worst_case_clf(&Permutation::from_vec(v.clone()).unwrap(), b))
                    .min()
                    .unwrap();
                let found = calculate_permutation(n, b).worst_clf;
                assert_eq!(found, optimum, "search suboptimal at n={n} b={b}");
            }
        }
    }

    #[test]
    fn max_tolerable_burst_monotone_in_k() {
        let n = 17;
        let mut prev = 0;
        for k in 0..=n {
            let b = max_tolerable_burst(n, k);
            assert!(b >= prev, "tolerable burst must grow with tolerance");
            prev = b;
        }
        assert_eq!(max_tolerable_burst(n, n), n);
        assert_eq!(max_tolerable_burst(n, 0), 0);
    }

    #[test]
    fn video_threshold_burst_capacity() {
        // With the perceptual threshold k=2 a 17-slot window tolerates
        // bursts well beyond 5.
        let b = max_tolerable_burst(17, 2);
        assert!(b >= 5, "got {b}");
        let choice = calculate_permutation(17, b);
        assert!(choice.worst_clf <= 2);
    }

    #[test]
    fn k_cpo_respects_tolerance() {
        for (n, k) in [(12, 1), (17, 2), (24, 3)] {
            let c = k_cpo(n, k);
            // The order it returns is sized for the largest tolerable burst.
            assert!(c.worst_clf <= k.max(1), "n={n} k={k} clf={}", c.worst_clf);
        }
    }

    #[test]
    fn k_cpo_window_sizing_consistency() {
        // k_cpo's chosen order tolerates the burst max_tolerable_burst reports.
        for (n, k) in [(17usize, 2usize), (24, 1), (30, 3)] {
            let b = max_tolerable_burst(n, k);
            let choice = k_cpo(n, k);
            assert!(worst_case_clf(&choice.permutation, b) <= k, "n={n} k={k}");
        }
    }

    #[test]
    fn exhaustive_limit_is_honoured() {
        // Below the limit the search may return the Exhaustive family; above
        // it, never (the families must suffice).
        for n in (EXHAUSTIVE_LIMIT + 1)..=16 {
            for b in 1..n {
                let c = calculate_permutation(n, b);
                assert_ne!(c.family, OrderFamily::Exhaustive, "n={n} b={b}");
            }
        }
    }

    #[test]
    fn spread_gap_of_optimal_orders_exceeds_one() {
        // Whenever CLF 1 is achieved against b ≥ 2, lost frames are pairwise
        // non-adjacent, i.e. the minimum spread gap is at least 2.
        for (n, b) in [(17usize, 5usize), (16, 4), (25, 5)] {
            let c = calculate_permutation(n, b);
            assert_eq!(c.worst_clf, 1);
            assert!(min_spread_gap(&c.permutation, b) >= 2, "n={n} b={b}");
        }
    }

    #[test]
    fn min_window_inverts_the_guarantee() {
        // The returned window really meets the tolerance, and nothing
        // smaller does.
        for (k, b) in [(1usize, 3usize), (1, 5), (2, 5), (2, 8), (3, 8)] {
            let n = min_window_for(k, b, 128).expect("limit generous");
            assert!(
                calculate_permutation(n, b).worst_clf <= k,
                "k={k} b={b} n={n}"
            );
            if n > 1 {
                assert!(
                    calculate_permutation(n - 1, b).worst_clf > k,
                    "k={k} b={b}: {} already suffices",
                    n - 1
                );
            }
        }
    }

    #[test]
    fn min_window_edge_cases() {
        // A tolerance at or above the burst needs just one extra slot.
        assert_eq!(min_window_for(3, 2, 16), Some(3));
        // Impossible within the limit.
        assert_eq!(min_window_for(1, 5, 6), None);
        // k = 0 only works for no loss at all.
        assert_eq!(min_window_for(0, 0, 16), Some(0));
        assert_eq!(min_window_for(0, 1, 16), None);
        // Looser tolerance never needs a bigger window.
        let tight = min_window_for(1, 5, 128).unwrap();
        let loose = min_window_for(2, 5, 128).unwrap();
        assert!(loose <= tight);
    }

    #[test]
    fn family_display() {
        assert_eq!(OrderFamily::Identity.to_string(), "identity");
        assert_eq!(OrderFamily::CyclicStride(5).to_string(), "cyclic stride 5");
        assert_eq!(
            OrderFamily::BlockInterleave(3).to_string(),
            "block interleave 3 rows"
        );
    }
}
