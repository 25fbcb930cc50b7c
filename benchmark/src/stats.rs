//! Order statistics for latency samples.

/// Samples that must lie beyond a percentile before it is reported: a
/// tail read off fewer than ten samples is one or two outliers, not a
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending `sorted` sample, with the
/// percentile given in per-mille (`500` = median, `990` = p99) so the rank
/// is exact integer arithmetic.
///
/// Returns `None` when fewer than [`MIN_BEYOND`] samples lie above the
/// rank — p99 needs at least 1,000 samples, p95 at least 200.
pub fn percentile(sorted: &[f64], per_mille: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || per_mille == 0 || per_mille > 1000 {
        return None;
    }
    let rank = (n * per_mille).div_ceil(1000);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// [`percentile`] over a histogram given as ascending `(bucket lower
/// bound, count)` pairs: the lower bound of the bucket holding the rank.
pub fn bucket_percentile(buckets: &[(u64, u64)], per_mille: u64) -> Option<u64> {
    let n: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if n == 0 || per_mille == 0 || per_mille > 1000 {
        return None;
    }
    let rank = (n * per_mille).div_ceil(1000);
    if n - rank < MIN_BEYOND as u64 {
        return None;
    }
    let mut seen = 0;
    buckets.iter().find_map(|&(bound, c)| {
        seen += c;
        (seen >= rank).then_some(bound)
    })
}

/// Mean of the middle half: the lowest and highest quarter (rounded
/// down) are dropped. Unlike the median it averages a sample that falls
/// into two clusters instead of jumping between them, and unlike the mean
/// it ignores the few outliers a burst of contention produces. `None`
/// when empty.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    (!middle.is_empty()).then(|| middle.iter().sum::<f64>() / middle.len() as f64)
}

/// The middle value (mean of the two middle values for an even count);
/// `None` when empty. For small repeated measurements such as set-up
/// probes, where the tail rule of [`percentile`] does not apply.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p99_is_refused_under_a_thousand_samples() {
        assert_eq!(percentile(&ramp(1000), 990), Some(990.0));
        assert_eq!(percentile(&ramp(999), 990), None);
        assert_eq!(percentile(&ramp(5000), 990), Some(4950.0));
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(percentile(&ramp(200), 950), Some(190.0));
        assert_eq!(percentile(&ramp(199), 950), None);
    }

    #[test]
    fn nearest_rank_median() {
        assert_eq!(percentile(&ramp(20), 500), Some(10.0));
        assert_eq!(percentile(&ramp(21), 500), Some(11.0));
        assert_eq!(percentile(&ramp(19), 500), None, "only 9 beyond");
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn bucket_percentiles_follow_the_same_rule() {
        // 100 samples: 50 at 10, 40 at 20, 10 at 40.
        let buckets = [(10, 50), (20, 40), (40, 10)];
        assert_eq!(bucket_percentile(&buckets, 500), Some(10));
        assert_eq!(bucket_percentile(&buckets, 900), Some(20));
        assert_eq!(bucket_percentile(&buckets, 950), None, "5 beyond");
        assert_eq!(bucket_percentile(&[], 500), None);
    }

    #[test]
    fn interquartile_mean_drops_each_outer_quarter() {
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]),
            Some(3.5)
        );
        assert_eq!(
            interquartile_mean(&[1.0, 2.0, 3.0]),
            Some(2.0),
            "nothing to drop"
        );
        assert_eq!(interquartile_mean(&[7.0]), Some(7.0));
        assert_eq!(interquartile_mean(&[]), None);
        // Two clusters: the median would pick one side, this averages.
        let clusters = [10.0, 10.0, 10.0, 10.0, 12.0, 12.0, 12.0, 12.0];
        assert_eq!(interquartile_mean(&clusters), Some(11.0));
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
