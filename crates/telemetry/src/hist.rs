//! A log-linear histogram with lock-free recording.
//!
//! Values below [`LINEAR_CUTOFF`] each get their own bucket; above it,
//! every power-of-two octave is split into [`SUB_BUCKETS`] equal-width
//! sub-buckets (HDR-histogram style). Relative error is therefore bounded
//! by `1 / SUB_BUCKETS` = 12.5 % everywhere, with exact counts for tiny
//! values (burst lengths, small CLFs).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Values below this record exactly (one bucket per value).
pub(crate) const LINEAR_CUTOFF: u64 = 16;
/// Sub-buckets per octave above the linear region.
pub(crate) const SUB_BUCKETS: usize = 8;
/// log2 of [`SUB_BUCKETS`].
const SUB_SHIFT: u32 = 3;
/// Total bucket count: 16 linear + 60 octaves × 8 sub-buckets.
pub(crate) const BUCKETS: usize = LINEAR_CUTOFF as usize + 60 * SUB_BUCKETS;

/// Maps a value to its bucket index.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        return v as usize;
    }
    let log2 = 63 - v.leading_zeros(); // ≥ 4
    let octave = (log2 - 4) as usize;
    let sub = ((v >> (log2 - SUB_SHIFT)) & (SUB_BUCKETS as u64 - 1)) as usize;
    (LINEAR_CUTOFF as usize + octave * SUB_BUCKETS + sub).min(BUCKETS - 1)
}

/// The smallest value mapping to bucket `index`.
pub(crate) fn bucket_lower_bound(index: usize) -> u64 {
    if index < LINEAR_CUTOFF as usize {
        return index as u64;
    }
    let octave = (index - LINEAR_CUTOFF as usize) / SUB_BUCKETS;
    let sub = ((index - LINEAR_CUTOFF as usize) % SUB_BUCKETS) as u64;
    (SUB_BUCKETS as u64 + sub) << (octave + 1)
}

/// Shared histogram state behind a [`crate::Histogram`] handle.
pub(crate) struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        HistogramCore {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    pub(crate) fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of value `v` at once: the state `n` calls of
    /// [`Self::record`] leave (the sum wraps the same way).
    pub(crate) fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        // The extremes only move outward, so a sample inside them skips
        // the read-modify-write (a compare-exchange loop on most targets).
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Folds a snapshot (typically from another registry's histogram of
    /// the same name) into this live histogram. Bucket bounds map back to
    /// their own indices, so bucket-wise addition is exact.
    pub(crate) fn absorb(&self, snap: &HistogramSnapshot) {
        if snap.count == 0 {
            return;
        }
        for &(bound, n) in &snap.buckets {
            self.buckets[bucket_index(bound)].fetch_add(n, Ordering::Relaxed);
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.min.fetch_min(snap.min, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_lower_bound(i), n))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl std::fmt::Debug for HistogramCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramCore")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// `(bucket lower bound, sample count)` for every non-empty bucket,
    /// in ascending bound order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Total samples across buckets — always equals [`Self::count`] for a
    /// quiescent histogram (asserted by the property tests).
    pub fn bucket_total(&self) -> u64 {
        self.buckets.iter().map(|&(_, n)| n).sum()
    }

    /// Folds `other` into `self` (bucket-wise addition; min/max widen).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        let mut merged: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(bound, n) in &other.buckets {
            *merged.entry(bound).or_insert(0) += n;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.buckets = merged.into_iter().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region_is_exact() {
        for v in 0..LINEAR_CUTOFF {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn bounds_are_monotone_and_consistent() {
        let mut prev = None;
        for i in 0..BUCKETS {
            let lo = bucket_lower_bound(i);
            if let Some(p) = prev {
                assert!(lo > p, "bucket {i} bound {lo} not above {p}");
            }
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i} maps back");
            prev = Some(lo);
        }
    }

    #[test]
    fn values_map_within_bucket_bounds() {
        for &v in &[
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            123_456,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(bucket_lower_bound(i) <= v);
            if i + 1 < BUCKETS {
                assert!(v < bucket_lower_bound(i + 1), "value {v} bucket {i}");
            }
        }
    }

    #[test]
    fn relative_error_bounded() {
        // Above the linear cutoff the bucket width is at most 1/8 of the
        // lower bound.
        for i in LINEAR_CUTOFF as usize..BUCKETS - 1 {
            let lo = bucket_lower_bound(i);
            let hi = bucket_lower_bound(i + 1);
            assert!(
                hi - lo <= lo / SUB_BUCKETS as u64 + 1,
                "bucket {i}: {lo}..{hi}"
            );
        }
    }

    #[test]
    fn merge_folds_counts_and_extrema() {
        let a_core = HistogramCore::new();
        a_core.record(3);
        a_core.record(100);
        let b_core = HistogramCore::new();
        b_core.record(7);
        b_core.record(100);
        let mut a = a_core.snapshot();
        let b = b_core.snapshot();
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, 210);
        assert_eq!(a.min, 3);
        assert_eq!(a.max, 100);
        assert_eq!(a.bucket_total(), 4);
        // The shared bucket (100) merged rather than duplicated.
        let bound_100 = bucket_lower_bound(bucket_index(100));
        assert_eq!(
            a.buckets.iter().find(|&&(b, _)| b == bound_100),
            Some(&(bound_100, 2))
        );
    }

    #[test]
    fn record_n_equals_n_records() {
        let batched = HistogramCore::new();
        let single = HistogramCore::new();
        for (v, n) in [(3u64, 4u64), (0, 2), (17, 1), (u64::MAX, 3), (9, 0)] {
            batched.record_n(v, n);
            for _ in 0..n {
                single.record(v);
            }
        }
        assert_eq!(batched.snapshot(), single.snapshot());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let core = HistogramCore::new();
        core.record(42);
        let mut snap = core.snapshot();
        let before = snap.clone();
        snap.merge(&HistogramSnapshot::default());
        assert_eq!(snap, before);

        let mut empty = HistogramSnapshot::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn empty_snapshot_statistics() {
        let snap = HistogramCore::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert_eq!(snap.mean(), 0.0);
        assert!(snap.buckets.is_empty());
    }
}
