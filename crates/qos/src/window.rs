//! Per-buffer-window metric series and their summary statistics.
//!
//! The paper's evaluation (§5.2, Fig. 8) reports the CLF of each of 100
//! consecutive buffer windows together with its **mean** and **deviation**
//! for the scrambled and unscrambled schemes. [`WindowSeries`] accumulates
//! one [`ContinuityMetrics`] per window and produces exactly those
//! statistics.

use std::fmt;

use crate::metrics::ContinuityMetrics;

/// Accumulates continuity metrics over consecutive buffer windows.
///
/// # Example
///
/// ```
/// use espread_qos::{ContinuityMetrics, LossPattern, WindowSeries};
///
/// let mut series = WindowSeries::new();
/// for lost in [vec![1, 2], vec![], vec![7]] {
///     let pattern = LossPattern::from_lost_indices(24, lost);
///     series.push(ContinuityMetrics::of(&pattern));
/// }
/// let summary = series.summary();
/// assert_eq!(summary.windows, 3);
/// assert!((summary.mean_clf - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowSeries {
    windows: Vec<ContinuityMetrics>,
}

impl WindowSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty series with room for `windows` windows.
    pub fn with_capacity(windows: usize) -> Self {
        WindowSeries {
            windows: Vec::with_capacity(windows),
        }
    }

    /// Appends the metrics of the next buffer window.
    pub fn push(&mut self, metrics: ContinuityMetrics) {
        self.windows.push(metrics);
    }

    /// Number of windows recorded so far.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Returns `true` when no windows have been recorded.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The recorded windows, in order.
    pub fn windows(&self) -> &[ContinuityMetrics] {
        &self.windows
    }

    /// Iterates over the per-window CLF values, in order.
    pub fn clf_values(&self) -> impl Iterator<Item = usize> + '_ {
        self.windows.iter().map(|m| m.clf())
    }

    /// Iterates over the per-window ALF fractions, in order.
    pub fn alf_values(&self) -> impl Iterator<Item = f64> + '_ {
        self.windows.iter().map(|m| m.alf().as_f64())
    }

    /// Summarises the series the way the paper's figures do: mean and
    /// (population) standard deviation of the per-window CLF, plus aggregate
    /// loss statistics.
    pub fn summary(&self) -> WindowSummary {
        let n = self.windows.len();
        if n == 0 {
            return WindowSummary::default();
        }
        let nf = n as f64;
        let mean_clf = self.clf_values().sum::<usize>() as f64 / nf;
        let var_clf = self
            .clf_values()
            .map(|c| {
                let d = c as f64 - mean_clf;
                d * d
            })
            .sum::<f64>()
            / nf;
        let mean_alf = self.alf_values().sum::<f64>() / nf;
        let max_clf = self.clf_values().max().unwrap_or(0);
        let total_lost: usize = self.windows.iter().map(|m| m.lost()).sum();
        let total_slots: usize = self.windows.iter().map(|m| m.window_len()).sum();
        WindowSummary {
            windows: n,
            mean_clf,
            dev_clf: var_clf.sqrt(),
            max_clf,
            mean_alf,
            total_lost,
            total_slots,
        }
    }

    /// Fraction of windows whose CLF is at or below `threshold`.
    ///
    /// Fig. 11's headline claim is that the spread scheme "often keeps CLF
    /// at or below 2, the threshold for a perceptually acceptable video
    /// stream"; this is the statistic that checks it.
    pub fn fraction_within_clf(&self, threshold: usize) -> f64 {
        if self.windows.is_empty() {
            return 1.0;
        }
        let ok = self.clf_values().filter(|&c| c <= threshold).count();
        ok as f64 / self.windows.len() as f64
    }
}

impl FromIterator<ContinuityMetrics> for WindowSeries {
    fn from_iter<I: IntoIterator<Item = ContinuityMetrics>>(iter: I) -> Self {
        WindowSeries {
            windows: iter.into_iter().collect(),
        }
    }
}

impl Extend<ContinuityMetrics> for WindowSeries {
    fn extend<I: IntoIterator<Item = ContinuityMetrics>>(&mut self, iter: I) {
        self.windows.extend(iter);
    }
}

/// Summary statistics of a [`WindowSeries`], matching the paper's reporting.
///
/// Fig. 8 reports e.g. "Un Scrambled Mean 1.71, Dev 0.92 / Scrambled Mean
/// 1.46, Dev 0.56" — `mean_clf` and `dev_clf` here.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowSummary {
    /// Number of buffer windows in the series.
    pub windows: usize,
    /// Mean of the per-window CLF.
    pub mean_clf: f64,
    /// Population standard deviation of the per-window CLF.
    pub dev_clf: f64,
    /// Largest per-window CLF observed.
    pub max_clf: usize,
    /// Mean of the per-window ALF fractions.
    pub mean_alf: f64,
    /// Total unit losses across all windows.
    pub total_lost: usize,
    /// Total slots across all windows.
    pub total_slots: usize,
}

impl WindowSummary {
    /// Overall loss fraction across the whole series.
    pub fn overall_alf(&self) -> f64 {
        if self.total_slots == 0 {
            0.0
        } else {
            self.total_lost as f64 / self.total_slots as f64
        }
    }
}

impl fmt::Display for WindowSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} windows: CLF mean {:.2} dev {:.2} max {}, ALF mean {:.3}",
            self.windows, self.mean_clf, self.dev_clf, self.max_clf, self.mean_alf
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::LossPattern;

    fn metrics(len: usize, lost: &[usize]) -> ContinuityMetrics {
        ContinuityMetrics::of(&LossPattern::from_lost_indices(len, lost.iter().copied()))
    }

    #[test]
    fn empty_series_summary_is_zeroed() {
        let s = WindowSeries::new();
        assert!(s.is_empty());
        let summary = s.summary();
        assert_eq!(summary.windows, 0);
        assert_eq!(summary.mean_clf, 0.0);
        assert_eq!(summary.overall_alf(), 0.0);
        assert_eq!(s.fraction_within_clf(0), 1.0);
    }

    #[test]
    fn mean_and_deviation() {
        let mut s = WindowSeries::new();
        // CLFs: 2, 0, 4 → mean 2, population variance (4+4+0)/3, dev sqrt(8/3)
        s.push(metrics(10, &[0, 1]));
        s.push(metrics(10, &[]));
        s.push(metrics(10, &[3, 4, 5, 6]));
        let summary = s.summary();
        assert_eq!(summary.windows, 3);
        assert!((summary.mean_clf - 2.0).abs() < 1e-12);
        assert!((summary.dev_clf - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(summary.max_clf, 4);
        assert_eq!(summary.total_lost, 6);
        assert_eq!(summary.total_slots, 30);
        assert!((summary.overall_alf() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn fraction_within_threshold() {
        let s: WindowSeries = [
            metrics(10, &[0]),
            metrics(10, &[0, 1, 2]),
            metrics(10, &[5]),
            metrics(10, &[]),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.fraction_within_clf(2), 0.75);
        assert_eq!(s.fraction_within_clf(0), 0.25);
        assert_eq!(s.fraction_within_clf(3), 1.0);
    }

    #[test]
    fn series_accessors() {
        let mut s = WindowSeries::new();
        s.extend([metrics(5, &[1]), metrics(5, &[2, 3])]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.clf_values().collect::<Vec<_>>(), vec![1, 2]);
        let alfs: Vec<f64> = s.alf_values().collect();
        assert!((alfs[0] - 0.2).abs() < 1e-12);
        assert!((alfs[1] - 0.4).abs() < 1e-12);
        assert_eq!(s.windows().len(), 2);
    }

    #[test]
    fn summary_display_mentions_all_parts() {
        let s: WindowSeries = [metrics(10, &[0, 1])].into_iter().collect();
        let text = s.summary().to_string();
        assert!(text.contains("1 windows"));
        assert!(text.contains("CLF mean 2.00"));
    }
}
