//! Streaming and batch statistics.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Single-pass streaming statistics using Welford's algorithm.
///
/// Tracks count, mean, variance, min, and max without storing samples.
///
/// # Examples
///
/// ```
/// use bass_util::stats::StreamingStats;
///
/// let mut s = StreamingStats::new();
/// for x in [2.0, 4.0, 6.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.min(), Some(2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance, or 0 when fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (σ/μ), or 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.std_dev() / self.mean.abs()
        }
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 += other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for StreamingStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} std={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean,
            self.std_dev(),
            self.min().unwrap_or(f64::NAN),
            self.max().unwrap_or(f64::NAN)
        )
    }
}

impl Extend<f64> for StreamingStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for StreamingStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = StreamingStats::new();
        s.extend(iter);
        s
    }
}

/// A percentile summary of a batch of samples.
///
/// Computed once from a sample vector; exposes the quantiles the paper
/// reports (median, p99, quartiles).
///
/// # Examples
///
/// ```
/// use bass_util::stats::Percentiles;
///
/// let p = Percentiles::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
/// assert_eq!(p.median(), 3.0);
/// assert_eq!(p.quantile(1.0), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Percentiles {
    sorted: Vec<f64>,
}

impl Percentiles {
    /// Builds a summary from samples. NaN samples are dropped.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        Percentiles { sorted }
    }

    /// Number of (non-NaN) samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile (`q` in `[0, 1]`) with linear interpolation, or 0
    /// when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.sorted.is_empty() {
            return 0.0;
        }
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.sorted[lo]
        } else {
            let frac = pos - lo as f64;
            self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
        }
    }

    /// Median (p50).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Upper quartile (p75).
    pub fn upper_quartile(&self) -> f64 {
        self.quantile(0.75)
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Down-samples the empirical CDF into `n` evenly spaced
    /// `(value, fraction)` points, as the paper's CDF plots (Fig. 14a/b)
    /// print them. Empty when `n == 0` or there are no samples.
    pub fn points(&self, n: usize) -> Vec<(f64, f64)> {
        if n == 0 || self.is_empty() {
            return Vec::new();
        }
        (0..n)
            .map(|i| {
                let q = if n == 1 { 1.0 } else { i as f64 / (n - 1) as f64 };
                (self.quantile(q), q)
            })
            .collect()
    }
}

impl FromIterator<f64> for Percentiles {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let samples: Vec<f64> = iter.into_iter().collect();
        Percentiles::from_samples(&samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_basics() {
        let s: StreamingStats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn streaming_empty() {
        let s = StreamingStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn streaming_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let full: StreamingStats = xs.iter().copied().collect();
        let mut a: StreamingStats = xs[..37].iter().copied().collect();
        let b: StreamingStats = xs[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), full.count());
        assert!((a.mean() - full.mean()).abs() < 1e-9);
        assert!((a.variance() - full.variance()).abs() < 1e-9);
        assert_eq!(a.min(), full.min());
        assert_eq!(a.max(), full.max());
    }

    #[test]
    fn streaming_merge_with_empty() {
        let mut a = StreamingStats::new();
        let b: StreamingStats = [5.0, 7.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.mean(), 6.0);
        let mut c: StreamingStats = [1.0].into_iter().collect();
        c.merge(&StreamingStats::new());
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn cv_matches_definition() {
        // Paper Fig. 2: link with mean 7.62 and std 27% of the mean.
        let s: StreamingStats = [7.62 - 2.0574, 7.62 + 2.0574].into_iter().collect();
        assert!((s.cv() - 0.27).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolation() {
        let p = Percentiles::from_samples(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(p.median(), 25.0);
        assert_eq!(p.quantile(0.0), 10.0);
        assert_eq!(p.quantile(1.0), 40.0);
        assert!((p.upper_quartile() - 32.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_drop_nan() {
        let p = Percentiles::from_samples(&[1.0, f64::NAN, 3.0]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.median(), 2.0);
    }

    #[test]
    fn percentiles_empty() {
        let p = Percentiles::from_samples(&[]);
        assert!(p.is_empty());
        assert_eq!(p.median(), 0.0);
        assert_eq!(p.mean(), 0.0);
    }

    #[test]
    fn points_shape() {
        let p: Percentiles = (1..=100).map(|i| i as f64).collect();
        let pts = p.points(5);
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0].1, 0.0);
        assert_eq!(pts[4].1, 1.0);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn points_edge_cases() {
        let empty = Percentiles::from_samples(&[]);
        assert!(empty.points(10).is_empty());
        let single = Percentiles::from_samples(&[7.0]);
        assert_eq!(single.points(1), vec![(7.0, 1.0)]);
        assert!(single.points(0).is_empty());
    }

    #[test]
    fn p99_on_large_batch() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let p = Percentiles::from_samples(&samples);
        assert!((p.p99() - 990.01).abs() < 0.5);
        assert!((p.p95() - 950.05).abs() < 0.5);
    }
}
