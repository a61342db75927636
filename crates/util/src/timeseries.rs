//! Time-stamped value series with the windowed operations the paper's
//! timeline figures (Figs. 2, 5, 8, 12, 13) rely on.

use crate::stats::StreamingStats;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A series of `(SimTime, f64)` points, ordered by time.
///
/// Points must be appended in non-decreasing time order; this matches how
/// simulations produce metrics and allows binary-search lookups.
///
/// # Examples
///
/// ```
/// use bass_util::time::SimTime;
/// use bass_util::timeseries::TimeSeries;
///
/// let mut ts = TimeSeries::new();
/// ts.push(SimTime::from_secs(0), 1.0);
/// ts.push(SimTime::from_secs(1), 3.0);
/// assert_eq!(ts.stats().mean(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Creates an empty series with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        TimeSeries {
            points: Vec::with_capacity(n),
        }
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last appended time.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time series points must be time-ordered");
        }
        self.points.push((t, value));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Borrows the raw points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Iterator over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().copied()
    }

    /// All values whose timestamps fall in `[start, end)`.
    pub fn window(&self, start: SimTime, end: SimTime) -> impl Iterator<Item = f64> + '_ {
        let lo = self.points.partition_point(|&(t, _)| t < start);
        let hi = self.points.partition_point(|&(t, _)| t < end);
        self.points[lo..hi].iter().map(|&(_, v)| v)
    }

    /// Rolling mean with the given window, producing one smoothed point per
    /// input point (mean of all samples within `(t - window, t]`).
    ///
    /// This mirrors the "10-second rolling mean" presentation of Fig. 2.
    pub fn rolling_mean(&self, window: SimDuration) -> TimeSeries {
        let mut out = TimeSeries::with_capacity(self.points.len());
        let mut lo = 0usize;
        let mut sum = 0.0;
        let mut count = 0usize;
        for (hi, &(t, v)) in self.points.iter().enumerate() {
            sum += v;
            count += 1;
            // Keep points in (t - window, t]: evict pt when t - pt >= window.
            while lo < hi {
                let (pt, pv) = self.points[lo];
                if t.saturating_since(pt) >= window {
                    sum -= pv;
                    count -= 1;
                    lo += 1;
                } else {
                    break;
                }
            }
            out.push(t, sum / count as f64);
        }
        out
    }

    /// Summary statistics over all values.
    pub fn stats(&self) -> StreamingStats {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// Summary statistics restricted to `[start, end)`.
    pub fn stats_in(&self, start: SimTime, end: SimTime) -> StreamingStats {
        self.window(start, end).collect()
    }
}

impl FromIterator<(SimTime, f64)> for TimeSeries {
    /// # Panics
    ///
    /// Panics if the items are not in non-decreasing time order.
    fn from_iter<T: IntoIterator<Item = (SimTime, f64)>>(iter: T) -> Self {
        let mut ts = TimeSeries::new();
        for (t, v) in iter {
            ts.push(t, v);
        }
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn push_rejects_regression() {
        let mut ts = TimeSeries::new();
        ts.push(secs(5), 1.0);
        ts.push(secs(4), 2.0);
    }

    #[test]
    fn window_bounds() {
        let ts: TimeSeries = (0..10).map(|i| (secs(i), i as f64)).collect();
        let vals: Vec<f64> = ts.window(secs(2), secs(5)).collect();
        assert_eq!(vals, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn rolling_mean_smooths() {
        let ts: TimeSeries = (0..100)
            .map(|i| (secs(i), if i % 2 == 0 { 0.0 } else { 10.0 }))
            .collect();
        let smooth = ts.rolling_mean(SimDuration::from_secs(10));
        // After warm-up every window holds ~5 of each → mean ≈ 5.
        let tail = &smooth.points()[20..];
        for &(_, v) in tail {
            assert!((v - 5.0).abs() <= 0.5001, "v={v}");
        }
        assert_eq!(smooth.len(), ts.len());
    }

    #[test]
    fn rolling_mean_first_point_is_itself() {
        let ts: TimeSeries = [(secs(0), 4.0), (secs(1), 8.0)].into_iter().collect();
        let smooth = ts.rolling_mean(SimDuration::from_secs(10));
        assert_eq!(smooth.points()[0], (secs(0), 4.0));
        assert_eq!(smooth.points()[1], (secs(1), 6.0));
    }

    #[test]
    fn stats_in_range() {
        let ts: TimeSeries = (0..10).map(|i| (secs(i), i as f64)).collect();
        let s = ts.stats_in(secs(5), secs(10));
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(ts.stats().count(), 10);
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::new();
        assert!(ts.is_empty());
    }
}
