//! Fixed-width bucket histograms for latency and bitrate distributions.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A histogram with uniform-width buckets over `[lo, hi)` plus overflow
/// and underflow counters.
///
/// # Examples
///
/// ```
/// use bass_util::histogram::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// h.record(3.0);
/// h.record(12.0);
/// assert_eq!(h.bucket_count(1), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `buckets` uniform buckets.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `buckets == 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            lo,
            hi,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Records one sample by its layout position, found by the caller: 0
    /// is the underflow, `i` in `1..=num_buckets()` bucket `i - 1`, above that the overflow.
    pub fn record_at(&mut self, position: usize) {
        self.total += 1;
        match position {
            0 => self.underflow += 1,
            i if i <= self.buckets.len() => self.buckets[i - 1] += 1,
            _ => self.overflow += 1,
        }
    }

    /// Count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// The `[lo, hi)` bounds of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_bounds(&self, i: usize) -> (f64, f64) {
        assert!(i < self.buckets.len(), "bucket index out of range");
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        (self.lo + i as f64 * width, self.lo + (i + 1) as f64 * width)
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Folds another histogram's counts into this one — how campaign
    /// replicas combine their streaming distributions without retaining
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics unless both histograms share the same range and bucket
    /// count.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi
                && self.buckets.len() == other.buckets.len(),
            "merged histograms must share their bucket layout"
        );
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// Approximate quantile from bucket midpoints (underflow maps to `lo`,
    /// overflow to `hi`). Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn approx_quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.total == 0 {
            return 0.0;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return self.lo;
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let (blo, bhi) = self.bucket_bounds(i);
                return (blo + bhi) / 2.0;
            }
        }
        self.hi
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "histogram [{:.3}, {:.3}) n={} under={} over={}",
            self.lo, self.hi, self.total, self.underflow, self.overflow
        )?;
        let max = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (i, &c) in self.buckets.iter().enumerate() {
            let (blo, bhi) = self.bucket_bounds(i);
            let bar = "#".repeat((c * 40 / max) as usize);
            writeln!(f, "  [{blo:>10.3}, {bhi:>10.3}) {c:>8} {bar}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_buckets() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        h.record(5.0);
        h.record(15.0);
        h.record(15.5);
        h.record(99.999);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(1), 2);
        assert_eq!(h.bucket_count(9), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn under_over_flow() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(-0.1);
        h.record(1.0);
        h.record(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn bucket_bounds_partition_range() {
        let h = Histogram::new(10.0, 20.0, 4);
        assert_eq!(h.bucket_bounds(0), (10.0, 12.5));
        assert_eq!(h.bucket_bounds(3), (17.5, 20.0));
    }

    #[test]
    fn approx_quantile_midpoints() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for i in 0..100 {
            h.record(i as f64);
        }
        let median = h.approx_quantile(0.5);
        assert!((median - 45.0).abs() <= 10.0, "median {median}");
        assert_eq!(Histogram::new(0.0, 1.0, 1).approx_quantile(0.5), 0.0);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        a.record(1.0);
        a.record(-1.0);
        let mut b = Histogram::new(0.0, 10.0, 5);
        b.record(1.5);
        b.record(99.0);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.bucket_count(0), 2);
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.overflow(), 1);
    }

    #[test]
    #[should_panic(expected = "bucket layout")]
    fn merge_rejects_mismatched_layout() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        a.merge(&Histogram::new(0.0, 10.0, 6));
    }

    #[test]
    fn display_is_nonempty() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.record(1.0);
        let s = h.to_string();
        assert!(s.contains("histogram"));
        assert!(s.contains('#'));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_bad_range() {
        let _ = Histogram::new(5.0, 5.0, 3);
    }
}
