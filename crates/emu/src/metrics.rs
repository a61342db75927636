//! Experiment metric recording: named time series and sample batches.

use bass_util::stats::{Percentiles, StreamingStats};
use bass_util::time::SimTime;
use bass_util::timeseries::TimeSeries;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Collects named metrics during a run.
///
/// Two shapes are supported:
///
/// - **series**: `(time, value)` points (e.g. "average latency at every
///   second", Fig. 5/13, or per-client bitrate, Fig. 12);
/// - **samples**: unordered batches (e.g. all request latencies, from
///   which Fig. 14's CDFs and Fig. 11's p99s are computed).
///
/// # Examples
///
/// ```
/// use bass_emu::Recorder;
/// use bass_util::prelude::*;
///
/// let mut rec = Recorder::new();
/// rec.record_sample("latency_ms", 412.0);
/// rec.record_sample("latency_ms", 431.0);
/// assert_eq!(rec.percentiles("latency_ms").len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Recorder {
    series: BTreeMap<String, TimeSeries>,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Appends a `(t, value)` point to the named series.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the series' last point.
    pub fn record_series(&mut self, name: &str, t: SimTime, value: f64) {
        self.series.entry(name.to_owned()).or_default().push(t, value);
    }

    /// Adds a sample to the named batch.
    pub fn record_sample(&mut self, name: &str, value: f64) {
        self.samples.entry(name.to_owned()).or_default().push(value);
    }

    /// The named series (empty if never recorded).
    pub fn series(&self, name: &str) -> TimeSeries {
        self.series.get(name).cloned().unwrap_or_default()
    }

    /// The named sample batch (empty if never recorded).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Percentile summary of a sample batch.
    pub fn percentiles(&self, name: &str) -> Percentiles {
        Percentiles::from_samples(self.samples(name))
    }

    /// Streaming statistics of a sample batch.
    pub fn stats(&self, name: &str) -> StreamingStats {
        self.samples(name).iter().copied().collect()
    }

    /// Merges another recorder's content into this one (series must not
    /// overlap in time if shared; samples simply concatenate).
    pub fn merge(&mut self, other: &Recorder) {
        for (name, ts) in &other.series {
            let entry = self.series.entry(name.clone()).or_default();
            for (t, v) in ts.iter() {
                entry.push(t, v);
            }
        }
        for (name, batch) in &other.samples {
            self.samples
                .entry(name.clone())
                .or_default()
                .extend_from_slice(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_and_samples_are_independent_namespaces() {
        let mut r = Recorder::new();
        r.record_series("x", SimTime::ZERO, 1.0);
        r.record_sample("x", 2.0);
        assert_eq!(r.series("x").len(), 1);
        assert_eq!(r.samples("x"), &[2.0]);
    }

    #[test]
    fn missing_names_are_empty() {
        let r = Recorder::new();
        assert!(r.series("nope").is_empty());
        assert!(r.samples("nope").is_empty());
        assert!(r.percentiles("nope").is_empty());
        assert_eq!(r.stats("nope").count(), 0);
    }

    #[test]
    fn percentiles_and_stats() {
        let mut r = Recorder::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            r.record_sample("lat", v);
        }
        assert_eq!(r.percentiles("lat").median(), 2.5);
        assert_eq!(r.stats("lat").mean(), 2.5);
    }

    #[test]
    fn single_sample_percentiles_collapse_to_that_sample() {
        let mut r = Recorder::new();
        r.record_sample("lat", 7.5);
        let p = r.percentiles("lat");
        assert_eq!(p.len(), 1);
        assert_eq!(p.median(), 7.5);
        assert_eq!(p.p95(), 7.5);
        assert_eq!(p.p99(), 7.5);
        assert_eq!(p.quantile(0.0), 7.5);
        assert_eq!(p.quantile(1.0), 7.5);
        assert_eq!(r.stats("lat").mean(), 7.5);
    }

    #[test]
    fn empty_percentiles_are_well_defined() {
        let r = Recorder::new();
        let p = r.percentiles("lat");
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(r.stats("lat").min(), None);
    }

    #[test]
    fn merging_empty_recorders_is_a_no_op() {
        let mut a = Recorder::new();
        a.record_series("ts", SimTime::from_secs(1), 1.0);
        a.record_sample("lat", 1.0);
        // Empty into populated: nothing changes.
        let before = a.clone();
        a.merge(&Recorder::new());
        assert_eq!(a, before);
        // Populated into empty: everything copies over.
        let mut empty = Recorder::new();
        empty.merge(&a);
        assert_eq!(empty, a);
        // A series that exists on one side only merges as-is.
        let mut b = Recorder::new();
        b.record_series("other", SimTime::from_secs(2), 2.0);
        a.merge(&b);
        assert_eq!(a.series("ts").len(), 1);
        assert_eq!(a.series("other").len(), 1);
    }

    #[test]
    fn merge_concatenates() {
        let mut a = Recorder::new();
        a.record_sample("lat", 1.0);
        a.record_series("ts", SimTime::from_secs(1), 1.0);
        let mut b = Recorder::new();
        b.record_sample("lat", 2.0);
        b.record_series("ts", SimTime::from_secs(2), 2.0);
        a.merge(&b);
        assert_eq!(a.samples("lat"), &[1.0, 2.0]);
        assert_eq!(a.series("ts").len(), 2);
    }
}
