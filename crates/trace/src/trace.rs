//! Core bandwidth-trace container and the canonical link name.

use bass_util::stats::StreamingStats;
use bass_util::time::{SimDuration, SimTime};
use bass_util::timeseries::TimeSeries;
use bass_util::units::Bandwidth;
use std::fmt;

/// A time-ordered series of link-capacity samples.
///
/// Replay uses step semantics: the capacity at time `t` is the most
/// recent sample at or before `t`, matching how `tc` rate changes and
/// probed capacity estimates behave.
///
/// # Examples
///
/// ```
/// use bass_trace::BandwidthTrace;
/// use bass_util::prelude::*;
///
/// let mut trace = BandwidthTrace::new("uplink");
/// trace.push(SimTime::ZERO, Bandwidth::from_mbps(25.0));
/// trace.push(SimTime::from_secs(60), Bandwidth::from_mbps(7.0));
/// assert_eq!(trace.capacity_at(SimTime::from_secs(30)).as_mbps(), 25.0);
/// assert_eq!(trace.capacity_at(SimTime::from_secs(90)).as_mbps(), 7.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthTrace {
    name: String,
    samples: Vec<(SimTime, Bandwidth)>,
}

impl BandwidthTrace {
    /// Creates an empty trace with a human-readable name.
    pub fn new(name: impl Into<String>) -> Self {
        BandwidthTrace {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// Creates an empty trace with room for `samples` samples.
    pub(crate) fn with_capacity(name: impl Into<String>, samples: usize) -> Self {
        BandwidthTrace { name: name.into(), samples: Vec::with_capacity(samples) }
    }

    /// Creates a trace holding a single constant capacity from time zero.
    pub fn constant(name: impl Into<String>, capacity: Bandwidth) -> Self {
        let mut t = BandwidthTrace::new(name);
        t.push(SimTime::ZERO, capacity);
        t
    }

    /// The trace's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the previously appended sample.
    pub fn push(&mut self, t: SimTime, capacity: Bandwidth) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(t >= last, "trace samples must be time-ordered");
        }
        self.samples.push((t, capacity));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Borrows the raw samples.
    pub fn samples(&self) -> &[(SimTime, Bandwidth)] {
        &self.samples
    }

    /// The capacity in effect at `t`. Before the first sample (or for an
    /// empty trace) the capacity is zero — the link is not yet up.
    pub fn capacity_at(&self, t: SimTime) -> Bandwidth {
        let idx = self.samples.partition_point(|&(st, _)| st <= t);
        idx.checked_sub(1)
            .map(|i| self.samples[i].1)
            .unwrap_or(Bandwidth::ZERO)
    }

    /// [`capacity_at`](Self::capacity_at) at `t` and the time of the
    /// first sample strictly after `t` — the trace's next change-point,
    /// or `None` when it never changes again — in one forward read from
    /// a caller-held sample cursor. Under step replay the capacity is
    /// constant from `t` to that change-point, which is what lets an
    /// event-driven simulation skip straight to it.
    ///
    /// `cursor` counts the samples at or before the last instant read
    /// through it. A read at or after that instant walks forward from
    /// it — O(samples crossed); a cursor past the end or ahead of `t` (a
    /// different trace read since, or an earlier `t`) is recomputed by
    /// binary search. Either way the answer is exactly the two searches'
    /// and the cursor is left at `t`.
    ///
    /// # Examples
    ///
    /// ```
    /// use bass_trace::BandwidthTrace;
    /// use bass_util::prelude::*;
    ///
    /// let mut trace = BandwidthTrace::new("uplink");
    /// trace.push(SimTime::ZERO, Bandwidth::from_mbps(25.0));
    /// trace.push(SimTime::from_secs(60), Bandwidth::from_mbps(7.0));
    /// let mut cursor = 0;
    /// let (cap, next) = trace.read_forward(SimTime::from_secs(30), &mut cursor);
    /// assert_eq!((cap.as_mbps(), next), (25.0, Some(SimTime::from_secs(60))));
    /// let (cap, next) = trace.read_forward(SimTime::from_secs(90), &mut cursor);
    /// assert_eq!((cap.as_mbps(), next), (7.0, None));
    /// ```
    pub fn read_forward(&self, t: SimTime, cursor: &mut u32) -> (Bandwidth, Option<SimTime>) {
        let s = &self.samples;
        let mut i = *cursor as usize;
        if i > s.len() || (i > 0 && s[i - 1].0 > t) {
            i = s.partition_point(|&(st, _)| st <= t);
        } else {
            while s.get(i).is_some_and(|&(st, _)| st <= t) {
                i += 1;
            }
        }
        *cursor = i as u32;
        let capacity = i.checked_sub(1).map_or(Bandwidth::ZERO, |k| s[k].1);
        (capacity, s.get(i).map(|&(st, _)| st))
    }

    /// Summary statistics over the sample values (in Mbps).
    pub fn stats_mbps(&self) -> StreamingStats {
        self.samples.iter().map(|&(_, b)| b.as_mbps()).collect()
    }

    /// Returns a copy where every sample is replaced by the trace's
    /// maximum capacity — the "no bandwidth variation" baseline of
    /// Table 2, which sets each link to the maximum value observed in the
    /// CityLab trace.
    pub fn flattened_to_max(&self) -> BandwidthTrace {
        let max = self
            .samples
            .iter()
            .map(|&(_, b)| b)
            .fold(Bandwidth::ZERO, Bandwidth::max);
        BandwidthTrace::constant(format!("{}-max", self.name), max)
    }

    /// 10-second-style rolling mean of the capacity, in Mbps.
    pub fn rolling_mean_mbps(&self, window: SimDuration) -> TimeSeries {
        let series: TimeSeries = self
            .samples
            .iter()
            .map(|&(t, b)| (t, b.as_mbps()))
            .collect();
        series.rolling_mean(window)
    }
}

impl fmt::Display for BandwidthTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats_mbps();
        write!(
            f,
            "trace '{}': {} samples, mean={:.2} Mbps, std={:.2} Mbps",
            self.name,
            self.len(),
            stats.mean(),
            stats.std_dev()
        )
    }
}

/// The one name of the undirected link between nodes `a` and `b`, in
/// either order (`"n1-n3"` for `(1, 3)` and `(3, 1)`): a link's trace carries it.
pub fn link_name(a: u32, b: u32) -> String {
    format!("n{}-n{}", a.min(b), a.max(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    #[test]
    fn step_replay_semantics() {
        let mut t = BandwidthTrace::new("l");
        t.push(SimTime::from_secs(10), mbps(5.0));
        t.push(SimTime::from_secs(20), mbps(2.0));
        assert_eq!(t.capacity_at(SimTime::from_secs(0)), Bandwidth::ZERO);
        assert_eq!(t.capacity_at(SimTime::from_secs(10)), mbps(5.0));
        assert_eq!(t.capacity_at(SimTime::from_secs(15)), mbps(5.0));
        assert_eq!(t.capacity_at(SimTime::from_secs(25)), mbps(2.0));
    }

    impl BandwidthTrace {
        /// The sample buffer's allocated capacity, for the exact-size
        /// checks of the generator's tests.
        pub(crate) fn sample_capacity(&self) -> usize {
            self.samples.capacity()
        }
    }

    /// The time of the first sample strictly after `at`, by binary
    /// search: the change-point half of `read_forward`'s oracle.
    fn next_change_after(t: &BandwidthTrace, at: SimTime) -> Option<SimTime> {
        let idx = t.samples.partition_point(|&(st, _)| st <= at);
        t.samples.get(idx).map(|&(st, _)| st)
    }

    #[test]
    fn next_change_after_walks_the_sample_times() {
        let mut t = BandwidthTrace::new("l");
        t.push(SimTime::from_secs(10), mbps(5.0));
        t.push(SimTime::from_secs(10), mbps(6.0));
        t.push(SimTime::from_secs(20), mbps(2.0));
        assert_eq!(next_change_after(&t, SimTime::ZERO), Some(SimTime::from_secs(10)));
        assert_eq!(next_change_after(&t, SimTime::from_secs(10)), Some(SimTime::from_secs(20)));
        assert_eq!(next_change_after(&t, SimTime::from_secs(15)), Some(SimTime::from_secs(20)));
        assert_eq!(next_change_after(&t, SimTime::from_secs(20)), None);
        assert_eq!(next_change_after(&BandwidthTrace::new("e"), SimTime::ZERO), None);
    }

    /// What `read_forward` must equal: the two binary searches.
    fn searched(t: &BandwidthTrace, at: SimTime) -> (Bandwidth, Option<SimTime>) {
        (t.capacity_at(at), next_change_after(t, at))
    }

    #[test]
    fn read_forward_matches_the_two_searches() {
        let mut t = BandwidthTrace::new("l");
        for (s, v) in [(10, 5.0), (10, 6.0), (20, 2.0), (30, 3.0), (40, 4.0), (50, 8.0)] {
            t.push(SimTime::from_secs(s), mbps(v));
        }
        // Before the first sample, exactly on one (duplicate instants
        // included), between two, several skipped in one read, past the
        // end, and a repeat of the last instant.
        let mut cursor = 0;
        for s in [0, 10, 10, 15, 20, 45, 50, 99, 99] {
            let at = SimTime::from_secs(s);
            assert_eq!(t.read_forward(at, &mut cursor), searched(&t, at), "t = {s}");
            assert_eq!(cursor as usize, t.samples().partition_point(|&(st, _)| st <= at));
        }
    }

    #[test]
    fn read_forward_recovers_from_a_stale_cursor() {
        let mut t = BandwidthTrace::new("l");
        for s in 0..10 {
            t.push(SimTime::from_secs(10 * s), mbps(s as f64 + 1.0));
        }
        // Ahead of `t`: an earlier instant, or a cursor left by a longer
        // trace that was swapped out. The last row is already in place.
        for (at, start) in [(25, 7), (0, 10), (95, 11), (95, 4_000_000_000), (5, 1)] {
            let at = SimTime::from_secs(at);
            let mut cursor = start;
            assert_eq!(t.read_forward(at, &mut cursor), searched(&t, at), "{at:?} from {start}");
            assert_eq!(cursor as usize, t.samples().partition_point(|&(st, _)| st <= at));
        }
        // Behind `t` by any distance is a plain forward walk.
        let (mut cursor, late) = (0, SimTime::from_secs(1000));
        assert_eq!(t.read_forward(late, &mut cursor), searched(&t, late));
        assert_eq!(cursor, 10);
    }

    #[test]
    fn read_forward_on_an_empty_trace() {
        let t = BandwidthTrace::new("e");
        for start in [0, 3] {
            let mut cursor = start;
            assert_eq!(t.read_forward(SimTime::from_secs(5), &mut cursor), (Bandwidth::ZERO, None));
            assert_eq!(cursor, 0);
        }
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn push_rejects_out_of_order() {
        let mut t = BandwidthTrace::new("l");
        t.push(SimTime::from_secs(10), mbps(5.0));
        t.push(SimTime::from_secs(5), mbps(1.0));
    }

    #[test]
    fn constant_trace() {
        let t = BandwidthTrace::constant("c", mbps(30.0));
        assert_eq!(t.capacity_at(SimTime::from_secs(1000)), mbps(30.0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn flatten_keeps_the_max() {
        let mut t = BandwidthTrace::new("l");
        t.push(SimTime::ZERO, mbps(10.0));
        t.push(SimTime::from_secs(1), mbps(30.0));
        t.push(SimTime::from_secs(2), mbps(20.0));
        let flat = t.flattened_to_max();
        assert_eq!(flat.capacity_at(SimTime::ZERO), mbps(30.0));
        assert_eq!(flat.len(), 1);
    }

    #[test]
    fn stats_and_display() {
        let mut t = BandwidthTrace::new("l");
        t.push(SimTime::ZERO, mbps(10.0));
        t.push(SimTime::from_secs(1), mbps(20.0));
        let s = t.stats_mbps();
        assert_eq!(s.mean(), 15.0);
        assert!(t.to_string().contains("mean=15.00"));
    }

    #[test]
    fn link_name_is_symmetric() {
        assert_eq!(link_name(3, 1), "n1-n3");
        assert_eq!(link_name(1, 3), "n1-n3");
        assert_eq!(link_name(2, 2), "n2-n2");
        assert_eq!(link_name(10, 9), "n9-n10");
    }
}
