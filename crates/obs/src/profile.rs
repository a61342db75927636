//! Span-based tick profiling: where a simulation tick's wall-clock time
//! actually goes.
//!
//! The profiler answers the question the event [`Journal`](crate::Journal)
//! cannot: the journal records *what* the orchestrator decided, this
//! module records *what it cost*. Every instrumented code region — a
//! per-tick phase of the emulator, a probe pass, the water-filling
//! allocator — is a **span** identified by a `&'static str` name (see
//! `docs/OBSERVABILITY.md` for the full span taxonomy), and the
//! [`SpanProfiler`] keeps one streaming [`SpanStats`] per span: count,
//! total/min/max nanoseconds, and a fixed-layout log-scale
//! [`Histogram`] so replicas can merge their distributions without
//! retaining samples.
//!
//! Three invariants keep profiling safe to enable anywhere:
//!
//! 1. **Zero cost when off.** Every instrumentation point takes
//!    `Option<&mut SpanProfiler>`; with `None`, no monotonic clock is
//!    ever read and the hot path pays one branch per span.
//! 2. **Wall-clock never touches simulation state.** Timings live only
//!    in the profiler and are emitted through side channels (the
//!    `profile` summary section, the Prometheus exposition); simulation
//!    outputs stay byte-identical whether profiling is on or off.
//! 3. **Deterministic layout.** The histogram layout is fixed by code
//!    ([`span_histogram`]), so any two profilers merge.
//!
//! ```
//! use bass_obs::profile::{PhaseClock, SpanProfiler};
//!
//! let mut prof = SpanProfiler::new();
//! let mut clock = PhaseClock::new(true);
//! std::hint::black_box(40 + 2); // ... phase work ...
//! clock.lap(Some(&mut prof), "tick.demo");
//! assert_eq!(prof.stats("tick.demo").unwrap().count, 1);
//! ```

use bass_util::histogram::Histogram;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The fixed span-duration histogram layout: `log10(nanoseconds)` over
/// `[1.0, 9.0)` in 32 buckets — a quarter of a decade per bucket, from
/// 10 ns to 1 s. Durations under 10 ns land in the underflow counter,
/// one second or longer in the overflow counter. Fixed by code so any
/// two profilers (e.g. campaign replicas) can merge.
pub fn span_histogram() -> Histogram {
    Histogram::new(1.0, 9.0, 32)
}

/// For each [`span_histogram`] position `p` below the overflow's (see
/// [`Histogram::record_at`]), the fewest nanoseconds that
/// `record(log10(max(ns, 1)))` puts past `p`: a duration's position is
/// the number of bounds at or below it. No `log10` per span.
fn span_bounds() -> &'static [u64; 33] {
    static BOUNDS: std::sync::OnceLock<[u64; 33]> = std::sync::OnceLock::new();
    let past = |ns: u64, p: usize| {
        let mut hist = span_histogram();
        hist.record((ns.max(1) as f64).log10());
        hist.underflow() + (0..p).map(|i| hist.bucket_count(i)).sum::<u64>() == 0
    };
    BOUNDS.get_or_init(|| {
        std::array::from_fn(|p| {
            // Start at 10^(1 + p/4), then move to where the formula moves.
            let mut b = 10f64.powf(1.0 + p as f64 / 4.0).ceil() as u64;
            while past(b - 1, p) {
                b -= 1;
            }
            while !past(b, p) {
                b += 1;
            }
            b
        })
    })
}

/// Streaming statistics for one span: count, total/min/max
/// nanoseconds, and the log-scale duration histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Completed span instances.
    pub count: u64,
    /// Total time across all instances, nanoseconds.
    pub total_ns: u64,
    /// Shortest instance, nanoseconds.
    pub min_ns: u64,
    /// Longest instance, nanoseconds.
    pub max_ns: u64,
    /// Distribution of `log10(duration_ns)` (see [`span_histogram`]).
    pub hist: Histogram,
}

impl Default for SpanStats {
    fn default() -> Self {
        SpanStats {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            hist: span_histogram(),
        }
    }
}

impl SpanStats {
    /// Folds one completed span instance in.
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.hist.record_at(span_bounds().partition_point(|&b| b <= ns));
    }

    /// Folds another span's statistics in (cross-replica roll-up).
    pub fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.hist.merge(&other.hist);
    }

    /// Mean duration, nanoseconds (0 when nothing was recorded).
    fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Approximate quantile of the duration distribution, nanoseconds,
    /// from histogram bucket midpoints.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    fn approx_quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        10f64.powf(self.hist.approx_quantile(q))
    }

    /// Condenses into the serializable [`SpanSummary`].
    fn summarize(&self) -> SpanSummary {
        SpanSummary {
            count: self.count,
            total_ns: self.total_ns,
            min_ns: if self.count == 0 { 0 } else { self.min_ns },
            max_ns: self.max_ns,
            mean_ns: self.mean_ns(),
            approx_p50_ns: self.approx_quantile_ns(0.50),
            approx_p95_ns: self.approx_quantile_ns(0.95),
            approx_p99_ns: self.approx_quantile_ns(0.99),
        }
    }
}

/// One span's condensed statistics, as serialized into the `profile`
/// section of campaign summaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanSummary {
    /// Completed span instances.
    pub count: u64,
    /// Total time, nanoseconds.
    pub total_ns: u64,
    /// Shortest instance, nanoseconds.
    pub min_ns: u64,
    /// Longest instance, nanoseconds.
    pub max_ns: u64,
    /// Mean duration, nanoseconds.
    pub mean_ns: f64,
    /// Approximate median duration, nanoseconds (histogram midpoint).
    pub approx_p50_ns: f64,
    /// Approximate 95th-percentile duration, nanoseconds.
    pub approx_p95_ns: f64,
    /// Approximate 99th-percentile duration, nanoseconds.
    pub approx_p99_ns: f64,
}

/// The serializable per-span roll-up: span name → condensed stats.
///
/// This is the `profile` section of campaign/experiment summary JSON.
/// It is kept **out** of the deterministic summary structs — wall-clock
/// timings differ run to run — and spliced in only when profiling was
/// requested.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ProfileSummary {
    /// Span name → condensed statistics.
    pub spans: BTreeMap<String, SpanSummary>,
}

/// The on-line span aggregator: one [`SpanStats`] per span name.
///
/// Instrumentation points accept `Option<&mut SpanProfiler>`; `None`
/// compiles down to a branch and no clock read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanProfiler {
    /// One entry per distinct name, sorted by name.
    spans: Vec<(&'static str, SpanStats)>,
}

impl SpanProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed instance of `span`.
    pub fn record(&mut self, span: &'static str, d: Duration) {
        self.entry(span).record(d);
    }

    /// The statistics of span `name`, created empty on first sight.
    /// An instrumentation point passes the same literal every time, so
    /// the name's address and length find its entry without comparing
    /// text; an equal name from elsewhere falls back to a search by
    /// content and shares the entry.
    fn entry(&mut self, name: &'static str) -> &mut SpanStats {
        let i = match self.spans.iter().position(|(seen, _)| std::ptr::eq(*seen, name)) {
            Some(i) => i,
            None => match self.spans.binary_search_by(|(seen, _)| (*seen).cmp(name)) {
                Ok(i) => i,
                Err(i) => {
                    self.spans.insert(i, (name, SpanStats::default()));
                    i
                }
            },
        };
        &mut self.spans[i].1
    }

    /// Statistics for one span, if it ever completed.
    pub fn stats(&self, span: &str) -> Option<&SpanStats> {
        let i = self.spans.binary_search_by(|(seen, _)| (*seen).cmp(span)).ok()?;
        Some(&self.spans[i].1)
    }

    /// Iterates all spans in name order.
    pub fn spans(&self) -> impl Iterator<Item = (&'static str, &SpanStats)> {
        self.spans.iter().map(|(name, stats)| (*name, stats))
    }

    /// Number of distinct spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Folds another profiler in span by span — how campaign replicas
    /// roll up into one campaign-level profile.
    pub fn merge(&mut self, other: &SpanProfiler) {
        for (name, stats) in other.spans() {
            self.entry(name).merge(stats);
        }
    }

    /// Condenses every span into the serializable [`ProfileSummary`].
    pub fn summary(&self) -> ProfileSummary {
        ProfileSummary {
            spans: self.spans().map(|(name, stats)| (name.to_string(), stats.summarize())).collect(),
        }
    }
}

/// Sequential phase timer for straight-line code like the emulator's
/// tick pipeline: construct at the top, then [`lap`](Self::lap) after
/// each phase — every lap records the time since the previous one.
///
/// Disabled (`PhaseClock::new(false)`), no clock is ever read.
#[derive(Debug)]
pub struct PhaseClock {
    last: Option<Instant>,
}

impl PhaseClock {
    /// Starts the clock; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        PhaseClock { last: enabled.then(Instant::now) }
    }

    /// Records the time since the previous lap (or construction) as one
    /// instance of `span`, then restarts the lap timer.
    pub fn lap(&mut self, profiler: Option<&mut SpanProfiler>, span: &'static str) {
        if let Some(prev) = self.last {
            let now = Instant::now();
            if let Some(p) = profiler {
                p.record(span, now - prev);
            }
            self.last = Some(now);
        }
    }

    /// Restarts the lap timer without recording — used after a callee
    /// that profiled its own interior spans, so the caller's next lap
    /// does not double-count the callee's time.
    pub fn reset(&mut self) {
        if self.last.is_some() {
            self.last = Some(Instant::now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `SpanStats::record` as it bucketed with `log10`.
    fn record_by_log(stats: &mut SpanStats, ns: u64) {
        stats.count += 1;
        stats.total_ns += ns;
        stats.min_ns = stats.min_ns.min(ns);
        stats.max_ns = stats.max_ns.max(ns);
        stats.hist.record((ns.max(1) as f64).log10());
    }

    #[test]
    fn span_buckets_match_the_log10_formula() {
        let around = span_bounds().iter().flat_map(|&b| [b - 1, b, b + 1]);
        let fixed = [0, 1, 9, 10, 999_999_999, 1_000_000_000, u64::MAX];
        for ns in around.chain(fixed) {
            let mut by_bounds = SpanStats::default();
            by_bounds.record(Duration::from_nanos(ns));
            let mut by_log = SpanStats::default();
            record_by_log(&mut by_log, ns);
            assert_eq!(by_bounds, by_log, "{ns} ns");
        }
        let durations = [3, 10, 17, 99, 100, 101, 5_623, 56_234, 1_000_000, 7_777_777, 999_999_999, 4_000_000_000];
        let mut prof = SpanProfiler::new();
        let mut by_log = SpanStats::default();
        for &ns in &durations {
            prof.record("tick.x", Duration::from_nanos(ns));
            record_by_log(&mut by_log, ns);
        }
        let expected = ProfileSummary { spans: [("tick.x".to_string(), by_log.summarize())].into() };
        assert_eq!(prof.summary(), expected);
        assert_eq!(prof.stats("tick.x"), Some(&by_log));
    }

    #[test]
    fn record_and_summarize() {
        let mut prof = SpanProfiler::new();
        prof.record("a", Duration::from_micros(10));
        prof.record("a", Duration::from_micros(30));
        prof.record("b", Duration::from_nanos(5)); // below 10 ns → underflow
        let a = prof.stats("a").unwrap();
        assert_eq!(a.count, 2);
        assert_eq!(a.total_ns, 40_000);
        assert_eq!(a.min_ns, 10_000);
        assert_eq!(a.max_ns, 30_000);
        assert!((a.mean_ns() - 20_000.0).abs() < 1e-9);
        let sum = prof.summary();
        assert_eq!(sum.spans.len(), 2);
        assert_eq!(sum.spans["a"].count, 2);
        assert_eq!(sum.spans["b"].min_ns, 5);
        // Quantiles come from log-bucket midpoints: the right order of
        // magnitude, not exact values.
        let p50 = sum.spans["a"].approx_p50_ns;
        assert!((1_000.0..100_000.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn merge_rolls_up_replicas() {
        let mut a = SpanProfiler::new();
        a.record("tick.x", Duration::from_micros(5));
        let mut b = SpanProfiler::new();
        b.record("tick.x", Duration::from_micros(15));
        b.record("tick.y", Duration::from_micros(1));
        a.merge(&b);
        let x = a.stats("tick.x").unwrap();
        assert_eq!(x.count, 2);
        assert_eq!(x.total_ns, 20_000);
        assert_eq!(x.min_ns, 5_000);
        assert_eq!(x.max_ns, 15_000);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn equal_names_at_different_addresses_share_one_span() {
        let leaked: &'static str = Box::leak(String::from("tick.same").into_boxed_str());
        assert!(!std::ptr::eq(leaked, "tick.same"));
        let mut prof = SpanProfiler::new();
        prof.record("tick.same", Duration::from_micros(1));
        prof.record(leaked, Duration::from_micros(2));
        prof.record("tick.same", Duration::from_micros(3));
        prof.record(leaked, Duration::from_micros(4));
        assert_eq!(prof.len(), 1);
        let stats = prof.stats("tick.same").unwrap();
        assert_eq!((stats.count, stats.total_ns), (4, 10_000));
    }

    #[test]
    fn spans_iterate_in_name_order_whatever_order_they_were_seen() {
        let names = ["tick.finalize", "mesh.obs_emit", "tick.demand", "ctl.tick", "tick.controller"];
        let mut sorted = names;
        sorted.sort_unstable();
        for rotation in 0..names.len() {
            let mut prof = SpanProfiler::new();
            for &name in names.iter().cycle().skip(rotation).take(names.len()) {
                prof.record(name, Duration::from_micros(1));
            }
            let seen: Vec<&str> = prof.spans().map(|(name, _)| name).collect();
            assert_eq!(seen, sorted, "rotation {rotation}");
        }
    }

    #[test]
    fn merge_is_independent_of_first_seen_order() {
        let timings = [("tick.b", 7), ("tick.a", 3), ("mesh.c", 11), ("tick.b", 2)];
        let profile = |order: &[usize]| {
            let mut prof = SpanProfiler::new();
            for &i in order {
                let (name, us) = timings[i];
                prof.record(name, Duration::from_micros(us));
            }
            prof
        };
        let render = |a: &SpanProfiler, b: &SpanProfiler| {
            let mut merged = a.clone();
            merged.merge(b);
            crate::prom::render(&crate::Metrics::new(), Some(&merged), &[])
        };
        let name_order = render(&profile(&[2, 1, 0, 3]), &profile(&[2, 1, 3, 0]));
        let seen_order = render(&profile(&[0, 3, 1, 2]), &profile(&[3, 2, 0, 1]));
        assert_eq!(seen_order, name_order);
        assert!(name_order.contains("_count{span=\"tick.b\"} 4"), "{name_order}");
    }

    #[test]
    fn disabled_paths_record_nothing() {
        let mut clock = PhaseClock::new(false);
        clock.lap(None, "never");
        clock.reset();
        let mut prof = SpanProfiler::new();
        let mut clock = PhaseClock::new(false); // enabled=false, profiler present
        clock.lap(Some(&mut prof), "never");
        assert!(prof.is_empty());
    }

    #[test]
    fn phase_clock_laps_sequentially() {
        let mut prof = SpanProfiler::new();
        let mut clock = PhaseClock::new(true);
        std::hint::black_box(2 + 2);
        clock.lap(Some(&mut prof), "p1");
        clock.reset();
        std::hint::black_box(3 + 3);
        clock.lap(Some(&mut prof), "p2");
        assert_eq!(prof.stats("p1").unwrap().count, 1);
        assert_eq!(prof.stats("p2").unwrap().count, 1);
        assert_eq!(prof.len(), 2);
    }

    #[test]
    fn empty_stats_summarize_cleanly() {
        let stats = SpanStats::default();
        let s = stats.summarize();
        assert_eq!(s.count, 0);
        assert_eq!(s.min_ns, 0);
        assert_eq!(s.mean_ns, 0.0);
        assert_eq!(s.approx_p99_ns, 0.0);
    }

    #[test]
    fn profile_summary_round_trips_json() {
        let mut prof = SpanProfiler::new();
        prof.record("tick.alloc", Duration::from_micros(123));
        let summary = prof.summary();
        let json = serde_json::to_string(&summary).unwrap();
        let back: ProfileSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
    }
}
