//! Synthetic CityLab-like trace generation.
//!
//! Wireless link capacity is modeled as a mean-reverting AR(1) process
//! (the exact discretization of an Ornstein–Uhlenbeck process), which is
//! the standard fluid model for fading-dominated links: capacity hovers
//! around a mean, excursions decay over a relaxation time (60 s),
//! and the stationary distribution is Gaussian with a configurable
//! standard deviation. On top of the stationary process the generator can
//! superimpose *fade events* (temporary multiplicative dips — the paper's
//! "reflections from a truck or attenuation from foliage") so that deep
//! drops occur on the minutes timescale the paper reports.

use crate::trace::BandwidthTrace;
use bass_util::rng::SimRng;
use bass_util::time::{SimDuration, SimTime};
use bass_util::units::Bandwidth;
use serde::Serialize;

/// Stateful mean-reverting capacity process (exact OU discretization).
///
/// `x(t+dt) = mean + phi * (x(t) - mean) + sigma * sqrt(1 - phi^2) * eps`
/// with `phi = exp(-dt / relaxation)`.
#[derive(Debug, Clone)]
struct OuProcess {
    mean_mbps: f64,
    sigma_mbps: f64,
    relaxation: SimDuration,
    current_mbps: f64,
}

impl OuProcess {
    /// Creates a process starting at its mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean_mbps < 0`, `sigma_mbps < 0`, or `relaxation` is zero.
    pub fn new(mean_mbps: f64, sigma_mbps: f64, relaxation: SimDuration) -> Self {
        assert!(mean_mbps >= 0.0, "mean must be non-negative");
        assert!(sigma_mbps >= 0.0, "sigma must be non-negative");
        assert!(!relaxation.is_zero(), "relaxation time must be positive");
        OuProcess {
            mean_mbps,
            sigma_mbps,
            relaxation,
            current_mbps: mean_mbps,
        }
    }

    /// One step's coefficients `(phi, sigma * sqrt(1 - phi^2))` for `dt`:
    /// constant for a fixed `dt`, so a trace computes them once, not per sample.
    pub fn coefficients(&self, dt: SimDuration) -> (f64, f64) {
        let phi = (-dt.as_secs_f64() / self.relaxation.as_secs_f64()).exp();
        (phi, self.sigma_mbps * (1.0 - phi * phi).sqrt())
    }

    /// Advances the process by one step of the given
    /// [`coefficients`](Self::coefficients); returns the new Mbps (clamped at zero).
    pub fn step(&mut self, (phi, k): (f64, f64), rng: &mut SimRng) -> f64 {
        let noise = k * rng.standard_normal();
        self.current_mbps = self.mean_mbps + phi * (self.current_mbps - self.mean_mbps) + noise;
        self.current_mbps = self.current_mbps.max(0.0);
        self.current_mbps
    }
}

/// Mean-reversion relaxation time of every generated trace:
/// fluctuations on the minutes timescale the paper reports.
const RELAXATION: SimDuration = SimDuration::from_secs(60);

/// Configuration for generating a CityLab-like bandwidth trace.
///
/// # Examples
///
/// ```
/// use bass_trace::OuTraceConfig;
/// use bass_util::prelude::*;
///
/// // Fig. 2's second link: mean 7.62 Mbps, sigma = 27% of the mean.
/// let trace = OuTraceConfig::new("link-b", 7.62)
///     .relative_std(0.27)
///     .generate(42, SimDuration::from_secs(1200));
/// let stats = trace.stats_mbps();
/// assert!((stats.mean() - 7.62).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OuTraceConfig {
    name: String,
    mean_mbps: f64,
    relative_std: f64,
    sample_interval: SimDuration,
    floor_mbps: f64,
    fade_rate_per_min: f64,
    fade_depth: f64,
    fade_duration: SimDuration,
}

impl OuTraceConfig {
    /// Creates a config with the paper-calibrated defaults: 1 s
    /// sampling, a 10% relative standard deviation, and no fade events.
    /// Every trace relaxes over 60 s.
    ///
    /// # Panics
    ///
    /// Panics if `mean_mbps` is negative.
    pub fn new(name: impl Into<String>, mean_mbps: f64) -> Self {
        assert!(mean_mbps >= 0.0, "mean must be non-negative");
        OuTraceConfig {
            name: name.into(),
            mean_mbps,
            relative_std: 0.10,
            sample_interval: SimDuration::from_secs(1),
            floor_mbps: 0.1,
            fade_rate_per_min: 0.0,
            fade_depth: 0.5,
            fade_duration: SimDuration::from_secs(45),
        }
    }

    /// Sets the stationary standard deviation as a fraction of the mean
    /// (Fig. 2 reports 10% and 27%).
    pub fn relative_std(mut self, frac: f64) -> Self {
        assert!(frac >= 0.0, "relative std must be non-negative");
        self.relative_std = frac;
        self
    }

    /// Sets the sampling interval.
    pub fn sample_interval(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "sample interval must be positive");
        self.sample_interval = interval;
        self
    }

    /// Sets the minimum capacity the trace may report.
    pub(crate) fn floor_mbps(mut self, floor: f64) -> Self {
        self.floor_mbps = floor.max(0.0);
        self
    }

    /// Enables fade events: Poisson arrivals at `rate_per_min`, each
    /// multiplying capacity by `depth` (in `[0, 1]`) for `duration`.
    pub fn fades(mut self, rate_per_min: f64, depth: f64, duration: SimDuration) -> Self {
        assert!(rate_per_min >= 0.0, "fade rate must be non-negative");
        assert!((0.0..=1.0).contains(&depth), "fade depth must be in [0,1]");
        self.fade_rate_per_min = rate_per_min;
        self.fade_depth = depth;
        self.fade_duration = duration;
        self
    }

    /// The configured mean in Mbps.
    pub fn mean_mbps(&self) -> f64 {
        self.mean_mbps
    }

    /// Generates a trace of the given duration, deterministically from the
    /// seed.
    pub fn generate(&self, seed: u64, duration: SimDuration) -> BandwidthTrace {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut process = OuProcess::new(
            self.mean_mbps,
            self.mean_mbps * self.relative_std,
            RELAXATION,
        );
        // Burn in so the first sample is drawn from the stationary
        // distribution rather than pinned at the mean.
        let burn_in = process.coefficients(RELAXATION);
        for _ in 0..32 {
            process.step(burn_in, &mut rng);
        }

        let per_sample = process.coefficients(self.sample_interval);
        let count = duration.as_micros() / self.sample_interval.as_micros() + 1;
        let mut trace = BandwidthTrace::with_capacity(self.name.clone(), count as usize);
        let mut fade_until = SimTime::ZERO;
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + duration;
        let fade_prob_per_sample =
            self.fade_rate_per_min / 60.0 * self.sample_interval.as_secs_f64();
        while t <= end {
            let mut mbps = process.step(per_sample, &mut rng);
            if self.fade_rate_per_min > 0.0 && t >= fade_until && rng.chance(fade_prob_per_sample)
            {
                fade_until = t + self.fade_duration;
            }
            if t < fade_until {
                mbps *= self.fade_depth;
            }
            trace.push(t, Bandwidth::from_mbps(mbps.max(self.floor_mbps)));
            t += self.sample_interval;
        }
        trace
    }
}

/// Generates one trace per config, in config order, each seeded by a
/// fork of `seed` at the config's index. Each trace is made as the
/// iterator reaches it, so a caller that moves it on never holds a copy.
pub fn ou_traces(
    configs: &[OuTraceConfig],
    seed: u64,
    duration: SimDuration,
) -> impl Iterator<Item = BandwidthTrace> + '_ {
    let mut root = SimRng::seed_from_u64(seed);
    let seeds = (0..).map(move |i| root.fork(i).next_u64());
    configs.iter().zip(seeds).map(move |(cfg, s)| cfg.generate(s, duration))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::link_name;

    #[test]
    fn ou_traces_follow_config_order_and_are_deterministic() {
        let configs = vec![
            OuTraceConfig::new(link_name(1, 0), 20.0),
            OuTraceConfig::new(link_name(2, 1), 7.62).relative_std(0.27),
        ];
        let duration = SimDuration::from_secs(120);
        let a: Vec<_> = ou_traces(&configs, 9, duration).collect();
        let b: Vec<_> = ou_traces(&configs, 9, duration).collect();
        assert_eq!(a, b);
        let names: Vec<&str> = a.iter().map(BandwidthTrace::name).collect();
        assert_eq!(names, ["n0-n1", "n1-n2"]);
        // Trace `i` is config `i` generated from the `i`-th fork of the seed.
        let mut root = SimRng::seed_from_u64(9);
        for (i, (cfg, trace)) in configs.iter().zip(&a).enumerate() {
            assert_eq!(trace, &cfg.generate(root.fork(i as u64).next_u64(), duration));
        }
        // Different streams: the two links must not share a sample path.
        assert_ne!(a[0].samples()[0].1, a[1].samples()[0].1);
        assert_ne!(a, ou_traces(&configs, 10, duration).collect::<Vec<_>>());
    }

    /// The generator as it was before its step coefficients were hoisted:
    /// `exp` and `sqrt` recomputed on every step, samples pushed into a
    /// growing buffer. `generate` must reproduce it bit for bit.
    fn per_step_oracle(
        cfg: &OuTraceConfig,
        seed: u64,
        duration: SimDuration,
    ) -> Vec<(SimTime, Bandwidth)> {
        let mut rng = SimRng::seed_from_u64(seed);
        let (mean, sigma) = (cfg.mean_mbps, cfg.mean_mbps * cfg.relative_std);
        let mut x = mean;
        let mut step = |dt: SimDuration, rng: &mut SimRng| {
            let phi = (-dt.as_secs_f64() / RELAXATION.as_secs_f64()).exp();
            let noise = sigma * (1.0 - phi * phi).sqrt() * rng.standard_normal();
            x = (mean + phi * (x - mean) + noise).max(0.0);
            x
        };
        for _ in 0..32 {
            step(RELAXATION, &mut rng);
        }
        let mut samples = Vec::new();
        let (mut fade_until, mut t, end) = (SimTime::ZERO, SimTime::ZERO, SimTime::ZERO + duration);
        let fade_prob = cfg.fade_rate_per_min / 60.0 * cfg.sample_interval.as_secs_f64();
        while t <= end {
            let mut mbps = step(cfg.sample_interval, &mut rng);
            if cfg.fade_rate_per_min > 0.0 && t >= fade_until && rng.chance(fade_prob) {
                fade_until = t + cfg.fade_duration;
            }
            if t < fade_until {
                mbps *= cfg.fade_depth;
            }
            samples.push((t, Bandwidth::from_mbps(mbps.max(cfg.floor_mbps))));
            t += cfg.sample_interval;
        }
        samples
    }

    #[test]
    fn hoisted_coefficients_match_the_per_step_formula_bit_for_bit() {
        let intervals = [500, 1_000, 5_000, 60_000].map(SimDuration::from_millis);
        // Zero, a multiple of every interval, and one of none of them.
        let durations = [0, 1_200_000, 1_234_567].map(SimDuration::from_millis);
        for interval in intervals {
            for (mean, rel_std) in [(7.62, 0.27), (19.9, 0.0), (0.0, 0.3)] {
                for fades in [false, true] {
                    let mut cfg = OuTraceConfig::new("g", mean)
                        .relative_std(rel_std)
                        .sample_interval(interval);
                    if fades {
                        cfg = cfg.fades(3.0, 0.4, SimDuration::from_secs(20));
                    }
                    for (seed, duration) in [11, 12, 13].into_iter().zip(durations) {
                        let trace = cfg.generate(seed, duration);
                        let oracle = per_step_oracle(&cfg, seed, duration);
                        let at = format!("{interval:?} {mean}/{rel_std} fade {fades} {duration:?}");
                        let count = duration.as_micros() / interval.as_micros() + 1;
                        assert_eq!(trace.len() as u64, count, "{at}");
                        assert_eq!(trace.sample_capacity(), trace.len(), "regrown: {at}");
                        assert_eq!(trace.len(), oracle.len(), "{at}");
                        for (&(t, b), &(ot, ob)) in trace.samples().iter().zip(&oracle) {
                            assert_eq!(t, ot, "{at}");
                            let (bits, oracle_bits) = (b.as_bps().to_bits(), ob.as_bps().to_bits());
                            assert_eq!(bits, oracle_bits, "{at} at {t:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ou_process_reverts_to_mean() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut p = OuProcess::new(20.0, 0.0, SimDuration::from_secs(10));
        // Kick the process away from the mean by hand.
        p.current_mbps = 100.0;
        // With zero noise it must decay monotonically toward 20.
        let mut prev = p.current_mbps;
        let coefficients = p.coefficients(SimDuration::from_secs(5));
        for _ in 0..20 {
            let v = p.step(coefficients, &mut rng);
            assert!(v < prev);
            assert!(v >= 20.0);
            prev = v;
        }
        assert!((prev - 20.0).abs() < 1.0);
    }

    #[test]
    fn stationary_stats_match_fig2_link_a() {
        // Fig. 2 link A: mean 19.9 Mbps, std = 10% of mean.
        let trace = OuTraceConfig::new("a", 19.9)
            .relative_std(0.10)
            .sample_interval(SimDuration::from_secs(1))
            .generate(7, SimDuration::from_secs(3600));
        let s = trace.stats_mbps();
        assert!((s.mean() - 19.9).abs() < 0.8, "mean {}", s.mean());
        assert!((s.cv() - 0.10).abs() < 0.035, "cv {}", s.cv());
    }

    #[test]
    fn stationary_stats_match_fig2_link_b() {
        // Fig. 2 link B: mean 7.62 Mbps, std = 27% of mean.
        let trace = OuTraceConfig::new("b", 7.62)
            .relative_std(0.27)
            .generate(11, SimDuration::from_secs(3600));
        let s = trace.stats_mbps();
        assert!((s.mean() - 7.62).abs() < 0.6, "mean {}", s.mean());
        assert!((s.cv() - 0.27).abs() < 0.06, "cv {}", s.cv());
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = OuTraceConfig::new("d", 10.0).relative_std(0.2);
        let a = cfg.generate(5, SimDuration::from_secs(120));
        let b = cfg.generate(5, SimDuration::from_secs(120));
        assert_eq!(a, b);
        let c = cfg.generate(6, SimDuration::from_secs(120));
        assert_ne!(a, c);
    }

    #[test]
    fn floor_is_respected() {
        let trace = OuTraceConfig::new("f", 1.0)
            .relative_std(2.0)
            .floor_mbps(0.5)
            .generate(3, SimDuration::from_secs(600));
        assert!(trace
            .samples()
            .iter()
            .all(|&(_, b)| b.as_mbps() >= 0.5 - 1e-9));
    }

    #[test]
    fn fades_reduce_capacity() {
        let calm = OuTraceConfig::new("c", 20.0).relative_std(0.01);
        let fady = calm.clone().fades(6.0, 0.3, SimDuration::from_secs(30));
        let calm_trace = calm.generate(9, SimDuration::from_secs(1200));
        let fady_trace = fady.generate(9, SimDuration::from_secs(1200));
        let calm_min = calm_trace.stats_mbps().min().unwrap();
        let fady_min = fady_trace.stats_mbps().min().unwrap();
        assert!(
            fady_min < calm_min * 0.6,
            "fades should create deep dips ({fady_min} vs {calm_min})"
        );
        // Mean should drop but stay in the same regime.
        assert!(fady_trace.stats_mbps().mean() < calm_trace.stats_mbps().mean());
    }

    #[test]
    fn sample_cadence() {
        let trace = OuTraceConfig::new("s", 5.0)
            .sample_interval(SimDuration::from_secs(2))
            .generate(1, SimDuration::from_secs(10));
        // 0,2,4,6,8,10 inclusive.
        assert_eq!(trace.len(), 6);
        assert_eq!(trace.samples()[1].0, SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_mean() {
        let _ = OuTraceConfig::new("x", -1.0);
    }
}
