//! Request arrival processes.
//!
//! The paper's benchmark driver issues requests at a fixed rate in most
//! experiments and with exponential inter-arrivals (Poisson arrivals) in
//! §6.3.3's Fig. 16. Open-loop workloads here sample the number of
//! arrivals per tick; the per-tick count scales the offered edge demands.

use bass_util::rng::SimRng;
use serde::{Deserialize, Serialize};

/// How requests arrive over time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Exactly `rate × dt` requests every tick.
    Constant,
    /// Poisson arrivals with mean `rate × dt` per tick (exponential
    /// inter-arrival times).
    Exponential,
}

impl ArrivalProcess {
    /// Samples the number of arrivals in a window of `dt_secs` seconds at
    /// `rate` requests/second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` or `dt_secs` is negative.
    pub(crate) fn sample_arrivals(self, rate: f64, dt_secs: f64, rng: &mut SimRng) -> f64 {
        assert!(rate >= 0.0, "rate must be non-negative");
        assert!(dt_secs >= 0.0, "window must be non-negative");
        let mean = rate * dt_secs;
        match self {
            ArrivalProcess::Constant => mean,
            ArrivalProcess::Exponential => rng.poisson(mean) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_exact() {
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(
            ArrivalProcess::Constant.sample_arrivals(50.0, 1.0, &mut rng),
            50.0
        );
        assert_eq!(
            ArrivalProcess::Constant.sample_arrivals(50.0, 0.1, &mut rng),
            5.0
        );
    }

    #[test]
    fn exponential_matches_mean_and_fluctuates() {
        let mut rng = SimRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..2000)
            .map(|_| ArrivalProcess::Exponential.sample_arrivals(50.0, 1.0, &mut rng))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 50.0).abs() < 1.0, "mean {mean}");
        let distinct: std::collections::BTreeSet<u64> =
            samples.iter().map(|&x| x as u64).collect();
        assert!(distinct.len() > 10, "Poisson counts must vary");
    }

    #[test]
    fn zero_rate_is_zero() {
        let mut rng = SimRng::seed_from_u64(3);
        assert_eq!(
            ArrivalProcess::Exponential.sample_arrivals(0.0, 1.0, &mut rng),
            0.0
        );
    }
}
