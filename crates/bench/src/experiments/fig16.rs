//! Fig. 16: longest-path scheduler under exponential request arrivals,
//! sweeping the migration threshold (headroom fixed at 20%).
//!
//! Paper: with bursty (Poisson) arrivals, lower migration thresholds
//! perform better than they do under constant arrivals — early
//! migration does not inflate latency as much because most components'
//! rates are low most of the time.

use crate::experiments::common::{social, Knobs};
use crate::{ExperimentReport, Row, RunMode};
use bass_apps::testbeds::citylab_testbed;
use bass_apps::ArrivalProcess;
use bass_core::PlacementPolicy;
use bass_emu::Recorder;
use bass_util::time::SimDuration;

/// Runs the experiment.
pub fn run(mode: RunMode) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig16",
        "exponential arrivals: latency vs migration threshold (LP, 20% headroom)",
        "lower thresholds are competitive or better under bursty arrivals",
    );
    let duration = SimDuration::from_secs(mode.secs(900).max(600));

    for threshold in [0.25, 0.50, 0.65, 0.75, 0.95] {
        let knobs = Knobs {
            policy: PlacementPolicy::LongestPath,
            utilization_threshold: threshold,
            goodput_threshold: threshold.min(0.5),
            ..Knobs::default()
        };
        let testbed = citylab_testbed(1616, duration + SimDuration::from_secs(120));
        let (mut env, mut wl) = social(testbed, 50.0, &knobs, ArrivalProcess::Exponential, 1616);
        let mut rec = Recorder::new();
        wl.run(&mut env, duration, &mut rec).expect("run completes");
        let p = rec.percentiles("latency_ms");
        report.push_row(
            Row::new(format!("threshold {threshold}"))
                .with("median_ms", p.median())
                .with("upper_quartile_ms", p.upper_quartile())
                .with("p99_ms", p.p99())
                .with("migrations", env.stats().migrations.len() as f64),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_thresholds_are_competitive_under_bursts() {
        let rep = run(RunMode::Quick);
        let uq = |t: &str| {
            rep.row(&format!("threshold {t}"))
                .unwrap()
                .value("upper_quartile_ms")
                .unwrap()
        };
        // Fig. 16's claim: eager migration does not blow up latency under
        // exponential arrivals — 0.25 is within 2× of the best setting.
        let best = [uq("0.25"), uq("0.5"), uq("0.65"), uq("0.75"), uq("0.95")]
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        assert!(
            uq("0.25") <= best * 2.0,
            "eager threshold {} vs best {best}",
            uq("0.25")
        );
    }

    #[test]
    fn every_threshold_produces_sane_latency() {
        let rep = run(RunMode::Quick);
        for row in &rep.rows {
            let m = row.value("median_ms").unwrap();
            assert!((100.0..600_000.0).contains(&m), "{}: {m}", row.label);
        }
    }
}
