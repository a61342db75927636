//! Fig. 14(a): CDF of end-to-end latency around a component restart.
//!
//! Paper: at 50 RPS, restarting a component raises the average
//! end-to-end latency from 552 ms to ≈4.9 s while connections
//! re-establish.

use crate::experiments::common::{social, Knobs};
use crate::{ExperimentReport, Row, RunMode};
use bass_apps::testbeds::citylab_testbed_flat;
use bass_apps::ArrivalProcess;
use bass_emu::Recorder;
use bass_util::time::{SimDuration, SimTime};

/// Runs the experiment.
pub fn run(mode: RunMode) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig14a",
        "latency CDF around a component restart (50 RPS)",
        "average rises from ≈552 ms to ≈4.9 s during the restart",
    );
    let warm = 60u64;
    let restart_at = warm + 30;
    let total = SimDuration::from_secs(mode.secs(300).max(restart_at + 60));

    // Flat capacities: Fig. 14a isolates the restart cost itself, so
    // trace fades must not pollute the measurement window.
    let knobs = Knobs::default();
    let testbed = citylab_testbed_flat(14, total * 2);
    let (mut env, mut wl) = social(testbed, 50.0, &knobs, ArrivalProcess::Constant, 14);
    let victim = env
        .dag()
        .component_by_name("post-storage-service")
        .expect("known component")
        .id;

    let mut rec = Recorder::new();
    let tick = SimDuration::from_secs(1);
    let end = SimTime::ZERO + total;
    let mut restarted = false;
    while env.now() < end {
        if !restarted && env.now() >= SimTime::from_secs(restart_at) {
            env.force_restart(victim);
            restarted = true;
        }
        wl.tick(&mut env, tick, &mut rec);
        env.run_for(tick, |_| {}).expect("step");
    }

    let series = rec.series("avg_latency_ms");
    let before = series
        .stats_in(SimTime::from_secs(10), SimTime::from_secs(restart_at))
        .mean();
    let during = series
        .stats_in(
            SimTime::from_secs(restart_at),
            SimTime::from_secs(restart_at + 15),
        )
        .mean();
    report.push_row(
        Row::new("avg latency")
            .with("steady_ms", before)
            .with("restart_ms", during)
            .with("inflation_x", during / before.max(1e-9)),
    );
    report.push_series("latency_cdf", &rec.percentiles("latency_ms").points(100), 100);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restart_inflates_latency_to_seconds() {
        let rep = run(RunMode::Quick);
        let row = rep.row("avg latency").unwrap();
        let steady = row.value("steady_ms").unwrap();
        let restart = row.value("restart_ms").unwrap();
        // Paper: 552 ms → 4.9 s (≈9×). Accept 4×–30×.
        assert!((250.0..900.0).contains(&steady), "steady {steady}");
        assert!(restart > steady * 4.0, "restart {restart} vs steady {steady}");
        assert!(restart < steady * 30.0, "restart {restart} vs steady {steady}");
    }

    #[test]
    fn cdf_has_a_long_tail() {
        let rep = run(RunMode::Quick);
        let (_, points) = rep
            .series
            .iter()
            .find(|(n, _)| n == "latency_cdf")
            .unwrap();
        let max = points.iter().map(|p| p.0).fold(0.0f64, f64::max);
        let median = points
            .iter()
            .find(|p| p.1 >= 0.5)
            .map(|p| p.0)
            .unwrap_or(0.0);
        assert!(max > median * 3.0, "tail {max} vs median {median}");
    }
}
