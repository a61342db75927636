//! Fig. 14(c)/(d): end-to-end latency under different link-utilization
//! thresholds and headroom capacities, for the BFS and longest-path
//! schedulers (social network, 50 RPS, CityLab trace).
//!
//! Paper: 25% migrates too eagerly (migration cost dominates); 75–95%
//! waits too long (prolonged degradation); 50–65% balances the two.

use crate::experiments::common::{social, Knobs};
use crate::{ExperimentReport, Row, RunMode};
use bass_apps::testbeds::citylab_testbed;
use bass_apps::ArrivalProcess;
use bass_core::heuristics::BfsWeighting;
use bass_core::PlacementPolicy;
use bass_emu::Recorder;
use bass_util::time::SimDuration;

/// Runs the experiment.
pub fn run(mode: RunMode) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig14cd",
        "latency vs (utilization threshold × headroom) for BFS and LP",
        "mid thresholds (50–65%) yield the lowest upper-quartile latency; extremes churn or wait too long",
    );
    let duration = SimDuration::from_secs(mode.secs(900).max(600));
    let thresholds = [0.25, 0.50, 0.65, 0.75, 0.95];
    let headrooms = match mode {
        RunMode::Full => vec![0.10, 0.20, 0.30],
        RunMode::Quick => vec![0.20],
    };

    for (sched, policy) in [
        ("bfs", PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight)),
        ("longest-path", PlacementPolicy::LongestPath),
    ] {
        for &headroom in &headrooms {
            for &threshold in &thresholds {
                let knobs = Knobs {
                    policy,
                    utilization_threshold: threshold,
                    goodput_threshold: threshold.min(0.5),
                    headroom,
                    ..Knobs::default()
                };
                let testbed = citylab_testbed(1450, duration + SimDuration::from_secs(120));
                let (mut env, mut wl) = social(testbed, 50.0, &knobs, ArrivalProcess::Constant, 1450);
                let mut rec = Recorder::new();
                wl.run(&mut env, duration, &mut rec).expect("run completes");
                let p = rec.percentiles("latency_ms");
                report.push_row(
                    Row::new(format!("{sched}, t={threshold}, h={headroom}"))
                        .with("upper_quartile_ms", p.upper_quartile())
                        .with("median_ms", p.median())
                        .with("migrations", env.stats().migrations.len() as f64),
                );
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_sweep_produces_data_for_both_schedulers() {
        let rep = run(RunMode::Quick);
        // 2 schedulers × 1 headroom × 5 thresholds in quick mode.
        assert_eq!(rep.rows.len(), 10);
        for row in &rep.rows {
            let uq = row.value("upper_quartile_ms").unwrap();
            assert!(uq > 100.0, "{}: {uq}", row.label);
            assert!(uq < 600_000.0, "{}: {uq}", row.label);
        }
    }

    #[test]
    fn lower_thresholds_migrate_at_least_as_often() {
        let rep = run(RunMode::Quick);
        let migs = |label: &str| rep.row(label).unwrap().value("migrations").unwrap();
        for sched in ["bfs", "longest-path"] {
            let eager = migs(&format!("{sched}, t=0.25, h=0.2"));
            let lazy = migs(&format!("{sched}, t=0.95, h=0.2"));
            assert!(
                eager >= lazy,
                "{sched}: eager {eager} vs lazy {lazy} migrations"
            );
        }
    }
}
