//! Fig. 14(b): latency CDF of the social network on the CityLab trace,
//! comparing BASS heuristics (with and without migration) and k3s.
//!
//! Paper: without migration the longest-path heuristic is only slightly
//! better than k3s; right-timed migrations provide the real gains. p99:
//! longest-path with migration 28 s vs k3s 66 s.

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
        "fig14b",
        "social latency CDFs on CityLab: heuristics × migration vs k3s",
        "LP+migration best (p99 28 s), k3s worst (66 s); LP without migration only slightly beats k3s",
    );
    // Fades arrive every few minutes; even quick mode needs enough
    // trace for several to land.
    let duration = SimDuration::from_secs(mode.secs(1200).max(600));

    for (label, policy, migrations) in [
        (
            "longest-path+mig",
            PlacementPolicy::LongestPath,
            true,
        ),
        (
            "bfs+mig",
            PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
            true,
        ),
        ("longest-path-nomig", PlacementPolicy::LongestPath, false),
        (
            "k3s-default",
            PlacementPolicy::K3sDefault,
            false,
        ),
    ] {
        let knobs = Knobs {
            policy,
            migrations,
            ..Knobs::default()
        };
        let testbed = citylab_testbed(1414, duration + SimDuration::from_secs(120));
        let (mut env, mut wl) = social(testbed, 50.0, &knobs, ArrivalProcess::Constant, 1414);
        let mut rec = Recorder::new();
        wl.run(&mut env, duration, &mut rec).expect("run completes");
        let p = rec.percentiles("latency_ms");
        report.push_row(
            Row::new(label)
                .with("p50_ms", p.median())
                .with("p99_ms", p.p99())
                .with("migrations", env.stats().migrations.len() as f64),
        );
        report.push_series(format!("cdf:{label}"), &p.points(80), 80);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_provides_the_real_gains() {
        let rep = run(RunMode::Quick);
        let p99 = |label: &str| rep.row(label).unwrap().value("p99_ms").unwrap();
        let lp_mig = p99("longest-path+mig");
        let lp_nomig = p99("longest-path-nomig");
        let k3s = p99("k3s-default");
        // k3s is the worst tail; LP with migration clearly beats it.
        assert!(k3s > lp_mig * 1.5, "k3s {k3s} vs lp+mig {lp_mig}");
        // No-migration is not better than migration (within noise).
        assert!(lp_nomig * 1.05 >= lp_mig, "nomig {lp_nomig} vs mig {lp_mig}");
        // Migrations actually happened in the migration config.
        assert!(
            rep.row("longest-path+mig").unwrap().value("migrations").unwrap() >= 1.0
        );
    }
}
