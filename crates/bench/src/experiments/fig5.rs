//! Fig. 5: social-network average end-to-end latency over time with a
//! 25 Mbps squeeze for 2 minutes at 400 RPS (k3s placement, no
//! migrations — the motivation experiment).
//!
//! Paper: latency increases by an order of magnitude during the
//! bandwidth-restricted period.

use crate::experiments::common::{node_of, social, Knobs};
use crate::{ExperimentReport, Row, RunMode};
use bass_apps::testbeds::lan_testbed;
use bass_apps::ArrivalProcess;
use bass_core::PlacementPolicy;
use bass_emu::{Recorder, Scenario};
use bass_util::time::{SimDuration, SimTime};
use bass_util::units::Bandwidth;

/// Runs the experiment.
pub fn run(mode: RunMode) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig5",
        "social network latency timeline under a 25 Mbps squeeze (400 RPS)",
        "average latency rises by an order of magnitude while the restriction holds",
    );
    let start_s = 60;
    let restrict_s = mode.secs(120);
    let total = SimDuration::from_secs(start_s + restrict_s + 60);

    let knobs = Knobs {
        policy: PlacementPolicy::K3sDefault,
        migrations: false,
        ..Knobs::default()
    };
    let (mut env, mut wl) = social(lan_testbed(3, 16), 400.0, &knobs, ArrivalProcess::Constant, 5);
    let frontend_node = node_of(&env, "nginx-frontend");
    env.set_scenario(Scenario::new().restrict_node_egress(
        frontend_node,
        SimTime::from_secs(start_s),
        SimTime::from_secs(start_s + restrict_s),
        Bandwidth::from_mbps(25.0),
    ));
    let mut rec = Recorder::new();
    wl.run(&mut env, total, &mut rec).expect("run completes");

    let series = rec.series("avg_latency_ms");
    let before = series
        .stats_in(SimTime::ZERO, SimTime::from_secs(start_s))
        .mean();
    let during = series
        .stats_in(
            SimTime::from_secs(start_s + 20),
            SimTime::from_secs(start_s + restrict_s),
        )
        .mean();
    report.push_row(
        Row::new("avg latency")
            .with("before_ms", before)
            .with("during_ms", during)
            .with("inflation_x", during / before.max(1e-9)),
    );
    let points: Vec<(f64, f64)> = series.iter().map(|(t, v)| (t.as_secs_f64(), v)).collect();
    report.push_series("avg_latency_ms", &points, 300);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_of_magnitude_inflation() {
        let rep = run(RunMode::Quick);
        let row = rep.row("avg latency").unwrap();
        let inflation = row.value("inflation_x").unwrap();
        assert!(inflation > 10.0, "inflation {inflation}x");
        let before = row.value("before_ms").unwrap();
        assert!((200.0..1500.0).contains(&before), "healthy latency {before}");
    }
}
