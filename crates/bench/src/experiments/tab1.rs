//! Table 1: social-network component migration across successive
//! scheduler iterations (30 s querying interval, 25 Mbps squeeze).
//!
//! Paper: iteration 1 has 6 components exceeding their link-utilization
//! quota but only 2 migrate (dependency de-duplication); iterations 2–3
//! each migrate 1 of 1.

use crate::experiments::common::{social, Knobs};
use crate::{ExperimentReport, Row, RunMode};
use bass_apps::testbeds::lan_testbed;
use bass_apps::ArrivalProcess;
use bass_core::PlacementPolicy;
use bass_emu::{Recorder, Scenario};
use bass_mesh::NodeId;
use bass_util::time::{SimDuration, SimTime};
use bass_util::units::Bandwidth;

/// Runs the experiment.
pub fn run(mode: RunMode) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "tab1",
        "migration rounds: violating vs migrated components",
        "iteration 1: 6 violating → 2 migrated; iterations 2–3: 1 → 1 (never both ends of a pair)",
    );
    let knobs = Knobs {
        policy: PlacementPolicy::LongestPath,
        probe_interval_s: 30,
        cooldown_s: 30,
        ..Knobs::default()
    };
    let (mut env, mut wl) = social(lan_testbed(3, 16), 400.0, &knobs, ArrivalProcess::Constant, 17);
    // Restrict the node carrying the frontend chain (the paper
    // throttles one worker's interface; the chain-bearing node is the
    // one whose squeeze produces Table 1's violation counts).
    env.set_scenario(Scenario::new().restrict_node_egress(
        NodeId(0),
        SimTime::from_secs(10),
        SimTime::from_secs(10 + mode.secs(300)),
        Bandwidth::from_mbps(25.0),
    ));
    let mut rec = Recorder::new();
    wl.run(
        &mut env,
        SimDuration::from_secs(mode.secs(300)),
        &mut rec,
    )
    .expect("run completes");

    for (i, &(violating, migrated)) in env.stats().migration_rounds.iter().enumerate() {
        report.push_row(
            Row::new(format!("iteration {}", i + 1))
                .with("violating", violating as f64)
                .with("migrated", migrated as f64),
        );
    }
    report.note(format!(
        "total migrations: {}",
        env.stats().migrations.len()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_limits_migrations_per_round() {
        let rep = run(RunMode::Quick);
        assert!(!rep.rows.is_empty(), "squeeze must trigger rounds");
        for row in &rep.rows {
            let violating = row.value("violating").unwrap();
            let migrated = row.value("migrated").unwrap();
            assert!(migrated <= violating, "{}", row.label);
        }
        // The first round should show the paper's signature: more
        // violations than migrations (communicating pairs de-duplicated).
        let first = &rep.rows[0];
        assert!(
            first.value("violating").unwrap() >= first.value("migrated").unwrap(),
            "first round dedup"
        );
    }
}
