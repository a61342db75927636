//! Fig. 8: migration on bandwidth change — the controlled two-component
//! walkthrough.
//!
//! Paper: a component pair requiring ≥8 Mbps sits on nodes 3 and 4
//! (link at 25 Mbps); headroom = 4 Mbps, goodput threshold 50%, probing
//! every 30 s. When the node3–node4 link degrades, the controller
//! notices the headroom drop, runs a full probe, and migrates the
//! component from node 4 to node 1; when node1–node3 later degrades and
//! node3–node4 recovers, it migrates back.

use crate::{ExperimentReport, Row, RunMode};
use bass_appdag::{AppDag, Component, ComponentId, ResourceReq};
use bass_cluster::{Cluster, NodeSpec};
use bass_core::heuristics::BfsWeighting;
use bass_core::PlacementPolicy;
use bass_emu::{Recorder, Scenario, SimEnv, SimEnvConfig};
use bass_apps::testbeds::citylab_topology;
use bass_mesh::{Mesh, NodeId};
use bass_trace::citylab_topology_links;
use bass_util::time::{SimDuration, SimTime};
use bass_util::units::Bandwidth;

const A: ComponentId = ComponentId(1);
const B: ComponentId = ComponentId(2);

fn pair_dag() -> AppDag {
    let mut dag = AppDag::new("fig8-pair");
    // A fills node 3 completely so co-location is impossible and the
    // migrating component must find another node (the paper's B lands
    // on node 1).
    dag.add_component(Component::new(A, "producer", ResourceReq::cores_mb(8, 2048)))
        .expect("fresh");
    dag.add_component(Component::new(B, "consumer", ResourceReq::cores_mb(1, 256)))
        .expect("fresh");
    dag.add_edge(A, B, Bandwidth::from_mbps(8.0)).expect("valid");
    dag
}

/// Runs the experiment.
pub fn run(mode: RunMode) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig8",
        "migration walkthrough on controlled capacity changes",
        "headroom drop → full probe → migrate n4→n1; later degradation of n1–n3 → migrate back to n4",
    );
    // Controlled (scripted) capacities on the CityLab topology.
    let scale = match mode {
        RunMode::Full => 1u64,
        RunMode::Quick => 3,
    };
    let t_degrade1 = 540 / scale;
    let t_degrade2 = 1119 / scale;
    let total = SimDuration::from_secs(1500 / scale);

    let mut mesh = Mesh::new(citylab_topology()).expect("connected");
    for l in citylab_topology_links() {
        // Constant base capacities (this is the controlled experiment).
        // The n2–n3 link sits below the pair's 8 Mbps requirement so the
        // only feasible homes for B are nodes 1 and 4, as in the figure.
        let mbps = match (l.a, l.b) {
            (3, 4) => 25.0,
            (2, 3) => 7.0,
            _ => l.mean_mbps,
        };
        mesh.set_link_source(
            NodeId(l.a),
            NodeId(l.b),
            bass_mesh::CapacitySource::Constant(Bandwidth::from_mbps(mbps)),
        )
        .expect("link exists");
    }
    let cluster = Cluster::new([
        NodeSpec::cores_mb(1, 12, 8192),
        NodeSpec::cores_mb(2, 12, 8192),
        NodeSpec::cores_mb(3, 8, 8192),
        NodeSpec::cores_mb(4, 8, 8192),
    ])
    .expect("unique");

    let mut cfg = SimEnvConfig {
        policy: PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
        ..Default::default()
    };
    cfg.pinned = [A].into_iter().collect();
    let mut env = SimEnv::new(mesh, cluster, pair_dag(), cfg);
    env.deploy(&[(A, NodeId(3)), (B, NodeId(4))])
        .expect("pair deploys");
    // Degrade n3–n4 below the 8 Mbps requirement minus headroom, then
    // restore it while degrading n1–n3 (where B will have moved).
    env.set_scenario(
        Scenario::new()
            .at(
                SimTime::from_secs(t_degrade1),
                bass_emu::Action::CapLink {
                    a: NodeId(3),
                    b: NodeId(4),
                    cap: Some(Bandwidth::from_mbps(3.5)),
                },
            )
            .at(
                SimTime::from_secs(t_degrade2),
                bass_emu::Action::CapLink { a: NodeId(3), b: NodeId(4), cap: None },
            )
            .at(
                SimTime::from_secs(t_degrade2),
                bass_emu::Action::CapLink {
                    a: NodeId(1),
                    b: NodeId(3),
                    cap: Some(Bandwidth::from_mbps(3.5)),
                },
            ),
    );

    let mut rec = Recorder::new();
    env.run_for(total, |e| {
        let t = e.now();
        if t.as_micros() % 1_000_000 == 0 {
            let goodput = e.edge_achieved(A, B).as_mbps();
            rec.record_series("goodput_mbps", t, goodput);
        }
    })
    .expect("run completes");

    let migrations = env.stats().migrations.clone();
    for (i, m) in migrations.iter().enumerate() {
        report.push_row(
            Row::new(format!("migration {}", i + 1))
                .with("t_s", m.at.as_secs_f64())
                .with("from_node", m.from.0 as f64)
                .with("to_node", m.to.0 as f64),
        );
    }
    report.push_row(
        Row::new("full probes").with("count", env.netmon().overhead().full_probes as f64),
    );
    let series = rec.series("goodput_mbps");
    let points: Vec<(f64, f64)> = series.iter().map(|(t, v)| (t.as_secs_f64(), v)).collect();
    report.push_series("goodput_mbps", &points, 300);
    report.note(format!(
        "degradations at t={t_degrade1}s (n3-n4 → 3.5 Mbps) and t={t_degrade2}s (restore n3-n4, n1-n3 → 3.5 Mbps)"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_migrations_with_paper_targets() {
        let rep = run(RunMode::Quick);
        let m1 = rep.row("migration 1").expect("first migration happens");
        assert_eq!(m1.value("from_node"), Some(4.0));
        assert_eq!(m1.value("to_node"), Some(1.0), "paper: B moves to node 1");
        let m2 = rep.row("migration 2").expect("second migration happens");
        assert_eq!(m2.value("from_node"), Some(1.0));
        assert_eq!(m2.value("to_node"), Some(4.0), "paper: B moves back to node 4");
        // The first migration happens after the first degradation.
        assert!(m1.value("t_s").unwrap() >= 540.0 / 3.0);
        // Full probes were escalated (startup + at least one on drop).
        let probes = rep.row("full probes").unwrap().value("count").unwrap();
        assert!(probes >= 2.0, "probes {probes}");
    }

    #[test]
    fn goodput_recovers_after_each_migration() {
        let rep = run(RunMode::Quick);
        let (_, points) = rep
            .series
            .iter()
            .find(|(n, _)| n == "goodput_mbps")
            .expect("series recorded");
        let last = points.last().unwrap();
        assert!(last.1 > 7.5, "goodput at end: {} Mbps", last.1);
    }
}
