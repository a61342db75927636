//! Cross-crate integration tests: full deploy → restrict → probe →
//! migrate → recover scenarios through the public facade API.

use bass::appdag::catalog;
use bass::apps::testbeds::{citylab_testbed, lan_testbed};
use bass::apps::{ArrivalProcess, SocialNetWorkload};
use bass::core::heuristics::BfsWeighting;
use bass::core::PlacementPolicy;
use bass::emu::{Recorder, Scenario, SimEnv, SimEnvConfig};
use bass::mesh::NodeId;
use bass::util::time::{SimDuration, SimTime};
use bass::util::units::Bandwidth;

fn camera_env(policy: PlacementPolicy, migrations: bool) -> SimEnv {
    let (mesh, cluster) = lan_testbed(3, 12);
    let cfg = SimEnvConfig {
        policy,
        migrations_enabled: migrations,
        ..Default::default()
    };
    let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
    env.deploy(&[]).expect("deploys");
    env
}

#[test]
fn full_cycle_deploy_restrict_migrate_recover() {
    let mut env = camera_env(
        PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
        true,
    );
    let dag = env.dag().clone();
    let id = |n: &str| dag.component_by_name(n).unwrap().id;
    let placement = env.placement();
    let (a, b) = (
        placement[&id("frame-sampler")],
        placement[&id("object-detector")],
    );
    assert_ne!(a, b, "BFS splits the pipeline across two nodes");

    // Squeeze the crossing link well below the 6 Mbps requirement.
    env.set_scenario(Scenario::new().at(
        SimTime::from_secs(45),
        bass::emu::Action::CapLink { a, b, cap: Some(Bandwidth::from_mbps(1.5)) },
    ));
    env.run_for(SimDuration::from_secs(240), |e| {
        e.cluster().check_invariants().unwrap()
    })
    .unwrap();

    // The controller migrated something and goodput recovered.
    assert!(!env.stats().migrations.is_empty());
    let achieved = env.edge_achieved(id("frame-sampler"), id("object-detector"));
    assert!(
        achieved.as_mbps() > 5.9,
        "goodput after recovery: {achieved}"
    );
    // Cluster invariants hold after migrations.
    env.cluster().check_invariants().unwrap();
}

#[test]
fn static_baseline_stays_degraded() {
    let mut env = camera_env(
        PlacementPolicy::K3sDefault,
        false,
    );
    let dag = env.dag().clone();
    let id = |n: &str| dag.component_by_name(n).unwrap().id;
    let placement = env.placement();
    let (a, b) = (
        placement[&id("frame-sampler")],
        placement[&id("object-detector")],
    );
    env.set_scenario(Scenario::new().at(
        SimTime::from_secs(10),
        bass::emu::Action::CapLink { a, b, cap: Some(Bandwidth::from_mbps(1.5)) },
    ));
    env.run_for(SimDuration::from_secs(120), |e| {
        e.cluster().check_invariants().unwrap()
    })
    .unwrap();
    assert!(env.stats().migrations.is_empty());
    let achieved = env.edge_achieved(id("frame-sampler"), id("object-detector"));
    assert!(achieved.as_mbps() < 1.6, "stuck at the cap: {achieved}");
}

#[test]
fn social_network_runs_on_citylab_deterministically() {
    let run = || {
        let duration = SimDuration::from_secs(120);
        let (mesh, cluster) = citylab_testbed(5, duration + SimDuration::from_secs(30));
        let cfg = SimEnvConfig {
            policy: PlacementPolicy::LongestPath,
            ..Default::default()
        };
        let mut env = SimEnv::new(mesh, cluster, catalog::social_network(50.0), cfg);
        env.deploy(&[]).expect("deploys");
        let mut wl =
            SocialNetWorkload::new(&env.dag().clone(), 50.0, ArrivalProcess::Exponential, 5);
        let mut rec = Recorder::new();
        wl.run(&mut env, duration, &mut rec).unwrap();
        (
            rec.percentiles("latency_ms").median(),
            rec.percentiles("latency_ms").p99(),
            env.placement(),
        )
    };
    let (m1, p1, place1) = run();
    let (m2, p2, place2) = run();
    assert_eq!(m1, m2, "same seed ⇒ identical medians");
    assert_eq!(p1, p2, "same seed ⇒ identical p99");
    assert_eq!(place1, place2, "same seed ⇒ identical placement");
    assert!(m1 > 100.0 && m1 < 10_000.0, "median {m1}");
}

#[test]
fn probe_overhead_stays_small() {
    let duration = SimDuration::from_secs(300);
    let (mesh, cluster) = citylab_testbed(9, duration + SimDuration::from_secs(30));
    let cfg = SimEnvConfig::default();
    let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
    env.deploy(&[]).expect("deploys");
    env.run_for(duration, |e| e.cluster().check_invariants().unwrap())
        .unwrap();
    let overhead = env.netmon().overhead();
    // §6.3.4: headroom probing ≈0.3% of link traffic. Links total
    // ≈182 Mbps × 300 s. Allow generous slack for full probes.
    let capacity_bytes = 182e6 / 8.0 * 300.0;
    let frac = overhead.total_bytes().as_bytes() as f64 / capacity_bytes;
    assert!(frac < 0.02, "probe overhead fraction {frac}");
    assert!(overhead.headroom_probes >= 9, "rounds {}", overhead.headroom_probes);
}

#[test]
fn manifest_roundtrip_through_deployment() {
    // Serialize the social network to a manifest, load it back, deploy.
    let dag = catalog::social_network(50.0);
    let manifest = bass::appdag::Manifest::from_dag(&dag);
    let json = serde_json::to_string(&manifest).unwrap();
    let loaded: bass::appdag::Manifest = serde_json::from_str(&json).unwrap();
    let rebuilt = loaded.to_dag().unwrap();

    let (mesh, cluster) = lan_testbed(4, 8);
    let cfg = SimEnvConfig::default();
    let mut env = SimEnv::new(mesh, cluster, rebuilt, cfg);
    let placement = env.deploy(&[]).expect("manifest-built DAG deploys");
    assert_eq!(placement.len(), 27);
}

#[test]
fn migrations_disabled_is_really_static() {
    let mut env = camera_env(PlacementPolicy::LongestPath, false);
    let before = env.placement();
    // Try hard to provoke: cap everything.
    let nodes: Vec<NodeId> = env.cluster().node_ids();
    for &n in &nodes {
        env.mesh_mut()
            .set_node_egress_cap(n, Some(Bandwidth::from_mbps(0.5)))
            .unwrap();
    }
    env.run_for(SimDuration::from_secs(120), |e| {
        e.cluster().check_invariants().unwrap()
    })
    .unwrap();
    assert_eq!(env.placement(), before);
    assert!(env.stats().migrations.is_empty());
}
