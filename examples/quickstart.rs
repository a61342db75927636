//! Quickstart: deploy the camera pipeline on a 3-node LAN with each
//! scheduler and compare placements and end-to-end latency.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use bass::appdag::catalog;
use bass::apps::camera::CameraWorkload;
use bass::apps::testbeds::lan_testbed;
use bass::core::heuristics::BfsWeighting;
use bass::core::PlacementPolicy;
use bass::emu::{Recorder, SimEnv, SimEnvConfig};
use bass::util::time::SimDuration;

fn main() {
    println!("BASS quickstart: camera pipeline on a 3-node LAN\n");
    let dag = catalog::camera_pipeline();
    println!("application DAG:\n{}", dag.to_dot());

    for policy in [
        PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
        PlacementPolicy::LongestPath,
        PlacementPolicy::K3sDefault,
    ] {
        let (mesh, cluster) = lan_testbed(3, 12);
        let cfg = SimEnvConfig { policy, ..Default::default() };
        let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
        let placement = env.deploy(&[]).expect("pipeline deploys");

        println!("== scheduler: {policy} ==");
        for component in env.dag().clone().components() {
            println!("  {:<16} -> node {}", component.name, placement[&component.id]);
        }

        let workload = CameraWorkload::new(&env.dag().clone());
        let mut rec = Recorder::new();
        env.run_for(SimDuration::from_secs(60), |e| workload.observe(e, &mut rec))
            .expect("run completes");
        let stats = rec.stats("latency_ms");
        println!(
            "  e2e latency over 60 s: mean {:.1} ms, p99 {:.1} ms\n",
            stats.mean(),
            rec.percentiles("latency_ms").p99()
        );
    }
    println!("Fig. 10's ordering (BFS < longest-path < k3s) should be visible above.");
}
