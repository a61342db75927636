//! Fig. 10: camera-pipeline end-to-end latency under different
//! scheduling policies on a 3-node cluster with no bandwidth limits,
//! plus the component placements each scheduler chose.
//!
//! Paper: mean latency BFS 410 ms < longest-path 428 ms < k3s 433 ms;
//! BFS co-locates camera+sampler, k3s spreads obliviously.

use crate::experiments::common::{camera, Knobs};
use crate::{ExperimentReport, Row, RunMode};
use bass_apps::camera::CameraWorkload;
use bass_apps::testbeds::lan_testbed;
use bass_core::heuristics::BfsWeighting;
use bass_core::PlacementPolicy;
use bass_emu::Recorder;
use bass_util::time::SimDuration;

/// Runs the experiment.
pub fn run(mode: RunMode) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig10",
        "camera pipeline latency by scheduler (LAN, no limits)",
        "mean e2e: BFS 410 ms < longest-path 428 ms < k3s 433 ms; BFS co-locates camera+sampler",
    );
    let duration = SimDuration::from_secs(mode.secs(300));

    for (label, policy) in [
        ("bfs", PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight)),
        ("longest-path", PlacementPolicy::LongestPath),
        ("k3s-default", PlacementPolicy::K3sDefault),
    ] {
        let knobs = Knobs { policy, ..Knobs::default() };
        let mut env = camera(lan_testbed(3, 12), &knobs);
        let wl = CameraWorkload::new(&env.dag().clone());
        let mut rec = Recorder::new();
        env.run_for(duration, |e| wl.observe(e, &mut rec))
            .expect("run completes");
        let stats = rec.stats("latency_ms");
        report.push_row(
            Row::new(label)
                .with("mean_ms", stats.mean())
                .with("p99_ms", rec.percentiles("latency_ms").p99()),
        );
        // Placement table (Fig. 10b).
        let dag = env.dag().clone();
        let placement = env.placement();
        let placements: Vec<String> = dag
            .components()
            .map(|c| format!("{}→n{}", c.name, placement[&c.id].0))
            .collect();
        report.note(format!("{label} placement: {}", placements.join(", ")));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_paper() {
        let rep = run(RunMode::Quick);
        let bfs = rep.row("bfs").unwrap().value("mean_ms").unwrap();
        let lp = rep.row("longest-path").unwrap().value("mean_ms").unwrap();
        let k3s = rep.row("k3s-default").unwrap().value("mean_ms").unwrap();
        assert!(bfs <= lp + 1e-9, "bfs {bfs} vs lp {lp}");
        assert!(lp < k3s, "lp {lp} vs k3s {k3s}");
        // All in the paper's regime (hundreds of ms).
        for v in [bfs, lp, k3s] {
            assert!((300.0..600.0).contains(&v), "latency {v}");
        }
        // BFS co-locates camera and sampler.
        let note = rep
            .notes
            .iter()
            .find(|n| n.starts_with("bfs placement"))
            .unwrap();
        let cam_node = note
            .split("camera-stream→")
            .nth(1)
            .unwrap()
            .chars()
            .nth(1)
            .unwrap();
        let sam_node = note
            .split("frame-sampler→")
            .nth(1)
            .unwrap()
            .chars()
            .nth(1)
            .unwrap();
        assert_eq!(cam_node, sam_node);
    }
}
