//! The camera-processing workload (Fig. 9): per-frame end-to-end
//! latency over the deployed pipeline.
//!
//! A frame's end-to-end latency is the sum, along the
//! camera → sampler → detector → image-listener path, of each stage's
//! service time (scaled by its restart-recovery slowdown) and each
//! inter-stage transfer delay at the current network state. Service
//! times are calibrated so the healthy LAN deployment lands near the
//! paper's ≈410–430 ms (Fig. 10a) with the detector dominating
//! (≈300 ms of GPU-less YOLO inference).

use bass_appdag::{AppDag, ComponentId};
use bass_emu::{Recorder, SimEnv};
use bass_util::time::SimDuration;
use bass_util::units::DataSize;

// Per-stage service times.
const CAMERA_MS: u64 = 10; // camera/RTP publishing per frame
const SAMPLER_MS: u64 = 60; // frame-similarity sampling
const DETECTOR_MS: u64 = 300; // YOLO inference
const LISTENER_MS: u64 = 10; // listener handling

// Per-hop message sizes.
const FRAME: DataSize = DataSize::from_kilobytes(60); // camera → sampler
const SAMPLED_FRAME: DataSize = DataSize::from_kilobytes(50); // sampler → detector
const ANNOTATED: DataSize = DataSize::from_kilobytes(40); // detector → image listener

/// The camera workload driver.
///
/// Attach to an environment deployed with
/// [`bass_appdag::catalog::camera_pipeline`]; call
/// [`CameraWorkload::observe`] every tick to sample a frame's latency.
#[derive(Debug, Clone)]
pub struct CameraWorkload {
    camera: ComponentId,
    sampler: ComponentId,
    detector: ComponentId,
    image: ComponentId,
}

impl CameraWorkload {
    /// Binds the workload to a camera-pipeline DAG.
    ///
    /// # Panics
    ///
    /// Panics if the DAG is not the camera pipeline (missing components).
    pub fn new(dag: &AppDag) -> Self {
        let id = |name: &str| {
            dag.component_by_name(name)
                .unwrap_or_else(|| panic!("camera pipeline must contain '{name}'"))
                .id
        };
        CameraWorkload {
            camera: id("camera-stream"),
            sampler: id("frame-sampler"),
            detector: id("object-detector"),
            image: id("image-listener"),
        }
    }

    /// End-to-end latency of one frame through the annotated-image path
    /// at the environment's current state.
    fn frame_latency(&self, env: &SimEnv) -> SimDuration {
        let svc = |c: ComponentId, ms: u64| {
            SimDuration::from_millis(ms).mul_f64(env.slowdown(c))
        };
        svc(self.camera, CAMERA_MS)
            + env.edge_delay(self.camera, self.sampler, FRAME)
            + svc(self.sampler, SAMPLER_MS)
            + env.edge_delay(self.sampler, self.detector, SAMPLED_FRAME)
            + svc(self.detector, DETECTOR_MS)
            + env.edge_delay(self.detector, self.image, ANNOTATED)
            + svc(self.image, LISTENER_MS)
    }

    /// Records one observation: a `latency_ms` sample and an
    /// `e2e_latency_ms` time-series point.
    pub fn observe(&self, env: &SimEnv, rec: &mut Recorder) {
        let lat_ms = self.frame_latency(env).as_secs_f64() * 1e3;
        rec.record_sample("latency_ms", lat_ms);
        rec.record_series("e2e_latency_ms", env.now(), lat_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbeds::lan_testbed;
    use bass_appdag::catalog;
    use bass_core::heuristics::BfsWeighting;
    use bass_core::PlacementPolicy;
    use bass_emu::SimEnvConfig;
    use bass_util::units::Bandwidth;

    fn env(policy: PlacementPolicy) -> SimEnv {
        let (mesh, cluster) = lan_testbed(3, 12);
        let cfg = SimEnvConfig { policy, ..Default::default() };
        let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
        env.deploy(&[]).unwrap();
        env
    }

    #[test]
    fn healthy_lan_latency_matches_fig10_ballpark() {
        let mut env = env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        let wl = CameraWorkload::new(&env.dag().clone());
        let mut rec = Recorder::new();
        env.run_for(SimDuration::from_secs(10), |e| {
            wl.observe(e, &mut rec);
        })
        .unwrap();
        let mean = rec.stats("latency_ms").mean();
        assert!(
            (350.0..500.0).contains(&mean),
            "Fig. 10a reports ≈410 ms for BFS; got {mean}"
        );
    }

    #[test]
    fn scheduler_ordering_matches_fig10() {
        // BFS ≤ LP < k3s in crossing bandwidth → same order in latency.
        let mut results = Vec::new();
        for policy in [
            PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
            PlacementPolicy::LongestPath,
            PlacementPolicy::K3sDefault,
        ] {
            let mut e = env(policy);
            let wl = CameraWorkload::new(&e.dag().clone());
            let mut rec = Recorder::new();
            e.run_for(SimDuration::from_secs(10), |e| wl.observe(e, &mut rec))
                .unwrap();
            results.push(rec.stats("latency_ms").mean());
        }
        assert!(results[0] <= results[1] + 1e-9, "bfs {} vs lp {}", results[0], results[1]);
        assert!(results[1] < results[2], "lp {} vs k3s {}", results[1], results[2]);
    }

    #[test]
    fn bandwidth_squeeze_inflates_latency() {
        // Migrations off so the squeeze persists (the "no migration"
        // baseline of Figs. 12/13).
        let (mesh, cluster) = lan_testbed(3, 12);
        let cfg = SimEnvConfig {
            policy: PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
            migrations_enabled: false,
            ..Default::default()
        };
        let mut e = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
        e.deploy(&[]).unwrap();
        let dag = e.dag().clone();
        let wl = CameraWorkload::new(&dag);
        let healthy = wl.frame_latency(&e);
        // Cap the crossing link under the 6 Mbps sampler→detector demand.
        let placement = e.placement();
        let s = placement[&dag.component_by_name("frame-sampler").unwrap().id];
        let d = placement[&dag.component_by_name("object-detector").unwrap().id];
        e.mesh_mut().set_link_cap(s, d, Some(Bandwidth::from_mbps(1.0))).unwrap();
        for _ in 0..50 {
            e.step().unwrap();
        }
        let squeezed = wl.frame_latency(&e);
        assert!(
            squeezed > healthy * 2,
            "squeezed {squeezed} vs healthy {healthy}"
        );
    }
}
