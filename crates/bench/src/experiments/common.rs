//! Shared experiment setup: parameterized environments for the three
//! applications on a testbed the caller builds (LAN, CityLab, or CityLab
//! with flat capacities).

use bass_appdag::catalog;
use bass_apps::testbeds::{citylab_testbed, lan_testbed};
use bass_apps::{ArrivalProcess, SocialNetWorkload, VideoConfConfig, VideoConfWorkload};
use bass_cluster::{Cluster, NodeSpec};
use bass_core::migration::MigrationConfig;
use bass_core::{ControllerConfig, PlacementPolicy};
use bass_emu::{SimEnv, SimEnvConfig};
use bass_mesh::{Mesh, NodeId};
use bass_netmon::NetMonitorConfig;
use bass_util::time::SimDuration;

/// Knobs shared by most experiment setups.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Knobs {
    /// Placement policy.
    pub policy: PlacementPolicy,
    /// Dynamic migration on/off.
    pub migrations: bool,
    /// Headroom/goodput monitoring interval in seconds (paper: 30/60/90).
    pub probe_interval_s: u64,
    /// Goodput-fraction threshold (paper default 0.5).
    pub goodput_threshold: f64,
    /// Link-utilization threshold (Fig. 15 sweeps 0.65/0.85).
    pub utilization_threshold: f64,
    /// Headroom fraction, the one setting the headroom probe and
    /// Algorithm 3 both read (paper ~0.2; Fig. 14c/d sweeps 0.1–0.3).
    pub headroom: f64,
    /// Migration cooldown in seconds.
    pub cooldown_s: u64,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            policy: PlacementPolicy::LongestPath,
            migrations: true,
            probe_interval_s: 30,
            goodput_threshold: 0.5,
            utilization_threshold: 0.65,
            headroom: 0.2,
            cooldown_s: 60,
        }
    }
}

impl Knobs {
    /// Builds the environment configuration for these knobs.
    fn env_config(&self) -> SimEnvConfig {
        SimEnvConfig {
            policy: self.policy,
            migrations_enabled: self.migrations,
            controller: ControllerConfig {
                migration: MigrationConfig {
                    goodput_threshold: self.goodput_threshold,
                    utilization_threshold: self.utilization_threshold,
                },
                cooldown: SimDuration::from_secs(self.cooldown_s),
            },
            netmon: NetMonitorConfig {
                headroom_fraction: self.headroom,
                probe_interval: SimDuration::from_secs(self.probe_interval_s),
            },
            ..SimEnvConfig::default()
        }
    }
}

/// Social network at `rps` deployed on `testbed`, with its workload.
pub(crate) fn social(
    (mesh, cluster): (Mesh, Cluster),
    rps: f64,
    knobs: &Knobs,
    arrivals: ArrivalProcess,
    seed: u64,
) -> (SimEnv, SocialNetWorkload) {
    let mut env = SimEnv::new(mesh, cluster, catalog::social_network(rps), knobs.env_config());
    env.deploy(&[]).expect("social network deploys");
    let wl = SocialNetWorkload::new(&env.dag().clone(), rps, arrivals, seed);
    (env, wl)
}

/// Camera pipeline deployed on `testbed`.
pub(crate) fn camera((mesh, cluster): (Mesh, Cluster), knobs: &Knobs) -> SimEnv {
    let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), knobs.env_config());
    env.deploy(&[]).expect("camera pipeline deploys");
    env
}

/// Video conference on a LAN where node 0 hosts the (external) clients
/// and nodes 1..n are schedulable workers — the Fig. 3 microbenchmark
/// shape.
pub(crate) fn videoconf_lan(
    cfg: VideoConfConfig,
    workers: u32,
    knobs: &Knobs,
) -> (VideoConfWorkload, SimEnv) {
    let (wl, dag, pins, pinned) = VideoConfWorkload::new(cfg);
    let (mesh, _) = lan_testbed(workers + 1, 8);
    let mut specs = vec![NodeSpec::cores_mb(0, 0, 0)];
    specs.extend((1..=workers).map(|i| NodeSpec::cores_mb(i, 8, 16_384)));
    let cluster = Cluster::new(specs).expect("unique node ids");
    let mut env_cfg = knobs.env_config();
    env_cfg.pinned = pinned;
    env_cfg.restart = bass_cluster::RestartModel::webrtc();
    let mut env = SimEnv::new(mesh, cluster, dag, env_cfg);
    env.deploy(&pins).expect("SFU deploys");
    (wl, env)
}

/// Video conference on CityLab with 3 clients at each worker (Fig. 15).
///
/// `sfu_start` optionally fixes the SFU's initial node (the paper
/// deploys the server "on one of the 4 worker nodes" without naming it);
/// `None` lets the scheduler choose. The SFU remains migratable either
/// way.
pub(crate) fn videoconf_citylab(
    knobs: &Knobs,
    seed: u64,
    trace_len: SimDuration,
    sfu_start: Option<NodeId>,
) -> (VideoConfWorkload, SimEnv) {
    let (wl, dag, mut pins, pinned) = VideoConfWorkload::new(VideoConfConfig::fig15());
    let (mesh, cluster) = citylab_testbed(seed, trace_len);
    let mut env_cfg = knobs.env_config();
    env_cfg.pinned = pinned;
    env_cfg.restart = bass_cluster::RestartModel::webrtc();
    if let Some(node) = sfu_start {
        pins.push((bass_apps::videoconf::SFU_ID, node));
    }
    let mut env = SimEnv::new(mesh, cluster, dag, env_cfg);
    env.deploy(&pins).expect("SFU deploys on CityLab");
    (wl, env)
}

/// The node hosting a named component right now.
pub fn node_of(env: &SimEnv, name: &str) -> NodeId {
    let id = env
        .dag()
        .component_by_name(name)
        .unwrap_or_else(|| panic!("missing component '{name}'"))
        .id;
    env.placement()[&id]
}

/// Immutable mesh escape hatch for assertions in experiments.
pub fn link_mbps(mesh: &Mesh, a: u32, b: u32) -> f64 {
    mesh.link_capacity(NodeId(a), NodeId(b))
        .map(|b| b.as_mbps())
        .unwrap_or(0.0)
}
