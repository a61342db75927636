//! Shared experiment setup: parameterized environments for the three
//! applications on the LAN and CityLab testbeds.

use bass_appdag::catalog;
use bass_apps::testbeds::{citylab_testbed, citylab_testbed_flat, lan_testbed};
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

/// Social network on `n` LAN workers with `cores` cores each.
pub(crate) fn social_lan(
    rps: f64,
    n: u32,
    cores: u64,
    knobs: &Knobs,
    arrivals: ArrivalProcess,
    seed: u64,
) -> (SimEnv, SocialNetWorkload) {
    let (mesh, cluster) = lan_testbed(n, cores);
    let dag = catalog::social_network(rps);
    let mut env = SimEnv::new(mesh, cluster, dag, knobs.env_config());
    env.deploy(&[]).expect("social network deploys on the LAN");
    let wl = SocialNetWorkload::new(&env.dag().clone(), rps, arrivals, seed);
    (env, wl)
}

/// Social network on the CityLab emulation.
pub(crate) fn social_citylab(
    rps: f64,
    knobs: &Knobs,
    arrivals: ArrivalProcess,
    seed: u64,
    trace_len: SimDuration,
) -> (SimEnv, SocialNetWorkload) {
    let (mesh, cluster) = citylab_testbed(seed, trace_len);
    let dag = catalog::social_network(rps);
    let mut env = SimEnv::new(mesh, cluster, dag, knobs.env_config());
    env.deploy(&[]).expect("social network deploys on CityLab");
    let wl = SocialNetWorkload::new(&env.dag().clone(), rps, arrivals, seed);
    (env, wl)
}

/// Social network on the CityLab topology with *flat* (max-of-trace)
/// capacities — for experiments that must isolate an effect from
/// bandwidth variation (e.g. Fig. 14a's restart cost).
pub(crate) fn social_citylab_flat(
    rps: f64,
    knobs: &Knobs,
    arrivals: ArrivalProcess,
    seed: u64,
    trace_len: SimDuration,
) -> (SimEnv, SocialNetWorkload) {
    let (mesh, cluster) = citylab_testbed_flat(seed, trace_len);
    let dag = catalog::social_network(rps);
    let mut env = SimEnv::new(mesh, cluster, dag, knobs.env_config());
    env.deploy(&[]).expect("social network deploys on CityLab");
    let wl = SocialNetWorkload::new(&env.dag().clone(), rps, arrivals, seed);
    (env, wl)
}

/// Camera pipeline on `n` LAN workers.
pub(crate) fn camera_lan(n: u32, cores: u64, knobs: &Knobs) -> SimEnv {
    let (mesh, cluster) = lan_testbed(n, cores);
    let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), knobs.env_config());
    env.deploy(&[]).expect("camera pipeline deploys on the LAN");
    env
}

/// Camera pipeline on CityLab (trace-driven or flat).
pub(crate) fn camera_citylab(
    knobs: &Knobs,
    seed: u64,
    trace_len: SimDuration,
    flat: bool,
) -> SimEnv {
    let (mesh, cluster) = if flat {
        citylab_testbed_flat(seed, trace_len)
    } else {
        citylab_testbed(seed, trace_len)
    };
    let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), knobs.env_config());
    env.deploy(&[]).expect("camera pipeline deploys on CityLab");
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
