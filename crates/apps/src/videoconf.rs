//! The video-conferencing workload: a Pion-like SFU (selective
//! forwarding unit).
//!
//! One server component receives every publisher's stream and forwards
//! it to every other participant. Clients are *external* to the cluster
//! but attached to mesh nodes; they are modeled as pinned, zero-resource
//! pseudo-components so the whole BASS machinery (per-edge goodput
//! monitoring, Algorithm 3, target selection) applies to the SFU's
//! client traffic exactly as it does to ordinary component traffic.
//!
//! Because the application DAG must stay acyclic, the uplink
//! (client → SFU) volume is folded into the downlink edge's bandwidth
//! requirement — physically accurate for a shared-medium wireless link,
//! which carries both directions anyway.

use bass_appdag::{AppDag, Component, ComponentId, ResourceReq};
use bass_emu::{Recorder, SimEnv};
use bass_mesh::NodeId;
use bass_util::units::Bandwidth;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The clients attached at one mesh node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientGroup {
    /// The mesh node the clients connect through.
    pub node: NodeId,
    /// Number of participants at this node.
    pub clients: usize,
    /// How many of them publish (share video).
    pub publishers: usize,
}

/// Video-conference configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VideoConfConfig {
    /// Client groups (must be non-empty; publishers ≤ clients).
    pub groups: Vec<ClientGroup>,
    /// Target bitrate of one published stream, in Kbps.
    pub stream_kbps: f64,
}

impl VideoConfConfig {
    /// The paper's Fig. 15 setup: 3 clients at each of the four workers,
    /// all publishing, 500 Kbps streams.
    pub fn fig15() -> Self {
        VideoConfConfig {
            groups: (1..=4)
                .map(|n| ClientGroup { node: NodeId(n), clients: 3, publishers: 3 })
                .collect(),
            stream_kbps: 500.0,
        }
    }

    /// Total publishers across groups.
    fn total_publishers(&self) -> usize {
        self.groups.iter().map(|g| g.publishers).sum()
    }

    /// Downlink demand of one group: every client subscribes to every
    /// published stream except its own.
    fn group_downlink(&self, g: &ClientGroup) -> Bandwidth {
        let p = self.total_publishers();
        let subs = g.clients * p - g.publishers; // own stream not re-received
        Bandwidth::from_kbps(subs as f64 * self.stream_kbps)
    }

    /// Uplink demand of one group (its publishers' streams).
    fn group_uplink(&self, g: &ClientGroup) -> Bandwidth {
        Bandwidth::from_kbps(g.publishers as f64 * self.stream_kbps)
    }
}

/// The SFU component id in the generated DAG.
pub const SFU_ID: ComponentId = ComponentId(1);

/// The pseudo-component id for the client group at a node.
fn group_id(node: NodeId) -> ComponentId {
    ComponentId(100 + node.0)
}

/// The video-conference workload driver.
#[derive(Debug, Clone)]
pub struct VideoConfWorkload {
    cfg: VideoConfConfig,
}

impl VideoConfWorkload {
    /// Creates the workload and its DAG: the SFU plus one pinned
    /// pseudo-component per client group, joined by edges carrying the
    /// group's aggregate (down + up) traffic.
    ///
    /// Returns `(workload, dag, pins, pinned)`; pass `pins` to
    /// [`SimEnv::deploy`] and `pinned` into the environment config.
    ///
    /// # Panics
    ///
    /// Panics if a group has `publishers > clients` or no groups exist.
    pub fn new(
        cfg: VideoConfConfig,
    ) -> (Self, AppDag, Vec<(ComponentId, NodeId)>, BTreeSet<ComponentId>) {
        assert!(!cfg.groups.is_empty(), "need at least one client group");
        for g in &cfg.groups {
            assert!(
                g.publishers <= g.clients,
                "publishers cannot exceed clients at {}",
                g.node
            );
        }
        let mut dag = AppDag::new("video-conference");
        dag.add_component(Component::new(
            SFU_ID,
            "sfu-server",
            ResourceReq::cores_mb(2, 1024),
        ))
        .expect("fresh component");
        let mut pins = Vec::new();
        let mut pinned = BTreeSet::new();
        for g in &cfg.groups {
            let cid = group_id(g.node);
            dag.add_component(Component::new(
                cid,
                format!("clients@{}", g.node),
                ResourceReq::default(),
            ))
            .expect("fresh component");
            let bw = cfg.group_downlink(g) + cfg.group_uplink(g);
            dag.add_edge(SFU_ID, cid, bw).expect("valid edge");
            pins.push((cid, g.node));
            pinned.insert(cid);
        }
        (VideoConfWorkload { cfg }, dag, pins, pinned)
    }

    /// The configuration.
    pub fn config(&self) -> &VideoConfConfig {
        &self.cfg
    }

    /// Average download bitrate per client at `node`, in Kbps: the
    /// group's achieved downlink share divided across its clients.
    pub fn client_bitrate_kbps(&self, env: &SimEnv, node: NodeId) -> f64 {
        let Some(g) = self.cfg.groups.iter().find(|g| g.node == node) else {
            return 0.0;
        };
        if g.clients == 0 {
            return 0.0;
        }
        let achieved = env.edge_achieved(SFU_ID, group_id(node));
        let down = self.cfg.group_downlink(g);
        let up = self.cfg.group_uplink(g);
        let down_share = if (down + up).is_zero() {
            0.0
        } else {
            down.as_bps() / (down + up).as_bps()
        };
        achieved.as_kbps() * down_share / g.clients as f64
    }

    /// Packet-loss fraction experienced by clients at `node`.
    pub fn client_loss(&self, env: &SimEnv, node: NodeId) -> f64 {
        env.edge_loss(SFU_ID, group_id(node))
    }

    /// Records one observation per group: `bitrate_kbps@n<i>` and
    /// `loss@n<i>` series plus per-group bitrate sample batches.
    pub fn observe(&self, env: &SimEnv, rec: &mut Recorder) {
        for g in &self.cfg.groups {
            let bitrate = self.client_bitrate_kbps(env, g.node);
            let loss = self.client_loss(env, g.node);
            rec.record_series(&format!("bitrate_kbps@{}", g.node), env.now(), bitrate);
            rec.record_series(&format!("loss@{}", g.node), env.now(), loss);
            rec.record_sample(&format!("bitrate_kbps_samples@{}", g.node), bitrate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbeds::lan_testbed;
    use bass_core::PlacementPolicy;
    use bass_emu::{Scenario, SimEnvConfig};
    use bass_util::time::{SimDuration, SimTime};

    fn fig3_cfg(participants: usize) -> VideoConfConfig {
        // Motivation setup (Fig. 3): server lands on node 2 area,
        // clients all at node 0, everyone publishes 300 Kbps.
        VideoConfConfig {
            groups: vec![ClientGroup { node: NodeId(0), clients: participants, publishers: participants }],
            stream_kbps: 300.0,
        }
    }

    fn deploy(cfg: VideoConfConfig, migrations: bool) -> (VideoConfWorkload, SimEnv) {
        let (wl, dag, pins, pinned) = VideoConfWorkload::new(cfg);
        let (mesh, _) = lan_testbed(3, 8);
        // Node 0 hosts the (external) clients only: zero schedulable
        // capacity, exactly like the paper's client machines outside the
        // cluster. The zero-resource client pseudo-component still fits.
        let cluster = bass_cluster::Cluster::new([
            bass_cluster::NodeSpec::cores_mb(0, 0, 0),
            bass_cluster::NodeSpec::cores_mb(1, 8, 16_384),
            bass_cluster::NodeSpec::cores_mb(2, 8, 16_384),
        ])
        .unwrap();
        let env_cfg = SimEnvConfig {
            policy: PlacementPolicy::LongestPath,
            pinned,
            migrations_enabled: migrations,
            ..Default::default()
        };
        let mut env = SimEnv::new(mesh, cluster, dag, env_cfg);
        env.deploy(&pins).unwrap();
        (wl, env)
    }

    #[test]
    fn demand_formulas() {
        let cfg = VideoConfConfig::fig15();
        assert_eq!(cfg.total_publishers(), 12);
        let g = cfg.groups[0];
        // 3 clients × 12 streams − 3 own = 33 × 500 Kbps = 16.5 Mbps.
        assert!((cfg.group_downlink(&g).as_mbps() - 16.5).abs() < 1e-9);
        assert!((cfg.group_uplink(&g).as_mbps() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn healthy_conference_achieves_full_bitrate() {
        let (wl, mut env) = deploy(fig3_cfg(6), true);
        env.run_for(SimDuration::from_secs(5), |_| {}).unwrap();
        // 6 participants × 300 Kbps, all subscribed: per-client average
        // download = (6×6−6)×300/6 ≈ 1500 Kbps of the 1800 gross (down
        // share) — on a 1 Gbps LAN everything is achieved.
        let bitrate = wl.client_bitrate_kbps(&env, NodeId(0));
        assert!((bitrate - 1500.0).abs() < 1.0, "bitrate {bitrate}");
        assert_eq!(wl.client_loss(&env, NodeId(0)), 0.0);
    }

    #[test]
    fn bottleneck_causes_loss_beyond_capacity() {
        // Fig. 4's shape: cap the SFU node's egress at 30 Mbps; with
        // participants beyond ~10 at 300 Kbps the per-client bitrate
        // degrades and loss appears.
        let mut degraded = Vec::new();
        for participants in [6usize, 10, 14, 18] {
            let (wl, mut env) = deploy(fig3_cfg(participants), false);
            let sfu_node = env.placement()[&SFU_ID];
            env.mesh_mut()
                .set_node_egress_cap(sfu_node, Some(Bandwidth::from_mbps(30.0)))
                .unwrap();
            env.run_for(SimDuration::from_secs(3), |_| {}).unwrap();
            degraded.push((
                participants,
                wl.client_bitrate_kbps(&env, NodeId(0)),
                wl.client_loss(&env, NodeId(0)),
            ));
        }
        // Small conferences are unaffected…
        assert!(degraded[0].2 < 0.01, "loss at 6: {:?}", degraded[0]);
        // …large ones lose packets and each client receives a shrinking
        // fraction of its subscribed target bitrate (Fig. 4's shape).
        let last = degraded.last().unwrap();
        assert!(last.2 > 0.3, "loss at 18 participants: {last:?}");
        let target = |participants: usize| (participants - 1) as f64 * 300.0;
        let frac_6 = degraded[0].1 / target(6);
        let frac_18 = last.1 / target(18);
        assert!(frac_6 > 0.95, "6 participants get their target: {frac_6}");
        assert!(frac_18 < 0.5, "18 participants are degraded: {frac_18}");
    }

    #[test]
    fn migration_restores_bitrate_after_squeeze() {
        // Fig. 12's shape: squeeze the SFU's node; with migrations the
        // SFU moves and bitrate recovers; the squeeze lasts forever so
        // the no-migration control stays degraded.
        let run = |migrations: bool| {
            let (wl, mut env) = deploy(fig3_cfg(8), migrations);
            let sfu_node = env.placement()[&SFU_ID];
            env.set_scenario(Scenario::new().at(
                SimTime::from_secs(20),
                bass_emu::Action::CapNodeEgress {
                    node: sfu_node,
                    cap: Some(Bandwidth::from_mbps(3.0)),
                },
            ));
            let mut rec = Recorder::new();
            env.run_for(SimDuration::from_secs(300), |e| wl.observe(e, &mut rec))
                .unwrap();
            let series = rec.series("bitrate_kbps@n0");
            let tail = series
                .stats_in(SimTime::from_secs(250), SimTime::from_secs(300))
                .mean();
            (tail, env.stats().migrations.len())
        };
        let (with_mig_tail, n_mig) = run(true);
        let (without_mig_tail, n_nomig) = run(false);
        assert!(n_mig >= 1, "SFU must migrate");
        assert_eq!(n_nomig, 0);
        assert!(
            with_mig_tail > without_mig_tail * 2.0,
            "with {with_mig_tail} vs without {without_mig_tail}"
        );
    }

    #[test]
    fn group_ids_are_distinct_from_sfu() {
        let cfg = VideoConfConfig::fig15();
        let (_, dag, pins, pinned) = VideoConfWorkload::new(cfg);
        assert_eq!(dag.component_count(), 5);
        assert_eq!(pins.len(), 4);
        assert_eq!(pinned.len(), 4);
        assert!(!pinned.contains(&SFU_ID), "the SFU must stay migratable");
        for (cid, node) in pins {
            assert_eq!(cid, group_id(node));
            assert_ne!(cid, SFU_ID);
        }
    }

    #[test]
    fn observe_records_series_per_group() {
        let (wl, mut env) = deploy(fig3_cfg(4), false);
        let mut rec = Recorder::new();
        env.run_for(SimDuration::from_secs(2), |e| wl.observe(e, &mut rec))
            .unwrap();
        assert!(!rec.series("bitrate_kbps@n0").is_empty());
        assert!(!rec.series("loss@n0").is_empty());
        assert!(!rec.samples("bitrate_kbps_samples@n0").is_empty());
    }

    #[test]
    #[should_panic(expected = "publishers cannot exceed")]
    fn invalid_group_rejected() {
        let _ = VideoConfWorkload::new(VideoConfConfig {
            groups: vec![ClientGroup { node: NodeId(0), clients: 1, publishers: 2 }],
            stream_kbps: 300.0,
        });
    }
}
