//! The migration-decision policies (the scheduler arena).
//!
//! The BASS controller's decision cycle splits into two policy points:
//! *which components should move* (candidate filtering, Algorithm 3 by
//! default) and *where each should go* (target scoring). [`PolicyKind`]
//! is the closed registry of policies, and each point is one `match`
//! over it in this module: the paper's controller is one arm among the
//! baseline families from the orchestrator taxonomy (spread, random,
//! network-aware greedy, k3s-default) plus a Metronome-style
//! priority-aware policy — all runnable head-to-head by `bassctl arena`.
//!
//! Determinism contract (see `docs/POLICIES.md`): a decision may depend
//! only on the round's world snapshot, its availability ranking, and
//! the controller's seeded random stream. Wall-clock time, map
//! iteration order over non-`BTree` maps, and global RNGs are all
//! forbidden — same-seed runs must be bit-identical, and
//! [`PolicyKind::Bass`] must reproduce the paper controller's golden
//! journals byte-for-byte.

use crate::migration::{MigrationCandidates, MigrationConfig};
use crate::rescheduler::{score_cmp, select_target, Scorer};
use bass_appdag::{AppDag, ComponentId};
use bass_cluster::Cluster;
use bass_mesh::{Mesh, NodeId};
use bass_netmon::GoodputView;
use bass_util::rng::SimRng;
use bass_util::units::Bandwidth;
use std::collections::BTreeSet;

/// Read-only world snapshot for one decision round: everything a
/// policy may consult. The environment's step owns the probe cadence
/// and the controller the cooldown clock.
#[derive(Clone, Copy)]
pub(crate) struct PolicyCtx<'a> {
    /// The mesh (capacities, routes, up/down state).
    pub(crate) mesh: &'a Mesh,
    /// The application DAG (components, edges, requirements).
    pub(crate) dag: &'a AppDag,
    /// The cluster (node resources and current placements).
    pub(crate) cluster: &'a Cluster,
    /// Per-edge goodput, read when a policy asks.
    pub(crate) goodput: &'a dyn GoodputView,
    /// Components that must never migrate.
    pub(crate) pinned: &'a BTreeSet<ComponentId>,
    /// Candidate-selection thresholds (Algorithm 3 knobs).
    pub(crate) migration: MigrationConfig,
    /// Required headroom as a fraction of link capacity: the
    /// net-monitor's setting, so probe and triggers agree.
    pub(crate) headroom_fraction: f64,
}

/// The policy registry: every migration-decision policy, by name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's controller: Algorithm 3 candidates, bandwidth-scored
    /// targets with the improvement gate and best-effort fallback.
    #[default]
    Bass,
    /// Resource-only bin packing: most-free-resources node, network
    /// ignored (what vanilla k3s would do).
    K3sDefault,
    /// Fewest components per node: spread component count evenly.
    Spread,
    /// Uniformly random feasible node, drawn from the controller's
    /// stream seeded with [`RANDOM_POLICY_SEED`].
    Random,
    /// Pure bandwidth-score argmax, no hysteresis gate.
    NetworkAwareGreedy,
    /// Metronome-style priority-aware: heavy-traffic components are
    /// a priority class that always moves first and moves eagerly.
    Metronome,
}

/// The seed of the random policy's stream: every controller built or
/// reset with [`PolicyKind::Random`] starts it here.
pub const RANDOM_POLICY_SEED: u64 = 0xB455;

/// Heaviest-adjacent-edge bandwidth, in Mbps, at which `metronome`
/// counts a component as priority traffic.
const METRONOME_PRIORITY_MBPS: f64 = 5.0;

impl PolicyKind {
    /// Every registered policy, in the arena's canonical order.
    pub fn all() -> [PolicyKind; 6] {
        [
            PolicyKind::Bass,
            PolicyKind::K3sDefault,
            PolicyKind::Spread,
            PolicyKind::Random,
            PolicyKind::NetworkAwareGreedy,
            PolicyKind::Metronome,
        ]
    }

    /// The registry name (what [`parse`](Self::parse) accepts).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Bass => "bass",
            PolicyKind::K3sDefault => "k3s-default",
            PolicyKind::Spread => "spread",
            PolicyKind::Random => "random",
            PolicyKind::NetworkAwareGreedy => "network-aware-greedy",
            PolicyKind::Metronome => "metronome",
        }
    }

    /// Parses a registry name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names for anything else.
    pub fn parse(name: &str) -> Result<PolicyKind, String> {
        match name {
            "bass" => Ok(PolicyKind::Bass),
            "k3s-default" | "k3s" => Ok(PolicyKind::K3sDefault),
            "spread" => Ok(PolicyKind::Spread),
            "random" => Ok(PolicyKind::Random),
            "network-aware-greedy" | "greedy" => Ok(PolicyKind::NetworkAwareGreedy),
            "metronome" => Ok(PolicyKind::Metronome),
            other => Err(format!(
                "unknown policy '{other}' (expected bass, k3s-default, spread, random, \
                 network-aware-greedy, or metronome)"
            )),
        }
    }

    /// Which components should migrate this round: Algorithm 3
    /// (utilization + degradation triggers, heaviest-first dedup)
    /// exactly as the paper's controller runs it. `metronome` then
    /// re-ranks the list priority-first: heaviest adjacent edge
    /// descending, component id as the final deterministic tie-break.
    pub(crate) fn find_candidates(self, ctx: &PolicyCtx<'_>) -> MigrationCandidates {
        let mut out = crate::migration::find_candidates(ctx);
        if self == PolicyKind::Metronome {
            out.to_migrate.sort_by(|&a, &b| {
                let (pa, pb) = (priority(a, ctx.dag), priority(b, ctx.dag));
                pb.as_bps().total_cmp(&pa.as_bps()).then(a.cmp(&b))
            });
        }
        out
    }

    /// Where `component` should move: `None` keeps it put this round, as
    /// for a component the DAG or the cluster does not hold. `observed`
    /// is the worst goodput fraction among its violations, degraded below
    /// the goodput threshold ([`MigrationConfig::degraded`]); `ranked` is
    /// this round's availability ranking and `scorer` its one scoring
    /// scratch, both made once by the controller; `rng` is the
    /// controller's stream, drawn from by `random` alone.
    ///
    /// - `bass`: [`select_target`](crate::rescheduler::select_target)
    ///   over the ranking — the paper's behaviour, held bit-identical by
    ///   the golden battery (`tests/policy.rs`).
    /// - `metronome`: the same, except that a priority component (its
    ///   heaviest adjacent edge at or above 5 Mbps — Metronome's
    ///   periodic bulk transfers with deadlines) moves eagerly, as if
    ///   degraded; best-effort traffic keeps the improvement gate.
    /// - `k3s-default`: the feasible node with the most free CPU (then
    ///   memory, then lowest id) — a k3s least-allocated score,
    ///   network-blind.
    /// - `spread`: the feasible node hosting the fewest components
    ///   (then most free CPU, then lowest id).
    /// - `random`: a uniformly random feasible node. Two controllers
    ///   with fresh streams make identical decision sequences — the
    ///   arena's "random" is a reproducible baseline, not noise.
    /// - `network-aware-greedy`: the feasible node with the best
    ///   bandwidth score toward the component's dependencies, if it
    ///   beats staying put at all — no improvement gate, so it chases
    ///   the best link state every round: strong when the network
    ///   genuinely moved, churn-prone when the trigger was transient
    ///   (the contrast the arena is built to show).
    pub(crate) fn select_target(
        self,
        component: ComponentId,
        observed: f64,
        ctx: &PolicyCtx<'_>,
        ranked: &[NodeId],
        scorer: &mut Scorer,
        rng: &mut SimRng,
    ) -> Option<NodeId> {
        let degraded = ctx.migration.degraded(observed);
        match self {
            PolicyKind::Bass => select_target(component, observed, degraded, ctx, ranked, scorer),
            PolicyKind::Metronome => {
                let eager =
                    priority(component, ctx.dag) >= Bandwidth::from_mbps(METRONOME_PRIORITY_MBPS);
                select_target(component, observed, degraded || eager, ctx, ranked, scorer)
            }
            PolicyKind::K3sDefault => {
                let (_, nodes) = feasible_targets(component, ctx)?;
                nodes
                    .into_iter()
                    .map(|n| {
                        let free = ctx.cluster.free_on(n).expect("cluster node exists");
                        (std::cmp::Reverse(free.cpu.as_millis()), std::cmp::Reverse(free.memory.as_mb()), n)
                    })
                    .min()
                    .map(|(_, _, n)| n)
            }
            PolicyKind::Spread => {
                let (_, nodes) = feasible_targets(component, ctx)?;
                nodes
                    .into_iter()
                    .map(|n| {
                        let hosted = ctx.cluster.components_on(n).len();
                        let free = ctx.cluster.free_on(n).expect("cluster node exists");
                        (hosted, std::cmp::Reverse(free.cpu.as_millis()), n)
                    })
                    .min()
                    .map(|(_, _, n)| n)
            }
            PolicyKind::Random => {
                let (_, nodes) = feasible_targets(component, ctx)?;
                if nodes.is_empty() {
                    return None;
                }
                Some(nodes[rng.below(nodes.len() as u64) as usize])
            }
            PolicyKind::NetworkAwareGreedy => {
                let (current, nodes) = feasible_targets(component, ctx)?;
                let deps = ctx.dag.neighbors(component);
                let current_score = scorer.bandwidth_score(current, &deps, ctx.cluster, ctx.mesh);
                nodes
                    .into_iter()
                    .map(|n| (n, scorer.bandwidth_score(n, &deps, ctx.cluster, ctx.mesh)))
                    .filter(|&(_, s)| s > current_score)
                    .max_by(|a, b| score_cmp(a.1, b.1))
                    .map(|(n, _)| n)
            }
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The feasible targets for `component`: up nodes other than its
/// current one where its CPU/memory fit, in ascending `NodeId` order.
fn feasible_targets(component: ComponentId, ctx: &PolicyCtx<'_>) -> Option<(NodeId, Vec<NodeId>)> {
    let comp = ctx.dag.component(component)?;
    let current = ctx.cluster.node_of(component)?;
    let nodes = ctx
        .cluster
        .node_ids()
        .into_iter()
        .filter(|&n| n != current && ctx.mesh.node_is_up(n))
        .filter(|&n| ctx.cluster.fits(n, comp.resources).unwrap_or(false))
        .collect();
    Some((current, nodes))
}

/// `metronome`'s priority of `component`: its heaviest adjacent edge.
fn priority(component: ComponentId, dag: &AppDag) -> Bandwidth {
    dag.neighbors(component)
        .into_iter()
        .map(|(_, bw)| bw)
        .fold(Bandwidth::ZERO, Bandwidth::max)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ranking::rank_nodes;
    use bass_appdag::catalog;
    use bass_cluster::NodeSpec;
    use bass_mesh::Topology;
    use bass_netmon::EdgeUsage;
    use std::collections::BTreeMap;

    /// One round's world over `dag`, `cluster` and `mesh`: nothing
    /// measured, nothing pinned, the default thresholds and the
    /// net-monitor's default headroom.
    pub(crate) fn ctx<'a>(dag: &'a AppDag, cluster: &'a Cluster, mesh: &'a Mesh) -> PolicyCtx<'a> {
        static NOTHING_MEASURED: BTreeMap<(ComponentId, ComponentId), EdgeUsage> = BTreeMap::new();
        static NOTHING_PINNED: BTreeSet<ComponentId> = BTreeSet::new();
        PolicyCtx {
            mesh,
            dag,
            cluster,
            goodput: &NOTHING_MEASURED,
            pinned: &NOTHING_PINNED,
            migration: MigrationConfig::default(),
            headroom_fraction: 0.2,
        }
    }

    #[test]
    fn no_policy_targets_an_unknown_or_unplaced_component() {
        // The camera pipeline on three roomy nodes, the sampler (n0) cut
        // off from the detector (n1) by a 1 Mbps link and the camera
        // evicted: a degraded round where every policy moves the sampler.
        let dag = catalog::camera_pipeline();
        let mbps = Bandwidth::from_mbps;
        let mut mesh = Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap();
        mesh.set_link_cap(NodeId(0), NodeId(1), Some(mbps(1.0))).unwrap();
        mesh.advance(bass_util::time::SimDuration::from_millis(100));
        let mut cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 32, 32_768))).unwrap();
        for (c, n) in dag.component_ids().zip([0, 0, 1, 1, 2]) {
            cluster.place(c, dag.component(c).unwrap().resources, NodeId(n)).unwrap();
        }
        let camera = dag.component_by_name("camera-stream").unwrap().id;
        let sampler = dag.component_by_name("frame-sampler").unwrap().id;
        cluster.evict(camera).unwrap();
        let ctx = ctx(&dag, &cluster, &mesh);
        let ranked = rank_nodes(&cluster, &mesh);
        for kind in PolicyKind::all() {
            let select = |c| {
                let rng = &mut SimRng::seed_from_u64(RANDOM_POLICY_SEED);
                kind.select_target(c, 0.1, &ctx, &ranked, &mut Scorer::default(), rng)
            };
            assert!(select(sampler).is_some(), "{kind}: a placed component has a target");
            assert_eq!(select(ComponentId(77)), None, "{kind}: unknown component");
            assert_eq!(select(camera), None, "{kind}: unplaced component");
        }
    }

    #[test]
    fn registry_names_round_trip() {
        for kind in PolicyKind::all() {
            assert_eq!(PolicyKind::parse(kind.name()), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(PolicyKind::parse("k3s"), Ok(PolicyKind::K3sDefault));
        assert_eq!(PolicyKind::parse("greedy"), Ok(PolicyKind::NetworkAwareGreedy));
        let err = PolicyKind::parse("nope").unwrap_err();
        assert!(err.contains("unknown policy 'nope'"), "{err}");
        assert!(err.contains("metronome"), "{err}");
    }

    #[test]
    fn registry_covers_at_least_five_policies() {
        let names: std::collections::BTreeSet<&str> =
            PolicyKind::all().iter().map(|k| k.name()).collect();
        assert!(names.len() >= 5, "{names:?}");
    }

    #[test]
    fn default_kind_is_bass() {
        assert_eq!(PolicyKind::default(), PolicyKind::Bass);
    }
}
