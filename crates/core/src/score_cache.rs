//! Cached target-selection scores for the controller.
//!
//! `ctl.target_select` is the controller's heaviest span: every
//! candidate evaluation re-ranks all nodes and re-runs the hypothetical
//! max-min allocation ([`bandwidth_score`]) per `(component, node)`
//! pair, even though in steady state almost none of the score inputs
//! moved since the previous round. This module keeps those results
//! across controller ticks and invalidates them from the mesh's dirty
//! sets instead of recomputing them wholesale — the same
//! "network-state-aware but cheap" move DCSim makes with incremental
//! network-state views.
//!
//! A cached score is only served when it is provably the value the
//! dense scorer would produce right now:
//!
//! - **Placement** (and the cluster's node set) feeds every score via
//!   dependency locations and free resources — any change flushes the
//!   cache (placements move rarely: exactly when a migration landed).
//! - **Routing / up-down / egress-cap state** feeds path selection —
//!   [`Mesh::routes_epoch`] moves on any of those, flushing the cache.
//! - **Link capacities** feed both the rank order and the per-pair
//!   scores. The mesh logs every observed capacity move (see
//!   [`Mesh::capacity_changes_since`]); the cache re-ranks and evicts
//!   only entries whose recorded dependency links intersect the moved
//!   set. When the mesh has discarded the history the cache flushes.
//!
//! Usage-dependent checks ([`path_available`](Mesh::path_available)
//! inside `bandwidth_feasible`) are never cached: usage moves every
//! tick and the checks are O(path), not O(mesh).
//!
//! The dense scorer doubles as the **test reference**: under the hidden
//! one-way [`TargetScoreCache::use_reference_scoring`] every score the
//! cache serves is re-derived from scratch and compared bitwise, and
//! every `sync` checks the rank order against a fresh [`rank_nodes`] —
//! turning any stale-invalidation bug into a loud panic. No
//! configuration reaches it.
//!
//! [`bandwidth_score`]: crate::rescheduler

use crate::ranking::rank_nodes;
use crate::rescheduler::bandwidth_score;
use bass_appdag::ComponentId;
use bass_cluster::{Cluster, Placement};
use bass_mesh::{Mesh, NodeId};
use bass_util::units::Bandwidth;
use std::collections::BTreeMap;

/// One cached `(component, node)` score with the links it depends on.
#[derive(Debug, Clone)]
struct ScoreEntry {
    /// `(worst satisfied fraction, total achieved bps)`.
    score: (f64, f64),
    /// Sorted link indices whose capacity the score read.
    dep_links: Vec<u32>,
}

/// Counters describing how the cache has been behaving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoreCacheStats {
    /// Scores served from the cache.
    pub hits: u64,
    /// Scores computed and inserted.
    pub misses: u64,
    /// Entries evicted by targeted capacity-change invalidation.
    pub evictions: u64,
    /// Whole-cache flushes (placement/routing moved, history lost).
    pub flushes: u64,
}

impl std::ops::AddAssign for ScoreCacheStats {
    fn add_assign(&mut self, other: Self) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.flushes += other.flushes;
    }
}

/// Persistent score state for [`select_target`] / [`pick_target`],
/// owned by the controller and carried across ticks — the only way a
/// migration target is scored.
///
/// Call [`sync`](Self::sync) once in every controller round that scores
/// a target, then feed the cache to the rescheduler entry points; a
/// round that scores nothing may skip it.
///
/// [`select_target`]: crate::rescheduler::select_target
/// [`pick_target`]: crate::rescheduler::pick_target
#[derive(Debug, Clone, Default)]
pub struct TargetScoreCache {
    /// Set (one way) by [`use_reference_scoring`](Self::use_reference_scoring).
    reference: bool,
    valid: bool,
    place_snap: Placement,
    node_snap: Vec<NodeId>,
    routes_epoch: u64,
    cap_epoch: u64,
    ranked: Vec<NodeId>,
    rank_pos: BTreeMap<NodeId, usize>,
    scores: BTreeMap<(ComponentId, NodeId), ScoreEntry>,
    stats: ScoreCacheStats,
}

impl TargetScoreCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Switches this cache to reference scoring for the rest of its
    /// life: every score it serves — hit or miss — is re-derived with
    /// the dense scorer and every [`sync`](Self::sync) re-ranks from
    /// scratch, panicking on any bitwise divergence. Test support: the
    /// scoring battery flags one run and requires the production run's
    /// journal to match it byte for byte. There is no way back
    /// ([`clear`](Self::clear) keeps it) and no configuration that
    /// reaches this.
    #[doc(hidden)]
    pub fn use_reference_scoring(&mut self) {
        self.reference = true;
    }

    /// Drops every cached value; the next [`sync`](Self::sync) starts
    /// cold. The behaviour counters (and the reference switch) survive.
    pub fn clear(&mut self) {
        *self = TargetScoreCache { reference: self.reference, stats: self.stats, ..Self::default() };
    }

    /// Behaviour counters so far.
    pub fn stats(&self) -> ScoreCacheStats {
        self.stats
    }

    /// Brings the cache up to date with the world: flushes on
    /// placement/node-set/routing changes or lost capacity history,
    /// otherwise evicts exactly the entries whose dependency links
    /// moved. Must run before `score` each controller
    /// round — serving across a missed `sync` would serve stale values.
    pub fn sync(&mut self, mesh: &Mesh, cluster: &Cluster, placement: &Placement) {
        let routes = mesh.routes_epoch();
        let moved = if self.valid { mesh.capacity_changes_since(self.cap_epoch) } else { None };
        let full = !self.valid
            || *placement != self.place_snap
            || routes != self.routes_epoch
            || moved.is_none();
        if full {
            self.scores.clear();
            self.place_snap = placement.clone();
            self.node_snap = cluster.node_ids();
            self.rebuild_ranked(cluster, mesh);
            self.stats.flushes += 1;
        } else {
            let node_snap = cluster.node_ids();
            if node_snap != self.node_snap {
                self.scores.clear();
                self.node_snap = node_snap;
                self.rebuild_ranked(cluster, mesh);
                self.stats.flushes += 1;
            } else {
                let mut changed: Vec<u32> =
                    moved.expect("checked above").iter().map(|&(_, l)| l).collect();
                if !changed.is_empty() {
                    changed.sort_unstable();
                    changed.dedup();
                    // Capacities feed the rank order too.
                    self.rebuild_ranked(cluster, mesh);
                    let before = self.scores.len();
                    self.scores.retain(|_, e| {
                        !e.dep_links.iter().any(|l| changed.binary_search(l).is_ok())
                    });
                    self.stats.evictions += (before - self.scores.len()) as u64;
                }
            }
        }
        self.routes_epoch = routes;
        self.cap_epoch = mesh.capacity_epoch();
        self.valid = true;
        if self.reference {
            let fresh = rank_nodes(cluster, mesh);
            assert!(
                self.ranked == fresh,
                "score cache diverged on the node ranking: cached {:?} vs dense {fresh:?}",
                self.ranked
            );
        }
    }

    fn rebuild_ranked(&mut self, cluster: &Cluster, mesh: &Mesh) {
        self.ranked = rank_nodes(cluster, mesh);
        self.rank_pos.clear();
        for (i, &n) in self.ranked.iter().enumerate() {
            self.rank_pos.insert(n, i);
        }
    }

    /// The availability ranking as of the last [`sync`](Self::sync).
    pub fn ranked(&self) -> &[NodeId] {
        debug_assert!(self.valid, "ranked() on a cache that was never synced");
        &self.ranked
    }

    /// Position lookup into [`ranked`](Self::ranked).
    pub(crate) fn rank_pos(&self) -> &BTreeMap<NodeId, usize> {
        &self.rank_pos
    }

    /// The bandwidth score of hosting `component` (whose dependency
    /// edges are `deps`) at `node` — served from the cache when the
    /// entry is live, computed (and remembered with its dependency
    /// links) otherwise. Bit-identical to the dense
    /// `bandwidth_score` by construction.
    ///
    /// # Panics
    ///
    /// Under [`use_reference_scoring`](Self::use_reference_scoring),
    /// when the served score diverges from the dense scorer — that is
    /// the point of the switch.
    pub(crate) fn score(
        &mut self,
        component: ComponentId,
        node: NodeId,
        deps: &[(ComponentId, Bandwidth)],
        cluster: &Cluster,
        mesh: &Mesh,
    ) -> (f64, f64) {
        debug_assert!(self.valid, "score() on a cache that was never synced");
        let served = if let Some(e) = self.scores.get(&(component, node)) {
            self.stats.hits += 1;
            e.score
        } else {
            let (score, mut dep_links) = bandwidth_score(node, deps, cluster, mesh);
            dep_links.sort_unstable();
            dep_links.dedup();
            self.scores.insert((component, node), ScoreEntry { score, dep_links });
            self.stats.misses += 1;
            score
        };
        if self.reference {
            let (dense, _) = bandwidth_score(node, deps, cluster, mesh);
            assert!(
                served.0.to_bits() == dense.0.to_bits() && served.1.to_bits() == dense.1.to_bits(),
                "score cache diverged for component {component} at node {node}: \
                 cached {served:?} vs dense {dense:?}"
            );
        }
        served
    }

    /// Number of live entries (test/diagnostic aid).
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BassController, ControllerConfig, PolicyKind};
    use bass_appdag::ResourceReq;
    use bass_cluster::NodeSpec;
    use bass_mesh::Topology;

    const HUB: ComponentId = ComponentId(1);

    /// Hub on n0 with one 5 Mbps dependency on n1; n2 idle.
    fn world() -> (Cluster, Mesh, Vec<(ComponentId, Bandwidth)>) {
        let mesh =
            Mesh::with_uniform_capacity(Topology::full_mesh(3), Bandwidth::from_mbps(100.0))
                .unwrap();
        let mut cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 4, 4096))).unwrap();
        cluster.place(HUB, ResourceReq::cores_mb(1, 128), NodeId(0)).unwrap();
        cluster.place(ComponentId(2), ResourceReq::default(), NodeId(1)).unwrap();
        (cluster, mesh, vec![(ComponentId(2), Bandwidth::from_mbps(5.0))])
    }

    /// A reference-scoring cache synced to `world()` holding one live
    /// entry for the hub at n2.
    fn warm_reference_cache(
        cluster: &Cluster,
        mesh: &Mesh,
        deps: &[(ComponentId, Bandwidth)],
    ) -> TargetScoreCache {
        let mut cache = TargetScoreCache::new();
        cache.use_reference_scoring();
        cache.sync(mesh, cluster, &cluster.placement());
        cache.score(HUB, NodeId(2), deps, cluster, mesh);
        cache
    }

    #[test]
    fn reference_scoring_passes_on_a_healthy_cache_and_survives_clear() {
        let (cluster, mesh, deps) = world();
        let mut cache = warm_reference_cache(&cluster, &mesh, &deps);
        let hit = cache.score(HUB, NodeId(2), &deps, &cluster, &mesh);
        assert_eq!(hit, (1.0, 5e6));
        cache.sync(&mesh, &cluster, &cluster.placement());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.flushes), (1, 1, 1));
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.reference, "clear() must not switch the oracle off");
        assert_eq!(cache.stats(), stats);
    }

    #[test]
    #[should_panic(expected = "score cache diverged for component")]
    fn reference_scoring_catches_a_corrupted_entry() {
        let (cluster, mesh, deps) = world();
        let mut cache = warm_reference_cache(&cluster, &mesh, &deps);
        cache.scores.get_mut(&(HUB, NodeId(2))).unwrap().score.1 += 1.0;
        cache.score(HUB, NodeId(2), &deps, &cluster, &mesh);
    }

    #[test]
    #[should_panic(expected = "score cache diverged on the node ranking")]
    fn reference_scoring_catches_a_stale_ranking() {
        let (cluster, mesh, deps) = world();
        let mut cache = warm_reference_cache(&cluster, &mesh, &deps);
        cache.ranked.swap(0, 1);
        // Nothing moved, so this sync keeps the (corrupted) ranking.
        cache.sync(&mesh, &cluster, &cluster.placement());
    }

    #[test]
    fn reference_switch_survives_controller_reset_and_policy_switch() {
        let mut ctl = BassController::new(ControllerConfig::default());
        assert!(!ctl.score_cache().reference, "no config reaches the oracle");
        ctl.use_reference_scoring();
        ctl.reset();
        assert!(ctl.score_cache().reference, "a controller restart keeps the oracle");
        ctl.set_policy(PolicyKind::Spread);
        assert!(ctl.score_cache().reference, "a policy switch keeps the oracle");
    }
}
