//! Choosing the target node for a migrating component (§3.2.2, end):
//! "we first identify candidate nodes, where the component already has
//! dependencies deployed. We re-deploy the component on the node which
//! ranks highest in terms of the number of existing deployed
//! dependencies, and with sufficient CPU, memory, and bandwidth".

use crate::score_cache::TargetScoreCache;
use bass_appdag::{AppDag, ComponentId};
use bass_cluster::Cluster;
use bass_mesh::{Mesh, NodeId};
use bass_util::units::Bandwidth;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors picking a migration target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RescheduleError {
    /// The component is not currently placed.
    NotPlaced(ComponentId),
    /// The component does not exist in the DAG.
    UnknownComponent(ComponentId),
    /// No node satisfies CPU, memory, and bandwidth simultaneously.
    NoFeasibleNode(ComponentId),
}

impl fmt::Display for RescheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RescheduleError::NotPlaced(c) => write!(f, "component {c} is not placed"),
            RescheduleError::UnknownComponent(c) => write!(f, "unknown component {c}"),
            RescheduleError::NoFeasibleNode(c) => {
                write!(f, "no feasible migration target for component {c}")
            }
        }
    }
}

impl Error for RescheduleError {}

/// Picks the best migration target for `component`, reading the
/// availability ranking off the synced [`TargetScoreCache`].
///
/// Candidate order: nodes hosting the most of the component's
/// dependencies first (then overall availability rank); the current node
/// is excluded. A candidate is feasible when the component's CPU/memory
/// fit and, for every dependency that would remain remote, the path to
/// its node has at least the edge's bandwidth available.
///
/// # Errors
///
/// See [`RescheduleError`].
pub fn pick_target(
    component: ComponentId,
    dag: &AppDag,
    cluster: &Cluster,
    mesh: &Mesh,
    cache: &TargetScoreCache,
) -> Result<NodeId, RescheduleError> {
    let comp = dag
        .component(component)
        .ok_or(RescheduleError::UnknownComponent(component))?;
    let current = cluster
        .node_of(component)
        .ok_or(RescheduleError::NotPlaced(component))?;

    let deps = dag.neighbors(component);
    // Count dependencies per node.
    let mut dep_count: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (dep, _) in &deps {
        if let Some(n) = cluster.node_of(*dep) {
            *dep_count.entry(n).or_insert(0) += 1;
        }
    }

    // Candidate order: dependency count descending, then availability
    // rank, excluding the current node and any down node. The rank is a
    // position map, not a linear scan per comparison — the scan made
    // the sort O(N² log N) and showed up as the bulk of
    // `ctl.target_select` on large meshes.
    let rank_pos = cache.rank_pos();
    let rank_of = |n: NodeId| rank_pos.get(&n).copied().unwrap_or(usize::MAX);
    let mut candidates: Vec<NodeId> = cache
        .ranked()
        .iter()
        .copied()
        .filter(|&n| n != current && mesh.node_is_up(n))
        .collect();
    candidates.sort_by(|&a, &b| {
        dep_count
            .get(&b)
            .unwrap_or(&0)
            .cmp(dep_count.get(&a).unwrap_or(&0))
            .then(rank_of(a).cmp(&rank_of(b)))
    });

    for node in candidates {
        if !cluster.fits(node, comp.resources).unwrap_or(false) {
            continue;
        }
        if bandwidth_feasible(node, &deps, cluster, mesh) {
            return Ok(node);
        }
    }
    Err(RescheduleError::NoFeasibleNode(component))
}

/// The controller's target selection with an **improvement gate**: a
/// migration only proceeds when the chosen target's prospective service
/// clearly beats the current node's. Every score is served by the
/// synced [`TargetScoreCache`] — the only way a target is scored.
///
/// The current node's score blends the hypothetical allocation with the
/// *observed* goodput fraction of the violating edges
/// (`observed_fraction`): capacity-based scoring alone cannot see
/// congestion caused by other components' traffic, while the observed
/// goodput can; taking the minimum of the two captures both "my link
/// shrank" and "my link is full of someone else's bytes". This is what
/// prevents churn when a transient dip fires a trigger but every node —
/// including the current one — would serve the component equally well.
///
/// Strict bandwidth-feasible selection ([`pick_target`]) is tried first.
/// With `best_effort`, the CPU/memory-feasible node with the best
/// *bandwidth score* — a hypothetical max-min allocation over link
/// **capacities** — is the fallback when no node satisfies every
/// dependency at once. Capacity, not spare bandwidth, is the right
/// metric there: the moving component's own traffic currently pollutes
/// "available" on every path it uses, whereas the sustained rate it can
/// reach after moving is governed by the bottleneck capacity it will
/// contend for. This mirrors the paper's deployed behaviour for
/// components whose traffic is not declared in the DAG (the Pion SFU's
/// client traffic): the component moves to the best-connected node even
/// if no node is perfect, but only when that beats staying put by the
/// 20% hysteresis margin, so it does not ping-pong.
///
/// # Errors
///
/// Returns [`RescheduleError::NoFeasibleNode`] when nothing clearly
/// improves on staying put, plus the [`pick_target`] error conditions.
#[allow(clippy::too_many_arguments)]
pub fn select_target(
    component: ComponentId,
    dag: &AppDag,
    cluster: &Cluster,
    mesh: &Mesh,
    observed_fraction: f64,
    degraded: bool,
    best_effort: bool,
    cache: &mut TargetScoreCache,
) -> Result<NodeId, RescheduleError> {
    let comp = dag
        .component(component)
        .ok_or(RescheduleError::UnknownComponent(component))?;
    let current = cluster
        .node_of(component)
        .ok_or(RescheduleError::NotPlaced(component))?;
    let deps = dag.neighbors(component);

    let hypothetical = cache.score(component, current, &deps, cluster, mesh);
    let current_score = (
        hypothetical.0.min(observed_fraction.clamp(0.0, 1.0)),
        hypothetical.1,
    );

    if let Ok(target) = pick_target(component, dag, cluster, mesh, cache) {
        // A *degraded* component (goodput collapsed) moves to any
        // strictly feasible node — the paper's §3.2.2 behaviour. A
        // merely utilization-flagged component additionally needs the
        // move to be a clear improvement, else transient dips churn.
        if degraded {
            return Ok(target);
        }
        let cand = cache.score(component, target, &deps, cluster, mesh);
        if clearly_better(cand, current_score) {
            return Ok(target);
        }
    }
    if best_effort {
        // The CPU/memory-feasible node (other than the current one)
        // with the best bandwidth score, in availability-rank order:
        // `max_by` keeps the *last* maximum, so the iteration order is
        // part of the contract and must not change.
        let best = (0..cache.ranked().len())
            .filter_map(|i| {
                let n = cache.ranked()[i];
                (n != current
                    && mesh.node_is_up(n)
                    && cluster.fits(n, comp.resources).unwrap_or(false))
                .then(|| (n, cache.score(component, n, &deps, cluster, mesh)))
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"));
        if let Some((node, s)) = best {
            if clearly_better(s, current_score) {
                return Ok(node);
            }
        }
    }
    Err(RescheduleError::NoFeasibleNode(component))
}

/// `(worst satisfied fraction, total achieved bps)` of a hypothetical
/// max-min allocation of the component's dependency edges when hosted at
/// `node`, over the current link capacities with path sharing taken
/// into account (two dependencies reached over the same link split it),
/// plus *which* links the score read (one entry per distinct constraint
/// link, unsorted) — the invalidation key the [`TargetScoreCache`]
/// stores alongside the value. Existing traffic is ignored —
/// optimistic, but self-consistent: the component's own current flows
/// would otherwise pollute the estimate.
///
/// This is the dense scorer: the cache calls it on every miss, and
/// again on every served score under the hidden reference switch.
pub(crate) fn bandwidth_score(
    node: NodeId,
    deps: &[(ComponentId, Bandwidth)],
    cluster: &Cluster,
    mesh: &Mesh,
) -> ((f64, f64), Vec<u32>) {
    use bass_mesh::flow::{max_min_allocate, Constraint};

    let mut demands: Vec<Bandwidth> = Vec::new();
    // Constraint membership: canonical link key → flow indices, plus one
    // egress constraint per capped transmitting node.
    let mut link_members: BTreeMap<(NodeId, NodeId), Vec<usize>> = BTreeMap::new();
    for (dep, required) in deps {
        let Some(dep_node) = cluster.node_of(*dep) else {
            continue;
        };
        if dep_node == node {
            // Co-located: trivially satisfied; count it as demand met.
            demands.push(*required);
            continue;
        }
        let idx = demands.len();
        demands.push(*required);
        if let Ok(path) = mesh.path(node, dep_node) {
            for w in path.windows(2) {
                let key = if w[0] <= w[1] { (w[0], w[1]) } else { (w[1], w[0]) };
                link_members.entry(key).or_default().push(idx);
            }
        }
    }
    if demands.is_empty() {
        return ((1.0, 0.0), Vec::new());
    }
    let mut dep_links = Vec::with_capacity(link_members.len());
    let constraints: Vec<Constraint> = link_members
        .into_iter()
        .map(|((a, b), members)| {
            if let Some(lid) = mesh.topology().find_link(a, b) {
                dep_links.push(lid.0 as u32);
            }
            Constraint {
                capacity: mesh.link_capacity(a, b).unwrap_or(Bandwidth::ZERO),
                members,
            }
        })
        .collect();
    let rates = max_min_allocate(&demands, &constraints);
    let mut worst_fraction = 1.0f64;
    let mut total = 0.0f64;
    for (i, rate) in rates.iter().enumerate() {
        total += rate.as_bps();
        if !demands[i].is_zero() {
            worst_fraction = worst_fraction.min(rate.as_bps() / demands[i].as_bps());
        }
    }
    ((worst_fraction, total), dep_links)
}

/// Hysteresis: a candidate must beat the current node by ≥20% on the
/// worst-satisfied fraction, or — when the fractions are comparable —
/// by ≥20% on total achieved bandwidth.
fn clearly_better(candidate: (f64, f64), current: (f64, f64)) -> bool {
    if current.0 <= 0.0 {
        return candidate.0 > 0.0;
    }
    if candidate.0 > current.0 * 1.2 {
        return true;
    }
    candidate.0 > current.0 * 0.95 && candidate.1 > current.1 * 1.2
}

/// Checks that every dependency (`deps`) that would stay remote after
/// moving the component to `target` can be served: the path from `target` to the
/// dependency's node needs the edge's bandwidth available.
///
/// The check is conservative-approximate: the component's current flows
/// still occupy their old paths while we evaluate, so paths that overlap
/// the old ones may look busier than they will be after the move.
fn bandwidth_feasible(
    target: NodeId,
    deps: &[(ComponentId, Bandwidth)],
    cluster: &Cluster,
    mesh: &Mesh,
) -> bool {
    for (dep, required) in deps {
        let Some(dep_node) = cluster.node_of(*dep) else {
            continue;
        };
        if dep_node == target {
            continue; // would be co-located: no network needed
        }
        let available = mesh
            .path_available(target, dep_node)
            .unwrap_or(Bandwidth::ZERO);
        if available < *required {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_appdag::{catalog, ResourceReq};
    use bass_cluster::NodeSpec;
    use bass_mesh::Topology;
    use bass_util::time::SimDuration;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    /// A cache synced to this world — what the controller hands in.
    fn synced_cache(cluster: &Cluster, mesh: &Mesh) -> TargetScoreCache {
        let mut cache = TargetScoreCache::new();
        cache.sync(mesh, cluster, &cluster.placement());
        cache
    }

    /// 3 fully-connected nodes; camera pipeline; sampler on its own node.
    fn setup() -> (AppDag, Cluster, Mesh) {
        let dag = catalog::camera_pipeline();
        let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap();
        let mut cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 16, 16384))).unwrap();
        // camera on n0, sampler alone on n1, detector+listeners on n2.
        let place = |cl: &mut Cluster, name: &str, n: u32| {
            let c = dag.component_by_name(name).unwrap();
            cl.place(c.id, c.resources, NodeId(n)).unwrap();
        };
        place(&mut cluster, "camera-stream", 0);
        place(&mut cluster, "frame-sampler", 1);
        place(&mut cluster, "object-detector", 2);
        place(&mut cluster, "image-listener", 2);
        place(&mut cluster, "label-listener", 2);
        (dag, cluster, mesh)
    }

    #[test]
    fn prefers_node_with_most_dependencies() {
        let (dag, cluster, mesh) = setup();
        let sampler = dag.component_by_name("frame-sampler").unwrap().id;
        // Sampler talks to camera (n0, 1 dep) and detector (n2, 1 dep);
        // tie on count → availability rank; n2 has 16-11=5 free cores vs
        // n0's 14 free → n0 wins on rank. But the detector edge is 6 Mbps
        // vs camera 20 Mbps... the count tie resolves by rank only.
        let target = pick_target(sampler, &dag, &cluster, &mesh, &synced_cache(&cluster, &mesh)).unwrap();
        assert_eq!(target, NodeId(0));
    }

    #[test]
    fn dependency_count_beats_availability() {
        let (dag, mut cluster, mesh) = setup();
        // Move the listeners off n2 so the sampler can fit there, then
        // relocate the camera to n2: n2 now hosts camera + detector —
        // two of the sampler's dependencies — while n0 is emptier but
        // hosts none.
        let image = dag.component_by_name("image-listener").unwrap().id;
        let label = dag.component_by_name("label-listener").unwrap().id;
        cluster.relocate(image, NodeId(0)).unwrap();
        cluster.relocate(label, NodeId(0)).unwrap();
        let camera = dag.component_by_name("camera-stream").unwrap().id;
        cluster.relocate(camera, NodeId(2)).unwrap();
        let sampler = dag.component_by_name("frame-sampler").unwrap().id;
        let target = pick_target(sampler, &dag, &cluster, &mesh, &synced_cache(&cluster, &mesh)).unwrap();
        assert_eq!(target, NodeId(2), "both dependencies live on n2");
    }

    #[test]
    fn skips_nodes_without_cpu() {
        let (dag, mut cluster, mesh) = setup();
        // Stuff n0 so the sampler (4 cores) cannot fit there.
        cluster
            .place(ComponentId(99), ResourceReq::cores_mb(13, 128), NodeId(0))
            .unwrap();
        let sampler = dag.component_by_name("frame-sampler").unwrap().id;
        let target = pick_target(sampler, &dag, &cluster, &mesh, &synced_cache(&cluster, &mesh)).unwrap();
        assert_eq!(target, NodeId(2));
    }

    #[test]
    fn skips_nodes_without_bandwidth() {
        let (dag, mut cluster, mut mesh) = setup();
        // Choke every link out of n0 below the 20 Mbps camera→sampler
        // requirement; moving the sampler to n0 would co-locate it with
        // the camera, but then the 6 Mbps sampler→detector edge needs
        // n0→n2 bandwidth, which is gone too.
        mesh.set_node_egress_cap(NodeId(0), Some(mbps(1.0))).unwrap();
        mesh.set_link_cap(NodeId(0), NodeId(1), Some(mbps(1.0))).unwrap();
        mesh.set_link_cap(NodeId(0), NodeId(2), Some(mbps(1.0))).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        let sampler = dag.component_by_name("frame-sampler").unwrap().id;
        // Moving to n0 co-locates the camera but leaves the 6 Mbps
        // detector edge on a 1 Mbps path; moving to n2 co-locates the
        // detector but leaves the 20 Mbps camera edge on a 1 Mbps path.
        // Nothing is feasible.
        let err = pick_target(sampler, &dag, &cluster, &mesh, &synced_cache(&cluster, &mesh)).unwrap_err();
        assert_eq!(err, RescheduleError::NoFeasibleNode(sampler));
        let _ = &mut cluster;
    }

    #[test]
    fn colocation_waives_bandwidth_check() {
        let (dag, cluster, mut mesh) = setup();
        // Kill all bandwidth. Moving the detector to n1 (sampler's node)
        // co-locates its heaviest edge; its other edges (to listeners on
        // n2) still need bandwidth, so it fails. But moving the
        // image-listener to n2... it's already there. Use label-listener:
        // its only edge is detector on n2, so moving it to n2 co-locates
        // everything and needs zero network.
        for (a, b) in [(0u32, 1u32), (0, 2), (1, 2)] {
            mesh.set_link_cap(NodeId(a), NodeId(b), Some(Bandwidth::ZERO))
                .unwrap();
        }
        mesh.advance(SimDuration::from_millis(100));
        let label = dag.component_by_name("label-listener").unwrap().id;
        // label is on n2 with the detector already; relocate it first to n0.
        let mut cluster = cluster;
        cluster.relocate(label, NodeId(0)).unwrap();
        let target = pick_target(label, &dag, &cluster, &mesh, &synced_cache(&cluster, &mesh)).unwrap();
        assert_eq!(target, NodeId(2));
    }

    #[test]
    fn down_nodes_are_never_chosen() {
        // Pair a→b: a on n0, b on n2; n2 is CPU-full, so the empty n1 is
        // the only viable target for a.
        let mut dag = AppDag::new("pair");
        dag.add_component(Component::new(ComponentId(1), "a", ResourceReq::cores_mb(1, 128)))
            .unwrap();
        dag.add_component(Component::new(ComponentId(2), "b", ResourceReq::default()))
            .unwrap();
        dag.add_edge(ComponentId(1), ComponentId(2), mbps(5.0)).unwrap();
        let mut mesh = Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap();
        let mut cluster =
            Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 4, 4096))).unwrap();
        cluster.place(ComponentId(1), ResourceReq::cores_mb(1, 128), NodeId(0)).unwrap();
        cluster.place(ComponentId(2), ResourceReq::default(), NodeId(2)).unwrap();
        cluster.place(ComponentId(9), ResourceReq::cores_mb(4, 128), NodeId(2)).unwrap();
        assert_eq!(
            pick_target(ComponentId(1), &dag, &cluster, &mesh, &synced_cache(&cluster, &mesh)).unwrap(),
            NodeId(1)
        );
        // n1 crashes: no candidate remains, in strict, best-effort, and
        // degraded select_target selection alike.
        mesh.set_node_up(NodeId(1), false).unwrap();
        let err = Err(RescheduleError::NoFeasibleNode(ComponentId(1)));
        let mut cache = synced_cache(&cluster, &mesh);
        assert_eq!(pick_target(ComponentId(1), &dag, &cluster, &mesh, &cache), err);
        for observed in [1.0, 0.1] {
            assert_eq!(
                select_target(ComponentId(1), &dag, &cluster, &mesh, observed, true, true, &mut cache),
                err
            );
        }
    }

    #[test]
    fn error_cases() {
        let (dag, cluster, mesh) = setup();
        let mut cache = synced_cache(&cluster, &mesh);
        let unknown = Err(RescheduleError::UnknownComponent(ComponentId(77)));
        assert_eq!(pick_target(ComponentId(77), &dag, &cluster, &mesh, &cache), unknown);
        assert_eq!(
            select_target(ComponentId(77), &dag, &cluster, &mesh, 1.0, true, true, &mut cache),
            unknown
        );
        let mut cluster2 = cluster;
        let camera = dag.component_by_name("camera-stream").unwrap().id;
        cluster2.evict(camera).unwrap();
        let mut cache = synced_cache(&cluster2, &mesh);
        let not_placed = Err(RescheduleError::NotPlaced(camera));
        assert_eq!(pick_target(camera, &dag, &cluster2, &mesh, &cache), not_placed);
        assert_eq!(
            select_target(camera, &dag, &cluster2, &mesh, 1.0, true, true, &mut cache),
            not_placed
        );
    }

    /// Star SFU-like DAG: component 1 talks to pinned-style components
    /// 2..=4 with identical heavy edges.
    fn star_dag(edge_mbps: f64) -> AppDag {
        let mut dag = AppDag::new("star");
        dag.add_component(Component::new(ComponentId(1), "hub", ResourceReq::cores_mb(2, 512)))
            .unwrap();
        for i in 2..=4u32 {
            dag.add_component(Component::new(
                ComponentId(i),
                format!("leaf{i}"),
                ResourceReq::default(),
            ))
            .unwrap();
            dag.add_edge(ComponentId(1), ComponentId(i), mbps(edge_mbps))
                .unwrap();
        }
        dag
    }

    /// Line topology 0-1-2-3 with per-link capacities.
    fn line_mesh(caps: [f64; 3]) -> Mesh {
        let mut topo = Topology::new();
        for i in 0..4 {
            topo.add_node(NodeId(i)).unwrap();
        }
        for i in 0..3u32 {
            topo.add_link(NodeId(i), NodeId(i + 1)).unwrap();
        }
        let mut mesh = Mesh::new(topo).unwrap();
        for (i, c) in caps.into_iter().enumerate() {
            mesh.set_link_source(
                NodeId(i as u32),
                NodeId(i as u32 + 1),
                bass_mesh::CapacitySource::Constant(mbps(c)),
            )
            .unwrap();
        }
        mesh
    }

    #[test]
    fn bandwidth_score_accounts_for_path_sharing() {
        // Hub on node 0; leaves on nodes 1, 2, 3 of a line. Every flow
        // from node 0 shares the first link, so the score must reflect
        // the split, not the per-path bottleneck.
        let dag = star_dag(10.0);
        let mesh = line_mesh([12.0, 100.0, 100.0]);
        let mut cluster =
            Cluster::new((0..4).map(|i| NodeSpec::cores_mb(i, 4, 4096))).unwrap();
        cluster.place(ComponentId(1), ResourceReq::cores_mb(2, 512), NodeId(0)).unwrap();
        for i in 2..=4u32 {
            cluster
                .place(ComponentId(i), ResourceReq::default(), NodeId(i - 1))
                .unwrap();
        }
        let deps = dag.neighbors(ComponentId(1));
        let ((frac, total), links) = bandwidth_score(NodeId(0), &deps, &cluster, &mesh);
        // Three 10 Mbps flows share the 12 Mbps first link → 4 each.
        assert!((frac - 0.4).abs() < 1e-6, "fraction {frac}");
        assert!((total - 12e6).abs() < 1.0, "total {total}");
        assert_eq!(links.len(), 3, "every line link is read from the end: {links:?}");
        // From node 2 the leaves split across both directions: leaf on
        // n1 via link1 (100), leaf on n2 co-located, leaf on n3 via
        // link2 (100) → everything satisfied.
        let ((frac2, _), links2) = bandwidth_score(NodeId(2), &deps, &cluster, &mesh);
        assert!((frac2 - 1.0).abs() < 1e-6, "fraction {frac2}");
        assert_eq!(links2.len(), 2, "the co-located leaf reads no link: {links2:?}");
    }

    #[test]
    fn clearly_better_hysteresis() {
        // 20% margin on the worst-satisfied fraction.
        assert!(clearly_better((0.5, 0.0), (0.4, 0.0)));
        assert!(!clearly_better((0.45, 0.0), (0.4, 0.0)));
        // Comparable fractions: totals decide, also with 20% margin.
        assert!(clearly_better((1.0, 130.0), (1.0, 100.0)));
        assert!(!clearly_better((1.0, 110.0), (1.0, 100.0)));
        // A dead current node: any positive candidate wins.
        assert!(clearly_better((0.01, 1.0), (0.0, 0.0)));
        assert!(!clearly_better((0.0, 0.0), (0.0, 0.0)));
    }

    #[test]
    fn best_effort_moves_hub_to_better_connected_node() {
        // Hub on node 3 (end of the line, weak link); leaves on 0, 1, 2.
        let dag = star_dag(10.0);
        let mut cluster =
            Cluster::new((0..4).map(|i| NodeSpec::cores_mb(i, 4, 4096))).unwrap();
        cluster.place(ComponentId(1), ResourceReq::cores_mb(2, 512), NodeId(3)).unwrap();
        for i in 2..=4u32 {
            cluster
                .place(ComponentId(i), ResourceReq::default(), NodeId(i - 2))
                .unwrap();
        }
        let select = |mesh: &Mesh, best_effort| {
            let mut cache = synced_cache(&cluster, mesh);
            select_target(ComponentId(1), &dag, &cluster, mesh, 1.0, true, best_effort, &mut cache)
        };
        // Healthy inner links: node 1 (center-ish) is strictly feasible,
        // so the degraded hub moves there with or without the fallback.
        let mesh = line_mesh([100.0, 100.0, 5.0]);
        assert_eq!(select(&mesh, true), Ok(NodeId(1)));
        assert_eq!(select(&mesh, false), Ok(NodeId(1)));
        // Every link below the 10 Mbps edges: strict selection fails
        // everywhere. Best-effort still moves the hub to node 1, whose
        // worst edge gets 8 of 10 Mbps against 1.67 at the current node.
        let mesh = line_mesh([8.0, 9.0, 5.0]);
        assert_eq!(select(&mesh, true), Ok(NodeId(1)));
        assert_eq!(select(&mesh, false), Err(RescheduleError::NoFeasibleNode(ComponentId(1))));
    }

    #[test]
    fn select_target_refuses_sideways_moves_for_healthy_components() {
        // Hub already on the best-connected node, goodput fine: even
        // though other strictly feasible nodes exist, the improvement
        // gate keeps the component where it is.
        let dag = star_dag(10.0);
        let mesh = line_mesh([100.0, 100.0, 100.0]);
        let mut cluster =
            Cluster::new((0..4).map(|i| NodeSpec::cores_mb(i, 4, 4096))).unwrap();
        cluster.place(ComponentId(1), ResourceReq::cores_mb(2, 512), NodeId(1)).unwrap();
        for (leaf, node) in [(2u32, 0u32), (3, 2), (4, 3)] {
            cluster
                .place(ComponentId(leaf), ResourceReq::default(), NodeId(node))
                .unwrap();
        }
        assert_eq!(
            select_target(ComponentId(1), &dag, &cluster, &mesh, 1.0, false, true, &mut synced_cache(&cluster, &mesh)),
            Err(RescheduleError::NoFeasibleNode(ComponentId(1)))
        );
    }

    #[test]
    fn select_target_gates_utilization_but_not_degradation() {
        // Hub on node 0, single leaf on node 1, equal alternatives: a
        // healthy (observed = 1.0) component must stay; a degraded one
        // (observed ≪ threshold, caller passes degraded=true) moves as
        // soon as a strictly feasible target exists.
        let mut dag = AppDag::new("pair");
        dag.add_component(Component::new(ComponentId(1), "a", ResourceReq::cores_mb(1, 128)))
            .unwrap();
        dag.add_component(Component::new(ComponentId(2), "b", ResourceReq::default()))
            .unwrap();
        dag.add_edge(ComponentId(1), ComponentId(2), mbps(5.0)).unwrap();
        let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap();
        let mut cluster =
            Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 4, 4096))).unwrap();
        cluster.place(ComponentId(1), ResourceReq::cores_mb(1, 128), NodeId(0)).unwrap();
        cluster.place(ComponentId(2), ResourceReq::default(), NodeId(1)).unwrap();

        // Healthy: gate suppresses the sideways move.
        assert_eq!(
            select_target(ComponentId(1), &dag, &cluster, &mesh, 1.0, false, true, &mut synced_cache(&cluster, &mesh)),
            Err(RescheduleError::NoFeasibleNode(ComponentId(1)))
        );
        // Degraded: strict feasibility suffices (co-locating with b on
        // node 1 is feasible and allowed immediately).
        let target =
            select_target(ComponentId(1), &dag, &cluster, &mesh, 0.1, true, true, &mut synced_cache(&cluster, &mesh)).unwrap();
        assert_eq!(target, NodeId(1));
    }

    use bass_appdag::AppDag;
    use bass_appdag::{Component, ComponentId};
    use bass_mesh::NodeId;
}
