//! Choosing the target node for a migrating component (§3.2.2, end):
//! "we first identify candidate nodes, where the component already has
//! dependencies deployed. We re-deploy the component on the node which
//! ranks highest in terms of the number of existing deployed
//! dependencies, and with sufficient CPU, memory, and bandwidth".

use crate::policy::PolicyCtx;
use bass_appdag::{Component, ComponentId};
use bass_cluster::Cluster;
use bass_mesh::flow::{Constraint, FillScratch};
use bass_mesh::{LinkId, Mesh, NodeId};
use bass_util::units::Bandwidth;
use std::collections::BTreeMap;

/// Strict target selection for `comp`, now on `current`, with
/// dependencies `deps`; `ranked` is this round's availability ranking
/// ([`rank_nodes`](crate::ranking::rank_nodes)).
///
/// Candidate order: nodes hosting the most of the component's
/// dependencies first (then overall availability rank); the current node
/// is excluded. A candidate is feasible when the component's CPU/memory
/// fit and, for every dependency that would remain remote, the path to
/// its node has at least the edge's bandwidth available.
fn pick_target(
    comp: &Component,
    current: NodeId,
    deps: &[(ComponentId, Bandwidth)],
    cluster: &Cluster,
    mesh: &Mesh,
    ranked: &[NodeId],
) -> Option<NodeId> {
    // Count dependencies per node.
    let mut dep_count: BTreeMap<NodeId, usize> = BTreeMap::new();
    for n in deps.iter().filter_map(|(dep, _)| cluster.node_of(*dep)) {
        *dep_count.entry(n).or_insert(0) += 1;
    }

    // Candidate order: dependency count descending, then availability
    // rank, excluding the current node and any down node. Candidates
    // are collected in rank order and the sort is stable, so sorting on
    // the count alone leaves ties in rank order.
    let mut candidates: Vec<NodeId> = ranked
        .iter()
        .copied()
        .filter(|&n| n != current && mesh.node_is_up(n))
        .collect();
    candidates.sort_by_key(|n| std::cmp::Reverse(dep_count.get(n).copied().unwrap_or(0)));
    candidates.into_iter().find(|&n| {
        cluster.fits(n, comp.resources).unwrap_or(false) && bandwidth_feasible(n, deps, cluster, mesh)
    })
}

/// The controller's target selection with an **improvement gate**: a
/// migration only proceeds when the chosen target's prospective service
/// clearly beats the current node's. Every score is a
/// `bandwidth_score` of this round's world; `ranked` is this round's
/// availability ranking ([`rank_nodes`](crate::ranking::rank_nodes)).
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
/// A component that is not `degraded` exits before any candidate is
/// looked at when even a perfect candidate — the score ceiling, every
/// placed dependency fully served — would not clear the hysteresis: no
/// real score exceeds the ceiling in either term and `clearly_better`
/// is monotone in the candidate, so both arms below would refuse every
/// node anyway.
///
/// Strict bandwidth-feasible selection (`pick_target`: most co-located
/// dependencies first, then availability rank) is tried first. The
/// fallback, when no node satisfies every dependency at once, is the
/// CPU/memory-feasible node with the best *bandwidth score* — a
/// hypothetical max-min allocation over link **capacities**. Capacity, not spare bandwidth, is the right
/// metric there: the moving component's own traffic currently pollutes
/// "available" on every path it uses, whereas the sustained rate it can
/// reach after moving is governed by the bottleneck capacity it will
/// contend for. This mirrors the paper's deployed behaviour for
/// components whose traffic is not declared in the DAG (the Pion SFU's
/// client traffic): the component moves to the best-connected node even
/// if no node is perfect, but only when that beats staying put by the
/// 20% hysteresis margin, so it does not ping-pong.
///
/// Every score goes through `scorer`, the round's one scratch. Returns
/// `None` when nothing clearly improves on staying put, or for a
/// component the DAG or the cluster does not hold.
pub(crate) fn select_target(
    component: ComponentId,
    observed_fraction: f64,
    degraded: bool,
    ctx: &PolicyCtx<'_>,
    ranked: &[NodeId],
    scorer: &mut Scorer,
) -> Option<NodeId> {
    let PolicyCtx { mesh, dag, cluster, .. } = *ctx;
    let comp = dag.component(component)?;
    let current = cluster.node_of(component)?;
    let deps = dag.neighbors(component);

    let hypothetical = scorer.bandwidth_score(current, &deps, cluster, mesh);
    let current_score = (hypothetical.0.min(observed_fraction.clamp(0.0, 1.0)), hypothetical.1);
    if !degraded && !clearly_better(score_ceiling(&deps, cluster), current_score) {
        return None;
    }

    if let Some(target) = pick_target(comp, current, &deps, cluster, mesh, ranked) {
        // A *degraded* component (goodput collapsed) moves to any
        // strictly feasible node — the paper's §3.2.2 behaviour. A
        // merely utilization-flagged component additionally needs the
        // move to be a clear improvement, else transient dips churn.
        if degraded
            || clearly_better(scorer.bandwidth_score(target, &deps, cluster, mesh), current_score)
        {
            return Some(target);
        }
    }
    // The best-effort fallback: the CPU/memory-feasible node (other
    // than the current one) with the best bandwidth score, in
    // availability-rank order: `max_by` keeps the *last* maximum, so
    // the iteration order is part of the contract and must not change.
    ranked
        .iter()
        .filter(|&&n| {
            n != current && mesh.node_is_up(n) && cluster.fits(n, comp.resources).unwrap_or(false)
        })
        .map(|&n| (n, scorer.bandwidth_score(n, &deps, cluster, mesh)))
        .max_by(|a, b| score_cmp(a.1, b.1))
        .filter(|&(_, s)| clearly_better(s, current_score))
        .map(|(node, _)| node)
}

/// The target scorer: the demands, one `(link key, link, flow)` entry
/// per hop of every remote dependency's route, the constraints with their
/// member lists and the fill's scratch, all reused from score to score.
/// The controller makes one per round; nothing is carried across rounds
/// (see `docs/ARCHITECTURE.md` § The scorer).
#[derive(Debug, Default)]
pub struct Scorer {
    demands: Vec<Bandwidth>,
    hops: Vec<((NodeId, NodeId), LinkId, usize)>,
    constraints: Vec<Constraint>,
    fill: FillScratch,
}

impl Scorer {
    /// `(worst satisfied fraction, total achieved bps)` of a hypothetical
    /// max-min allocation of the component's dependency edges when hosted
    /// at `node`, over the current link capacities with path sharing taken
    /// into account (two dependencies reached over the same link split
    /// it). Existing traffic is ignored — optimistic, but self-consistent:
    /// the component's own current flows would otherwise pollute the
    /// estimate. A dependency `node` has no route to is served at rate 0.
    /// A pure function of the round's world: no call reads what another
    /// left in the buffers.
    pub fn bandwidth_score(
        &mut self,
        node: NodeId,
        deps: &[(ComponentId, Bandwidth)],
        cluster: &Cluster,
        mesh: &Mesh,
    ) -> (f64, f64) {
        let Scorer { demands, hops, constraints, fill } = self;
        demands.clear();
        hops.clear();
        let mut starved = false;
        for (dep, required) in deps {
            let Some(dep_node) = cluster.node_of(*dep) else { continue };
            let idx = demands.len();
            demands.push(*required);
            if dep_node == node {
                continue; // co-located: crosses no link, trivially met
            }
            match mesh.route_hops(node, dep_node) {
                Ok(walk) => hops.extend(walk.map(|(a, b, lid)| ((a.min(b), a.max(b)), lid, idx))),
                // Unreachable: served at 0. As a zero demand on no link it
                // gets rate 0 and moves no other flow's rate.
                Err(_) => {
                    starved |= !required.is_zero();
                    demands[idx] = Bandwidth::ZERO;
                }
            }
        }
        if demands.is_empty() {
            return (1.0, 0.0);
        }
        // One constraint per link in canonical key order, its members in
        // flow order: the sort is stable and a route crosses a link once.
        hops.sort_by_key(|h| h.0);
        let mut used = 0;
        for link in hops.chunk_by(|a, b| a.0 == b.0) {
            if used == constraints.len() {
                constraints.push(Constraint { capacity: Bandwidth::ZERO, members: Vec::new() });
            }
            constraints[used].capacity = mesh.link_capacity_by_id(link[0].1);
            constraints[used].members.clear();
            constraints[used].members.extend(link.iter().map(|h| h.2));
            used += 1;
        }
        let rates = fill.allocate(demands, &constraints[..used]);
        let mut worst_fraction = if starved { 0.0 } else { 1.0f64 };
        let mut total = 0.0f64;
        for (&rate, demand) in rates.iter().zip(demands.iter()) {
            total += rate;
            if !demand.is_zero() {
                worst_fraction = worst_fraction.min(rate / demand.as_bps());
            }
        }
        (worst_fraction, total)
    }
}

/// Relative slack on [`score_ceiling`]. The fill kernel's `rates[i] +=
/// delta`, with `delta ≤ demand − rate`, can overshoot a demand by about
/// one ulp, so a fully served score may exceed `(1, D)` by a few ulps;
/// this covers that many orders of magnitude over.
const CEILING_SLACK: f64 = 1e-9;

/// The best score any node can get for a component with dependencies
/// `deps`: every placed dependency served at its full demand, `(1, D)`
/// with `D` the sum of those demands, each term widened by
/// [`CEILING_SLACK`]. Every [`Scorer::bandwidth_score`] of the same `deps` and
/// placement is ≤ it in both terms.
fn score_ceiling(deps: &[(ComponentId, Bandwidth)], cluster: &Cluster) -> (f64, f64) {
    let placed: f64 = deps
        .iter()
        .filter(|(dep, _)| cluster.node_of(*dep).is_some())
        .map(|(_, required)| required.as_bps())
        .sum();
    (1.0 + CEILING_SLACK, placed * (1.0 + CEILING_SLACK))
}

/// Total order on scores: worst fraction first, then total bandwidth.
/// Both are non-negative finite sums, so `total_cmp` orders them
/// numerically and nothing can panic.
pub(crate) fn score_cmp(a: (f64, f64), b: (f64, f64)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1))
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
/// moving the component to `target` can be served: the path from
/// `target` to its node needs the edge's bandwidth available.
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
    // An unplaced or would-be co-located dependency needs no network.
    !deps.iter().any(|(dep, required)| {
        cluster.node_of(*dep).is_some_and(|dep_node| {
            dep_node != target
                && mesh.path_narrowest(target, dep_node).unwrap_or_default().1 < *required
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::tests::ctx;
    use crate::ranking::rank_nodes;
    use bass_appdag::{catalog, AppDag, ResourceReq};
    use bass_cluster::NodeSpec;
    use bass_mesh::{CapacitySource, Topology};
    use bass_util::rng::SimRng;
    use bass_util::time::SimDuration;

    const HUB: ComponentId = ComponentId(1);

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    /// `pick_target` over a fresh ranking of this world.
    fn pick(c: ComponentId, dag: &AppDag, cl: &Cluster, mesh: &Mesh) -> Option<NodeId> {
        pick_ranked(c, &ctx(dag, cl, mesh), &rank_nodes(cl, mesh))
    }

    /// `pick_target` for `c` as `select_target` calls it.
    fn pick_ranked(c: ComponentId, ctx: &PolicyCtx<'_>, ranked: &[NodeId]) -> Option<NodeId> {
        let comp = ctx.dag.component(c)?;
        let current = ctx.cluster.node_of(c)?;
        pick_target(comp, current, &ctx.dag.neighbors(c), ctx.cluster, ctx.mesh, ranked)
    }

    /// One score on a fresh scorer.
    fn bandwidth_score(
        node: NodeId,
        deps: &[(ComponentId, Bandwidth)],
        cl: &Cluster,
        mesh: &Mesh,
    ) -> (f64, f64) {
        Scorer::default().bandwidth_score(node, deps, cl, mesh)
    }

    /// `select_target` over a fresh ranking of this world.
    fn select(
        c: ComponentId,
        dag: &AppDag,
        cl: &Cluster,
        mesh: &Mesh,
        observed: f64,
        degraded: bool,
    ) -> Option<NodeId> {
        let ranked = rank_nodes(cl, mesh);
        select_target(c, observed, degraded, &ctx(dag, cl, mesh), &ranked, &mut Scorer::default())
    }

    /// Nodes `0..cores.len()` with the given core counts and 4 GB each.
    fn cluster(cores: &[u64]) -> Cluster {
        Cluster::new(cores.iter().enumerate().map(|(i, &c)| NodeSpec::cores_mb(i as u32, c, 4096)))
            .unwrap()
    }

    fn put(cl: &mut Cluster, component: u32, cores: u64, node: u32) {
        cl.place(ComponentId(component), ResourceReq::cores_mb(cores, 128), NodeId(node)).unwrap();
    }

    fn full_mesh(n: u32) -> Mesh {
        Mesh::with_uniform_capacity(Topology::full_mesh(n), mbps(100.0)).unwrap()
    }

    /// `n` nodes joined by exactly `links`, each `(a, b, Mbps)` constant.
    fn linked_mesh(n: u32, links: &[(u32, u32, f64)]) -> Mesh {
        let mut topo = Topology::new();
        for i in 0..n {
            topo.add_node(NodeId(i)).unwrap();
        }
        for &(a, b, _) in links {
            topo.add_link(NodeId(a), NodeId(b)).unwrap();
        }
        let mut mesh = Mesh::new(topo).unwrap();
        for &(a, b, c) in links {
            mesh.set_link_source(NodeId(a), NodeId(b), CapacitySource::Constant(mbps(c))).unwrap();
        }
        mesh
    }

    /// Line topology 0-1-2-3 with per-link capacities.
    fn line_mesh(caps: [f64; 3]) -> Mesh {
        linked_mesh(4, &[(0, 1, caps[0]), (1, 2, caps[1]), (2, 3, caps[2])])
    }

    /// Star SFU-like DAG: the 2-core hub (component 1) talks to
    /// zero-resource components 2..=`leaves + 1` over identical edges.
    fn star_dag(edge_mbps: f64, leaves: u32) -> AppDag {
        let mut dag = AppDag::new("star");
        dag.add_component(Component::new(HUB, "hub", ResourceReq::cores_mb(2, 512))).unwrap();
        for i in 2..=leaves + 1 {
            dag.add_component(Component::new(ComponentId(i), format!("leaf{i}"), ResourceReq::default()))
                .unwrap();
            dag.add_edge(HUB, ComponentId(i), mbps(edge_mbps)).unwrap();
        }
        dag
    }

    /// 3 fully-connected nodes; camera pipeline; sampler on its own node.
    fn setup() -> (AppDag, Cluster, Mesh) {
        let dag = catalog::camera_pipeline();
        let mut cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 16, 16384))).unwrap();
        // camera on n0, sampler alone on n1, detector+listeners on n2.
        for (name, n) in [
            ("camera-stream", 0),
            ("frame-sampler", 1),
            ("object-detector", 2),
            ("image-listener", 2),
            ("label-listener", 2),
        ] {
            let c = dag.component_by_name(name).unwrap();
            cluster.place(c.id, c.resources, NodeId(n)).unwrap();
        }
        (dag, cluster, full_mesh(3))
    }

    fn id_of(dag: &AppDag, name: &str) -> ComponentId {
        dag.component_by_name(name).unwrap().id
    }

    #[test]
    fn prefers_node_with_most_dependencies() {
        let (dag, cluster, mesh) = setup();
        // Sampler talks to camera (n0, 1 dep) and detector (n2, 1 dep);
        // tie on count → availability rank: n0 has 14 free cores, n2 5.
        assert_eq!(pick(id_of(&dag, "frame-sampler"), &dag, &cluster, &mesh), Some(NodeId(0)));
    }

    #[test]
    fn dependency_ties_resolve_by_availability_rank_not_node_id() {
        // Hub on n0 with one leaf on each of n1 and n2: the two tie on
        // dependency count, and n2 — the emptier node — outranks n1,
        // against node-id order.
        let dag = star_dag(5.0, 2);
        let mesh = full_mesh(3);
        let mut cl = cluster(&[4, 4, 8]);
        put(&mut cl, 1, 2, 0);
        put(&mut cl, 2, 0, 1);
        put(&mut cl, 3, 0, 2);
        let ranked = rank_nodes(&cl, &mesh);
        assert_eq!(ranked, [NodeId(2), NodeId(1), NodeId(0)]);
        assert_eq!(pick_ranked(HUB, &ctx(&dag, &cl, &mesh), &ranked), Some(NodeId(2)));

        // The whole candidate order, on a tie pattern long enough that
        // an unstable sort would shuffle it: hub on n0, a leaf on every
        // odd node of 40, ranking descending by id. Filling each pick
        // and asking again (same ranking) walks the order: leaf hosts
        // first, each group in rank order.
        let dag = star_dag(1.0, 20);
        let mesh = full_mesh(40);
        let mut cl = cluster(&[4; 40]);
        put(&mut cl, 1, 2, 0);
        for leaf in 0..20 {
            put(&mut cl, leaf + 2, 0, 2 * leaf + 1);
        }
        let ranked: Vec<NodeId> = (0..40).rev().map(NodeId).collect();
        let mut order = Vec::new();
        while let Some(node) = pick_ranked(HUB, &ctx(&dag, &cl, &mesh), &ranked) {
            order.push(node.0);
            put(&mut cl, 100 + node.0, 4, node.0);
        }
        let expected: Vec<u32> =
            (0..20).rev().map(|i| 2 * i + 1).chain((1..20).rev().map(|i| 2 * i)).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn best_effort_keeps_the_last_maximum_in_rank_order() {
        // Hub on n0, its one 10 Mbps leaf on n3 (CPU-full, so the hub
        // cannot join it). n1 and n2 each reach n3 over an 8 Mbps link:
        // strict selection fails everywhere, and both score (0.8, 8 Mbps)
        // against 0.1 at n0 — two equal best scores.
        let dag = star_dag(10.0, 1);
        let mesh =
            linked_mesh(4, &[(0, 3, 1.0), (1, 3, 8.0), (2, 3, 8.0), (0, 1, 100.0), (0, 2, 100.0)]);
        // Whichever of n1/n2 ranks *later* wins, whatever its id.
        for (n1_cores, n2_cores, winner) in [(4, 8, NodeId(1)), (8, 4, NodeId(2))] {
            let mut cl = cluster(&[4, n1_cores, n2_cores, 4]);
            put(&mut cl, 1, 2, 0);
            put(&mut cl, 2, 4, 3);
            assert_eq!(pick(HUB, &dag, &cl, &mesh), None);
            assert_eq!(select(HUB, &dag, &cl, &mesh, 1.0, true), Some(winner));
        }
    }

    #[test]
    fn dependency_count_beats_availability() {
        let (dag, mut cluster, mesh) = setup();
        // Move the listeners off n2 so the sampler can fit there, then
        // relocate the camera to n2: n2 now hosts camera + detector —
        // two of the sampler's dependencies — while n0 is emptier but
        // hosts none.
        cluster.relocate(id_of(&dag, "image-listener"), NodeId(0)).unwrap();
        cluster.relocate(id_of(&dag, "label-listener"), NodeId(0)).unwrap();
        cluster.relocate(id_of(&dag, "camera-stream"), NodeId(2)).unwrap();
        let target = pick(id_of(&dag, "frame-sampler"), &dag, &cluster, &mesh);
        assert_eq!(target, Some(NodeId(2)), "both dependencies live on n2");
    }

    #[test]
    fn skips_nodes_without_cpu() {
        let (dag, mut cluster, mesh) = setup();
        // Stuff n0 so the sampler (4 cores) cannot fit there.
        put(&mut cluster, 99, 13, 0);
        assert_eq!(pick(id_of(&dag, "frame-sampler"), &dag, &cluster, &mesh), Some(NodeId(2)));
    }

    #[test]
    fn skips_nodes_without_bandwidth() {
        let (dag, cluster, mut mesh) = setup();
        // Choke every link out of n0 to 1 Mbps.
        mesh.set_node_egress_cap(NodeId(0), Some(mbps(1.0))).unwrap();
        mesh.set_link_cap(NodeId(0), NodeId(1), Some(mbps(1.0))).unwrap();
        mesh.set_link_cap(NodeId(0), NodeId(2), Some(mbps(1.0))).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        let sampler = id_of(&dag, "frame-sampler");
        // Moving to n0 co-locates the camera but leaves the 6 Mbps
        // detector edge on a 1 Mbps path; moving to n2 co-locates the
        // detector but leaves the 20 Mbps camera edge on a 1 Mbps path.
        // Nothing is feasible.
        assert_eq!(pick(sampler, &dag, &cluster, &mesh), None);
    }

    #[test]
    fn colocation_waives_bandwidth_check() {
        let (dag, mut cluster, mut mesh) = setup();
        // Kill all bandwidth. The label-listener's only edge is to the
        // detector on n2, so moving it there co-locates everything and
        // needs zero network.
        for (a, b) in [(0u32, 1u32), (0, 2), (1, 2)] {
            mesh.set_link_cap(NodeId(a), NodeId(b), Some(Bandwidth::ZERO)).unwrap();
        }
        mesh.advance(SimDuration::from_millis(100));
        let label = id_of(&dag, "label-listener");
        cluster.relocate(label, NodeId(0)).unwrap(); // it starts on n2

        assert_eq!(pick(label, &dag, &cluster, &mesh), Some(NodeId(2)));
    }

    #[test]
    fn down_nodes_are_never_chosen() {
        // Hub on n0, its leaf on n2; n2 is CPU-full, so the empty n1 is
        // the only viable target for the hub.
        let dag = star_dag(5.0, 1);
        let mut mesh = full_mesh(3);
        let mut cl = cluster(&[4, 4, 4]);
        put(&mut cl, 1, 2, 0);
        put(&mut cl, 2, 0, 2);
        put(&mut cl, 9, 4, 2);
        assert_eq!(pick(HUB, &dag, &cl, &mesh), Some(NodeId(1)));
        // n1 crashes: no candidate remains, in strict, best-effort, and
        // degraded select_target selection alike.
        mesh.set_node_up(NodeId(1), false).unwrap();
        assert_eq!(pick(HUB, &dag, &cl, &mesh), None);
        for observed in [1.0, 0.1] {
            assert_eq!(select(HUB, &dag, &cl, &mesh, observed, true), None);
        }
    }

    #[test]
    fn bandwidth_score_accounts_for_path_sharing() {
        // Hub on node 0; leaves on nodes 1, 2, 3 of a line. Every flow
        // from node 0 shares the first link, so the score must reflect
        // the split, not the per-path bottleneck.
        let dag = star_dag(10.0, 3);
        let mesh = line_mesh([12.0, 100.0, 100.0]);
        let mut cl = cluster(&[4; 4]);
        put(&mut cl, 1, 2, 0);
        for i in 2..=4 {
            put(&mut cl, i, 0, i - 1);
        }
        let deps = dag.neighbors(HUB);
        let (frac, total) = bandwidth_score(NodeId(0), &deps, &cl, &mesh);
        // Three 10 Mbps flows share the 12 Mbps first link → 4 each.
        assert!((frac - 0.4).abs() < 1e-6, "fraction {frac}");
        assert!((total - 12e6).abs() < 1.0, "total {total}");
        // From node 2 the leaves split across both directions: leaf on
        // n1 via link1 (100), leaf on n2 co-located, leaf on n3 via
        // link2 (100) → everything satisfied.
        let (frac2, _) = bandwidth_score(NodeId(2), &deps, &cl, &mesh);
        assert!((frac2 - 1.0).abs() < 1e-6, "fraction {frac2}");
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
        let dag = star_dag(10.0, 3);
        let mut cl = cluster(&[4; 4]);
        put(&mut cl, 1, 2, 3);
        for i in 2..=4 {
            put(&mut cl, i, 0, i - 2);
        }
        // Healthy inner links: node 1 (center-ish) is strictly feasible,
        // so the degraded hub moves there without the fallback.
        let mesh = line_mesh([100.0, 100.0, 5.0]);
        assert_eq!(pick(HUB, &dag, &cl, &mesh), Some(NodeId(1)));
        assert_eq!(select(HUB, &dag, &cl, &mesh, 1.0, true), Some(NodeId(1)));
        // Every link below the 10 Mbps edges: strict selection fails
        // everywhere. Best-effort still moves the hub to node 1, whose
        // worst edge gets 8 of 10 Mbps against 1.67 at the current node.
        let mesh = line_mesh([8.0, 9.0, 5.0]);
        assert_eq!(pick(HUB, &dag, &cl, &mesh), None);
        assert_eq!(select(HUB, &dag, &cl, &mesh, 1.0, true), Some(NodeId(1)));
    }

    #[test]
    fn select_target_refuses_sideways_moves_for_healthy_components() {
        // Hub already on the best-connected node, goodput fine: even
        // though other strictly feasible nodes exist, the improvement
        // gate keeps the component where it is.
        let dag = star_dag(10.0, 3);
        let mesh = line_mesh([100.0, 100.0, 100.0]);
        let mut cl = cluster(&[4; 4]);
        put(&mut cl, 1, 2, 1);
        for (leaf, node) in [(2, 0), (3, 2), (4, 3)] {
            put(&mut cl, leaf, 0, node);
        }
        assert_eq!(select(HUB, &dag, &cl, &mesh, 1.0, false), None);
    }

    #[test]
    fn select_target_gates_utilization_but_not_degradation() {
        // Hub on node 0, single leaf on node 1, equal alternatives: a
        // healthy (observed = 1.0) component must stay; a degraded one
        // (observed ≪ threshold, caller passes degraded=true) moves as
        // soon as a strictly feasible target exists.
        let dag = star_dag(5.0, 1);
        let mesh = full_mesh(3);
        let mut cl = cluster(&[4, 4, 4]);
        put(&mut cl, 1, 2, 0);
        put(&mut cl, 2, 0, 1);
        // Healthy: gate suppresses the sideways move.
        assert_eq!(select(HUB, &dag, &cl, &mesh, 1.0, false), None);
        // Degraded: strict feasibility suffices (co-locating with the
        // leaf on node 1 is feasible and allowed immediately).
        assert_eq!(select(HUB, &dag, &cl, &mesh, 0.1, true), Some(NodeId(1)));
    }

    #[test]
    fn unreachable_dependencies_score_zero_and_never_attract_the_hub() {
        // Island A {0, 1, 2}: the hub on n0 reaches its leaves on n1 and
        // n2 over 1 Mbps links; n1–n2 is 8 Mbps. Island B {3, 4} is cut
        // off by the downed 2–3 bridge and hosts no dependency. Strict
        // selection fails everywhere (an 8 Mbps path for a 10 Mbps edge,
        // or no path at all), so best-effort decides.
        let dag = star_dag(10.0, 2);
        let mut mesh = linked_mesh(
            5,
            &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 8.0), (2, 3, 100.0), (3, 4, 100.0)],
        );
        mesh.set_link_up(NodeId(2), NodeId(3), false).unwrap();
        let mut cl = cluster(&[4; 5]);
        put(&mut cl, 1, 2, 0);
        put(&mut cl, 2, 0, 1);
        put(&mut cl, 3, 0, 2);
        let deps = dag.neighbors(HUB);
        // From either island-B node neither leaf is reachable at all.
        for n in [3, 4] {
            assert_eq!(bandwidth_score(NodeId(n), &deps, &cl, &mesh), (0.0, 0.0));
        }
        // n1 or n2 co-locates one leaf and serves the other at 8 of 10
        // Mbps — the best anyone can do, against 0.1 at n0.
        let got = select(HUB, &dag, &cl, &mesh, 1.0, true);
        assert!(matches!(got, Some(NodeId(1 | 2))), "hub moved to {got:?}");
    }

    /// `select_target` without the gate-first exit, otherwise verbatim:
    /// the reference the gate is held to.
    fn select_ungated(
        component: ComponentId,
        observed_fraction: f64,
        degraded: bool,
        ctx: &PolicyCtx<'_>,
        ranked: &[NodeId],
    ) -> Option<NodeId> {
        let PolicyCtx { mesh, dag, cluster, .. } = *ctx;
        let comp = dag.component(component)?;
        let current = cluster.node_of(component)?;
        let deps = dag.neighbors(component);
        let hypothetical = bandwidth_score(current, &deps, cluster, mesh);
        let current_score = (hypothetical.0.min(observed_fraction.clamp(0.0, 1.0)), hypothetical.1);
        if let Some(target) = pick_ranked(component, ctx, ranked) {
            if degraded
                || clearly_better(bandwidth_score(target, &deps, cluster, mesh), current_score)
            {
                return Some(target);
            }
        }
        let best = ranked
            .iter()
            .filter(|&&n| {
                n != current
                    && mesh.node_is_up(n)
                    && cluster.fits(n, comp.resources).unwrap_or(false)
            })
            .map(|&n| (n, bandwidth_score(n, &deps, cluster, mesh)))
            .max_by(|a, b| score_cmp(a.1, b.1));
        best.filter(|&(_, s)| clearly_better(s, current_score)).map(|(node, _)| node)
    }

    /// A random small world: 3–6 nodes on a random spanning tree plus
    /// extra links (1–100 Mbps), sometimes a downed link or node; 2–6
    /// components with random edges (0.5–20 Mbps, one in ten zero) and
    /// CPU requests, each placed on a random node with room, or left
    /// unplaced one time in ten.
    fn random_world(rng: &mut SimRng) -> (AppDag, Cluster, Mesh, u32) {
        let n = 3 + rng.below(4) as u32;
        let mut links: Vec<(u32, u32, f64)> = Vec::new();
        for b in 1..n {
            links.push((rng.below(u64::from(b)) as u32, b, rng.uniform(1.0, 100.0)));
        }
        for a in 0..n {
            for b in a + 1..n {
                if !links.iter().any(|&(x, y, _)| (x, y) == (a, b)) && rng.chance(0.3) {
                    links.push((a, b, rng.uniform(1.0, 100.0)));
                }
            }
        }
        let mut mesh = linked_mesh(n, &links);
        if rng.chance(0.3) {
            let (a, b, _) = links[rng.below(links.len() as u64) as usize];
            mesh.set_link_up(NodeId(a), NodeId(b), false).unwrap();
        }
        if rng.chance(0.2) {
            mesh.set_node_up(NodeId(rng.below(u64::from(n)) as u32), false).unwrap();
        }
        let k = 2 + rng.below(5) as u32;
        let mut dag = AppDag::new("random");
        for c in 1..=k {
            let req = ResourceReq::cores_mb(rng.below(3), 128);
            dag.add_component(Component::new(ComponentId(c), format!("c{c}"), req)).unwrap();
        }
        for a in 1..=k {
            for b in a + 1..=k {
                if rng.chance(0.5) {
                    let bw = if rng.chance(0.1) { 0.0 } else { rng.uniform(0.5, 20.0) };
                    dag.add_edge(ComponentId(a), ComponentId(b), mbps(bw)).unwrap();
                }
            }
        }
        let cores: Vec<u64> = (0..n).map(|_| 2 + rng.below(7)).collect();
        let mut cl = cluster(&cores);
        for c in dag.component_ids() {
            if rng.chance(0.9) {
                let req = dag.component(c).unwrap().resources;
                let _ = cl.place(c, req, NodeId(rng.below(u64::from(n)) as u32));
            }
        }
        (dag, cl, mesh, n)
    }

    #[test]
    fn gate_first_exit_matches_the_ungated_selection() {
        let (mut gated, mut moved) = (0, 0);
        let mut scorer = Scorer::default();
        for seed in 0..300 {
            let mut rng = SimRng::seed_from_u64(seed);
            let (dag, cl, mesh, n) = random_world(&mut rng);
            let ranked = rank_nodes(&cl, &mesh);
            let ctx = ctx(&dag, &cl, &mesh);
            for c in dag.component_ids() {
                let Some(current) = cl.node_of(c) else { continue };
                let deps = dag.neighbors(c);
                let ceiling = score_ceiling(&deps, &cl);
                // The ceiling lemma: no node scores above it in either term.
                for node in (0..n).map(NodeId) {
                    let s = bandwidth_score(node, &deps, &cl, &mesh);
                    assert!(
                        s.0 <= ceiling.0 && s.1 <= ceiling.1,
                        "seed {seed}: {c} at {node} scores {s:?} above {ceiling:?}"
                    );
                }
                let hypothetical = bandwidth_score(current, &deps, &cl, &mesh);
                for observed in [1.0, rng.next_f64()] {
                    let current_score = (hypothetical.0.min(observed), hypothetical.1);
                    if !clearly_better(ceiling, current_score) {
                        gated += 1;
                    }
                    for degraded in [false, true] {
                        let got = select_target(c, observed, degraded, &ctx, &ranked, &mut scorer);
                        let want = select_ungated(c, observed, degraded, &ctx, &ranked);
                        assert_eq!(got, want, "seed {seed}: {c} observed {observed} degraded {degraded}");
                        moved += usize::from(got.is_some());
                    }
                }
            }
        }
        // Neither arm of the comparison may be vacuous.
        assert!(gated > 100 && moved > 100, "gated {gated}, moved {moved}");
    }
}
