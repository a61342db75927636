//! Algorithm 3: choosing which components to migrate.
//!
//! Two situations call for migration (§3.2.2):
//!
//! 1. **Utilization**: a component's traffic uses up so much of its link
//!    that the required headroom is gone even without a capacity change —
//!    detected from passive usage measurements.
//! 2. **Degradation**: the link's capacity dropped so far that the
//!    component's goodput falls below its threshold — detected via
//!    headroom probing plus goodput monitoring.
//!
//! Candidates are sorted by bandwidth (heaviest first) and de-duplicated
//! so that at most one endpoint of any communicating pair migrates in a
//! round ("by migrating only one component of the dependency pair, we
//! avoid cascading effects").

use crate::policy::PolicyCtx;
use bass_appdag::{AppDag, ComponentId};
use bass_util::units::Bandwidth;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Tuning knobs for candidate selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationConfig {
    /// Goodput-fraction threshold (`achieved / required`). The
    /// degradation trigger fires when an edge's goodput falls *below*
    /// this (paper default 0.5).
    pub goodput_threshold: f64,
    /// Link-utilization threshold: the utilization trigger fires when an
    /// edge consumes *more* than this fraction of its path's capacity
    /// (Fig. 15b evaluates 0.65 and 0.85).
    pub utilization_threshold: f64,
}

impl MigrationConfig {
    /// Whether an observed goodput fraction counts as degraded: below
    /// [`goodput_threshold`](Self::goodput_threshold).
    pub(crate) fn degraded(&self, observed: f64) -> bool {
        observed < self.goodput_threshold
    }
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            goodput_threshold: 0.5,
            utilization_threshold: 0.65,
        }
    }
}

/// Why a component became a migration candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TriggerKind {
    /// The component's own usage consumed the link past the utilization
    /// threshold with no headroom left.
    Utilization,
    /// Link capacity degraded: goodput below threshold and headroom gone.
    Degradation,
}

/// One violating edge observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Violation {
    /// The component proposed for migration (the edge's producer, per
    /// Algorithm 3).
    pub component: ComponentId,
    /// The dependency at the other end of the violating edge.
    pub dependency: ComponentId,
    /// The edge's declared bandwidth requirement.
    pub required: Bandwidth,
    /// The goodput fraction observed on the violating edge.
    pub goodput_fraction: f64,
    /// What fired.
    pub trigger: TriggerKind,
}

/// The outcome of one candidate-selection round: everything that
/// violated, and the de-duplicated migration list (Table 1 reports both:
/// "components exceeding link utilization quota" vs "components
/// migrated").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MigrationCandidates {
    /// All violations observed this round.
    pub violations: Vec<Violation>,
    /// Components to actually migrate, heaviest-bandwidth first, with at
    /// most one endpoint per communicating pair.
    pub to_migrate: Vec<ComponentId>,
}

impl MigrationCandidates {
    /// Number of distinct components with at least one violation.
    pub fn violating_component_count(&self) -> usize {
        let set: BTreeSet<ComponentId> = self.violations.iter().map(|v| v.component).collect();
        set.len()
    }

    /// The worst observed goodput fraction among a component's
    /// violations (1.0 when the component has none).
    pub fn worst_goodput_fraction(&self, component: ComponentId) -> f64 {
        self.violations
            .iter()
            .filter(|v| v.component == component)
            .map(|v| v.goodput_fraction)
            .fold(1.0, f64::min)
    }
}

/// Runs Algorithm 3 over the round's placement.
///
/// For every DAG edge whose endpoints sit on *different* nodes, the
/// goodput view supplies the achieved bandwidth and the mesh supplies
/// the path's spare bandwidth; two triggers decide whether a component
/// becomes a candidate:
///
/// - **Utilization** (Algorithm 3 line 8, literally): the edge is
///   achieving its traffic (`goodput > utilization_threshold`) *and* the
///   path's available bandwidth is less than the edge's achieved rate
///   plus the required headroom — i.e. the component's own use has eaten
///   the link's spare capacity.
/// - **Degradation** (§4.3): goodput collapsed below the threshold and
///   the headroom requirement is violated — the link itself degraded.
///
/// The required headroom is the round's `headroom_fraction` × the path's
/// bottleneck capacity: the net-monitor's setting, so the headroom probe
/// and both triggers read one value.
///
/// The candidate is the edge's producer unless it is pinned, in which
/// case the consumer is proposed instead (pinned components — e.g. the
/// pseudo-components that anchor external clients — can never move).
/// Edges the view does not measure (an unbound edge) are skipped.
pub(crate) fn find_candidates(ctx: &PolicyCtx<'_>) -> MigrationCandidates {
    let PolicyCtx { mesh, dag, cluster, goodput, pinned, migration: cfg, headroom_fraction } = *ctx;
    let mut violations = Vec::new();

    for e in dag.edges() {
        let (Some(cn), Some(dn)) = (cluster.node_of(e.from), cluster.node_of(e.to)) else {
            continue;
        };
        if cn == dn {
            continue; // co-located pairs never violate the network
        }
        let Some(usage) = goodput.usage(e.from, e.to) else {
            continue;
        };
        let (capacity, available) = mesh.path_narrowest(cn, dn).unwrap_or_default();
        let headroom_req = capacity.scale(headroom_fraction);

        let goodput_fraction = usage.goodput_fraction();
        // The migratable endpoint: producer unless pinned, else consumer.
        let (candidate, other) = if pinned.contains(&e.from) {
            if pinned.contains(&e.to) {
                continue;
            }
            (e.to, e.from)
        } else {
            (e.from, e.to)
        };

        if goodput_fraction > cfg.utilization_threshold && available < usage.achieved + headroom_req {
            violations.push(Violation {
                component: candidate,
                dependency: other,
                required: e.bandwidth,
                goodput_fraction,
                trigger: TriggerKind::Utilization,
            });
            continue;
        }
        if goodput_fraction < cfg.goodput_threshold && available < headroom_req {
            violations.push(Violation {
                component: candidate,
                dependency: other,
                required: e.bandwidth,
                goodput_fraction,
                trigger: TriggerKind::Degradation,
            });
        }
    }

    MigrationCandidates {
        to_migrate: dedup_candidates(dag, &violations),
        violations,
    }
}

/// Algorithm 3 lines 10–15: sort candidates by bandwidth (descending)
/// and drop any candidate that communicates with an already-accepted
/// one, so only one endpoint of a pair moves per round.
///
/// One pass over the DAG's edges sums each pair of candidates' edges (in
/// edge order, as [`AppDag::bandwidth_between`] does); candidates are
/// then accepted in weight order, each refused when a nonzero sum ties
/// it to an earlier accepted one.
fn dedup_candidates(dag: &AppDag, violations: &[Violation]) -> Vec<ComponentId> {
    // Aggregate each candidate's heaviest violating edge.
    let mut weight: BTreeMap<ComponentId, Bandwidth> = BTreeMap::new();
    for v in violations {
        let w = weight.entry(v.component).or_insert(v.required);
        *w = w.max(v.required);
    }
    let mut order: Vec<(ComponentId, Bandwidth)> = weight.into_iter().collect();
    order.sort_by(|a, b| b.1.as_bps().total_cmp(&a.1.as_bps()).then(a.0.cmp(&b.0)));
    let rank: BTreeMap<ComponentId, usize> =
        order.iter().enumerate().map(|(i, &(c, _))| (c, i)).collect();
    // Edges between two candidates, keyed by (later, earlier) rank; the
    // stable sort keeps one pair's edges in edge order.
    let mut pairs: Vec<((usize, usize), Bandwidth)> = dag
        .edges()
        .iter()
        .filter_map(|e| Some(((rank.get(&e.from)?, rank.get(&e.to)?), e.bandwidth)))
        .map(|((&a, &b), bw)| ((a.max(b), a.min(b)), bw))
        .collect();
    pairs.sort_by_key(|p| p.0);
    let mut accepted = vec![true; order.len()];
    for pair in pairs.chunk_by(|a, b| a.0 == b.0) {
        let ((later, earlier), sum) = (pair[0].0, pair.iter().map(|p| p.1).sum::<Bandwidth>());
        if earlier < later && accepted[earlier] && !sum.is_zero() {
            accepted[later] = false;
        }
    }
    order.into_iter().zip(accepted).filter(|&(_, a)| a).map(|((c, _), _)| c).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::tests::ctx;
    use bass_appdag::{catalog, Component, ResourceReq};
    use bass_cluster::{Cluster, NodeSpec};
    use bass_mesh::{Mesh, NodeId, Topology};
    use bass_netmon::{EdgeUsage, GoodputView};
    use bass_util::time::SimDuration;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    /// Camera pipeline split across two nodes joined by one link, with a
    /// controllable cap.
    fn scenario(cap_mbps: f64) -> (AppDag, Cluster, Mesh) {
        let dag = catalog::camera_pipeline();
        let mut topo = Topology::new();
        topo.add_node(NodeId(0)).unwrap();
        topo.add_node(NodeId(1)).unwrap();
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        let mut mesh = Mesh::with_uniform_capacity(topo, mbps(100.0)).unwrap();
        mesh.set_link_cap(NodeId(0), NodeId(1), Some(mbps(cap_mbps)))
            .unwrap();
        // camera+sampler on n0; detector & listeners on n1 → the
        // sampler→detector edge (6 Mbps) crosses the link.
        let mut cluster = Cluster::new((0..2).map(|i| NodeSpec::cores_mb(i, 32, 32_768))).unwrap();
        for (c, n) in [(1, 0), (2, 0), (3, 1), (4, 1), (5, 1)] {
            let req = dag.component(ComponentId(c)).unwrap().resources;
            cluster.place(ComponentId(c), req, NodeId(n)).unwrap();
        }
        (dag, cluster, mesh)
    }

    type Measured = BTreeMap<(ComponentId, ComponentId), EdgeUsage>;

    /// A view holding one measured edge `from → to`.
    fn measured(from: u32, to: u32, required: Bandwidth, achieved: Bandwidth) -> Measured {
        Measured::from([((ComponentId(from), ComponentId(to)), EdgeUsage { required, achieved })])
    }

    /// Algorithm 3 over one world as the controller's round sees it.
    fn candidates(dag: &AppDag, cl: &Cluster, mesh: &Mesh, gp: &Measured) -> MigrationCandidates {
        find_candidates(&PolicyCtx { goodput: gp, ..ctx(dag, cl, mesh) })
    }

    fn drive(mesh: &mut Mesh, demand: Bandwidth) -> bass_mesh::FlowId {
        let f = mesh.add_flow(NodeId(0), NodeId(1), demand).unwrap();
        mesh.advance(SimDuration::from_secs(1));
        f
    }

    #[test]
    fn healthy_link_yields_no_candidates() {
        let (dag, cluster, mut mesh) = scenario(100.0);
        let f = drive(&mut mesh, mbps(6.0));
        let gp = measured(2, 3, mbps(6.0), mesh.flow_goodput(f));
        let out = candidates(&dag, &cluster, &mesh, &gp);
        assert!(out.violations.is_empty());
        assert!(out.to_migrate.is_empty());
    }

    #[test]
    fn degradation_trigger_fires_when_capacity_drops() {
        // Link capped to 2 Mbps: the 6 Mbps edge achieves only 2 →
        // goodput 0.33 < 0.5 and headroom (0.4 Mbps) is gone.
        let (dag, cluster, mut mesh) = scenario(2.0);
        let f = drive(&mut mesh, mbps(6.0));
        let gp = measured(2, 3, mbps(6.0), mesh.flow_goodput(f));
        let out = candidates(&dag, &cluster, &mesh, &gp);
        assert_eq!(out.to_migrate, vec![ComponentId(2)]);
        assert_eq!(out.violations[0].trigger, TriggerKind::Degradation);
    }

    #[test]
    fn utilization_trigger_fires_when_edge_fills_link() {
        // Link capped to 7 Mbps: the edge achieves its full 6 Mbps
        // (goodput 1.0 — no degradation) but uses 86% of the link and
        // leaves less than the 20% headroom.
        let (dag, cluster, mut mesh) = scenario(7.0);
        let f = drive(&mut mesh, mbps(6.0));
        let gp = measured(2, 3, mbps(6.0), mesh.flow_goodput(f));
        let out = candidates(&dag, &cluster, &mesh, &gp);
        assert_eq!(out.to_migrate, vec![ComponentId(2)]);
        assert_eq!(out.violations[0].trigger, TriggerKind::Utilization);
    }

    #[test]
    fn colocated_edges_never_violate() {
        let (dag, mut cluster, mut mesh) = scenario(1.0);
        // Co-locate everything on n0.
        for c in dag.component_ids() {
            cluster.relocate(c, NodeId(0)).unwrap();
        }
        drive(&mut mesh, mbps(50.0)); // saturate the link with unrelated load
        let gp = measured(2, 3, mbps(6.0), mbps(6.0));
        let out = candidates(&dag, &cluster, &mesh, &gp);
        assert!(out.violations.is_empty());
    }

    #[test]
    fn unmeasured_edges_are_skipped() {
        let (dag, cluster, mut mesh) = scenario(1.0);
        drive(&mut mesh, mbps(50.0));
        let gp = Measured::new(); // no measurements
        let out = candidates(&dag, &cluster, &mesh, &gp);
        assert!(out.violations.is_empty());
    }

    #[test]
    fn a_displaced_endpoint_unbinds_its_edge_and_never_violates() {
        // The 2 Mbps link degrades the sampler→detector edge (goodput
        // 0.33). With the detector displaced the edge is unbound: the live
        // view reads None for it, and even a leftover measurement of the
        // degraded edge is never read.
        let (dag, mut cluster, mut mesh) = scenario(2.0);
        let f = drive(&mut mesh, mbps(6.0));
        let degraded = measured(2, 3, mbps(6.0), mesh.flow_goodput(f));
        let run = |cluster: &Cluster, gp: &Measured| candidates(&dag, cluster, &mesh, gp);
        assert_eq!(run(&cluster, &degraded).to_migrate, vec![ComponentId(2)]);

        cluster.evict(ComponentId(3)).unwrap();
        let unbound = Measured::new();
        assert_eq!(unbound.usage(ComponentId(2), ComponentId(3)), None);
        for gp in [&unbound, &degraded] {
            let out = run(&cluster, gp);
            assert!(out.violations.is_empty() && out.to_migrate.is_empty(), "{out:?}");
        }
    }

    #[test]
    fn dedup_keeps_heaviest_of_communicating_pair() {
        // Chain a→b→c where both edges violate: candidates {a, b}; a→b is
        // heavier, so a survives and b (which talks to a) is dropped.
        let mut dag = AppDag::new("pair");
        for i in 1..=3 {
            dag.add_component(Component::new(
                ComponentId(i),
                format!("c{i}"),
                ResourceReq::cores_mb(1, 64),
            ))
            .unwrap();
        }
        dag.add_edge(ComponentId(1), ComponentId(2), mbps(10.0)).unwrap();
        dag.add_edge(ComponentId(2), ComponentId(3), mbps(4.0)).unwrap();
        let violations = vec![
            Violation {
                component: ComponentId(1),
                dependency: ComponentId(2),
                required: mbps(10.0),
                goodput_fraction: 0.3,
                trigger: TriggerKind::Degradation,
            },
            Violation {
                component: ComponentId(2),
                dependency: ComponentId(3),
                required: mbps(4.0),
                goodput_fraction: 0.3,
                trigger: TriggerKind::Degradation,
            },
        ];
        let deduped = dedup_candidates(&dag, &violations);
        assert_eq!(deduped, vec![ComponentId(1)]);
    }

    #[test]
    fn dedup_keeps_non_communicating_candidates() {
        // Two disjoint pairs: both producers can migrate.
        let mut dag = AppDag::new("disjoint");
        for i in 1..=4 {
            dag.add_component(Component::new(
                ComponentId(i),
                format!("c{i}"),
                ResourceReq::cores_mb(1, 64),
            ))
            .unwrap();
        }
        dag.add_edge(ComponentId(1), ComponentId(2), mbps(10.0)).unwrap();
        dag.add_edge(ComponentId(3), ComponentId(4), mbps(4.0)).unwrap();
        let violations = vec![
            Violation {
                component: ComponentId(3),
                dependency: ComponentId(4),
                required: mbps(4.0),
                goodput_fraction: 0.3,
                trigger: TriggerKind::Degradation,
            },
            Violation {
                component: ComponentId(1),
                dependency: ComponentId(2),
                required: mbps(10.0),
                goodput_fraction: 0.3,
                trigger: TriggerKind::Degradation,
            },
        ];
        let deduped = dedup_candidates(&dag, &violations);
        assert_eq!(deduped, vec![ComponentId(1), ComponentId(3)]);
    }

    #[test]
    fn violating_component_count_is_distinct() {
        let v = |c: u32, d: u32| Violation {
            component: ComponentId(c),
            dependency: ComponentId(d),
            required: mbps(1.0),
            goodput_fraction: 0.3,
            trigger: TriggerKind::Degradation,
        };
        let out = MigrationCandidates {
            violations: vec![v(1, 2), v(1, 3), v(2, 3)],
            to_migrate: vec![],
        };
        assert_eq!(out.violating_component_count(), 2);
    }

    /// The dedup before the one-pass rewrite, verbatim: each candidate
    /// against every accepted one through `bandwidth_between`.
    fn dedup_pairwise(dag: &AppDag, violations: &[Violation]) -> Vec<ComponentId> {
        let mut weight: Vec<(ComponentId, Bandwidth)> = Vec::new();
        for v in violations {
            match weight.iter_mut().find(|(c, _)| *c == v.component) {
                Some((_, w)) => *w = w.max(v.required),
                None => weight.push((v.component, v.required)),
            }
        }
        weight.sort_by(|a, b| b.1.as_bps().total_cmp(&a.1.as_bps()).then(a.0.cmp(&b.0)));
        let mut accepted: Vec<ComponentId> = Vec::new();
        for (candidate, _) in weight {
            if !accepted.iter().any(|&a| !dag.bandwidth_between(candidate, a).is_zero()) {
                accepted.push(candidate);
            }
        }
        accepted
    }

    #[test]
    fn one_pass_dedup_matches_the_pairwise_definition() {
        use bass_appdag::dag::DagEdge;
        use bass_util::rng::SimRng;
        use serde::{Content, Deserialize, Serialize};
        // Edge weights: zero; a tiny one that `is_zero` accepts alone but
        // not summed with a second (a pair joined both ways); and real
        // ones that tie often.
        let tiny = Bandwidth::from_bps(1.5e-16);
        let weights = [Bandwidth::ZERO, tiny, mbps(1.0), mbps(2.0), mbps(2.0)];
        let mut zero_ties = 0;
        for seed in 0..400 {
            let mut rng = SimRng::seed_from_u64(seed);
            let k = 2 + rng.below(9) as u32;
            let mut dag = AppDag::new("random");
            for c in 1..=k {
                let component = Component::new(ComponentId(c), format!("c{c}"), ResourceReq::default());
                dag.add_component(component).unwrap();
            }
            let mut reversed = Vec::new();
            for a in 1..=k {
                for b in a + 1..=k {
                    if rng.chance(0.4) {
                        let bw = weights[rng.below(5) as usize];
                        dag.add_edge(ComponentId(a), ComponentId(b), bw).unwrap();
                        if rng.chance(0.3) {
                            let bw = weights[rng.below(2) as usize];
                            let (from, to) = (ComponentId(b), ComponentId(a));
                            reversed.push(DagEdge { from, to, bandwidth: bw });
                        }
                    }
                }
            }
            // Edges both ways between one pair are a cycle `add_edge`
            // refuses; a deserialised DAG can still carry them.
            let edges = dag.edges().len() + reversed.len();
            let Content::Map(mut fields) = dag.serialize() else { panic!("a DAG serialises to a map") };
            for (name, value) in &mut fields {
                if let (true, Content::Seq(edges)) = (name == "edges", value) {
                    edges.extend(reversed.iter().map(DagEdge::serialize));
                }
            }
            let dag = AppDag::deserialize(&Content::Map(fields)).unwrap();
            assert_eq!(dag.edges().len(), edges);
            let violations: Vec<Violation> = (0..rng.below(12))
                .map(|_| Violation {
                    component: ComponentId(1 + rng.below(u64::from(k)) as u32),
                    dependency: ComponentId(0),
                    required: [mbps(1.0), mbps(2.0), mbps(3.0)][rng.below(3) as usize],
                    goodput_fraction: 0.3,
                    trigger: TriggerKind::Degradation,
                })
                .collect();
            let want = dedup_pairwise(&dag, &violations);
            assert_eq!(dedup_candidates(&dag, &violations), want, "seed {seed}");
            // Accepted pairs joined by an edge whose sum is zero: what
            // blocking on any edge would get wrong.
            zero_ties += dag
                .edges()
                .iter()
                .filter(|e| want.contains(&e.from) && want.contains(&e.to))
                .count();
        }
        assert!(zero_ties > 50, "only {zero_ties} accepted pairs share a zero-bandwidth edge");
    }

    use bass_appdag::AppDag;
}
