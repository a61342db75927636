//! Component-ordering heuristics (paper §3.2.1, Algorithms 1 and 2).
//!
//! Both heuristics turn the application DAG into an ordering that the
//! packer consumes: components adjacent in the ordering are the ones
//! that benefit most from co-location. The ordering is structured as
//! *groups*: within a group, packing proceeds strictly sequentially;
//! at a group boundary the packer re-ranks nodes by availability. The
//! breadth-first heuristic produces one group; the longest-path
//! heuristic produces one group per extracted chain, so each chain is
//! co-located as tightly as possible ("we colocate as many components on
//! the path on the same node as possible. We repeat this process").
//!
//! ### A note on Algorithm 1's sort key
//!
//! The paper's pseudocode sets `dep.weight` to the *cumulative* path
//! weight from the root, but the worked example (Fig. 6) is only
//! consistent with ordering the frontier by the *incoming edge* weight:
//! with cumulative weights, component 6 (weight ≥ weight(1→3)) could
//! never be visited after component 2 (weight = weight(1→2) <
//! weight(1→3)), yet the figure orders 6 last. We therefore default to
//! [`BfsWeighting::EdgeWeight`] (which reproduces Fig. 6 exactly) and
//! keep [`BfsWeighting::CumulativePath`] available for ablation.

use bass_appdag::{AppDag, ComponentId, DagError};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Errors computing an ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeuristicError {
    /// The component graph is not a DAG.
    Cyclic,
    /// The graph has no components.
    Empty,
}

impl fmt::Display for HeuristicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeuristicError::Cyclic => write!(f, "component graph is cyclic"),
            HeuristicError::Empty => write!(f, "component graph is empty"),
        }
    }
}

impl Error for HeuristicError {}

impl From<DagError> for HeuristicError {
    fn from(_: DagError) -> Self {
        HeuristicError::Cyclic
    }
}

/// How the breadth-first frontier is prioritized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BfsWeighting {
    /// Order the frontier by the weight of the edge that discovered each
    /// component (reproduces Fig. 6; the default).
    #[default]
    EdgeWeight,
    /// Order the frontier by cumulative path weight from the root (the
    /// pseudocode's literal `paths[dep]`), kept for ablation.
    CumulativePath,
}

/// An ordering of components, structured as sequentially packed groups.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentOrdering {
    groups: Vec<Vec<ComponentId>>,
}

impl ComponentOrdering {
    /// Creates an ordering from groups.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a component appears twice.
    pub fn new(groups: Vec<Vec<ComponentId>>) -> Self {
        debug_assert!(
            {
                let mut seen = BTreeSet::new();
                groups.iter().flatten().all(|c| seen.insert(*c))
            },
            "ordering contains duplicate components"
        );
        ComponentOrdering { groups }
    }

    /// The groups, in packing order.
    pub fn groups(&self) -> &[Vec<ComponentId>] {
        &self.groups
    }

    /// The flat component order (groups concatenated).
    pub fn flatten(&self) -> Vec<ComponentId> {
        self.groups.iter().flatten().copied().collect()
    }

    /// Total number of components in the ordering.
    pub fn len(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// True when the ordering holds no components.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Algorithm 1: modified breadth-first traversal.
///
/// Starting from the topologically first component, the frontier is kept
/// sorted by decreasing weight (see [`BfsWeighting`]) so the most
/// bandwidth-intensive dependency is visited — and hence packed next to
/// its producer — first. Disconnected parts of the DAG are traversed from
/// their own roots, in topological order.
///
/// # Errors
///
/// Returns [`HeuristicError::Empty`] for an empty graph and
/// [`HeuristicError::Cyclic`] for cyclic graphs.
///
/// # Examples
///
/// ```
/// use bass_appdag::catalog;
/// use bass_core::heuristics::{breadth_first, BfsWeighting};
///
/// let order = breadth_first(&catalog::fig6_example(), BfsWeighting::EdgeWeight)?;
/// let ids: Vec<u32> = order.flatten().iter().map(|c| c.0).collect();
/// assert_eq!(ids, vec![1, 3, 2, 4, 5, 7, 6]);
/// # Ok::<(), bass_core::heuristics::HeuristicError>(())
/// ```
pub fn breadth_first(
    dag: &AppDag,
    weighting: BfsWeighting,
) -> Result<ComponentOrdering, HeuristicError> {
    if dag.component_count() == 0 {
        return Err(HeuristicError::Empty);
    }
    let topo = dag.topo_sort()?;
    let mut visited: BTreeSet<ComponentId> = BTreeSet::new();
    let mut cumulative: BTreeMap<ComponentId, f64> = BTreeMap::new();
    let mut order = Vec::with_capacity(dag.component_count());
    // (weight, component): the frontier, re-sorted before every pop.
    let mut queue: Vec<(f64, ComponentId)> = Vec::new();

    for &root in &topo {
        if visited.contains(&root) {
            continue;
        }
        visited.insert(root);
        cumulative.insert(root, 0.0);
        queue.push((0.0, root));
        while !queue.is_empty() {
            // Stable sort, descending by weight; ties keep insertion
            // order (and the original insertion is by descending edge
            // weight among siblings).
            queue.sort_by(|a, b| b.0.total_cmp(&a.0));
            let (_, current) = queue.remove(0);
            order.push(current);

            // Dependencies of the current component, heaviest first.
            let mut deps: Vec<(ComponentId, f64)> = dag
                .out_edges(current)
                .map(|e| (e.to, e.bandwidth.as_bps()))
                .collect();
            deps.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            for (dep, w) in deps {
                if visited.insert(dep) {
                    let path_w = cumulative[&current] + w;
                    cumulative.insert(dep, path_w);
                    let key = match weighting {
                        BfsWeighting::EdgeWeight => w,
                        BfsWeighting::CumulativePath => path_w,
                    };
                    queue.push((key, dep));
                }
            }
        }
    }
    Ok(ComponentOrdering::new(vec![order]))
}

/// Algorithm 2: weighted longest-path chains.
///
/// Repeatedly: take the topologically first unvisited component, find
/// the maximum-weight path from it through unvisited components, and
/// emit that whole path as one co-location group.
///
/// # Errors
///
/// Returns [`HeuristicError::Empty`] for an empty graph and
/// [`HeuristicError::Cyclic`] for cyclic graphs.
///
/// # Examples
///
/// ```
/// use bass_appdag::catalog;
/// use bass_core::heuristics::longest_path;
///
/// let order = longest_path(&catalog::fig6_example())?;
/// let ids: Vec<u32> = order.flatten().iter().map(|c| c.0).collect();
/// assert_eq!(ids, vec![1, 2, 4, 5, 7, 3, 6]);
/// # Ok::<(), bass_core::heuristics::HeuristicError>(())
/// ```
pub fn longest_path(dag: &AppDag) -> Result<ComponentOrdering, HeuristicError> {
    if dag.component_count() == 0 {
        return Err(HeuristicError::Empty);
    }
    let topo = dag.topo_sort()?;
    let mut visited: BTreeSet<ComponentId> = BTreeSet::new();
    let mut groups = Vec::new();

    while visited.len() < dag.component_count() {
        let start = *topo
            .iter()
            .find(|c| !visited.contains(c))
            .expect("unvisited component exists");
        let chain = longest_chain_from(dag, &topo, start, &visited);
        for &c in &chain {
            visited.insert(c);
        }
        groups.push(chain);
    }
    Ok(ComponentOrdering::new(groups))
}

/// Maximum-weight path from `start` restricted to unvisited components
/// (dynamic programming over the topological order).
fn longest_chain_from(
    dag: &AppDag,
    topo: &[ComponentId],
    start: ComponentId,
    visited: &BTreeSet<ComponentId>,
) -> Vec<ComponentId> {
    let mut dist: BTreeMap<ComponentId, f64> = BTreeMap::new();
    let mut parent: BTreeMap<ComponentId, ComponentId> = BTreeMap::new();
    dist.insert(start, 0.0);
    for &v in topo {
        let Some(&dv) = dist.get(&v) else { continue };
        if visited.contains(&v) {
            continue;
        }
        for e in dag.out_edges(v) {
            if visited.contains(&e.to) {
                continue;
            }
            let cand = dv + e.bandwidth.as_bps();
            let better = match dist.get(&e.to) {
                None => true,
                Some(&d) => cand > d,
            };
            if better {
                dist.insert(e.to, cand);
                parent.insert(e.to, v);
            }
        }
    }
    // Farthest vertex: max distance, ties toward the smaller id.
    let (&last, _) = dist
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(a.0)))
        .expect("start is always in dist");
    let mut chain = vec![last];
    let mut cur = last;
    while cur != start {
        cur = parent[&cur];
        chain.push(cur);
    }
    chain.reverse();
    chain
}

/// The §8 hybrid extension: per weakly-connected subgraph, use the
/// breadth-first heuristic when the subgraph's maximum fan-out is at
/// least `fanout_threshold`, and the longest-path heuristic otherwise.
///
/// # Errors
///
/// Returns [`HeuristicError::Empty`] for an empty graph and
/// [`HeuristicError::Cyclic`] for cyclic graphs.
pub fn hybrid(dag: &AppDag, fanout_threshold: usize) -> Result<ComponentOrdering, HeuristicError> {
    if dag.component_count() == 0 {
        return Err(HeuristicError::Empty);
    }
    dag.topo_sort()?;
    let mut groups = Vec::new();
    for region in weakly_connected_regions(dag) {
        let max_fanout = region
            .iter()
            .map(|&c| dag.out_edges(c).count())
            .max()
            .unwrap_or(0);
        // Build the subgraph ordering by filtering the full heuristic's
        // output to the region (both heuristics traverse regions
        // independently, so filtering is exact).
        let sub = if max_fanout >= fanout_threshold {
            breadth_first(dag, BfsWeighting::EdgeWeight)?
        } else {
            longest_path(dag)?
        };
        for group in sub.groups() {
            let filtered: Vec<ComponentId> = group
                .iter()
                .copied()
                .filter(|c| region.contains(c))
                .collect();
            if !filtered.is_empty() {
                groups.push(filtered);
            }
        }
    }
    Ok(ComponentOrdering::new(groups))
}

/// Weakly-connected regions of the DAG, ordered by their smallest
/// component id.
fn weakly_connected_regions(dag: &AppDag) -> Vec<BTreeSet<ComponentId>> {
    let mut seen: BTreeSet<ComponentId> = BTreeSet::new();
    let mut regions = Vec::new();
    for c in dag.component_ids() {
        if seen.contains(&c) {
            continue;
        }
        let mut region = BTreeSet::new();
        let mut stack = vec![c];
        region.insert(c);
        while let Some(v) = stack.pop() {
            for (nb, _) in dag.neighbors(v) {
                if region.insert(nb) {
                    stack.push(nb);
                }
            }
        }
        seen.extend(region.iter().copied());
        regions.push(region);
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_appdag::catalog;
    use bass_appdag::{Component, ResourceReq};
    use bass_util::units::Bandwidth;

    fn ids(order: &ComponentOrdering) -> Vec<u32> {
        order.flatten().iter().map(|c| c.0).collect()
    }

    #[test]
    fn fig6_bfs_order_matches_paper() {
        let order = breadth_first(&catalog::fig6_example(), BfsWeighting::EdgeWeight).unwrap();
        assert_eq!(ids(&order), vec![1, 3, 2, 4, 5, 7, 6]);
        assert_eq!(order.groups().len(), 1);
    }

    #[test]
    fn fig6_longest_path_order_matches_paper() {
        let order = longest_path(&catalog::fig6_example()).unwrap();
        assert_eq!(ids(&order), vec![1, 2, 4, 5, 7, 3, 6]);
        assert_eq!(order.groups().len(), 2);
        assert_eq!(order.groups()[0].len(), 5);
        assert_eq!(order.groups()[1].len(), 2);
    }

    #[test]
    fn orders_are_permutations() {
        for dag in [
            catalog::fig6_example(),
            catalog::camera_pipeline(),
            catalog::social_network(50.0),
        ] {
            let mut expected: Vec<ComponentId> = dag.component_ids().collect();
            expected.sort();
            for order in [
                breadth_first(&dag, BfsWeighting::EdgeWeight).unwrap(),
                breadth_first(&dag, BfsWeighting::CumulativePath).unwrap(),
                longest_path(&dag).unwrap(),
                hybrid(&dag, 3).unwrap(),
            ] {
                let mut got = order.flatten();
                got.sort();
                assert_eq!(got, expected, "ordering must be a permutation");
            }
        }
    }

    #[test]
    fn camera_orders() {
        let dag = catalog::camera_pipeline();
        let bfs = breadth_first(&dag, BfsWeighting::EdgeWeight).unwrap();
        // Chain with a final fan-out: camera, sampler, detector, image, label.
        assert_eq!(ids(&bfs), vec![1, 2, 3, 4, 5]);
        let lp = longest_path(&dag).unwrap();
        assert_eq!(lp.groups()[0], vec![1.into(), 2.into(), 3.into(), 4.into()]);
        assert_eq!(lp.groups()[1], vec![5.into()]);
    }

    #[test]
    fn bfs_starts_at_topological_root() {
        let dag = catalog::social_network(10.0);
        let order = breadth_first(&dag, BfsWeighting::EdgeWeight).unwrap();
        let first = order.flatten()[0];
        assert_eq!(dag.component(first).unwrap().name, "nginx-frontend");
    }

    #[test]
    fn cumulative_weighting_differs_on_fig6() {
        let dag = catalog::fig6_example();
        let edge = breadth_first(&dag, BfsWeighting::EdgeWeight).unwrap();
        let cumulative = breadth_first(&dag, BfsWeighting::CumulativePath).unwrap();
        assert_ne!(ids(&edge), ids(&cumulative));
        // Cumulative visits 6 (path weight 11) before 2 (path weight 5).
        let c = ids(&cumulative);
        let pos = |x: u32| c.iter().position(|&v| v == x).unwrap();
        assert!(pos(6) < pos(2));
    }

    #[test]
    fn empty_graph_errors() {
        let dag = AppDag::new("empty");
        assert_eq!(
            breadth_first(&dag, BfsWeighting::EdgeWeight),
            Err(HeuristicError::Empty)
        );
        assert_eq!(longest_path(&dag), Err(HeuristicError::Empty));
        assert_eq!(hybrid(&dag, 2), Err(HeuristicError::Empty));
    }

    #[test]
    fn single_component_graph() {
        let order = longest_path(&catalog::video_conference()).unwrap();
        assert_eq!(ids(&order), vec![1]);
        let order = breadth_first(&catalog::video_conference(), BfsWeighting::EdgeWeight).unwrap();
        assert_eq!(ids(&order), vec![1]);
    }

    #[test]
    fn disconnected_dag_covered() {
        let mut dag = AppDag::new("two-islands");
        for i in 1..=4 {
            dag.add_component(Component::new(
                ComponentId(i),
                format!("c{i}"),
                ResourceReq::cores_mb(1, 64),
            ))
            .unwrap();
        }
        dag.add_edge(ComponentId(1), ComponentId(2), Bandwidth::from_mbps(1.0))
            .unwrap();
        dag.add_edge(ComponentId(3), ComponentId(4), Bandwidth::from_mbps(2.0))
            .unwrap();
        let bfs = breadth_first(&dag, BfsWeighting::EdgeWeight).unwrap();
        assert_eq!(bfs.len(), 4);
        let lp = longest_path(&dag).unwrap();
        assert_eq!(lp.groups().len(), 2);
    }

    #[test]
    fn hybrid_picks_per_region() {
        // Region A: star with fan-out 3 (should use BFS).
        // Region B: a chain (should use longest-path → its own group).
        let mut dag = AppDag::new("mixed");
        for i in 1..=8 {
            dag.add_component(Component::new(
                ComponentId(i),
                format!("c{i}"),
                ResourceReq::cores_mb(1, 64),
            ))
            .unwrap();
        }
        for (to, w) in [(2u32, 9.0), (3, 5.0), (4, 7.0)] {
            dag.add_edge(ComponentId(1), ComponentId(to), Bandwidth::from_mbps(w))
                .unwrap();
        }
        for (a, b) in [(5u32, 6u32), (6, 7), (7, 8)] {
            dag.add_edge(ComponentId(a), ComponentId(b), Bandwidth::from_mbps(1.0))
                .unwrap();
        }
        let order = hybrid(&dag, 3).unwrap();
        let flat = ids(&order);
        // Star region ordered by edge weight: 1, 2, 4, 3.
        assert_eq!(&flat[..4], &[1, 2, 4, 3]);
        // Chain region keeps its chain in order.
        assert_eq!(&flat[4..], &[5, 6, 7, 8]);
    }

    #[test]
    fn hybrid_extremes_match_their_parents() {
        for dag in [catalog::camera_pipeline(), catalog::social_network(25.0)] {
            // Threshold 0: every region counts as fan-out-heavy → BFS.
            let always_bfs = hybrid(&dag, 0).unwrap();
            let bfs = breadth_first(&dag, BfsWeighting::EdgeWeight).unwrap();
            assert_eq!(always_bfs.flatten(), bfs.flatten());
            // Threshold above any fan-out → longest-path.
            let always_lp = hybrid(&dag, usize::MAX).unwrap();
            let lp = longest_path(&dag).unwrap();
            assert_eq!(always_lp.flatten(), lp.flatten());
        }
    }

    #[test]
    fn longest_path_prefers_heavier_branch() {
        // start → a (100) vs start → b → c (1 + 1): heavy single edge wins.
        let mut dag = AppDag::new("branchy");
        for i in 1..=4 {
            dag.add_component(Component::new(
                ComponentId(i),
                format!("c{i}"),
                ResourceReq::cores_mb(1, 64),
            ))
            .unwrap();
        }
        dag.add_edge(ComponentId(1), ComponentId(2), Bandwidth::from_mbps(100.0))
            .unwrap();
        dag.add_edge(ComponentId(1), ComponentId(3), Bandwidth::from_mbps(1.0))
            .unwrap();
        dag.add_edge(ComponentId(3), ComponentId(4), Bandwidth::from_mbps(1.0))
            .unwrap();
        let order = longest_path(&dag).unwrap();
        assert_eq!(order.groups()[0], vec![ComponentId(1), ComponentId(2)]);
    }
}
