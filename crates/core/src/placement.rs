//! Packing a component ordering onto ranked nodes.
//!
//! "We pack the node with application components as long as its capacity
//! permits" (§3.2.1): within a group, packing is strictly sequential — a
//! component that does not fit the current node advances the cursor to
//! the next node in rank order and packing never returns to an earlier
//! node (that's what keeps consecutive, communication-heavy components
//! together). At each group boundary (a new longest-path chain) nodes
//! are re-ranked by availability so every chain starts on the roomiest
//! node.

use crate::heuristics::ComponentOrdering;
use crate::ranking::NodeRanking;
use bass_appdag::{AppDag, ComponentId};
use bass_cluster::{Cluster, Placement};
use bass_mesh::Mesh;
use std::error::Error;
use std::fmt;

/// Errors packing an ordering onto the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// A component in the ordering is missing from the DAG.
    UnknownComponent(ComponentId),
    /// No node (at or past the cursor) could fit the component.
    NoCapacity(ComponentId),
    /// A component was already placed on the cluster.
    AlreadyPlaced(ComponentId),
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::UnknownComponent(c) => write!(f, "ordering has unknown component {c}"),
            PlacementError::NoCapacity(c) => {
                write!(f, "no node can accommodate component {c}")
            }
            PlacementError::AlreadyPlaced(c) => write!(f, "component {c} already placed"),
        }
    }
}

impl Error for PlacementError {}

/// Packs `ordering` onto the cluster, mutating it, and returns the
/// resulting placement.
///
/// Every group packs onto the availability ranking as it stands at the
/// group's start, exactly as if [`rank_nodes`](crate::ranking::rank_nodes)
/// were called there. The ranking is built once per call and, between
/// groups, only the nodes the previous group placed on are re-scored
/// ([`NodeRanking::refresh`]): placing moves nothing but those nodes'
/// free CPU and memory, and the mesh is borrowed, so every other score
/// is unchanged.
///
/// # Errors
///
/// On error the cluster may hold a partial placement (mirroring k8s
/// semantics where already-bound pods stay bound); callers that need
/// atomicity should call [`Cluster::clear_placements`] on failure.
///
/// # Examples
///
/// ```
/// use bass_appdag::catalog;
/// use bass_cluster::{Cluster, NodeSpec};
/// use bass_core::heuristics::longest_path;
/// use bass_core::placement::pack_ordering;
/// use bass_mesh::{Mesh, Topology};
/// use bass_util::prelude::*;
///
/// let dag = catalog::camera_pipeline();
/// let ordering = longest_path(&dag).expect("valid DAG");
/// let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(3), Bandwidth::from_mbps(100.0))?;
/// let mut cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 12, 16_384)))
///     .expect("unique nodes");
/// let placement = pack_ordering(&ordering, &dag, &mut cluster, &mesh).expect("fits");
/// assert_eq!(placement.len(), 5);
/// # Ok::<(), bass_mesh::MeshError>(())
/// ```
pub fn pack_ordering(
    ordering: &ComponentOrdering,
    dag: &AppDag,
    cluster: &mut Cluster,
    mesh: &Mesh,
) -> Result<Placement, PlacementError> {
    let mut ranking = NodeRanking::new(cluster, mesh);
    // Nodes the current group placed on, in rank order (the cursor
    // never moves back, so each appears once).
    let mut touched = Vec::new();
    for group in ordering.groups() {
        ranking.refresh(cluster, mesh, &touched);
        touched.clear();
        let mut cursor = 0usize;
        for &cid in group {
            let component = dag
                .component(cid)
                .ok_or(PlacementError::UnknownComponent(cid))?;
            if cluster.node_of(cid).is_some() {
                return Err(PlacementError::AlreadyPlaced(cid));
            }
            loop {
                let Some(node) = ranking.get(cursor) else {
                    return Err(PlacementError::NoCapacity(cid));
                };
                if cluster.fits(node, component.resources).unwrap_or(false) {
                    cluster
                        .place(cid, component.resources, node)
                        .expect("fit checked");
                    if touched.last() != Some(&node) {
                        touched.push(node);
                    }
                    break;
                }
                cursor += 1;
            }
        }
    }
    Ok(cluster.placement())
}

/// The total bandwidth of DAG edges that cross nodes under `placement` —
/// the quantity both heuristics try to minimize; exposed for tests,
/// benches, and ablations.
pub fn crossing_bandwidth(dag: &AppDag, placement: &Placement) -> bass_util::units::Bandwidth {
    dag.edges()
        .iter()
        .filter(|e| {
            match (placement.get(&e.from), placement.get(&e.to)) {
                (Some(a), Some(b)) => a != b,
                // Unplaced endpoints count as crossing (worst case).
                _ => true,
            }
        })
        .map(|e| e.bandwidth)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::{breadth_first, longest_path, BfsWeighting};
    use bass_appdag::catalog;
    use bass_cluster::NodeSpec;
    use bass_mesh::{NodeId, Topology};
    use bass_util::units::Bandwidth;

    fn mesh(n: u32) -> Mesh {
        Mesh::with_uniform_capacity(Topology::full_mesh(n), Bandwidth::from_mbps(100.0)).unwrap()
    }

    fn nodes(n: u32, cores: u64) -> Cluster {
        Cluster::new((0..n).map(|i| NodeSpec::cores_mb(i, cores, 16384))).unwrap()
    }

    #[test]
    fn fig6_bfs_placement_matches_paper() {
        // Fig. 6: 4-core nodes, 1 core per component.
        let dag = catalog::fig6_example();
        let order = breadth_first(&dag, BfsWeighting::EdgeWeight).unwrap();
        let mut cluster = nodes(2, 4);
        let placement = pack_ordering(&order, &dag, &mut cluster, &mesh(2)).unwrap();
        let on = |n: u32| {
            let mut v: Vec<u32> = placement
                .iter()
                .filter(|(_, &node)| node == NodeId(n))
                .map(|(c, _)| c.0)
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(on(0), vec![1, 2, 3, 4]);
        assert_eq!(on(1), vec![5, 6, 7]);
    }

    #[test]
    fn fig6_longest_path_placement_matches_paper() {
        let dag = catalog::fig6_example();
        let order = longest_path(&dag).unwrap();
        let mut cluster = nodes(2, 4);
        let placement = pack_ordering(&order, &dag, &mut cluster, &mesh(2)).unwrap();
        let on = |n: u32| {
            let mut v: Vec<u32> = placement
                .iter()
                .filter(|(_, &node)| node == NodeId(n))
                .map(|(c, _)| c.0)
                .collect();
            v.sort_unstable();
            v
        };
        // Chain 1,2,4,5 fills node 0; 7 spills; chain [3,6] joins 7.
        assert_eq!(on(0), vec![1, 2, 4, 5]);
        assert_eq!(on(1), vec![3, 6, 7]);
    }

    #[test]
    fn camera_bfs_placement_matches_fig10b() {
        // 12-core workers: BFS puts {camera, sampler} on one node and
        // {detector, image, label} on the other (Fig. 10b).
        let dag = catalog::camera_pipeline();
        let order = breadth_first(&dag, BfsWeighting::EdgeWeight).unwrap();
        let mut cluster = nodes(3, 12);
        let placement = pack_ordering(&order, &dag, &mut cluster, &mesh(3)).unwrap();
        let node_of = |name: &str| placement[&dag.component_by_name(name).unwrap().id];
        assert_eq!(node_of("camera-stream"), node_of("frame-sampler"));
        assert_eq!(node_of("object-detector"), node_of("image-listener"));
        assert_eq!(node_of("object-detector"), node_of("label-listener"));
        assert_ne!(node_of("camera-stream"), node_of("object-detector"));
    }

    #[test]
    fn camera_lp_placement_differs_from_bfs() {
        let dag = catalog::camera_pipeline();
        let order = longest_path(&dag).unwrap();
        let mut cluster = nodes(3, 12);
        let placement = pack_ordering(&order, &dag, &mut cluster, &mesh(3)).unwrap();
        let node_of = |name: &str| placement[&dag.component_by_name(name).unwrap().id];
        // Chain keeps camera+sampler together, detector+image together.
        assert_eq!(node_of("camera-stream"), node_of("frame-sampler"));
        assert_eq!(node_of("object-detector"), node_of("image-listener"));
        // The label listener starts a new group on the roomiest node.
        assert_ne!(node_of("label-listener"), node_of("object-detector"));
    }

    #[test]
    fn bfs_crossing_bandwidth_not_worse_than_lp_for_camera() {
        let dag = catalog::camera_pipeline();
        let m = mesh(3);
        let bfs_x = {
            let mut c = nodes(3, 12);
            let o = breadth_first(&dag, BfsWeighting::EdgeWeight).unwrap();
            crossing_bandwidth(&dag, &pack_ordering(&o, &dag, &mut c, &m).unwrap())
        };
        let lp_x = {
            let mut c = nodes(3, 12);
            let o = longest_path(&dag).unwrap();
            crossing_bandwidth(&dag, &pack_ordering(&o, &dag, &mut c, &m).unwrap())
        };
        assert!(bfs_x <= lp_x, "bfs {bfs_x:?} vs lp {lp_x:?}");
    }

    #[test]
    fn no_capacity_errors() {
        let dag = catalog::camera_pipeline(); // detector needs 8 cores
        let order = breadth_first(&dag, BfsWeighting::EdgeWeight).unwrap();
        let mut cluster = nodes(2, 4);
        assert_eq!(
            pack_ordering(&order, &dag, &mut cluster, &mesh(2)),
            Err(PlacementError::NoCapacity(
                dag.component_by_name("object-detector").unwrap().id
            ))
        );
    }

    #[test]
    fn already_placed_detected() {
        let dag = catalog::fig6_example();
        let order = breadth_first(&dag, BfsWeighting::EdgeWeight).unwrap();
        let mut cluster = nodes(2, 16);
        cluster
            .place(
                ComponentId(1),
                dag.component(ComponentId(1)).unwrap().resources,
                NodeId(0),
            )
            .unwrap();
        assert_eq!(
            pack_ordering(&order, &dag, &mut cluster, &mesh(2)),
            Err(PlacementError::AlreadyPlaced(ComponentId(1)))
        );
    }

    #[test]
    fn social_network_packs_on_four_workers() {
        let dag = catalog::social_network(100.0);
        let order = longest_path(&dag).unwrap();
        let mut cluster = Cluster::new((1..=4).map(|i| NodeSpec::cores_mb(i, 4, 12_288))).unwrap();
        let mut topo = Topology::new();
        topo.add_node(NodeId(0)).unwrap();
        for i in 1..=4 {
            topo.add_node(NodeId(i)).unwrap();
        }
        for i in 0..=3u32 {
            topo.add_link(NodeId(i), NodeId(i + 1)).unwrap();
        }
        let m = Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(25.0)).unwrap();
        let placement = pack_ordering(&order, &dag, &mut cluster, &m).unwrap();
        assert_eq!(placement.len(), 27);
        cluster.check_invariants().unwrap();
        // The frontend-service-cache-db chains should co-locate heavily:
        // crossing bandwidth well below total bandwidth.
        let crossing = crossing_bandwidth(&dag, &placement);
        assert!(crossing.as_bps() < dag.total_bandwidth().as_bps() * 0.8);
    }

    #[test]
    fn crossing_bandwidth_counts_unplaced_as_crossing() {
        let dag = catalog::camera_pipeline();
        let placement = Placement::new();
        assert_eq!(crossing_bandwidth(&dag, &placement), dag.total_bandwidth());
    }

    use bass_appdag::ComponentId;
}
