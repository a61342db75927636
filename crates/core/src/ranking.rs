//! Node ranking (paper §3.2.1): "we first rank nodes based on their CPU,
//! memory, and combined capacity across all of the node's links".

use bass_cluster::Cluster;
use bass_mesh::{Mesh, NodeId};

/// One node's ranking score: free CPU, free memory, and total incident
/// link capacity, compared lexicographically in that order (CPU is the
/// binding resource for the paper's workloads). Ties break toward the
/// lower node id for determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeScore {
    /// The node.
    pub node: NodeId,
    /// Free CPU in millicores.
    pub free_cpu_millis: u64,
    /// Free memory in MB.
    pub free_memory_mb: u64,
    /// Sum of current capacities of incident links, in bps.
    pub link_capacity_bps: f64,
}

/// Ranks the cluster's nodes by availability, best first.
///
/// # Panics
///
/// Panics if the cluster references a node the mesh does not know —
/// construction wiring should make that impossible.
pub fn rank_nodes(cluster: &Cluster, mesh: &Mesh) -> Vec<NodeId> {
    let mut scores: Vec<NodeScore> = cluster
        .node_ids()
        .into_iter()
        .map(|n| score_node(cluster, mesh, n))
        .collect();
    scores.sort_by(|a, b| {
        b.free_cpu_millis
            .cmp(&a.free_cpu_millis)
            .then(b.free_memory_mb.cmp(&a.free_memory_mb))
            .then(b.link_capacity_bps.total_cmp(&a.link_capacity_bps))
            .then(a.node.cmp(&b.node))
    });
    scores.into_iter().map(|s| s.node).collect()
}

/// Computes a single node's score.
///
/// # Panics
///
/// Panics if the node is unknown to the cluster or the mesh.
pub fn score_node(cluster: &Cluster, mesh: &Mesh, node: NodeId) -> NodeScore {
    let free = cluster.free_on(node).expect("cluster node exists");
    let link = mesh
        .node_total_link_capacity(node)
        .expect("mesh node exists");
    NodeScore {
        node,
        free_cpu_millis: free.cpu.as_millis(),
        free_memory_mb: free.memory.as_mb(),
        link_capacity_bps: link.as_bps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_appdag::{ComponentId, ResourceReq};
    use bass_cluster::NodeSpec;
    use bass_mesh::{CapacitySource, Topology};
    use bass_util::units::Bandwidth;

    fn mesh3() -> Mesh {
        Mesh::with_uniform_capacity(Topology::full_mesh(3), Bandwidth::from_mbps(100.0)).unwrap()
    }

    #[test]
    fn cpu_dominates() {
        let cluster = Cluster::new(vec![
            NodeSpec::cores_mb(0, 4, 1024),
            NodeSpec::cores_mb(1, 8, 512),
            NodeSpec::cores_mb(2, 2, 8192),
        ])
        .unwrap();
        let ranked = rank_nodes(&cluster, &mesh3());
        assert_eq!(ranked, vec![NodeId(1), NodeId(0), NodeId(2)]);
    }

    #[test]
    fn memory_breaks_cpu_ties() {
        let cluster = Cluster::new(vec![
            NodeSpec::cores_mb(0, 4, 1024),
            NodeSpec::cores_mb(1, 4, 4096),
        ])
        .unwrap();
        let mut topo = Topology::new();
        topo.add_node(NodeId(0)).unwrap();
        topo.add_node(NodeId(1)).unwrap();
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        let mesh = Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(10.0)).unwrap();
        assert_eq!(rank_nodes(&cluster, &mesh), vec![NodeId(1), NodeId(0)]);
    }

    #[test]
    fn link_capacity_breaks_full_ties() {
        let cluster = Cluster::new(vec![
            NodeSpec::cores_mb(0, 4, 1024),
            NodeSpec::cores_mb(1, 4, 1024),
            NodeSpec::cores_mb(2, 4, 1024),
        ])
        .unwrap();
        let mut mesh = mesh3();
        // Beef up node 2's links.
        mesh.set_link_source(NodeId(0), NodeId(2), CapacitySource::Constant(Bandwidth::from_mbps(500.0)))
            .unwrap();
        mesh.set_link_source(NodeId(1), NodeId(2), CapacitySource::Constant(Bandwidth::from_mbps(500.0)))
            .unwrap();
        let ranked = rank_nodes(&cluster, &mesh);
        assert_eq!(ranked[0], NodeId(2));
    }

    #[test]
    fn identical_nodes_rank_by_id() {
        let cluster = Cluster::new(vec![
            NodeSpec::cores_mb(2, 4, 1024),
            NodeSpec::cores_mb(0, 4, 1024),
            NodeSpec::cores_mb(1, 4, 1024),
        ])
        .unwrap();
        assert_eq!(
            rank_nodes(&cluster, &mesh3()),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn ranking_reflects_allocations() {
        let mut cluster = Cluster::new(vec![
            NodeSpec::cores_mb(0, 4, 1024),
            NodeSpec::cores_mb(1, 4, 1024),
        ])
        .unwrap();
        cluster
            .place(ComponentId(1), ResourceReq::cores_mb(3, 128), NodeId(0))
            .unwrap();
        assert_eq!(rank_nodes(&cluster, &mesh3()), vec![NodeId(1), NodeId(0)]);
    }
}
