//! Node ranking (paper §3.2.1): "we first rank nodes based on their CPU,
//! memory, and combined capacity across all of the node's links".

use bass_cluster::Cluster;
use bass_mesh::{Mesh, NodeId};
use std::cmp::Ordering;
use std::ops::Range;

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
    /// Sum of current capacities of incident links, in bps: read only
    /// when another ranked node ties this one on free CPU and memory,
    /// the one place it decides the order; `None` otherwise.
    pub link_capacity_bps: Option<f64>,
}

impl NodeScore {
    /// More free CPU first, then more free memory: the tie groups' order.
    fn free_cmp(&self, other: &NodeScore) -> Ordering {
        other
            .free_cpu_millis
            .cmp(&self.free_cpu_millis)
            .then(other.free_memory_mb.cmp(&self.free_memory_mb))
    }

    /// The ranking's total order: more free CPU first, then more free
    /// memory, then more link capacity (read in every tie group), then
    /// the lower node id.
    fn rank_cmp(&self, other: &NodeScore) -> Ordering {
        let links = match (other.link_capacity_bps, self.link_capacity_bps) {
            (Some(a), Some(b)) => a.total_cmp(&b),
            (a, b) => a.is_some().cmp(&b.is_some()),
        };
        self.free_cmp(other).then(links).then(self.node.cmp(&other.node))
    }
}

/// Every node's score, kept sorted best first.
///
/// A placement or eviction moves only its node's free CPU and memory;
/// [`refresh`](Self::refresh) re-reads those for the named nodes and
/// moves them to their new rank. Link capacities are read only for the
/// nodes of a tie group (equal free CPU and memory), when it forms:
/// while the mesh's capacities hold still (flows never move them), the
/// refreshed ranking is exactly a fresh [`rank_nodes`], score for score.
#[derive(Debug, Clone)]
pub struct NodeRanking {
    scores: Vec<NodeScore>,
}

impl NodeRanking {
    /// Scores every cluster node and sorts them, best first: by free CPU,
    /// free memory and id, then each tie group by the full order.
    ///
    /// # Panics
    ///
    /// Panics if the cluster references a node the mesh does not know —
    /// construction wiring should make that impossible.
    pub fn new(cluster: &Cluster, mesh: &Mesh) -> Self {
        let scores = cluster.node_ids().into_iter().map(|n| free_score(cluster, n)).collect();
        let mut ranking = NodeRanking { scores };
        ranking.scores.sort_by(|a, b| a.free_cmp(b).then(a.node.cmp(&b.node)));
        let mut at = 0;
        while at < ranking.scores.len() {
            let group = ranking.tie_group(&ranking.scores[at]);
            at = group.end;
            ranking.sort_tie_group(group, mesh);
        }
        ranking
    }

    /// Re-reads the free CPU and memory of `nodes` and moves them to
    /// their new rank — O(ranked nodes) per named node — re-sorting the
    /// tie group each joins. A group left with one member drops its link
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if a named node is not ranked.
    pub fn refresh(&mut self, cluster: &Cluster, mesh: &Mesh, nodes: &[NodeId]) {
        for &node in nodes {
            let at = self
                .scores
                .iter()
                .position(|s| s.node == node)
                .expect("refreshed node is ranked");
            let moved = self.scores.remove(at);
            let left = self.tie_group(&moved);
            if left.len() == 1 {
                self.scores[left.start].link_capacity_bps = None;
            }
            let score = free_score(cluster, node);
            let joins = self.tie_group(&score);
            self.scores.insert(joins.end, score);
            self.sort_tie_group(joins.start..joins.end + 1, mesh);
        }
    }

    /// The ranks of the nodes with `score`'s free CPU and memory.
    fn tie_group(&self, score: &NodeScore) -> Range<usize> {
        let lo = self.scores.partition_point(|s| s.free_cmp(score).is_lt());
        lo..lo + self.scores[lo..].partition_point(|s| s.free_cmp(score).is_eq())
    }

    /// Reads the link capacity of every node of a tie group of two or
    /// more that lacks one, and sorts the group by the full order.
    ///
    /// # Panics
    ///
    /// Panics if a node is unknown to the mesh.
    fn sort_tie_group(&mut self, group: Range<usize>, mesh: &Mesh) {
        if group.len() > 1 {
            let group = &mut self.scores[group];
            for s in group.iter_mut() {
                s.link_capacity_bps.get_or_insert_with(|| {
                    mesh.node_total_link_capacity(s.node).expect("mesh node exists").as_bps()
                });
            }
            group.sort_by(NodeScore::rank_cmp);
        }
    }

    /// The node at rank `i` (0 = best), if any.
    pub fn get(&self, i: usize) -> Option<NodeId> {
        self.scores.get(i).map(|s| s.node)
    }

    /// The nodes, best first.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.scores.iter().map(|s| s.node)
    }

    /// The scores, best first.
    pub fn scores(&self) -> &[NodeScore] {
        &self.scores
    }
}

/// The node's score with its free CPU and memory read, its links not.
fn free_score(cluster: &Cluster, node: NodeId) -> NodeScore {
    let free = cluster.free_on(node).expect("cluster node exists");
    let (free_cpu_millis, free_memory_mb) = (free.cpu.as_millis(), free.memory.as_mb());
    NodeScore { node, free_cpu_millis, free_memory_mb, link_capacity_bps: None }
}

/// Ranks the cluster's nodes by availability, best first — a fresh
/// [`NodeRanking`]'s order.
///
/// # Panics
///
/// Panics if the cluster references a node the mesh does not know —
/// construction wiring should make that impossible.
pub fn rank_nodes(cluster: &Cluster, mesh: &Mesh) -> Vec<NodeId> {
    NodeRanking::new(cluster, mesh).nodes().collect()
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
    fn refresh_moves_only_the_touched_nodes() {
        let mut cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 4, 1024))).unwrap();
        let mesh = mesh3();
        let mut ranking = NodeRanking::new(&cluster, &mesh);
        assert_eq!(ranking.nodes().collect::<Vec<_>>(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        cluster
            .place(ComponentId(1), ResourceReq::cores_mb(1, 128), NodeId(0))
            .unwrap();
        cluster
            .place(ComponentId(2), ResourceReq::cores_mb(2, 128), NodeId(1))
            .unwrap();
        ranking.refresh(&cluster, &mesh, &[NodeId(0), NodeId(1)]);
        assert_eq!(ranking.scores(), NodeRanking::new(&cluster, &mesh).scores());
        assert_eq!(ranking.get(0), Some(NodeId(2)));
        cluster.evict(ComponentId(2)).unwrap();
        ranking.refresh(&cluster, &mesh, &[NodeId(1)]);
        assert_eq!(ranking.nodes().collect::<Vec<_>>(), rank_nodes(&cluster, &mesh));
        assert_eq!(ranking.get(3), None);
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
