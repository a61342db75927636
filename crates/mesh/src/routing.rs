//! Deterministic min-hop routing.
//!
//! The paper assumes decentralized mesh routing that BASS cannot control;
//! BASS only *observes* paths with traceroute. We model the routing layer
//! as shortest-path (min hop count) with deterministic tie-breaking by
//! node id, which is stable across runs — exactly what an observing
//! orchestrator needs.

use crate::topology::{LinkId, NodeId, Topology};

/// Parent-array entry of a destination the source cannot reach.
const UNREACHABLE: u32 = u32::MAX;

/// All-pairs min-hop routes over a [`Topology`], kept as one BFS parent
/// array per source: a path is walked out of the array when asked for
/// and never stored. Arrays are indexed by a node's *rank* (its position
/// in ascending id order), so the table's size depends on how many
/// nodes there are, not on how large their ids are.
///
/// # Examples
///
/// ```
/// use bass_mesh::routing::RoutingTable;
/// use bass_mesh::topology::{NodeId, Topology};
///
/// let mut topo = Topology::new();
/// for i in 0..3 {
///     topo.add_node(NodeId(i)).unwrap();
/// }
/// topo.add_link(NodeId(0), NodeId(1)).unwrap();
/// topo.add_link(NodeId(1), NodeId(2)).unwrap();
/// let routes = RoutingTable::compute(&topo);
/// assert_eq!(
///     routes.path(NodeId(0), NodeId(2)).unwrap(),
///     [NodeId(0), NodeId(1), NodeId(2)]
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    /// Node ids in ascending order; a node's index here is its rank.
    ids: Vec<NodeId>,
    /// `parent[s * n + d]` = rank of the hop before `d` on the route from
    /// `s` (`s` itself when `d == s`), or [`UNREACHABLE`].
    parent: Vec<u32>,
}

impl RoutingTable {
    /// Runs BFS from every node and records each reached node's parent.
    /// Ties are broken toward lower node ids, so the table is
    /// deterministic.
    pub fn compute(topo: &Topology) -> Self {
        Self::compute_filtered(topo, |_| true)
    }

    /// [`compute`](Self::compute) restricted to links for which `usable`
    /// returns true — routes never traverse a filtered-out link. Used by
    /// the mesh to route around faulted links and crashed nodes;
    /// destinations that become unreachable simply have no route.
    pub fn compute_filtered(topo: &Topology, mut usable: impl FnMut(LinkId) -> bool) -> Self {
        let mut pass = vec![false; topo.link_count()];
        for (lid, _) in topo.links() {
            pass[lid.0] = usable(lid);
        }
        let ids: Vec<NodeId> = topo.nodes().collect();
        let n = ids.len();
        // Usable adjacency in rank space (CSR). `neighbor_links` ascends
        // by id, hence by rank, so the first-found BFS parent below is
        // the lowest-id one.
        let mut adj_off = vec![0];
        let mut adj: Vec<u32> = Vec::new();
        for &node in &ids {
            for &(nb, lid) in topo.neighbor_links(node) {
                if !pass[lid.0] {
                    continue;
                }
                if let Ok(r) = ids.binary_search(&nb) {
                    adj.push(r as u32);
                }
            }
            adj_off.push(adj.len());
        }
        let mut parent = vec![UNREACHABLE; n * n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        for s in 0..n {
            let row = &mut parent[s * n..(s + 1) * n];
            row[s] = s as u32;
            queue.clear();
            queue.push(s as u32);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                for &v in &adj[adj_off[u as usize]..adj_off[u as usize + 1]] {
                    if row[v as usize] == UNREACHABLE {
                        row[v as usize] = u;
                        queue.push(v);
                    }
                }
            }
        }
        RoutingTable { ids, parent }
    }

    /// The node's rank: its position among the topology's nodes in
    /// ascending id order, the index of every dense per-node view.
    pub fn rank(&self, node: NodeId) -> Option<u32> {
        self.ids.binary_search(&node).ok().map(|r| r as u32)
    }

    /// The node sequence from `src` to `dst` (inclusive), or `None` when
    /// unreachable. This is the simulator's "traceroute".
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let (s, d) = (self.rank(src)? as usize, self.rank(dst)? as usize);
        let n = self.ids.len();
        let row = &self.parent[s * n..(s + 1) * n];
        if row[d] == UNREACHABLE {
            return None;
        }
        let mut path = vec![dst];
        let mut cur = d;
        while cur != s {
            cur = row[cur] as usize;
            path.push(self.ids[cur]);
        }
        path.reverse();
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hops(rt: &RoutingTable, a: u32, b: u32) -> Option<usize> {
        rt.path(NodeId(a), NodeId(b)).map(|p| p.len() - 1)
    }

    fn line(n: u32) -> Topology {
        let mut topo = Topology::new();
        for i in 0..n {
            topo.add_node(NodeId(i)).unwrap();
        }
        for i in 0..n - 1 {
            topo.add_link(NodeId(i), NodeId(i + 1)).unwrap();
        }
        topo
    }

    #[test]
    fn line_paths() {
        let topo = line(5);
        let rt = RoutingTable::compute(&topo);
        assert_eq!(hops(&rt, 0, 4), Some(4));
        assert_eq!(
            rt.path(NodeId(0), NodeId(3)).unwrap(),
            [NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(rt.path(NodeId(2), NodeId(2)).unwrap(), [NodeId(2)]);
    }

    #[test]
    fn full_mesh_is_single_hop() {
        let topo = Topology::full_mesh(4);
        let rt = RoutingTable::compute(&topo);
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b {
                    assert_eq!(rt.path(a, b).unwrap(), [a, b]);
                }
            }
        }
    }

    #[test]
    fn unreachable_is_none() {
        let mut topo = Topology::new();
        topo.add_node(NodeId(0)).unwrap();
        topo.add_node(NodeId(1)).unwrap();
        let rt = RoutingTable::compute(&topo);
        assert_eq!(rt.path(NodeId(0), NodeId(1)), None);
        assert_eq!(rt.path(NodeId(0), NodeId(7)), None, "unknown node");
    }

    #[test]
    fn tie_break_is_deterministic() {
        // Diamond: 0-1, 0-2, 1-3, 2-3. Path 0→3 has two 2-hop options;
        // BFS with sorted neighbors must pick via node 1.
        let mut topo = Topology::new();
        for i in 0..4 {
            topo.add_node(NodeId(i)).unwrap();
        }
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        topo.add_link(NodeId(0), NodeId(2)).unwrap();
        topo.add_link(NodeId(1), NodeId(3)).unwrap();
        topo.add_link(NodeId(2), NodeId(3)).unwrap();
        let rt = RoutingTable::compute(&topo);
        assert_eq!(
            rt.path(NodeId(0), NodeId(3)).unwrap(),
            [NodeId(0), NodeId(1), NodeId(3)]
        );
        // Recomputation gives the identical table.
        assert_eq!(rt, RoutingTable::compute(&topo));
    }

    #[test]
    fn filtered_routing_avoids_down_links() {
        // Triangle: with the direct 0–2 link filtered out, the route
        // detours through 1; with both 0-* links gone, 0 is isolated.
        let topo = Topology::full_mesh(3);
        let direct = topo.find_link(NodeId(0), NodeId(2)).unwrap();
        let rt = RoutingTable::compute_filtered(&topo, |lid| lid != direct);
        assert_eq!(
            rt.path(NodeId(0), NodeId(2)).unwrap(),
            [NodeId(0), NodeId(1), NodeId(2)]
        );
        let l01 = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        let isolated = RoutingTable::compute_filtered(&topo, |lid| lid != direct && lid != l01);
        assert_eq!(isolated.path(NodeId(0), NodeId(2)), None);
        assert_eq!(isolated.path(NodeId(0), NodeId(0)).unwrap(), [NodeId(0)]);
        assert!(isolated.path(NodeId(1), NodeId(2)).is_some());
    }

    #[test]
    fn shortest_paths_use_chords() {
        // Ring 0-1-2-3-0 plus chord 0-2: path 1→3 stays 2 hops, path 0→2
        // becomes 1 hop via the chord.
        let mut topo = Topology::new();
        for i in 0..4 {
            topo.add_node(NodeId(i)).unwrap();
        }
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        topo.add_link(NodeId(1), NodeId(2)).unwrap();
        topo.add_link(NodeId(2), NodeId(3)).unwrap();
        topo.add_link(NodeId(3), NodeId(0)).unwrap();
        topo.add_link(NodeId(0), NodeId(2)).unwrap();
        let rt = RoutingTable::compute(&topo);
        assert_eq!(hops(&rt, 0, 2), Some(1));
        assert_eq!(hops(&rt, 1, 3), Some(2));
    }
}
