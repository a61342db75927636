//! Deterministic min-hop routing.
//!
//! The paper assumes decentralized mesh routing that BASS cannot control;
//! BASS only *observes* paths with traceroute. We model the routing layer
//! as shortest-path (min hop count) with deterministic tie-breaking by
//! node id, which is stable across runs — exactly what an observing
//! orchestrator needs.

use crate::topology::{LinkId, NodeId, Topology};
use std::collections::{BTreeMap, VecDeque};

/// Precomputed all-pairs min-hop routes over a [`Topology`].
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
///     &[NodeId(0), NodeId(1), NodeId(2)]
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    /// `paths[(src, dst)]` = node sequence from src to dst inclusive.
    paths: BTreeMap<(NodeId, NodeId), Vec<NodeId>>,
}

impl RoutingTable {
    /// Runs BFS from every node and records the min-hop path to every
    /// reachable destination. Ties are broken toward lower node ids, so
    /// the table is deterministic.
    pub fn compute(topo: &Topology) -> Self {
        Self::compute_filtered(topo, |_| true)
    }

    /// [`compute`](Self::compute) restricted to links for which `usable`
    /// returns true — routes never traverse a filtered-out link. Used by
    /// the mesh to route around faulted links and crashed nodes;
    /// destinations that become unreachable simply have no entry.
    pub fn compute_filtered(topo: &Topology, mut usable: impl FnMut(LinkId) -> bool) -> Self {
        // Link ids are dense, so a bit-vector beats a tree set: O(1)
        // membership checks on every BFS edge relaxation.
        let mut pass = vec![false; topo.link_count()];
        for (lid, _) in topo.links() {
            pass[lid.0] = usable(lid);
        }
        let mut paths = BTreeMap::new();
        for src in topo.nodes() {
            // BFS with parent pointers; neighbors() is sorted so the
            // first-found parent is the lowest-id one.
            let mut parent: BTreeMap<NodeId, NodeId> = BTreeMap::new();
            let mut queue = VecDeque::new();
            queue.push_back(src);
            parent.insert(src, src);
            while let Some(n) = queue.pop_front() {
                for &(nb, lid) in topo.neighbor_links(n) {
                    if !pass[lid.0] {
                        continue;
                    }
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(nb) {
                        e.insert(n);
                        queue.push_back(nb);
                    }
                }
            }
            for (&dst, _) in parent.iter() {
                let mut path = vec![dst];
                let mut cur = dst;
                while cur != src {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                paths.insert((src, dst), path);
            }
        }
        RoutingTable { paths }
    }

    /// The node sequence from `src` to `dst` (inclusive), or `None` when
    /// unreachable. This is the simulator's "traceroute".
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<&[NodeId]> {
        self.paths.get(&(src, dst)).map(Vec::as_slice)
    }

    /// Hop count between two nodes (0 for `src == dst`), or `None` when
    /// unreachable.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        self.path(src, dst).map(|p| p.len() - 1)
    }

    /// The links traversed from `src` to `dst`, or `None` when
    /// unreachable or when a path edge is missing from the topology
    /// (which would indicate a stale table).
    pub fn path_links(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        let path = self.path(src, dst)?;
        path.windows(2)
            .map(|w| topo.find_link(w[0], w[1]))
            .collect()
    }

    /// True when every node pair has a route.
    pub fn fully_connected(&self, topo: &Topology) -> bool {
        let nodes: Vec<NodeId> = topo.nodes().collect();
        nodes
            .iter()
            .all(|&a| nodes.iter().all(|&b| self.paths.contains_key(&(a, b))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(rt.hops(NodeId(0), NodeId(4)), Some(4));
        assert_eq!(
            rt.path(NodeId(0), NodeId(3)).unwrap(),
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(rt.path(NodeId(2), NodeId(2)).unwrap(), &[NodeId(2)]);
        assert!(rt.fully_connected(&topo));
    }

    #[test]
    fn full_mesh_is_single_hop() {
        let topo = Topology::full_mesh(4);
        let rt = RoutingTable::compute(&topo);
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b {
                    assert_eq!(rt.hops(a, b), Some(1));
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
        assert_eq!(rt.hops(NodeId(0), NodeId(1)), None);
        assert!(!rt.fully_connected(&topo));
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
            &[NodeId(0), NodeId(1), NodeId(3)]
        );
        // Recomputation gives the identical table.
        assert_eq!(rt, RoutingTable::compute(&topo));
    }

    #[test]
    fn path_links_traverse_topology() {
        let topo = line(4);
        let rt = RoutingTable::compute(&topo);
        let links = rt.path_links(&topo, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(links.len(), 3);
        // Every returned link is a real topology link on the path.
        let path = rt.path(NodeId(0), NodeId(3)).unwrap();
        for (i, lid) in links.iter().enumerate() {
            let l = topo.link(*lid);
            let (a, b) = (path[i], path[i + 1]);
            assert!(l.other(a) == Some(b));
        }
        // Same-node path crosses no links.
        assert_eq!(
            rt.path_links(&topo, NodeId(1), NodeId(1)).unwrap(),
            Vec::<LinkId>::new()
        );
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
            &[NodeId(0), NodeId(1), NodeId(2)]
        );
        let l01 = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        let isolated = RoutingTable::compute_filtered(&topo, |lid| lid != direct && lid != l01);
        assert_eq!(isolated.path(NodeId(0), NodeId(2)), None);
        assert_eq!(isolated.path(NodeId(0), NodeId(0)).unwrap(), &[NodeId(0)]);
        assert!(isolated.path(NodeId(1), NodeId(2)).is_some());
        assert!(!isolated.fully_connected(&topo));
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
        assert_eq!(rt.hops(NodeId(0), NodeId(2)), Some(1));
        assert_eq!(rt.hops(NodeId(1), NodeId(3)), Some(2));
    }
}
