//! The route part of [`Mesh`](crate::Mesh): the topology, which nodes
//! and links faults have taken down, and the min-hop routes over what
//! is left.
//!
//! Invariant: every row `table` has built equals the row of
//! `RoutingTable::compute_filtered(&topo, |l| usable(l))`; a row is built
//! on its first read, and routing a flow reads its source's, so every
//! source with flows has one. The up/down setters repair the built rows
//! in place before they return, over only the links whose usability
//! really flipped (none under a crashed endpoint).
//! [`Routes::recompute`] is the from-scratch form `Mesh::rebuilt` uses.

use crate::mesh::MeshError;
use crate::routing::RoutingTable;
use crate::topology::{LinkId, NodeId, Topology};
use std::collections::BTreeSet;

/// Topology, fault state and routing table.
///
/// Logical: `topo`, `down_nodes`, `down_links`. Derived: `table`,
/// `changed`.
#[derive(Debug, Clone)]
pub(crate) struct Routes {
    /// The topology the mesh was built on; never changes.
    topo: Topology,
    /// Nodes currently crashed (fault injection): all incident links are
    /// unusable and the node's loopback traffic is dead.
    down_nodes: BTreeSet<NodeId>,
    /// Links currently down (fault injection), independent of node state.
    down_links: BTreeSet<LinkId>,
    /// Min-hop routes over the usable links.
    table: RoutingTable,
    /// By rank: whether the last setter call that changed the fault
    /// state changed the source's row, or its loopback.
    changed: Vec<bool>,
}

/// Adds `item` to a down set, or with `up` takes it out; true when the
/// set changed.
fn mark<T: Ord>(down: &mut BTreeSet<T>, item: T, up: bool) -> bool {
    if up {
        down.remove(&item)
    } else {
        down.insert(item)
    }
}

impl Routes {
    /// Routes over a connected topology with everything up.
    pub(crate) fn new(topo: Topology) -> Result<Self, MeshError> {
        if !topo.is_connected() {
            return Err(MeshError::NotConnected);
        }
        let table = RoutingTable::compute(&topo);
        let changed = vec![false; topo.node_count()];
        Ok(Routes { topo, down_nodes: BTreeSet::new(), down_links: BTreeSet::new(), table, changed })
    }

    /// The topology.
    pub(crate) fn topo(&self) -> &Topology {
        &self.topo
    }

    /// The min-hop routes over the usable links.
    pub(crate) fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// The link between `a` and `b`.
    pub(crate) fn link(&self, a: NodeId, b: NodeId) -> Result<LinkId, MeshError> {
        self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))
    }

    /// Marks a node up or down and repairs the table. `None` when that
    /// restated its state, else whether any link's usability flipped.
    /// The node's own row always counts as changed: its loopback flows
    /// live or die with it.
    pub(crate) fn set_node_up(&mut self, node: NodeId, up: bool) -> Result<Option<bool>, MeshError> {
        let x = self.table.rank(node).ok_or(MeshError::UnknownNode(node))?;
        if !mark(&mut self.down_nodes, node, up) {
            return Ok(None);
        }
        self.changed.fill(false);
        self.changed[x as usize] = true;
        let flips: Vec<LinkId> = self.topo.neighbor_links(node).iter()
            .filter(|&&(nb, lid)| !self.down_links.contains(&lid) && !self.down_nodes.contains(&nb))
            .map(|&(_, lid)| lid)
            .collect();
        Ok(Some(self.table.repair(&flips, up, &mut self.changed)))
    }

    /// Marks the link between `a` and `b` up or down and repairs the
    /// table, as [`set_node_up`](Self::set_node_up) does; under a crashed
    /// endpoint the link stays unusable either way.
    pub(crate) fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) -> Result<Option<bool>, MeshError> {
        let lid = self.link(a, b)?;
        if !mark(&mut self.down_links, lid, up) {
            return Ok(None);
        }
        self.changed.fill(false);
        let link = self.topo.link(lid);
        let endpoints_up = !self.down_nodes.contains(&link.a) && !self.down_nodes.contains(&link.b);
        let flips = endpoints_up.then_some(lid);
        Ok(Some(self.table.repair(flips.as_slice(), up, &mut self.changed)))
    }

    /// Recomputes the table from scratch over the usable links, dropping
    /// every row, and marks every row changed, so the next re-route
    /// re-paths every flow (and builds its source's row).
    pub(crate) fn recompute(&mut self) {
        self.table = RoutingTable::compute_filtered(&self.topo, |l| self.usable(l));
        self.changed.fill(true);
    }

    /// Whether flows from `src` need re-pathing after the last setter
    /// call: a source with no built row has no flow across a link.
    pub(crate) fn source_changed(&self, src: NodeId) -> bool {
        self.table.rank(src).is_some_and(|r| self.changed[r as usize])
    }

    /// True when the node exists and is not crashed.
    pub(crate) fn node_is_up(&self, node: NodeId) -> bool {
        self.topo.contains_node(node) && !self.down_nodes.contains(&node)
    }

    /// True when the link and both its endpoints are up.
    pub(crate) fn usable(&self, lid: LinkId) -> bool {
        if self.down_links.contains(&lid) {
            return false;
        }
        let link = self.topo.link(lid);
        !self.down_nodes.contains(&link.a) && !self.down_nodes.contains(&link.b)
    }

    /// Routes one flow over the current table: the links it crosses and
    /// the ranks of the nodes whose egress it consumes, each vector sized
    /// exactly, or `None` when no usable route exists.
    pub(crate) fn route_flow(&self, src: NodeId, dst: NodeId) -> Option<(Vec<LinkId>, Vec<u32>)> {
        if src == dst {
            // Loopback crosses nothing and dies with its node.
            return (!self.down_nodes.contains(&src)).then(Default::default);
        }
        self.table.route(self.table.rank(src)?, self.table.rank(dst)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_util::rng::SimRng;

    /// The derivation `route_flow` replaced: walk the node path, look up
    /// each hop's link by its endpoints, and rank every node but the last.
    fn derived(routes: &Routes, src: NodeId, dst: NodeId) -> Option<(Vec<LinkId>, Vec<u32>)> {
        if src == dst {
            return routes.node_is_up(src).then(Default::default);
        }
        let path = routes.table.path(src, dst)?;
        let links: Option<Vec<LinkId>> =
            path.windows(2).map(|w| routes.topo.find_link(w[0], w[1])).collect();
        let egress = path[..path.len() - 1].iter().filter_map(|&n| routes.table.rank(n)).collect();
        Some((links?, egress))
    }

    /// Every pair's route vectors equal the derivation's and hold no
    /// spare capacity.
    fn assert_route_vectors(routes: &Routes) {
        let nodes: Vec<NodeId> = routes.topo.nodes().collect();
        for &a in &nodes {
            for &b in &nodes {
                let got = routes.route_flow(a, b);
                assert_eq!(got, derived(routes, a, b), "route {a}->{b}");
                if let Some((links, egress)) = &got {
                    assert_eq!(links.capacity(), links.len(), "links {a}->{b}");
                    assert_eq!(egress.capacity(), egress.len(), "egress {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn route_vectors_match_the_path_derivation_and_are_sized_exactly() {
        assert_route_vectors(&Routes::new(Topology::grid(7, 5)).unwrap());

        let topo = Topology::random_geometric(40, 0.25, &mut SimRng::seed_from_u64(9));
        let ends: Vec<(NodeId, NodeId)> = topo.links().map(|(_, l)| (l.a, l.b)).collect();
        let mut routes = Routes::new(topo).unwrap();
        for &(a, b) in ends.iter().step_by(5) {
            routes.set_link_up(a, b, false).unwrap();
        }
        routes.set_node_up(NodeId(3), false).unwrap();
        assert!(ends.iter().any(|&(a, b)| routes.table.path(a, b).is_none()), "some pair is cut off");
        assert_route_vectors(&routes);
    }
}
