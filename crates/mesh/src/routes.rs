//! The route part of [`Mesh`](crate::Mesh): the topology, which nodes
//! and links faults have taken down, and the min-hop routes over what
//! is left.
//!
//! Invariant: `table` is always
//! `RoutingTable::compute_filtered(&topo, |l| usable(l))`. The up/down
//! setters recompute it themselves before they return, so no caller can
//! observe a table that disagrees with the fault state.

use crate::mesh::MeshError;
use crate::routing::RoutingTable;
use crate::topology::{LinkId, NodeId, Topology};
use std::collections::BTreeSet;

/// Topology, fault state and routing table.
///
/// Logical: `topo`, `down_nodes`, `down_links`. Derived: `table`.
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
        Ok(Routes { topo, down_nodes: BTreeSet::new(), down_links: BTreeSet::new(), table })
    }

    /// The topology.
    pub(crate) fn topo(&self) -> &Topology {
        &self.topo
    }

    /// The node's [`RoutingTable::rank`].
    pub(crate) fn rank(&self, node: NodeId) -> Option<u32> {
        self.table.rank(node)
    }

    /// The routed node path from `src` to `dst`, if any.
    pub(crate) fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        self.table.path(src, dst)
    }

    /// The link between `a` and `b`.
    pub(crate) fn link(&self, a: NodeId, b: NodeId) -> Result<LinkId, MeshError> {
        self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))
    }

    /// Marks a node up or down and recomputes the table if that changed
    /// anything; true when it did.
    pub(crate) fn set_node_up(&mut self, node: NodeId, up: bool) -> Result<bool, MeshError> {
        if !self.topo.contains_node(node) {
            return Err(MeshError::UnknownNode(node));
        }
        let changed = mark(&mut self.down_nodes, node, up);
        Ok(self.recompute_if(changed))
    }

    /// Marks the link between `a` and `b` up or down and recomputes the
    /// table if that changed anything; true when it did.
    pub(crate) fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) -> Result<bool, MeshError> {
        let lid = self.link(a, b)?;
        let changed = mark(&mut self.down_links, lid, up);
        Ok(self.recompute_if(changed))
    }

    fn recompute_if(&mut self, changed: bool) -> bool {
        if changed {
            self.table = RoutingTable::compute_filtered(&self.topo, |lid| self.usable(lid));
        }
        changed
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
    /// the ranks of the nodes whose egress it consumes, or `None` when no
    /// usable route exists.
    pub(crate) fn route_flow(&self, src: NodeId, dst: NodeId) -> Option<(Vec<LinkId>, Vec<u32>)> {
        if src == dst {
            // Loopback crosses nothing and dies with its node.
            return (!self.down_nodes.contains(&src)).then(Default::default);
        }
        let path = self.table.path(src, dst)?;
        let links: Option<_> = path.windows(2).map(|w| self.topo.find_link(w[0], w[1])).collect();
        let egress = path[..path.len() - 1].iter().filter_map(|&n| self.table.rank(n)).collect();
        Some((links?, egress))
    }
}
