//! Mesh topology: nodes and undirected wireless links.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Identifier of a mesh node.
///
/// Node ids are names chosen by the caller (the paper numbers its nodes
/// 1–4 with node 0 hosting the control plane), not sizes: nothing is
/// allocated by the largest id, only by how many nodes there are.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Index of a link within a [`Topology`] (dense, assigned in insertion
/// order).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct LinkId(pub usize);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// An undirected link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    /// Lower-numbered endpoint.
    pub a: NodeId,
    /// Higher-numbered endpoint.
    pub b: NodeId,
}

/// Errors constructing or mutating a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A link referenced a node that was never added.
    UnknownNode(NodeId),
    /// Self-loops are not allowed.
    SelfLoop(NodeId),
    /// The link already exists.
    DuplicateLink(NodeId, NodeId),
    /// The node already exists.
    DuplicateNode(NodeId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::SelfLoop(n) => write!(f, "self loop at {n}"),
            TopologyError::DuplicateLink(a, b) => write!(f, "duplicate link {a}-{b}"),
            TopologyError::DuplicateNode(n) => write!(f, "duplicate node {n}"),
        }
    }
}

impl Error for TopologyError {}

/// An undirected multigraph-free mesh topology.
///
/// # Examples
///
/// ```
/// use bass_mesh::topology::{NodeId, Topology};
///
/// let mut topo = Topology::new();
/// for i in 0..3 {
///     topo.add_node(NodeId(i))?;
/// }
/// topo.add_link(NodeId(0), NodeId(1))?;
/// topo.add_link(NodeId(1), NodeId(2))?;
/// assert!(topo.is_connected());
/// # Ok::<(), bass_mesh::topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Topology {
    nodes: BTreeSet<NodeId>,
    links: Vec<Link>,
    /// Per-node adjacency, each list ascending by neighbor id. Routing
    /// reads these for every table it computes, so they must stay in
    /// sync with `links` (see [`Topology::index_link`]).
    adj: BTreeMap<NodeId, Vec<(NodeId, LinkId)>>,
}

// The wire format carries only `nodes` and `links` (the same shape the
// struct serialized as before the adjacency existed); the adjacency is
// derived data and is rebuilt on deserialization.
impl Serialize for Topology {
    fn serialize(&self) -> serde::Content {
        serde::Content::Map(vec![
            (String::from("nodes"), Serialize::serialize(&self.nodes)),
            (String::from("links"), Serialize::serialize(&self.links)),
        ])
    }
}

impl Deserialize for Topology {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::DeError> {
        let map = content
            .as_map()
            .ok_or_else(|| serde::DeError::expected("map", "Topology"))?;
        let nodes: BTreeSet<NodeId> = match serde::content_get(map, "nodes") {
            Some(c) => Deserialize::deserialize(c)?,
            None => return Err(serde::DeError::missing_field("nodes", "Topology")),
        };
        let links: Vec<Link> = match serde::content_get(map, "links") {
            Some(c) => Deserialize::deserialize(c)?,
            None => return Err(serde::DeError::missing_field("links", "Topology")),
        };
        let mut topo = Topology { nodes, ..Topology::default() };
        for n in topo.nodes.clone() {
            topo.adj.insert(n, Vec::new());
        }
        for link in links {
            topo.index_link(link.a, link.b);
        }
        Ok(topo)
    }
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Builds a fully connected topology over `n` nodes (ids `0..n`) —
    /// the shape of the paper's bridged-LAN microbenchmark clusters.
    pub fn full_mesh(n: u32) -> Self {
        let mut topo = Topology::new();
        for i in 0..n {
            topo.add_node(NodeId(i)).expect("fresh node");
        }
        for i in 0..n {
            for j in (i + 1)..n {
                topo.add_link(NodeId(i), NodeId(j)).expect("fresh link");
            }
        }
        topo
    }

    /// Adds a node.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DuplicateNode`] if the id is taken.
    pub fn add_node(&mut self, id: NodeId) -> Result<(), TopologyError> {
        if !self.nodes.insert(id) {
            return Err(TopologyError::DuplicateNode(id));
        }
        self.adj.insert(id, Vec::new());
        Ok(())
    }

    /// Appends a (normalized) link and threads it through the adjacency.
    /// Callers validate endpoints and uniqueness first.
    fn index_link(&mut self, a: NodeId, b: NodeId) -> LinkId {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let id = LinkId(self.links.len());
        self.links.push(Link { a: lo, b: hi });
        for (n, other) in [(lo, hi), (hi, lo)] {
            let list = self.adj.entry(n).or_default();
            let at = list.partition_point(|&(nb, _)| nb < other);
            list.insert(at, (other, id));
        }
        id
    }

    /// Adds an undirected link between two existing nodes.
    ///
    /// # Errors
    ///
    /// Returns an error for self-loops, unknown endpoints, or duplicates.
    pub fn add_link(&mut self, a: NodeId, b: NodeId) -> Result<LinkId, TopologyError> {
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        for &n in &[a, b] {
            if !self.nodes.contains(&n) {
                return Err(TopologyError::UnknownNode(n));
            }
        }
        if self.find_link(a, b).is_some() {
            return Err(TopologyError::DuplicateLink(a, b));
        }
        Ok(self.index_link(a, b))
    }

    /// All node ids in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// True if the node exists.
    pub fn contains_node(&self, n: NodeId) -> bool {
        self.nodes.contains(&n)
    }

    /// All links with their ids, in insertion order.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, Link)> + '_ {
        self.links.iter().enumerate().map(|(i, &l)| (LinkId(i), l))
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The link between `a` and `b` (order-insensitive), if any.
    pub fn find_link(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        let nbrs = self.neighbor_links(a);
        nbrs.binary_search_by_key(&b, |&(nb, _)| nb).ok().map(|at| nbrs[at].1)
    }

    /// The link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn link(&self, id: LinkId) -> Link {
        self.links[id.0]
    }

    /// Neighbors of a node in ascending id order.
    pub fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        self.neighbor_links(n).iter().map(|&(nb, _)| nb).collect()
    }

    /// Neighbors of a node with the connecting link, ascending by
    /// neighbor id. The allocation-free counterpart of
    /// [`neighbors`](Self::neighbors) + [`find_link`](Self::find_link)
    /// that routing builds its adjacency from.
    pub fn neighbor_links(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        self.adj.get(&n).map_or(&[], Vec::as_slice)
    }

    /// Links incident to a node, in ascending link-id order.
    pub(crate) fn incident_links(&self, n: NodeId) -> Vec<LinkId> {
        let mut out: Vec<LinkId> =
            self.neighbor_links(n).iter().map(|&(_, lid)| lid).collect();
        out.sort_unstable();
        out
    }

    /// Builds a `width × height` grid: node `y * width + x` links to its
    /// right and down neighbors. The natural shape of a planned city-block
    /// deployment where each rooftop router only reaches its four
    /// immediate neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `height == 0`.
    pub fn grid(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "grid needs positive dimensions");
        let mut topo = Topology::new();
        for i in 0..width * height {
            topo.add_node(NodeId(i)).expect("fresh node");
        }
        for y in 0..height {
            for x in 0..width {
                let n = y * width + x;
                if x + 1 < width {
                    topo.add_link(NodeId(n), NodeId(n + 1)).expect("fresh link");
                }
                if y + 1 < height {
                    topo.add_link(NodeId(n), NodeId(n + width)).expect("fresh link");
                }
            }
        }
        topo
    }

    /// Builds a hub-and-spoke mesh: `hubs` backbone nodes (ids
    /// `0..hubs`) fully meshed with each other, plus `leaves_per_hub`
    /// leaf nodes hanging off every hub — the shape of a community mesh
    /// where a few well-placed gateways carry the backbone and houses
    /// associate to the nearest one.
    ///
    /// # Panics
    ///
    /// Panics if `hubs == 0`.
    pub fn hub_and_spoke(hubs: u32, leaves_per_hub: u32) -> Self {
        assert!(hubs > 0, "need at least one hub");
        let mut topo = Topology::new();
        for i in 0..hubs * (1 + leaves_per_hub) {
            topo.add_node(NodeId(i)).expect("fresh node");
        }
        for a in 0..hubs {
            for b in (a + 1)..hubs {
                topo.add_link(NodeId(a), NodeId(b)).expect("fresh link");
            }
        }
        for hub in 0..hubs {
            for leaf in 0..leaves_per_hub {
                let id = hubs + hub * leaves_per_hub + leaf;
                topo.add_link(NodeId(hub), NodeId(id)).expect("fresh link");
            }
        }
        topo
    }

    /// Builds a random-geometric mesh: `n` nodes dropped uniformly on the
    /// unit square, linked when within `radius` of each other — the
    /// standard generative model for organically grown community Wi-Fi
    /// deployments. Drawn deterministically from `rng`; if the radius
    /// leaves the graph partitioned, the closest pair of nodes across
    /// each partition boundary is bridged (a directional antenna link)
    /// so the result is always connected.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `radius` is not positive.
    pub fn random_geometric(
        n: u32,
        radius: f64,
        rng: &mut bass_util::rng::SimRng,
    ) -> Self {
        assert!(n > 0, "need at least one node");
        assert!(radius > 0.0, "radius must be positive");
        let mut topo = Topology::new();
        let mut pos = Vec::with_capacity(n as usize);
        for i in 0..n {
            topo.add_node(NodeId(i)).expect("fresh node");
            pos.push((rng.next_f64(), rng.next_f64()));
        }
        let dist2 = |a: usize, b: usize| -> f64 {
            let (ax, ay) = pos[a];
            let (bx, by) = pos[b];
            (ax - bx).powi(2) + (ay - by).powi(2)
        };
        let r2 = radius * radius;
        for a in 0..n as usize {
            for b in (a + 1)..n as usize {
                if dist2(a, b) <= r2 {
                    topo.add_link(NodeId(a as u32), NodeId(b as u32)).expect("fresh link");
                }
            }
        }
        // Bridge partitions deterministically: while disconnected, link
        // the closest (component-of-node-0, rest) pair, ties broken by
        // lowest ids.
        while !topo.is_connected() {
            let mut seen = BTreeSet::new();
            let mut stack = vec![NodeId(0)];
            seen.insert(NodeId(0));
            while let Some(v) = stack.pop() {
                for nb in topo.neighbors(v) {
                    if seen.insert(nb) {
                        stack.push(nb);
                    }
                }
            }
            let mut best: Option<(f64, NodeId, NodeId)> = None;
            for a in topo.nodes().filter(|a| seen.contains(a)) {
                for b in topo.nodes().filter(|b| !seen.contains(b)) {
                    let d = dist2(a.0 as usize, b.0 as usize);
                    let better = match best {
                        None => true,
                        Some((bd, ba, bb)) => {
                            d < bd - 1e-15 || ((d - bd).abs() <= 1e-15 && (a, b) < (ba, bb))
                        }
                    };
                    if better {
                        best = Some((d, a, b));
                    }
                }
            }
            let (_, a, b) = best.expect("disconnected graph has a crossing pair");
            topo.add_link(a, b).expect("crossing pair is unlinked");
        }
        topo
    }

    /// True when every node can reach every other node. An empty topology
    /// counts as connected.
    pub fn is_connected(&self) -> bool {
        let Some(&start) = self.nodes.iter().next() else {
            return true;
        };
        let mut seen = BTreeSet::new();
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(n) = stack.pop() {
            for nb in self.neighbors(n) {
                if seen.insert(nb) {
                    stack.push(nb);
                }
            }
        }
        seen.len() == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut topo = Topology::new();
        topo.add_node(NodeId(1)).unwrap();
        topo.add_node(NodeId(2)).unwrap();
        topo.add_node(NodeId(3)).unwrap();
        let l = topo.add_link(NodeId(2), NodeId(1)).unwrap();
        assert_eq!(topo.link(l), Link { a: NodeId(1), b: NodeId(2) });
        assert_eq!(topo.find_link(NodeId(1), NodeId(2)), Some(l));
        assert_eq!(topo.find_link(NodeId(2), NodeId(1)), Some(l));
        assert_eq!(topo.find_link(NodeId(1), NodeId(3)), None);
        assert_eq!(topo.neighbors(NodeId(1)), vec![NodeId(2)]);
        assert_eq!(topo.node_count(), 3);
        assert_eq!(topo.link_count(), 1);
    }

    #[test]
    fn grid_shape() {
        let topo = Topology::grid(3, 2);
        assert_eq!(topo.node_count(), 6);
        // 2 rows of 2 horizontal links + 3 vertical links.
        assert_eq!(topo.link_count(), 2 * 2 + 3);
        assert!(topo.is_connected());
        // Corner node 0 has exactly right + down neighbors.
        assert_eq!(topo.neighbors(NodeId(0)), vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn hub_and_spoke_shape() {
        let topo = Topology::hub_and_spoke(3, 4);
        assert_eq!(topo.node_count(), 3 * 5);
        // Hub backbone 3 links + 12 leaf links.
        assert_eq!(topo.link_count(), 3 + 12);
        assert!(topo.is_connected());
        // Leaves have exactly one neighbor: their hub.
        assert_eq!(topo.neighbors(NodeId(3)), vec![NodeId(0)]);
        assert_eq!(topo.neighbors(NodeId(14)), vec![NodeId(2)]);
    }

    #[test]
    fn random_geometric_connected_and_deterministic() {
        let mut rng = bass_util::rng::SimRng::seed_from_u64(7);
        let topo = Topology::random_geometric(60, 0.08, &mut rng);
        assert_eq!(topo.node_count(), 60);
        // Radius 0.08 on 60 nodes leaves partitions; bridging must fix them.
        assert!(topo.is_connected());
        let mut rng2 = bass_util::rng::SimRng::seed_from_u64(7);
        let topo2 = Topology::random_geometric(60, 0.08, &mut rng2);
        assert_eq!(topo, topo2);
    }

    #[test]
    fn error_cases() {
        let mut topo = Topology::new();
        topo.add_node(NodeId(1)).unwrap();
        assert_eq!(
            topo.add_node(NodeId(1)),
            Err(TopologyError::DuplicateNode(NodeId(1)))
        );
        assert_eq!(
            topo.add_link(NodeId(1), NodeId(1)),
            Err(TopologyError::SelfLoop(NodeId(1)))
        );
        assert_eq!(
            topo.add_link(NodeId(1), NodeId(9)),
            Err(TopologyError::UnknownNode(NodeId(9)))
        );
        topo.add_node(NodeId(2)).unwrap();
        topo.add_link(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(
            topo.add_link(NodeId(2), NodeId(1)),
            Err(TopologyError::DuplicateLink(NodeId(2), NodeId(1)))
        );
    }

    #[test]
    fn full_mesh_shape() {
        let topo = Topology::full_mesh(4);
        assert_eq!(topo.node_count(), 4);
        assert_eq!(topo.link_count(), 6);
        assert!(topo.is_connected());
        assert_eq!(topo.neighbors(NodeId(0)).len(), 3);
    }

    #[test]
    fn connectivity() {
        let mut topo = Topology::new();
        assert!(topo.is_connected());
        topo.add_node(NodeId(0)).unwrap();
        topo.add_node(NodeId(1)).unwrap();
        assert!(!topo.is_connected());
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        assert!(topo.is_connected());
        topo.add_node(NodeId(2)).unwrap();
        assert!(!topo.is_connected());
    }

    #[test]
    fn incident_links() {
        let topo = Topology::full_mesh(3);
        let incident = topo.incident_links(NodeId(0));
        assert_eq!(incident.len(), 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(LinkId(2).to_string(), "l2");
    }
}
