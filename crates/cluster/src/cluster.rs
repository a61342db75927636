//! Worker nodes, allocations, and component placements.

use bass_appdag::{ComponentId, ResourceReq};
use bass_mesh::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Static description of one worker node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// The node's identity (shared with the mesh layer).
    pub id: NodeId,
    /// Allocatable resources.
    pub capacity: ResourceReq,
}

impl NodeSpec {
    /// Creates a node spec.
    pub fn new(id: NodeId, capacity: ResourceReq) -> Self {
        NodeSpec { id, capacity }
    }

    /// Convenience: node with whole cores and MB of memory.
    pub fn cores_mb(id: u32, cores: u64, mb: u64) -> Self {
        NodeSpec {
            id: NodeId(id),
            capacity: ResourceReq::cores_mb(cores, mb),
        }
    }
}

/// A complete mapping of components to nodes.
pub type Placement = BTreeMap<ComponentId, NodeId>;

/// Errors mutating a [`Cluster`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The node is not part of the cluster.
    UnknownNode(NodeId),
    /// The component is not currently placed.
    NotPlaced(ComponentId),
    /// The component is already placed (evict it first).
    AlreadyPlaced(ComponentId, NodeId),
    /// The node lacks the CPU or memory to host the component.
    InsufficientResources {
        /// Target node.
        node: NodeId,
        /// What was requested.
        requested: ResourceReq,
        /// What was free.
        free: ResourceReq,
    },
    /// Two nodes were registered with the same id.
    DuplicateNode(NodeId),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownNode(n) => write!(f, "unknown node {n}"),
            ClusterError::NotPlaced(c) => write!(f, "component {c} is not placed"),
            ClusterError::AlreadyPlaced(c, n) => {
                write!(f, "component {c} is already placed on {n}")
            }
            ClusterError::InsufficientResources { node, requested, free } => write!(
                f,
                "node {node} cannot fit request ({requested}); free: {free}"
            ),
            ClusterError::DuplicateNode(n) => write!(f, "duplicate node {n}"),
        }
    }
}

impl Error for ClusterError {}

/// A set of worker nodes hosting the components of one application.
///
/// The cluster tracks, per node, the resources allocated to placed
/// components, and enforces CPU/memory as hard constraints — the same
/// guarantees a kubelet provides via requests.
///
/// # Examples
///
/// ```
/// use bass_appdag::{ComponentId, ResourceReq};
/// use bass_cluster::{Cluster, NodeSpec};
/// use bass_mesh::NodeId;
///
/// let mut cluster = Cluster::new(vec![NodeSpec::cores_mb(1, 4, 8192)])?;
/// cluster.place(ComponentId(1), ResourceReq::cores_mb(2, 1024), NodeId(1))?;
/// assert_eq!(cluster.node_of(ComponentId(1)), Some(NodeId(1)));
/// # Ok::<(), bass_cluster::ClusterError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    nodes: BTreeMap<NodeId, NodeSpec>,
    allocated: BTreeMap<NodeId, ResourceReq>,
    placements: BTreeMap<ComponentId, (NodeId, ResourceReq)>,
}

impl Cluster {
    /// Creates a cluster from node specs.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::DuplicateNode`] on repeated ids.
    pub fn new(specs: impl IntoIterator<Item = NodeSpec>) -> Result<Self, ClusterError> {
        let mut nodes = BTreeMap::new();
        let mut allocated = BTreeMap::new();
        for spec in specs {
            if nodes.insert(spec.id, spec).is_some() {
                return Err(ClusterError::DuplicateNode(spec.id));
            }
            allocated.insert(spec.id, ResourceReq::default());
        }
        Ok(Cluster {
            nodes,
            allocated,
            placements: BTreeMap::new(),
        })
    }

    /// Node ids in ascending order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The spec of a node.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for unknown ids.
    pub fn node_spec(&self, id: NodeId) -> Result<NodeSpec, ClusterError> {
        self.nodes
            .get(&id)
            .copied()
            .ok_or(ClusterError::UnknownNode(id))
    }

    /// Resources currently allocated on a node.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for unknown ids.
    fn allocated_on(&self, id: NodeId) -> Result<ResourceReq, ClusterError> {
        self.allocated
            .get(&id)
            .copied()
            .ok_or(ClusterError::UnknownNode(id))
    }

    /// Free resources on a node.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for unknown ids.
    pub fn free_on(&self, id: NodeId) -> Result<ResourceReq, ClusterError> {
        let spec = self.node_spec(id)?;
        let used = self.allocated_on(id)?;
        Ok(ResourceReq {
            cpu: spec.capacity.cpu.saturating_sub(used.cpu),
            memory: spec.capacity.memory.saturating_sub(used.memory),
        })
    }

    /// True when a component with `req` would fit on the node right now.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for unknown ids.
    pub fn fits(&self, id: NodeId, req: ResourceReq) -> Result<bool, ClusterError> {
        Ok(req.fits_within(self.free_on(id)?))
    }

    /// Places a component with the given resource request on a node.
    ///
    /// # Errors
    ///
    /// Fails when the node is unknown, the component is already placed,
    /// or the node lacks resources.
    pub fn place(
        &mut self,
        component: ComponentId,
        req: ResourceReq,
        node: NodeId,
    ) -> Result<(), ClusterError> {
        if let Some(&(existing, _)) = self.placements.get(&component) {
            return Err(ClusterError::AlreadyPlaced(component, existing));
        }
        let free = self.free_on(node)?;
        if !req.fits_within(free) {
            return Err(ClusterError::InsufficientResources {
                node,
                requested: req,
                free,
            });
        }
        let alloc = self.allocated.get_mut(&node).expect("node validated");
        *alloc = alloc.plus(req);
        self.placements.insert(component, (node, req));
        Ok(())
    }

    /// Evicts a component, freeing its resources. Returns the node it was
    /// on.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NotPlaced`] if the component is not placed.
    pub fn evict(&mut self, component: ComponentId) -> Result<NodeId, ClusterError> {
        let (node, req) = self
            .placements
            .remove(&component)
            .ok_or(ClusterError::NotPlaced(component))?;
        let alloc = self.allocated.get_mut(&node).expect("placement valid");
        alloc.cpu = alloc.cpu.saturating_sub(req.cpu);
        alloc.memory = alloc.memory.saturating_sub(req.memory);
        Ok(node)
    }

    /// Moves a component to another node atomically (evict + place; on
    /// placement failure the component is restored to its old node).
    ///
    /// # Errors
    ///
    /// Fails when the component is not placed or the target cannot host
    /// it; in both cases the cluster state is unchanged.
    pub fn relocate(&mut self, component: ComponentId, to: NodeId) -> Result<NodeId, ClusterError> {
        let (_, req) = *self
            .placements
            .get(&component)
            .ok_or(ClusterError::NotPlaced(component))?;
        let from = self.evict(component)?;
        match self.place(component, req, to) {
            Ok(()) => Ok(from),
            Err(e) => {
                self.place(component, req, from)
                    .expect("restoring previous placement cannot fail");
                Err(e)
            }
        }
    }

    /// The node hosting a component, if placed.
    pub fn node_of(&self, component: ComponentId) -> Option<NodeId> {
        self.placements.get(&component).map(|&(n, _)| n)
    }

    /// Components currently placed on a node, ascending by id.
    pub fn components_on(&self, node: NodeId) -> Vec<ComponentId> {
        self.placements
            .iter()
            .filter(|(_, &(n, _))| n == node)
            .map(|(&c, _)| c)
            .collect()
    }

    /// The full current placement.
    pub fn placement(&self) -> Placement {
        self.placements
            .iter()
            .map(|(&c, &(n, _))| (c, n))
            .collect()
    }

    /// Number of placed components.
    pub fn placed_count(&self) -> usize {
        self.placements.len()
    }

    /// Removes every placement (e.g. before a full redeploy).
    pub fn clear_placements(&mut self) {
        self.placements.clear();
        for alloc in self.allocated.values_mut() {
            *alloc = ResourceReq::default();
        }
    }

    /// A copy with its derived state, the per-node `allocated` sums,
    /// re-summed from its logical state, the nodes and the placements.
    pub fn rebuilt(&self) -> Cluster {
        let mut allocated: BTreeMap<NodeId, ResourceReq> =
            self.nodes.keys().map(|&n| (n, ResourceReq::default())).collect();
        for &(n, req) in self.placements.values() {
            let sum = allocated.entry(n).or_default();
            *sum = sum.plus(req);
        }
        Cluster { nodes: self.nodes.clone(), allocated, placements: self.placements.clone() }
    }

    /// Invariant check: per-node allocations equal the sums
    /// [`rebuilt`](Self::rebuilt) re-derives and never exceed capacity.
    /// Used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (&n, &sum) in &self.rebuilt().allocated {
            let spec = self.nodes.get(&n).ok_or_else(|| format!("placement on unknown node {n}"))?;
            let tracked = self.allocated.get(&n).copied().unwrap_or_default();
            if tracked != sum {
                return Err(format!("node {n}: tracked {tracked} != sum {sum}"));
            }
            if !sum.fits_within(spec.capacity) {
                return Err(format!("node {n} oversubscribed: {sum}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nodes() -> Cluster {
        Cluster::new(vec![
            NodeSpec::cores_mb(1, 4, 4096),
            NodeSpec::cores_mb(2, 8, 8192),
        ])
        .unwrap()
    }

    #[test]
    fn place_and_account() {
        let mut c = two_nodes();
        c.place(ComponentId(1), ResourceReq::cores_mb(2, 1024), NodeId(1))
            .unwrap();
        assert_eq!(c.free_on(NodeId(1)).unwrap(), ResourceReq::cores_mb(2, 3072));
        assert_eq!(c.node_of(ComponentId(1)), Some(NodeId(1)));
        assert_eq!(c.components_on(NodeId(1)), vec![ComponentId(1)]);
        c.check_invariants().unwrap();
    }

    #[test]
    fn rejects_oversubscription() {
        let mut c = two_nodes();
        let err = c
            .place(ComponentId(1), ResourceReq::cores_mb(5, 128), NodeId(1))
            .unwrap_err();
        assert!(matches!(err, ClusterError::InsufficientResources { .. }));
        // Memory axis too.
        assert!(c
            .place(ComponentId(1), ResourceReq::cores_mb(1, 9999), NodeId(1))
            .is_err());
        c.check_invariants().unwrap();
    }

    #[test]
    fn double_place_rejected() {
        let mut c = two_nodes();
        c.place(ComponentId(1), ResourceReq::cores_mb(1, 128), NodeId(1))
            .unwrap();
        assert_eq!(
            c.place(ComponentId(1), ResourceReq::cores_mb(1, 128), NodeId(2)),
            Err(ClusterError::AlreadyPlaced(ComponentId(1), NodeId(1)))
        );
    }

    #[test]
    fn evict_frees_resources() {
        let mut c = two_nodes();
        c.place(ComponentId(1), ResourceReq::cores_mb(2, 1024), NodeId(1))
            .unwrap();
        let from = c.evict(ComponentId(1)).unwrap();
        assert_eq!(from, NodeId(1));
        assert_eq!(c.free_on(NodeId(1)).unwrap(), ResourceReq::cores_mb(4, 4096));
        assert_eq!(c.evict(ComponentId(1)), Err(ClusterError::NotPlaced(ComponentId(1))));
        c.check_invariants().unwrap();
    }

    #[test]
    fn relocate_moves_component() {
        let mut c = two_nodes();
        c.place(ComponentId(1), ResourceReq::cores_mb(2, 1024), NodeId(1))
            .unwrap();
        let from = c.relocate(ComponentId(1), NodeId(2)).unwrap();
        assert_eq!(from, NodeId(1));
        assert_eq!(c.node_of(ComponentId(1)), Some(NodeId(2)));
        c.check_invariants().unwrap();
    }

    #[test]
    fn relocate_failure_restores_state() {
        let mut c = two_nodes();
        c.place(ComponentId(1), ResourceReq::cores_mb(4, 1024), NodeId(1))
            .unwrap();
        // Fill node 2 so the relocation target is full.
        c.place(ComponentId(2), ResourceReq::cores_mb(8, 1024), NodeId(2))
            .unwrap();
        let err = c.relocate(ComponentId(1), NodeId(2)).unwrap_err();
        assert!(matches!(err, ClusterError::InsufficientResources { .. }));
        assert_eq!(c.node_of(ComponentId(1)), Some(NodeId(1)));
        c.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_node_rejected() {
        let err = Cluster::new(vec![
            NodeSpec::cores_mb(1, 4, 1024),
            NodeSpec::cores_mb(1, 8, 1024),
        ])
        .unwrap_err();
        assert_eq!(err, ClusterError::DuplicateNode(NodeId(1)));
    }

    #[test]
    fn clear_placements_resets() {
        let mut c = two_nodes();
        c.place(ComponentId(1), ResourceReq::cores_mb(1, 128), NodeId(1))
            .unwrap();
        c.clear_placements();
        assert_eq!(c.placed_count(), 0);
        assert_eq!(c.free_on(NodeId(1)).unwrap(), ResourceReq::cores_mb(4, 4096));
    }

    #[test]
    fn tracked_sums_match_a_rebuild_through_every_mutation() {
        let mut rng = bass_util::rng::SimRng::seed_from_u64(0xC1A5);
        let mut c = Cluster::new((0..4).map(|i| NodeSpec::cores_mb(i, 8, 8192))).unwrap();
        for step in 0..2000 {
            let component = ComponentId(rng.below(12) as u32);
            let node = NodeId(rng.below(5) as u32); // node 4 is unknown
            let req = ResourceReq::cores_mb(1 + rng.below(4), 256 * (1 + rng.below(8)));
            // Failures (unknown node, no room, not placed) must leave
            // the sums as consistent as successes.
            let _ = match rng.below(20) {
                0 => {
                    c.clear_placements();
                    Ok(node)
                }
                1..=7 => c.place(component, req, node).map(|()| node),
                8..=13 => c.evict(component),
                _ => c.relocate(component, node),
            };
            assert_eq!(c.rebuilt(), c, "after step {step}");
            c.check_invariants().unwrap();
        }
        assert!(c.placed_count() > 0);
    }

    #[test]
    fn placement_snapshot() {
        let mut c = two_nodes();
        c.place(ComponentId(2), ResourceReq::cores_mb(1, 128), NodeId(1))
            .unwrap();
        c.place(ComponentId(1), ResourceReq::cores_mb(1, 128), NodeId(2))
            .unwrap();
        let p = c.placement();
        assert_eq!(p[&ComponentId(1)], NodeId(2));
        assert_eq!(p[&ComponentId(2)], NodeId(1));
    }
}
