//! The application component DAG.

use crate::component::{Component, ComponentId, ResourceReq};
use bass_util::units::Bandwidth;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Errors building or validating an [`AppDag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// A component id was used twice.
    DuplicateComponent(ComponentId),
    /// An edge referenced a component that does not exist.
    UnknownComponent(ComponentId),
    /// An edge from a component to itself.
    SelfEdge(ComponentId),
    /// The same (from, to) edge was added twice.
    DuplicateEdge(ComponentId, ComponentId),
    /// The graph contains a cycle (component dependencies must be a DAG).
    Cycle,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::DuplicateComponent(c) => write!(f, "duplicate component {c}"),
            DagError::UnknownComponent(c) => write!(f, "unknown component {c}"),
            DagError::SelfEdge(c) => write!(f, "self edge at {c}"),
            DagError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a}->{b}"),
            DagError::Cycle => write!(f, "component graph contains a cycle"),
        }
    }
}

impl Error for DagError {}

/// A directed edge: `from` sends data to `to` at up to `bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DagEdge {
    /// Producing component.
    pub from: ComponentId,
    /// Consuming component (a *dependency* of `from` in the paper's
    /// traversal terminology).
    pub to: ComponentId,
    /// Maximum bandwidth requirement between the two components.
    pub bandwidth: Bandwidth,
}

/// An application's component graph: components plus weighted directed
/// edges, guaranteed acyclic once validated.
///
/// # Examples
///
/// ```
/// use bass_appdag::{AppDag, Component, ComponentId, ResourceReq};
/// use bass_util::prelude::*;
///
/// let mut dag = AppDag::new("pipeline");
/// dag.add_component(Component::new(ComponentId(1), "src", ResourceReq::cores_mb(1, 128)))?;
/// dag.add_component(Component::new(ComponentId(2), "sink", ResourceReq::cores_mb(1, 128)))?;
/// dag.add_edge(ComponentId(1), ComponentId(2), Bandwidth::from_mbps(10.0))?;
/// assert_eq!(dag.topo_sort()?, vec![ComponentId(1), ComponentId(2)]);
/// # Ok::<(), bass_appdag::DagError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppDag {
    name: String,
    components: BTreeMap<ComponentId, Component>,
    edges: Vec<DagEdge>,
}

impl AppDag {
    /// Creates an empty DAG with an application name.
    pub fn new(name: impl Into<String>) -> Self {
        AppDag {
            name: name.into(),
            components: BTreeMap::new(),
            edges: Vec::new(),
        }
    }

    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a component.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::DuplicateComponent`] when the id is taken.
    pub fn add_component(&mut self, component: Component) -> Result<(), DagError> {
        let id = component.id;
        if self.components.contains_key(&id) {
            return Err(DagError::DuplicateComponent(id));
        }
        self.components.insert(id, component);
        Ok(())
    }

    /// Adds a directed edge with a bandwidth requirement.
    ///
    /// # Errors
    ///
    /// Returns an error for self-edges, unknown endpoints, duplicate
    /// edges, or edges that would create a cycle.
    pub fn add_edge(
        &mut self,
        from: ComponentId,
        to: ComponentId,
        bandwidth: Bandwidth,
    ) -> Result<(), DagError> {
        if from == to {
            return Err(DagError::SelfEdge(from));
        }
        for &c in &[from, to] {
            if !self.components.contains_key(&c) {
                return Err(DagError::UnknownComponent(c));
            }
        }
        if self.edges.iter().any(|e| e.from == from && e.to == to) {
            return Err(DagError::DuplicateEdge(from, to));
        }
        self.edges.push(DagEdge { from, to, bandwidth });
        if self.topo_sort().is_err() {
            self.edges.pop();
            return Err(DagError::Cycle);
        }
        Ok(())
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Iterates components in id order.
    pub fn components(&self) -> impl Iterator<Item = &Component> {
        self.components.values()
    }

    /// Iterates component ids in ascending order.
    pub fn component_ids(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.components.keys().copied()
    }

    /// Looks up a component.
    pub fn component(&self, id: ComponentId) -> Option<&Component> {
        self.components.get(&id)
    }

    /// Looks up a component by name.
    pub fn component_by_name(&self, name: &str) -> Option<&Component> {
        self.components.values().find(|c| c.name == name)
    }

    /// True when the component exists.
    pub fn contains(&self, id: ComponentId) -> bool {
        self.components.contains_key(&id)
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> &[DagEdge] {
        &self.edges
    }

    /// Outgoing edges of a component (its *dependencies* in the paper's
    /// traversal vocabulary), in insertion order.
    pub fn out_edges(&self, id: ComponentId) -> impl Iterator<Item = &DagEdge> {
        self.edges.iter().filter(move |e| e.from == id)
    }

    /// Incoming edges of a component.
    fn in_edges(&self, id: ComponentId) -> impl Iterator<Item = &DagEdge> {
        self.edges.iter().filter(move |e| e.to == id)
    }

    /// All components adjacent to `id` (either direction) with the edge
    /// bandwidth — the "dependencies" Algorithm 3 walks when deciding
    /// migrations (communication is what matters, not direction).
    pub fn neighbors(&self, id: ComponentId) -> Vec<(ComponentId, Bandwidth)> {
        let mut out: Vec<(ComponentId, Bandwidth)> = self
            .edges
            .iter()
            .filter_map(|e| {
                if e.from == id {
                    Some((e.to, e.bandwidth))
                } else if e.to == id {
                    Some((e.from, e.bandwidth))
                } else {
                    None
                }
            })
            .collect();
        out.sort_by_key(|n| n.0);
        out
    }

    /// The bandwidth of the edge between two components in either
    /// direction (summed if both directions exist), or zero when the
    /// components do not communicate.
    pub fn bandwidth_between(&self, a: ComponentId, b: ComponentId) -> Bandwidth {
        self.edges
            .iter()
            .filter(|e| (e.from == a && e.to == b) || (e.from == b && e.to == a))
            .map(|e| e.bandwidth)
            .sum()
    }

    /// Sum of all components' resource requests.
    pub fn total_resources(&self) -> ResourceReq {
        self.components
            .values()
            .fold(ResourceReq::default(), |acc, c| acc.plus(c.resources))
    }

    /// Sum of all edge bandwidth requirements.
    pub fn total_bandwidth(&self) -> Bandwidth {
        self.edges.iter().map(|e| e.bandwidth).sum()
    }

    /// Kahn topological sort with deterministic (ascending id) tie-break.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::Cycle`] when the graph is cyclic.
    pub fn topo_sort(&self) -> Result<Vec<ComponentId>, DagError> {
        let mut in_deg: BTreeMap<ComponentId, usize> =
            self.components.keys().map(|&c| (c, 0)).collect();
        for e in &self.edges {
            *in_deg.get_mut(&e.to).expect("edge endpoints validated") += 1;
        }
        // BTreeSet gives us "smallest id first" pops.
        let mut ready: BTreeSet<ComponentId> = in_deg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&c, _)| c)
            .collect();
        let mut order = Vec::with_capacity(self.components.len());
        while let Some(&next) = ready.iter().next() {
            ready.remove(&next);
            order.push(next);
            for e in self.edges.iter().filter(|e| e.from == next) {
                let d = in_deg.get_mut(&e.to).expect("validated");
                *d -= 1;
                if *d == 0 {
                    ready.insert(e.to);
                }
            }
        }
        if order.len() == self.components.len() {
            Ok(order)
        } else {
            Err(DagError::Cycle)
        }
    }

    /// Components with no incoming edges, ascending by id.
    pub fn roots(&self) -> Vec<ComponentId> {
        self.components
            .keys()
            .copied()
            .filter(|&c| self.in_edges(c).next().is_none())
            .collect()
    }

    /// Components with no outgoing edges, ascending by id.
    pub fn leaves(&self) -> Vec<ComponentId> {
        self.components
            .keys()
            .copied()
            .filter(|&c| self.out_edges(c).next().is_none())
            .collect()
    }

    /// The maximum out-degree across components — the "fan-out" the
    /// hybrid heuristic (§8) keys on.
    pub fn max_fan_out(&self) -> usize {
        self.components
            .keys()
            .map(|&c| self.out_edges(c).count())
            .max()
            .unwrap_or(0)
    }

    /// The longest chain length in edges (unweighted depth).
    ///
    /// # Errors
    ///
    /// Returns [`DagError::Cycle`] if the graph is cyclic.
    pub fn depth(&self) -> Result<usize, DagError> {
        let topo = self.topo_sort()?;
        let mut dist: BTreeMap<ComponentId, usize> =
            self.components.keys().map(|&c| (c, 0)).collect();
        let mut best = 0usize;
        for &v in &topo {
            let dv = dist[&v];
            best = best.max(dv);
            for e in self.out_edges(v) {
                let entry = dist.get_mut(&e.to).expect("validated");
                *entry = (*entry).max(dv + 1);
            }
        }
        Ok(best)
    }

    /// Copies every component and edge of `other` into this DAG with all
    /// component ids shifted by `id_offset` and names prefixed with
    /// `name_prefix` — how the scenario runner hosts many independent app
    /// instances in one deployment DAG without id collisions. Returns the
    /// new (offset) component ids in ascending order.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::DuplicateComponent`] when an offset id is
    /// already taken; nothing is modified in that case.
    pub fn absorb(
        &mut self,
        other: &AppDag,
        id_offset: u32,
        name_prefix: &str,
    ) -> Result<Vec<ComponentId>, DagError> {
        for id in other.component_ids() {
            let shifted = ComponentId(id.0 + id_offset);
            if self.components.contains_key(&shifted) {
                return Err(DagError::DuplicateComponent(shifted));
            }
        }
        let mut added = Vec::with_capacity(other.component_count());
        for c in other.components() {
            let shifted = ComponentId(c.id.0 + id_offset);
            let mut copy = c.clone();
            copy.id = shifted;
            copy.name = format!("{name_prefix}{}", c.name);
            self.components.insert(shifted, copy);
            added.push(shifted);
        }
        // `other` is acyclic and its ids are disjoint from ours, so the
        // shifted edges cannot create a cycle; push them directly.
        for e in other.edges() {
            self.edges.push(DagEdge {
                from: ComponentId(e.from.0 + id_offset),
                to: ComponentId(e.to.0 + id_offset),
                bandwidth: e.bandwidth,
            });
        }
        Ok(added)
    }

    /// Removes a component and every edge touching it. Returns `true` if
    /// the component existed. The inverse of [`AppDag::absorb`]: retiring
    /// an app instance removes its components one by one.
    pub fn remove_component(&mut self, id: ComponentId) -> bool {
        if self.components.remove(&id).is_none() {
            return false;
        }
        self.edges.retain(|e| e.from != id && e.to != id);
        true
    }

    /// Graphviz DOT rendering (for documentation and debugging).
    pub fn to_dot(&self) -> String {
        let mut out = format!("digraph \"{}\" {{\n", self.name);
        for c in self.components.values() {
            out.push_str(&format!(
                "  {} [label=\"{}\\n{}\"];\n",
                c.id.0, c.name, c.resources
            ));
        }
        for e in &self.edges {
            out.push_str(&format!(
                "  {} -> {} [label=\"{}\"];\n",
                e.from.0,
                e.to.0,
                e.bandwidth
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp(id: u32) -> Component {
        Component::new(
            ComponentId(id),
            format!("c{id}"),
            ResourceReq::cores_mb(1, 128),
        )
    }

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    fn diamond() -> AppDag {
        // 1 -> {2, 3} -> 4
        let mut dag = AppDag::new("diamond");
        for i in 1..=4 {
            dag.add_component(comp(i)).unwrap();
        }
        dag.add_edge(ComponentId(1), ComponentId(2), mbps(5.0)).unwrap();
        dag.add_edge(ComponentId(1), ComponentId(3), mbps(3.0)).unwrap();
        dag.add_edge(ComponentId(2), ComponentId(4), mbps(2.0)).unwrap();
        dag.add_edge(ComponentId(3), ComponentId(4), mbps(1.0)).unwrap();
        dag
    }

    #[test]
    fn build_and_query() {
        let dag = diamond();
        assert_eq!(dag.component_count(), 4);
        assert_eq!(dag.edges().len(), 4);
        assert_eq!(dag.roots(), vec![ComponentId(1)]);
        assert_eq!(dag.leaves(), vec![ComponentId(4)]);
        assert_eq!(dag.out_edges(ComponentId(1)).count(), 2);
        assert_eq!(dag.in_edges(ComponentId(4)).count(), 2);
        assert_eq!(dag.component_by_name("c2").unwrap().id, ComponentId(2));
    }

    #[test]
    fn topo_sort_respects_edges() {
        let dag = diamond();
        let order = dag.topo_sort().unwrap();
        let pos = |c: u32| order.iter().position(|&x| x == ComponentId(c)).unwrap();
        for e in dag.edges() {
            assert!(pos(e.from.0) < pos(e.to.0));
        }
        // Deterministic tie-break: 2 before 3.
        assert_eq!(order, vec![ComponentId(1), ComponentId(2), ComponentId(3), ComponentId(4)]);
    }

    #[test]
    fn cycle_rejected_and_rolled_back() {
        let mut dag = diamond();
        let e = dag.add_edge(ComponentId(4), ComponentId(1), mbps(1.0));
        assert_eq!(e, Err(DagError::Cycle));
        // Edge must have been rolled back.
        assert_eq!(dag.edges().len(), 4);
        assert!(dag.topo_sort().is_ok());
    }

    #[test]
    fn error_cases() {
        let mut dag = AppDag::new("e");
        dag.add_component(comp(1)).unwrap();
        assert_eq!(dag.add_component(comp(1)), Err(DagError::DuplicateComponent(ComponentId(1))));
        assert_eq!(
            dag.add_edge(ComponentId(1), ComponentId(1), mbps(1.0)),
            Err(DagError::SelfEdge(ComponentId(1)))
        );
        assert_eq!(
            dag.add_edge(ComponentId(1), ComponentId(9), mbps(1.0)),
            Err(DagError::UnknownComponent(ComponentId(9)))
        );
        dag.add_component(comp(2)).unwrap();
        dag.add_edge(ComponentId(1), ComponentId(2), mbps(1.0)).unwrap();
        assert_eq!(
            dag.add_edge(ComponentId(1), ComponentId(2), mbps(2.0)),
            Err(DagError::DuplicateEdge(ComponentId(1), ComponentId(2)))
        );
    }

    #[test]
    fn neighbors_are_bidirectional() {
        let dag = diamond();
        let n2 = dag.neighbors(ComponentId(2));
        assert_eq!(n2.len(), 2);
        assert_eq!(n2[0].0, ComponentId(1));
        assert_eq!(n2[1].0, ComponentId(4));
    }

    #[test]
    fn bandwidth_between_either_direction() {
        let dag = diamond();
        assert_eq!(dag.bandwidth_between(ComponentId(1), ComponentId(2)), mbps(5.0));
        assert_eq!(dag.bandwidth_between(ComponentId(2), ComponentId(1)), mbps(5.0));
        assert_eq!(dag.bandwidth_between(ComponentId(2), ComponentId(3)), Bandwidth::ZERO);
    }

    #[test]
    fn totals() {
        let dag = diamond();
        assert_eq!(dag.total_resources().cpu.as_cores(), 4.0);
        assert!((dag.total_bandwidth().as_mbps() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn shape_analysis() {
        let dag = diamond();
        assert_eq!(dag.max_fan_out(), 2);
        assert_eq!(dag.depth().unwrap(), 2);
        let empty = AppDag::new("e");
        assert_eq!(empty.max_fan_out(), 0);
        assert_eq!(empty.depth().unwrap(), 0);
    }

    #[test]
    fn catalog_shapes_match_their_heuristic_affinity() {
        use crate::catalog;
        // The camera pipeline is deep and narrow; the social network has
        // the frontend fan-out the BFS heuristic targets.
        let camera = catalog::camera_pipeline();
        assert_eq!(camera.depth().unwrap(), 3);
        assert_eq!(camera.max_fan_out(), 2);
        let social = catalog::social_network(50.0);
        assert!(social.max_fan_out() >= 5, "{}", social.max_fan_out());
        assert!(social.depth().unwrap() >= 3);
    }

    #[test]
    fn absorb_offsets_ids_and_prefixes_names() {
        let mut host = diamond();
        let ids = host.absorb(&diamond(), 100, "app2/").unwrap();
        assert_eq!(
            ids,
            vec![ComponentId(101), ComponentId(102), ComponentId(103), ComponentId(104)]
        );
        assert_eq!(host.component_count(), 8);
        assert_eq!(host.edges().len(), 8);
        assert!(host.topo_sort().is_ok());
        assert_eq!(host.component(ComponentId(102)).unwrap().name, "app2/c2");
        assert_eq!(
            host.bandwidth_between(ComponentId(101), ComponentId(102)),
            mbps(5.0)
        );
        // Colliding offset refuses and leaves the host untouched.
        assert_eq!(
            host.absorb(&diamond(), 100, "x/"),
            Err(DagError::DuplicateComponent(ComponentId(101)))
        );
        assert_eq!(host.component_count(), 8);
    }

    #[test]
    fn remove_component_drops_incident_edges() {
        let mut dag = diamond();
        assert!(dag.remove_component(ComponentId(2)));
        assert!(!dag.remove_component(ComponentId(2)));
        assert_eq!(dag.component_count(), 3);
        // Edges 1→2 and 2→4 are gone; 1→3 and 3→4 remain.
        assert_eq!(dag.edges().len(), 2);
        assert!(dag.topo_sort().is_ok());
    }

    #[test]
    fn dot_contains_all_elements() {
        let dot = diamond().to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("1 -> 2"));
        assert!(dot.contains("c4"));
    }

    #[test]
    fn serde_roundtrip() {
        let dag = diamond();
        let json = serde_json::to_string(&dag).unwrap();
        let back: AppDag = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dag);
    }
}
