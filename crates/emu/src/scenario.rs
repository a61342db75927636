//! Timed network actions: the simulated equivalent of running `tc` from
//! an experiment script.

use bass_mesh::{Mesh, MeshError, NodeId};
use bass_util::time::SimTime;
use bass_util::units::Bandwidth;
use serde::{Deserialize, Serialize};

/// One network manipulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Action {
    /// Cap (or, with `None`, uncap) the link between two nodes.
    CapLink {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// The cap; `None` removes shaping.
        cap: Option<Bandwidth>,
    },
    /// Cap (or uncap) a node's total outgoing traffic.
    CapNodeEgress {
        /// The node whose egress is shaped.
        node: NodeId,
        /// The cap; `None` removes shaping.
        cap: Option<Bandwidth>,
    },
}

/// A time-ordered script of actions.
///
/// # Examples
///
/// ```
/// use bass_emu::{Action, Scenario};
/// use bass_mesh::NodeId;
/// use bass_util::prelude::*;
///
/// // Fig. 13's scenario: throttle two nodes 10 s in, lift after 3 min.
/// let scenario = Scenario::new()
///     .at(SimTime::from_secs(10), Action::CapNodeEgress {
///         node: NodeId(2),
///         cap: Some(Bandwidth::from_mbps(25.0)),
///     })
///     .at(SimTime::from_secs(190), Action::CapNodeEgress {
///         node: NodeId(2),
///         cap: None,
///     });
/// assert_eq!(scenario.remaining(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Scenario {
    /// `(due time, action)` pairs; kept sorted by time.
    actions: Vec<(SimTime, Action)>,
    /// Index of the next action to apply.
    cursor: usize,
}

impl Scenario {
    /// An empty scenario.
    pub fn new() -> Self {
        Scenario::default()
    }

    /// Adds an action at `t` (actions may be added in any order).
    pub fn at(mut self, t: SimTime, action: Action) -> Self {
        let idx = self.actions.partition_point(|&(at, _)| at <= t);
        self.actions.insert(idx, (t, action));
        self
    }

    /// Convenience: restrict then restore a node's egress (the paper's
    /// favourite manipulation).
    pub fn restrict_node_egress(
        self,
        node: NodeId,
        from: SimTime,
        until: SimTime,
        cap: Bandwidth,
    ) -> Self {
        self.at(from, Action::CapNodeEgress { node, cap: Some(cap) })
            .at(until, Action::CapNodeEgress { node, cap: None })
    }

    /// Number of actions not yet applied.
    pub fn remaining(&self) -> usize {
        self.actions.len() - self.cursor
    }

    /// Due time of the next unapplied action, or `None` when the script
    /// is exhausted. Never advances the cursor — the peek an
    /// event-driven scheduler uses to bound a time skip.
    pub fn next_at(&self) -> Option<SimTime> {
        self.actions.get(self.cursor).map(|&(t, _)| t)
    }

    /// Applies every action due at or before `now`.
    ///
    /// # Errors
    ///
    /// Propagates mesh errors (unknown node/link), leaving the cursor
    /// *after* the failing action so a bad entry cannot wedge the run.
    pub(crate) fn apply_due(&mut self, mesh: &mut Mesh, now: SimTime) -> Result<(), MeshError> {
        while self.cursor < self.actions.len() && self.actions[self.cursor].0 <= now {
            let (_, action) = self.actions[self.cursor];
            self.cursor += 1;
            match action {
                Action::CapLink { a, b, cap } => mesh.set_link_cap(a, b, cap)?,
                Action::CapNodeEgress { node, cap } => mesh.set_node_egress_cap(node, cap)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_mesh::Topology;
    use bass_util::time::SimDuration;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    #[test]
    fn applies_in_time_order() {
        let mut mesh =
            Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap();
        let mut s = Scenario::new()
            .at(SimTime::from_secs(20), Action::CapLink { a: NodeId(0), b: NodeId(1), cap: None })
            .at(
                SimTime::from_secs(10),
                Action::CapLink { a: NodeId(0), b: NodeId(1), cap: Some(mbps(5.0)) },
            );
        s.apply_due(&mut mesh, SimTime::from_secs(5)).unwrap();
        assert_eq!(mesh.link_capacity(NodeId(0), NodeId(1)).unwrap(), mbps(100.0));
        assert_eq!(s.remaining(), 2);
        assert_eq!(s.next_at(), Some(SimTime::from_secs(10)));
        mesh.advance(SimDuration::from_secs(10)); // now = 10
        let now = mesh.now();
        s.apply_due(&mut mesh, now).unwrap();
        assert_eq!(mesh.link_capacity(NodeId(0), NodeId(1)).unwrap(), mbps(5.0));
        assert_eq!(s.remaining(), 1);
        mesh.advance(SimDuration::from_secs(10)); // now = 20
        let now = mesh.now();
        s.apply_due(&mut mesh, now).unwrap();
        assert_eq!(mesh.link_capacity(NodeId(0), NodeId(1)).unwrap(), mbps(100.0));
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.next_at(), None);
    }

    #[test]
    fn node_egress_restriction_window() {
        let mut mesh =
            Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap();
        let f = mesh.add_flow(NodeId(2), NodeId(0), mbps(50.0)).unwrap();
        let mut s = Scenario::new().restrict_node_egress(
            NodeId(2),
            SimTime::from_secs(10),
            SimTime::from_secs(190),
            mbps(25.0),
        );
        mesh.advance(SimDuration::from_secs(15));
        let now = mesh.now();
        s.apply_due(&mut mesh, now).unwrap();
        mesh.advance(SimDuration::from_secs(1));
        assert_eq!(mesh.flow_rate(f), mbps(25.0));
        mesh.advance(SimDuration::from_secs(180)); // past 190
        let now = mesh.now();
        s.apply_due(&mut mesh, now).unwrap();
        mesh.advance(SimDuration::from_secs(1));
        // The allocation may exceed the demand while the backlog built
        // up during the restriction drains; goodput is back at demand.
        assert_eq!(mesh.flow_goodput(f), mbps(50.0));
        assert!(mesh.flow_rate(f) >= mbps(50.0));
    }

    #[test]
    fn bad_action_does_not_wedge() {
        let mut mesh =
            Mesh::with_uniform_capacity(Topology::full_mesh(2), mbps(100.0)).unwrap();
        let mut s = Scenario::new()
            .at(SimTime::from_secs(1), Action::CapNodeEgress { node: NodeId(9), cap: None })
            .at(
                SimTime::from_secs(1),
                Action::CapLink { a: NodeId(0), b: NodeId(1), cap: Some(mbps(1.0)) },
            );
        assert!(s.apply_due(&mut mesh, SimTime::from_secs(2)).is_err());
        // The bad action was consumed; the next apply applies the rest.
        s.apply_due(&mut mesh, SimTime::from_secs(2)).unwrap();
        assert_eq!(mesh.link_capacity(NodeId(0), NodeId(1)).unwrap(), mbps(1.0));
        assert_eq!(s.remaining(), 0);
    }
}
