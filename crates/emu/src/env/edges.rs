//! How the deployment's DAG edges ride the mesh, and the restart clocks
//! that gate their demand.

use super::EdgeState;
use bass_appdag::{AppDag, ComponentId};
use bass_cluster::{Cluster, RestartModel};
use bass_mesh::{Mesh, MeshError};
use bass_netmon::{EdgeUsage, GoodputView};
use bass_util::time::{SimDuration, SimTime};
use bass_util::units::Bandwidth;
use std::collections::BTreeMap;

type Key = (ComponentId, ComponentId);

/// One bound DAG edge: how it is realized, and its declared requirement
/// (`AppDag::bandwidth_between`), read once when the edge is bound.
#[derive(Debug, Clone, Copy)]
struct BoundEdge {
    state: EdgeState,
    required: Bandwidth,
}

/// The edge bindings of one deployment.
///
/// Invariant: exactly the DAG edges with both endpoints placed are
/// bound, each holding its DAG requirement. Whoever places, evicts or
/// moves a component calls [`rebind_touching`](Self::rebind_touching)
/// before the DAG loses it. The requirement cannot go stale while an
/// edge stays bound: the DAG only grows by `absorb`, whose fresh ids
/// cannot add an edge between bound components.
///
/// Logical: `restarts`, `demand_factor` and each binding's flow id.
/// Derived: which edges are bound, local or remote, and their
/// requirements (the placement and the DAG; [`rebuild`](Self::rebuild)
/// re-derives them), `restart` (the environment's configuration), and
/// when the next push is needed (`demands_stale`, `expiry_after_push`;
/// a rebuild stales the demands).
#[derive(Debug, Default)]
pub(super) struct Bindings {
    edges: BTreeMap<Key, BoundEdge>,
    demand_factor: BTreeMap<Key, f64>,
    /// When each restarting component began its restart.
    restarts: BTreeMap<ComponentId, SimTime>,
    restart: RestartModel,
    /// Set by everything but the clock that can move a demand: a bind,
    /// a rebuild, a factor, a restart or a forgotten component.
    demands_stale: bool,
    /// The earliest downtime expiry among the restarts down at the last
    /// push's clock: once the clock reaches it, a demand moves.
    expiry_after_push: Option<SimTime>,
}

impl Bindings {
    pub(super) fn new(restart: RestartModel) -> Self {
        Bindings { restart, ..Bindings::default() }
    }

    /// (Re)binds one DAG edge to the current placement: drops its old
    /// binding and flow, then binds it unless an endpoint is unplaced.
    pub(super) fn bind(
        &mut self, (from, to): Key, mesh: &mut Mesh, cluster: &Cluster, dag: &AppDag,
    ) -> Result<(), MeshError> {
        self.demands_stale = true;
        let old = self.edges.remove(&(from, to));
        if let Some(BoundEdge { state: EdgeState::Remote(f), .. }) = old {
            let _ = mesh.remove_flow(f);
        }
        let (Some(a), Some(b)) = (cluster.node_of(from), cluster.node_of(to)) else {
            return Ok(());
        };
        let required = dag.bandwidth_between(from, to);
        let state = if a == b {
            EdgeState::Local
        } else {
            EdgeState::Remote(mesh.add_flow(a, b, self.demand((from, to), required, mesh.now()))?)
        };
        self.edges.insert((from, to), BoundEdge { state, required });
        Ok(())
    }

    /// Binds every DAG edge.
    pub(super) fn bind_all(
        &mut self, mesh: &mut Mesh, cluster: &Cluster, dag: &AppDag,
    ) -> Result<(), MeshError> {
        dag.edges().iter().try_for_each(|e| self.bind((e.from, e.to), mesh, cluster, dag))
    }

    /// Rebinds every DAG edge touching `c`.
    pub(super) fn rebind_touching(
        &mut self, c: ComponentId, mesh: &mut Mesh, cluster: &Cluster, dag: &AppDag,
    ) -> Result<(), MeshError> {
        let mut touching = dag.edges().iter().filter(|e| e.from == c || e.to == c);
        touching.try_for_each(|e| self.bind((e.from, e.to), mesh, cluster, dag))
    }

    /// Re-derives every binding from the DAG and the placement, with
    /// each requirement read afresh, without [`bind`](Self::bind). A
    /// remote binding keeps its flow (flow ids are logical) while the
    /// flow joins its edge's nodes; every other flow is removed, and an
    /// edge that needs one gets a new one.
    pub(super) fn rebuild(
        &mut self, mesh: &mut Mesh, cluster: &Cluster, dag: &AppDag,
    ) -> Result<(), MeshError> {
        self.demands_stale = true;
        let mut old = std::mem::take(&mut self.edges);
        for e in dag.edges() {
            let key = (e.from, e.to);
            let Some((a, b)) = cluster.node_of(e.from).zip(cluster.node_of(e.to)) else { continue };
            let required = dag.bandwidth_between(e.from, e.to);
            let joins = |f| mesh.flow_spec(f).is_ok_and(|s| (s.src, s.dst) == (a, b));
            let state = match old.get(&key).map(|edge| edge.state) {
                Some(EdgeState::Remote(f)) if joins(f) => {
                    old.remove(&key);
                    EdgeState::Remote(f)
                }
                _ if a == b => EdgeState::Local,
                _ => EdgeState::Remote(mesh.add_flow(a, b, self.demand(key, required, mesh.now()))?),
            };
            self.edges.insert(key, BoundEdge { state, required });
        }
        // The flows of edges the DAG lost, left unplaced, or whose flow went stale.
        for edge in old.into_values() {
            if let EdgeState::Remote(f) = edge.state {
                mesh.remove_flow(f)?;
            }
        }
        Ok(())
    }

    /// Pushes every remote edge's current demand into its flow, when one
    /// can have moved since the last push: the bindings went stale, or
    /// the clock reached a downtime expiry that was pending then.
    pub(super) fn push_demands(&mut self, mesh: &mut Mesh) -> Result<(), MeshError> {
        let now = mesh.now();
        if self.demands_stale || self.expiry_after_push.is_some_and(|at| at <= now) {
            for (&key, edge) in &self.edges {
                if let EdgeState::Remote(f) = edge.state {
                    mesh.set_flow_demand(f, self.demand(key, edge.required, now))?;
                }
            }
            self.demands_stale = false;
            self.expiry_after_push = self
                .restarts
                .values()
                .filter(|&&start| self.restart.is_down(start, now))
                .map(|&start| start + self.restart.downtime)
                .min();
        }
        #[cfg(debug_assertions)]
        for (&key, edge) in &self.edges {
            if let EdgeState::Remote(f) = edge.state {
                let (held, full) = (mesh.flow_spec(f)?.demand, self.demand(key, edge.required, now));
                assert_eq!(held.as_bps().to_bits(), full.as_bps().to_bits(), "edge {key:?} at {now}");
            }
        }
        Ok(())
    }

    /// The controller's view of per-edge goodput over `mesh`.
    pub(super) fn goodput<'a>(&'a self, mesh: &'a Mesh) -> LiveGoodput<'a> {
        LiveGoodput { bindings: self, mesh }
    }

    /// What an edge achieves: its full demand when co-located, its
    /// flow's goodput when remote, nothing when unbound.
    pub(super) fn achieved(&self, key: Key, mesh: &Mesh) -> Bandwidth {
        let edge = self.edges.get(&key);
        edge.map_or(Bandwidth::ZERO, |&edge| self.achieved_by(key, edge, mesh))
    }

    fn achieved_by(&self, key: Key, edge: BoundEdge, mesh: &Mesh) -> Bandwidth {
        match edge.state {
            EdgeState::Local => self.demand(key, edge.required, mesh.now()),
            EdgeState::Remote(f) => mesh.flow_goodput(f),
        }
    }

    /// The offered demand of an edge whose requirement is `required`:
    /// requirement × factor, zero while either endpoint is down.
    fn demand(&self, (from, to): Key, required: Bandwidth, now: SimTime) -> Bandwidth {
        if self.down(from, now) || self.down(to, now) {
            return Bandwidth::ZERO;
        }
        required.scale(self.factor((from, to)))
    }

    fn factor(&self, key: Key) -> f64 {
        self.demand_factor.get(&key).copied().unwrap_or(1.0)
    }

    pub(super) fn state(&self, key: Key) -> Option<EdgeState> {
        self.edges.get(&key).map(|edge| edge.state)
    }

    pub(super) fn set_factor(&mut self, key: Key, factor: f64) {
        self.demands_stale = true;
        self.demand_factor.insert(key, factor.max(0.0));
    }

    /// Starts `c`'s restart clock at `now`.
    pub(super) fn restart(&mut self, c: ComponentId, now: SimTime) {
        self.demands_stale = true;
        self.restarts.insert(c, now);
    }

    /// Drops a retired component's restart clock and demand factors.
    pub(super) fn forget(&mut self, c: ComponentId) {
        self.demands_stale = true;
        self.restarts.remove(&c);
        self.demand_factor.retain(|&(a, b), _| a != c && b != c);
    }

    /// The restart downtime `c` still has to wait out at `now`; zero once
    /// it is up.
    pub(super) fn downtime_left(&self, c: ComponentId, now: SimTime) -> SimDuration {
        match self.restarts.get(&c) {
            Some(&start) if self.restart.is_down(start, now) => {
                (start + self.restart.downtime).saturating_since(now)
            }
            _ => SimDuration::ZERO,
        }
    }

    pub(super) fn down(&self, c: ComponentId, now: SimTime) -> bool {
        !self.downtime_left(c, now).is_zero()
    }

    pub(super) fn slowdown(&self, c: ComponentId, now: SimTime) -> f64 {
        self.restarts.get(&c).map_or(1.0, |&start| self.restart.slowdown_at(start, now))
    }
}

/// Each bound edge's requirement × factor and what it achieves, read on
/// the mesh's clock when asked; an unbound edge reads `None`.
pub(super) struct LiveGoodput<'a> {
    bindings: &'a Bindings,
    mesh: &'a Mesh,
}

impl GoodputView for LiveGoodput<'_> {
    fn usage(&self, from: ComponentId, to: ComponentId) -> Option<EdgeUsage> {
        let (b, key) = (self.bindings, (from, to));
        let edge = *b.edges.get(&key)?;
        let required = edge.required.scale(b.factor(key));
        Some(EdgeUsage { required, achieved: b.achieved_by(key, edge, self.mesh) })
    }
}
