//! The [`Mesh`] façade over three private parts, one module each, each
//! with its own invariant and its fields marked logical (inputs a
//! snapshot must keep) or derived (rebuilt from them):
//!
//! - **routes** (`routes.rs`): the topology, the nodes and links faults
//!   took down, and the min-hop routing table over what is usable;
//! - **link capacities** (`links.rs`): each link's capacity source and
//!   `tc` cap, stale-trace freezes, and the snapshot of effective
//!   capacities the allocator last read, with its trace clock;
//! - **flow allocation** (`alloc.rs`): the flow table with its queues,
//!   node egress caps, the persistent allocation index and the rates.
//!
//! The façade owns the clock and the journal diff. Each
//! [`Mesh::advance`] refreshes capacities, reallocates, then drains
//! per-flow queues against the granted rates (`docs/ARCHITECTURE.md`).

use crate::alloc::Allocation;
use crate::capacity::CapacitySource;
use crate::flow::{FlowId, FlowSpec};
use crate::links::LinkCaps;
use crate::queueing::{hop_latency, FlowQueue};
use crate::routes::Routes;
use crate::topology::{LinkId, NodeId, Topology};
use bass_trace::BandwidthTrace;
use bass_util::time::{SimDuration, SimTime};
use bass_util::units::{Bandwidth, DataSize};
use std::error::Error;
use std::fmt;

/// Errors returned by [`Mesh`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeshError {
    /// The referenced node does not exist.
    UnknownNode(NodeId),
    /// No link exists between the two nodes.
    UnknownLink(NodeId, NodeId),
    /// No route exists between the two nodes.
    Unreachable(NodeId, NodeId),
    /// The referenced flow does not exist.
    UnknownFlow(FlowId),
    /// The topology is not connected (BASS assumes no partitions).
    NotConnected,
    /// Not one trace per link: `(links, traces given)`.
    TraceCount(usize, usize),
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::UnknownNode(n) => write!(f, "unknown node {n}"),
            MeshError::UnknownLink(a, b) => write!(f, "no link between {a} and {b}"),
            MeshError::Unreachable(a, b) => write!(f, "no route from {a} to {b}"),
            MeshError::UnknownFlow(id) => write!(f, "unknown flow {id}"),
            MeshError::NotConnected => write!(f, "topology is not connected"),
            MeshError::TraceCount(links, n) => write!(f, "{n} traces for {links} links"),
        }
    }
}

impl Error for MeshError {}

/// A simulated wireless mesh carrying fluid flows.
///
/// Time advances with [`Mesh::advance`]; at each step the mesh refreshes
/// link capacities from their sources, recomputes the max-min fair
/// allocation across all registered flows, and integrates per-flow
/// queues.
///
/// # Examples
///
/// ```
/// use bass_mesh::{Mesh, NodeId, Topology};
/// use bass_util::prelude::*;
///
/// let topo = Topology::full_mesh(3);
/// let mut mesh = Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(100.0))?;
/// let flow = mesh.add_flow(NodeId(0), NodeId(1), Bandwidth::from_mbps(40.0))?;
/// mesh.advance(SimDuration::from_millis(100));
/// assert_eq!(mesh.flow_rate(flow).as_mbps(), 40.0);
/// # Ok::<(), bass_mesh::MeshError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mesh {
    pub(crate) routes: Routes,
    links: LinkCaps,
    alloc: Allocation,
    /// The simulation clock (logical).
    now: SimTime,
    /// Per-link utilization scratch for the queueing model.
    util_scratch: Vec<f64>,
    /// Per-link effective capacities (Mbps) last reported to a journal;
    /// `None` until the first (silent, baseline-setting) emission pass.
    obs_cap_snapshot: Option<Vec<f64>>,
    /// (flows, demand Mbps, allocated Mbps) last reported to a journal.
    obs_flow_sig: Option<(u32, f64, f64)>,
}

impl Mesh {
    /// Creates a mesh over a connected topology; every link starts with
    /// zero capacity until a source is assigned.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::NotConnected`] for disconnected topologies —
    /// the paper's assumption is "no partitioning of the network".
    pub fn new(topo: Topology) -> Result<Self, MeshError> {
        let link_count = topo.link_count();
        Ok(Mesh {
            routes: Routes::new(topo)?,
            links: LinkCaps::new(link_count),
            alloc: Allocation::new(link_count),
            now: SimTime::ZERO,
            util_scratch: vec![0.0; link_count],
            obs_cap_snapshot: None,
            obs_flow_sig: None,
        })
    }

    /// Creates a mesh where every link has the same constant capacity
    /// (the microbenchmark LAN shape).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::NotConnected`] for disconnected topologies.
    pub fn with_uniform_capacity(topo: Topology, capacity: Bandwidth) -> Result<Self, MeshError> {
        let mut mesh = Mesh::new(topo)?;
        for l in 0..mesh.topology().link_count() {
            mesh.links.set_source(LinkId(l), CapacitySource::Constant(capacity));
        }
        Ok(mesh)
    }

    /// Creates a mesh whose link capacities replay `traces` in link
    /// order: trace `i` drives `LinkId(i)`, moved in, not copied.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::NotConnected`], or [`MeshError::TraceCount`]
    /// unless there is exactly one trace per link.
    pub fn from_traces(
        topo: Topology,
        traces: impl IntoIterator<Item = BandwidthTrace>,
    ) -> Result<Self, MeshError> {
        let mut mesh = Mesh::new(topo)?;
        let (links, mut traces) = (mesh.topology().link_count(), traces.into_iter());
        for l in 0..links {
            let trace = traces.next().ok_or(MeshError::TraceCount(links, l))?;
            mesh.links.set_source(LinkId(l), CapacitySource::Trace(trace));
        }
        match traces.count() {
            0 => Ok(mesh),
            extra => Err(MeshError::TraceCount(links, links + extra)),
        }
    }

    /// A copy that keeps this mesh's logical state and rebuilds
    /// everything derived from it: the routing table drops every row,
    /// every flow is re-routed (building its source's row), the
    /// allocation index is marked stale, the queues unsettled and every
    /// trace cursor rewound.
    /// Logical state — the clock, the flows with their demands, queues
    /// and last rates, the capacity sources, `tc` and egress caps, trace
    /// freezes, the fault state and the journal-diff snapshots — is
    /// copied unchanged, and so are the last allocation's usage views, so
    /// every query answers as on `self`. The next [`advance`](Self::advance)
    /// compacts and re-indexes the flows, re-reads every capacity and
    /// refills every component from scratch, runs the queue pass and
    /// diffs the journal figures.
    ///
    /// A correct mesh and its rebuilt copy advance in lockstep bit for
    /// bit; the equivalence batteries check production against a twin
    /// replaced by `rebuilt()` before every tick.
    pub fn rebuilt(&self) -> Mesh {
        let mut mesh = self.clone();
        mesh.routes.recompute();
        mesh.alloc.reroute(&mesh.routes);
        mesh.alloc.index.dirty = true;
        mesh.alloc.unsettle();
        mesh.links.rewind();
        mesh
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Borrow the topology.
    pub fn topology(&self) -> &Topology {
        self.routes.topo()
    }

    // ----- fault state ------------------------------------------------------

    /// Marks a node up or down. A down node's links all become unusable:
    /// routes avoid them, its flows lose their allocation, and capacity
    /// queries report zero. Routes are repaired, changed flow paths redone.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownNode`] if the node does not exist.
    pub fn set_node_up(&mut self, node: NodeId, up: bool) -> Result<(), MeshError> {
        let changed = self.routes.set_node_up(node, up)?;
        self.reroute_if(changed);
        Ok(())
    }

    /// Marks the link between `a` and `b` up or down, independent of the
    /// endpoints' node state. Routes are repaired, changed flow paths redone.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) -> Result<(), MeshError> {
        let changed = self.routes.set_link_up(a, b, up)?;
        self.reroute_if(changed);
        Ok(())
    }

    /// After an up/down call that changed the fault state (`Some`, with
    /// whether a link's usability flipped, moving capacities): re-path
    /// the flows whose routes changed and reallocate.
    fn reroute_if(&mut self, change: Option<bool>) {
        let Some(flipped) = change else { return };
        if flipped {
            self.links.invalidate();
        }
        self.alloc.reroute(&self.routes);
        self.alloc.reallocate(&mut self.links, &self.routes, self.now, None);
    }

    /// True when the node exists and is not crashed.
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.routes.node_is_up(node)
    }

    /// True when the link exists, is not down, and neither endpoint is
    /// crashed.
    pub fn link_is_up(&self, a: NodeId, b: NodeId) -> bool {
        self.routes.link(a, b).is_ok_and(|lid| self.routes.usable(lid))
    }

    /// Freezes the link's trace feed at the current time: until unfrozen,
    /// capacity reads replay the instant of the freeze (a stale
    /// telemetry feed). Up/down state still applies on top.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn freeze_link_trace(&mut self, a: NodeId, b: NodeId) -> Result<(), MeshError> {
        self.set_trace_frozen(a, b, Some(self.now))
    }

    /// Reverses [`freeze_link_trace`](Self::freeze_link_trace).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn unfreeze_link_trace(&mut self, a: NodeId, b: NodeId) -> Result<(), MeshError> {
        self.set_trace_frozen(a, b, None)
    }

    fn set_trace_frozen(&mut self, a: NodeId, b: NodeId, at: Option<SimTime>) -> Result<(), MeshError> {
        let lid = self.routes.link(a, b)?;
        self.links.set_frozen(lid, at);
        self.alloc.reallocate(&mut self.links, &self.routes, self.now, None);
        Ok(())
    }

    /// The raw effective capacity of the link between `a` and `b` — the
    /// per-link ceiling the max-min allocator enforces (zero when the
    /// link or an endpoint is down; frozen-in-time when the trace feed
    /// is stale). Unlike [`link_capacity`](Self::link_capacity) no
    /// egress caps are folded in, so `link_usage ≤ link_effective_capacity`
    /// is an invariant of every allocation.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn link_effective_capacity(&self, a: NodeId, b: NodeId) -> Result<Bandwidth, MeshError> {
        Ok(self.link_capacity_now(self.routes.link(a, b)?))
    }

    /// The effective capacity of `lid` at `now` ([`LinkCaps::capacity`]).
    /// Every public capacity read goes through here.
    fn link_capacity_now(&self, lid: LinkId) -> Bandwidth {
        self.links.capacity(lid, &self.routes, self.now)
    }

    // ----- capacity control ------------------------------------------------

    /// Sets the base capacity source for the link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn set_link_source(
        &mut self,
        a: NodeId,
        b: NodeId,
        source: CapacitySource,
    ) -> Result<(), MeshError> {
        let lid = self.routes.link(a, b)?;
        self.links.set_source(lid, source);
        Ok(())
    }

    /// Applies (or clears, with `None`) a `tc`-style cap on a link.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn set_link_cap(
        &mut self,
        a: NodeId,
        b: NodeId,
        cap: Option<Bandwidth>,
    ) -> Result<(), MeshError> {
        let lid = self.routes.link(a, b)?;
        self.links.set_cap(lid, cap);
        Ok(())
    }

    /// Applies (or clears) a cap on a node's total outgoing traffic —
    /// the paper's "limit outgoing traffic at node 2 to 30 Mbps".
    ///
    /// Until the next allocation a newly capped node's egress usage is
    /// what the last allocation sent out of it.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownNode`] if the node does not exist.
    pub fn set_node_egress_cap(
        &mut self,
        node: NodeId,
        cap: Option<Bandwidth>,
    ) -> Result<(), MeshError> {
        if !self.topology().contains_node(node) {
            return Err(MeshError::UnknownNode(node));
        }
        self.alloc.set_egress_cap(node, self.routes.table().rank(node), cap);
        Ok(())
    }

    // ----- flows ------------------------------------------------------------

    /// Registers a flow from `src` to `dst` with the given demand.
    /// Loopback flows (`src == dst`) are allowed and are never
    /// network-constrained. When fault injection has severed every route
    /// between the endpoints the flow is still registered — parked as
    /// unroutable with zero allocation until connectivity returns
    /// (disconnected *topologies* are rejected at [`Mesh::new`], so this
    /// only happens under faults).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownNode`] for unknown endpoints.
    pub fn add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        demand: Bandwidth,
    ) -> Result<FlowId, MeshError> {
        for &n in &[src, dst] {
            if !self.topology().contains_node(n) {
                return Err(MeshError::UnknownNode(n));
            }
        }
        let routed = self.routes.route_flow(src, dst);
        Ok(self.alloc.add(FlowSpec { src, dst, demand }, routed))
    }

    /// Updates a flow's offered demand.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownFlow`] for unknown ids.
    pub fn set_flow_demand(&mut self, id: FlowId, demand: Bandwidth) -> Result<(), MeshError> {
        self.alloc.set_demand(id, demand)
    }

    /// Removes a flow, dropping its queue. Its rate stays readable
    /// through [`flow_rate`](Self::flow_rate) until the next allocation.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownFlow`] for unknown ids.
    pub fn remove_flow(&mut self, id: FlowId) -> Result<(), MeshError> {
        self.alloc.remove(id)
    }

    /// The spec of a flow.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownFlow`] for unknown ids.
    pub fn flow_spec(&self, id: FlowId) -> Result<FlowSpec, MeshError> {
        self.alloc.flow_and_rate(id).map(|(f, _)| f.spec).ok_or(MeshError::UnknownFlow(id))
    }

    /// Number of registered flows.
    pub fn flow_count(&self) -> usize {
        self.alloc.flows.len()
    }

    // ----- stepping ---------------------------------------------------------

    /// Advances simulation time by `dt`: refresh capacities, recompute
    /// the fair allocation, and integrate queues. Each part guards its
    /// own work: the allocation stands when nothing it reads moved, and
    /// the queue pass is skipped while the last pass over the same step
    /// moved no queue and none of its inputs moved since.
    pub fn advance(&mut self, dt: SimDuration) {
        self.advance_profiled(dt, None, None);
    }

    /// [`advance`](Self::advance) with optional journal emission and span
    /// profiling. With both `None` this *is* `advance` — the profiler is
    /// threaded as `Option` so the hot path pays one branch per phase
    /// and never reads a clock when profiling is off. Spans recorded
    /// (see `docs/OBSERVABILITY.md`), each only when its work runs: the
    /// allocation phases (see `alloc.rs`), then `mesh.queues` and, with
    /// a journal and once a demand, rate or capacity may have moved since
    /// the last emission, `mesh.obs_emit`.
    pub fn advance_profiled(
        &mut self,
        dt: SimDuration,
        journal: Option<&mut bass_obs::Journal>,
        mut profiler: Option<&mut bass_obs::SpanProfiler>,
    ) {
        self.now += dt;
        let profile = profiler.as_deref_mut();
        self.alloc.reallocate(&mut self.links, &self.routes, self.now, profile);
        let queues = self.alloc.settled != Some(dt);
        let journal = journal.filter(|_| self.alloc.unreported);
        let mut clock =
            bass_obs::PhaseClock::new(profiler.is_some() && (queues || journal.is_some()));
        if queues {
            self.advance_queues(dt);
            clock.lap(profiler.as_deref_mut(), "mesh.queues");
        }
        if let Some(j) = journal {
            self.alloc.unreported = false;
            self.emit_capacity_changes(j, "trace");
            self.emit_flow_rate_recompute(j);
            clock.lap(profiler, "mesh.obs_emit");
        }
    }

    /// The queue pass: derive every link's utilization from the
    /// capacities and usage the allocation just left (same instant, so no
    /// capacity source is queried twice per tick), then advance every
    /// flow queue.
    fn advance_queues(&mut self, dt: SimDuration) {
        let link_count = self.topology().link_count();
        self.util_scratch.resize(link_count, 0.0);
        let (caps, used) = (self.links.caps_bps(), self.alloc.link_used_bps());
        for i in 0..link_count {
            let (cap, used) = (caps[i], used[i]);
            self.util_scratch[i] = match (cap <= f64::EPSILON, used > 0.0) {
                (true, true) => 1.0,
                (true, false) => 0.0,
                (false, _) => (used / cap).clamp(0.0, 1.0),
            };
        }
        self.alloc.advance_queues(dt, &self.util_scratch);
    }

    /// Diffs the current effective link capacities against the last
    /// journal-reported snapshot and emits a
    /// [`LinkCapacityChanged`](bass_obs::Event::LinkCapacityChanged)
    /// event for every link that moved by more than 1% (relative).
    ///
    /// The first call only establishes the baseline and emits nothing.
    /// `cause` labels what moved the capacity — `"trace"` for vagary
    /// playback during [`advance_profiled`](Self::advance_profiled),
    /// `"scenario"` when the emulator applies a scripted restriction.
    pub fn emit_capacity_changes(&mut self, journal: &mut bass_obs::Journal, cause: &str) {
        let Some(mut prev) = self.obs_cap_snapshot.take() else {
            let caps = (0..self.topology().link_count()).map(|i| self.link_capacity_now(LinkId(i)));
            self.obs_cap_snapshot = Some(caps.map(Bandwidth::as_mbps).collect());
            return;
        };
        for (lid, link) in self.routes.topo().links() {
            let new = self.link_capacity_now(lid).as_mbps();
            let old = std::mem::replace(&mut prev[lid.0], new);
            if (new - old).abs() / old.abs().max(1e-9) > 0.01 {
                journal.record(bass_obs::Event::LinkCapacityChanged {
                    t_s: self.now.as_secs_f64(),
                    a: link.a.0,
                    b: link.b.0,
                    old_mbps: old,
                    new_mbps: new,
                    cause: cause.to_string(),
                });
            }
        }
        self.obs_cap_snapshot = Some(prev);
    }

    /// Emits a [`FlowRateRecomputed`](bass_obs::Event::FlowRateRecomputed)
    /// event if the flow count changed or total demand/allocation moved
    /// by more than 0.1% since the last reported picture.
    fn emit_flow_rate_recompute(&mut self, journal: &mut bass_obs::Journal) {
        fn moved(old: f64, new: f64) -> bool {
            (new - old).abs() / old.abs().max(1e-9) > 0.001
        }
        let (flows, demand_mbps, allocated_mbps) = self.alloc.totals();
        let changed = match self.obs_flow_sig {
            None => flows > 0,
            Some((f, d, a)) => f != flows || moved(d, demand_mbps) || moved(a, allocated_mbps),
        };
        if changed {
            let saturated_links = (0..self.topology().link_count())
                .filter(|&i| {
                    let cap = self.link_capacity_now(LinkId(i)).as_bps();
                    cap > 0.0 && self.alloc.link_used_bps()[i] >= 0.999 * cap
                })
                .count() as u32;
            journal.record(bass_obs::Event::FlowRateRecomputed {
                t_s: self.now.as_secs_f64(),
                flows,
                demand_mbps,
                allocated_mbps,
                saturated_links,
            });
            self.obs_flow_sig = Some((flows, demand_mbps, allocated_mbps));
        }
    }

    // ----- queries ----------------------------------------------------------

    /// The rate the last allocation granted a flow — zero for unknown
    /// flows and for flows added since. A flow removed since the last
    /// allocation still reads its last rate until the next one.
    pub fn flow_rate(&self, id: FlowId) -> Bandwidth {
        self.alloc.rate(id)
    }

    /// A flow's goodput: the smaller of demand and allocation.
    pub fn flow_goodput(&self, id: FlowId) -> Bandwidth {
        self.alloc.flow_and_rate(id).map_or(Bandwidth::ZERO, |(f, rate)| f.spec.demand.min(rate))
    }

    /// Loss fraction for a flow treated as real-time traffic.
    pub fn flow_loss(&self, id: FlowId) -> f64 {
        self.alloc
            .flow_and_rate(id)
            .map_or(0.0, |(f, rate)| FlowQueue::loss_fraction(f.spec.demand, rate))
    }

    /// End-to-end delay to deliver a message of `size` on a flow at the
    /// current allocation (queueing + serialization + hop latency).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownFlow`] for unknown ids.
    pub fn flow_message_delay(&self, id: FlowId, size: DataSize) -> Result<SimDuration, MeshError> {
        let (flow, allocated) = self.alloc.flow_and_rate(id).ok_or(MeshError::UnknownFlow(id))?;
        if !flow.routable {
            // Severed by faults: nothing is delivered until a route
            // returns, so report the dead-path cap.
            return Ok(crate::queueing::MAX_DELAY);
        }
        let hops = flow.links.len();
        if hops == 0 {
            // Loopback: pure local latency plus negligible copy time.
            return Ok(hop_latency(0));
        }
        let capacity = flow
            .links
            .iter()
            .map(|l| self.link_capacity_now(*l))
            .fold(Bandwidth::from_bps(f64::INFINITY), Bandwidth::min);
        Ok(flow.queue.transfer_delay(size, capacity, allocated) + hop_latency(hops))
    }

    /// A flow's current queue backlog.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownFlow`] for unknown ids.
    pub fn flow_backlog(&self, id: FlowId) -> Result<DataSize, MeshError> {
        let (f, _) = self.alloc.flow_and_rate(id).ok_or(MeshError::UnknownFlow(id))?;
        Ok(f.queue.backlog())
    }

    /// Capacity of `lid` for traffic the `senders` transmit: the link's
    /// capacity limited by their egress caps.
    fn hop_capacity(&self, lid: LinkId, senders: &[NodeId]) -> Bandwidth {
        let mut cap = self.link_capacity_now(lid);
        for &n in senders {
            if let Some(e) = self.alloc.egress_cap(n) {
                cap = cap.min(e.cap);
            }
        }
        cap
    }

    /// Spare bandwidth on `lid` for new traffic the `senders` transmit:
    /// the link's headroom limited by their spare egress.
    fn hop_available(&self, lid: LinkId, senders: &[NodeId]) -> Bandwidth {
        let used = Bandwidth::from_bps(self.alloc.link_used_bps()[lid.0]);
        let mut avail = self.link_capacity_now(lid).saturating_sub(used);
        for &n in senders {
            if let Some(e) = self.alloc.egress_cap(n) {
                avail = avail.min(e.available());
            }
        }
        avail
    }

    /// Current capacity of the link between `a` and `b`, as a probe
    /// would observe it: the link's own capacity further limited by any
    /// egress cap at either endpoint (an interface-level `tc` limit
    /// constrains every link of that node).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn link_capacity(&self, a: NodeId, b: NodeId) -> Result<Bandwidth, MeshError> {
        Ok(self.link_capacity_by_id(self.routes.link(a, b)?))
    }

    /// [`link_capacity`](Self::link_capacity) of the link with id `lid`
    /// — O(1) while the allocator's capacity snapshot is current.
    ///
    /// # Panics
    ///
    /// Panics if `lid` is not a link of this mesh's topology.
    pub fn link_capacity_by_id(&self, lid: LinkId) -> Bandwidth {
        let link = self.topology().link(lid);
        self.hop_capacity(lid, &[link.a, link.b])
    }

    /// Allocated traffic currently crossing the link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn link_usage(&self, a: NodeId, b: NodeId) -> Result<Bandwidth, MeshError> {
        let lid = self.routes.link(a, b)?;
        Ok(Bandwidth::from_bps(self.alloc.link_used_bps()[lid.0]))
    }

    /// Spare capacity on the link with id `lid`: the link's own headroom,
    /// further limited by the spare egress at either capped endpoint (what
    /// a probe over this link could actually push) — O(1) while the
    /// allocator's capacity snapshot is current.
    ///
    /// # Panics
    ///
    /// Panics if `lid` is not a link of this mesh's topology.
    pub fn link_available_by_id(&self, lid: LinkId) -> Bandwidth {
        let link = self.topology().link(lid);
        self.hop_available(lid, &[link.a, link.b])
    }

    /// The routed node path from `src` to `dst` (the traceroute view),
    /// walked out of the routing table into an owned vector — no path is
    /// stored between calls.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::Unreachable`] when no route exists.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Result<Vec<NodeId>, MeshError> {
        self.routes.table().path(src, dst).ok_or(MeshError::Unreachable(src, dst))
    }

    /// The hops of the routed path from `src` to `dst` as `(sender,
    /// receiver, link)`, walked in place from `dst` back to `src`.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::Unreachable`] when no route exists.
    pub fn route_hops(
        &self,
        src: NodeId,
        dst: NodeId,
    ) -> Result<impl Iterator<Item = (NodeId, NodeId, LinkId)> + '_, MeshError> {
        self.routes.table().hops(src, dst).ok_or(MeshError::Unreachable(src, dst))
    }

    /// Capacity for traffic sent from `u` across the link to `v`: the
    /// link's capacity limited by `u`'s egress cap (the transmitter's
    /// interface shaping), but not by `v`'s — receiving is not shaped.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn directed_link_capacity(&self, u: NodeId, v: NodeId) -> Result<Bandwidth, MeshError> {
        Ok(self.hop_capacity(self.routes.link(u, v)?, &[u]))
    }

    /// Spare bandwidth for new traffic sent from `u` across the link to
    /// `v`: the link's headroom limited by `u`'s spare egress.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn directed_link_available(&self, u: NodeId, v: NodeId) -> Result<Bandwidth, MeshError> {
        Ok(self.hop_available(self.routes.link(u, v)?, &[u]))
    }

    /// The bottleneck `(capacity, available)` along the routed path from
    /// `src` to `dst`, from one walk of its hops: what a max-capacity
    /// probe and a headroom probe of the path report (∞ for `src ==
    /// dst`). Directional: only each hop's transmitting side's egress cap
    /// applies.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::Unreachable`] when no route exists.
    pub fn path_narrowest(&self, src: NodeId, dst: NodeId) -> Result<(Bandwidth, Bandwidth), MeshError> {
        let inf = Bandwidth::from_bps(f64::INFINITY);
        let mut narrowest = (inf, inf);
        if src != dst {
            for (u, _, lid) in self.route_hops(src, dst)? {
                let (cap, avail) = (self.hop_capacity(lid, &[u]), self.hop_available(lid, &[u]));
                narrowest = (narrowest.0.min(cap), narrowest.1.min(avail));
            }
        }
        Ok(narrowest)
    }

    /// Sum of current capacities of all links incident to `node` — the
    /// "combined capacity across all of the node's links" used by BASS's
    /// node ranking.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownNode`] if the node does not exist.
    pub fn node_total_link_capacity(&self, node: NodeId) -> Result<Bandwidth, MeshError> {
        let topo = self.topology();
        if !topo.contains_node(node) {
            return Err(MeshError::UnknownNode(node));
        }
        Ok(topo.incident_links(node).into_iter().map(|l| self.link_capacity_now(l)).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::ComponentIndex;

    /// Spare capacity on the link between nodes `a` and `b`.
    fn available(m: &Mesh, a: u32, b: u32) -> Bandwidth {
        m.link_available_by_id(m.topology().find_link(NodeId(a), NodeId(b)).unwrap())
    }
    use bass_trace::BandwidthTrace;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    /// A link trace at 50 Mbps, restricted to 5 Mbps from 10 s until
    /// `until_s`.
    fn restricted_trace(until_s: u64) -> BandwidthTrace {
        let mut trace = BandwidthTrace::new("l");
        trace.push(SimTime::ZERO, mbps(50.0));
        trace.push(SimTime::from_secs(10), mbps(5.0));
        trace.push(SimTime::from_secs(until_s), mbps(50.0));
        trace
    }

    fn approx(a: Bandwidth, b: f64) {
        assert!((a.as_mbps() - b).abs() < 1e-6, "expected {b}, got {}", a.as_mbps());
    }

    fn three_node_lan() -> Mesh {
        Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap()
    }

    #[test]
    fn rejects_disconnected_topology() {
        let mut topo = Topology::new();
        topo.add_node(NodeId(0)).unwrap();
        topo.add_node(NodeId(1)).unwrap();
        assert_eq!(Mesh::new(topo).unwrap_err(), MeshError::NotConnected);
    }

    #[test]
    fn from_traces_drives_link_i_with_trace_i_and_rejects_a_count_mismatch() {
        let traces = |n| (0..n).map(|i| BandwidthTrace::constant("t", mbps(10.0 + i as f64)));
        let topo = Topology::full_mesh(3);
        let mesh = Mesh::from_traces(topo.clone(), traces(3)).unwrap();
        for (lid, link) in topo.links() {
            assert_eq!(mesh.link_capacity(link.a, link.b).unwrap(), mbps(10.0 + lid.0 as f64));
        }
        let err = |n| Mesh::from_traces(topo.clone(), traces(n)).unwrap_err();
        assert_eq!(err(2), MeshError::TraceCount(3, 2));
        assert_eq!(err(5), MeshError::TraceCount(3, 5));
        assert_eq!(err(5).to_string(), "5 traces for 3 links");
    }

    #[test]
    fn single_flow_gets_demand() {
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(0), NodeId(1), mbps(30.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f), 30.0);
        approx(mesh.flow_goodput(f), 30.0);
        assert_eq!(mesh.flow_loss(f), 0.0);
    }

    #[test]
    fn flows_share_a_link_fairly() {
        let mut mesh = three_node_lan();
        let f1 = mesh.add_flow(NodeId(0), NodeId(1), mbps(100.0)).unwrap();
        let f2 = mesh.add_flow(NodeId(0), NodeId(1), mbps(100.0)).unwrap();
        // Both flows also share node 0's implicit egress only if capped;
        // here only the 100 Mbps link binds → 50/50.
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f1), 50.0);
        approx(mesh.flow_rate(f2), 50.0);
    }

    #[test]
    fn link_cap_behaves_like_tc() {
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(1), NodeId(2), mbps(100.0)).unwrap();
        mesh.set_link_cap(NodeId(1), NodeId(2), Some(mbps(25.0))).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f), 25.0);
        approx(mesh.link_capacity(NodeId(1), NodeId(2)).unwrap(), 25.0);
        mesh.set_link_cap(NodeId(1), NodeId(2), None).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f), 100.0);
    }

    #[test]
    fn node_egress_cap_limits_all_outgoing_flows() {
        // The paper's Fig. 3: restrict node 2's outgoing traffic.
        let mut mesh = three_node_lan();
        let f1 = mesh.add_flow(NodeId(2), NodeId(0), mbps(100.0)).unwrap();
        let f2 = mesh.add_flow(NodeId(2), NodeId(1), mbps(100.0)).unwrap();
        mesh.set_node_egress_cap(NodeId(2), Some(mbps(30.0))).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f1), 15.0);
        approx(mesh.flow_rate(f2), 15.0);
        // Traffic *into* node 2 is unaffected.
        let f3 = mesh.add_flow(NodeId(0), NodeId(2), mbps(60.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f3), 60.0);
    }

    #[test]
    fn loopback_flow_is_unconstrained() {
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(0), NodeId(0), mbps(10_000.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f), 10_000.0);
        let d = mesh
            .flow_message_delay(f, DataSize::from_megabytes(1))
            .unwrap();
        assert_eq!(d, SimDuration::from_micros(50));
    }

    #[test]
    fn trace_driven_capacity_changes_over_time() {
        let mut topo = Topology::new();
        topo.add_node(NodeId(0)).unwrap();
        topo.add_node(NodeId(1)).unwrap();
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        let trace = restricted_trace(20);
        let mut mesh = Mesh::new(topo).unwrap();
        mesh.set_link_source(NodeId(0), NodeId(1), CapacitySource::Trace(trace))
            .unwrap();
        let f = mesh.add_flow(NodeId(0), NodeId(1), mbps(100.0)).unwrap();
        mesh.advance(SimDuration::from_secs(5));
        approx(mesh.flow_rate(f), 50.0);
        mesh.advance(SimDuration::from_secs(10)); // now = 15s, inside restriction
        approx(mesh.flow_rate(f), 5.0);
        assert!(mesh.flow_loss(f) > 0.9);
        mesh.advance(SimDuration::from_secs(10)); // now = 25s, lifted
        approx(mesh.flow_rate(f), 50.0);
    }

    #[test]
    fn multi_hop_flow_consumes_all_path_links() {
        // Line 0-1-2: flow 0→2 crosses both links.
        let mut topo = Topology::new();
        for i in 0..3 {
            topo.add_node(NodeId(i)).unwrap();
        }
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        topo.add_link(NodeId(1), NodeId(2)).unwrap();
        let mut mesh = Mesh::with_uniform_capacity(topo, mbps(10.0)).unwrap();
        let f = mesh.add_flow(NodeId(0), NodeId(2), mbps(100.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f), 10.0);
        approx(mesh.link_usage(NodeId(0), NodeId(1)).unwrap(), 10.0);
        approx(mesh.link_usage(NodeId(1), NodeId(2)).unwrap(), 10.0);
        approx(available(&mesh, 0, 1), 0.0);
    }

    #[test]
    fn path_queries() {
        let mut mesh = three_node_lan();
        let _f = mesh.add_flow(NodeId(0), NodeId(1), mbps(40.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        let (capacity, available) = mesh.path_narrowest(NodeId(0), NodeId(1)).unwrap();
        approx(capacity, 100.0);
        approx(available, 60.0);
        assert_eq!(mesh.path(NodeId(0), NodeId(1)).unwrap(), &[NodeId(0), NodeId(1)]);
        let (capacity, available) = mesh.path_narrowest(NodeId(0), NodeId(0)).unwrap();
        assert!(capacity.as_bps().is_infinite() && available.as_bps().is_infinite());
    }

    #[test]
    fn node_total_link_capacity_sums_incident_links() {
        let mesh = three_node_lan();
        approx(mesh.node_total_link_capacity(NodeId(0)).unwrap(), 200.0);
        assert_eq!(
            mesh.node_total_link_capacity(NodeId(9)).unwrap_err(),
            MeshError::UnknownNode(NodeId(9))
        );
    }

    #[test]
    fn backlog_grows_under_restriction_and_drains_after() {
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(0), NodeId(1), mbps(50.0)).unwrap();
        mesh.set_link_cap(NodeId(0), NodeId(1), Some(mbps(10.0))).unwrap();
        for _ in 0..10 {
            mesh.advance(SimDuration::from_secs(1));
        }
        let backlog = mesh.flow_backlog(f).unwrap();
        assert!(backlog.as_bytes() > 0, "backlog should accumulate");
        let delay = mesh.flow_message_delay(f, DataSize::from_kilobytes(10)).unwrap();
        assert!(delay.as_secs_f64() > 10.0, "delay should include drain: {delay}");
        // Lift restriction and stop offering traffic: the backlog drains.
        mesh.set_link_cap(NodeId(0), NodeId(1), None).unwrap();
        mesh.set_flow_demand(f, Bandwidth::ZERO).unwrap();
        for _ in 0..60 {
            mesh.advance(SimDuration::from_secs(1));
        }
        assert_eq!(mesh.flow_backlog(f).unwrap(), DataSize::ZERO);
    }

    #[test]
    fn error_paths() {
        let mut mesh = three_node_lan();
        assert!(matches!(
            mesh.add_flow(NodeId(0), NodeId(9), mbps(1.0)),
            Err(MeshError::UnknownNode(_))
        ));
        assert!(matches!(
            mesh.set_flow_demand(FlowId(99), mbps(1.0)),
            Err(MeshError::UnknownFlow(_))
        ));
        assert!(matches!(
            mesh.remove_flow(FlowId(99)),
            Err(MeshError::UnknownFlow(_))
        ));
        assert!(matches!(
            mesh.link_capacity(NodeId(0), NodeId(9)),
            Err(MeshError::UnknownLink(_, _))
        ));
        assert!(matches!(
            mesh.set_node_egress_cap(NodeId(9), Some(mbps(1.0))),
            Err(MeshError::UnknownNode(_))
        ));
    }

    #[test]
    fn remove_flow_frees_capacity() {
        let mut mesh = three_node_lan();
        let f1 = mesh.add_flow(NodeId(0), NodeId(1), mbps(100.0)).unwrap();
        let f2 = mesh.add_flow(NodeId(0), NodeId(1), mbps(100.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f2), 50.0);
        mesh.remove_flow(f1).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f2), 100.0);
        assert_eq!(mesh.flow_count(), 1);
    }

    #[test]
    fn down_link_reroutes_and_recovers() {
        // Triangle: flow 0→2 goes direct; link down forces the detour
        // via 1; link up restores the direct path.
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(0), NodeId(2), mbps(10.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        assert_eq!(mesh.path(NodeId(0), NodeId(2)).unwrap().len(), 2);
        mesh.set_link_up(NodeId(0), NodeId(2), false).unwrap();
        assert!(!mesh.link_is_up(NodeId(0), NodeId(2)));
        assert_eq!(mesh.link_effective_capacity(NodeId(0), NodeId(2)).unwrap(), Bandwidth::ZERO);
        mesh.advance(SimDuration::from_millis(100));
        assert_eq!(
            mesh.path(NodeId(0), NodeId(2)).unwrap(),
            &[NodeId(0), NodeId(1), NodeId(2)]
        );
        approx(mesh.flow_goodput(f), 10.0);
        mesh.set_link_up(NodeId(0), NodeId(2), true).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        assert_eq!(mesh.path(NodeId(0), NodeId(2)).unwrap().len(), 2);
    }

    #[test]
    fn node_crash_parks_flows_until_recovery() {
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(0), NodeId(1), mbps(10.0)).unwrap();
        mesh.set_node_up(NodeId(1), false).unwrap();
        assert!(!mesh.node_is_up(NodeId(1)));
        assert!(!mesh.link_is_up(NodeId(0), NodeId(1)));
        mesh.advance(SimDuration::from_millis(100));
        assert_eq!(mesh.flow_rate(f), Bandwidth::ZERO);
        assert_eq!(mesh.flow_loss(f), 1.0);
        assert!(matches!(
            mesh.path(NodeId(0), NodeId(1)),
            Err(MeshError::Unreachable(_, _))
        ));
        assert_eq!(
            mesh.flow_message_delay(f, DataSize::from_kilobytes(1)).unwrap(),
            crate::queueing::MAX_DELAY
        );
        // Flows added while the destination is down park as unroutable.
        let g = mesh.add_flow(NodeId(2), NodeId(1), mbps(5.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        assert_eq!(mesh.flow_rate(g), Bandwidth::ZERO);
        // Recovery restores both.
        mesh.set_node_up(NodeId(1), true).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_goodput(f), 10.0);
        approx(mesh.flow_goodput(g), 5.0);
    }

    #[test]
    fn crashed_node_contributes_no_capacity() {
        let mut mesh = three_node_lan();
        mesh.set_node_up(NodeId(2), false).unwrap();
        approx(mesh.node_total_link_capacity(NodeId(2)).unwrap(), 0.0);
        // Node 0 keeps only its link to node 1.
        approx(mesh.node_total_link_capacity(NodeId(0)).unwrap(), 100.0);
        approx(mesh.link_capacity(NodeId(0), NodeId(2)).unwrap(), 0.0);
    }

    #[test]
    fn stale_trace_freezes_capacity_reads() {
        let mut topo = Topology::new();
        topo.add_node(NodeId(0)).unwrap();
        topo.add_node(NodeId(1)).unwrap();
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        let trace = restricted_trace(30);
        let mut mesh = Mesh::new(topo).unwrap();
        mesh.set_link_source(NodeId(0), NodeId(1), CapacitySource::Trace(trace)).unwrap();
        mesh.advance(SimDuration::from_secs(5)); // now=5s, cap 50
        mesh.freeze_link_trace(NodeId(0), NodeId(1)).unwrap();
        mesh.advance(SimDuration::from_secs(10)); // now=15s, real cap 5
        approx(mesh.link_effective_capacity(NodeId(0), NodeId(1)).unwrap(), 50.0);
        mesh.unfreeze_link_trace(NodeId(0), NodeId(1)).unwrap();
        approx(mesh.link_effective_capacity(NodeId(0), NodeId(1)).unwrap(), 5.0);
    }

    #[test]
    fn fault_state_error_paths() {
        let mut mesh = three_node_lan();
        assert!(matches!(
            mesh.set_node_up(NodeId(9), false),
            Err(MeshError::UnknownNode(_))
        ));
        assert!(matches!(
            mesh.set_link_up(NodeId(0), NodeId(9), false),
            Err(MeshError::UnknownLink(_, _))
        ));
        assert!(matches!(
            mesh.freeze_link_trace(NodeId(0), NodeId(9)),
            Err(MeshError::UnknownLink(_, _))
        ));
        assert!(!mesh.node_is_up(NodeId(9)));
        assert!(!mesh.link_is_up(NodeId(0), NodeId(9)));
    }

    #[test]
    fn observed_advance_reports_rate_and_capacity_changes() {
        let mut mesh = three_node_lan();
        let mut journal = bass_obs::Journal::new();
        // Quiet mesh: baseline pass emits nothing.
        mesh.advance_profiled(SimDuration::from_millis(100), Some(&mut journal), None);
        assert!(journal.is_empty());
        // A new flow changes the allocation picture exactly once.
        mesh.add_flow(NodeId(0), NodeId(1), mbps(40.0)).unwrap();
        mesh.advance_profiled(SimDuration::from_millis(100), Some(&mut journal), None);
        mesh.advance_profiled(SimDuration::from_millis(100), Some(&mut journal), None);
        assert_eq!(journal.count("flow_rate_recomputed"), 1);
        match journal.events().next().unwrap() {
            bass_obs::Event::FlowRateRecomputed { flows, allocated_mbps, .. } => {
                assert_eq!(*flows, 1);
                assert!((allocated_mbps - 40.0).abs() < 1e-6);
            }
            other => panic!("expected FlowRateRecomputed, got {other:?}"),
        }
        // A capacity cut is reported with old/new values and the cause.
        mesh.set_link_cap(NodeId(0), NodeId(1), Some(mbps(10.0))).unwrap();
        mesh.emit_capacity_changes(&mut journal, "scenario");
        assert_eq!(journal.count("link_capacity_changed"), 1);
        match journal.events().last().unwrap() {
            bass_obs::Event::LinkCapacityChanged { old_mbps, new_mbps, cause, .. } => {
                assert!((old_mbps - 100.0).abs() < 1e-6);
                assert!((new_mbps - 10.0).abs() < 1e-6);
                assert_eq!(cause, "scenario");
            }
            other => panic!("expected LinkCapacityChanged, got {other:?}"),
        }
        // The None sink stays a pure advance.
        mesh.advance_profiled(SimDuration::from_millis(100), None, None);
    }

    /// A 4×4 grid mesh with flows spread over several links, some of
    /// them loopback (unconstrained), driven through a fixed sparse
    /// schedule on production or on the rebuilt reference (the mesh
    /// replaced by [`Mesh::rebuilt`] before every tick).
    fn run_schedule(reference: bool) -> Vec<(u64, f64)> {
        let mut mesh =
            Mesh::with_uniform_capacity(Topology::grid(4, 4), mbps(60.0)).unwrap();
        for i in 0..12u64 {
            let src = NodeId((i % 16) as u32);
            let dst = NodeId(((i * 5 + 3) % 16) as u32);
            mesh.add_flow(src, dst, mbps(8.0 + i as f64)).unwrap();
        }
        for tick in 0..30u64 {
            // Sparse perturbations: one link cap change every few ticks,
            // one demand change on others, long quiescent stretches.
            if tick % 5 == 0 {
                let cap = if tick % 10 == 0 { Some(mbps(25.0)) } else { None };
                mesh.set_link_cap(NodeId(0), NodeId(1), cap).unwrap();
            }
            if tick % 7 == 3 {
                mesh.set_flow_demand(FlowId(tick % 12), mbps(3.0 + tick as f64)).unwrap();
            }
            if tick == 11 {
                mesh.set_node_egress_cap(NodeId(5), Some(mbps(20.0))).unwrap();
            }
            if tick == 17 {
                mesh.remove_flow(FlowId(2)).unwrap();
            }
            if reference {
                mesh = mesh.rebuilt();
            }
            mesh.advance(SimDuration::from_millis(100));
        }
        (0..12u64)
            .map(|i| (i, mesh.flow_rate(FlowId(i)).as_bps()))
            .collect()
    }

    #[test]
    fn production_is_bit_identical_to_the_reference() {
        assert_eq!(run_schedule(true), run_schedule(false));
    }

    fn bits(b: Bandwidth) -> u64 {
        b.as_bps().to_bits()
    }

    fn live_ids(mesh: &Mesh) -> Vec<FlowId> {
        mesh.alloc.flows.live_slots().map(|s| mesh.alloc.flows.ids[s]).collect()
    }

    /// A ticked 4×4 grid carrying six flows, plus its
    /// [rebuilt](Mesh::rebuilt) copy — the next allocation rebuilds the
    /// index from scratch instead of patching.
    fn patched_and_rebuilt() -> (Mesh, Mesh) {
        let mut mesh = Mesh::with_uniform_capacity(Topology::grid(4, 4), mbps(20.0)).unwrap();
        for i in 0..6u32 {
            mesh.add_flow(NodeId(i), NodeId(15 - i), mbps(4.0 + f64::from(i))).unwrap();
        }
        mesh.advance(SimDuration::from_millis(100));
        let rebuilt = mesh.rebuilt();
        (mesh, rebuilt)
    }

    /// Advances both meshes one tick; rates, backlogs and link usages
    /// must agree bit for bit, and the patched partition must number its
    /// components exactly as a rebuild does, each holding the same flows.
    fn assert_patch_matches_rebuild(patched: &mut Mesh, rebuilt: &mut Mesh) {
        let mut profiler = bass_obs::SpanProfiler::new();
        patched.advance_profiled(SimDuration::from_millis(100), None, Some(&mut profiler));
        rebuilt.advance(SimDuration::from_millis(100));
        assert!(profiler.stats("mesh.index_rebuild").is_none(), "patched, not rebuilt");
        assert_eq!(live_ids(patched), live_ids(rebuilt));
        for id in live_ids(patched) {
            assert_eq!(bits(patched.flow_rate(id)), bits(rebuilt.flow_rate(id)));
            assert_eq!(patched.flow_backlog(id), rebuilt.flow_backlog(id));
        }
        for (a, b) in patched.alloc.link_used_bps().iter().zip(rebuilt.alloc.link_used_bps()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let (p, r) = (&patched.alloc.index.comps, &rebuilt.alloc.index.comps);
        assert_eq!(p.component_count(), r.component_count());
        for ci in 0..patched.alloc.index.constraints.len() {
            assert_eq!(p.constraint_component(ci), r.constraint_component(ci));
        }
        for comp in 0..p.component_count() as u32 {
            let ids = |m: &Mesh, c: &ComponentIndex| -> Vec<FlowId> {
                c.flows_of(comp).iter().map(|&s| m.alloc.flows.ids[s]).collect()
            };
            assert_eq!(ids(patched, p), ids(rebuilt, r), "flows of component {comp}");
        }
    }

    /// Whether the pending patch of `mesh`'s index would re-derive the
    /// partition (asked of a copy, so the mesh still patches it).
    fn patch_relabels(mesh: &Mesh) -> bool {
        let index = &mesh.alloc.index;
        let (off, cons) = (&index.flow_cons_off, &index.flow_cons);
        index.comps.clone().patch(&index.constraints, off, cons, &mut Vec::new())
    }

    /// Random flow swaps on a 4×4 grid — one-hop flows, flows parallel to
    /// a live one, zero demands, bridges, a link's last member leaving —
    /// patch the partition exactly as a rebuild derives it, through the
    /// no-relabel path and through the re-derivation.
    #[test]
    fn random_swaps_patch_the_partition_like_a_rebuild() {
        let mut rng = bass_util::rng::SimRng::seed_from_u64(60);
        let mut mesh = Mesh::with_uniform_capacity(Topology::grid(4, 4), mbps(20.0)).unwrap();
        let mut live: Vec<(FlowId, NodeId, NodeId)> = Vec::new();
        let (mut kept, mut relabelled, mut emptied) = (0, 0, 0);
        for _ in 0..400 {
            for _ in 0..rng.below(3).min(live.len() as u64) {
                let (id, ..) = live.swap_remove(rng.below(live.len() as u64) as usize);
                let slot = mesh.alloc.flows.live_slot(id).unwrap();
                let ix = &mesh.alloc.index;
                emptied +=
                    ix.row(slot).iter().any(|&ci| ix.constraints[ci].members == [slot]) as u32;
                mesh.remove_flow(id).unwrap();
            }
            for _ in 0..rng.below(3) {
                let src = NodeId(rng.below(16) as u32);
                let (src, dst) = match rng.below(3) {
                    0 if !live.is_empty() => {
                        let (_, a, b) = live[rng.below(live.len() as u64) as usize];
                        (a, b)
                    }
                    // One hop right, or down on the grid's last column.
                    1 => (src, NodeId(if src.0 % 4 < 3 { src.0 + 1 } else { (src.0 + 4) % 16 })),
                    _ => (src, NodeId(rng.below(16) as u32)),
                };
                let demand = mbps([0.0, 3.0, 8.0, 30.0][rng.below(4) as usize]);
                live.push((mesh.add_flow(src, dst, demand).unwrap(), src, dst));
            }
            if mesh.alloc.index.dirty {
                // Dead slots outnumber live ones: this tick compacts.
                mesh.advance(SimDuration::from_millis(100));
                continue;
            }
            if mesh.alloc.index.comps.patch_pending() {
                *if patch_relabels(&mesh) { &mut relabelled } else { &mut kept } += 1;
            }
            let mut rebuilt = mesh.rebuilt();
            assert_patch_matches_rebuild(&mut mesh, &mut rebuilt);
        }
        assert!(kept > 20 && relabelled > 20 && emptied > 20, "{kept} {relabelled} {emptied}");
    }

    #[test]
    fn link_toggled_under_a_crashed_endpoint_refills_without_a_rebuild() {
        let mut mesh = Mesh::with_uniform_capacity(Topology::grid(4, 4), mbps(20.0)).unwrap();
        for i in 0..6u32 {
            mesh.add_flow(NodeId(i), NodeId(15 - i), mbps(4.0 + f64::from(i))).unwrap();
        }
        mesh.set_node_up(NodeId(5), false).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        for up in [false, true] {
            // A rebuild compacts tombstones: one that survives the call
            // proves the call's reallocation patched the clean index.
            mesh.remove_flow(live_ids(&mesh)[0]).unwrap();
            let dead = mesh.alloc.flows.dead;
            let mut rebuilt = mesh.rebuilt();
            for m in [&mut mesh, &mut rebuilt] {
                m.set_link_up(NodeId(5), NodeId(6), up).unwrap();
            }
            assert_eq!(mesh.alloc.flows.dead, dead, "no index rebuild (up = {up})");
            assert_eq!(rebuilt.alloc.flows.dead, 0);
            for id in live_ids(&mesh) {
                assert_eq!(bits(mesh.flow_rate(id)), bits(rebuilt.flow_rate(id)));
            }
            for (a, b) in mesh.alloc.link_used_bps().iter().zip(rebuilt.alloc.link_used_bps()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_patch_matches_rebuild(&mut mesh, &mut rebuilt);
        }
    }

    #[test]
    fn flow_added_and_removed_inside_one_tick_matches_a_rebuild() {
        let (mut patched, mut rebuilt) = patched_and_rebuilt();
        for m in [&mut patched, &mut rebuilt] {
            let g = m.add_flow(NodeId(3), NodeId(12), mbps(9.0)).unwrap();
            m.set_flow_demand(g, mbps(11.0)).unwrap();
            m.remove_flow(g).unwrap();
            m.remove_flow(FlowId(2)).unwrap();
            m.add_flow(NodeId(5), NodeId(6), mbps(7.0)).unwrap();
        }
        assert_eq!(patched.alloc.flows.dead, 2);
        assert!(!patched.alloc.index.dirty);
        assert_patch_matches_rebuild(&mut patched, &mut rebuilt);
    }

    #[test]
    fn set_flow_demand_on_a_just_added_flow_finds_its_slot() {
        let (mut patched, mut rebuilt) = patched_and_rebuilt();
        for m in [&mut patched, &mut rebuilt] {
            let g = m.add_flow(NodeId(0), NodeId(15), mbps(2.0)).unwrap();
            m.set_flow_demand(g, mbps(30.0)).unwrap();
        }
        assert_patch_matches_rebuild(&mut patched, &mut rebuilt);
        // A later demand move on the patched-in flow lands on its slot.
        for m in [&mut patched, &mut rebuilt] {
            m.set_flow_demand(FlowId(6), mbps(1.0)).unwrap();
        }
        rebuilt = rebuilt.rebuilt();
        assert_patch_matches_rebuild(&mut patched, &mut rebuilt);
    }

    #[test]
    fn clearing_an_absent_egress_cap_rebuilds_without_changing_rates() {
        let (mut cleared, _) = patched_and_rebuilt();
        let mut untouched = cleared.clone();
        cleared.set_node_egress_cap(NodeId(3), None).unwrap();
        let mut profiler = bass_obs::SpanProfiler::new();
        cleared.advance_profiled(SimDuration::from_millis(100), None, Some(&mut profiler));
        untouched.advance(SimDuration::from_millis(100));
        assert_eq!(profiler.stats("mesh.index_rebuild").map(|s| s.count), Some(1));
        for id in live_ids(&untouched) {
            assert_eq!(bits(cleared.flow_rate(id)), bits(untouched.flow_rate(id)));
        }
    }

    #[test]
    fn quiescent_tick_keeps_rates_verbatim() {
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(0), NodeId(1), mbps(30.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        let before = mesh.flow_rate(f).as_bps();
        // Constant capacities, satisfied demand: nothing is dirty, the
        // rate must be the very same bits.
        mesh.advance(SimDuration::from_millis(100));
        assert_eq!(before.to_bits(), mesh.flow_rate(f).as_bps().to_bits());
    }

    /// A 10 Mbps link carrying a demand-bound flow (5 Mbps, exactly its
    /// share) and a saturation-bound one (offered 100 Mbps, floor 5 Mbps).
    fn squeezed_pair() -> (Mesh, FlowId, FlowId) {
        let mut mesh = three_node_lan();
        mesh.set_link_cap(NodeId(0), NodeId(1), Some(mbps(10.0))).unwrap();
        let bound = mesh.add_flow(NodeId(0), NodeId(1), mbps(5.0)).unwrap();
        let squeezed = mesh.add_flow(NodeId(0), NodeId(1), mbps(100.0)).unwrap();
        (mesh, bound, squeezed)
    }

    /// Whether the next 100 ms advance of `mesh` reallocates (read off a
    /// copy's `mesh.cap_diff` span).
    fn reallocates(mesh: &Mesh) -> bool {
        let mut profiler = bass_obs::SpanProfiler::new();
        mesh.clone().advance_profiled(SimDuration::from_millis(100), None, Some(&mut profiler));
        profiler.stats("mesh.cap_diff").is_some()
    }

    #[test]
    fn an_advance_reallocates_only_when_a_demand_reaches_its_floor() {
        let step = SimDuration::from_millis(100);
        let (mut mesh, bound, squeezed) = squeezed_pair();
        // Frozen by its own demand on an unsaturated link: floor +∞.
        let lone = mesh.add_flow(NodeId(0), NodeId(2), mbps(2.0)).unwrap();
        // Before the first allocation nothing stands.
        assert!(reallocates(&mesh));
        mesh.advance(step);
        mesh.set_flow_demand(lone, mbps(3.0)).unwrap();
        assert!(reallocates(&mesh), "a demand-frozen flow's rise refills");
        mesh.set_flow_demand(lone, mbps(2.0)).unwrap();
        // The squeezed backlog grew, but its demand stays above its floor.
        assert!(mesh.flow_backlog(squeezed).unwrap().as_bytes() > 0);
        assert!(!reallocates(&mesh));
        mesh.set_flow_demand(squeezed, mbps(6.0)).unwrap();
        assert!(!reallocates(&mesh), "a fall that stays above the floor refills nothing");
        // The flow whose demand was the saturating round's minimum: +∞.
        mesh.set_flow_demand(bound, mbps(5.5)).unwrap();
        assert!(reallocates(&mesh));
        mesh.set_flow_demand(bound, mbps(5.0)).unwrap();
        assert!(!reallocates(&mesh), "a demand moved back where it was refills nothing");
        // A `tc` cap pending for the next refresh refills.
        mesh.set_link_cap(NodeId(0), NodeId(2), Some(mbps(50.0))).unwrap();
        assert!(reallocates(&mesh));
    }

    #[test]
    fn a_demand_move_above_its_floor_is_journaled_without_a_refill() {
        let step = SimDuration::from_millis(100);
        let (mut mesh, _, squeezed) = squeezed_pair();
        let mut journal = bass_obs::Journal::new();
        mesh.advance_profiled(step, Some(&mut journal), None);
        let reported = journal.count("flow_rate_recomputed");
        mesh.set_flow_demand(squeezed, mbps(60.0)).unwrap();
        let mut profiler = bass_obs::SpanProfiler::new();
        mesh.advance_profiled(step, Some(&mut journal), Some(&mut profiler));
        assert!(profiler.stats("mesh.water_fill").is_none(), "no refill above the floor");
        assert_eq!(journal.count("flow_rate_recomputed"), reported + 1, "the total demand moved");
    }

    #[test]
    fn a_same_size_flow_swap_reallocates() {
        let step = SimDuration::from_millis(100);
        let mut mesh = three_node_lan();
        mesh.set_link_cap(NodeId(0), NodeId(2), Some(mbps(10.0))).unwrap();
        let a = mesh.add_flow(NodeId(0), NodeId(1), mbps(50.0)).unwrap();
        mesh.advance(step);
        assert!(!reallocates(&mesh));
        // One flow out, one in, no tick between: the flow count is
        // unchanged, but B has no rate yet — A's 50 Mbps is not B's.
        mesh.remove_flow(a).unwrap();
        let b = mesh.add_flow(NodeId(0), NodeId(2), mbps(40.0)).unwrap();
        assert_eq!(mesh.flow_count(), 1);
        assert!(reallocates(&mesh));
        mesh.advance(step);
        assert!(mesh.flow_backlog(b).unwrap().as_bytes() > 0, "B outgrows its 10 Mbps link");
    }

    #[test]
    fn quiet_advances_match_a_rebuilt_mesh_bit_for_bit() {
        let step = SimDuration::from_millis(100);
        let (mut mesh, bound, squeezed) = squeezed_pair();
        let mut reference = mesh.clone();
        let (mut quiet, mut queues_only, mut reallocating) = (0, 0, 0);
        // A backlog grows for 10 ticks (at tick 5 the offered load falls
        // but stays above its floor), then the offered load falls to
        // 1 Mbps: the backlog drains until the demand reaches its floor,
        // the link is refilled, and the rest drains and settles. From
        // tick 400 to 420 the flows' link is down: the out-of-advance
        // reallocations re-path both flows through node 2 and back.
        for tick in 0..600 {
            for m in [&mut mesh, &mut reference] {
                match tick {
                    5 => m.set_flow_demand(squeezed, mbps(50.0)).unwrap(),
                    10 => m.set_flow_demand(squeezed, mbps(1.0)).unwrap(),
                    400 | 420 => m.set_link_up(NodeId(0), NodeId(1), tick == 420).unwrap(),
                    _ => {}
                }
            }
            reference = reference.rebuilt();
            reference.advance(step);
            let mut profiler = bass_obs::SpanProfiler::new();
            mesh.advance_profiled(step, None, Some(&mut profiler));
            match (profiler.stats("mesh.cap_diff"), profiler.stats("mesh.queues")) {
                (Some(_), _) => reallocating += 1,
                (None, Some(_)) => queues_only += 1,
                (None, None) => quiet += 1,
            }
            assert_eq!(reference.now(), mesh.now());
            for f in [bound, squeezed] {
                assert_eq!(bits(reference.flow_rate(f)), bits(mesh.flow_rate(f)), "tick {tick}");
                assert_eq!(bits(reference.flow_goodput(f)), bits(mesh.flow_goodput(f)));
                assert_eq!(reference.flow_backlog(f), mesh.flow_backlog(f), "tick {tick}");
                let size = DataSize::from_bytes(1500);
                assert_eq!(
                    reference.flow_message_delay(f, size).unwrap(),
                    mesh.flow_message_delay(f, size).unwrap(),
                    "tick {tick}"
                );
            }
            for (_, link) in reference.topology().links() {
                let usage = |m: &Mesh| bits(m.link_usage(link.a, link.b).unwrap());
                assert_eq!(usage(&reference), usage(&mesh), "tick {tick}");
            }
        }
        assert!(
            quiet > 250 && queues_only > 150 && reallocating > 100,
            "{quiet} quiet, {queues_only} queue passes only, {reallocating} reallocating"
        );
        assert_eq!(mesh.flow_backlog(squeezed).unwrap().as_bytes(), 0);
    }

    #[test]
    fn capping_a_node_after_removing_its_flow_reads_the_last_allocation() {
        let step = SimDuration::from_millis(100);
        let (mut reference, mut production) = (three_node_lan(), three_node_lan());
        let removed = FlowId(2);
        for m in [&mut reference, &mut production] {
            for (dst, demand) in [(0, 0.1), (1, 0.2), (0, 0.3), (1, 0.7)] {
                m.add_flow(NodeId(2), NodeId(dst), mbps(demand)).unwrap();
            }
            // A fresh mesh's first tick already builds from scratch.
            m.advance(step);
            m.remove_flow(removed).unwrap();
            m.add_flow(NodeId(2), NodeId(0), mbps(5.0)).unwrap();
            m.set_node_egress_cap(NodeId(2), Some(mbps(20.0))).unwrap();
        }
        // Before the next allocation node 2's egress usage is the last
        // allocation's, the removed flow's rate included.
        assert!(production.flow_rate(removed) > Bandwidth::ZERO);
        let reads = |m: &Mesh| {
            [
                available(m, 2, 0),
                available(m, 1, 2),
                m.directed_link_available(NodeId(2), NodeId(1)).unwrap(),
            ]
            .map(bits)
        };
        assert_eq!(reads(&reference), reads(&production));
        approx(available(&production, 2, 0), 20.0 - 1.3);
        reference = reference.rebuilt();
        for m in [&mut reference, &mut production] {
            m.advance(step);
        }
        assert_eq!(reads(&reference), reads(&production));
        assert_eq!(production.flow_rate(removed), Bandwidth::ZERO);
    }

    #[test]
    fn a_frozen_trace_wakes_no_reallocation() {
        let mut topo = Topology::new();
        topo.add_node(NodeId(0)).unwrap();
        topo.add_node(NodeId(1)).unwrap();
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        let mut mesh = Mesh::new(topo).unwrap();
        let trace = CapacitySource::Trace(restricted_trace(60));
        mesh.set_link_source(NodeId(0), NodeId(1), trace).unwrap();
        // Reallocating advances over `secs` seconds of 100 ms ticks.
        let reallocations = |mesh: &mut Mesh, secs: u64| {
            let mut profiler = bass_obs::SpanProfiler::new();
            for _ in 0..secs * 10 {
                mesh.advance_profiled(SimDuration::from_millis(100), None, Some(&mut profiler));
            }
            profiler.stats("mesh.cap_diff").map_or(0, |s| s.count)
        };
        assert_eq!(reallocations(&mut mesh, 1), 1, "the first advance reads every link");
        // A frozen link's trace can no longer change any capacity read,
        // so its 10 s change-point wakes nothing.
        mesh.freeze_link_trace(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(reallocations(&mut mesh, 29), 0);
        approx(mesh.link_effective_capacity(NodeId(0), NodeId(1)).unwrap(), 50.0);
        mesh.unfreeze_link_trace(NodeId(0), NodeId(1)).unwrap();
        approx(mesh.link_effective_capacity(NodeId(0), NodeId(1)).unwrap(), 5.0);
        // Unfrozen, the 60 s change-point wakes exactly one re-read.
        assert_eq!(reallocations(&mut mesh, 40), 1);
        approx(mesh.link_effective_capacity(NodeId(0), NodeId(1)).unwrap(), 50.0);
        // Constant capacities never wake one after the first.
        assert_eq!(reallocations(&mut three_node_lan(), 10), 1);
    }
}
