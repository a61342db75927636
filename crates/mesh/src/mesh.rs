//! The [`Mesh`] facade: topology + routing + capacities + flows + queues.
//!
//! Each [`Mesh::advance`] tick runs the allocation pipeline described in
//! `docs/ARCHITECTURE.md`: refresh per-link capacities from traces and
//! overrides, patch or rebuild the flow↔constraint `AllocIndex`,
//! water-fill per-flow rates, then drain per-flow queues against the
//! granted rates.
//!
//! Flows live in one `FlowTable`, one *slot* per flow in ascending id
//! order; every per-flow vector — the allocation index's rows, the
//! demand snapshot, the rates — is indexed by slot, and the rate vector
//! *is* the allocation.
//!
//! There is one allocator. It keeps the `AllocIndex` (a CSR
//! flow↔constraint map plus the connected components of that graph,
//! [`crate::flow::ComponentIndex`]) across ticks, bit-compares capacity
//! and demand snapshots each tick, and refills only the *dirty*
//! components; every other component keeps its previous rates verbatim.
//! Flow add/remove patch the table and the index in place — appended
//! and tombstoned slots, and a re-derivation of just the components they
//! touched, which are then dirty. Route or egress-cap changes, and
//! tombstones outnumbering live flows, rebuild the index (compacting the
//! table with it), and a tick that rebuilt the index refills everything.
//! After the fill every tick has the same tail: the link usage view and
//! the egress usage of each capped node are re-summed from their
//! constraints' members, and one queue pass visits every flow.
//!
//! The pre-index implementation (`reallocate_dense`: fresh buffers,
//! per-tick membership scans, [`crate::flow::max_min_allocate_dense`])
//! is kept verbatim as the *test reference*. Tests reach it through the
//! hidden one-way `Mesh::use_reference_allocator` and require the
//! production path to match it bit for bit.
//!
//! Determinism rules: component order is canonical (ascending smallest
//! constraint index, after a patch as after a rebuild), slots stay in
//! ascending flow-id order, and nothing samples wall-clock time — the
//! same seed and mutation sequence replays bit-for-bit on any machine.

use crate::capacity::{CapacitySource, LinkCapacity};
use crate::flow::{
    max_min_allocate_components, max_min_allocate_dense, refill_component_into,
    unconstrained_rate, AllocScratch, ComponentIndex, Constraint, FlowId, FlowSpec, NO_COMPONENT,
};
use crate::queueing::{FlowQueue, HopLatency};
use crate::routing::RoutingTable;
use crate::topology::{LinkId, NodeId, Topology};
use bass_trace::TraceBundle;
use bass_util::time::{SimDuration, SimTime};
use bass_util::units::{Bandwidth, DataSize};
use std::collections::{BTreeMap, BTreeSet};
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
    /// A trace bundle is missing a trace for a link.
    MissingTrace(String),
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::UnknownNode(n) => write!(f, "unknown node {n}"),
            MeshError::UnknownLink(a, b) => write!(f, "no link between {a} and {b}"),
            MeshError::Unreachable(a, b) => write!(f, "no route from {a} to {b}"),
            MeshError::UnknownFlow(id) => write!(f, "unknown flow {id}"),
            MeshError::NotConnected => write!(f, "topology is not connected"),
            MeshError::MissingTrace(k) => write!(f, "trace bundle has no trace for link {k}"),
        }
    }
}

impl Error for MeshError {}

/// The registered flows, one *slot* each in ascending flow-id order —
/// the slot numbering every per-flow vector of the allocator shares.
///
/// A new flow's slot is appended (flow ids only grow, so the order
/// holds); a removed flow's slot is tombstoned, keeping its id — its
/// rate stays readable until the next allocation — and its path, which
/// seeds the egress usage of a node capped before then. Compaction drops
/// the tombstones: at every index rebuild, and before each dense
/// reference allocation.
#[derive(Debug, Clone, Default)]
struct FlowTable {
    /// Flow id of every slot, ascending; a tombstoned slot keeps its id,
    /// so `binary_search` finds every live slot and every dead one.
    ids: Vec<FlowId>,
    /// False for a tombstoned slot.
    live: Vec<bool>,
    /// Each slot's flow.
    states: Vec<FlowState>,
    /// Tombstoned slots since the last compaction.
    dead: usize,
}

impl FlowTable {
    /// The slot of flow `id`, live or tombstoned.
    fn slot(&self, id: FlowId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The slot of registered flow `id`.
    fn live_slot(&self, id: FlowId) -> Option<usize> {
        self.slot(id).filter(|&s| self.live[s])
    }

    /// Registered flow `id`.
    fn get(&self, id: FlowId) -> Option<&FlowState> {
        self.live_slot(id).map(|s| &self.states[s])
    }

    /// Number of registered flows.
    fn len(&self) -> usize {
        self.ids.len() - self.dead
    }

    /// The live slots, ascending (the registered flows in id order).
    fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.live.iter().enumerate().filter_map(|(s, &l)| l.then_some(s))
    }

    /// Appends a slot for flow `id` (larger than every id so far).
    fn push(&mut self, id: FlowId, flow: FlowState) -> usize {
        debug_assert!(self.ids.last().is_none_or(|&last| last < id));
        self.ids.push(id);
        self.live.push(true);
        self.states.push(flow);
        self.ids.len() - 1
    }

    /// Tombstones a live slot.
    fn tombstone(&mut self, slot: usize) {
        self.live[slot] = false;
        self.dead += 1;
    }

    /// Drops every tombstoned slot; live slots keep their order.
    fn compact(&mut self) {
        if self.dead == 0 {
            return;
        }
        // `retain` visits each element once, in order.
        let mut slot = 0;
        self.ids.retain(|_| {
            slot += 1;
            self.live[slot - 1]
        });
        let mut slot = 0;
        self.states.retain(|_| {
            slot += 1;
            self.live[slot - 1]
        });
        self.live.clear();
        self.live.resize(self.ids.len(), true);
        self.dead = 0;
    }
}

/// A node's egress cap and the allocated bps leaving the node — the
/// egress view, kept only for capped nodes, the only ones it is read
/// for.
#[derive(Debug, Clone, Copy)]
struct EgressCap {
    cap: Bandwidth,
    /// Sum of the last allocation's rates over the flows leaving the
    /// node, in slot order.
    used_bps: f64,
}

impl EgressCap {
    /// The cap's spare bandwidth.
    fn available(&self) -> Bandwidth {
        self.cap.saturating_sub(Bandwidth::from_bps(self.used_bps))
    }
}

/// The sum of `rates` over a constraint's members, in member order.
fn member_sum(c: &Constraint, rates: &[f64]) -> f64 {
    let mut sum = 0.0;
    for &m in &c.members {
        sum += rates[m];
    }
    sum
}

/// Persistent inverted index backing the allocator over the
/// [`FlowTable`]'s slots: one constraint per link (and per egress-capped
/// node) with its member list of slots, and a CSR slot → constraints
/// reverse map.
///
/// Flow add/remove *patch* the index in place: a new flow's appended
/// slot joins its member lists (which stay sorted, slots being appended
/// in id order), a tombstoned slot is taken out of its member lists and
/// its component, its row left unread. The touched components are
/// re-derived once at the next allocation. A full rebuild, which
/// compacts the table first, happens only when the routing or the
/// egress-cap set changes, when dead slots outnumber live ones, or for a
/// patch arriving on an already stale index.
#[derive(Debug, Clone, Default)]
struct AllocIndex {
    /// Ranks of the egress-capped nodes, ascending: egress constraint
    /// `link_count + k` caps node `egress_ranks[k]`.
    egress_ranks: Vec<u32>,
    /// Link constraints first (one per link, in `LinkId` order), then one
    /// per egress-capped node (in `NodeId` order) — the same layout the
    /// reference path rebuilds per tick. Capacities are refreshed in place
    /// each [`Mesh::reallocate`]; member lists persist.
    constraints: Vec<Constraint>,
    /// CSR offsets of the slot → constraints reverse map.
    flow_cons_off: Vec<usize>,
    /// CSR payload of the slot → constraints reverse map (a row in path
    /// order; a dead slot's row is never read).
    flow_cons: Vec<usize>,
    /// Connected components of the flow ↔ constraint graph (the district
    /// map of a gateway-partitioned city mesh), patched with the slots.
    comps: ComponentIndex,
    /// Constraints whose component the last patch re-derived; the next
    /// component scan marks those components dirty and drains this.
    repatched: Vec<usize>,
    /// Set whenever routing, up/down state or the egress-cap set may
    /// have changed, or tombstones must be compacted; cleared by
    /// `rebuild`. While set, every per-slot dirty set and snapshot is
    /// stale and the next allocation rebuilds the index, re-reads every
    /// capacity and demand, and refills every component.
    dirty: bool,
}

impl AllocIndex {
    /// Compacts the flow table, then one pass over every flow's path
    /// (O(Σ path lengths)) rebuilds the member lists and the CSR reverse
    /// map — replacing the per-tick all-flows scan per link the reference
    /// path performs.
    fn rebuild(&mut self, link_count: usize, flows: &mut FlowTable, egress_ranks: Vec<u32>) {
        flows.compact();
        self.constraints.clear();
        self.constraints.resize_with(link_count + egress_ranks.len(), || Constraint {
            capacity: Bandwidth::ZERO,
            members: Vec::new(),
        });
        self.egress_ranks = egress_ranks;
        self.flow_cons.clear();
        self.flow_cons_off.clear();
        self.flow_cons_off.push(0);
        for f in &flows.states {
            self.push_slot(f);
        }
        self.comps.rebuild(
            flows.states.len(),
            &self.constraints,
            &self.flow_cons_off,
            &self.flow_cons,
        );
        self.repatched.clear();
        self.dirty = false;
    }

    /// Appends the next slot's row for flow `f`: pushes the slot onto
    /// each of its links' and capped-egress constraints' member lists
    /// and appends its CSR row. Returns the slot.
    fn push_slot(&mut self, f: &FlowState) -> usize {
        let slot = self.flow_cons_off.len() - 1;
        let link_count = self.constraints.len() - self.egress_ranks.len();
        for lid in &f.links {
            self.constraints[lid.0].members.push(slot);
            self.flow_cons.push(lid.0);
        }
        for node in &f.egress {
            if let Ok(k) = self.egress_ranks.binary_search(node) {
                self.constraints[link_count + k].members.push(slot);
                self.flow_cons.push(link_count + k);
            }
        }
        self.flow_cons_off.push(self.flow_cons.len());
        slot
    }

    /// Patches a newly registered flow's slot in (clean index only); its
    /// components are merged by the next [`ComponentIndex::patch`].
    fn add(&mut self, f: &FlowState) -> usize {
        let slot = self.push_slot(f);
        self.comps.push_flow(&self.flow_cons[self.flow_cons_off[slot]..]);
        slot
    }

    /// Takes a tombstoned slot out of every member list and out of its
    /// component (clean index only).
    fn remove(&mut self, slot: usize) {
        for &ci in &self.flow_cons[self.flow_cons_off[slot]..self.flow_cons_off[slot + 1]] {
            let members = &mut self.constraints[ci].members;
            let at = members
                .binary_search(&slot)
                .expect("a live slot sits in each of its constraints");
            members.remove(at);
        }
        self.comps.detach_flow(slot);
    }
}

#[derive(Debug, Clone)]
struct FlowState {
    spec: FlowSpec,
    /// Links crossed by the flow's route (empty for loopback).
    links: Vec<LinkId>,
    /// Ranks ([`RoutingTable::rank`]) of the nodes whose egress the flow
    /// consumes (every path node except dst).
    egress: Vec<u32>,
    queue: FlowQueue,
    /// False while no usable route exists (endpoint down or the mesh
    /// partitioned by link faults): the flow gets zero allocation until
    /// connectivity returns and [`Mesh::recompute_routes_and_flows`]
    /// restores its path.
    routable: bool,
}

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
    topo: Topology,
    routes: RoutingTable,
    link_caps: Vec<LinkCapacity>,
    /// Egress-capped nodes with their caps and egress usage (refreshed
    /// per step).
    egress_caps: BTreeMap<NodeId, EgressCap>,
    flows: FlowTable,
    next_flow: u64,
    now: SimTime,
    /// False from a flow add or remove until the next allocation: the
    /// rates do not yet cover the registered flow set.
    allocated: bool,
    /// Allocated bps currently crossing each link (refreshed per step).
    link_used_bps: Vec<f64>,
    /// Per-link effective capacities (Mbps) last reported to a journal;
    /// `None` until the first (silent, baseline-setting) emission pass.
    obs_cap_snapshot: Option<Vec<f64>>,
    /// (flows, demand Mbps, allocated Mbps) last reported to a journal.
    obs_flow_sig: Option<(u32, f64, f64)>,
    /// Nodes currently crashed (fault injection): all incident links are
    /// unusable and the node's loopback traffic is dead.
    down_nodes: BTreeSet<NodeId>,
    /// Links currently down (fault injection), independent of node state.
    down_links: BTreeSet<LinkId>,
    /// Links whose trace feed is frozen at a past instant (fault
    /// injection): capacity reads use the frozen time, not `now`.
    trace_freeze: BTreeMap<LinkId, SimTime>,
    /// The trace clock: the earliest change-point across every unfrozen
    /// traced link strictly after the last full capacity read — inner
    /// `None` when no trace changes again. The outer `None` marks it
    /// stale (never read yet, a trace source swapped, a link
    /// (un)frozen); the dense reference never reads through it, so there
    /// it stays stale.
    trace_clock: Option<Option<SimTime>>,
    /// Per-link sample cursors of the full capacity re-read
    /// ([`BandwidthTrace::read_forward`](bass_trace::BandwidthTrace::read_forward)),
    /// which re-arms the trace clock in the same pass.
    trace_cursor: Vec<u32>,
    /// Set (one way) by [`Mesh::use_reference_allocator`]: `reallocate`
    /// runs the dense test reference instead of the production path.
    reference: bool,
    /// Persistent membership index.
    index: AllocIndex,
    /// Reusable working state of the component fill.
    scratch: AllocScratch,
    /// Per-slot transmit demands (zero for a dead slot), reused across
    /// ticks.
    demands_scratch: Vec<Bandwidth>,
    /// The allocation: per-slot allocated bps from the last allocation
    /// (zero for a flow added since). A slot tombstoned since the last
    /// allocation keeps its rate until the next one, which zeroes it.
    rates_bps: Vec<f64>,
    /// Effective per-link capacities (bps) cached by the last
    /// `reallocate` — `advance` derives utilizations from these without
    /// re-querying every capacity source, and every public capacity
    /// read serves from them while `link_snapshot_current` holds.
    link_cap_bps: Vec<f64>,
    /// Per-link utilization scratch for the queueing model.
    util_scratch: Vec<f64>,
    /// Components marked dirty this tick (scratch).
    dirty_comps: Vec<u32>,
    /// Per-component dirty flags (scratch).
    comp_dirty: Vec<bool>,
    /// Per-link membership flags of `dirty_links`.
    link_dirty: Vec<bool>,
    /// Links whose `tc` cap moved since the last refresh. Trace
    /// change-points need no entry: a due trace clock reads every link.
    dirty_links: Vec<u32>,
    /// Links whose effective capacity *actually* moved in the last
    /// refresh — the O(dirty) input of the component scan.
    cap_changed: Vec<u32>,
    /// Per-flow-slot membership flags of `dirty_flows`.
    flow_dirty: Vec<bool>,
    /// Flow slots whose transmit demand may have moved since the last
    /// refresh: spec changes, queue-backlog byte movements, resets. The
    /// demand refresh narrows it to the slots whose demand *actually*
    /// moved — the component scan's input, as `cap_changed` is for links.
    dirty_flows: Vec<u32>,
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
        if !topo.is_connected() {
            return Err(MeshError::NotConnected);
        }
        let routes = RoutingTable::compute(&topo);
        let link_caps = (0..topo.link_count())
            .map(|_| LinkCapacity::new(CapacitySource::Constant(Bandwidth::ZERO)))
            .collect();
        let link_count = topo.link_count();
        Ok(Mesh {
            topo,
            routes,
            link_caps,
            egress_caps: BTreeMap::new(),
            flows: FlowTable::default(),
            next_flow: 0,
            now: SimTime::ZERO,
            allocated: true,
            link_used_bps: vec![0.0; link_count],
            obs_cap_snapshot: None,
            obs_flow_sig: None,
            down_nodes: BTreeSet::new(),
            down_links: BTreeSet::new(),
            trace_freeze: BTreeMap::new(),
            trace_clock: None,
            trace_cursor: vec![0; link_count],
            reference: false,
            index: AllocIndex { dirty: true, ..AllocIndex::default() },
            scratch: AllocScratch::default(),
            demands_scratch: Vec::new(),
            rates_bps: Vec::new(),
            link_cap_bps: vec![0.0; link_count],
            util_scratch: vec![0.0; link_count],
            dirty_comps: Vec::new(),
            comp_dirty: Vec::new(),
            link_dirty: vec![false; link_count],
            dirty_links: Vec::new(),
            cap_changed: Vec::new(),
            flow_dirty: Vec::new(),
            dirty_flows: Vec::new(),
        })
    }

    /// Switches this mesh to the dense reference allocator for the rest
    /// of its life. Test support: the equivalence batteries flag one
    /// mesh before handing it to the code under test and require the
    /// production run to match it bit for bit. The reference maintains
    /// none of the production path's dirty-set state, so there is no way
    /// back.
    #[doc(hidden)]
    pub fn use_reference_allocator(&mut self) {
        self.reference = true;
        // The reference never rebuilds the index; a stale one is never
        // patched either.
        self.index.dirty = true;
    }

    /// Creates a mesh where every link has the same constant capacity
    /// (the microbenchmark LAN shape).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::NotConnected`] for disconnected topologies.
    pub fn with_uniform_capacity(topo: Topology, capacity: Bandwidth) -> Result<Self, MeshError> {
        let mut mesh = Mesh::new(topo)?;
        for cap in &mut mesh.link_caps {
            cap.set_source(CapacitySource::Constant(capacity));
        }
        Ok(mesh)
    }

    /// Creates a mesh whose link capacities replay a [`TraceBundle`];
    /// every link must have a trace under [`TraceBundle::link_key`].
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::NotConnected`] or [`MeshError::MissingTrace`].
    pub fn from_bundle(topo: Topology, bundle: &TraceBundle) -> Result<Self, MeshError> {
        let mut mesh = Mesh::new(topo)?;
        for (lid, link) in mesh.topo.links().collect::<Vec<_>>() {
            let key = TraceBundle::link_key(link.a.0, link.b.0);
            let trace = bundle
                .get(&key)
                .ok_or_else(|| MeshError::MissingTrace(key.clone()))?;
            mesh.link_caps[lid.0].set_source(CapacitySource::Trace(trace.clone()));
        }
        Ok(mesh)
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Borrow the topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The hop-latency model in use.
    pub fn hop_latency(&self) -> HopLatency {
        HopLatency::default()
    }

    // ----- fault state ------------------------------------------------------

    /// Marks a node up or down. A down node's links all become unusable:
    /// routes avoid them, its flows lose their allocation, and capacity
    /// queries report zero. Routes and flow paths are recomputed.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownNode`] if the node does not exist.
    pub fn set_node_up(&mut self, node: NodeId, up: bool) -> Result<(), MeshError> {
        if !self.topo.contains_node(node) {
            return Err(MeshError::UnknownNode(node));
        }
        let changed = if up {
            self.down_nodes.remove(&node)
        } else {
            self.down_nodes.insert(node)
        };
        if changed {
            self.recompute_routes_and_flows();
            self.reallocate();
        }
        Ok(())
    }

    /// Marks the link between `a` and `b` up or down, independent of the
    /// endpoints' node state. Routes and flow paths are recomputed.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) -> Result<(), MeshError> {
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        let changed = if up {
            self.down_links.remove(&lid)
        } else {
            self.down_links.insert(lid)
        };
        if changed {
            self.recompute_routes_and_flows();
            self.reallocate();
        }
        Ok(())
    }

    /// True when the node exists and is not crashed.
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.topo.contains_node(node) && !self.down_nodes.contains(&node)
    }

    /// True when the link exists, is not down, and neither endpoint is
    /// crashed.
    pub fn link_is_up(&self, a: NodeId, b: NodeId) -> bool {
        match self.topo.find_link(a, b) {
            Some(lid) => self.usable(lid),
            None => false,
        }
    }

    /// Freezes the link's trace feed at the current time: until unfrozen,
    /// capacity reads replay the instant of the freeze (a stale
    /// telemetry feed). Up/down state still applies on top.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn freeze_link_trace(&mut self, a: NodeId, b: NodeId) -> Result<(), MeshError> {
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        self.trace_freeze.entry(lid).or_insert(self.now);
        self.trace_clock = None;
        self.reallocate();
        Ok(())
    }

    /// Reverses [`freeze_link_trace`](Self::freeze_link_trace).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn unfreeze_link_trace(&mut self, a: NodeId, b: NodeId) -> Result<(), MeshError> {
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        self.trace_freeze.remove(&lid);
        self.trace_clock = None;
        self.reallocate();
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
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        Ok(self.link_capacity_now(lid))
    }

    /// True when the link and both its endpoints are up.
    fn usable(&self, lid: LinkId) -> bool {
        if self.down_links.contains(&lid) {
            return false;
        }
        let link = self.topo.link(lid);
        !self.down_nodes.contains(&link.a) && !self.down_nodes.contains(&link.b)
    }

    /// The capacity the allocator grants the link right now: zero when
    /// unusable, otherwise the source's value at `now` (or at the freeze
    /// instant for stale-trace links), with any `tc` cap applied.
    fn effective_link_capacity(&self, lid: LinkId) -> Bandwidth {
        if !self.usable(lid) {
            return Bandwidth::ZERO;
        }
        let at = self.trace_freeze.get(&lid).copied().unwrap_or(self.now);
        self.link_caps[lid.0].effective_at(at)
    }

    /// True when `link_cap_bps` holds every link's
    /// [`effective_link_capacity`](Self::effective_link_capacity) at
    /// `now`: the production allocator, a clean index, no queued `tc`
    /// change and a trace clock still ahead of `now` — exactly when
    /// `refresh_constraint_caps` would re-read nothing. Every other
    /// input of a link's capacity reallocates on the spot (freeze,
    /// up/down), stales the clock (a source swap) or dirties the index.
    fn link_snapshot_current(&self) -> bool {
        !self.reference
            && !self.index.dirty
            && self.dirty_links.is_empty()
            && self.armed_trace_clock().is_some()
    }

    /// The effective capacity of `lid` at `now`: one read of the
    /// allocator's snapshot when it is current, else the source read.
    /// Every public capacity read goes through here.
    fn link_capacity_now(&self, lid: LinkId) -> Bandwidth {
        if self.link_snapshot_current() {
            Bandwidth::from_bps(self.link_cap_bps[lid.0])
        } else {
            self.effective_link_capacity(lid)
        }
    }

    /// Routes one flow over the current table: the links it crosses and
    /// the ranks of the nodes whose egress it consumes, or `None` when no
    /// usable route exists.
    fn route_flow(&self, src: NodeId, dst: NodeId) -> Option<(Vec<LinkId>, Vec<u32>)> {
        if src == dst {
            // Loopback crosses nothing and dies with its node.
            return (!self.down_nodes.contains(&src)).then(Default::default);
        }
        let path = self.routes.path(src, dst)?;
        let links: Option<_> = path.windows(2).map(|w| self.topo.find_link(w[0], w[1])).collect();
        let egress = path[..path.len() - 1].iter().filter_map(|&n| self.routes.rank(n)).collect();
        Some((links?, egress))
    }

    /// Rebuilds the routing table honoring down links/nodes and
    /// tolerantly re-routes every flow: flows whose route vanished are
    /// parked as unroutable (zero allocation, queues preserved) and
    /// restored when a later recomputation finds a path again.
    fn recompute_routes_and_flows(&mut self) {
        self.routes = RoutingTable::compute_filtered(&self.topo, |lid| self.usable(lid));
        let routed: Vec<_> = self
            .flows
            .states
            .iter()
            .map(|f| self.route_flow(f.spec.src, f.spec.dst))
            .collect();
        for (f, r) in self.flows.states.iter_mut().zip(routed) {
            f.routable = r.is_some();
            (f.links, f.egress) = r.unwrap_or_default();
        }
        // Up/down state feeds effective capacities: the stale index
        // forces a full capacity re-read.
        self.index.dirty = true;
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
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        self.link_caps[lid.0].set_source(source);
        // A stale clock makes the next refresh read every link.
        self.trace_clock = None;
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
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        self.link_caps[lid.0].set_cap(cap);
        if !self.link_dirty[lid.0] {
            self.link_dirty[lid.0] = true;
            self.dirty_links.push(lid.0 as u32);
        }
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
        if !self.topo.contains_node(node) {
            return Err(MeshError::UnknownNode(node));
        }
        match cap {
            Some(cap) => {
                let used_bps = match self.egress_caps.get(&node) {
                    Some(e) => e.used_bps,
                    None => self.allocated_egress(node),
                };
                self.egress_caps.insert(node, EgressCap { cap, used_bps });
            }
            None => {
                self.egress_caps.remove(&node);
            }
        }
        // The egress constraint set changed shape (or value): rebuild the
        // membership index at the next allocation.
        self.index.dirty = true;
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
            if !self.topo.contains_node(n) {
                return Err(MeshError::UnknownNode(n));
            }
        }
        let routed = self.route_flow(src, dst);
        let routable = routed.is_some();
        let (links, egress) = routed.unwrap_or_default();
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        let flow = FlowState {
            spec: FlowSpec { src, dst, demand },
            links,
            egress,
            queue: FlowQueue::new(),
            routable,
        };
        if !self.index.dirty {
            // Patch, don't rebuild: append the slot's row, extend every
            // per-slot vector, and let the demand diff read it in.
            let slot = self.index.add(&flow);
            debug_assert_eq!(slot, self.flows.ids.len());
            self.demands_scratch.push(Bandwidth::ZERO);
            self.flow_dirty.push(false);
            self.mark_slot_demand_dirty(slot);
        }
        self.flows.push(id, flow);
        self.rates_bps.push(0.0);
        self.allocated = false;
        Ok(id)
    }

    /// Updates a flow's offered demand.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownFlow`] for unknown ids.
    pub fn set_flow_demand(&mut self, id: FlowId, demand: Bandwidth) -> Result<(), MeshError> {
        let slot = self.flows.live_slot(id).ok_or(MeshError::UnknownFlow(id))?;
        let flow = &mut self.flows.states[slot];
        // The emulator re-pushes every demand every tick; only a bitwise
        // change dirties the slot (the common tick marks nothing).
        let changed = flow.spec.demand.as_bps().to_bits() != demand.as_bps().to_bits();
        flow.spec.demand = demand;
        if changed {
            self.mark_slot_demand_dirty(slot);
        }
        Ok(())
    }

    /// Removes a flow, dropping its queue. Its rate stays readable
    /// through [`flow_rate`](Self::flow_rate) until the next allocation.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownFlow`] for unknown ids.
    pub fn remove_flow(&mut self, id: FlowId) -> Result<(), MeshError> {
        let slot = self.flows.live_slot(id).ok_or(MeshError::UnknownFlow(id))?;
        self.flows.tombstone(slot);
        self.allocated = false;
        if !self.index.dirty {
            // Out of the index; the demand diff zeroes the slot's rate.
            self.index.remove(slot);
            self.demands_scratch[slot] = Bandwidth::ZERO;
            self.mark_slot_demand_dirty(slot);
            // Compact once dead slots outnumber live ones (a fixed
            // growth rule, like `Vec` doubling).
            if self.flows.dead > self.flows.len() {
                self.index.dirty = true;
            }
        }
        Ok(())
    }

    /// Clears a flow's queue backlog (connection re-establishment after a
    /// component restart).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownFlow`] for unknown ids.
    pub fn reset_flow_queue(&mut self, id: FlowId) -> Result<(), MeshError> {
        let slot = self.flows.live_slot(id).ok_or(MeshError::UnknownFlow(id))?;
        self.flows.states[slot].queue.reset();
        // Dropping the backlog moves the drain demand.
        self.mark_slot_demand_dirty(slot);
        Ok(())
    }

    /// The spec of a flow.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownFlow`] for unknown ids.
    pub fn flow_spec(&self, id: FlowId) -> Result<FlowSpec, MeshError> {
        self.flows
            .get(id)
            .map(|f| f.spec)
            .ok_or(MeshError::UnknownFlow(id))
    }

    /// Number of registered flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    // ----- stepping ---------------------------------------------------------

    /// Advances simulation time by `dt`: refresh capacities, recompute
    /// the fair allocation, and integrate queues.
    pub fn advance(&mut self, dt: SimDuration) {
        self.advance_profiled(dt, None, None);
    }

    /// [`advance`](Self::advance) with optional journal emission and span
    /// profiling. With both `None` this *is* `advance` — the profiler is
    /// threaded as `Option` so the hot path pays one branch per phase
    /// and never reads a clock when profiling is off. Spans recorded
    /// (see `docs/OBSERVABILITY.md`): the `mesh.*` allocation phases via
    /// [`reallocate_profiled`](Self::reallocate_profiled), plus
    /// `mesh.queues` (queue integration) and `mesh.obs_emit` (journal
    /// diffing) here.
    pub fn advance_profiled(
        &mut self,
        dt: SimDuration,
        journal: Option<&mut bass_obs::Journal>,
        mut profiler: Option<&mut bass_obs::SpanProfiler>,
    ) {
        self.now += dt;
        self.reallocate_profiled(profiler.as_deref_mut());
        let mut clock = bass_obs::PhaseClock::new(profiler.is_some());
        self.advance_queues(dt);
        clock.lap(profiler.as_deref_mut(), "mesh.queues");
        if let Some(j) = journal {
            self.emit_capacity_changes(j, "trace");
            self.emit_flow_rate_recompute(j);
            clock.lap(profiler, "mesh.obs_emit");
        }
    }

    /// The queue pass: derive every link's utilization, advance every
    /// flow queue, and feed each backlog that moved into the dirty-flow
    /// set of the next demand diff.
    fn advance_queues(&mut self, dt: SimDuration) {
        let link_count = self.topo.link_count();
        // Per-link utilization for the queueing model, derived from the
        // effective capacities `reallocate` just cached (same instant,
        // so no capacity source is queried twice per tick).
        self.util_scratch.resize(link_count, 0.0);
        for i in 0..link_count {
            let cap = self.link_cap_bps[i];
            self.util_scratch[i] = if cap <= f64::EPSILON {
                if self.link_used_bps[i] > 0.0 {
                    1.0
                } else {
                    0.0
                }
            } else {
                (self.link_used_bps[i] / cap).clamp(0.0, 1.0)
            };
        }
        // Backlog movements feed the demand dirty set whenever the index
        // is clean; under a stale index (or on the reference) the next
        // refresh is full anyway.
        let track = !self.index.dirty;
        debug_assert!(self.allocated);
        let FlowTable { live, states, .. } = &mut self.flows;
        for (s, flow) in states.iter_mut().enumerate() {
            if !live[s] {
                continue;
            }
            let before = flow.queue.backlog().as_bytes();
            let allocated = Bandwidth::from_bps(self.rates_bps[s]);
            flow.queue.advance(dt, flow.spec.demand, allocated);
            let rho = flow
                .links
                .iter()
                .map(|l| self.util_scratch[l.0])
                .fold(0.0f64, f64::max);
            flow.queue.set_path_utilization(rho);
            if track && flow.queue.backlog().as_bytes() != before && !self.flow_dirty[s] {
                self.flow_dirty[s] = true;
                self.dirty_flows.push(s as u32);
            }
        }
    }

    /// Whether one `dt`-long [`advance`](Self::advance) would leave
    /// every flow queue bitwise unchanged, assuming no step input moves
    /// (`SimEnv::skippable_ticks` separately proves that). When true —
    /// and it stays true, since nothing else changed — a whole window of
    /// ticks reduces to moving the clock, which is exactly what
    /// [`advance_quiescent`](Self::advance_quiescent) does.
    pub fn queues_quiescent(&self, dt: SimDuration) -> bool {
        if !self.allocated {
            // Flows were added or removed since the last allocation
            // (before the first tick included), so some rate is stale —
            // a full step would change state, so nothing is skippable.
            return false;
        }
        self.flows.live_slots().all(|s| {
            let f = &self.flows.states[s];
            let allocated = Bandwidth::from_bps(self.rates_bps[s]);
            f.queue.advance_is_identity(dt, f.spec.demand, allocated)
        })
    }

    /// Earliest change-point strictly after `now` across every unfrozen
    /// traced link, or `None` when all capacities are constant from `now`
    /// on. Frozen links read their capacity at the freeze time, so their
    /// traces cannot change anything until unfrozen.
    ///
    /// O(1) while the trace clock is fresh: it holds the earliest
    /// change-point after the last full capacity read, and no
    /// change-point lies between that read and a clock still ahead of
    /// `now`, so the clock is also the earliest one after `now`.
    /// Otherwise — stale clock, a clock `now` has reached, or the dense
    /// reference, which never arms it — every link is scanned.
    pub fn next_trace_change(&self) -> Option<SimTime> {
        self.armed_trace_clock().unwrap_or_else(|| self.scan_trace_change())
    }

    /// The trace clock while it still answers for `now` — armed and not
    /// yet reached; `None` when stale or due.
    fn armed_trace_clock(&self) -> Option<Option<SimTime>> {
        self.trace_clock.filter(|next| next.is_none_or(|t| t > self.now))
    }

    /// The stale-clock fallback of [`next_trace_change`](Self::next_trace_change):
    /// the earliest change-point strictly after `now` across every
    /// unfrozen traced link, one binary search per link. The full
    /// capacity re-read arms the clock with the same answer from its
    /// cursors.
    fn scan_trace_change(&self) -> Option<SimTime> {
        self.link_caps
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.trace_freeze.contains_key(&LinkId(i)))
            .filter_map(|(_, lc)| match lc.source() {
                CapacitySource::Trace(trace) => trace.next_change_after(self.now),
                _ => None,
            })
            .min()
    }

    /// Advances the clock by `dt` without touching capacities,
    /// allocations, or queues. Only sound for a tick the caller has
    /// proven quiescent — every step input bitwise unchanged and
    /// [`queues_quiescent`](Self::queues_quiescent) — in which case a
    /// full [`advance`](Self::advance) would recompute the identity.
    pub fn advance_quiescent(&mut self, dt: SimDuration) {
        self.now += dt;
    }

    /// Recomputes the allocation at the current time without advancing
    /// queues (useful right after changing demands or capacities).
    pub fn reallocate(&mut self) {
        self.reallocate_profiled(None);
    }

    /// [`reallocate`](Self::reallocate) with span profiling. A tick that
    /// found the membership index stale records `mesh.index_rebuild`,
    /// `mesh.trace_refresh` (the full capacity re-read),
    /// `mesh.water_fill` (every component) and `mesh.usage_views`; any
    /// other tick records `mesh.index_patch` (only when flows were added
    /// or removed since the last allocation), `mesh.cap_diff` (every link
    /// once the trace clock is due or stale, else the capped links),
    /// `mesh.demand_diff`, `mesh.component_scan`, `mesh.water_fill` (the
    /// dirty components only) and `mesh.usage_views`. The test reference
    /// records one `mesh.dense_realloc` span.
    pub fn reallocate_profiled(&mut self, profiler: Option<&mut bass_obs::SpanProfiler>) {
        if self.reference {
            let _span = bass_obs::SpanProfiler::span(profiler, "mesh.dense_realloc");
            self.reallocate_dense();
        } else {
            self.reallocate_dirty(profiler);
        }
        self.allocated = true;
    }

    /// The transmit demand of one flow: offered load plus bandwidth to
    /// drain any queued backlog within one second — this is how a real
    /// transport keeps transmitting a queue even after the application
    /// stops producing. An unroutable flow transmits nothing at all.
    fn transmit_demand(f: &FlowState) -> Bandwidth {
        if !f.routable {
            Bandwidth::ZERO
        } else {
            f.spec.demand + f.queue.backlog().rate_over(SimDuration::from_secs(1))
        }
    }

    /// Marks one slot's transmit demand as needing a refresh at the next
    /// allocation. Under a stale index the next allocation re-reads every
    /// demand anyway, so nothing is recorded.
    fn mark_slot_demand_dirty(&mut self, slot: usize) {
        if !self.index.dirty && !self.flow_dirty[slot] {
            self.flow_dirty[slot] = true;
            self.dirty_flows.push(slot as u32);
        }
    }

    /// Capacity refresh into the index's constraints, recording in
    /// `cap_changed` every link whose effective capacity moved. Reads
    /// every link (and every egress cap) when the index was just
    /// `rebuilt`, when the trace clock is stale or when `now` has
    /// reached it, and re-arms the clock from that same pass: each
    /// unfrozen link reads its source forward from its sample cursor —
    /// O(links + samples crossed) — and yields its next change-point;
    /// a frozen link reads its freeze instant and has no change-point.
    /// Otherwise it reads only `dirty_links`: under a clean index and a
    /// clock still ahead of `now`, no other link's capacity can have
    /// moved — and with none queued the snapshot is current and nothing
    /// is read.
    fn refresh_constraint_caps(&mut self, rebuilt: bool) {
        self.cap_changed.clear();
        if !rebuilt && self.link_snapshot_current() {
            return;
        }
        if rebuilt || self.armed_trace_clock().is_none() {
            let link_count = self.topo.link_count();
            let mut clock: Option<SimTime> = None;
            for i in 0..link_count {
                let lid = LinkId(i);
                let cap = if self.trace_freeze.contains_key(&lid) {
                    self.effective_link_capacity(lid)
                } else {
                    let (cap, next) =
                        self.link_caps[i].read_forward(self.now, &mut self.trace_cursor[i]);
                    clock = match (clock, next) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                    if self.usable(lid) { cap } else { Bandwidth::ZERO }
                };
                let bps = cap.as_bps();
                debug_assert_eq!(
                    bps.to_bits(),
                    self.effective_link_capacity(lid).as_bps().to_bits()
                );
                if bps.to_bits() != self.link_cap_bps[i].to_bits() {
                    self.link_cap_bps[i] = bps;
                    self.cap_changed.push(i as u32);
                }
            }
            let (link_cons, egress_cons) = self.index.constraints.split_at_mut(link_count);
            for (c, &bps) in link_cons.iter_mut().zip(&self.link_cap_bps) {
                c.capacity = Bandwidth::from_bps(bps);
            }
            for (c, e) in egress_cons.iter_mut().zip(self.egress_caps.values()) {
                c.capacity = e.cap;
            }
            debug_assert_eq!(clock, self.scan_trace_change());
            self.trace_clock = Some(clock);
        } else {
            for k in 0..self.dirty_links.len() {
                let l = self.dirty_links[k] as usize;
                let bps = self.effective_link_capacity(LinkId(l)).as_bps();
                if bps.to_bits() != self.link_cap_bps[l].to_bits() {
                    self.link_cap_bps[l] = bps;
                    self.index.constraints[l].capacity = Bandwidth::from_bps(bps);
                    self.cap_changed.push(l as u32);
                }
            }
        }
        for k in 0..self.dirty_links.len() {
            self.link_dirty[self.dirty_links[k] as usize] = false;
        }
        self.dirty_links.clear();
    }

    /// Rewrites every slot of `demands_scratch` for a freshly rebuilt
    /// index (and compacted table) and resets the dirty-flow set to
    /// empty.
    fn refresh_demands(&mut self) {
        self.demands_scratch.clear();
        for f in &self.flows.states {
            self.demands_scratch.push(Self::transmit_demand(f));
        }
        self.dirty_flows.clear();
        self.flow_dirty.clear();
        self.flow_dirty.resize(self.flows.states.len(), false);
    }

    /// O(dirty) demand refresh over the slots in `dirty_flows` — under a
    /// clean index an exhaustive list of every slot that can have moved.
    /// Each live slot's transmit demand is bit-compared against
    /// `demands_scratch` (which holds exactly what the last allocation
    /// filled with) before it is overwritten. A slot tombstoned since the
    /// last allocation (which `remove_flow` marked) keeps the zero demand
    /// it wrote, and its rate is zeroed here. Clears every flag and leaves
    /// in `dirty_flows` only the slots whose demand moved, for the
    /// component scan.
    fn refresh_demands_dirty(&mut self) {
        let mut moved = 0;
        for k in 0..self.dirty_flows.len() {
            let slot = self.dirty_flows[k] as usize;
            self.flow_dirty[slot] = false;
            if !self.flows.live[slot] {
                self.rates_bps[slot] = 0.0;
                continue;
            }
            let demand = Self::transmit_demand(&self.flows.states[slot]);
            if demand.as_bps().to_bits() != self.demands_scratch[slot].as_bps().to_bits() {
                self.demands_scratch[slot] = demand;
                self.dirty_flows[moved] = slot as u32;
                moved += 1;
            }
        }
        self.dirty_flows.truncate(moved);
    }

    /// Recomputes the link usage view and every capped node's egress
    /// usage from `rates_bps`, each as its constraint's member sum.
    /// Members are live slots in ascending flow order, so the float
    /// accumulation order matches the reference path's flow-major loop
    /// exactly.
    fn update_usage_views(&mut self, link_count: usize) {
        let (link_cons, egress_cons) = self.index.constraints.split_at(link_count);
        self.link_used_bps.resize(link_count, 0.0);
        for (used, c) in self.link_used_bps.iter_mut().zip(link_cons) {
            *used = member_sum(c, &self.rates_bps);
        }
        for (e, c) in self.egress_caps.values_mut().zip(egress_cons) {
            e.used_bps = member_sum(c, &self.rates_bps);
        }
    }

    /// The production allocator. Under a stale index: rebuild it,
    /// re-read every capacity and demand, and fill every component in
    /// canonical order. Otherwise: diff link capacities against the
    /// cached `link_cap_bps` and transmit demands against
    /// `demands_scratch` (bit-compare — the common quiescent tick marks
    /// nothing), refill only the dirty components, and keep every other
    /// component's rates verbatim.
    fn reallocate_dirty(&mut self, mut profiler: Option<&mut bass_obs::SpanProfiler>) {
        let mut clock = bass_obs::PhaseClock::new(profiler.is_some());
        let link_count = self.topo.link_count();
        if self.index.dirty {
            let capped: Vec<u32> =
                self.egress_caps.keys().filter_map(|&n| self.routes.rank(n)).collect();
            self.index.rebuild(link_count, &mut self.flows, capped);
            clock.lap(profiler.as_deref_mut(), "mesh.index_rebuild");
            self.refresh_constraint_caps(true);
            clock.lap(profiler.as_deref_mut(), "mesh.trace_refresh");
            self.refresh_demands();
            max_min_allocate_components(
                &self.demands_scratch,
                &self.index.constraints,
                &self.index.flow_cons_off,
                &self.index.flow_cons,
                &self.index.comps,
                &mut self.scratch,
                &mut self.rates_bps,
            );
            clock.lap(profiler.as_deref_mut(), "mesh.water_fill");
            self.update_usage_views(link_count);
            clock.lap(profiler, "mesh.usage_views");
            return;
        }

        let index = &mut self.index;
        if index.comps.patch_pending() {
            index
                .comps
                .patch(&index.flow_cons_off, &index.flow_cons, &mut index.repatched);
            clock.lap(profiler.as_deref_mut(), "mesh.index_patch");
        }
        self.refresh_constraint_caps(false);
        clock.lap(profiler.as_deref_mut(), "mesh.cap_diff");
        self.refresh_demands_dirty();
        clock.lap(profiler.as_deref_mut(), "mesh.demand_diff");

        // Dirty-component scan: a component the index patch re-derived,
        // a constraint whose capacity moved or a flow whose demand moved
        // (backlog drain included) dirties its component. Unconstrained
        // flows are re-granted directly. The scan touches only the
        // patched constraints and what the two refreshes observed moving
        // (`cap_changed`, and `dirty_flows` as narrowed by the demand
        // refresh — both hold only bits that moved, so there is nothing
        // left to compare) — O(dirty), not O(F + L).
        self.comp_dirty.clear();
        self.comp_dirty.resize(self.index.comps.component_count(), false);
        self.dirty_comps.clear();
        let changed = self.cap_changed.iter().map(|&l| l as usize);
        for ci in self.index.repatched.iter().copied().chain(changed) {
            if !self.index.constraints[ci].members.is_empty() {
                let comp = self.index.comps.constraint_component(ci);
                if !self.comp_dirty[comp as usize] {
                    self.comp_dirty[comp as usize] = true;
                    self.dirty_comps.push(comp);
                }
            }
        }
        self.index.repatched.clear();
        for k in 0..self.dirty_flows.len() {
            let i = self.dirty_flows[k] as usize;
            let comp = self.index.comps.flow_component(i);
            if comp == NO_COMPONENT {
                self.rates_bps[i] = unconstrained_rate(self.demands_scratch[i]);
            } else if !self.comp_dirty[comp as usize] {
                self.comp_dirty[comp as usize] = true;
                self.dirty_comps.push(comp);
            }
        }
        self.dirty_flows.clear();
        clock.lap(profiler.as_deref_mut(), "mesh.component_scan");

        for k in 0..self.dirty_comps.len() {
            refill_component_into(
                self.dirty_comps[k],
                &self.demands_scratch,
                &self.index.constraints,
                &self.index.flow_cons_off,
                &self.index.flow_cons,
                &self.index.comps,
                &mut self.scratch,
                &mut self.rates_bps,
            );
        }
        clock.lap(profiler.as_deref_mut(), "mesh.water_fill");

        self.update_usage_views(link_count);
        clock.lap(profiler, "mesh.usage_views");
    }

    /// The test reference, kept verbatim from before the persistent
    /// index existed (fresh buffers, per-tick membership scans, the dense
    /// water-fill) so the equivalence batteries can replay any schedule
    /// through both paths. Reached only via
    /// [`use_reference_allocator`](Self::use_reference_allocator).
    fn reallocate_dense(&mut self) {
        self.flows.compact();
        let flows = &self.flows.states;
        let demands: Vec<Bandwidth> = flows
            .iter()
            .map(|f| {
                if !f.routable {
                    // No route: the flow transmits nothing at all.
                    return Bandwidth::ZERO;
                }
                let drain = f.queue.backlog().rate_over(SimDuration::from_secs(1));
                f.spec.demand + drain
            })
            .collect();

        self.link_cap_bps.resize(self.topo.link_count(), 0.0);
        let mut constraints = Vec::new();
        // One constraint per link.
        for (lid, _) in self.topo.links() {
            let capacity = self.effective_link_capacity(lid);
            self.link_cap_bps[lid.0] = capacity.as_bps();
            let members: Vec<usize> = flows
                .iter()
                .enumerate()
                .filter(|(_, f)| f.links.contains(&lid))
                .map(|(i, _)| i)
                .collect();
            constraints.push(Constraint { capacity, members });
        }
        // One constraint per node egress cap.
        for (&node, e) in &self.egress_caps {
            let rank = self.routes.rank(node);
            let members: Vec<usize> = flows
                .iter()
                .enumerate()
                .filter(|(_, f)| rank.is_some_and(|r| f.egress.contains(&r)))
                .map(|(i, _)| i)
                .collect();
            constraints.push(Constraint { capacity: e.cap, members });
        }

        let rates = max_min_allocate_dense(&demands, &constraints);
        self.rates_bps.clear();
        self.rates_bps.extend(rates.iter().map(|r| r.as_bps()));

        // Per-link and capped-node egress usage for monitoring.
        self.link_used_bps = vec![0.0; self.topo.link_count()];
        for (i, f) in flows.iter().enumerate() {
            for lid in &f.links {
                self.link_used_bps[lid.0] += self.rates_bps[i];
            }
        }
        let egress_cons = &constraints[self.topo.link_count()..];
        for (e, c) in self.egress_caps.values_mut().zip(egress_cons) {
            e.used_bps = member_sum(c, &self.rates_bps);
        }
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
        let caps: Vec<f64> = (0..self.topo.link_count())
            .map(|i| self.link_capacity_now(LinkId(i)).as_mbps())
            .collect();
        match self.obs_cap_snapshot.as_mut() {
            None => self.obs_cap_snapshot = Some(caps),
            Some(prev) => {
                for (lid, link) in self.topo.links() {
                    let old = prev[lid.0];
                    let new = caps[lid.0];
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
                *prev = caps;
            }
        }
    }

    /// Emits a [`FlowRateRecomputed`](bass_obs::Event::FlowRateRecomputed)
    /// event if the flow count changed or total demand/allocation moved
    /// by more than 0.1% since the last reported picture.
    fn emit_flow_rate_recompute(&mut self, journal: &mut bass_obs::Journal) {
        fn moved(old: f64, new: f64) -> bool {
            (new - old).abs() / old.abs().max(1e-9) > 0.001
        }
        let flows = self.flows.len() as u32;
        let demand_mbps: f64 = self
            .flows
            .live_slots()
            .map(|s| self.flows.states[s].spec.demand.as_mbps())
            .sum();
        let allocated_mbps: f64 = self
            .flows
            .live_slots()
            .map(|s| Bandwidth::from_bps(self.rates_bps[s]).as_mbps())
            .sum();
        let changed = match self.obs_flow_sig {
            None => flows > 0,
            Some((f, d, a)) => f != flows || moved(d, demand_mbps) || moved(a, allocated_mbps),
        };
        if changed {
            let saturated_links = (0..self.topo.link_count())
                .filter(|&i| {
                    let cap = self.link_capacity_now(LinkId(i)).as_bps();
                    cap > 0.0 && self.link_used_bps[i] >= 0.999 * cap
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
        self.flows
            .slot(id)
            .map_or(Bandwidth::ZERO, |s| Bandwidth::from_bps(self.rates_bps[s]))
    }

    /// A registered flow's spec and allocated rate.
    fn flow_and_rate(&self, id: FlowId) -> Option<(&FlowState, Bandwidth)> {
        let s = self.flows.live_slot(id)?;
        Some((&self.flows.states[s], Bandwidth::from_bps(self.rates_bps[s])))
    }

    /// A flow's goodput: the smaller of demand and allocation.
    pub fn flow_goodput(&self, id: FlowId) -> Bandwidth {
        match self.flow_and_rate(id) {
            Some((f, rate)) => f.spec.demand.min(rate),
            None => Bandwidth::ZERO,
        }
    }

    /// Loss fraction for a flow treated as real-time traffic.
    pub fn flow_loss(&self, id: FlowId) -> f64 {
        match self.flow_and_rate(id) {
            Some((f, rate)) => FlowQueue::loss_fraction(f.spec.demand, rate),
            None => 0.0,
        }
    }

    /// End-to-end delay to deliver a message of `size` on a flow at the
    /// current allocation (queueing + serialization + hop latency).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownFlow`] for unknown ids.
    pub fn flow_message_delay(&self, id: FlowId, size: DataSize) -> Result<SimDuration, MeshError> {
        let (flow, allocated) = self.flow_and_rate(id).ok_or(MeshError::UnknownFlow(id))?;
        if !flow.routable {
            // Severed by faults: nothing is delivered until a route
            // returns, so report the dead-path cap.
            return Ok(crate::queueing::MAX_DELAY);
        }
        let hops = flow.links.len();
        if hops == 0 {
            // Loopback: pure local latency plus negligible copy time.
            return Ok(self.hop_latency().for_hops(0));
        }
        let capacity = flow
            .links
            .iter()
            .map(|l| self.link_capacity_now(*l))
            .fold(Bandwidth::from_bps(f64::INFINITY), Bandwidth::min);
        Ok(flow.queue.transfer_delay(size, capacity, allocated) + self.hop_latency().for_hops(hops))
    }

    /// A flow's current queue backlog.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownFlow`] for unknown ids.
    pub fn flow_backlog(&self, id: FlowId) -> Result<DataSize, MeshError> {
        self.flows
            .get(id)
            .map(|f| f.queue.backlog())
            .ok_or(MeshError::UnknownFlow(id))
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
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        Ok(self.link_capacity_by_id(lid))
    }

    /// [`link_capacity`](Self::link_capacity) of the link with id `lid`
    /// — O(1) while the allocator's capacity snapshot is current.
    ///
    /// # Panics
    ///
    /// Panics if `lid` is not a link of this mesh's topology.
    pub fn link_capacity_by_id(&self, lid: LinkId) -> Bandwidth {
        let link = self.topo.link(lid);
        let mut cap = self.link_capacity_now(lid);
        for n in [link.a, link.b] {
            if let Some(e) = self.egress_caps.get(&n) {
                cap = cap.min(e.cap);
            }
        }
        cap
    }

    /// Allocated traffic currently crossing the link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn link_usage(&self, a: NodeId, b: NodeId) -> Result<Bandwidth, MeshError> {
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        Ok(Bandwidth::from_bps(self.link_used_bps[lid.0]))
    }

    /// Spare capacity on the link between `a` and `b`: the link's own
    /// headroom, further limited by the spare egress at either capped
    /// endpoint (what a probe over this link could actually push).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn link_available(&self, a: NodeId, b: NodeId) -> Result<Bandwidth, MeshError> {
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        Ok(self.link_available_by_id(lid))
    }

    /// [`link_available`](Self::link_available) of the link with id
    /// `lid` — O(1) while the allocator's capacity snapshot is current.
    ///
    /// # Panics
    ///
    /// Panics if `lid` is not a link of this mesh's topology.
    pub fn link_available_by_id(&self, lid: LinkId) -> Bandwidth {
        let link = self.topo.link(lid);
        let mut avail = self
            .link_capacity_now(lid)
            .saturating_sub(Bandwidth::from_bps(self.link_used_bps[lid.0]));
        for n in [link.a, link.b] {
            if let Some(e) = self.egress_caps.get(&n) {
                avail = avail.min(e.available());
            }
        }
        avail
    }

    /// Allocated bps the rates in `rates_bps` send out of `node`, summed
    /// in slot order — the last allocation's egress usage of the node:
    /// a slot tombstoned since keeps its rate, one added since has none.
    fn allocated_egress(&self, node: NodeId) -> f64 {
        let Some(rank) = self.routes.rank(node) else {
            return 0.0;
        };
        let mut used = 0.0;
        for (f, &rate) in self.flows.states.iter().zip(&self.rates_bps) {
            if f.egress.contains(&rank) {
                used += rate;
            }
        }
        used
    }

    /// The routed node path from `src` to `dst` (the traceroute view),
    /// walked out of the routing table into an owned vector — no path is
    /// stored between calls.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::Unreachable`] when no route exists.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Result<Vec<NodeId>, MeshError> {
        self.routes
            .path(src, dst)
            .ok_or(MeshError::Unreachable(src, dst))
    }

    /// Capacity for traffic sent from `u` across the link to `v`: the
    /// link's capacity limited by `u`'s egress cap (the transmitter's
    /// interface shaping), but not by `v`'s — receiving is not shaped.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn directed_link_capacity(&self, u: NodeId, v: NodeId) -> Result<Bandwidth, MeshError> {
        let lid = self.topo.find_link(u, v).ok_or(MeshError::UnknownLink(u, v))?;
        let mut cap = self.link_capacity_now(lid);
        if let Some(e) = self.egress_caps.get(&u) {
            cap = cap.min(e.cap);
        }
        Ok(cap)
    }

    /// Spare bandwidth for new traffic sent from `u` across the link to
    /// `v`: the link's headroom limited by `u`'s spare egress.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn directed_link_available(&self, u: NodeId, v: NodeId) -> Result<Bandwidth, MeshError> {
        let lid = self.topo.find_link(u, v).ok_or(MeshError::UnknownLink(u, v))?;
        let mut avail = self
            .link_capacity_now(lid)
            .saturating_sub(Bandwidth::from_bps(self.link_used_bps[lid.0]));
        if let Some(e) = self.egress_caps.get(&u) {
            avail = avail.min(e.available());
        }
        Ok(avail)
    }

    /// Bottleneck *capacity* along the routed path from `src` to `dst` —
    /// what a max-capacity probe of the path reports. Directional: only
    /// each hop's transmitting side's egress cap applies.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::Unreachable`] when no route exists.
    pub fn path_bottleneck_capacity(&self, src: NodeId, dst: NodeId) -> Result<Bandwidth, MeshError> {
        if src == dst {
            return Ok(Bandwidth::from_bps(f64::INFINITY));
        }
        let path = self.path(src, dst)?;
        let mut bottleneck = Bandwidth::from_bps(f64::INFINITY);
        for w in path.windows(2) {
            bottleneck = bottleneck.min(self.directed_link_capacity(w[0], w[1])?);
        }
        Ok(bottleneck)
    }

    /// Bottleneck *available* (unused) bandwidth along the routed path —
    /// what a headroom probe observes. Directional, like
    /// [`Mesh::path_bottleneck_capacity`].
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::Unreachable`] when no route exists.
    pub fn path_available(&self, src: NodeId, dst: NodeId) -> Result<Bandwidth, MeshError> {
        if src == dst {
            return Ok(Bandwidth::from_bps(f64::INFINITY));
        }
        let path = self.path(src, dst)?;
        let mut avail = Bandwidth::from_bps(f64::INFINITY);
        for w in path.windows(2) {
            avail = avail.min(self.directed_link_available(w[0], w[1])?);
        }
        Ok(avail)
    }

    /// Sum of current capacities of all links incident to `node` — the
    /// "combined capacity across all of the node's links" used by BASS's
    /// node ranking.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownNode`] if the node does not exist.
    pub fn node_total_link_capacity(&self, node: NodeId) -> Result<Bandwidth, MeshError> {
        if !self.topo.contains_node(node) {
            return Err(MeshError::UnknownNode(node));
        }
        Ok(self
            .topo
            .incident_links(node)
            .into_iter()
            .map(|l| self.link_capacity_now(l))
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_trace::{BandwidthTrace, StepScript};

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
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
        let trace: BandwidthTrace = StepScript::new("l", mbps(50.0))
            .restrict(SimTime::from_secs(10), SimDuration::from_secs(10), mbps(5.0))
            .compile(SimDuration::from_secs(60));
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
        approx(mesh.link_available(NodeId(0), NodeId(1)).unwrap(), 0.0);
    }

    #[test]
    fn path_queries() {
        let mut mesh = three_node_lan();
        let _f = mesh.add_flow(NodeId(0), NodeId(1), mbps(40.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.path_bottleneck_capacity(NodeId(0), NodeId(1)).unwrap(), 100.0);
        approx(mesh.path_available(NodeId(0), NodeId(1)).unwrap(), 60.0);
        assert_eq!(mesh.path(NodeId(0), NodeId(1)).unwrap(), &[NodeId(0), NodeId(1)]);
        assert!(mesh
            .path_available(NodeId(0), NodeId(0))
            .unwrap()
            .as_bps()
            .is_infinite());
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
    fn reset_flow_queue_clears_backlog() {
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(0), NodeId(1), mbps(200.0)).unwrap();
        mesh.advance(SimDuration::from_secs(5));
        assert!(mesh.flow_backlog(f).unwrap().as_bytes() > 0);
        mesh.reset_flow_queue(f).unwrap();
        assert_eq!(mesh.flow_backlog(f).unwrap(), DataSize::ZERO);
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
        let trace: BandwidthTrace = StepScript::new("l", mbps(50.0))
            .restrict(SimTime::from_secs(10), SimDuration::from_secs(20), mbps(5.0))
            .compile(SimDuration::from_secs(60));
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
    /// schedule on the production allocator or on the dense reference.
    fn run_schedule(reference: bool) -> Vec<(u64, f64)> {
        let mut mesh =
            Mesh::with_uniform_capacity(Topology::grid(4, 4), mbps(60.0)).unwrap();
        if reference {
            mesh.use_reference_allocator();
        }
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
        mesh.flows.live_slots().map(|s| mesh.flows.ids[s]).collect()
    }

    /// A ticked 4×4 grid carrying six flows, plus a clone of it whose
    /// index is forced stale — the next allocation rebuilds it from
    /// scratch instead of patching.
    fn patched_and_rebuilt() -> (Mesh, Mesh) {
        let mut mesh = Mesh::with_uniform_capacity(Topology::grid(4, 4), mbps(20.0)).unwrap();
        for i in 0..6u32 {
            mesh.add_flow(NodeId(i), NodeId(15 - i), mbps(4.0 + f64::from(i))).unwrap();
        }
        mesh.advance(SimDuration::from_millis(100));
        let mut rebuilt = mesh.clone();
        rebuilt.index.dirty = true;
        (mesh, rebuilt)
    }

    /// Advances both meshes one tick; rates, backlogs and link usages
    /// must agree bit for bit, and the patched partition must number its
    /// components exactly as a rebuild does.
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
        for (a, b) in patched.link_used_bps.iter().zip(&rebuilt.link_used_bps) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let (p, r) = (&patched.index.comps, &rebuilt.index.comps);
        assert_eq!(p.component_count(), r.component_count());
        for ci in 0..patched.index.constraints.len() {
            assert_eq!(p.constraint_component(ci), r.constraint_component(ci));
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
        assert_eq!(patched.flows.dead, 2);
        assert!(!patched.index.dirty);
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
        rebuilt.index.dirty = true;
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

    #[test]
    fn queues_quiescent_tracks_backlog_fixed_points() {
        let step = SimDuration::from_millis(100);
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(0), NodeId(1), mbps(30.0)).unwrap();
        // Before the first allocation nothing is provable.
        assert!(!mesh.queues_quiescent(step));
        mesh.advance(step);
        // Satisfied demand, empty queue: a tick is the identity.
        assert!(mesh.queues_quiescent(step));
        // Over-subscribe: the backlog grows every tick.
        mesh.set_link_cap(NodeId(0), NodeId(1), Some(mbps(10.0))).unwrap();
        mesh.advance(step);
        assert!(!mesh.queues_quiescent(step));
        // Drop the offered load to zero and drain. The drain targets a
        // one-second horizon, so the backlog decays geometrically and
        // only reaches the 0.0 fixed point once it underflows — finite,
        // but many ticks out.
        mesh.set_flow_demand(f, Bandwidth::ZERO).unwrap();
        let mut drained = 0u32;
        while !mesh.queues_quiescent(step) {
            mesh.advance(step);
            drained += 1;
            assert!(drained < 50_000, "backlog never reached a fixed point");
        }
    }

    #[test]
    fn queues_quiescent_is_false_after_a_same_size_flow_swap() {
        let step = SimDuration::from_millis(100);
        let mut mesh = three_node_lan();
        mesh.set_link_cap(NodeId(0), NodeId(2), Some(mbps(10.0))).unwrap();
        let a = mesh.add_flow(NodeId(0), NodeId(1), mbps(50.0)).unwrap();
        mesh.advance(step);
        assert!(mesh.queues_quiescent(step));
        // One flow out, one in, no tick between: the flow count is
        // unchanged, but B has no rate yet — A's 50 Mbps is not B's.
        mesh.remove_flow(a).unwrap();
        let b = mesh.add_flow(NodeId(0), NodeId(2), mbps(40.0)).unwrap();
        assert_eq!(mesh.flow_count(), 1);
        assert!(!mesh.queues_quiescent(step));
        mesh.advance(step);
        assert!(mesh.flow_backlog(b).unwrap().as_bytes() > 0, "B outgrows its 10 Mbps link");
    }

    #[test]
    fn capping_a_node_after_removing_its_flow_reads_the_last_allocation() {
        let step = SimDuration::from_millis(100);
        let (mut reference, mut production) = (three_node_lan(), three_node_lan());
        reference.use_reference_allocator();
        let removed = FlowId(2);
        for m in [&mut reference, &mut production] {
            for (dst, demand) in [(0, 0.1), (1, 0.2), (0, 0.3), (1, 0.7)] {
                m.add_flow(NodeId(2), NodeId(dst), mbps(demand)).unwrap();
            }
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
                m.link_available(NodeId(2), NodeId(0)).unwrap(),
                m.link_available(NodeId(1), NodeId(2)).unwrap(),
                m.directed_link_available(NodeId(2), NodeId(1)).unwrap(),
            ]
            .map(bits)
        };
        assert_eq!(reads(&reference), reads(&production));
        approx(production.link_available(NodeId(2), NodeId(0)).unwrap(), 20.0 - 1.3);
        for m in [&mut reference, &mut production] {
            m.advance(step);
        }
        assert_eq!(reads(&reference), reads(&production));
        assert_eq!(production.flow_rate(removed), Bandwidth::ZERO);
    }

    #[test]
    fn next_trace_change_skips_frozen_links() {
        let mut topo = Topology::new();
        topo.add_node(NodeId(0)).unwrap();
        topo.add_node(NodeId(1)).unwrap();
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        let trace: BandwidthTrace = StepScript::new("l", mbps(50.0))
            .restrict(SimTime::from_secs(10), SimDuration::from_secs(10), mbps(5.0))
            .compile(SimDuration::from_secs(60));
        let mut mesh = Mesh::new(topo).unwrap();
        mesh.set_link_source(NodeId(0), NodeId(1), CapacitySource::Trace(trace))
            .unwrap();
        let first = mesh.next_trace_change().unwrap();
        assert!(first > SimTime::ZERO && first <= SimTime::from_secs(10));
        // A frozen link's trace can no longer change any capacity read.
        mesh.freeze_link_trace(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(mesh.next_trace_change(), None);
        mesh.unfreeze_link_trace(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(mesh.next_trace_change(), Some(first));
        // Constant-capacity meshes never schedule a trace change.
        assert_eq!(three_node_lan().next_trace_change(), None);
    }

    #[test]
    fn advance_quiescent_matches_a_full_tick_bit_for_bit() {
        let step = SimDuration::from_millis(100);
        let mut ticked = three_node_lan();
        let f = ticked.add_flow(NodeId(0), NodeId(1), mbps(30.0)).unwrap();
        ticked.advance(step);
        let mut skipped = ticked.clone();
        assert!(ticked.queues_quiescent(step));
        for _ in 0..10 {
            ticked.advance(step);
            skipped.advance_quiescent(step);
        }
        assert_eq!(ticked.now(), skipped.now());
        assert_eq!(
            ticked.flow_rate(f).as_bps().to_bits(),
            skipped.flow_rate(f).as_bps().to_bits()
        );
        assert_eq!(
            ticked.flow_goodput(f).as_bps().to_bits(),
            skipped.flow_goodput(f).as_bps().to_bits()
        );
        // And a subsequent full tick continues identically from both.
        ticked.advance(step);
        skipped.advance(step);
        assert_eq!(
            ticked.flow_rate(f).as_bps().to_bits(),
            skipped.flow_rate(f).as_bps().to_bits()
        );
    }
}
