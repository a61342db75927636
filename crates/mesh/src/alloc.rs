//! The flow-allocation part of [`Mesh`](crate::Mesh): the registered
//! flows with their queues, node egress caps, and the max-min allocation
//! over them.
//!
//! There is one allocator. It keeps an [`AllocIndex`] (a CSR
//! flow↔constraint map plus the connected components of that graph,
//! [`ComponentIndex`]) across ticks, bit-compares capacity and demand
//! snapshots each tick, and refills only the *dirty* components; every
//! other component keeps its rates verbatim. Flow add/remove patch the
//! [`FlowTable`] and the index in place. Route or egress-cap changes, and
//! tombstones outnumbering live flows, rebuild the index; a rebuild
//! marks every slot and every component dirty and feeds the same
//! pipeline, so that tick refills everything. Every allocation ends by
//! re-summing from their members the usage views whose members or member
//! rates moved: the links crossed by a slot added or removed since the
//! last allocation or by a flow whose rate bits the fill changed (every
//! link after a rebuild), and every egress cap.
//!
//! Invariant: while the index is clean, it describes exactly the live
//! slots' paths and the egress-cap set; the rates and `floor_bps` are
//! what one fill over `demands_scratch` leaves; and `dirty_flows` lists
//! every slot whose transmit demand can have moved since. The demand
//! diff writes every moved demand into `demands_scratch` but keeps a
//! slot dirty only when its new demand is not above its floor — a move
//! above the floor leaves that fill bit-identical (`refill_component_into`'s
//! lemma) — so filling only the dirty components equals filling all of
//! them, bit for bit. By the same lemma an allocation that finds the
//! flows allocated, the link snapshot current and no slot left dirty
//! after the demand diff stops there: a fill would leave every rate and
//! usage view as it is. The judge is the
//! same pipeline from scratch: [`Mesh::rebuilt`](crate::Mesh::rebuilt)
//! re-routes every flow and stales the index, so the next allocation
//! rebuilds it and refills every component, and the test batteries
//! require production to match such a rebuilt twin tick after tick.
//! Component order is canonical and slots stay in ascending flow-id
//! order, so the same mutation sequence replays bit-for-bit on any
//! machine.

use crate::flow::{
    refill_component_into, unconstrained_rate, AllocScratch, ComponentIndex, Constraint, FlowId,
    FlowSpec, NO_COMPONENT,
};
use crate::links::LinkCaps;
use crate::mesh::MeshError;
use crate::queueing::FlowQueue;
use crate::routes::Routes;
use crate::topology::{LinkId, NodeId};
use bass_obs::{PhaseClock, SpanProfiler};
use bass_util::time::{SimDuration, SimTime};
use bass_util::units::Bandwidth;
use std::collections::BTreeMap;

/// The registered flows, one *slot* each in ascending flow-id order —
/// the slot numbering every per-flow vector of the allocator shares.
///
/// A new flow's slot is appended (flow ids only grow, so the order
/// holds); a removed flow's slot is tombstoned, keeping its id — its
/// rate stays readable until the next allocation — and its path, which
/// seeds the egress usage of a node capped before then. Compaction drops
/// the tombstones at every index rebuild.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowTable {
    /// Flow id of every slot, ascending; a tombstoned slot keeps its id,
    /// so `binary_search` finds every live slot and every dead one.
    pub(crate) ids: Vec<FlowId>,
    /// False for a tombstoned slot.
    live: Vec<bool>,
    /// Each slot's flow.
    pub(crate) states: Vec<FlowState>,
    /// Tombstoned slots since the last compaction.
    pub(crate) dead: usize,
}

impl FlowTable {
    /// The slot of flow `id`, live or tombstoned.
    pub(crate) fn slot(&self, id: FlowId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The slot of registered flow `id`.
    pub(crate) fn live_slot(&self, id: FlowId) -> Option<usize> {
        self.slot(id).filter(|&s| self.live[s])
    }

    /// Number of registered flows.
    pub(crate) fn len(&self) -> usize {
        self.ids.len() - self.dead
    }

    /// The live slots, ascending (the registered flows in id order).
    pub(crate) fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
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

/// One registered flow. `spec` and `queue` are logical; `links`,
/// `egress` and `routable` are derived from the spec and the routes.
#[derive(Debug, Clone)]
pub(crate) struct FlowState {
    pub(crate) spec: FlowSpec,
    /// Links crossed by the flow's route (empty for loopback).
    pub(crate) links: Vec<LinkId>,
    /// [Ranks](crate::routing::RoutingTable::rank) of the nodes whose
    /// egress the flow consumes (every path node except dst).
    egress: Vec<u32>,
    pub(crate) queue: FlowQueue,
    /// False while no usable route exists (endpoint down or the mesh
    /// partitioned by link faults): the flow gets zero allocation until
    /// connectivity returns and [`Allocation::reroute`] restores its
    /// path.
    pub(crate) routable: bool,
}

/// A node's egress cap and the allocated bps leaving the node — the
/// egress view, kept only for capped nodes, the only ones it is read
/// for.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EgressCap {
    /// The cap (logical).
    pub(crate) cap: Bandwidth,
    /// Sum of the last allocation's rates over the flows leaving the
    /// node, in slot order (derived).
    used_bps: f64,
}

impl EgressCap {
    /// The cap's spare bandwidth.
    pub(crate) fn available(&self) -> Bandwidth {
        self.cap.saturating_sub(Bandwidth::from_bps(self.used_bps))
    }
}

/// The sum of `rates` over a constraint's members, in member order.
fn member_sum(c: &Constraint, rates: &[f64]) -> f64 {
    member_sums(&c.members, &[], rates).0
}

/// The sums of `rates` over two member lists, each in member order, bit
/// for bit, their adds interleaved: two independent add chains hide each
/// other's latency.
fn member_sums(a: &[usize], b: &[usize], rates: &[f64]) -> (f64, f64) {
    let (mut sa, mut sb) = (0.0, 0.0);
    for (&x, &y) in a.iter().zip(b) {
        sa += rates[x];
        sb += rates[y];
    }
    let k = a.len().min(b.len());
    let rest = |list: &[usize], sum: f64| list[k..].iter().fold(sum, |sum, &m| sum + rates[m]);
    (rest(a, sa), rest(b, sb))
}

/// Persistent inverted index over the [`FlowTable`]'s slots: one
/// constraint per link (and per egress-capped node) with its member list
/// of slots, and a CSR slot → constraints reverse map. A patched-in slot
/// joins its member lists (which stay sorted, slots being appended in id
/// order); a tombstoned slot leaves them and its component, its row kept
/// for the next allocation's usage views. The touched components are
/// patched at the next allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct AllocIndex {
    /// Ranks of the egress-capped nodes, ascending: egress constraint
    /// `link_count + k` caps node `egress_ranks[k]`.
    egress_ranks: Vec<u32>,
    /// Link constraints first (one per link, in `LinkId` order), then one
    /// per egress-capped node (in `NodeId` order). Capacities are
    /// refreshed in place each allocation; member lists persist.
    pub(crate) constraints: Vec<Constraint>,
    /// CSR offsets of the slot → constraints reverse map.
    pub(crate) flow_cons_off: Vec<usize>,
    /// CSR payload of the slot → constraints reverse map (a row in path
    /// order; a dead slot's row is read only by the usage views of the
    /// allocation after its removal).
    pub(crate) flow_cons: Vec<usize>,
    /// Connected components of the flow ↔ constraint graph (the district
    /// map of a gateway-partitioned city mesh), patched with the slots.
    pub(crate) comps: ComponentIndex,
    /// Constraints whose component the last patch re-derived; the next
    /// component scan marks those components dirty and drains this.
    repatched: Vec<usize>,
    /// Set whenever routing, up/down state or the egress-cap set may
    /// have changed, or tombstones must be compacted; cleared by
    /// `rebuild`. While set, every per-slot dirty set and snapshot is
    /// stale; the next allocation rebuilds the index, resets them with
    /// every slot and component dirty, and re-reads every capacity.
    pub(crate) dirty: bool,
}

impl AllocIndex {
    /// Compacts the flow table, then one pass over every flow's path
    /// (O(Σ path lengths)) rebuilds the member lists and the CSR reverse
    /// map.
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

    /// The CSR row of `slot`.
    pub(crate) fn row(&self, slot: usize) -> &[usize] {
        &self.flow_cons[self.flow_cons_off[slot]..self.flow_cons_off[slot + 1]]
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
        let row = &self.flow_cons[self.flow_cons_off[slot]..self.flow_cons_off[slot + 1]];
        for &ci in row {
            let members = &mut self.constraints[ci].members;
            let at = members
                .binary_search(&slot)
                .expect("a live slot sits in each of its constraints");
            members.remove(at);
        }
        self.comps.detach_flow(slot, row);
    }
}

/// The flows and their allocation.
///
/// Logical: `flows` (specs and queues; paths are derived from the
/// routes), `next_flow`, the egress caps' values, `rates_bps` (a fill is
/// followed by a queue pass that moves the demands it was computed
/// from, so the rates are not a function of the other fields) and
/// `allocated`. Derived: `index`,
/// `scratch`, `demands_scratch`, `floor_bps`, the dirty component and
/// flow sets, `link_used_bps` and the egress caps' usage — an index
/// rebuild re-derives all of them — and `settled` and `unreported`,
/// which every reallocation resets.
#[derive(Debug, Clone, Default)]
pub(crate) struct Allocation {
    pub(crate) flows: FlowTable,
    next_flow: u64,
    /// Egress-capped nodes with their caps and egress usage (refreshed
    /// per allocation).
    egress_caps: BTreeMap<NodeId, EgressCap>,
    /// The allocation: per-slot allocated bps from the last allocation
    /// (zero for a flow added since). A slot tombstoned since the last
    /// allocation keeps its rate until the next one, which zeroes it.
    rates_bps: Vec<f64>,
    /// Per-slot demand floors of the last fill (+∞ for a slot added or
    /// rebuilt since): a demand move strictly above it refills nothing.
    floor_bps: Vec<f64>,
    /// False from a flow add or remove until the next allocation: the
    /// rates do not yet cover the registered flow set.
    allocated: bool,
    /// The step of the last queue pass, when it moved no queue and no
    /// queue input (a flow, a demand, a rate, a capacity) moved since: a
    /// pass over the same step would move none either.
    pub(crate) settled: Option<SimDuration>,
    /// Set when a demand, rate or capacity may have moved since the
    /// journal emits last read them; the mesh clears it when it emits.
    pub(crate) unreported: bool,
    /// Persistent membership index.
    pub(crate) index: AllocIndex,
    /// Reusable working state of the component fill.
    scratch: AllocScratch,
    /// Per-slot transmit demands (zero for a dead slot), reused across
    /// ticks.
    demands_scratch: Vec<Bandwidth>,
    /// Allocated bps currently crossing each link (refreshed per
    /// allocation).
    link_used_bps: Vec<f64>,
    /// Components marked dirty this tick, with per-component flags
    /// (scratch).
    dirty_comps: Vec<u32>,
    comp_dirty: Vec<bool>,
    /// Flow slots whose transmit demand may have moved since the last
    /// refresh (spec changes, backlog movements), with per-slot flags.
    /// The demand refresh narrows it to the slots whose demand *actually*
    /// moved — the component scan's input, as `cap_changed` is for links.
    dirty_flows: Vec<u32>,
    flow_dirty: Vec<bool>,
    /// Slots added or removed since the last allocation, then those whose
    /// rate bits its fill changed: the rows whose links' usage views it
    /// re-sums. Per-link flags mark a link already re-summed (scratch).
    moved_slots: Vec<u32>,
    link_resummed: Vec<bool>,
}

impl Allocation {
    /// No flows over `link_count` links, with a stale index.
    pub(crate) fn new(link_count: usize) -> Self {
        Allocation {
            allocated: true,
            unreported: true,
            index: AllocIndex { dirty: true, ..AllocIndex::default() },
            link_used_bps: vec![0.0; link_count],
            link_resummed: vec![false; link_count],
            ..Allocation::default()
        }
    }

    /// Registers a flow routed as `routed` (`None`: parked unroutable).
    pub(crate) fn add(&mut self, spec: FlowSpec, routed: Option<(Vec<LinkId>, Vec<u32>)>) -> FlowId {
        let routable = routed.is_some();
        let (links, egress) = routed.unwrap_or_default();
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        let flow = FlowState { spec, links, egress, queue: FlowQueue::new(), routable };
        if !self.index.dirty {
            // Patch, don't rebuild: append the slot's row, extend every
            // per-slot vector, and let the demand diff read it in.
            let slot = self.index.add(&flow);
            debug_assert_eq!(slot, self.flows.ids.len());
            self.demands_scratch.push(Bandwidth::ZERO);
            self.flow_dirty.push(false);
            self.mark_slot_demand_dirty(slot);
            self.moved_slots.push(slot as u32);
        }
        self.flows.push(id, flow);
        self.rates_bps.push(0.0);
        self.floor_bps.push(f64::INFINITY);
        self.allocated = false;
        self.unsettle();
        id
    }

    /// Updates a flow's offered demand.
    pub(crate) fn set_demand(&mut self, id: FlowId, demand: Bandwidth) -> Result<(), MeshError> {
        let slot = self.flows.live_slot(id).ok_or(MeshError::UnknownFlow(id))?;
        let flow = &mut self.flows.states[slot];
        // The emulator re-pushes every demand whenever one can have
        // moved; only a bitwise change dirties the slot.
        let changed = flow.spec.demand.as_bps().to_bits() != demand.as_bps().to_bits();
        flow.spec.demand = demand;
        if changed {
            self.mark_slot_demand_dirty(slot);
            self.unsettle();
        }
        Ok(())
    }

    /// Removes a flow; its rate stays readable until the next allocation.
    pub(crate) fn remove(&mut self, id: FlowId) -> Result<(), MeshError> {
        let slot = self.flows.live_slot(id).ok_or(MeshError::UnknownFlow(id))?;
        self.flows.tombstone(slot);
        self.allocated = false;
        self.unsettle();
        if !self.index.dirty {
            // Out of the index; the demand diff zeroes the slot's rate.
            self.index.remove(slot);
            self.demands_scratch[slot] = Bandwidth::ZERO;
            self.mark_slot_demand_dirty(slot);
            self.moved_slots.push(slot as u32);
            // Compact once dead slots outnumber live ones (a fixed
            // growth rule, like `Vec` doubling).
            if self.flows.dead > self.flows.len() {
                self.index.dirty = true;
            }
        }
        Ok(())
    }

    /// Tolerantly re-routes the flows whose source's routes the last
    /// up/down call changed ([`Routes::source_changed`]): flows whose
    /// route vanished are parked as unroutable (zero allocation, queues
    /// preserved) and restored when a later repair finds a path again.
    pub(crate) fn reroute(&mut self, routes: &Routes) {
        let mut moved = false;
        for f in &mut self.flows.states {
            if !routes.source_changed(f.spec.src) {
                continue;
            }
            let r = routes.route_flow(f.spec.src, f.spec.dst);
            moved |= r.as_ref().map(|(l, e)| (l, e)) != f.routable.then_some((&f.links, &f.egress));
            f.routable = r.is_some();
            (f.links, f.egress) = r.unwrap_or_default();
        }
        // A moved path rebuilds the index; moved capacities need not.
        if moved {
            self.index.dirty = true;
        }
    }

    /// Applies or clears a cap on a node's egress. A newly capped node's
    /// usage is what the last allocation sent out of it (`rank` is the
    /// node's [`RoutingTable::rank`](crate::routing::RoutingTable::rank)).
    pub(crate) fn set_egress_cap(&mut self, node: NodeId, rank: Option<u32>, cap: Option<Bandwidth>) {
        match cap {
            Some(cap) => {
                let last = || rank.map_or(0.0, |r| self.allocated_egress(r));
                let used_bps = self.egress_caps.get(&node).map_or_else(last, |e| e.used_bps);
                self.egress_caps.insert(node, EgressCap { cap, used_bps });
            }
            None => {
                self.egress_caps.remove(&node);
            }
        }
        // The egress constraint set changed shape (or value): rebuild the
        // membership index at the next allocation.
        self.index.dirty = true;
    }

    /// Allocated bps the rates in `rates_bps` send out of the node of
    /// rank `rank`, summed in slot order — the last allocation's egress
    /// usage of the node: a slot tombstoned since keeps its rate, one
    /// added since has none.
    fn allocated_egress(&self, rank: u32) -> f64 {
        let mut used = 0.0;
        for (f, &rate) in self.flows.states.iter().zip(&self.rates_bps) {
            if f.egress.contains(&rank) {
                used += rate;
            }
        }
        used
    }

    /// The last allocation's rate of flow `id`, live or tombstoned since
    /// (zero for unknown flows and flows added since).
    pub(crate) fn rate(&self, id: FlowId) -> Bandwidth {
        self.flows.slot(id).map_or(Bandwidth::ZERO, |s| Bandwidth::from_bps(self.rates_bps[s]))
    }

    /// A capped node's egress cap and usage.
    pub(crate) fn egress_cap(&self, node: NodeId) -> Option<&EgressCap> {
        self.egress_caps.get(&node)
    }

    /// Allocated bps crossing each link, by link.
    pub(crate) fn link_used_bps(&self) -> &[f64] {
        &self.link_used_bps
    }

    /// A registered flow and its allocated rate.
    pub(crate) fn flow_and_rate(&self, id: FlowId) -> Option<(&FlowState, Bandwidth)> {
        let s = self.flows.live_slot(id)?;
        Some((&self.flows.states[s], Bandwidth::from_bps(self.rates_bps[s])))
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

    /// Marks that a queue input or a journaled figure may have moved.
    pub(crate) fn unsettle(&mut self) {
        self.settled = None;
        self.unreported = true;
    }

    /// Recomputes the allocation at `now` without advancing queues (the
    /// mesh's one reallocation, every tick and after every fault or
    /// freeze change). On a clean index the demand diff runs first, since
    /// it reads no index: when the flows are allocated, the links read
    /// nothing new and no demand moved to or below its floor, the last
    /// fill stands and nothing else runs, and no span is recorded.
    /// Otherwise a stale index is rebuilt, with every slot and component
    /// dirty (`mesh.index_rebuild`), or the patched components are
    /// re-derived (`mesh.index_patch`, only after flow add or remove).
    /// Then: diff capacities against the snapshot (`mesh.cap_diff`: every
    /// link after a rebuild or once the trace clock is due or stale, else
    /// the capped links), mark the dirty components
    /// (`mesh.component_scan`) and refill only those (`mesh.water_fill`,
    /// `mesh.usage_views`).
    pub(crate) fn reallocate(
        &mut self,
        links: &mut LinkCaps,
        routes: &Routes,
        now: SimTime,
        mut profiler: Option<&mut SpanProfiler>,
    ) {
        let rebuilt = self.index.dirty;
        if !rebuilt {
            self.refresh_demands_dirty();
            if self.allocated && self.dirty_flows.is_empty() && links.current(now) {
                return;
            }
        }
        self.allocated = true;
        self.unsettle();
        let mut clock = PhaseClock::new(profiler.is_some());
        let link_count = routes.topo().link_count();
        if rebuilt {
            let capped: Vec<u32> =
                self.egress_caps.keys().filter_map(|&n| routes.table().rank(n)).collect();
            self.index.rebuild(link_count, &mut self.flows, capped);
            // Every slot restarts at rate and demand zero, dirty, as does
            // every component (below). An unconstrained slot whose demand
            // reads zero is never re-granted, so it keeps this zero rate.
            let slots = self.flows.states.len();
            self.rates_bps = vec![0.0; slots];
            self.floor_bps = vec![f64::INFINITY; slots];
            self.demands_scratch = vec![Bandwidth::ZERO; slots];
            self.flow_dirty = vec![true; slots];
            self.dirty_flows = (0..slots as u32).collect();
            self.refresh_demands_dirty();
            clock.lap(profiler.as_deref_mut(), "mesh.index_rebuild");
        }

        let index = &mut self.index;
        if index.comps.patch_pending() {
            let (off, cons) = (&index.flow_cons_off, &index.flow_cons);
            index.comps.patch(&index.constraints, off, cons, &mut index.repatched);
            clock.lap(profiler.as_deref_mut(), "mesh.index_patch");
        }
        // A rebuilt index has no capacities yet: read them all.
        let full = links.refresh(routes, now) || rebuilt;
        self.load_capacities(links.caps_bps(), (!full).then_some(links.changed()));
        clock.lap(profiler.as_deref_mut(), "mesh.cap_diff");

        // Dirty-component scan: a re-derived component, a constraint
        // whose capacity moved or a flow whose demand moved dirties its
        // component; unconstrained flows are re-granted directly. Both
        // refreshes left only what moved, so this is O(dirty), not O(F + L).
        let comp_count = self.index.comps.component_count();
        self.comp_dirty.clear();
        self.comp_dirty.resize(comp_count, rebuilt);
        self.dirty_comps.clear();
        if rebuilt {
            self.dirty_comps.extend(0..comp_count as u32);
        }
        let changed = links.changed().iter().map(|&l| l as usize);
        for ci in self.index.repatched.iter().copied().chain(changed) {
            // A memberless constraint's component holds no flow to refill.
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

        for &comp in &self.dirty_comps {
            refill_component_into(
                comp,
                &self.demands_scratch,
                &self.index.constraints,
                &self.index.flow_cons_off,
                &self.index.flow_cons,
                &self.index.comps,
                &mut self.scratch,
                &mut self.rates_bps,
                &mut self.floor_bps,
                // After a rebuild every view is re-summed: record nothing.
                &mut |slot| self.moved_slots.extend((!rebuilt).then_some(slot as u32)),
            );
        }
        clock.lap(profiler.as_deref_mut(), "mesh.water_fill");

        self.update_usage_views(link_count, rebuilt);
        clock.lap(profiler, "mesh.usage_views");
    }

    /// Copies refreshed link capacities into their constraints: every
    /// link's and every egress cap's after a full read (`changed` is
    /// `None`), else only the links listed.
    fn load_capacities(&mut self, link_cap_bps: &[f64], changed: Option<&[u32]>) {
        let (link_cons, egress_cons) = self.index.constraints.split_at_mut(link_cap_bps.len());
        let Some(changed) = changed else {
            for (c, &bps) in link_cons.iter_mut().zip(link_cap_bps) {
                c.capacity = Bandwidth::from_bps(bps);
            }
            for (c, e) in egress_cons.iter_mut().zip(self.egress_caps.values()) {
                c.capacity = e.cap;
            }
            return;
        };
        for &l in changed {
            link_cons[l as usize].capacity = Bandwidth::from_bps(link_cap_bps[l as usize]);
        }
    }

    /// O(dirty) demand refresh (clean index only): bit-compares each slot
    /// in `dirty_flows` against `demands_scratch`, writes every moved
    /// demand there, and leaves in `dirty_flows` only the slots whose
    /// demand moved to or below their floor. A slot tombstoned since the
    /// last allocation keeps the zero demand `remove` wrote, and its rate
    /// is zeroed here.
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
                if demand.as_bps() <= self.floor_bps[slot] {
                    self.dirty_flows[moved] = slot as u32;
                    moved += 1;
                }
            }
        }
        self.dirty_flows.truncate(moved);
    }

    /// Re-sums, each as its constraint's member sum over `rates_bps`, the
    /// usage of every link on the row of a slot in `moved_slots` (every
    /// link after a rebuild, whose slots are renumbered) and every capped
    /// node's egress usage. A member sum is a function of the member list
    /// and the members' rate bits, and no other link's moved. Members are
    /// live slots in ascending flow order, so each sum accumulates in flow
    /// order, as a full one's.
    fn update_usage_views(&mut self, link_count: usize, rebuilt: bool) {
        let index = &self.index;
        let constraints = &index.constraints;
        if rebuilt {
            for (used, c) in self.link_used_bps.iter_mut().zip(constraints) {
                *used = member_sum(c, &self.rates_bps);
            }
        } else {
            // Re-sum each link on its first visit, two at a time, then
            // clear the marks.
            let links = || self.moved_slots.iter().flat_map(|&s| index.row(s as usize));
            let (mut held, rates) = (None, &self.rates_bps);
            for &ci in links().filter(|&&ci| ci < link_count) {
                if !std::mem::replace(&mut self.link_resummed[ci], true) {
                    count_resum();
                    let Some(a) = held.take() else { held = Some(ci); continue };
                    let (sa, sb) = member_sums(&constraints[a].members, &constraints[ci].members, rates);
                    (self.link_used_bps[a], self.link_used_bps[ci]) = (sa, sb);
                }
            }
            if let Some(a) = held {
                self.link_used_bps[a] = member_sum(&constraints[a], rates);
            }
            for ci in links().filter(|&&ci| ci < link_count) {
                self.link_resummed[*ci] = false;
            }
        }
        self.moved_slots.clear();
        for (e, c) in self.egress_caps.values_mut().zip(&constraints[link_count..]) {
            e.used_bps = member_sum(c, &self.rates_bps);
        }
        // Every view equals a full re-sum, bit for bit, in debug builds.
        #[cfg(debug_assertions)]
        {
            let egress = self.egress_caps.values().map(|e| &e.used_bps);
            let views = self.link_used_bps.iter().chain(egress);
            for (ci, (c, view)) in constraints.iter().zip(views).enumerate() {
                let sum = member_sum(c, &self.rates_bps);
                assert_eq!(view.to_bits(), sum.to_bits(), "usage view of constraint {ci}");
            }
        }
    }

    /// The queue pass: advances every live flow's queue against its rate
    /// and its path's bottleneck utilization (`util`, per link), feeds
    /// each backlog that moved into the dirty-flow set of the next demand
    /// diff, and records the pass as `settled` when no queue moved.
    pub(crate) fn advance_queues(&mut self, dt: SimDuration, util: &[f64]) {
        // Backlog movements feed the demand dirty set whenever the index
        // is clean; under a stale index the next refresh is full anyway.
        let track = !self.index.dirty;
        debug_assert!(self.allocated);
        let mut still = true;
        let FlowTable { live, states, .. } = &mut self.flows;
        for (s, flow) in states.iter_mut().enumerate() {
            if !live[s] {
                continue;
            }
            let before = flow.queue;
            let allocated = Bandwidth::from_bps(self.rates_bps[s]);
            flow.queue.advance(dt, flow.spec.demand, allocated);
            // A compare-select fold, not `f64::max`'s NaN-aware call: the
            // same bits, since `util` is clamped and never NaN (for a NaN
            // `f64::max` also returns the other operand) and no −0.0
            // reaches it (usage sums start at +0.0 over rates ≥ +0.0).
            let rho =
                flow.links.iter().map(|l| util[l.0]).fold(0.0, |m, u| if u > m { u } else { m });
            flow.queue.set_path_utilization(rho);
            still &= flow.queue == before;
            if track && flow.queue.backlog() != before.backlog() && !self.flow_dirty[s] {
                self.flow_dirty[s] = true;
                self.dirty_flows.push(s as u32);
            }
        }
        self.settled = still.then_some(dt);
    }

    /// (flows, total demand Mbps, total allocated Mbps) over the
    /// registered flows, in slot order.
    pub(crate) fn totals(&self) -> (u32, f64, f64) {
        let demand_mbps: f64 =
            self.flows.live_slots().map(|s| self.flows.states[s].spec.demand.as_mbps()).sum();
        let allocated_mbps: f64 =
            self.flows.live_slots().map(|s| Bandwidth::from_bps(self.rates_bps[s]).as_mbps()).sum();
        (self.flows.len() as u32, demand_mbps, allocated_mbps)
    }
}

/// Counts the link usage views a partial refill re-sums: in unit tests
/// only, a no-op otherwise.
#[cfg(not(test))]
fn count_resum() {}

#[cfg(test)]
use tests::count_resum;

#[cfg(test)]
mod tests {
    use crate::topology::{NodeId, Topology};
    use crate::Mesh;
    use bass_util::time::SimDuration;
    use bass_util::units::Bandwidth;
    use std::cell::Cell;

    thread_local! {
        static RESUMS: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn count_resum() {
        RESUMS.with(|n| n.set(n.get() + 1));
    }

    #[test]
    fn one_moved_rate_re_sums_only_the_links_its_flow_crosses() {
        // A 12-node line: one flow end to end ties every link into one
        // component, and one light flow per link keeps every link busy.
        let mut topo = Topology::new();
        for i in 0..12 {
            topo.add_node(NodeId(i)).unwrap();
        }
        for i in 0..11 {
            topo.add_link(NodeId(i), NodeId(i + 1)).unwrap();
        }
        let mut mesh = Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(100.0)).unwrap();
        mesh.add_flow(NodeId(0), NodeId(11), Bandwidth::from_mbps(1.0)).unwrap();
        let hops: Vec<_> = (0..11)
            .map(|i| mesh.add_flow(NodeId(i), NodeId(i + 1), Bandwidth::from_mbps(1.0)).unwrap())
            .collect();
        let two_hop = mesh.add_flow(NodeId(4), NodeId(6), Bandwidth::from_mbps(1.0)).unwrap();
        let dt = SimDuration::from_millis(100);
        mesh.advance(dt);
        mesh.advance(dt);
        let resums = |mesh: &mut Mesh| {
            RESUMS.with(|n| n.set(0));
            mesh.advance(dt);
            RESUMS.with(Cell::get)
        };
        // Uncongested: only the moved flow's rate moves, so only the
        // links it crosses are re-summed, not the component's eleven.
        mesh.set_flow_demand(hops[3], Bandwidth::from_mbps(2.0)).unwrap();
        assert_eq!(resums(&mut mesh), 1);
        mesh.set_flow_demand(two_hop, Bandwidth::from_mbps(3.0)).unwrap();
        assert_eq!(resums(&mut mesh), 2);
        assert_eq!(mesh.flow_rate(two_hop), Bandwidth::from_mbps(3.0));
    }
}
