//! Flows and max-min fair bandwidth allocation.
//!
//! TCP-like transport on a shared network approximately converges to a
//! max-min fair allocation; the fluid model computes that fixed point
//! directly with the classic *progressive filling* algorithm, extended
//! with per-flow demand caps (a flow never receives more than it asks
//! for).
//!
//! One fill kernel runs per connected component of the flow ↔
//! constraint graph: [`max_min_allocate`] over every component,
//! [`crate::Mesh`] over those a tick dirtied (all of them after an index
//! rebuild). `tests/properties.rs` holds its oracles: a dense
//! progressive-filling implementation it must match bit for bit, and a
//! max-min fairness certificate.

use crate::topology::NodeId;
use bass_util::units::Bandwidth;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a flow registered with the mesh.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A flow's endpoints and offered demand.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Offered load (demand). The allocation never exceeds this.
    pub demand: Bandwidth,
}

/// One capacity constraint (a link, or a node egress cap) and the flows
/// that consume it.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Available capacity of this resource.
    pub capacity: Bandwidth,
    /// Indices (into the demand vector) of flows crossing this resource.
    pub members: Vec<usize>,
}

/// Convergence guard shared by all allocator implementations:
/// increments below this many bps are treated as "done".
const EPS: f64 = 1e-6; // bps — far below any meaningful rate

/// Relative freeze tolerance: a few ulps of the level or capacity a freeze
/// test compares against, so a level or a fill that rounding left one ulp
/// short still freezes. It only exceeds [`EPS`] above ≈ 1.1 Gbps.
const ULPS: f64 = 4.0 * f64::EPSILON;

/// The remaining capacity at or below which a constraint of `capacity`
/// is saturated: [`EPS`], or a few ulps of a larger capacity (an
/// infinite one, whose remainder stays infinite, never saturates).
fn saturated_below(capacity: Bandwidth) -> f64 {
    EPS.max(ULPS * capacity.as_bps().min(f64::MAX))
}

/// Marker for flows that belong to no constraint (loopback traffic):
/// they are granted their demand outright and live in no component.
pub(crate) const NO_COMPONENT: u32 = u32::MAX;

/// Connected components of the flow ↔ constraint bipartite graph.
///
/// Two constraints are in the same component when some flow crosses
/// both; a flow belongs to the component of its constraints. Max-min
/// fairness decomposes exactly over these components — no flow in one
/// component can affect any rate in another — so the fill handles
/// components independently, one at a time, in the *canonical component
/// order* (ascending order of each component's smallest constraint
/// index). That order is what makes a patched index's fills
/// bit-identical to a rebuilt one's (and to the dense oracle in
/// `tests/properties.rs`), and it is what [`crate::Mesh`] exploits: when a perturbation touches only one
/// component, every other component's rates are provably unchanged and
/// are kept verbatim.
///
/// In a gateway-partitioned city mesh whose flows stay inside their
/// district, each district's links and flows form one component — the
/// component index *is* the district map (see `docs/ARCHITECTURE.md`).
///
/// Rebuilt from the CSR flow → constraint map with a union-find pass
/// (O(memberships · α)); all storage is reused across rebuilds. Between
/// rebuilds [`crate::Mesh`] *patches* it: appending or retiring a flow
/// records the components it joined or left, and the next allocation
/// patches just those — re-deriving them and relabelling every component
/// only when a removal can split one or an add merge several.
#[derive(Debug, Clone, Default)]
pub(crate) struct ComponentIndex {
    /// Component of each flow; [`NO_COMPONENT`] for unconstrained flows.
    flow_comp: Vec<u32>,
    /// Component of each constraint (memberless constraints form
    /// singleton components).
    cons_comp: Vec<u32>,
    /// CSR offsets of the component → flows map.
    comp_flows_off: Vec<usize>,
    /// CSR payload: flow indices per component, ascending.
    comp_flows: Vec<usize>,
    /// CSR offsets of the component → constraints map.
    comp_cons_off: Vec<usize>,
    /// CSR payload: constraint indices per component, ascending.
    comp_cons: Vec<usize>,
    /// Union-find parents over constraints (scratch, reused).
    parent: Vec<u32>,
    /// Components flows joined or left since the last rebuild or patch
    /// (unsorted, may repeat).
    touched: Vec<u32>,
    /// Constrained flows pushed since the last rebuild or patch; they
    /// sit in no component's flow list yet.
    added: Vec<usize>,
    /// Consecutive constraint pairs of the rows of the flows detached
    /// since the last rebuild or patch: while each pair shares a live
    /// member, no component split.
    detached_pairs: Vec<(usize, usize)>,
    /// Temporary → canonical component id map (scratch, reused).
    remap: Vec<u32>,
    /// Flows re-derived by the current patch (scratch, reused).
    patch_flows: Vec<usize>,
}

impl ComponentIndex {
    /// Recomputes the component partition for `n` flows over
    /// `constraints`, reading flow memberships from the CSR map
    /// (`flow_cons_off`/`flow_cons`, as built by
    /// [`build_flow_constraint_map`]). Storage is reused.
    pub fn rebuild(
        &mut self,
        n: usize,
        constraints: &[Constraint],
        flow_cons_off: &[usize],
        flow_cons: &[usize],
    ) {
        let m = constraints.len();
        self.parent.clear();
        self.parent.extend(0..m as u32);
        for i in 0..n {
            self.union_row(&flow_cons[flow_cons_off[i]..flow_cons_off[i + 1]]);
        }
        // Label by union-find root; `relabel` makes the ids canonical.
        self.cons_comp.clear();
        for ci in 0..m as u32 {
            let root = self.find(ci);
            self.cons_comp.push(root);
        }
        self.flow_comp.clear();
        for i in 0..n {
            let comp = if flow_cons_off[i + 1] > flow_cons_off[i] {
                self.cons_comp[flow_cons[flow_cons_off[i]]]
            } else {
                NO_COMPONENT
            };
            self.flow_comp.push(comp);
        }
        self.touched.clear();
        self.added.clear();
        self.detached_pairs.clear();
        self.relabel(m);
    }

    /// Appends one flow slot crossing the constraints in `row` (its CSR
    /// row). A constrained flow is unassigned until the next
    /// [`patch`](Self::patch) merges it into the components of `row`.
    pub(crate) fn push_flow(&mut self, row: &[usize]) {
        let slot = self.flow_comp.len();
        self.flow_comp.push(NO_COMPONENT);
        if !row.is_empty() {
            self.added.push(slot);
            self.touched.extend(row.iter().map(|&ci| self.cons_comp[ci]));
        }
    }

    /// Takes a retiring flow crossing the constraints in `row` (its CSR
    /// row) out of its component for good: the slot becomes unconstrained
    /// and its former component is patched by the next
    /// [`patch`](Self::patch). The caller removes the slot from its
    /// constraints' member lists.
    pub(crate) fn detach_flow(&mut self, flow: usize, row: &[usize]) {
        match std::mem::replace(&mut self.flow_comp[flow], NO_COMPONENT) {
            NO_COMPONENT => self.added.retain(|&a| a != flow),
            comp => {
                self.touched.push(comp);
                self.detached_pairs.extend(row.windows(2).map(|w| (w[0], w[1])));
            }
        }
    }

    /// True when flows were pushed or detached since the last rebuild
    /// or patch.
    pub(crate) fn patch_pending(&self) -> bool {
        !self.touched.is_empty()
    }

    /// Patches the touched components and writes their constraints to
    /// `repatched`: their (possibly split or merged) components are
    /// exactly the ones whose rates may have moved. Returns whether the
    /// partition was re-derived. It is not when every detached flow's
    /// consecutive constraint pairs still share a live member in
    /// `constraints` (a path through the flow reroutes there, so nothing
    /// split; a one-constraint row is on no such path) and every added
    /// flow's constraints lie in one component (nothing merged): then
    /// only the added flows are assigned and the touched flow rows re-laid.
    pub(crate) fn patch(
        &mut self,
        constraints: &[Constraint],
        flow_cons_off: &[usize],
        flow_cons: &[usize],
        repatched: &mut Vec<usize>,
    ) -> bool {
        debug_assert_eq!(flow_cons_off.len(), self.flow_comp.len() + 1);
        self.touched.sort_unstable();
        self.touched.dedup();
        repatched.clear();
        // Member lists are ascending: stop at the first common slot.
        let shares = |&(a, b): &(usize, usize)| {
            constraints[a].members.iter().any(|m| constraints[b].members.binary_search(m).is_ok())
        };
        let one_component = |&f: &usize| {
            let row = &flow_cons[flow_cons_off[f]..flow_cons_off[f + 1]];
            row.iter().all(|&ci| self.cons_comp[ci] == self.cons_comp[row[0]])
        };
        let relabel =
            !(self.detached_pairs.iter().all(shares) && self.added.iter().all(one_component));
        self.detached_pairs.clear();
        if relabel {
            self.rederive(flow_cons_off, flow_cons, repatched);
            return true;
        }
        // Every no-relabel patch equals the re-derivation, in debug builds.
        #[cfg(debug_assertions)]
        let rederived = {
            let mut twin = self.clone();
            let mut repatched = Vec::new();
            twin.rederive(flow_cons_off, flow_cons, &mut repatched);
            (twin, repatched)
        };
        for &t in &self.touched {
            repatched.extend_from_slice(self.constraints_of(t));
        }
        for &f in &self.added {
            self.flow_comp[f] = self.cons_comp[flow_cons[flow_cons_off[f]]];
        }
        // Edit the touched components' flow rows in place: detached flows
        // leave first, then each added flow joins its row's end (it is above
        // every older slot), so the map never outgrows its final length.
        for &t in self.touched.iter().rev() {
            let (lo, hi) = (self.comp_flows_off[t as usize], self.comp_flows_off[t as usize + 1]);
            let mut kept = lo;
            for k in lo..hi {
                let f = self.comp_flows[k];
                if self.flow_comp[f] == t {
                    self.comp_flows[kept] = f;
                    kept += 1;
                }
            }
            self.comp_flows.drain(kept..hi);
            self.comp_flows_off[t as usize + 1..].iter_mut().for_each(|off| *off -= hi - kept);
        }
        for &f in &self.added {
            let end = self.flow_comp[f] as usize + 1;
            self.comp_flows.insert(self.comp_flows_off[end], f);
            self.comp_flows_off[end..].iter_mut().for_each(|off| *off += 1);
        }
        self.added.clear();
        self.touched.clear();
        #[cfg(debug_assertions)]
        {
            let (twin, twin_repatched) = rederived;
            let comps = |c: &Self| (c.flow_comp.clone(), c.cons_comp.clone());
            let csr = |c: &Self| {
                [&c.comp_flows_off, &c.comp_flows, &c.comp_cons_off, &c.comp_cons].map(Vec::clone)
            };
            assert_eq!(
                (comps(self), csr(self), &*repatched),
                (comps(&twin), csr(&twin), &twin_repatched)
            );
        }
        false
    }

    /// Re-derives the partition of the touched components: resets their
    /// constraints to singletons, unions them through their remaining and
    /// newly pushed flows, then relabels every component canonically and
    /// re-lays both CSR maps (one O(flows + constraints) pass).
    fn rederive(
        &mut self,
        flow_cons_off: &[usize],
        flow_cons: &[usize],
        repatched: &mut Vec<usize>,
    ) {
        let m = self.cons_comp.len();
        let base = self.component_count() as u32;
        let mut flows = std::mem::take(&mut self.patch_flows);
        flows.clear();
        for &t in &self.touched {
            let t = t as usize;
            for &ci in &self.comp_cons[self.comp_cons_off[t]..self.comp_cons_off[t + 1]] {
                self.parent[ci] = ci as u32;
                repatched.push(ci);
            }
            // Detached flows already read NO_COMPONENT.
            let members = &self.comp_flows[self.comp_flows_off[t]..self.comp_flows_off[t + 1]];
            flows.extend(members.iter().filter(|&&f| self.flow_comp[f] == t as u32));
        }
        flows.append(&mut self.added);
        for &f in &flows {
            self.union_row(&flow_cons[flow_cons_off[f]..flow_cons_off[f + 1]]);
        }
        // Temporary ids above every live one; `relabel` renumbers.
        for &ci in repatched.iter() {
            self.cons_comp[ci] = base + self.find(ci as u32);
        }
        for &f in &flows {
            self.flow_comp[f] = base + self.find(flow_cons[flow_cons_off[f]] as u32);
        }
        self.patch_flows = flows;
        self.touched.clear();
        self.relabel(base as usize + m);
    }

    /// Unions every constraint of one CSR row into the row's first.
    fn union_row(&mut self, row: &[usize]) {
        if let Some((&first, rest)) = row.split_first() {
            let root = self.find(first as u32);
            for &ci in rest {
                let r = self.find(ci as u32);
                if r != root {
                    self.parent[r as usize] = root;
                }
            }
        }
    }

    /// Renumbers components canonically — ascending order of their
    /// smallest constraint index — from temporary ids below `temp_ids`,
    /// then lays out both CSR side maps.
    fn relabel(&mut self, temp_ids: usize) {
        self.remap.clear();
        self.remap.resize(temp_ids, NO_COMPONENT);
        let mut count = 0u32;
        for c in &mut self.cons_comp {
            let id = &mut self.remap[*c as usize];
            if *id == NO_COMPONENT {
                *id = count;
                count += 1;
            }
            *c = *id;
        }
        for c in &mut self.flow_comp {
            if *c != NO_COMPONENT {
                *c = self.remap[*c as usize];
            }
        }
        let nc = count as usize;
        group_by_row(&self.flow_comp, nc, &mut self.comp_flows_off, &mut self.comp_flows);
        group_by_row(&self.cons_comp, nc, &mut self.comp_cons_off, &mut self.comp_cons);
    }

    fn find(&mut self, mut x: u32) -> u32 {
        // Path halving.
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Number of components (memberless constraints count as singleton
    /// components; unconstrained flows count in none).
    pub fn component_count(&self) -> usize {
        self.comp_flows_off.len().saturating_sub(1)
    }

    /// The component a flow belongs to, or [`NO_COMPONENT`] when the
    /// flow crosses no constraint.
    pub(crate) fn flow_component(&self, flow: usize) -> u32 {
        self.flow_comp[flow]
    }

    /// The component a constraint belongs to.
    pub(crate) fn constraint_component(&self, ci: usize) -> u32 {
        self.cons_comp[ci]
    }

    /// The flow indices of a component, ascending.
    pub(crate) fn flows_of(&self, comp: u32) -> &[usize] {
        &self.comp_flows[self.comp_flows_off[comp as usize]..self.comp_flows_off[comp as usize + 1]]
    }

    /// The constraint indices of a component, ascending.
    pub(crate) fn constraints_of(&self, comp: u32) -> &[usize] {
        &self.comp_cons[self.comp_cons_off[comp as usize]..self.comp_cons_off[comp as usize + 1]]
    }
}

/// Lays out the CSR map row → items of `n_rows` rows from each item's
/// row (`rows[i]`, [`NO_COMPONENT`] for none) in two passes (counts,
/// fill); ascending iteration keeps each row's items sorted.
fn group_by_row(rows: &[u32], n_rows: usize, off: &mut Vec<usize>, items: &mut Vec<usize>) {
    off.clear();
    off.resize(n_rows + 1, 0);
    for &r in rows.iter().filter(|&&r| r != NO_COMPONENT) {
        off[r as usize + 1] += 1;
    }
    items.clear();
    items.resize(shift_counts(off), 0);
    for (i, &r) in rows.iter().enumerate().filter(|&(_, &r)| r != NO_COMPONENT) {
        items[off[r as usize + 1]] = i;
        off[r as usize + 1] += 1;
    }
}

/// Turns the row counts in `off[1..]` into row starts shifted one slot
/// up (`off[r + 1]` = where row `r` starts) and returns their total.
/// Filling each row at `off[r + 1]`, post-incremented, then leaves `off`
/// the CSR row offsets — no cursor array needed.
fn shift_counts(off: &mut [usize]) -> usize {
    let mut start = 0;
    for slot in &mut off[1..] {
        start += std::mem::replace(slot, start);
    }
    start
}

/// Reusable scratch state for [`refill_component_into`].
///
/// The component fill's working vectors (frozen flags, active-member
/// counts, the active flows, the live constraints as `(constraint,
/// remaining, saturation bound)` and a round's saturated ones) are kept
/// here so a caller that allocates every simulation tick —
/// [`crate::Mesh`] — performs zero heap allocations on the steady state.
#[derive(Debug, Clone, Default)]
pub(crate) struct AllocScratch {
    frozen: Vec<bool>,
    active_count: Vec<usize>,
    active: Vec<usize>,
    live: Vec<(usize, f64, f64)>,
    saturated: Vec<usize>,
}

/// Progressive-filling water-fill of component `comp`, in place.
///
/// Resets the component's slice of the working state (`frozen`,
/// `active_count`, the live constraints), then runs the incremental
/// water-filling rounds restricted to the component's flows and
/// constraints, writing each flow's entry of `rates` once, when it
/// freezes; every other entry of `rates` is left untouched. This is *the*
/// canonical fill: the dense oracle in `tests/properties.rs` reaches the
/// same floating-point values by re-scanning membership lists and adding
/// to every rate, and [`crate::Mesh`] calls this for each dirty component
/// — when a tick changes one link's capacity, only that link's component
/// is refilled and the rest keeps its previous allocation verbatim. State
/// arrays are global-sized; only the component's entries are read or
/// written, so disjoint components can be filled in any order with
/// bit-identical results. A round walks only the *live* constraints, those
/// with an active member: a dead one can neither bind nor saturate, each
/// live one sees the oracle's subtractions in order, and a minimum over a
/// set is exact, so dropping the dead moves no bit.
///
/// Each flow whose rate bits the fill changes is passed to `moved` (the
/// mesh re-sums only the usage views those flows cross; the one-shot fill
/// passes a no-op, which compiles away).
///
/// It also writes each flow's demand *floor*: a flow frozen by a
/// saturated constraint in a round whose `min_demand` lies strictly
/// below its demand gets that `min_demand`; every other flow gets +∞.
/// Any set of demand changes that keeps each changed flow strictly above
/// its floor repeats every round bit for bit — `min_demand` never falls
/// from round to round, so a changed flow is never a round's minimum and
/// always passes the `d − level` test that minimum passed (its bound
/// depends on the level alone), and saturation freezes read no demand —
/// so it moves no rate and no floor.
///
/// # Panics
///
/// Panics if `rates`/`floors`/CSR sizes are inconsistent with
/// `demands.len()`. Members are not range-checked here: the public
/// [`max_min_allocate`] rejects an out-of-range one while building the CSR.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refill_component_into(
    comp: u32,
    demands: &[Bandwidth],
    constraints: &[Constraint],
    flow_cons_off: &[usize],
    flow_cons: &[usize],
    comps: &ComponentIndex,
    scratch: &mut AllocScratch,
    rates: &mut [f64],
    floors: &mut [f64],
    moved: &mut impl FnMut(usize),
) {
    let n = demands.len();
    assert_eq!(flow_cons_off.len(), n + 1, "CSR offsets must have len n + 1");
    assert_eq!(rates.len(), n, "rates must hold one slot per flow");
    assert_eq!(floors.len(), n, "floors must hold one slot per flow");
    // Cover every flow and constraint without clearing existing entries:
    // the reset below touches exactly the component's.
    let AllocScratch { frozen, active_count, active, live, saturated } = scratch;
    let mut write = |i: usize, rate: f64| {
        if rates[i].to_bits() != rate.to_bits() {
            moved(i);
        }
        rates[i] = rate;
    };
    frozen.resize(frozen.len().max(n), false);
    active_count.resize(active_count.len().max(constraints.len()), 0);
    let (comp_flows, comp_cons) = (comps.flows_of(comp), comps.constraints_of(comp));
    // Reset the component's state: every constraint starts live with all
    // its members active; zero-demand flows pre-freeze at rate 0
    // (mirroring the historical global pre-pass) and leave their
    // constraints' counts; everything else starts unfrozen at rate 0.
    live.clear();
    for &ci in comp_cons {
        let c = &constraints[ci];
        active_count[ci] = c.members.len();
        live.push((ci, c.capacity.as_bps(), saturated_below(c.capacity)));
    }
    active.clear();
    let mut min_demand = f64::INFINITY;
    for &i in comp_flows {
        let d = demands[i].as_bps();
        floors[i] = f64::INFINITY;
        if d <= EPS {
            write(i, 0.0);
            frozen[i] = true;
            for &ci in &flow_cons[flow_cons_off[i]..flow_cons_off[i + 1]] {
                active_count[ci] -= 1;
            }
        } else {
            frozen[i] = false;
            active.push(i);
            min_demand = min_demand.min(d);
        }
    }

    // Every active flow has received the same additions from 0.0, so
    // all of them carry one rate: the water `level`. A flow's rate is
    // written once, as the level, when it freezes.
    let mut level = 0.0f64;
    while !active.is_empty() {
        // Drop the constraints left with no active member; the smallest
        // per-flow increment until a live one saturates, …
        let mut bind = f64::INFINITY;
        live.retain(|&(ci, remaining, _)| {
            let k = active_count[ci];
            if k > 0 {
                bind = bind.min(remaining / k as f64);
            }
            k > 0
        });
        debug_assert!(live.iter().all(|&(ci, ..)| active_count[ci] > 0), "a dead constraint kept");
        debug_assert_eq!(live.len(), comp_cons.iter().filter(|&&ci| active_count[ci] > 0).count());
        // … or until some flow hits its demand: `min(demand − level)` is
        // `min(demand) − level`, subtraction being monotone in the minuend.
        let delta = (min_demand - level).min(bind).max(0.0);
        level += delta;
        // Charge each live constraint at the round's starting counts and
        // collect the saturated ones. Freezing here would decrement the
        // counts of constraints later in the list before their charge.
        saturated.clear();
        for (ci, remaining, bound) in live.iter_mut() {
            count_charge();
            *remaining -= delta * active_count[*ci] as f64;
            if *remaining <= *bound {
                saturated.push(*ci);
            }
        }

        // Freeze members of saturated constraints and demand-satisfied
        // flows, decrementing the counts of every constraint a freezing
        // flow belongs to. The frozen set does not depend on the order
        // of the two passes, so saturation goes first (skipping a
        // constraint an earlier freeze emptied) and the demand pass also
        // compacts the active list and finds the next minimum. At least
        // one flow freezes per round (delta picked the binding resource),
        // so the loop terminates.
        let before = active.len();
        for &ci in saturated.iter() {
            if active_count[ci] == 0 {
                continue;
            }
            for &m in &constraints[ci].members {
                if !frozen[m] {
                    frozen[m] = true;
                    write(m, level);
                    if demands[m].as_bps() > min_demand {
                        floors[m] = min_demand;
                    }
                    for &cj in &flow_cons[flow_cons_off[m]..flow_cons_off[m + 1]] {
                        active_count[cj] -= 1;
                    }
                }
            }
        }
        min_demand = f64::INFINITY;
        let reached = EPS.max(ULPS * level);
        let mut kept = 0;
        for k in 0..active.len() {
            let i = active[k];
            if frozen[i] {
                continue;
            }
            let d = demands[i].as_bps();
            if d - level <= reached {
                frozen[i] = true;
                write(i, level);
                for &ci in &flow_cons[flow_cons_off[i]..flow_cons_off[i + 1]] {
                    active_count[ci] -= 1;
                }
            } else {
                active[kept] = i;
                kept += 1;
                min_demand = min_demand.min(d);
            }
        }
        if kept == before {
            // Defensive: numerical corner where nothing moved.
            break;
        }
        active.truncate(kept);
    }
    for &i in active.iter() {
        write(i, level);
    }
}

/// The rate the canonical fill grants a flow that crosses no constraint
/// (an empty CSR row — loopback traffic): its full demand in bps, or
/// zero for (near-)zero demands. [`crate::Mesh`] applies this rule
/// directly when an unconstrained flow's demand moves, without touching
/// any component.
pub(crate) fn unconstrained_rate(demand: Bandwidth) -> f64 {
    let d = demand.as_bps();
    if d > EPS {
        d
    } else {
        0.0
    }
}

/// Builds the CSR-style flow → constraints reverse map consumed by
/// [`refill_component_into`], with one entry per membership instance:
/// flow `i`'s constraints are `cons[off[i]..off[i + 1]]`.
/// `off` receives `n + 1` offsets and `cons` the flattened constraint
/// indices; both are reused without reallocating when possible.
fn build_flow_constraint_map(
    n: usize,
    constraints: &[Constraint],
    off: &mut Vec<usize>,
    cons: &mut Vec<usize>,
) {
    off.clear();
    off.resize(n + 1, 0);
    for c in constraints {
        for &m in &c.members {
            assert!(m < n, "constraint references unknown flow index {m}");
            off[m + 1] += 1;
        }
    }
    cons.clear();
    cons.resize(shift_counts(off), 0);
    for (ci, c) in constraints.iter().enumerate() {
        for &m in &c.members {
            cons[off[m + 1]] = ci;
            off[m + 1] += 1;
        }
    }
}

/// Reusable state of the one-shot fill: the flow → constraint map, the
/// component index, the fill's working arrays, rates and floors. A caller
/// that fills many small problems in a row — the controller's target
/// scorer — keeps one and allocates nothing once it has grown to the
/// largest problem.
#[derive(Debug, Clone, Default)]
pub struct FillScratch {
    off: Vec<usize>,
    cons: Vec<usize>,
    comps: ComponentIndex,
    alloc: AllocScratch,
    rates: Vec<f64>,
    floors: Vec<f64>,
}

impl FillScratch {
    /// [`max_min_allocate`] over this scratch: one rate per flow, in bps.
    ///
    /// # Panics
    ///
    /// Panics if a constraint references a flow index `>= demands.len()`.
    pub fn allocate(&mut self, demands: &[Bandwidth], constraints: &[Constraint]) -> &[f64] {
        let FillScratch { off, cons, comps, alloc, rates, floors } = self;
        let n = demands.len();
        build_flow_constraint_map(n, constraints, off, cons);
        comps.rebuild(n, constraints, off, cons);
        // Unconstrained flows (loopback) keep this grant; every other rate
        // is written by its component's fill.
        rates.clear();
        rates.extend(demands.iter().map(|&d| unconstrained_rate(d)));
        floors.clear();
        floors.resize(n, f64::INFINITY);
        // Nothing reads which rates moved: the no-op record costs nothing.
        let moved = &mut |_| {};
        for comp in 0..comps.component_count() as u32 {
            refill_component_into(
                comp,
                demands,
                constraints,
                off,
                cons,
                comps,
                alloc,
                rates,
                floors,
                moved,
            );
        }
        rates
    }

    /// The last [`allocate`](Self::allocate)'s demand floors, one per flow.
    pub fn floors(&self) -> &[f64] {
        &self.floors
    }
}

/// Computes the demand-capped max-min fair allocation.
///
/// `demands[i]` is flow *i*'s offered load; each [`Constraint`] couples a
/// capacity with the set of flows that cross it. Flows that appear in no
/// constraint are granted their full demand (loopback traffic).
///
/// Returns one rate per flow. The result satisfies:
///
/// - *feasibility*: for every constraint, the sum of member rates does
///   not exceed its capacity (within floating-point tolerance);
/// - *demand-boundedness*: `rate[i] <= demands[i]`;
/// - *max-min fairness*: a flow's rate can only be below its demand if it
///   crosses a saturated constraint on which no other member has a
///   larger rate that could be reduced in its favor.
///
/// This is the one-shot form of the per-component fill, over every
/// component in canonical order, on a fresh [`FillScratch`]; `Mesh` keeps
/// the scratch buffers, the flow → constraint map and the component index
/// alive between ticks and refills only the dirty components.
pub fn max_min_allocate(demands: &[Bandwidth], constraints: &[Constraint]) -> Vec<Bandwidth> {
    let mut fill = FillScratch::default();
    fill.allocate(demands, constraints).iter().map(|&r| Bandwidth::from_bps(r)).collect()
}

/// Counts the constraint charges of the fill's rounds: in unit tests
/// only, a no-op otherwise.
#[cfg(not(test))]
fn count_charge() {}

#[cfg(test)]
use tests::count_charge;

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        static CHARGES: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn count_charge() {
        CHARGES.with(|n| n.set(n.get() + 1));
    }

    #[test]
    fn a_round_charges_only_the_live_constraints() {
        // Flow 0 (demand 1) alone crosses four 100 Mbps links; flow 1
        // (demand 50) crosses a 10 Mbps link with it and one of its own.
        // Round one charges all six constraints and freezes flow 0 at its
        // demand, which leaves its four own links with no active member;
        // round two charges only the two flow 1 still crosses.
        let own = |members: Vec<usize>, cap: f64| Constraint { capacity: mbps(cap), members };
        let mut constraints = vec![own(vec![0, 1], 10.0), own(vec![1], 100.0)];
        constraints.extend((0..4).map(|_| own(vec![0], 100.0)));
        CHARGES.with(|n| n.set(0));
        let rates = max_min_allocate(&[mbps(1.0), mbps(50.0)], &constraints);
        assert_mbps(rates[0], 1.0);
        assert_mbps(rates[1], 9.0);
        assert_eq!(CHARGES.with(Cell::get), 6 + 2, "a dead constraint was charged");
    }

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    fn assert_mbps(actual: Bandwidth, expected: f64) {
        assert!(
            (actual.as_mbps() - expected).abs() < 1e-6,
            "expected {expected} Mbps, got {}",
            actual.as_mbps()
        );
    }

    #[test]
    fn equal_share_on_single_link() {
        let demands = vec![mbps(100.0), mbps(100.0)];
        let constraints = vec![Constraint { capacity: mbps(10.0), members: vec![0, 1] }];
        let rates = max_min_allocate(&demands, &constraints);
        assert_mbps(rates[0], 5.0);
        assert_mbps(rates[1], 5.0);
    }

    #[test]
    fn demand_caps_respected_and_excess_redistributed() {
        // Flow 0 wants only 2; flow 1 takes the remaining 8.
        let demands = vec![mbps(2.0), mbps(100.0)];
        let constraints = vec![Constraint { capacity: mbps(10.0), members: vec![0, 1] }];
        let rates = max_min_allocate(&demands, &constraints);
        assert_mbps(rates[0], 2.0);
        assert_mbps(rates[1], 8.0);
    }

    #[test]
    fn unconstrained_flow_gets_demand() {
        let demands = vec![mbps(42.0)];
        let rates = max_min_allocate(&demands, &[]);
        assert_mbps(rates[0], 42.0);
    }

    #[test]
    fn zero_capacity_starves_members() {
        let demands = vec![mbps(5.0), mbps(5.0)];
        let constraints = vec![
            Constraint { capacity: Bandwidth::ZERO, members: vec![0] },
            Constraint { capacity: mbps(10.0), members: vec![1] },
        ];
        let rates = max_min_allocate(&demands, &constraints);
        assert_mbps(rates[0], 0.0);
        assert_mbps(rates[1], 5.0);
    }

    #[test]
    fn classic_two_link_example() {
        // Textbook: link A (cap 10) carries flows 0,1; link B (cap 4)
        // carries flows 1,2. Max-min: flow1 = 2, flow2 = 2, flow0 = 8.
        let demands = vec![mbps(100.0), mbps(100.0), mbps(100.0)];
        let constraints = vec![
            Constraint { capacity: mbps(10.0), members: vec![0, 1] },
            Constraint { capacity: mbps(4.0), members: vec![1, 2] },
        ];
        let rates = max_min_allocate(&demands, &constraints);
        assert_mbps(rates[1], 2.0);
        assert_mbps(rates[2], 2.0);
        assert_mbps(rates[0], 8.0);
    }

    #[test]
    fn multi_hop_flow_limited_by_bottleneck() {
        // A flow crossing caps 10 then 3 gets 3.
        let demands = vec![mbps(100.0)];
        let constraints = vec![
            Constraint { capacity: mbps(10.0), members: vec![0] },
            Constraint { capacity: mbps(3.0), members: vec![0] },
        ];
        let rates = max_min_allocate(&demands, &constraints);
        assert_mbps(rates[0], 3.0);
    }

    #[test]
    fn zero_demand_flow_gets_zero() {
        let demands = vec![Bandwidth::ZERO, mbps(5.0)];
        let constraints = vec![Constraint { capacity: mbps(10.0), members: vec![0, 1] }];
        let rates = max_min_allocate(&demands, &constraints);
        assert_mbps(rates[0], 0.0);
        assert_mbps(rates[1], 5.0);
    }

    #[test]
    fn feasibility_holds_for_many_flows() {
        let demands: Vec<Bandwidth> = (1..=20).map(|i| mbps(i as f64)).collect();
        // Two overlapping constraints.
        let constraints = vec![
            Constraint { capacity: mbps(30.0), members: (0..10).collect() },
            Constraint { capacity: mbps(25.0), members: (5..20).collect() },
        ];
        let rates = max_min_allocate(&demands, &constraints);
        for c in &constraints {
            let used: f64 = c.members.iter().map(|&m| rates[m].as_mbps()).sum();
            assert!(used <= c.capacity.as_mbps() + 1e-6, "constraint violated: {used}");
        }
        for (i, r) in rates.iter().enumerate() {
            assert!(r.as_mbps() <= demands[i].as_mbps() + 1e-9);
        }
    }

    #[test]
    fn scratch_reuse_across_differently_sized_problems() {
        let mut scratch = AllocScratch::default();
        let mut comps = ComponentIndex::default();
        let mut off = Vec::new();
        let mut cons = Vec::new();
        for n in [5usize, 2, 9, 1] {
            let demands: Vec<Bandwidth> = (0..n).map(|i| mbps(1.0 + i as f64)).collect();
            let constraints = vec![Constraint { capacity: mbps(6.0), members: (0..n).collect() }];
            build_flow_constraint_map(n, &constraints, &mut off, &mut cons);
            comps.rebuild(n, &constraints, &off, &cons);
            let mut out = vec![0.0; n];
            refill_component_into(
                0,
                &demands,
                &constraints,
                &off,
                &cons,
                &comps,
                &mut scratch,
                &mut out,
                &mut vec![0.0; n],
                &mut |_| {},
            );
            let expected = max_min_allocate(&demands, &constraints);
            assert_eq!(out.len(), n);
            for (got, want) in out.iter().zip(&expected) {
                assert_eq!(got.to_bits(), want.as_bps().to_bits());
            }
        }
    }

    /// Patching a partition after flows leave and join must land on the
    /// partition a rebuild of the same rows derives, numbering included,
    /// whether or not the patch re-derived it.
    #[test]
    fn component_patch_splits_and_merges_like_a_rebuild() {
        // Constraints 0-1-2 chained by flows 0 (0,1) and 1 (1,2); 3 and
        // 4 joined by flow 2; flow 3 alone on 5.
        let mut rows: Vec<Vec<usize>> = vec![vec![0, 1], vec![1, 2], vec![3, 4], vec![5]];
        // The CSR map and member lists of the live rows (a dead row is empty).
        let csr = |rows: &[Vec<usize>], live: &[bool]| {
            let mut off = vec![0];
            let mut cons = Vec::new();
            let mut constraints: Vec<Constraint> =
                (0..6).map(|_| Constraint { capacity: mbps(1.0), members: Vec::new() }).collect();
            for (f, (row, &l)) in rows.iter().zip(live).enumerate() {
                if l {
                    cons.extend(row);
                    row.iter().for_each(|&ci| constraints[ci].members.push(f));
                }
                off.push(cons.len());
            }
            (off, cons, constraints)
        };
        let mut live = vec![true; 4];
        let (off, cons, constraints) = csr(&rows, &live);
        let mut patched = ComponentIndex::default();
        patched.rebuild(4, &constraints, &off, &cons);
        assert_eq!(patched.component_count(), 3);
        let check = |patched: &mut ComponentIndex, rows: &[Vec<usize>], live: &[bool]| {
            let (off, cons, constraints) = csr(rows, live);
            let mut repatched = Vec::new();
            let relabelled = patched.patch(&constraints, &off, &cons, &mut repatched);
            let mut fresh = ComponentIndex::default();
            fresh.rebuild(rows.len(), &constraints, &off, &cons);
            assert_eq!(patched.flow_comp, fresh.flow_comp);
            assert_eq!(patched.cons_comp, fresh.cons_comp);
            assert_eq!(patched.comp_flows_off, fresh.comp_flows_off);
            assert_eq!(patched.comp_flows, fresh.comp_flows);
            assert_eq!(patched.comp_cons_off, fresh.comp_cons_off);
            assert!(!patched.patch_pending());
            (repatched, relabelled)
        };
        // Removing the bridge (flow 1) splits {0,1,2} into {0,1} and {2}.
        patched.detach_flow(1, &rows[1]);
        live[1] = false;
        assert_eq!(check(&mut patched, &rows, &live), (vec![0, 1, 2], true));
        assert_eq!(patched.component_count(), 4);
        // A flow over 2 and 3 merges {2} with {3,4}.
        rows.push(vec![2, 3]);
        live.push(true);
        patched.push_flow(&rows[4]);
        assert_eq!(check(&mut patched, &rows, &live), (vec![2, 3, 4], true));
        assert_eq!(patched.component_count(), 3);
        // Pushed and detached before any patch: nothing left to merge.
        rows.push(vec![0, 5]);
        live.push(false);
        patched.push_flow(&rows[5]);
        patched.detach_flow(5, &rows[5]);
        assert_eq!(check(&mut patched, &rows, &live), (vec![0, 1, 5], false));
        assert_eq!(patched.component_count(), 3);
        // A flow parallel to flow 0 replaces it: {0,1} stays one component.
        rows.push(vec![0, 1]);
        live.push(true);
        patched.push_flow(&rows[6]);
        patched.detach_flow(0, &rows[0]);
        live[0] = false;
        assert_eq!(check(&mut patched, &rows, &live), (vec![0, 1], false));
        // Flow 3 leaves 5 memberless: the singleton it was.
        patched.detach_flow(3, &rows[3]);
        live[3] = false;
        assert_eq!(check(&mut patched, &rows, &live), (vec![5], false));
        assert_eq!(patched.component_count(), 3);
    }

    #[test]
    fn flow_id_displays_with_its_prefix() {
        assert_eq!(FlowId(3).to_string(), "f3");
    }
}
