//! The link-capacity part of [`Mesh`](crate::Mesh): each link's
//! capacity source and `tc` cap, stale-trace freezes, and the snapshot
//! of effective capacities the allocator last read.
//!
//! Invariant: while [`LinkCaps::current`] holds, `link_cap_bps[l]`
//! equals [`LinkCaps::effective`] for every link `l`. Each capacity input
//! here stales the trace clock or queues its link; an up/down change
//! stales it through [`LinkCaps::invalidate`], and `Mesh::rebuilt`
//! through [`LinkCaps::rewind`].

use crate::capacity::{CapacitySource, LinkCapacity};
use crate::routes::Routes;
use crate::topology::LinkId;
use bass_util::time::SimTime;
use bass_util::units::Bandwidth;
use std::collections::BTreeMap;

/// Per-link capacity state.
///
/// Logical: `link_caps`, `trace_freeze`. Derived: `trace_clock`,
/// `trace_cursor`, `link_cap_bps`, `link_dirty`/`dirty_links` and
/// `cap_changed` — a full re-read rebuilds all of them.
#[derive(Debug, Clone)]
pub(crate) struct LinkCaps {
    /// Each link's source and `tc` cap, by `LinkId`.
    link_caps: Vec<LinkCapacity>,
    /// Links whose trace feed is frozen at a past instant (fault
    /// injection): capacity reads use the frozen time, not `now`.
    trace_freeze: BTreeMap<LinkId, SimTime>,
    /// The earliest change-point of any unfrozen traced link after the
    /// last full read (inner `None`: no trace changes again). The outer
    /// `None` marks it stale: never read, a source swapped, a link
    /// (un)frozen.
    trace_clock: Option<Option<SimTime>>,
    /// Per-link sample cursors of the full capacity re-read
    /// ([`BandwidthTrace::read_forward`](bass_trace::BandwidthTrace::read_forward)),
    /// which re-arms the trace clock in the same pass.
    trace_cursor: Vec<u32>,
    /// Effective per-link capacities (bps) as of the last refresh — the
    /// queue pass derives utilizations from these, and every public
    /// capacity read serves from them while the snapshot is current.
    link_cap_bps: Vec<f64>,
    /// Links whose `tc` cap moved since the last refresh, with per-link
    /// flags. Trace change-points need no entry: a due clock reads all.
    dirty_links: Vec<u32>,
    link_dirty: Vec<bool>,
    /// Links whose effective capacity *actually* moved in the last
    /// refresh — the O(dirty) input of the component scan.
    cap_changed: Vec<u32>,
}

impl LinkCaps {
    /// `link_count` links of zero constant capacity.
    pub(crate) fn new(link_count: usize) -> Self {
        let zero = LinkCapacity::new(CapacitySource::Constant(Bandwidth::ZERO));
        LinkCaps {
            link_caps: vec![zero; link_count],
            trace_freeze: BTreeMap::new(),
            trace_clock: None,
            trace_cursor: vec![0; link_count],
            link_cap_bps: vec![0.0; link_count],
            link_dirty: vec![false; link_count],
            dirty_links: Vec::new(),
            cap_changed: Vec::new(),
        }
    }

    /// Replaces a link's base source; the stale clock makes the next
    /// refresh read every link.
    pub(crate) fn set_source(&mut self, lid: LinkId, source: CapacitySource) {
        self.link_caps[lid.0].set_source(source);
        self.trace_clock = None;
    }

    /// Applies or clears a link's `tc` cap and queues the link for the
    /// next refresh.
    pub(crate) fn set_cap(&mut self, lid: LinkId, cap: Option<Bandwidth>) {
        self.link_caps[lid.0].set_cap(cap);
        if !self.link_dirty[lid.0] {
            self.link_dirty[lid.0] = true;
            self.dirty_links.push(lid.0 as u32);
        }
    }

    /// Stales the trace clock, so the snapshot is not current until the
    /// next full re-read: something outside this part (the up/down
    /// state) moved what a capacity read returns.
    pub(crate) fn invalidate(&mut self) {
        self.trace_clock = None;
    }

    /// Stales the trace clock and rewinds every sample cursor, so the
    /// next refresh reads each link from its source's first sample, as
    /// on a freshly built mesh.
    pub(crate) fn rewind(&mut self) {
        self.trace_clock = None;
        self.trace_cursor.fill(0);
    }

    /// Freezes a link's trace feed at `at` (kept if already frozen), or
    /// with `None` unfreezes it. Either stales the clock.
    pub(crate) fn set_frozen(&mut self, lid: LinkId, at: Option<SimTime>) {
        if let Some(at) = at {
            self.trace_freeze.entry(lid).or_insert(at);
        } else {
            self.trace_freeze.remove(&lid);
        }
        self.trace_clock = None;
    }

    /// The capacity the allocator grants the link at `now`: zero when
    /// unusable, otherwise the source's value at `now` (or at the freeze
    /// instant for stale-trace links), with any `tc` cap applied.
    pub(crate) fn effective(&self, lid: LinkId, routes: &Routes, now: SimTime) -> Bandwidth {
        if !routes.usable(lid) {
            return Bandwidth::ZERO;
        }
        let at = self.trace_freeze.get(&lid).copied().unwrap_or(now);
        self.link_caps[lid.0].effective_at(at)
    }

    /// The snapshot predicate: no `tc` change queued and a trace clock
    /// still ahead of `now` — exactly when a refresh would re-read
    /// nothing.
    pub(crate) fn current(&self, now: SimTime) -> bool {
        self.dirty_links.is_empty() && self.armed_clock(now).is_some()
    }

    /// The effective capacity of `lid` at `now`: one snapshot read while
    /// it is current, else the source read.
    pub(crate) fn capacity(&self, lid: LinkId, routes: &Routes, now: SimTime) -> Bandwidth {
        if self.current(now) {
            Bandwidth::from_bps(self.link_cap_bps[lid.0])
        } else {
            count_source_read();
            self.effective(lid, routes, now)
        }
    }

    /// The effective capacities (bps) the last refresh read, by link.
    pub(crate) fn caps_bps(&self) -> &[f64] {
        &self.link_cap_bps
    }

    /// The links whose capacity the last refresh moved.
    pub(crate) fn changed(&self) -> &[u32] {
        &self.cap_changed
    }

    /// The trace clock while it still answers for `now` — armed and not
    /// yet reached; `None` when stale or due.
    fn armed_clock(&self, now: SimTime) -> Option<Option<SimTime>> {
        self.trace_clock.filter(|next| next.is_none_or(|t| t > now))
    }

    /// Earliest change-point strictly after `now` across every unfrozen
    /// traced link: one binary search per link (a read from a cursor past
    /// the end). The debug oracle of the full re-read, which arms the
    /// clock with the same answer from its cursors.
    fn scan_change(&self, now: SimTime) -> Option<SimTime> {
        self.link_caps
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.trace_freeze.contains_key(&LinkId(i)))
            .filter_map(|(_, lc)| {
                let mut past_end = u32::MAX;
                lc.read_forward(now, &mut past_end).1
            })
            .min()
    }

    /// Refreshes `link_cap_bps`, listing in `cap_changed` every link whose
    /// capacity moved; true when it read every link. It does so once the
    /// trace clock is stale or due, re-arming the clock in the same pass:
    /// each unfrozen link reads forward from its sample cursor and yields
    /// its next change-point. Otherwise it reads only the queued `tc`
    /// links — with none queued, nothing.
    pub(crate) fn refresh(&mut self, routes: &Routes, now: SimTime) -> bool {
        self.cap_changed.clear();
        if self.current(now) {
            return false;
        }
        let full = self.armed_clock(now).is_none();
        if full {
            let mut clock: Option<SimTime> = None;
            for i in 0..self.link_caps.len() {
                let lid = LinkId(i);
                let cap = if self.trace_freeze.contains_key(&lid) {
                    self.effective(lid, routes, now)
                } else {
                    let (cap, next) =
                        self.link_caps[i].read_forward(now, &mut self.trace_cursor[i]);
                    clock = match (clock, next) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                    if routes.usable(lid) { cap } else { Bandwidth::ZERO }
                };
                let bps = cap.as_bps();
                debug_assert_eq!(
                    bps.to_bits(),
                    self.effective(lid, routes, now).as_bps().to_bits()
                );
                if bps.to_bits() != self.link_cap_bps[i].to_bits() {
                    self.link_cap_bps[i] = bps;
                    self.cap_changed.push(i as u32);
                }
            }
            debug_assert_eq!(clock, self.scan_change(now));
            self.trace_clock = Some(clock);
        } else {
            for k in 0..self.dirty_links.len() {
                let l = self.dirty_links[k] as usize;
                let bps = self.effective(LinkId(l), routes, now).as_bps();
                if bps.to_bits() != self.link_cap_bps[l].to_bits() {
                    self.link_cap_bps[l] = bps;
                    self.cap_changed.push(l as u32);
                }
            }
        }
        for &l in &self.dirty_links {
            self.link_dirty[l as usize] = false;
        }
        self.dirty_links.clear();
        full
    }
}

/// Counts the capacity reads a source answers instead of the snapshot:
/// in unit tests only, a no-op otherwise.
#[cfg(not(test))]
fn count_source_read() {}

#[cfg(test)]
use tests::count_source_read;

#[cfg(test)]
mod tests {
    use crate::capacity::CapacitySource;
    use crate::topology::{LinkId, NodeId, Topology};
    use crate::Mesh;
    use bass_trace::BandwidthTrace;
    use bass_util::time::{SimDuration, SimTime};
    use bass_util::units::Bandwidth;
    use std::cell::Cell;

    thread_local! {
        static SOURCE_READS: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn count_source_read() {
        SOURCE_READS.with(|n| n.set(n.get() + 1));
    }

    #[test]
    fn capacity_reads_between_change_points_read_no_source() {
        // A traced line of three nodes (50 Mbps, 5 Mbps from 10 s on)
        // with one flow across both links.
        let mut topo = Topology::new();
        for i in 0..3 {
            topo.add_node(NodeId(i)).unwrap();
        }
        for i in 0..2 {
            topo.add_link(NodeId(i), NodeId(i + 1)).unwrap();
        }
        let mut mesh = Mesh::new(topo).unwrap();
        for i in 0..2 {
            let mut trace = BandwidthTrace::new("l");
            trace.push(SimTime::ZERO, Bandwidth::from_mbps(50.0));
            trace.push(SimTime::from_secs(10), Bandwidth::from_mbps(5.0));
            mesh.set_link_source(NodeId(i), NodeId(i + 1), CapacitySource::Trace(trace)).unwrap();
        }
        mesh.add_flow(NodeId(0), NodeId(2), Bandwidth::from_mbps(20.0)).unwrap();
        // What the headroom probe reads of every link, and how many of
        // those reads a source answered.
        let reads = |mesh: &Mesh| {
            SOURCE_READS.with(|n| n.set(0));
            for l in 0..2 {
                std::hint::black_box(mesh.link_capacity_by_id(LinkId(l)));
                std::hint::black_box(mesh.link_available_by_id(LinkId(l)));
            }
            SOURCE_READS.with(Cell::get)
        };
        // Before the first advance no snapshot is current.
        assert_eq!(reads(&mesh), 4);
        // Every advance, the 10 s change-point's included, leaves a
        // current snapshot: the reads between are snapshot reads.
        for tick in 0..150 {
            mesh.advance(SimDuration::from_millis(100));
            assert_eq!(reads(&mesh), 0, "tick {tick}");
        }
        // A pending `tc` cap stales it until the next advance.
        mesh.set_link_cap(NodeId(0), NodeId(1), Some(Bandwidth::from_mbps(1.0))).unwrap();
        assert_eq!(reads(&mesh), 4);
        mesh.advance(SimDuration::from_millis(100));
        assert_eq!(reads(&mesh), 0);
    }
}
