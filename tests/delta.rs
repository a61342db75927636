//! Fast-path-vs-reference battery: the production allocator — cached
//! component index, bit-compare snapshots, delta refill of the dirty
//! components only — must be bit-identical to the rebuilt reference, a
//! twin that gets the same mutations and is replaced by
//! `Mesh::rebuilt()` before every tick, so routes, index and capacity
//! reads are derived from scratch each time. Checked under OU-trace
//! perturbation, flow churn and random schedules; composed fault storms
//! and generated admit/retire lifecycles run production's `run_for`
//! (quiet ticks, and advances that skip what did not move) against the environment-level reference (`tests/support`),
//! which `SimEnv::rebuild`s before every tick (see
//! `docs/ARCHITECTURE.md` § The allocator and its reference).

mod support;

use bass::appdag::catalog;
use bass::apps::testbeds::{citylab_testbed, lan_testbed};
use bass::core::PolicyKind;
use bass::emu::{SimEnv, SimEnvConfig};
use bass::faults::{FaultPlan, StormProfile};
use bass::mesh::{CapacitySource, FlowId, Mesh, NodeId, Topology};
use bass::obs::{Journal, SpanProfiler};
use bass::scenario::ScenarioSpec;
use bass::trace::OuTraceConfig;
use bass::util::rng::SimRng;
use bass::util::time::SimDuration;
use bass::util::units::Bandwidth;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Ring + random chords topology: always connected, arbitrary shape.
fn ring_with_chords(n: u32, extra: usize, seed: u64) -> Topology {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut topo = Topology::new();
    for i in 0..n {
        topo.add_node(NodeId(i)).unwrap();
    }
    for i in 0..n {
        topo.add_link(NodeId(i), NodeId((i + 1) % n)).ok();
    }
    for _ in 0..extra {
        let a = rng.below(n as u64) as u32;
        let b = rng.below(n as u64) as u32;
        if a != b {
            topo.add_link(NodeId(a), NodeId(b)).ok();
        }
    }
    topo
}

/// A not-yet-ticked mesh and its twin, the rebuilt reference.
struct Pair {
    reference: Mesh,
    production: Mesh,
}

impl Pair {
    fn new(mesh: Mesh) -> Self {
        Pair {
            reference: mesh.clone(),
            production: mesh,
        }
    }

    /// One reference tick: the twin is rebuilt from its logical state,
    /// then advanced.
    fn advance_reference(&mut self, step: SimDuration) {
        self.reference = self.reference.rebuilt();
        self.reference.advance(step);
    }

    /// Applies the same mutation to both meshes; returns the production
    /// side's result (flow ids are allocated identically on both).
    fn both<T>(&mut self, mut f: impl FnMut(&mut Mesh) -> T) -> T {
        f(&mut self.reference);
        f(&mut self.production)
    }

    /// Every public capacity read must match bit-for-bit on every link,
    /// undirected and in both directions. The reads come from a rebuilt
    /// copy of the reference, whose stale trace clock makes it read the
    /// sources; production serves from its snapshot whenever it judges
    /// it current, so a stale snapshot it trusts shows up here. The
    /// available reads fold in every capped endpoint's egress usage, so
    /// they check production's egress view against the reference's too.
    fn assert_capacities_agree(&self, when: &str) {
        let reference = self.reference.rebuilt();
        for (lid, link) in reference.topology().links() {
            let (a, b) = (link.a, link.b);
            let reads = |m: &Mesh| {
                [
                    ("capacity", m.link_capacity_by_id(lid)),
                    ("available", m.link_available_by_id(lid)),
                    ("effective", m.link_effective_capacity(a, b).unwrap()),
                    ("capacity a→b", m.directed_link_capacity(a, b).unwrap()),
                    ("capacity b→a", m.directed_link_capacity(b, a).unwrap()),
                    ("available a→b", m.directed_link_available(a, b).unwrap()),
                    ("available b→a", m.directed_link_available(b, a).unwrap()),
                ]
            };
            let pairs = reads(&reference).into_iter().zip(reads(&self.production));
            for ((what, a), (_, b)) in pairs {
                assert_eq!(
                    a.as_bps().to_bits(),
                    b.as_bps().to_bits(),
                    "{when}: link {lid} {what} diverged (reference {a} vs production {b})"
                );
            }
        }
    }

    /// Flow rates, backlogs, link usages and capacity reads must match
    /// bit-for-bit.
    fn assert_agree(&self, ids: &[FlowId], when: &str) {
        self.assert_capacities_agree(when);
        for &id in ids {
            let (ra, rb) = (self.reference.flow_rate(id), self.production.flow_rate(id));
            assert_eq!(
                ra.as_bps().to_bits(),
                rb.as_bps().to_bits(),
                "{when}: flow {id} rate diverged (reference {ra} vs production {rb})"
            );
            let ba = self.reference.flow_backlog(id).unwrap().as_bytes();
            let bb = self.production.flow_backlog(id).unwrap().as_bytes();
            assert_eq!(
                ba, bb,
                "{when}: flow {id} backlog diverged ({ba} vs {bb} bytes)"
            );
        }
        for (lid, link) in self.reference.topology().links() {
            let ua = self.reference.link_usage(link.a, link.b).unwrap();
            let ub = self.production.link_usage(link.a, link.b).unwrap();
            assert_eq!(
                ua.as_bps().to_bits(),
                ub.as_bps().to_bits(),
                "{when}: link {lid} usage diverged (reference {ua} vs production {ub})"
            );
        }
    }

    fn advance_and_check(&mut self, step: SimDuration, ids: &[FlowId], when: &str) {
        self.advance_reference(step);
        self.production.advance(step);
        self.assert_agree(ids, when);
    }
}

/// `mesh` with every `stride`-th link breathing under its own OU trace,
/// seeded per link.
fn with_ou_traces(mut mesh: Mesh, stride: usize, mean: f64, rel_std: f64, seed: u64) -> Mesh {
    for (lid, link) in mesh.topology().links().collect::<Vec<_>>() {
        if lid.0 % stride == 0 {
            let cfg = OuTraceConfig::new(format!("l{}", lid.0), mean).relative_std(rel_std);
            let trace = cfg.generate(seed ^ lid.0 as u64, SimDuration::from_secs(30));
            mesh.set_link_source(link.a, link.b, CapacitySource::Trace(trace))
                .unwrap();
        }
    }
    mesh
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // OU traces move every link capacity every tick; the dirty-component
    // scan must still reproduce the rebuilt reference exactly, tick
    // after tick.
    #[test]
    fn delta_matches_the_rebuilt_reference_under_ou_traces(
        n in 3u32..8,
        extra in 0usize..6,
        n_flows in 2usize..8,
        mean in 8.0f64..40.0,
        rel_std in 0.05f64..0.4,
        seed in any::<u64>(),
    ) {
        let topo = ring_with_chords(n, extra, seed);
        let mesh = Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(mean)).unwrap();
        let mut pair = Pair::new(with_ou_traces(mesh, 1, mean, rel_std, seed));
        let mut rng = SimRng::seed_from_u64(seed ^ 0xDE17A);
        let mut ids = Vec::new();
        for _ in 0..n_flows {
            let src = NodeId(rng.below(n as u64) as u32);
            let dst = NodeId(rng.below(n as u64) as u32);
            let demand = Bandwidth::from_mbps(rng.uniform(0.5, 2.0 * mean));
            ids.push(pair.both(|m| m.add_flow(src, dst, demand).unwrap()));
        }
        for tick in 0..40 {
            pair.advance_and_check(SimDuration::from_millis(250), &ids, &format!("OU tick {tick}"));
        }
    }

    // Flow churn, demand rewrites, egress caps, and link squeezes all
    // land on the snapshot/dirty paths; state must stay bit-identical to
    // the rebuilt reference after every mutation.
    #[test]
    fn delta_matches_the_rebuilt_reference_through_churn(
        n in 3u32..9,
        extra in 0usize..8,
        n_flows in 2usize..10,
        seed in any::<u64>(),
    ) {
        let topo = ring_with_chords(n, extra, seed);
        let mut pair =
            Pair::new(Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(20.0)).unwrap());
        let mut rng = SimRng::seed_from_u64(seed ^ 0xC4u64);
        let mut ids = Vec::new();
        let step = SimDuration::from_millis(100);
        for _ in 0..n_flows {
            let src = NodeId(rng.below(n as u64) as u32);
            let dst = NodeId(rng.below(n as u64) as u32);
            let demand = Bandwidth::from_mbps(rng.uniform(0.5, 30.0));
            ids.push(pair.both(|m| m.add_flow(src, dst, demand).unwrap()));
            pair.advance_and_check(step, &ids, "after add");
        }
        // Rewrite one flow's demand, cap a node, squeeze a link.
        let touched = ids[rng.below(ids.len() as u64) as usize];
        let new_demand = Bandwidth::from_mbps(rng.uniform(0.1, 40.0));
        pair.both(|m| m.set_flow_demand(touched, new_demand).unwrap());
        pair.advance_and_check(step, &ids, "after demand rewrite");
        let capped = NodeId(rng.below(n as u64) as u32);
        pair.both(|m| m.set_node_egress_cap(capped, Some(Bandwidth::from_mbps(5.0))).unwrap());
        pair.advance_and_check(step, &ids, "after egress cap");
        let squeezed = NodeId(rng.below(n as u64) as u32);
        let peer = NodeId((squeezed.0 + 1) % n);
        pair.both(|m| m.set_link_cap(squeezed, peer, Some(Bandwidth::from_mbps(1.0))).unwrap());
        pair.advance_and_check(step, &ids, "after link squeeze");
        // Remove half the flows (index rebuilds invalidate the snapshot).
        for id in ids.drain(..ids.len() / 2 + 1).collect::<Vec<_>>() {
            pair.both(|m| m.remove_flow(id).unwrap());
            pair.advance_and_check(step, &ids, "after remove");
        }
    }

    // A random schedule mixing quiescent stretches, link-cap churn,
    // demand rewrites, flow add/remove, egress caps, up/down storms,
    // mid-run trace source swaps and trace freezes over OU-trace links:
    // the dirty-set pipeline must stay bit-identical to the rebuilt
    // reference, tick after tick. A swap followed by a tick that crosses
    // another link's change-point must still read that link, every
    // capacity read between a mutation and the next tick must see it,
    // and a swapped-in trace on a sub-tick grid or one that already
    // ended must read the same through its sample cursor.
    #[test]
    fn delta_matches_the_rebuilt_reference_under_random_schedules(
        n in 3u32..8,
        extra in 0usize..6,
        n_flows in 2usize..8,
        mean in 8.0f64..40.0,
        rel_std in 0.05f64..0.35,
        seed in any::<u64>(),
    ) {
        let topo = ring_with_chords(n, extra, seed);
        let mesh = Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(mean)).unwrap();
        // Every other link breathes under its own OU trace so the
        // capacity diff's change-point schedule actually fires on some
        // ticks and stays silent on others.
        let mut pair = Pair::new(with_ou_traces(mesh, 2, mean, rel_std, seed));
        let links: Vec<_> = pair.production.topology().links().map(|(_, l)| (l.a, l.b)).collect();
        let mut traced: Vec<bool> = (0..links.len()).map(|l| l % 2 == 0).collect();
        let mut rng = SimRng::seed_from_u64(seed ^ 0xD187);
        let mut ids = Vec::new();
        for _ in 0..n_flows {
            let src = NodeId(rng.below(n as u64) as u32);
            let dst = NodeId(rng.below(n as u64) as u32);
            let demand = Bandwidth::from_mbps(rng.uniform(0.5, 2.0 * mean));
            ids.push(pair.both(|m| m.add_flow(src, dst, demand).unwrap()));
        }
        for tick in 0..32u32 {
            // One random mutation per tick — weighted toward "nothing",
            // the steady state the dirty paths are built for.
            match rng.below(14) {
                0 => {
                    let a = NodeId(rng.below(n as u64) as u32);
                    let b = NodeId((a.0 + 1) % n);
                    let cap = Some(Bandwidth::from_mbps(rng.uniform(1.0, 1.5 * mean)));
                    pair.both(|m| m.set_link_cap(a, b, cap).unwrap());
                }
                1 => {
                    let a = NodeId(rng.below(n as u64) as u32);
                    let b = NodeId((a.0 + 1) % n);
                    pair.both(|m| m.set_link_cap(a, b, None).unwrap());
                }
                2 if !ids.is_empty() => {
                    let id = ids[rng.below(ids.len() as u64) as usize];
                    let demand = Bandwidth::from_mbps(rng.uniform(0.1, 2.5 * mean));
                    pair.both(|m| m.set_flow_demand(id, demand).unwrap());
                }
                3 if ids.len() < 12 => {
                    let src = NodeId(rng.below(n as u64) as u32);
                    let dst = NodeId(rng.below(n as u64) as u32);
                    let demand = Bandwidth::from_mbps(rng.uniform(0.5, 2.0 * mean));
                    ids.push(pair.both(|m| m.add_flow(src, dst, demand).unwrap()));
                }
                4 if ids.len() > 1 => {
                    let id = ids.swap_remove(rng.below(ids.len() as u64) as usize);
                    pair.both(|m| m.remove_flow(id).unwrap());
                }
                5 => {
                    let node = NodeId(rng.below(n as u64) as u32);
                    let cap = (rng.below(2) == 0)
                        .then(|| Bandwidth::from_mbps(rng.uniform(1.0, mean)));
                    pair.both(|m| m.set_node_egress_cap(node, cap).unwrap());
                }
                6 => {
                    let a = NodeId(rng.below(n as u64) as u32);
                    let b = NodeId((a.0 + 1) % n);
                    let up = rng.below(2) == 0;
                    pair.both(|m| m.set_link_up(a, b, up).unwrap());
                }
                7 => {
                    let node = NodeId(rng.below(n as u64) as u32);
                    let up = rng.below(3) != 0;
                    pair.both(|m| m.set_node_up(node, up).unwrap());
                }
                8 | 10 => {
                    // A source swap, twice as likely as the other
                    // mutations: half the time on a traced link, whose
                    // sample cursor the full capacity re-reads have been
                    // moving.
                    let on: Vec<usize> = (0..links.len()).filter(|&l| traced[l]).collect();
                    let l = if !on.is_empty() && rng.below(2) == 0 {
                        on[rng.below(on.len() as u64) as usize]
                    } else {
                        rng.below(links.len() as u64) as usize
                    };
                    let (a, b) = links[l];
                    traced[l] = rng.below(2) == 0;
                    let source = if traced[l] {
                        // A 1 s grid like the others, a sub-tick grid (one
                        // advance crosses several change-points), a coarse
                        // grid, or a trace that ended before `now` — the
                        // link's sample cursor is left behind `now`, ahead
                        // of it or past the end.
                        let mut cfg = OuTraceConfig::new(format!("swap{tick}"), mean)
                            .relative_std(rel_std);
                        let mut length = SimDuration::from_secs(30);
                        match rng.below(4) {
                            0 => {}
                            1 => {
                                let grid = SimDuration::from_millis(30 + rng.below(80));
                                cfg = cfg.sample_interval(grid);
                            }
                            2 => {
                                let grid = SimDuration::from_millis(2_000 + rng.below(3_000));
                                cfg = cfg.sample_interval(grid);
                            }
                            _ => length = SimDuration::from_millis(u64::from(tick) * 100),
                        }
                        CapacitySource::Trace(cfg.generate(rng.next_u64(), length))
                    } else {
                        CapacitySource::Constant(Bandwidth::from_mbps(rng.uniform(1.0, 1.5 * mean)))
                    };
                    pair.both(|m| m.set_link_source(a, b, source.clone()).unwrap());
                }
                9 => {
                    let on: Vec<usize> = (0..links.len()).filter(|&l| traced[l]).collect();
                    if !on.is_empty() {
                        let (a, b) = links[on[rng.below(on.len() as u64) as usize]];
                        if rng.below(2) == 0 {
                            pair.both(|m| m.freeze_link_trace(a, b).unwrap());
                        } else {
                            pair.both(|m| m.unfreeze_link_trace(a, b).unwrap());
                        }
                    }
                }
                11 if !ids.is_empty() => {
                    // An exact-zero demand, which the demand diff after
                    // an index rebuild reads as unmoved.
                    let id = ids[rng.below(ids.len() as u64) as usize];
                    pair.both(|m| m.set_flow_demand(id, Bandwidth::ZERO).unwrap());
                }
                _ => {} // quiescent tick
            }
            // Before the advance a mutated snapshot is stale: production
            // must notice and answer from the sources.
            pair.assert_capacities_agree(&format!("schedule tick {tick}, before advance"));
            pair.advance_and_check(
                SimDuration::from_millis(250),
                &ids,
                &format!("schedule tick {tick}"),
            );
        }
    }
}

// One schedule on a mesh of sixteen single-flow components covers both
// ends of the dirty share: a squeezed link (one dirty component, its
// backlog moving every tick), then a cap change on every link, then the
// drain. Every tick refills only what moved, takes the one tail, and
// must leave the state the reference computes.
#[test]
fn one_dirty_district_then_every_link_matches_the_rebuilt_reference() {
    const N: u32 = 16;
    let topo = ring_with_chords(N, 0, 0);
    let mut pair =
        Pair::new(Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(40.0)).unwrap());
    let ids: Vec<FlowId> = (0..N)
        .map(|i| {
            let demand = Bandwidth::from_mbps(5.0 + f64::from(i % 8));
            pair.both(|m| m.add_flow(NodeId(i), NodeId((i + 1) % N), demand).unwrap())
        })
        .collect();
    let step = SimDuration::from_millis(100);
    let mut profiler = SpanProfiler::new();
    let mut ticks = 0u64;
    let mut tick = |pair: &mut Pair, when: &str| {
        pair.advance_reference(step);
        pair.production
            .advance_profiled(step, None, Some(&mut profiler));
        pair.assert_agree(&ids, when);
        ticks += 1;
    };
    tick(&mut pair, "index build");
    tick(&mut pair, "quiescent");
    pair.both(|m| {
        m.set_link_cap(NodeId(0), NodeId(1), Some(Bandwidth::from_mbps(2.0)))
            .unwrap()
    });
    for k in 0..4 {
        tick(&mut pair, &format!("squeezed tick {k}"));
    }
    assert!(
        pair.production.flow_backlog(ids[0]).unwrap().as_bytes() > 0,
        "squeeze must bite"
    );
    for i in 0..N {
        let cap = Some(Bandwidth::from_mbps(30.0));
        pair.both(|m| m.set_link_cap(NodeId(i), NodeId((i + 1) % N), cap).unwrap());
    }
    tick(&mut pair, "every link moved");
    for k in 0..3 {
        tick(&mut pair, &format!("draining tick {k}"));
    }
    let count = |span| profiler.stats(span).map_or(0, |s| s.count);
    assert_eq!(
        count("mesh.index_rebuild"),
        1,
        "flows were only added up front"
    );
    // Every tick but the quiescent one reallocates, once: there nothing
    // the allocation reads moved, so its fill stands. Every tick runs the
    // queue pass: the quiescent tick's is the first to read the built
    // allocation's utilizations, and each later tick moved a capacity or
    // a backlog.
    for span in ["mesh.cap_diff", "mesh.water_fill", "mesh.usage_views"] {
        assert_eq!(count(span), ticks - 1, "{span}: one per tick but the quiescent one");
    }
    assert_eq!(count("mesh.queues"), ticks, "mesh.queues: one per tick");
}

/// One profiled production tick against one reference tick, then the
/// bit-for-bit comparison.
fn profiled_tick(pair: &mut Pair, profiler: &mut SpanProfiler, ids: &[FlowId], when: &str) {
    let step = SimDuration::from_millis(100);
    pair.advance_reference(step);
    pair.production.advance_profiled(step, None, Some(profiler));
    pair.assert_agree(ids, when);
}

fn span_count(profiler: &SpanProfiler, span: &str) -> u64 {
    profiler.stats(span).map_or(0, |s| s.count)
}

// Flow churn patches the allocation index instead of rebuilding it. A
// 4 × 6 grid is cut into two row-band districts (rows 0–2 and 3–5)
// whose flows stay home, and one bridging flow down column 0 joins the
// two into one component. Removing the bridge splits it — the next
// squeeze in one half leaves the other half's rates untouched —
// re-adding it merges them again, and swapping flows until dead slots
// outnumber live ones compacts the index with the one further rebuild.
// Every tick must match the rebuilt reference bit for bit.
#[test]
fn bridge_split_merge_and_compaction_match_the_rebuilt_reference() {
    const W: u32 = 4;
    const HALF: u32 = 3 * W; // nodes per district
    let topo = Topology::grid(W, 6);
    let mut pair =
        Pair::new(Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(200.0)).unwrap());
    let mut rng = SimRng::seed_from_u64(0xB41D);
    let draw = |rng: &mut SimRng, district: u32| {
        let src = district * HALF + rng.below(u64::from(HALF)) as u32;
        let mut dst = src;
        while dst == src {
            dst = district * HALF + rng.below(u64::from(HALF)) as u32;
        }
        let demand = Bandwidth::from_mbps(rng.uniform(1.0, 5.0));
        (NodeId(src), NodeId(dst), demand)
    };
    let mut district_of = BTreeMap::new();
    let mut ids = Vec::new();
    let add = |pair: &mut Pair,
               ids: &mut Vec<FlowId>,
               (src, dst, demand): (NodeId, NodeId, Bandwidth)| {
        let id = pair.both(|m| m.add_flow(src, dst, demand).unwrap());
        ids.push(id);
        id
    };
    for district in 0..2 {
        for _ in 0..8 {
            let id = add(&mut pair, &mut ids, draw(&mut rng, district));
            district_of.insert(id, district);
        }
    }
    // Anchors make the bridge's end links district links; the bridge
    // crosses 4–8, 8–12 and 12–16. District 1's anchors share a
    // saturated link, so its rates are fair shares a fill merged with
    // district 0 would round differently.
    let mbps = Bandwidth::from_mbps;
    district_of.insert(
        add(&mut pair, &mut ids, (NodeId(0), NodeId(8), mbps(3.0))),
        0,
    );
    for src in [12, 16, 16] {
        let id = add(&mut pair, &mut ids, (NodeId(src), NodeId(20), mbps(3.0)));
        district_of.insert(id, 1);
    }
    pair.both(|m| {
        m.set_link_cap(NodeId(16), NodeId(20), Some(mbps(1.1)))
            .unwrap()
    });
    let bridge = (NodeId(4), NodeId(16), mbps(2.0));
    let bridge_id = add(&mut pair, &mut ids, bridge);

    let mut profiler = SpanProfiler::new();
    let mut patched = 0u64;
    profiled_tick(&mut pair, &mut profiler, &ids, "index build");
    profiled_tick(&mut pair, &mut profiler, &ids, "quiescent");

    // Split: the removed bridge's rate stays readable until the next
    // allocation, on both sides.
    ids.retain(|&id| id != bridge_id);
    pair.both(|m| m.remove_flow(bridge_id).unwrap());
    let before = pair.production.flow_rate(bridge_id);
    assert!(before > Bandwidth::ZERO);
    assert_eq!(pair.reference.flow_rate(bridge_id), before);
    profiled_tick(&mut pair, &mut profiler, &ids, "bridge removed");
    patched += 1;
    assert_eq!(pair.production.flow_rate(bridge_id), Bandwidth::ZERO);

    // Squeeze the anchor's link in district 0 below district 1's fair
    // share: district 1 keeps its rates verbatim (a fill still merged
    // across the split would reach that share in two rounds, not one,
    // and round it differently).
    let rates = |pair: &Pair, district: u32| -> Vec<u64> {
        ids.iter()
            .filter(|id| district_of[*id] == district)
            .map(|&id| pair.production.flow_rate(id).as_bps().to_bits())
            .collect()
    };
    let (west, east) = (rates(&pair, 0), rates(&pair, 1));
    pair.both(|m| {
        m.set_link_cap(NodeId(0), NodeId(4), Some(mbps(0.2)))
            .unwrap()
    });
    profiled_tick(&mut pair, &mut profiler, &ids, "one half squeezed");
    assert_ne!(rates(&pair, 0), west, "the squeeze must bite");
    assert_eq!(rates(&pair, 1), east, "the other half is its own component");

    // Merge: the bridge comes back under a fresh id.
    let bridge_id = add(&mut pair, &mut ids, bridge);
    profiled_tick(&mut pair, &mut profiler, &ids, "bridge re-added");
    patched += 1;
    assert!(pair.production.flow_rate(bridge_id) > Bandwidth::ZERO);
    assert_eq!(span_count(&profiler, "mesh.index_rebuild"), 1);

    // Swap one district flow per tick until tombstones outnumber live
    // slots; the removal that tips it compacts the index.
    let mut dead = 1usize; // the first bridge's slot
    let mut compacted_at = None;
    for swap in 0..30 {
        let at = rng.below(ids.len() as u64) as usize;
        let old = ids[at];
        if old == bridge_id {
            continue;
        }
        let district = district_of[&old];
        ids.remove(at);
        pair.both(|m| m.remove_flow(old).unwrap());
        dead += 1;
        let compacts = dead > ids.len();
        let new = add(&mut pair, &mut ids, draw(&mut rng, district));
        district_of.insert(new, district);
        profiled_tick(&mut pair, &mut profiler, &ids, &format!("swap {swap}"));
        if compacts {
            assert!(compacted_at.is_none(), "one compaction");
            compacted_at = Some(swap);
            dead = 0;
        } else {
            patched += 1;
        }
        let rebuilds = if compacted_at.is_some() { 2 } else { 1 };
        assert_eq!(
            span_count(&profiler, "mesh.index_rebuild"),
            rebuilds,
            "swap {swap}"
        );
    }
    assert!(
        compacted_at.is_some(),
        "the swaps must outnumber the live flows"
    );
    assert_eq!(span_count(&profiler, "mesh.index_patch"), patched);
}

/// A seeded Poisson storm over the CityLab workers and their volatile
/// links — crashes, flaps, and probe-loss episodes composed — so the
/// dirty sets see fault transitions, not just trace steps.
fn storm_plan(seed: u64, horizon_s: u64) -> FaultPlan {
    let profile = StormProfile {
        node_crash_rate: 1.0 / 50.0,
        crash_downtime_s: 20.0,
        link_flap_rate: 1.0 / 40.0,
        flap_downtime_s: 8.0,
        probe_loss_rate: 1.0 / 90.0,
        probe_loss_p: 0.4,
        probe_loss_duration_s: 30.0,
        nodes: vec![NodeId(2), NodeId(3), NodeId(4)],
        links: vec![
            (NodeId(1), NodeId(2)),
            (NodeId(2), NodeId(3)),
            (NodeId(3), NodeId(4)),
        ],
    };
    FaultPlan::poisson(seed, SimDuration::from_secs(horizon_s), &profile)
}

/// Runs `env` for `secs` simulated seconds of 100 ms ticks, through
/// production's `run_for` or, with `reference`, on the rebuilt
/// reference (`support::ticked`), and returns the journal's JSONL export.
fn run_storm(mut env: SimEnv, reference: bool, secs: u64) -> String {
    env.attach_journal(Journal::new());
    env.deploy(&[]).expect("deploys");
    if reference {
        support::ticked(&mut env, secs * 10, |_| {});
    } else {
        env.run_for(SimDuration::from_secs(secs), support::check)
            .expect("storm run completes");
    }
    env.take_journal().expect("journal attached").export_jsonl()
}

/// The composed fault storm of `tests/faults.rs` on the 3-node LAN
/// testbed, stepped as [`run_storm`] says; returns the journal's JSONL
/// export.
fn lan_storm_jsonl(reference: bool) -> String {
    let profile = StormProfile {
        node_crash_rate: 1.0 / 40.0,
        crash_downtime_s: 25.0,
        link_flap_rate: 1.0 / 45.0,
        flap_downtime_s: 8.0,
        probe_loss_rate: 1.0 / 120.0,
        probe_loss_p: 0.5,
        probe_loss_duration_s: 40.0,
        nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
        links: vec![
            (NodeId(0), NodeId(1)),
            (NodeId(0), NodeId(2)),
            (NodeId(1), NodeId(2)),
        ],
    };
    let faults = FaultPlan::poisson(0xBA55, SimDuration::from_secs(300), &profile);
    let (mesh, cluster) = lan_testbed(3, 12);
    let cfg = SimEnvConfig {
        faults,
        ..Default::default()
    };
    let env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
    run_storm(env, reference, 300)
}

// The Poisson fault storm — crashes, flaps, probe loss — must replay
// byte-identically through the delta fill and the rebuilt reference.
#[test]
fn fault_storm_replay_matches_the_rebuilt_reference() {
    let reference = lan_storm_jsonl(true);
    assert!(!reference.is_empty());
    assert_eq!(
        reference,
        lan_storm_jsonl(false),
        "the delta fill must replay the storm byte-identically to the rebuilt reference"
    );
}

/// The camera pipeline on the trace-driven CityLab testbed under the
/// composed storm, stepped as [`run_storm`] says; returns the journal
/// for byte comparison.
fn storm_journal(reference: bool, seed: u64, secs: u64) -> String {
    let (mesh, cluster) = citylab_testbed(seed, SimDuration::from_secs(secs + 60));
    let cfg = SimEnvConfig {
        faults: storm_plan(seed, secs),
        ..Default::default()
    };
    let env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
    run_storm(env, reference, secs)
}

// The rebuilt reference vs production, whose quiet ticks skip phases:
// both replays of the same storm must export byte-identical journals.
// This is the end-to-end closure of the mesh-level proptests above —
// neither the dirty paths nor any other derived state may change a
// single observable byte.
#[test]
fn storm_replay_skipping_matches_the_rebuilt_reference() {
    let reference = storm_journal(true, 0xD187, 240);
    assert!(!reference.is_empty());
    let journal = storm_journal(false, 0xD187, 240);
    assert_eq!(reference, journal, "journal diverged from the rebuilt reference");
}

// The lifecycle path — flows appearing and vanishing mid-run as whole
// applications are admitted and retired, under generated traces and
// faults — must sample and journal the identical bytes on the rebuilt
// reference, driven by hand, and on production, off the timeline.
#[test]
fn generated_lifecycle_journal_matches_the_rebuilt_reference() {
    let mut spec = ScenarioSpec::small_reference();
    spec.horizon_ticks = 240;
    spec.workload.arrival_rate_per_s = 0.05;
    spec.workload.mean_lifetime_s = 60.0;
    let (reference, executed_ticked) = support::drive_replica(&spec, 0x11FE, PolicyKind::Bass);
    assert!(
        reference.admitted > 3,
        "arrivals beyond the initial apps must admit ({})",
        reference.admitted
    );
    assert!(
        reference.journal.contains("\"AppRetired\""),
        "the horizon must see departures"
    );
    assert_eq!(executed_ticked, spec.horizon_ticks);
    let (replica, executed) = support::timeline_replica(&spec, 0x11FE, PolicyKind::Bass);
    assert_eq!(reference, replica, "lifecycle diverged off the timeline");
    assert!(executed < executed_ticked, "executed {executed} of {executed_ticked} ticks");
}
