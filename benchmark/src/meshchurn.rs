//! `mesh1000-churn`: the write-heavy use of `bass_mesh::Mesh`.
//!
//! A 40 × 25 grid cut into row-band districts like the one in
//! `crates/bench`'s `scale` binary (flows never
//! leave their district, three quantised demand classes, constant
//! links), driven so that every tick caps one random link in *every*
//! district and replaces one random flow — every component dirty and
//! the allocation index invalidated every tick. The same loop serves
//! the untraced child (`recorder = None`, no clock is read) and the
//! traced run.

use crate::spans::Recorder;
use crate::workloads::{MeshChurnParams, Params};
use bass_mesh::{CapacitySource, FlowId, Mesh, NodeId, Topology};
use bass_obs::SpanProfiler;
use bass_util::rng::SimRng;
use bass_util::time::SimDuration;
use bass_util::units::Bandwidth;

/// Deterministic results of one run of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOutcome {
    /// Ticks advanced.
    pub ticks: u64,
    /// Mutation calls made (`set_link_cap`, `remove_flow`, `add_flow`).
    pub mutations: u64,
    /// Mutation calls that returned `Err`.
    pub errors: u64,
    /// Σ `flow_rate` after the last tick, bps.
    pub rate_sum_bps: f64,
    /// Σ demand after the last tick, bps.
    pub demand_sum_bps: f64,
}

/// The built workload: mesh, per-district link lists, live flow ids,
/// and the stream's RNG positioned after construction.
pub struct Churn {
    mesh: Mesh,
    districts: Vec<Vec<(NodeId, NodeId)>>,
    flows: Vec<FlowId>,
    rng: SimRng,
    shape: MeshChurnParams,
}

impl Churn {
    /// Builds the grid, its constant link capacities and the initial
    /// flow set from `params.seed` (this is the workload's set-up).
    pub fn build(params: &Params) -> Churn {
        let shape = params
            .mesh
            .clone()
            .expect("mesh1000-churn params carry a mesh shape");
        let mut rng = SimRng::seed_from_u64(params.seed ^ 0x5CA1E);
        let topo = Topology::grid(shape.grid.0, shape.grid.1);
        let nodes = topo.node_count();
        let links: Vec<(NodeId, NodeId)> = topo.links().map(|(_, l)| (l.a, l.b)).collect();
        let mut mesh = Mesh::new(topo).expect("grid is connected");
        for &(a, b) in &links {
            let cap = Bandwidth::from_mbps(rng.uniform(shape.link_mbps.0, shape.link_mbps.1));
            mesh.set_link_source(a, b, CapacitySource::Constant(cap))
                .expect("link exists");
        }
        let count = nodes.div_ceil(shape.district_nodes).max(1);
        let per_district = nodes.div_ceil(count);
        let mut districts = vec![Vec::new(); count];
        for &(a, b) in &links {
            districts[(a.0 as usize / per_district).min(count - 1)].push((a, b));
        }
        let mut churn = Churn {
            mesh,
            districts,
            flows: Vec::new(),
            rng,
            shape,
        };
        for _ in 0..churn.shape.flows {
            let (src, dst, demand) = churn.draw_flow();
            let id = churn
                .mesh
                .add_flow(src, dst, demand)
                .expect("valid endpoints");
            churn.flows.push(id);
        }
        churn
    }

    /// Draws one intra-district flow.
    fn draw_flow(&mut self) -> (NodeId, NodeId, Bandwidth) {
        let count = self.districts.len();
        let nodes = self.mesh.topology().node_count();
        let per_district = nodes.div_ceil(count);
        let d = self.rng.below(count as u64) as usize;
        let lo = d * per_district;
        let span = ((d + 1) * per_district).min(nodes) - lo;
        let src = lo as u64 + self.rng.below(span as u64);
        let mut dst = lo as u64 + self.rng.below(span as u64);
        while dst == src {
            dst = lo as u64 + self.rng.below(span as u64);
        }
        let levels = &self.shape.demand_levels_mbps;
        let demand = Bandwidth::from_mbps(levels[self.rng.below(levels.len() as u64) as usize]);
        (NodeId(src as u32), NodeId(dst as u32), demand)
    }

    /// Runs `ticks` ticks of the stream. With a recorder, every call
    /// into the mesh is one span under an enclosing `ladder.timed_loop`,
    /// and the mesh's interior phases go to the given span profiler.
    pub fn run(
        mut self,
        ticks: u64,
        step: SimDuration,
        trace: Option<(&mut Recorder, &mut SpanProfiler)>,
    ) -> ChurnOutcome {
        fn timed<T>(
            rec: &mut Option<&mut Recorder>,
            name: &'static str,
            f: impl FnOnce() -> T,
        ) -> T {
            match rec {
                Some(r) => {
                    let id = r.open(name);
                    let out = f();
                    r.close(id);
                    out
                }
                None => f(),
            }
        }
        let (mut rec, mut profiler) = match trace {
            Some((r, p)) => (Some(r), Some(p)),
            None => (None, None),
        };
        let mut mutations = 0u64;
        let mut errors = 0u64;
        let loop_span = rec.as_deref_mut().map(|r| r.open("ladder.timed_loop"));
        for _ in 0..ticks {
            for d in 0..self.districts.len() {
                let group = &self.districts[d];
                let (a, b) = group[self.rng.below(group.len() as u64) as usize];
                let cap = Bandwidth::from_mbps(
                    self.rng
                        .uniform(self.shape.cap_mbps.0, self.shape.cap_mbps.1),
                );
                let mesh = &mut self.mesh;
                let r = timed(&mut rec, "mesh.set_link_cap", || {
                    mesh.set_link_cap(a, b, Some(cap))
                });
                mutations += 1;
                errors += u64::from(r.is_err());
            }
            let slot = self.rng.below(self.flows.len() as u64) as usize;
            let old = self.flows[slot];
            let (src, dst, demand) = self.draw_flow();
            let mesh = &mut self.mesh;
            let (removed, added) = timed(&mut rec, "mesh.flow_churn", || {
                (mesh.remove_flow(old), mesh.add_flow(src, dst, demand))
            });
            mutations += 2;
            errors += u64::from(removed.is_err());
            match added {
                Ok(id) => self.flows[slot] = id,
                Err(_) => errors += 1,
            }
            timed(&mut rec, "mesh.advance", || match profiler.as_deref_mut() {
                Some(p) => mesh.advance_profiled(step, None, Some(p)),
                None => mesh.advance(step),
            });
        }
        if let (Some(r), Some(id)) = (rec, loop_span) {
            r.close(id);
        }
        let mut rate_sum_bps = 0.0;
        let mut demand_sum_bps = 0.0;
        for &id in &self.flows {
            rate_sum_bps += self.mesh.flow_rate(id).as_bps();
            demand_sum_bps += self.mesh.flow_spec(id).map_or(0.0, |s| s.demand.as_bps());
        }
        ChurnOutcome {
            ticks,
            mutations,
            errors,
            rate_sum_bps,
            demand_sum_bps,
        }
    }
}

/// One-line JSON of an outcome — what `ladder run-one` prints and the
/// repetitions are compared on. The rate sum is printed as its bit
/// pattern so "bit-identical" is checked literally.
pub fn outcome_json(o: &ChurnOutcome) -> String {
    format!(
        "{{\"ticks\":{},\"mutations\":{},\"errors\":{},\"rate_sum_bits\":\"{:016x}\",\"rate_sum_bps\":{},\"demand_sum_bps\":{}}}",
        o.ticks,
        o.mutations,
        o.errors,
        o.rate_sum_bps.to_bits(),
        o.rate_sum_bps,
        o.demand_sum_bps
    )
}

/// The water-fill kernel probe: 200 timed `flow::max_min_allocate`
/// calls on a seeded 10 000-flow, ten-component system shaped like the
/// churn grid (each flow crosses a handful of its district's links).
/// Returns the per-call durations in nanoseconds, ascending.
pub fn kernel_fill_probe(seed: u64) -> Vec<u64> {
    use bass_mesh::flow::{max_min_allocate, Constraint};
    const FLOWS: usize = 10_000;
    const DISTRICTS: usize = 10;
    const LINKS_PER_DISTRICT: usize = 180;
    let mut rng = SimRng::seed_from_u64(seed ^ 0xF111);
    let mut constraints: Vec<Constraint> = (0..DISTRICTS * LINKS_PER_DISTRICT)
        .map(|_| Constraint {
            capacity: Bandwidth::from_mbps(rng.uniform(30.0, 150.0)),
            members: Vec::new(),
        })
        .collect();
    let mut demands = Vec::with_capacity(FLOWS);
    for f in 0..FLOWS {
        let d = rng.below(DISTRICTS as u64) as usize;
        demands.push(Bandwidth::from_mbps(
            [0.1, 0.15, 0.25][rng.below(3) as usize],
        ));
        for _ in 0..(2 + rng.below(10)) {
            let c = d * LINKS_PER_DISTRICT + rng.below(LINKS_PER_DISTRICT as u64) as usize;
            if !constraints[c].members.contains(&f) {
                constraints[c].members.push(f);
            }
        }
    }
    let mut calls = Vec::with_capacity(200);
    for _ in 0..200 {
        let started = std::time::Instant::now();
        let rates = max_min_allocate(
            std::hint::black_box(&demands),
            std::hint::black_box(&constraints),
        );
        calls.push(started.elapsed().as_nanos() as u64);
        std::hint::black_box(rates);
    }
    calls.sort_unstable();
    calls
}
