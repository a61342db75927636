//! Property-based tests on the core invariants, spanning crates.

use bass::appdag::{AppDag, ComponentId, ResourceReq};
use bass::cluster::{Cluster, NodeSpec, Placement};
use bass::core::heuristics::{breadth_first, hybrid, longest_path, BfsWeighting, ComponentOrdering};
use bass::core::placement::{pack_ordering, PlacementError};
use bass::core::ranking::{rank_nodes, NodeRanking};
use bass::core::rescheduler::Scorer;
use bass::mesh::flow::{max_min_allocate, Constraint, FillScratch};
use bass::mesh::queueing::{FlowQueue, MAX_DELAY};
use bass::mesh::routing::RoutingTable;
use bass::mesh::{CapacitySource, LinkId, Mesh, MeshError, NodeId, Topology};
use bass::trace::OuTraceConfig;
use bass::util::rng::SimRng;
use bass::util::time::SimDuration;
use bass::util::units::{Bandwidth, DataSize};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

/// Random DAGs via the catalog's generator (structurally acyclic).
fn arb_dag() -> impl Strategy<Value = AppDag> {
    (2u32..12, any::<u64>())
        .prop_map(|(n, seed)| bass::appdag::catalog::random_dag(seed, n, 0.35))
}

// ----- the fill kernel's oracles -------------------------------------------

/// The production fill's absolute freeze threshold (bps), `flow.rs`'s
/// `EPS`, and its relative one, `ULPS`.
const EPS: f64 = 1e-6;
const ULPS: f64 = 4.0 * f64::EPSILON;

/// The dense progressive-filling allocator: the fill kernel's
/// independent, bit-level oracle (`max_min_allocate` must match it bit
/// for bit). Every water-filling round re-scans the component's full
/// membership lists, so each round costs O(constraints × members).
///
/// Like the production fill, it fills the connected components of the flow ↔
/// constraint graph one at a time in canonical order (ascending
/// smallest-constraint-index); the partition is re-derived here with an
/// independent union-find so the oracle shares no code with the
/// production path, only its freeze thresholds [`EPS`] and [`ULPS`].
fn max_min_allocate_dense(demands: &[Bandwidth], constraints: &[Constraint]) -> Vec<Bandwidth> {
    dense_fill(demands, constraints).0
}

/// [`max_min_allocate_dense`] with each flow's demand floor, read off
/// the dense rounds: a flow active at the start of a round in which it
/// sits in a saturated constraint gets that round's smallest active
/// demand, if its own demand lies strictly above it; every other flow
/// gets +∞. The bottleneck lemma: moving any set of demands, each to a
/// value strictly above its floor, moves no rate.
fn dense_fill(demands: &[Bandwidth], constraints: &[Constraint]) -> (Vec<Bandwidth>, Vec<f64>) {
    let n = demands.len();
    let m = constraints.len();
    let mut floors = vec![f64::INFINITY; n];
    let mut rates = vec![0.0f64; n];
    let mut frozen = vec![false; n];
    let mut remaining: Vec<f64> = constraints.iter().map(|c| c.capacity.as_bps()).collect();

    // Pre-freeze zero-demand flows at rate 0; grant unconstrained flows
    // their demand.
    let mut constrained = vec![false; n];
    for c in constraints {
        for &m in &c.members {
            assert!(m < n, "constraint references unknown flow index {m}");
            constrained[m] = true;
        }
    }
    for i in 0..n {
        if demands[i].as_bps() <= EPS {
            frozen[i] = true;
        } else if !constrained[i] {
            rates[i] = demands[i].as_bps();
            frozen[i] = true;
        }
    }

    // Independent component derivation: a plain union-find over
    // constraints, joined through each flow's membership list.
    let mut parent: Vec<usize> = (0..m).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut first_cons: Vec<Option<usize>> = vec![None; n];
    for (ci, c) in constraints.iter().enumerate() {
        for &fm in &c.members {
            match first_cons[fm] {
                None => first_cons[fm] = Some(ci),
                Some(f) => {
                    let (a, b) = (find(&mut parent, f), find(&mut parent, ci));
                    if a != b {
                        parent[b] = a;
                    }
                }
            }
        }
    }
    // Canonical order: components sorted by their smallest constraint.
    let mut comp_of_root: Vec<Option<usize>> = vec![None; m];
    let mut comp_cons: Vec<Vec<usize>> = Vec::new();
    for ci in 0..m {
        let root = find(&mut parent, ci);
        let comp = *comp_of_root[root].get_or_insert_with(|| {
            comp_cons.push(Vec::new());
            comp_cons.len() - 1
        });
        comp_cons[comp].push(ci);
    }
    let mut comp_flows: Vec<Vec<usize>> = vec![Vec::new(); comp_cons.len()];
    for (i, fc) in first_cons.iter().enumerate() {
        if let Some(f) = fc {
            let root = find(&mut parent, *f);
            comp_flows[comp_of_root[root].expect("root numbered")].push(i);
        }
    }

    for (cons, flows) in comp_cons.iter().zip(&comp_flows) {
        loop {
            let active: Vec<usize> = flows.iter().copied().filter(|&i| !frozen[i]).collect();
            if active.is_empty() {
                break;
            }

            // Smallest per-flow increment until some flow hits its
            // demand …
            let mut delta = f64::INFINITY;
            let mut min_demand = f64::INFINITY;
            for &i in &active {
                delta = delta.min(demands[i].as_bps() - rates[i]);
                min_demand = min_demand.min(demands[i].as_bps());
            }
            // … or some constraint saturates.
            for &ci in cons {
                let k = constraints[ci].members.iter().filter(|&&fm| !frozen[fm]).count();
                if k > 0 {
                    delta = delta.min(remaining[ci] / k as f64);
                }
            }
            let delta = delta.max(0.0);

            for &i in &active {
                rates[i] += delta;
            }
            for &ci in cons {
                let k = constraints[ci].members.iter().filter(|&&fm| !frozen[fm]).count();
                remaining[ci] -= delta * k as f64;
            }

            // Freeze demand-satisfied flows and members of saturated
            // constraints. At least one flow freezes per round (delta
            // picked the binding resource), so the loop terminates.
            let mut any_frozen = false;
            for &i in &active {
                if demands[i].as_bps() - rates[i] <= EPS.max(ULPS * rates[i]) {
                    frozen[i] = true;
                    any_frozen = true;
                }
            }
            for &ci in cons {
                let cap = constraints[ci].capacity.as_bps().min(f64::MAX);
                if remaining[ci] <= EPS.max(ULPS * cap) {
                    for &fm in &constraints[ci].members {
                        if active.contains(&fm) && demands[fm].as_bps() > min_demand {
                            floors[fm] = min_demand;
                        }
                        if !frozen[fm] {
                            frozen[fm] = true;
                            any_frozen = true;
                        }
                    }
                }
            }
            if !any_frozen {
                // Defensive: numerical corner where nothing moved.
                break;
            }
        }
    }

    (rates.into_iter().map(Bandwidth::from_bps).collect(), floors)
}

/// The certificate's tolerance for a quantity of magnitude `x` (bps):
/// one micro-bps plus one part per billion.
fn tol(x: f64) -> f64 {
    1e-6 + 1e-9 * x.abs()
}

/// Checks that `rates` is the demand-capped max-min fair allocation of
/// `demands` under `constraints`, knowing nothing of how it was
/// computed: every rate lies in `[0, demand]`, no constraint carries
/// more than its capacity, and every flow short of its demand crosses a
/// saturated constraint on which no member has a larger rate — raising
/// that flow would take bandwidth from a flow that has no more than it.
/// The error names the first violation.
fn max_min_certificate(
    demands: &[Bandwidth],
    constraints: &[Constraint],
    rates: &[Bandwidth],
) -> Result<(), String> {
    let r: Vec<f64> = rates.iter().map(|r| r.as_bps()).collect();
    let d: Vec<f64> = demands.iter().map(|d| d.as_bps()).collect();
    if r.len() != d.len() {
        return Err(format!("{} rates for {} flows", r.len(), d.len()));
    }
    for i in 0..r.len() {
        if !(r[i] >= 0.0 && r[i] <= d[i] + tol(d[i])) {
            return Err(format!("flow {i}: rate {} outside [0, demand {}]", r[i], d[i]));
        }
    }
    let sums: Vec<f64> = constraints.iter().map(|c| c.members.iter().map(|&m| r[m]).sum()).collect();
    for (ci, (c, &sum)) in constraints.iter().zip(&sums).enumerate() {
        let cap = c.capacity.as_bps();
        if sum > cap + tol(cap) {
            return Err(format!("constraint {ci}: members carry {sum} over capacity {cap}"));
        }
    }
    for i in (0..r.len()).filter(|&i| r[i] < d[i] - tol(d[i])) {
        let bottleneck = constraints.iter().zip(&sums).any(|(c, &sum)| {
            let cap = c.capacity.as_bps();
            c.members.contains(&i)
                && sum >= cap - tol(cap)
                && c.members.iter().all(|&m| r[m] <= r[i] + tol(r[i]))
        });
        if !bottleneck {
            return Err(format!(
                "flow {i}: rate {} below demand {} with no saturated constraint it tops",
                r[i], d[i]
            ));
        }
    }
    Ok(())
}

fn mbps(x: f64) -> Bandwidth {
    Bandwidth::from_mbps(x)
}

/// The incremental fill must reproduce the dense reference exactly —
/// same floating-point operations in the same order, so the rates
/// are bit-identical, not merely close.
fn assert_fills_bit_identical(demands: &[Bandwidth], constraints: &[Constraint]) {
    let dense = max_min_allocate_dense(demands, constraints);
    let inc = max_min_allocate(demands, constraints);
    assert_eq!(dense.len(), inc.len());
    for (i, (d, n)) in dense.iter().zip(&inc).enumerate() {
        assert!(
            d.as_bps().to_bits() == n.as_bps().to_bits(),
            "flow {i}: dense {} vs incremental {}",
            d.as_bps(),
            n.as_bps()
        );
    }
}

#[test]
fn incremental_matches_dense_oracle_on_known_shapes() {
    let demands = vec![mbps(100.0), mbps(100.0), mbps(100.0)];
    let constraints = vec![
        Constraint { capacity: mbps(10.0), members: vec![0, 1] },
        Constraint { capacity: mbps(4.0), members: vec![1, 2] },
    ];
    assert_fills_bit_identical(&demands, &constraints);
    // Zero capacity, zero demand, unconstrained flows.
    let demands = vec![Bandwidth::ZERO, mbps(5.0), mbps(42.0)];
    let constraints = vec![
        Constraint { capacity: Bandwidth::ZERO, members: vec![0, 1] },
        Constraint { capacity: mbps(10.0), members: vec![1] },
    ];
    assert_fills_bit_identical(&demands, &constraints);
    // No constraints at all.
    assert_fills_bit_identical(&[mbps(7.0)], &[]);
}

/// One bottleneck-lemma case: a random problem at magnitude `10^exp`
/// bps (half the demands and capacities drawn from a four-value pool,
/// so they tie; one capacity in eight zero), its dense floors, and a
/// copy in which a random subset of the flows with a finite floor moved
/// — a rise, a fall, to one ulp above the floor or far above it, always
/// strictly above it. Panics unless the moved problem fills to the
/// original rates bit for bit and passes the certificate; returns how
/// many flows moved.
fn lemma_case(n: usize, n_constraints: usize, exp: i32, seed: u64) -> usize {
    let mut rng = SimRng::seed_from_u64(seed);
    let scale = 10f64.powi(exp);
    let pool: Vec<f64> = (0..4).map(|_| scale * rng.uniform(0.5, 10.0)).collect();
    let draw = |rng: &mut SimRng| {
        if rng.chance(0.5) { pool[rng.below(4) as usize] } else { scale * rng.uniform(0.0, 10.0) }
    };
    let demands: Vec<Bandwidth> = (0..n).map(|_| Bandwidth::from_bps(draw(&mut rng))).collect();
    let constraints: Vec<Constraint> = (0..n_constraints)
        .map(|_| Constraint {
            capacity: if rng.chance(0.125) {
                Bandwidth::ZERO
            } else {
                Bandwidth::from_bps(draw(&mut rng) * rng.uniform(0.5, 3.0))
            },
            members: (0..n).filter(|_| rng.chance(0.5)).collect(),
        })
        .collect();
    let (rates, floors) = dense_fill(&demands, &constraints);
    let mut moved = demands.clone();
    let mut count = 0;
    for (i, &floor) in floors.iter().enumerate() {
        if !floor.is_finite() || !rng.chance(0.6) {
            continue;
        }
        let d = demands[i].as_bps();
        let to = match rng.below(4) {
            0 => floor.next_up(),
            1 => floor + (d - floor) * rng.next_f64(),
            2 => d * rng.uniform(1.0, 4.0),
            _ => 1e12 * rng.uniform(1.0, 10.0),
        };
        moved[i] = Bandwidth::from_bps(if to > floor { to } else { floor.next_up() });
        count += 1;
    }
    let after = max_min_allocate(&moved, &constraints);
    for (i, (r, a)) in rates.iter().zip(&after).enumerate() {
        assert_eq!(
            r.as_bps().to_bits(),
            a.as_bps().to_bits(),
            "flow {i}: demand {} -> {} (floor {}) moved its rate {r} -> {a}",
            demands[i].as_bps(),
            moved[i].as_bps(),
            floors[i]
        );
    }
    if let Err(e) = max_min_certificate(&moved, &constraints, &after) {
        panic!("certificate rejected the moved problem: {e}");
    }
    count
}

/// The lemma's cases are not vacuous: across a few hundred problems at
/// every magnitude, hundreds of flows have a finite floor and move.
#[test]
fn lemma_cases_move_many_flows() {
    let moved: usize = (0..260u64).map(|k| lemma_case(12, 4, (k % 13) as i32, k)).sum();
    assert!(moved > 300, "only {moved} flows moved above their floors");
}

#[test]
fn incremental_matches_dense_oracle_on_random_sets() {
    let mut rng = SimRng::seed_from_u64(0xA110C);
    for trial in 0..200 {
        let n = 1 + (rng.below(24) as usize);
        let demands: Vec<Bandwidth> =
            (0..n).map(|_| Bandwidth::from_mbps(rng.uniform(0.0, 50.0))).collect();
        let ncons = rng.below(8) as usize;
        let constraints: Vec<Constraint> = (0..ncons)
            .map(|_| Constraint {
                capacity: Bandwidth::from_mbps(rng.uniform(0.0, 60.0)),
                members: (0..n).filter(|_| rng.chance(0.4)).collect(),
            })
            .collect();
        let dense = max_min_allocate_dense(&demands, &constraints);
        let inc = max_min_allocate(&demands, &constraints);
        assert_eq!(dense, inc, "trial {trial} diverged");
    }
}

/// One problem from the corners the kernel's live-constraint bookkeeping
/// must get right, which `uniform(0, 50)` Mbps demands never reach:
/// demands exactly zero (one in four) or nonzero but at most [`EPS`],
/// most of the rest tied from a three-value pool; capacities zero,
/// infinite, or small multiples of the same pool (so several constraints
/// saturate in one round while others die by demand freezes); and
/// constraints that have no members or only zero-demand ones.
fn edge_case_problem(rng: &mut SimRng) -> (Vec<Bandwidth>, Vec<Constraint>) {
    let n = 1 + rng.below(16) as usize;
    let pool: Vec<f64> = (0..3).map(|_| 1e6 * rng.uniform(0.5, 20.0)).collect();
    let demands: Vec<Bandwidth> = (0..n)
        .map(|_| match rng.below(8) {
            0 | 1 => 0.0,
            2 => EPS * rng.next_f64(),
            3..=5 => pool[rng.below(3) as usize],
            _ => 1e6 * rng.uniform(0.0, 20.0),
        })
        .map(Bandwidth::from_bps)
        .collect();
    let idle: Vec<usize> = (0..n).filter(|&i| demands[i].as_bps() <= EPS).collect();
    let constraints = (0..rng.below(10))
        .map(|_| Constraint {
            capacity: Bandwidth::from_bps(match rng.below(8) {
                0 => 0.0,
                1 => f64::INFINITY,
                2..=5 => pool[rng.below(3) as usize] * (1 + rng.below(3)) as f64,
                _ => 1e6 * rng.uniform(0.0, 60.0),
            }),
            members: match rng.below(8) {
                0 => Vec::new(),
                1 => idle.iter().copied().filter(|_| rng.chance(0.7)).collect(),
                _ => (0..n).filter(|_| rng.chance(0.5)).collect(),
            },
        })
        .collect();
    (demands, constraints)
}

/// The kernel's corner cases, bit for bit against the dense oracle:
/// rates through `max_min_allocate` and through one reused
/// `FillScratch`, demand floors through that scratch, each compared by
/// `to_bits`, and every fill passes the certificate. The battery counts
/// the corners it reached, so it cannot quietly stop reaching them.
#[test]
fn kernel_corner_cases_match_the_dense_oracle_bit_for_bit() {
    let mut rng = SimRng::seed_from_u64(0xC0_4E25);
    let mut fill = FillScratch::default();
    let (mut idle_only, mut memberless, mut infinite, mut tied, mut floored) = (0, 0, 0, 0, 0);
    for trial in 0..4000 {
        let (demands, constraints) = edge_case_problem(&mut rng);
        let (want, want_floors) = dense_fill(&demands, &constraints);
        let one_shot = max_min_allocate(&demands, &constraints);
        let rates = fill.allocate(&demands, &constraints).to_vec();
        for i in 0..demands.len() {
            let (w, o, r) = (want[i].as_bps(), one_shot[i].as_bps(), rates[i]);
            assert_eq!(w.to_bits(), o.to_bits(), "trial {trial} flow {i}: dense {w} vs {o}");
            assert_eq!(w.to_bits(), r.to_bits(), "trial {trial} flow {i}: dense {w} vs reused {r}");
            let (wf, f) = (want_floors[i], fill.floors()[i]);
            assert_eq!(wf.to_bits(), f.to_bits(), "trial {trial} flow {i}: floor {wf} vs {f}");
        }
        if let Err(e) = max_min_certificate(&demands, &constraints, &one_shot) {
            panic!("trial {trial}: certificate rejected the fill: {e}");
        }
        let idle = |m: &usize| demands[*m].as_bps() <= EPS;
        idle_only += constraints
            .iter()
            .any(|c| !c.members.is_empty() && c.members.iter().all(idle)) as u32;
        memberless += constraints.iter().any(|c| c.members.is_empty()) as u32;
        infinite += constraints
            .iter()
            .any(|c| c.capacity.as_bps().is_infinite() && !c.members.iter().all(idle)) as u32;
        // Two saturated constraints topped by the same rate saturated in
        // the same round.
        let mut tops: Vec<u64> = constraints
            .iter()
            .filter(|c| {
                let sum: f64 = c.members.iter().map(|&m| one_shot[m].as_bps()).sum();
                !c.members.is_empty() && sum >= c.capacity.as_bps() - tol(c.capacity.as_bps())
            })
            .map(|c| c.members.iter().map(|&m| one_shot[m].as_bps()).fold(0.0, f64::max).to_bits())
            .collect();
        let saturated = tops.len();
        tops.sort_unstable();
        tops.dedup();
        tied += (tops.len() < saturated) as u32;
        floored += want_floors.iter().filter(|f| f.is_finite()).count();
    }
    assert!(
        idle_only > 800 && memberless > 1000 && infinite > 500 && tied > 200 && floored > 3000,
        "corners reached: {idle_only} zero-demand-only, {memberless} memberless, {infinite} \
         infinite, {tied} tied saturations, {floored} finite floors"
    );
}


proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn heuristics_produce_permutations(dag in arb_dag()) {
        let mut expected: Vec<ComponentId> = dag.component_ids().collect();
        expected.sort();
        for ordering in [
            breadth_first(&dag, BfsWeighting::EdgeWeight).unwrap(),
            breadth_first(&dag, BfsWeighting::CumulativePath).unwrap(),
            longest_path(&dag).unwrap(),
            hybrid(&dag, 3).unwrap(),
        ] {
            let mut got = ordering.flatten();
            got.sort();
            prop_assert_eq!(got, expected.clone());
        }
    }

    #[test]
    fn longest_path_groups_are_dag_chains(dag in arb_dag()) {
        let ordering = longest_path(&dag).unwrap();
        for group in ordering.groups() {
            for pair in group.windows(2) {
                // Consecutive chain members are connected by a DAG edge.
                prop_assert!(
                    !dag.bandwidth_between(pair[0], pair[1]).is_zero(),
                    "chain break: {} -> {}", pair[0], pair[1]
                );
            }
        }
    }

    #[test]
    fn packing_never_oversubscribes(dag in arb_dag(), cores in 4u64..16) {
        let topo = Topology::full_mesh(4);
        let mesh = Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(100.0)).unwrap();
        let mut cluster =
            Cluster::new((0..4).map(|i| NodeSpec::cores_mb(i, cores, 16_384))).unwrap();
        let ordering = longest_path(&dag).unwrap();
        // Packing may legitimately fail when the DAG is too big; when it
        // succeeds the cluster must be consistent.
        if pack_ordering(&ordering, &dag, &mut cluster, &mesh).is_ok() {
            prop_assert!(cluster.check_invariants().is_ok());
            prop_assert_eq!(cluster.placed_count(), dag.component_count());
        }
    }

    #[test]
    fn max_min_allocation_is_feasible_and_bounded(
        demands_mbps in proptest::collection::vec(0.0f64..50.0, 1..20),
        seed in any::<u64>(),
    ) {
        let mut rng = bass::util::rng::SimRng::seed_from_u64(seed);
        let demands: Vec<Bandwidth> =
            demands_mbps.iter().map(|&m| Bandwidth::from_mbps(m)).collect();
        let constraints: Vec<Constraint> = (0..5)
            .map(|_| Constraint {
                capacity: Bandwidth::from_mbps(rng.uniform(0.0, 60.0)),
                members: (0..demands.len()).filter(|_| rng.chance(0.4)).collect(),
            })
            .collect();
        let rates = max_min_allocate(&demands, &constraints);
        // Demand-bounded.
        for (r, d) in rates.iter().zip(&demands) {
            prop_assert!(r.as_bps() <= d.as_bps() + 1.0, "rate {r} demand {d}");
            prop_assert!(r.as_bps() >= 0.0);
        }
        // Capacity-feasible.
        for c in &constraints {
            let used: f64 = c.members.iter().map(|&m| rates[m].as_bps()).sum();
            prop_assert!(used <= c.capacity.as_bps() + 10.0, "used {used} cap {}", c.capacity);
        }
    }

    #[test]
    fn component_fill_matches_dense_reference(
        demands_mbps in proptest::collection::vec(0.0f64..50.0, 1..24),
        n_constraints in 0usize..10,
        seed in any::<u64>(),
    ) {
        // `max_min_allocate` runs the incremental component fill; the
        // pre-refactor dense implementation is kept as the oracle. The
        // two must agree bit-for-bit on arbitrary problems, and the
        // incremental output must satisfy the allocator's contract.
        let mut rng = bass::util::rng::SimRng::seed_from_u64(seed);
        let demands: Vec<Bandwidth> =
            demands_mbps.iter().map(|&m| Bandwidth::from_mbps(m)).collect();
        let constraints: Vec<Constraint> = (0..n_constraints)
            .map(|_| Constraint {
                capacity: Bandwidth::from_mbps(rng.uniform(0.0, 60.0)),
                members: (0..demands.len()).filter(|_| rng.chance(0.4)).collect(),
            })
            .collect();
        let oracle = max_min_allocate_dense(&demands, &constraints);
        let incremental = max_min_allocate(&demands, &constraints);
        prop_assert_eq!(oracle.len(), incremental.len());
        for (i, (o, inc)) in oracle.iter().zip(&incremental).enumerate() {
            prop_assert_eq!(
                o.as_bps().to_bits(), inc.as_bps().to_bits(),
                "flow {}: dense {} vs incremental {}", i, o, inc
            );
        }
        // The fill is max-min fair by the certificate, which shares no
        // code with either implementation.
        if let Err(e) = max_min_certificate(&demands, &constraints, &incremental) {
            prop_assert!(false, "certificate rejected the fill: {}", e);
        }
        // … and the certificate is not vacuous: 1 % off the largest rate
        // leaves that flow short with no saturated constraint.
        let (top, &rate) = incremental.iter().enumerate()
            .max_by(|a, b| a.1.as_bps().total_cmp(&b.1.as_bps())).unwrap();
        if rate.as_bps() > 1.0 {
            let mut shaved = incremental.clone();
            shaved[top] = Bandwidth::from_bps(rate.as_bps() * 0.99);
            prop_assert!(max_min_certificate(&demands, &constraints, &shaved).is_err());
        }
        // Metamorphic: doubling every demand and capacity is exact in
        // IEEE 754, so it must double every rate bit for bit.
        let doubled: Vec<Constraint> = constraints.iter()
            .map(|c| Constraint { capacity: c.capacity.scale(2.0), members: c.members.clone() })
            .collect();
        let scaled = max_min_allocate(
            &demands.iter().map(|d| d.scale(2.0)).collect::<Vec<_>>(),
            &doubled,
        );
        for (i, (r, s)) in incremental.iter().zip(&scaled).enumerate() {
            prop_assert_eq!(
                (r.as_bps() * 2.0).to_bits(), s.as_bps().to_bits(),
                "flow {}: rate {} doubled is not {}", i, r, s
            );
        }
    }

    /// The bottleneck lemma (`fill_component`'s floors): any demand
    /// moves that keep each moved flow strictly above its floor leave
    /// every rate bit-identical, from 1 bps to 1e12 bps.
    #[test]
    fn demand_moves_above_the_floors_keep_every_rate(
        n in 1usize..16,
        n_constraints in 1usize..8,
        exp in 0i32..13,
        seed in any::<u64>(),
    ) {
        lemma_case(n, n_constraints, exp, seed);
    }

    #[test]
    fn production_mesh_matches_reference_allocator_through_churn(
        n in 3u32..9,
        extra in 0usize..8,
        n_flows in 2usize..10,
        seed in any::<u64>(),
    ) {
        // Drive two identical meshes — production, and a reference
        // replaced by its rebuilt copy before every tick (routes,
        // index and capacity reads from scratch) — through flow churn,
        // an egress cap, and a link-capacity change, and require
        // identical per-flow rates at every step. This exercises the
        // persistent index's dirty-flag invalidation paths end to end.
        let topo = ring_with_chords(n, extra, seed);
        let mk = || {
            Mesh::with_uniform_capacity(topo.clone(), Bandwidth::from_mbps(20.0)).unwrap()
        };
        let (mut a, mut b) = (mk(), mk());
        let mut flow_rng = bass::util::rng::SimRng::seed_from_u64(seed ^ 0xF10);
        let mut ids = Vec::new();
        let step = SimDuration::from_millis(100);
        let assert_agree = |a: &Mesh, b: &Mesh, ids: &[bass::mesh::FlowId], when: &str| {
            for &id in ids {
                let ra = a.flow_rate(id).as_bps();
                let rb = b.flow_rate(id).as_bps();
                assert_eq!(ra.to_bits(), rb.to_bits(), "{when}: flow {id} {ra} vs {rb}");
            }
        };
        for _ in 0..n_flows {
            let src = NodeId(flow_rng.below(n as u64) as u32);
            let dst = NodeId(flow_rng.below(n as u64) as u32);
            let demand = Bandwidth::from_mbps(flow_rng.uniform(0.5, 30.0));
            let fa = a.add_flow(src, dst, demand).unwrap();
            let fb = b.add_flow(src, dst, demand).unwrap();
            prop_assert_eq!(fa, fb);
            ids.push(fa);
            a = a.rebuilt();
            a.advance(step);
            b.advance(step);
            assert_agree(&a, &b, &ids, "after add");
        }
        // Cap one node's egress, then squeeze one link.
        let capped = NodeId(flow_rng.below(n as u64) as u32);
        a.set_node_egress_cap(capped, Some(Bandwidth::from_mbps(5.0))).unwrap();
        b.set_node_egress_cap(capped, Some(Bandwidth::from_mbps(5.0))).unwrap();
        a = a.rebuilt();
        a.advance(step);
        b.advance(step);
        assert_agree(&a, &b, &ids, "after egress cap");
        let squeezed = NodeId(flow_rng.below(n as u64) as u32);
        let peer = NodeId((squeezed.0 + 1) % n);
        a.set_link_cap(squeezed, peer, Some(Bandwidth::from_mbps(1.0))).unwrap();
        b.set_link_cap(squeezed, peer, Some(Bandwidth::from_mbps(1.0))).unwrap();
        a = a.rebuilt();
        a.advance(step);
        b.advance(step);
        assert_agree(&a, &b, &ids, "after link squeeze");
        // Remove half the flows.
        for id in ids.drain(..ids.len() / 2 + 1).collect::<Vec<_>>() {
            a.remove_flow(id).unwrap();
            b.remove_flow(id).unwrap();
            a = a.rebuilt();
            a.advance(step);
            b.advance(step);
            assert_agree(&a, &b, &ids, "after remove");
        }
    }

    #[test]
    fn max_min_is_pareto_efficient(
        demands_mbps in proptest::collection::vec(1.0f64..50.0, 1..12),
        cap in 1.0f64..80.0,
    ) {
        // Single shared constraint: either every demand is met, or the
        // constraint is saturated (no allocation can be raised without
        // lowering another).
        let demands: Vec<Bandwidth> =
            demands_mbps.iter().map(|&m| Bandwidth::from_mbps(m)).collect();
        let constraints = vec![Constraint {
            capacity: Bandwidth::from_mbps(cap),
            members: (0..demands.len()).collect(),
        }];
        let rates = max_min_allocate(&demands, &constraints);
        let used: f64 = rates.iter().map(|r| r.as_mbps()).sum();
        let total_demand: f64 = demands_mbps.iter().sum();
        if total_demand <= cap {
            prop_assert!((used - total_demand).abs() < 1e-3, "all demand served");
        } else {
            prop_assert!((used - cap).abs() < 1e-3, "link saturated: {used} vs {cap}");
        }
    }

    #[test]
    fn routing_paths_are_simple_and_connected(n in 2u32..10, extra in 0usize..10, seed in any::<u64>()) {
        // Ring + random chords is always connected.
        let mut rng = bass::util::rng::SimRng::seed_from_u64(seed);
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
        let mesh = Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(10.0)).unwrap();
        for a in 0..n {
            for b in 0..n {
                let path = mesh.path(NodeId(a), NodeId(b)).unwrap();
                prop_assert_eq!(path[0], NodeId(a));
                prop_assert_eq!(*path.last().unwrap(), NodeId(b));
                // Simple: no repeated nodes.
                let mut seen = path.to_vec();
                seen.sort();
                seen.dedup();
                prop_assert_eq!(seen.len(), path.len());
            }
        }
    }

    #[test]
    fn trace_generator_is_nonnegative_and_deterministic(
        mean in 0.5f64..40.0,
        rel_std in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let cfg = OuTraceConfig::new("t", mean).relative_std(rel_std);
        let a = cfg.generate(seed, SimDuration::from_secs(120));
        let b = cfg.generate(seed, SimDuration::from_secs(120));
        prop_assert_eq!(&a, &b);
        for &(_, bw) in a.samples() {
            prop_assert!(bw.as_bps() >= 0.0);
        }
    }
}

/// Ring + random chords topology: always connected, arbitrary shape.
fn ring_with_chords(n: u32, extra: usize, seed: u64) -> Topology {
    let mut rng = bass::util::rng::SimRng::seed_from_u64(seed);
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

/// [`ring_with_chords`] with its node ids spread `stride` apart.
fn sparse_ring_with_chords(n: u32, extra: usize, seed: u64, stride: u32) -> Topology {
    let dense = ring_with_chords(n, extra, seed);
    let mut topo = Topology::new();
    for v in dense.nodes() {
        topo.add_node(NodeId(v.0 * stride)).unwrap();
    }
    for (_, l) in dense.links() {
        topo.add_link(NodeId(l.a.0 * stride), NodeId(l.b.0 * stride)).unwrap();
    }
    topo
}

/// The materialising all-pairs BFS that `RoutingTable` used to be —
/// every min-hop path stored whole, first-found (lowest-id) parent —
/// kept as the oracle for the parent-array table.
fn materialised_paths(
    topo: &Topology,
    usable: impl Fn(LinkId) -> bool,
) -> BTreeMap<(NodeId, NodeId), Vec<NodeId>> {
    let mut paths = BTreeMap::new();
    for src in topo.nodes() {
        let mut parent = BTreeMap::from([(src, src)]);
        let mut queue = VecDeque::from([src]);
        while let Some(n) = queue.pop_front() {
            for &(nb, lid) in topo.neighbor_links(n) {
                if usable(lid) && !parent.contains_key(&nb) {
                    parent.insert(nb, n);
                    queue.push_back(nb);
                }
            }
        }
        for &dst in parent.keys() {
            let mut path = vec![dst];
            while path[path.len() - 1] != src {
                path.push(parent[&path[path.len() - 1]]);
            }
            path.reverse();
            paths.insert((src, dst), path);
        }
    }
    paths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn transfer_delay_is_monotone_in_utilization(
        size_kb in 1u64..1_024,
        cap_mbps in 1.0f64..1_000.0,
        rho_lo in 0.0f64..1.0,
        rho_hi in 0.0f64..1.0,
    ) {
        let (lo, hi) = if rho_lo <= rho_hi { (rho_lo, rho_hi) } else { (rho_hi, rho_lo) };
        let size = DataSize::from_kilobytes(size_kb);
        let cap = Bandwidth::from_mbps(cap_mbps);
        let mut q = FlowQueue::new();
        q.set_path_utilization(lo);
        let d_lo = q.transfer_delay(size, cap, cap);
        q.set_path_utilization(hi);
        let d_hi = q.transfer_delay(size, cap, cap);
        prop_assert!(d_lo <= d_hi, "rho {lo} -> {d_lo}, rho {hi} -> {d_hi}");
    }

    #[test]
    fn transfer_delay_is_finite_below_saturation(
        size_kb in 1u64..1_024,
        cap_mbps in 1.0f64..1_000.0,
        rho in 0.0f64..1.0,
    ) {
        // No backlog (the flow kept up) and a live path: the M/M/1
        // inflation alone must never reach the dead-path cap.
        let mut q = FlowQueue::new();
        q.set_path_utilization(rho);
        let d = q.transfer_delay(
            DataSize::from_kilobytes(size_kb),
            Bandwidth::from_mbps(cap_mbps),
            Bandwidth::from_mbps(cap_mbps),
        );
        prop_assert!(d > SimDuration::ZERO);
        prop_assert!(d < MAX_DELAY, "finite below saturation: {d}");
    }

    #[test]
    fn transfer_delay_is_monotone_in_backlog(
        size_kb in 1u64..1_024,
        cap_mbps in 1.0f64..100.0,
        backlog_secs in 0.0f64..30.0,
    ) {
        // A queue that accumulated backlog can only be slower than an
        // empty one at the same rates.
        let size = DataSize::from_kilobytes(size_kb);
        let cap = Bandwidth::from_mbps(cap_mbps);
        let empty = FlowQueue::new();
        let mut backed = FlowQueue::new();
        backed.advance(
            SimDuration::from_secs_f64(backlog_secs),
            Bandwidth::from_mbps(2.0 * cap_mbps),
            cap,
        );
        prop_assert!(empty.transfer_delay(size, cap, cap) <= backed.transfer_delay(size, cap, cap));
    }

    #[test]
    fn filtered_routes_never_traverse_down_links(
        n in 3u32..10,
        extra in 0usize..10,
        seed in any::<u64>(),
        down_bits in any::<u64>(),
    ) {
        let topo = ring_with_chords(n, extra, seed);
        // An arbitrary subset of links is down (bit i of the mask).
        let down: std::collections::BTreeSet<LinkId> = topo
            .links()
            .filter(|(lid, _)| down_bits & (1 << (lid.0 % 64)) != 0)
            .map(|(lid, _)| lid)
            .collect();
        let table = RoutingTable::compute_filtered(&topo, |lid| !down.contains(&lid));
        for a in topo.nodes() {
            for b in topo.nodes() {
                let Some(path) = table.path(a, b) else { continue };
                prop_assert_eq!(path[0], a);
                prop_assert_eq!(*path.last().unwrap(), b);
                for hop in path.windows(2) {
                    let lid = topo.find_link(hop[0], hop[1])
                        .expect("route uses an existing link");
                    prop_assert!(
                        !down.contains(&lid),
                        "route {a}->{b} traverses down link {lid}"
                    );
                }
            }
        }
    }

    #[test]
    fn routes_are_min_hop_lowest_id_under_faults_and_sparse_ids(
        n in 3u32..10,
        extra in 0usize..10,
        seed in any::<u64>(),
        down_bits in any::<u64>(),
        stride in 1u32..400_000_000,
    ) {
        // The same ring, its node ids spread out: the table must depend
        // on how many nodes there are, never on how large their ids are.
        let topo = sparse_ring_with_chords(n, extra, seed, stride);
        let up = |lid: LinkId| down_bits & (1 << (lid.0 % 64)) == 0;
        let table = RoutingTable::compute_filtered(&topo, up);
        let oracle = materialised_paths(&topo, up);
        for a in topo.nodes() {
            for b in topo.nodes() {
                // Node for node, and `None` exactly where the oracle has no path.
                prop_assert_eq!(table.path(a, b), oracle.get(&(a, b)).cloned());
            }
        }
    }

    #[test]
    fn repaired_routes_match_a_fresh_table_after_every_fault(
        n in 3u32..12,
        extra in 0usize..14,
        seed in any::<u64>(),
        stride in 1u32..400_000_000,
    ) {
        // A mesh carrying flows (loopback ones included) takes about 40
        // random node and link ups and downs, repeats included; after
        // each, every route it serves must be the one a table computed
        // from scratch over the links up right now gives.
        let topo = sparse_ring_with_chords(n, extra, seed, stride);
        let nodes: Vec<NodeId> = topo.nodes().collect();
        let links: Vec<_> = topo.links().map(|(_, l)| (l.a, l.b)).collect();
        let mut mesh = Mesh::with_uniform_capacity(topo.clone(), Bandwidth::from_mbps(10.0)).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..4 {
            let (src, dst) = (*rng.choose(&nodes).unwrap(), *rng.choose(&nodes).unwrap());
            mesh.add_flow(src, dst, Bandwidth::from_mbps(3.0)).unwrap();
        }
        let mut down_nodes = std::collections::BTreeSet::new();
        let mut down_links = std::collections::BTreeSet::new();
        for step in 0..40 {
            let up = rng.chance(0.5);
            if rng.chance(0.4) {
                let node = *rng.choose(&nodes).unwrap();
                mesh.set_node_up(node, up).unwrap();
                if up { down_nodes.remove(&node) } else { down_nodes.insert(node) };
            } else {
                let (a, b) = *rng.choose(&links).unwrap();
                mesh.set_link_up(a, b, up).unwrap();
                let lid = topo.find_link(a, b).unwrap();
                if up { down_links.remove(&lid) } else { down_links.insert(lid) };
            }
            let usable = |lid: LinkId| {
                let l = topo.link(lid);
                !down_links.contains(&lid) && !down_nodes.contains(&l.a) && !down_nodes.contains(&l.b)
            };
            for (lid, l) in topo.links() {
                prop_assert_eq!(mesh.link_is_up(l.a, l.b), usable(lid));
            }
            let fresh = RoutingTable::compute_filtered(&topo, usable);
            for &a in &nodes {
                for &b in &nodes {
                    prop_assert_eq!(
                        mesh.path(a, b).ok(),
                        fresh.path(a, b),
                        "route {}->{} after step {}", a, b, step
                    );
                }
            }
        }
    }
}

/// A small world for the ranking: a ring with chords whose link
/// capacities repeat, and nodes drawn from short core and memory ranges,
/// so every tier of the order (CPU, memory, link capacity, id) decides
/// some ties.
fn ranking_world(n: u32, seed: u64) -> (Cluster, Mesh) {
    let mut rng = SimRng::seed_from_u64(seed);
    let topo = ring_with_chords(n, n as usize, seed);
    let mut mesh = Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(10.0)).unwrap();
    let links: Vec<_> = mesh.topology().links().map(|(_, l)| (l.a, l.b)).collect();
    for (a, b) in links {
        let mbps = [10.0, 20.0, 40.0][rng.below(3) as usize];
        mesh.set_link_source(a, b, CapacitySource::Constant(Bandwidth::from_mbps(mbps)))
            .unwrap();
    }
    let nodes = (0..n).map(|i| NodeSpec::cores_mb(i, 2 + rng.below(4), 512 * (1 + rng.below(3))));
    (Cluster::new(nodes).unwrap(), mesh)
}

/// `pack_ordering` as it was before the ranking was kept across groups:
/// one fresh `rank_nodes` per group.
fn pack_one_rank_per_group(
    ordering: &ComponentOrdering,
    dag: &AppDag,
    cluster: &mut Cluster,
    mesh: &Mesh,
) -> Result<Placement, PlacementError> {
    for group in ordering.groups() {
        let ranked = rank_nodes(cluster, mesh);
        let mut cursor = 0;
        for &cid in group {
            let component = dag.component(cid).ok_or(PlacementError::UnknownComponent(cid))?;
            if cluster.node_of(cid).is_some() {
                return Err(PlacementError::AlreadyPlaced(cid));
            }
            loop {
                let Some(&node) = ranked.get(cursor) else {
                    return Err(PlacementError::NoCapacity(cid));
                };
                if cluster.fits(node, component.resources).unwrap_or(false) {
                    cluster.place(cid, component.resources, node).expect("fit checked");
                    break;
                }
                cursor += 1;
            }
        }
    }
    Ok(cluster.placement())
}

/// `NodeRanking::new` as it was before link capacity was read only for
/// CPU-and-memory ties: every node's free CPU, free memory and combined
/// link capacity read, one sort by the whole order.
fn full_read_ranking(cluster: &Cluster, mesh: &Mesh) -> Vec<(NodeId, u64, u64, f64)> {
    let mut scores: Vec<_> = cluster
        .node_ids()
        .into_iter()
        .map(|n| {
            let free = cluster.free_on(n).unwrap();
            let link = mesh.node_total_link_capacity(n).unwrap().as_bps();
            (n, free.cpu.as_millis(), free.memory.as_mb(), link)
        })
        .collect();
    scores.sort_by(|a, b| b.1.cmp(&a.1).then(b.2.cmp(&a.2)).then(b.3.total_cmp(&a.3)).then(a.0.cmp(&b.0)));
    scores
}

/// The ranking's scores equal the full-read oracle's, node for node,
/// with the link capacity present (bit for bit) exactly on the nodes
/// that tie another on free CPU and memory.
fn assert_matches_full_read(ranking: &NodeRanking, cluster: &Cluster, mesh: &Mesh) {
    let oracle = full_read_ranking(cluster, mesh);
    let got = ranking.scores();
    assert_eq!(got.len(), oracle.len());
    for (i, (score, &(node, cpu, mem, link))) in got.iter().zip(&oracle).enumerate() {
        assert_eq!((score.node, score.free_cpu_millis, score.free_memory_mb), (node, cpu, mem));
        let tied = oracle.iter().enumerate().any(|(j, o)| j != i && (o.1, o.2) == (cpu, mem));
        assert_eq!(score.link_capacity_bps.map(f64::to_bits), tied.then_some(link.to_bits()), "rank {}", i);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn node_ranking_refresh_matches_a_fresh_ranking(
        n in 2u32..12,
        ops in 1usize..40,
        seed in any::<u64>(),
    ) {
        let (mut cluster, mesh) = ranking_world(n, seed);
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5eed);
        let mut ranking = NodeRanking::new(&cluster, &mesh);
        let mut touched = Vec::new();
        for _ in 0..ops {
            // Toggle one of eight components: evict it if placed, else
            // try a random node.
            let c = ComponentId(rng.below(8) as u32);
            if cluster.node_of(c).is_some() {
                touched.push(cluster.evict(c).unwrap());
            } else {
                let node = NodeId(rng.below(u64::from(n)) as u32);
                let req = ResourceReq::cores_mb(1 + rng.below(2), 128 * (1 + rng.below(4)));
                if cluster.place(c, req, node).is_ok() {
                    touched.push(node);
                }
            }
            if rng.chance(0.4) {
                ranking.refresh(&cluster, &mesh, &touched);
                touched.clear();
                prop_assert_eq!(ranking.scores(), NodeRanking::new(&cluster, &mesh).scores());
                prop_assert_eq!(ranking.nodes().collect::<Vec<_>>(), rank_nodes(&cluster, &mesh));
            }
        }
    }

    #[test]
    fn node_ranking_matches_the_full_read_oracle_on_large_tie_groups(
        n in 2u32..24,
        ops in 1usize..60,
        seed in any::<u64>(),
    ) {
        // Two core counts and one memory size: most nodes tie on free
        // CPU and memory, so link capacity (three values, repeating)
        // and then the id decide most of the order.
        let (_, mesh) = ranking_world(n, seed);
        let mut rng = SimRng::seed_from_u64(seed ^ 0x7135);
        let specs = (0..n).map(|i| NodeSpec::cores_mb(i, [2, 4][rng.below(2) as usize], 1024));
        let mut cluster = Cluster::new(specs).unwrap();
        let mut ranking = NodeRanking::new(&cluster, &mesh);
        assert_matches_full_read(&ranking, &cluster, &mesh);
        let mut touched = Vec::new();
        for _ in 0..ops {
            let c = ComponentId(rng.below(12) as u32);
            if cluster.node_of(c).is_some() {
                touched.push(cluster.evict(c).unwrap());
            } else {
                let node = NodeId(rng.below(u64::from(n)) as u32);
                if cluster.place(c, ResourceReq::cores_mb(1, 256 * rng.below(2)), node).is_ok() {
                    touched.push(node);
                }
            }
            if rng.chance(0.5) {
                ranking.refresh(&cluster, &mesh, &touched);
                touched.clear();
                assert_matches_full_read(&ranking, &cluster, &mesh);
                let fresh = NodeRanking::new(&cluster, &mesh);
                assert_matches_full_read(&fresh, &cluster, &mesh);
                prop_assert_eq!(ranking.scores(), fresh.scores());
            }
        }
    }

    #[test]
    fn pack_ordering_matches_one_rank_per_group(
        dag in arb_dag(),
        n in 2u32..8,
        seed in any::<u64>(),
        chains in any::<bool>(),
    ) {
        let (mut cluster, mesh) = ranking_world(n, seed);
        // Pre-load some nodes with components outside the DAG's ids.
        let mut rng = SimRng::seed_from_u64(seed ^ 0x10ad);
        for k in 0..n {
            let req = ResourceReq::cores_mb(rng.below(3), 128 * rng.below(3));
            let node = NodeId(rng.below(u64::from(n)) as u32);
            let _ = cluster.place(ComponentId(1000 + k), req, node);
        }
        let ordering = if chains {
            longest_path(&dag).unwrap()
        } else {
            breadth_first(&dag, BfsWeighting::EdgeWeight).unwrap()
        };
        let mut reference = cluster.clone();
        let want = pack_one_rank_per_group(&ordering, &dag, &mut reference, &mesh);
        let got = pack_ordering(&ordering, &dag, &mut cluster, &mesh);
        // Same placement, or `NoCapacity` at the same component with the
        // same partial placement left behind.
        prop_assert_eq!(got, want);
        prop_assert_eq!(cluster, reference);
    }
}

/// `Scorer::bandwidth_score` before the scorer kept its buffers: a
/// `BTreeMap` of link members over `mesh.path`, one `max_min_allocate`
/// per call — the oracle the reused scorer must match bit for bit.
fn bandwidth_score_btree(
    node: NodeId,
    deps: &[(ComponentId, Bandwidth)],
    cluster: &Cluster,
    mesh: &Mesh,
) -> (f64, f64) {
    let mut demands: Vec<Bandwidth> = Vec::new();
    let mut link_members: BTreeMap<(NodeId, NodeId), Vec<usize>> = BTreeMap::new();
    let mut unreachable: Vec<usize> = Vec::new();
    for (dep, required) in deps {
        let Some(dep_node) = cluster.node_of(*dep) else { continue };
        let idx = demands.len();
        demands.push(*required);
        if dep_node == node {
            continue;
        }
        let Ok(path) = mesh.path(node, dep_node) else {
            unreachable.push(idx);
            continue;
        };
        for w in path.windows(2) {
            let key = if w[0] <= w[1] { (w[0], w[1]) } else { (w[1], w[0]) };
            link_members.entry(key).or_default().push(idx);
        }
    }
    if demands.is_empty() {
        return (1.0, 0.0);
    }
    let constraints: Vec<Constraint> = link_members
        .into_iter()
        .map(|((a, b), members)| Constraint {
            capacity: mesh.link_capacity(a, b).unwrap_or(Bandwidth::ZERO),
            members,
        })
        .collect();
    let mut rates = max_min_allocate(&demands, &constraints);
    for i in unreachable {
        rates[i] = Bandwidth::ZERO;
    }
    let mut worst_fraction = 1.0f64;
    let mut total = 0.0f64;
    for (i, rate) in rates.iter().enumerate() {
        total += rate.as_bps();
        if !demands[i].is_zero() {
            worst_fraction = worst_fraction.min(rate.as_bps() / demands[i].as_bps());
        }
    }
    (worst_fraction, total)
}

/// A ring with chords whose link capacities vary, carrying a few flows
/// under an egress cap, with some links and maybe a node down: capacity
/// and headroom differ hop by hop, and some pairs are cut off.
fn faulted_world(n: u32, extra: usize, seed: u64) -> (Mesh, Vec<NodeId>) {
    let mut rng = SimRng::seed_from_u64(seed);
    let topo = ring_with_chords(n, extra, seed);
    let nodes: Vec<NodeId> = topo.nodes().collect();
    let links: Vec<_> = topo.links().map(|(_, l)| (l.a, l.b)).collect();
    let mut mesh = Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(10.0)).unwrap();
    for &(a, b) in &links {
        let mbps = [5.0, 10.0, 40.0][rng.below(3) as usize];
        mesh.set_link_source(a, b, CapacitySource::Constant(Bandwidth::from_mbps(mbps))).unwrap();
    }
    mesh.set_node_egress_cap(*rng.choose(&nodes).unwrap(), Some(Bandwidth::from_mbps(7.0))).unwrap();
    for _ in 0..3 {
        let (src, dst) = (*rng.choose(&nodes).unwrap(), *rng.choose(&nodes).unwrap());
        mesh.add_flow(src, dst, Bandwidth::from_mbps(rng.uniform(1.0, 20.0))).unwrap();
    }
    for &(a, b) in &links {
        if rng.chance(0.25) {
            mesh.set_link_up(a, b, false).unwrap();
        }
    }
    if rng.chance(0.5) {
        mesh.set_node_up(*rng.choose(&nodes).unwrap(), false).unwrap();
    }
    mesh.advance(SimDuration::from_millis(100));
    (mesh, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn path_narrowest_matches_a_fold_over_the_path(
        n in 2u32..12,
        extra in 0usize..12,
        seed in any::<u64>(),
    ) {
        let (mesh, nodes) = faulted_world(n, extra, seed);
        for &a in &nodes {
            for &b in &nodes {
                let got = mesh.path_narrowest(a, b);
                let Ok(path) = mesh.path(a, b) else {
                    prop_assert_eq!(got, Err(MeshError::Unreachable(a, b)));
                    continue;
                };
                let (mut cap, mut avail) = (f64::INFINITY, f64::INFINITY);
                for w in path.windows(2) {
                    cap = cap.min(mesh.directed_link_capacity(w[0], w[1]).unwrap().as_bps());
                    avail = avail.min(mesh.directed_link_available(w[0], w[1]).unwrap().as_bps());
                }
                prop_assert!(a != b || cap.is_infinite() && avail.is_infinite());
                let (got_cap, got_avail) = got.unwrap();
                prop_assert_eq!(got_cap.as_bps().to_bits(), cap.to_bits(), "capacity {}->{}", a, b);
                prop_assert_eq!(got_avail.as_bps().to_bits(), avail.to_bits(), "available {}->{}", a, b);
            }
        }
    }

    #[test]
    fn a_reused_scorer_matches_a_fresh_one_and_the_btree_scorer(
        n in 2u32..10,
        extra in 0usize..10,
        seed in any::<u64>(),
    ) {
        let (mesh, nodes) = faulted_world(n, extra, seed);
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5c0e);
        // Eight components, one in eight unplaced, on one roomy node each.
        let mut cluster = Cluster::new(nodes.iter().map(|v| NodeSpec::cores_mb(v.0, 64, 65_536))).unwrap();
        for c in 0..8 {
            if !rng.chance(0.125) {
                let node = *rng.choose(&nodes).unwrap();
                cluster.place(ComponentId(c), ResourceReq::cores_mb(1, 64), node).unwrap();
            }
        }
        // Three dependency lists (zero and repeated demands included),
        // each scored at every node, in shuffled order.
        let mut calls = Vec::new();
        for _ in 0..3 {
            let mut deps: Vec<(ComponentId, Bandwidth)> = Vec::new();
            for c in 0..8 {
                let mbps = [0.0, 2.0, 6.0, 6.0, 30.0][rng.below(5) as usize];
                if rng.chance(0.5) {
                    deps.push((ComponentId(c), Bandwidth::from_mbps(mbps)));
                }
            }
            calls.extend(nodes.iter().map(|&v| (v, deps.clone())));
        }
        rng.shuffle(&mut calls);
        let bits = |s: (f64, f64)| (s.0.to_bits(), s.1.to_bits());
        let mut reused = Scorer::default();
        for (node, deps) in &calls {
            let got = bits(reused.bandwidth_score(*node, deps, &cluster, &mesh));
            prop_assert_eq!(got, bits(Scorer::default().bandwidth_score(*node, deps, &cluster, &mesh)));
            prop_assert_eq!(got, bits(bandwidth_score_btree(*node, deps, &cluster, &mesh)));
        }
    }
}
