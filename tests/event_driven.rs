//! Stepping battery, production vs rebuilt reference: the one step loop
//! (`SimEnv::run_for`, the campaign replica loop) runs a quiet tick —
//! no input due, nothing displaced, no probe epoch — as only its demand
//! push, mesh advance and `TickCompleted` line, and the mesh skips the
//! work whose inputs did not move. It must replay every simulation
//! byte-for-byte — journals and campaign replicas — against the
//! reference in `tests/support`, a `step()` loop that executes every
//! tick in full on an environment `SimEnv::rebuild` re-derived just
//! before, across OU trace volatility, workload churn and composed
//! fault storms (see `docs/ARCHITECTURE.md`).

mod support;

use bass::appdag::{catalog, AppDag, Component, ComponentId, ResourceReq};
use bass::apps::testbeds::citylab_testbed;
use bass::cluster::{Cluster, NodeSpec};
use bass::emu::{SimEnv, SimEnvConfig};
use bass::faults::{FaultPlan, StormProfile};
use bass::mesh::{Mesh, NodeId, Topology};
use bass::obs::Journal;
use bass::core::PolicyKind;
use bass::scenario::ScenarioSpec;
use bass::util::time::SimDuration;
use bass::util::units::{Bandwidth, DataSize};
use proptest::prelude::*;

/// A seeded Poisson storm over the CityLab workers and its volatile
/// links — crashes, flaps, and probe-loss episodes all composed.
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

/// Runs the camera pipeline on the trace-driven CityLab testbed and
/// returns the full journal plus the number of ticks run in full (a
/// quiet tick times no `tick.finalize` span). Production
/// runs go through `SimEnv::run_for`; the `reference` is
/// `support::ticked` over every 100 ms tick.
fn sim_run(reference: bool, seed: u64, faults: FaultPlan, secs: u64) -> (String, u64) {
    let (mesh, cluster) = citylab_testbed(seed, SimDuration::from_secs(secs + 60));
    let cfg = SimEnvConfig { faults, ..Default::default() };
    let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
    env.attach_journal(Journal::new());
    env.enable_span_profiling();
    env.deploy(&[]).expect("deploys");
    if reference {
        support::ticked(&mut env, secs * 10, |_| {});
    } else {
        env.run_for(SimDuration::from_secs(secs), support::check)
            .expect("run completes");
    }
    let journal = env.take_journal().expect("journal attached").export_jsonl();
    let executed = env
        .take_span_profiler()
        .expect("profiler attached")
        .stats("tick.finalize")
        .map_or(0, |s| s.count);
    (journal, executed)
}

/// A shrunk small-reference campaign with tunable churn pressure.
fn churn_spec(arrival: f64, max_concurrent: u32, horizon_ticks: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::small_reference();
    spec.workload.arrival_rate_per_s = arrival;
    spec.workload.max_concurrent = max_concurrent;
    spec.workload.initial_apps = spec.workload.initial_apps.min(max_concurrent);
    spec.horizon_ticks = horizon_ticks;
    spec.replicas = 1;
    spec
}

proptest! {
    // Every case runs the full simulation twice; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole property at the environment level: under OU traces
    /// and (optionally) a composed fault storm, the production loop
    /// journals the identical bytes.
    #[test]
    fn event_driven_journals_are_byte_identical(
        seed in any::<u64>(),
        stormy in any::<bool>(),
    ) {
        let plan = |s| if stormy { storm_plan(s, 120) } else { FaultPlan::new() };
        let (ticked, executed_ticked) = sim_run(true, seed, plan(seed), 120);
        let (event, executed_event) = sim_run(false, seed, plan(seed), 120);
        prop_assert!(!ticked.is_empty());
        prop_assert_eq!(ticked, event, "journals must not depend on quiet ticks");
        prop_assert!(
            executed_event <= executed_ticked,
            "production may only skip work: {executed_event} > {executed_ticked}"
        );
    }

    /// The same property one layer up: a campaign replica under churn
    /// samples and journals the same bits off the timeline as driven by
    /// hand on the rebuilt reference (`support::drive_replica`).
    #[test]
    fn event_driven_campaign_summaries_are_byte_identical(
        seed in any::<u64>(),
        arrival in 0.0f64..0.1,
        max_concurrent in 1u32..6,
    ) {
        let spec = churn_spec(arrival, max_concurrent, 120);
        let (ticked, executed_ticked) =
            support::drive_replica(&spec, seed, PolicyKind::Bass);
        let (skipping, executed) = support::timeline_replica(&spec, seed, PolicyKind::Bass);
        prop_assert_eq!(ticked, skipping, "replicas must not depend on quiet ticks");
        prop_assert!(
            executed <= executed_ticked,
            "production may only skip work: {executed} > {executed_ticked}"
        );
    }
}

/// Deterministic anchor for the battery: on the quiet CityLab run most
/// production ticks must be quiet — otherwise the properties above
/// would pass vacuously.
#[test]
fn event_driven_mode_actually_skips_ticks() {
    let (ticked, executed_ticked) = sim_run(true, 0xBA55, FaultPlan::new(), 120);
    let (event, executed_event) = sim_run(false, 0xBA55, FaultPlan::new(), 120);
    assert_eq!(ticked, event);
    assert_eq!(executed_ticked, 1200, "the reference executes every 100 ms tick");
    assert!(
        executed_event < executed_ticked / 2,
        "expected most ticks skipped, executed {executed_event} of {executed_ticked}"
    );
}

/// A saturated-then-draining flow whose backlog moves a fraction of a
/// byte per tick: 2 bps over a 1 Mbps link, then 4 bps under it. Quiet
/// ticks must keep advancing that backlog bit for bit; a queue pass
/// that settled once its *bytes* repeated would freeze it. No journaled figure
/// shows the drift for minutes, so every tick samples the edge's message
/// delay, which reads the backlog in bits (1 µs per bit at 1 Mbps).
#[test]
fn sub_byte_backlog_drift_replays_bit_for_bit() {
    fn run(reference: bool) -> (Vec<SimDuration>, String, u64) {
        let mut topo = Topology::new();
        topo.add_node(NodeId(0)).unwrap();
        topo.add_node(NodeId(1)).unwrap();
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        let mesh = Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(1.0)).unwrap();
        let cluster = Cluster::new((0..2).map(|i| NodeSpec::cores_mb(i, 4, 4096))).unwrap();
        let mut dag = AppDag::new("pair");
        for c in [1, 2] {
            let req = ResourceReq::cores_mb(1, 128);
            dag.add_component(Component::new(ComponentId(c), format!("c{c}"), req)).unwrap();
        }
        let required = Bandwidth::from_bps(1e6 + 2.0);
        dag.add_edge(ComponentId(1), ComponentId(2), required).unwrap();
        let mut env = SimEnv::new(mesh, cluster, dag, SimEnvConfig::default());
        env.attach_journal(Journal::new());
        env.enable_span_profiling();
        // Pinned apart: the controller can move neither endpoint.
        env.deploy(&[(ComponentId(1), NodeId(0)), (ComponentId(2), NodeId(1))]).expect("deploys");
        let mut delays = Vec::new();
        let probe = DataSize::from_bytes(100);
        let mut sample = |e: &SimEnv| delays.push(e.edge_delay(ComponentId(1), ComponentId(2), probe));
        for (factor, secs) in [(1.0, 60), ((1e6 - 4.0) / required.as_bps(), 60)] {
            env.set_global_demand_factor(factor);
            if reference {
                support::ticked(&mut env, secs * 10, &mut sample);
            } else {
                env.run_for(SimDuration::from_secs(secs), |e| {
                    support::check(e);
                    sample(e);
                })
                .expect("run completes");
            }
        }
        let journal = env.take_journal().expect("journal attached").export_jsonl();
        let profiler = env.take_span_profiler().expect("profiler attached");
        (delays, journal, profiler.stats("tick.finalize").map_or(0, |s| s.count))
    }
    let (ticked, ticked_journal, executed_ticked) = run(true);
    let (skipping, journal, executed) = run(false);
    assert_eq!(ticked.len(), 1200);
    assert_eq!(ticked, skipping, "quiet ticks must move the backlog as full ticks do");
    assert_eq!(ticked_journal, journal);
    // Not vacuous: most ticks quiet, and the backlog rose and drained.
    assert!(executed < executed_ticked / 2, "executed {executed} of {executed_ticked}");
    let peak = ticked.iter().max().unwrap();
    assert!(*peak > ticked[0] + SimDuration::from_micros(100) && ticked[1199] < *peak, "{peak:?}");
}

/// A migration's restart whose 5.05 s downtime ends inside a tick, in the
/// quiet stretch between probe epochs.
/// Demands are pushed only when one can have moved, so the first tick
/// that starts after the expiry must push the restored demands although
/// no input, bind or factor changed. The hook reads every
/// flow's demand and every DAG edge's achieved bandwidth on every tick;
/// production must see what the rebuilt reference sees, and journal the
/// same bytes, while most ticks are quiet.
#[test]
fn a_restart_expiring_mid_tick_restores_its_demands() {
    use bass::cluster::RestartModel;
    use bass::core::{scheduler::PlacementPolicy, BfsWeighting};
    use bass::emu::{Action, Scenario};
    use bass::mesh::FlowId;
    use bass::util::time::SimTime;

    type Seen = Vec<Vec<Option<u64>>>;
    fn run(reference: bool) -> (Seen, String, u64, usize) {
        let mbps = Bandwidth::from_mbps;
        let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap();
        let cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 12, 16384))).unwrap();
        let restart = RestartModel { downtime: SimDuration::from_millis(5050), ..Default::default() };
        let policy = PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight);
        let cfg = SimEnvConfig { restart, policy, ..Default::default() };
        let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
        env.attach_journal(Journal::new());
        env.enable_span_profiling();
        env.deploy(&[]).expect("deploys");
        // Squeeze the sampler → detector link 20 s in: the next probe
        // epoch migrates one of them.
        let node = |name| env.placement()[&env.dag().component_by_name(name).unwrap().id];
        let (a, b) = (node("frame-sampler"), node("object-detector"));
        let cap = Some(mbps(1.0));
        env.set_scenario(Scenario::new().at(SimTime::from_secs(20), Action::CapLink { a, b, cap }));
        let edges: Vec<_> = env.dag().edges().iter().map(|e| (e.from, e.to)).collect();
        let mut seen = Vec::new();
        let mut sample = |e: &SimEnv| {
            let demands = (0..16).map(|i| e.mesh().flow_spec(FlowId(i)).ok());
            let demands = demands.map(|s| s.map(|s| s.demand.as_bps().to_bits()));
            let achieved = edges.iter().map(|&(f, t)| Some(e.edge_achieved(f, t).as_bps().to_bits()));
            seen.push(demands.chain(achieved).collect());
        };
        if reference {
            support::ticked(&mut env, 900, &mut sample);
        } else {
            env.run_for(SimDuration::from_secs(90), |e| {
                support::check(e);
                sample(e);
            })
            .expect("run completes");
        }
        let migrations = env.stats().migrations.len();
        let journal = env.take_journal().expect("journal attached").export_jsonl();
        let profiler = env.take_span_profiler().expect("profiler attached");
        (seen, journal, profiler.stats("tick.finalize").map_or(0, |s| s.count), migrations)
    }
    let (ticked, ticked_journal, executed_ticked, migrations) = run(true);
    let (skipping, journal, executed, _) = run(false);
    assert_eq!(ticked.len(), 900);
    assert_eq!(ticked, skipping, "the hook must see every demand a full tick pushes");
    assert_eq!(ticked_journal, journal);
    // Not vacuous: a migration restarted a component, its demands went to
    // zero and came back, and most ticks were quiet.
    assert!(migrations > 0, "the squeeze must migrate");
    let zeros = |tick: &Vec<Option<u64>>| tick.iter().filter(|d| **d == Some(0)).count();
    let (first, most) = (zeros(&ticked[0]), ticked.iter().map(zeros).max().unwrap());
    assert!(most > first && zeros(&ticked[899]) == first, "{first} {most}");
    assert!(executed < executed_ticked / 2, "executed {executed} of {executed_ticked}");
}

/// `make()`'s environment run for `secs` seconds through `run_for` and,
/// on a second copy, through the rebuilt reference: each run's journal,
/// the ticks it timed in full (`tick.finalize`) and the mesh
/// reallocations it timed (`mesh.cap_diff`).
fn both_ways(make: impl Fn() -> SimEnv, secs: u64) -> [(String, u64, u64); 2] {
    [true, false].map(|reference| {
        let mut env = make();
        env.attach_journal(Journal::new());
        env.enable_span_profiling();
        env.deploy(&[]).expect("deploys");
        if reference {
            support::ticked(&mut env, secs * 10, |_| {});
        } else {
            env.run_for(SimDuration::from_secs(secs), support::check).expect("run completes");
        }
        let journal = env.take_journal().expect("journal attached").export_jsonl();
        let profiler = env.take_span_profiler().expect("profiler attached");
        let count = |span| profiler.stats(span).map_or(0, |s| s.count);
        (journal, count("tick.finalize"), count("mesh.cap_diff"))
    })
}

/// A probe-only window: constant capacities, no input, so only the probe
/// epochs wake the environment. `run_for` runs exactly those ticks in
/// full and journals what the reference journals.
#[test]
fn a_probe_only_window_matches_the_rebuilt_reference() {
    let make = || {
        let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(3), Bandwidth::from_mbps(100.0));
        let cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 12, 16384))).unwrap();
        SimEnv::new(mesh.unwrap(), cluster, catalog::camera_pipeline(), SimEnvConfig::default())
    };
    let [(reference, ticked, _), (journal, full, reallocations)] = both_ways(make, 300);
    assert_eq!(reference, journal);
    assert_eq!(ticked, 3000);
    // One headroom probe per 30 s epoch, from the first tick on.
    let probes = journal.lines().filter(|l| l.contains("\"kind\":\"Headroom\"")).count();
    assert_eq!((full, probes), (10, 10));
    // The deploy's flows are allocated once; nothing moves after.
    assert_eq!(reallocations, 1);
}

/// A trace-only window: the OU-traced CityLab testbed with migrations
/// off, so no probe epoch and no input wakes the environment and only
/// trace change-points wake the mesh. No tick runs in full, and the
/// journal — every capacity change included — is the reference's.
#[test]
fn a_trace_only_window_matches_the_rebuilt_reference() {
    let secs = 300;
    let make = || {
        let (mesh, cluster) = citylab_testbed(0x7ACE, SimDuration::from_secs(secs + 60));
        let cfg = SimEnvConfig { migrations_enabled: false, ..Default::default() };
        SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg)
    };
    let [(reference, _, ticked), (journal, full, reallocations)] = both_ways(make, secs);
    assert_eq!(reference, journal);
    assert!(journal.contains("LinkCapacityChanged"), "the traces must move capacities");
    assert_eq!(full, 0);
    assert_eq!(ticked, secs * 10, "the reference reallocates every tick");
    assert!(
        reallocations > 0 && reallocations < ticked / 4,
        "{reallocations} of {ticked} ticks reallocated"
    );
}

/// The full-tick count is exact: under a fault storm, `tick.finalize`
/// times exactly the ticks that start with a fault due, start with a
/// component displaced, or end on a probe epoch — read off the plan
/// and, before every tick, off the environment.
#[test]
fn full_ticks_are_exactly_those_with_an_input_a_displacement_or_a_probe_epoch() {
    let secs = 300;
    let plan = storm_plan(7, secs);
    let mut inputs: Vec<_> = plan.events().iter().map(|&(at, _)| at).collect();
    inputs.sort();
    let (mesh, cluster) = citylab_testbed(7, SimDuration::from_secs(secs + 60));
    let cfg = SimEnvConfig { faults: plan, ..Default::default() };
    let step = cfg.step;
    let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
    env.enable_span_profiling();
    env.deploy(&[]).expect("deploys");
    // Whether the tick starting at `e.now()` runs in full; `due` counts
    // the inputs already consumed.
    let full_next = |e: &SimEnv, due: &mut usize| {
        let now = e.now();
        let fresh = inputs[*due..].iter().take_while(|&&at| at <= now).count();
        *due += fresh;
        fresh > 0 || !e.displaced().is_empty() || e.netmon().next_headroom_probe_at() <= now + step
    };
    let mut due = 0;
    let mut expected = u64::from(full_next(&env, &mut due));
    let mut ticks = 0;
    env.run_for(SimDuration::from_secs(secs), |e| {
        ticks += 1;
        if ticks < secs * 10 {
            expected += u64::from(full_next(e, &mut due));
        }
    })
    .expect("run completes");
    let full = env.take_span_profiler().unwrap().stats("tick.finalize").map_or(0, |s| s.count);
    assert_eq!(full, expected);
    // Not vacuous: the storm injected faults, and most ticks were quiet.
    assert!(env.stats().faults_injected > 5 && full < ticks / 4, "{full} of {ticks}");
}
