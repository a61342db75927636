//! Stepping battery, production vs rebuilt reference: the one step loop
//! (`SimEnv::run_for`, the campaign replica loop) skips provably
//! quiescent tick windows, and must replay every simulation
//! byte-for-byte — journals and campaign replicas — against the
//! reference in `tests/support`, a `step()` loop that executes every
//! tick in full on an environment `SimEnv::rebuild` re-derived just
//! before, across OU trace volatility, workload churn and composed
//! fault storms (see `docs/ARCHITECTURE.md`).

mod support;

use bass::appdag::catalog;
use bass::apps::testbeds::citylab_testbed;
use bass::emu::{SimEnv, SimEnvConfig};
use bass::faults::{FaultPlan, StormProfile};
use bass::mesh::NodeId;
use bass::obs::Journal;
use bass::core::PolicyKind;
use bass::scenario::ScenarioSpec;
use bass::util::time::SimDuration;
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
/// returns the full journal plus the number of ticks actually executed
/// (skipped ticks never reach the `tick.finalize` span). Production
/// runs go through `SimEnv::run_for`; the `reference` is
/// `support::ticked` over every 100 ms tick.
fn sim_run(reference: bool, seed: u64, faults: FaultPlan, secs: u64) -> (String, u64) {
    let (mesh, cluster, _) = citylab_testbed(seed, SimDuration::from_secs(secs + 60));
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
    /// and (optionally) a composed fault storm, the skipping loop
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
        prop_assert_eq!(ticked, event, "journals must not depend on skipped windows");
        prop_assert!(
            executed_event <= executed_ticked,
            "production may only skip work: {executed_event} > {executed_ticked}"
        );
    }

    /// The same property one layer up: a campaign replica under churn
    /// samples and journals the same bits off the timeline, skipping,
    /// as driven by hand on the rebuilt reference (`support::drive_replica`).
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
        prop_assert_eq!(ticked, skipping, "replicas must not depend on skipped windows");
        prop_assert!(
            executed <= executed_ticked,
            "production may only skip work: {executed} > {executed_ticked}"
        );
    }
}

/// Deterministic anchor for the battery: on the quiet CityLab run the
/// production loop must actually skip a substantial share of ticks —
/// otherwise the properties above would pass vacuously.
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
