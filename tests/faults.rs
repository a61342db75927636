//! Fault-injection harness: every safety invariant must hold after
//! every tick, under every fault schedule, and the same seed must
//! replay the same run bit-for-bit (see `docs/FAULTS.md`).

#[path = "support/reference.rs"]
mod reference;

use bass::appdag::catalog;
use bass::apps::testbeds::lan_testbed;
use bass::emu::{SimEnv, SimEnvConfig};
use bass::faults::{invariants, FaultPlan, StormProfile};
use bass::mesh::routing::RoutingTable;
use bass::mesh::{Mesh, NodeId};
use bass::obs::Journal;
use bass::util::time::{SimDuration, SimTime};

/// Builds the camera pipeline on a 3-node LAN, runs it for `secs`
/// seconds under `plan`, and asserts *every* invariant after *every*
/// tick. Returns the journal for schedule-specific assertions.
fn checked_run(plan: FaultPlan, secs: u64) -> Journal {
    checked_run_with(plan, secs, false)
}

/// [`checked_run`], or with `ticked` the same schedule on the rebuilt
/// reference (`reference::ticked`): every 100 ms tick stepped in full on
/// an environment whose derived parts were rebuilt just before.
fn checked_run_with(plan: FaultPlan, secs: u64, ticked: bool) -> Journal {
    let (mesh, cluster) = lan_testbed(3, 12);
    let cfg = SimEnvConfig { faults: plan, ..Default::default() };
    let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
    env.attach_journal(Journal::new());
    env.deploy(&[]).expect("deploys");
    let check = |e: &SimEnv| {
        if let Err(violations) = invariants::check_all(e.mesh(), e.cluster(), e.journal()) {
            panic!("invariant violations at t={}: {violations:#?}", e.mesh().now());
        }
        assert_routes_track_faults(e.mesh());
    };
    if ticked {
        reference::ticked(&mut env, secs * 10, check);
    } else {
        env.run_for(SimDuration::from_secs(secs), check).expect("run completes under faults");
    }
    env.take_journal().expect("journal attached")
}

/// Every route the mesh serves (every flow's endpoints included) is the
/// one a table freshly computed over the links up right now would give:
/// no fault leaves a stale table behind.
fn assert_routes_track_faults(mesh: &Mesh) {
    let topo = mesh.topology();
    let fresh = RoutingTable::compute_filtered(topo, |lid| {
        let link = topo.link(lid);
        mesh.link_is_up(link.a, link.b)
    });
    for a in topo.nodes() {
        for b in topo.nodes() {
            let served = mesh.path(a, b).ok();
            assert_eq!(served, fresh.path(a, b), "stale route {a}->{b} at {}", mesh.now());
        }
    }
}

fn t(secs: f64) -> SimTime {
    SimTime::from_secs_f64(secs)
}

fn fault_kinds(journal: &Journal) -> Vec<String> {
    journal
        .events_of_kind("fault_injected")
        .filter_map(|e| match e {
            bass::obs::Event::FaultInjected { kind, .. } => Some(kind.clone()),
            _ => None,
        })
        .collect()
}

// Schedule 1: a node hosting components crashes and later recovers.
#[test]
fn node_crash_and_recover_holds_invariants() {
    let plan = FaultPlan::new().node_crash(NodeId(1), t(20.0), t(80.0));
    let journal = checked_run(plan, 120);
    let kinds = fault_kinds(&journal);
    assert_eq!(kinds, ["node_crash", "node_recover"]);
    // The crash displaced work and the harness re-placed it.
    assert!(
        journal
            .events_of_kind("placement_decided")
            .any(|e| matches!(
                e,
                bass::obs::Event::PlacementDecided { policy, .. } if policy == "fault-recovery"
            )),
        "expected a fault-recovery placement"
    );
}

// Schedule 2: a link flaps down/up repeatedly.
#[test]
fn link_flaps_hold_invariants() {
    let plan = FaultPlan::new().link_flap(
        NodeId(0),
        NodeId(1),
        t(15.0),
        SimDuration::from_secs(10),
        SimDuration::from_secs(20),
        4,
    );
    let journal = checked_run(plan, 180);
    let kinds = fault_kinds(&journal);
    assert_eq!(kinds.iter().filter(|k| *k == "link_down").count(), 4);
    assert_eq!(kinds.iter().filter(|k| *k == "link_up").count(), 4);
}

// Schedule 3: a heavy probe-loss episode while probing continues.
#[test]
fn probe_loss_episode_holds_invariants() {
    let plan = FaultPlan::new().with_seed(99).probe_loss(0.7, t(5.0), t(90.0));
    let journal = checked_run(plan, 120);
    let kinds = fault_kinds(&journal);
    assert_eq!(kinds, ["probe_loss_start", "probe_loss_stop"]);
}

// Schedule 4: a stale trace feed composed with a controller restart.
#[test]
fn stale_trace_and_controller_restart_hold_invariants() {
    let plan = FaultPlan::new()
        .stale_trace(NodeId(0), NodeId(2), t(10.0), t(60.0))
        .controller_restart(t(30.0));
    let journal = checked_run(plan, 90);
    let kinds = fault_kinds(&journal);
    assert_eq!(
        kinds,
        ["stale_trace_start", "controller_restart", "stale_trace_stop"]
    );
}

// Schedule 5: a seeded Poisson storm composing crashes, link flaps, and
// probe-loss episodes, with explicit controller restarts layered on top.
fn storm_plan() -> FaultPlan {
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
    FaultPlan::poisson(0xBA55, SimDuration::from_secs(300), &profile)
        .controller_restart(t(77.0))
        .controller_restart(t(191.0))
}

#[test]
fn composed_fault_storm_holds_invariants() {
    let journal = checked_run(storm_plan(), 300);
    let kinds = fault_kinds(&journal);
    // The storm actually exercised all three Poisson categories plus the
    // explicit restarts; a quiet run would make this test vacuous.
    for expected in ["node_crash", "link_down", "probe_loss_start", "controller_restart"] {
        assert!(
            kinds.iter().any(|k| k == expected),
            "storm never injected {expected}: {kinds:?}"
        );
    }
}

// Determinism: the same plan (same seed) replays the identical run —
// every journaled event, byte for byte.
#[test]
fn same_seed_replays_bit_for_bit() {
    let a = checked_run(storm_plan(), 300).export_jsonl();
    let b = checked_run(storm_plan(), 300).export_jsonl();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same fault plan must replay identically");
}

// The composed fault storm replayed by production is byte-identical —
// every journaled event — to the rebuilt reference, which re-derives the
// mesh, the cluster's sums and the edge bindings before every tick. The
// storm exercises crashes, flaps, probe loss, and controller restarts,
// so this pins the whole control loop, not just the allocator.
#[test]
fn storm_replay_matches_the_rebuilt_reference() {
    let reference = checked_run_with(storm_plan(), 300, true).export_jsonl();
    let production = checked_run(storm_plan(), 300).export_jsonl();
    assert!(!reference.is_empty());
    assert_eq!(
        reference, production,
        "production must replay the storm byte-identically to the rebuilt reference"
    );
}

// A different seed produces a different storm (the schedule really is
// seed-derived, not constant).
#[test]
fn different_seed_changes_the_storm() {
    let profile = StormProfile {
        node_crash_rate: 1.0 / 60.0,
        nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
        ..Default::default()
    };
    let horizon = SimDuration::from_secs(600);
    let a = FaultPlan::poisson(1, horizon, &profile);
    let b = FaultPlan::poisson(2, horizon, &profile);
    assert_ne!(a.events(), b.events());
}
