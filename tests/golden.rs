//! Golden-trace regression test: a fig13-style squeeze scenario with a
//! fixed seed, whose key Recorder series are snapshotted under
//! `tests/golden/`. Catches silent behaviour drift in future PRs.
//!
//! To regenerate the snapshot after an *intentional* behaviour change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden
//! ```

mod snapshot;
mod support;

use bass::appdag::catalog;
use bass::apps::testbeds::lan_testbed;
use bass::apps::{ArrivalProcess, SocialNetWorkload};
use bass::core::migration::MigrationConfig;
use bass::core::{ControllerConfig, PlacementPolicy, PolicyKind};
use bass::emu::{Recorder, Scenario, SimEnv, SimEnvConfig};
use bass::mesh::NodeId;
use bass::netmon::NetMonitorConfig;
use bass::scenario::{CampaignOptions, ScenarioSpec};
use bass::util::rng::SimRng;
use bass::util::time::{SimDuration, SimTime};
use bass::util::units::Bandwidth;
use serde_json::Value;

const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig13_social_squeeze.json");

const GOLDEN_CAMPAIGN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/campaign_20node.json");

/// Fig. 13's shape: a social network at 400 RPS on three LAN nodes,
/// with two of the three nodes' egress throttled to 25 Mbps for 150
/// seconds. Fixed seed 13; bit-for-bit deterministic.
fn run_scenario() -> String {
    run_scenario_in(false)
}

/// `ticked` drives the workload by hand — `SocialNetWorkload::tick`,
/// then ten 100 ms ticks of the rebuilt reference (`support::ticked`)
/// per second — instead of `SocialNetWorkload::run`, whose `run_for`
/// skips quiescent ticks.
fn run_scenario_in(ticked: bool) -> String {
    let (mesh, cluster) = lan_testbed(3, 16);
    // The paper's fig13 knobs: 30 s monitoring interval, 0.5 goodput
    // threshold, utilization trigger on.
    let cfg = SimEnvConfig {
        policy: PlacementPolicy::LongestPath,
        controller: ControllerConfig {
            migration: MigrationConfig {
                goodput_threshold: 0.5,
                utilization_threshold: 0.65,
            },
            cooldown: SimDuration::from_secs(30),
        },
        netmon: NetMonitorConfig {
            headroom_fraction: 0.2,
            probe_interval: SimDuration::from_secs(30),
        },
        ..Default::default()
    };
    let mut env = SimEnv::new(mesh, cluster, catalog::social_network(400.0), cfg);
    env.deploy(&[]).expect("deploys");
    let t0 = 10u64;
    let t1 = 160u64;
    let squeeze = Bandwidth::from_mbps(25.0);
    env.set_scenario(
        Scenario::new()
            .restrict_node_egress(NodeId(0), SimTime::from_secs(t0), SimTime::from_secs(t1), squeeze)
            .restrict_node_egress(NodeId(2), SimTime::from_secs(t0), SimTime::from_secs(t1), squeeze),
    );
    let dag = env.dag().clone();
    let mut wl = SocialNetWorkload::new(&dag, 400.0, ArrivalProcess::Constant, 13);
    let mut rec = Recorder::new();
    if ticked {
        for _ in 0..240 {
            wl.tick(&mut env, SimDuration::from_secs(1), &mut rec);
            support::ticked(&mut env, 10, |_| {});
        }
    } else {
        wl.run(&mut env, SimDuration::from_secs(240), &mut rec).expect("run completes");
    }

    // Snapshot: migration count, latency summary, the avg-latency
    // series (downsampled), and each DAG edge's final goodput share.
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"migrations\": {},\n", env.stats().migrations.len()));
    let p = rec.percentiles("latency_ms");
    out.push_str(&format!("  \"latency_p50_ms\": {},\n", p.median()));
    out.push_str(&format!("  \"latency_p99_ms\": {},\n", p.p99()));
    let series: Vec<(f64, f64)> = rec
        .series("avg_latency_ms")
        .iter()
        .map(|(t, v)| (t.as_secs_f64(), v))
        .collect();
    let stride = (series.len() / 50).max(1);
    out.push_str("  \"avg_latency_ms\": [\n");
    let kept: Vec<String> = series
        .iter()
        .step_by(stride)
        .map(|(t, v)| format!("    [{t}, {v}]"))
        .collect();
    out.push_str(&kept.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str("  \"edge_goodput_fraction\": {\n");
    let shares: Vec<String> = dag
        .edges()
        .iter()
        .filter(|e| !e.bandwidth.is_zero())
        .map(|e| {
            let frac = env.edge_achieved(e.from, e.to).as_bps() / e.bandwidth.as_bps();
            format!("    \"{}->{}\": {}", e.from, e.to, frac)
        })
        .collect();
    out.push_str(&shares.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

#[test]
fn fig13_style_trace_matches_golden_snapshot() {
    snapshot::assert_or_update_golden(GOLDEN_PATH, &run_scenario(), "fig13 trace");
}

/// The 20-node reference campaign (`ScenarioSpec::small_reference`,
/// shortened to a test-sized horizon): churn, fades, a mild fault
/// storm, two replicas. The full summary JSON is the snapshot.
fn campaign_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::small_reference();
    spec.horizon_ticks = 300;
    spec
}

fn run_campaign_snapshot() -> String {
    let opts = CampaignOptions { jobs: 2, ..CampaignOptions::default() };
    let run = bass::scenario::run_campaign(&campaign_spec(), 20, &opts);
    run.expect("reference campaign runs").summary.to_json()
}

#[test]
fn campaign_20node_matches_golden_snapshot() {
    snapshot::assert_or_update_golden(GOLDEN_CAMPAIGN_PATH, &run_campaign_snapshot(), "campaign");
}

/// The goldens were recorded under ticked stepping, so they are the
/// frozen reference for the skipping ("event-driven") loop the snapshot
/// tests above now run by default. This arm pins the other side: the
/// live ticked reference must still replay the *same* golden bytes and
/// match production exactly — no separate snapshot exists, and
/// `GOLDEN_UPDATE` deliberately never writes from this arm.
#[test]
fn fig13_event_driven_replays_the_same_golden() {
    let ticked = run_scenario_in(true);
    assert_eq!(
        run_scenario(),
        ticked,
        "the default fig13 run must be byte-identical to the ticked reference"
    );
    if std::env::var("GOLDEN_UPDATE").is_err() {
        // The production arm owns regeneration.
        snapshot::assert_matches_golden(GOLDEN_PATH, &ticked, "ticked fig13");
    }
}

/// The same two-sided check for the 20-node campaign snapshot: each
/// replica samples the same bits driven by hand on the rebuilt reference
/// (`support::drive_replica`) as off the timeline and skipping, and the
/// golden replica's counts and mean achieved bandwidth are its own.
#[test]
fn campaign_20node_event_driven_replays_the_same_golden() {
    let spec = campaign_spec();
    // Replica seeds are forked the way `run_campaign` forks them.
    let mut root = SimRng::seed_from_u64(20);
    for k in 0..spec.replicas as usize {
        let seed = root.fork(100 + k as u64).next_u64();
        let (ticked, executed_ticked) =
            support::drive_replica(&spec, seed, PolicyKind::Bass);
        let (skipping, executed) = support::timeline_replica(&spec, seed, PolicyKind::Bass);
        assert_eq!(ticked, skipping, "replica {k} must not depend on quiet ticks");
        assert!(executed < executed_ticked, "replica {k} executed all {executed} ticks");
        if std::env::var("GOLDEN_UPDATE").is_ok() {
            continue; // the production arm owns regeneration
        }
        let golden_text =
            std::fs::read_to_string(GOLDEN_CAMPAIGN_PATH).expect("golden snapshot present");
        // Exact text: a parsed JSON number holds the 64-bit seed as an f64.
        assert!(golden_text.contains(&format!("\"seed\": {seed},")), "replica {k} seed");
        let golden: Value = serde_json::from_str(&golden_text).expect("golden parses");
        let r = &golden["replicas"][k];
        let achieved = ticked.samples.iter().fold(0.0, |sum, s| sum + f64::from_bits(s.1));
        let mean_achieved = achieved / ticked.samples.len() as f64;
        assert_eq!(r["mean_achieved_mbps"].as_f64(), Some(mean_achieved), "replica {k}");
        let counts = [ticked.admitted, ticked.rejected, ticked.migrations, ticked.unplaceable];
        let fields = ["apps_admitted", "apps_rejected", "migrations", "unplaceable"];
        for (field, count) in fields.into_iter().zip(counts) {
            assert_eq!(r[field].as_u64(), Some(count), "replica {k} {field}");
        }
    }
}

#[test]
fn golden_campaign_exercised_the_control_loop() {
    // Same tripwire idea as the fig13 snapshot: the campaign must keep
    // admitting apps and migrating under churn, or the snapshot guards
    // nothing.
    let golden_text =
        std::fs::read_to_string(GOLDEN_CAMPAIGN_PATH).expect("golden snapshot present");
    let golden: Value = serde_json::from_str(&golden_text).expect("golden parses");
    assert!(golden["aggregate"]["apps_admitted"].as_f64().expect("admissions") >= 2.0);
    assert!(golden["aggregate"]["goodput"]["samples"].as_f64().expect("samples") > 0.0);
}

#[test]
fn golden_scenario_migrated_under_the_squeeze() {
    // The snapshot is only a useful tripwire if the scenario actually
    // exercises the control loop; guard against it degenerating into a
    // quiet run.
    let golden_text = std::fs::read_to_string(GOLDEN_PATH).expect("golden snapshot present");
    let golden: Value = serde_json::from_str(&golden_text).expect("golden parses");
    assert!(golden["migrations"].as_f64().expect("migration count") >= 1.0);
}
