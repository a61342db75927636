//! Golden-trace regression test: a fig13-style squeeze scenario with a
//! fixed seed, whose key Recorder series are snapshotted under
//! `tests/golden/`. Catches silent behaviour drift in future PRs.
//!
//! To regenerate the snapshot after an *intentional* behaviour change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden
//! ```

use bass::appdag::catalog;
use bass::apps::testbeds::lan_testbed;
use bass::apps::{ArrivalProcess, SocialNetWorkload};
use bass::core::migration::MigrationConfig;
use bass::core::{ControllerConfig, PlacementPolicy};
use bass::emu::{Recorder, Scenario, SimEnv, SimEnvConfig};
use bass::mesh::NodeId;
use bass::netmon::NetMonitorConfig;
use bass::util::time::{SimDuration, SimTime};
use bass::util::units::Bandwidth;
use serde_json::Value;

const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig13_social_squeeze.json");

const GOLDEN_CAMPAIGN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/campaign_20node.json");

/// Relative tolerance for float comparisons: tight enough to catch real
/// behaviour drift, loose enough to survive benign reassociation of
/// float arithmetic in refactors.
const REL_TOL: f64 = 1e-6;

/// Fig. 13's shape: a social network at 400 RPS on three LAN nodes,
/// with two of the three nodes' egress throttled to 25 Mbps for 150
/// seconds. Fixed seed 13; bit-for-bit deterministic.
fn run_scenario() -> String {
    run_scenario_in(false)
}

/// `reference_stepping` switches the env to the ticked reference
/// (`SimEnv::use_reference_stepping`): every tick executes in full.
fn run_scenario_in(reference_stepping: bool) -> String {
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
    if reference_stepping {
        env.use_reference_stepping();
    }
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
    wl.run(&mut env, SimDuration::from_secs(240), &mut rec).expect("run completes");

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

/// Recursively compares two parsed JSON values with a relative
/// tolerance on numbers, reporting the path of the first mismatch.
fn compare(path: &str, golden: &Value, got: &Value, diffs: &mut Vec<String>) {
    match (golden.as_f64(), got.as_f64()) {
        (Some(a), Some(b)) => {
            let scale = a.abs().max(b.abs()).max(1e-12);
            if (a - b).abs() > REL_TOL * scale {
                diffs.push(format!("{path}: golden {a} vs got {b}"));
            }
            return;
        }
        (None, None) => {}
        _ => {
            diffs.push(format!("{path}: type changed"));
            return;
        }
    }
    match (golden.as_object(), got.as_object()) {
        (Some(a), Some(b)) => {
            if a.len() != b.len() {
                diffs.push(format!("{path}: {} keys vs {}", a.len(), b.len()));
                return;
            }
            for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
                if ka != kb {
                    diffs.push(format!("{path}: key {ka:?} vs {kb:?}"));
                    return;
                }
                compare(&format!("{path}.{ka}"), va, vb, diffs);
            }
            return;
        }
        (None, None) => {}
        _ => {
            diffs.push(format!("{path}: type changed"));
            return;
        }
    }
    match (golden.as_array(), got.as_array()) {
        (Some(a), Some(b)) => {
            if a.len() != b.len() {
                diffs.push(format!("{path}: {} elements vs {}", a.len(), b.len()));
                return;
            }
            for (i, (va, vb)) in a.iter().zip(b.iter()).enumerate() {
                compare(&format!("{path}[{i}]"), va, vb, diffs);
            }
        }
        _ => {
            if golden != got {
                diffs.push(format!("{path}: golden {golden:?} vs got {got:?}"));
            }
        }
    }
}

#[test]
fn fig13_style_trace_matches_golden_snapshot() {
    let current = run_scenario();
    if std::env::var("GOLDEN_UPDATE").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap())
            .expect("mkdir tests/golden");
        std::fs::write(GOLDEN_PATH, &current).expect("write golden snapshot");
        eprintln!("golden snapshot regenerated at {GOLDEN_PATH}");
        return;
    }
    let golden_text = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("missing golden snapshot {GOLDEN_PATH} ({e}); run GOLDEN_UPDATE=1 cargo test --test golden")
    });
    let golden: Value = serde_json::from_str(&golden_text).expect("golden parses");
    let got: Value = serde_json::from_str(&current).expect("snapshot parses");
    let mut diffs = Vec::new();
    compare("$", &golden, &got, &mut diffs);
    assert!(
        diffs.is_empty(),
        "trace drifted from golden snapshot (if intentional, regenerate with \
         GOLDEN_UPDATE=1 cargo test --test golden):\n{}",
        diffs.join("\n")
    );
}

/// The 20-node reference campaign (`ScenarioSpec::small_reference`,
/// shortened to a test-sized horizon): churn, fades, a mild fault
/// storm, two replicas. The full summary JSON is the snapshot.
fn run_campaign_snapshot() -> String {
    run_campaign_snapshot_in(false)
}

fn run_campaign_snapshot_in(reference_stepping: bool) -> String {
    let mut spec = bass::scenario::ScenarioSpec::small_reference();
    spec.horizon_ticks = 300;
    let opts =
        bass::scenario::CampaignOptions { jobs: 2, ..bass::scenario::CampaignOptions::default() };
    let run = if reference_stepping {
        bass::scenario::run_campaign_reference(&spec, 20, &opts)
    } else {
        bass::scenario::run_campaign_opts(&spec, 20, &opts)
    };
    run.expect("reference campaign runs").summary.to_json()
}

#[test]
fn campaign_20node_matches_golden_snapshot() {
    let current = run_campaign_snapshot();
    if std::env::var("GOLDEN_UPDATE").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_CAMPAIGN_PATH).parent().unwrap())
            .expect("mkdir tests/golden");
        std::fs::write(GOLDEN_CAMPAIGN_PATH, &current).expect("write golden snapshot");
        eprintln!("golden snapshot regenerated at {GOLDEN_CAMPAIGN_PATH}");
        return;
    }
    let golden_text = std::fs::read_to_string(GOLDEN_CAMPAIGN_PATH).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {GOLDEN_CAMPAIGN_PATH} ({e}); run GOLDEN_UPDATE=1 \
             cargo test --test golden"
        )
    });
    let golden: Value = serde_json::from_str(&golden_text).expect("golden parses");
    let got: Value = serde_json::from_str(&current).expect("snapshot parses");
    let mut diffs = Vec::new();
    compare("$", &golden, &got, &mut diffs);
    assert!(
        diffs.is_empty(),
        "campaign drifted from golden snapshot (if intentional, regenerate with \
         GOLDEN_UPDATE=1 cargo test --test golden):\n{}",
        diffs.join("\n")
    );
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
    if std::env::var("GOLDEN_UPDATE").is_ok() {
        return; // the production arm owns regeneration
    }
    let golden_text = std::fs::read_to_string(GOLDEN_PATH).expect("golden snapshot present");
    let golden: Value = serde_json::from_str(&golden_text).expect("golden parses");
    let got: Value = serde_json::from_str(&ticked).expect("snapshot parses");
    let mut diffs = Vec::new();
    compare("$", &golden, &got, &mut diffs);
    assert!(diffs.is_empty(), "ticked fig13 drifted from golden:\n{}", diffs.join("\n"));
}

/// The same two-sided check for the 20-node campaign snapshot — same
/// golden file, bit-for-bit.
#[test]
fn campaign_20node_event_driven_replays_the_same_golden() {
    let ticked = run_campaign_snapshot_in(true);
    assert_eq!(
        run_campaign_snapshot(),
        ticked,
        "the default campaign must be byte-identical to the ticked reference"
    );
    if std::env::var("GOLDEN_UPDATE").is_ok() {
        return; // the production arm owns regeneration
    }
    let golden_text =
        std::fs::read_to_string(GOLDEN_CAMPAIGN_PATH).expect("golden snapshot present");
    let golden: Value = serde_json::from_str(&golden_text).expect("golden parses");
    let got: Value = serde_json::from_str(&ticked).expect("snapshot parses");
    let mut diffs = Vec::new();
    compare("$", &golden, &got, &mut diffs);
    assert!(diffs.is_empty(), "ticked campaign drifted from golden:\n{}", diffs.join("\n"));
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
