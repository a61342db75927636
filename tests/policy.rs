//! Scheduler-policy battery: refactor equivalence, conformance, and the
//! arena (see `docs/POLICIES.md`).
//!
//! Three layers of guarantees:
//!
//! 1. **Refactor equivalence** — the trait-based BASS policy
//!    (`PolicyKind::Bass`, the default) must replay the *pre-trait*
//!    golden snapshots under `tests/golden/` bit-for-bit: the fig13
//!    squeeze trace, the 20-node reference campaign, and a composed
//!    fault storm's journal. The goldens themselves never move.
//! 2. **Policy conformance** — every registered `PolicyKind` keeps
//!    cluster invariants under a fault storm, never migrates a
//!    component onto a node it came from, and replays the same seed
//!    bit-for-bit.
//! 3. **Arena determinism** — `run_arena` tables are byte-identical
//!    for any `--jobs` value and either step mode, and snapshotted
//!    under `tests/golden/`.
//!
//! Like the campaign battery, the stepping strategy follows
//! `BASS_TEST_STEP_MODE`, so CI runs the whole file once per step mode.
//! Regenerate the arena snapshot after an *intentional* change with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test policy
//! ```

use bass::appdag::catalog;
use bass::apps::testbeds::{citylab_testbed, lan_testbed};
use bass::apps::{ArrivalProcess, SocialNetWorkload};
use bass::core::migration::MigrationConfig;
use bass::core::{ControllerConfig, PlacementPolicy, PolicyKind, StepMode};
use bass::emu::{Recorder, Scenario, SimEnv, SimEnvConfig};
use bass::faults::{FaultPlan, StormProfile};
use bass::mesh::NodeId;
use bass::netmon::NetMonitorConfig;
use bass::obs::Journal;
use bass::scenario::{run_arena, run_campaign_opts, ArenaOptions, CampaignOptions, ScenarioSpec};
use bass::util::time::{SimDuration, SimTime};
use bass::util::units::Bandwidth;
use proptest::prelude::*;
use serde_json::Value;

const GOLDEN_FIG13: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig13_social_squeeze.json");
const GOLDEN_CAMPAIGN: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/campaign_20node.json");
const GOLDEN_ARENA: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/arena_20node.json");

/// Same tolerance story as `tests/golden.rs`: tight enough to catch
/// behaviour drift, loose enough for benign float reassociation.
const REL_TOL: f64 = 1e-6;

/// The stepping strategy CI selects via `BASS_TEST_STEP_MODE`;
/// defaults to executing every tick.
fn step_mode_under_test() -> StepMode {
    match std::env::var("BASS_TEST_STEP_MODE") {
        Ok(name) => StepMode::parse(&name).expect("CI passes a valid step mode"),
        Err(_) => StepMode::Ticked,
    }
}

/// Recursively compares two parsed JSON values with a relative
/// tolerance on numbers, reporting the path of the first mismatch
/// (the `tests/golden.rs` comparator).
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

fn assert_matches_golden(golden_path: &str, current: &str, what: &str) {
    let golden_text = std::fs::read_to_string(golden_path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {golden_path} ({e}); run GOLDEN_UPDATE=1 cargo test")
    });
    let golden: Value = serde_json::from_str(&golden_text).expect("golden parses");
    let got: Value = serde_json::from_str(current).expect("snapshot parses");
    let mut diffs = Vec::new();
    compare("$", &golden, &got, &mut diffs);
    assert!(
        diffs.is_empty(),
        "{what} drifted from golden snapshot {golden_path}:\n{}",
        diffs.join("\n")
    );
}

// ---------------------------------------------------------------------
// 1. Refactor equivalence: trait-based BASS replays the pre-trait
//    goldens, which this PR deliberately did not regenerate.
// ---------------------------------------------------------------------

/// The fig13 squeeze scenario from `tests/golden.rs`, with the
/// migration policy and step mode threaded explicitly so the
/// trait-dispatch path is the one under test.
fn fig13_snapshot(policy: PolicyKind, step_mode: StepMode) -> String {
    let (mesh, cluster) = lan_testbed(3, 16);
    let cfg = SimEnvConfig {
        step_mode,
        migration_policy: policy,
        policy: PlacementPolicy::LongestPath,
        controller: ControllerConfig {
            migration: MigrationConfig {
                goodput_threshold: 0.5,
                utilization_threshold: 0.65,
                headroom_fraction: 0.2,
                use_utilization_trigger: true,
                use_degradation_trigger: true,
            },
            cooldown: SimDuration::from_secs(30),
            full_probe_on_headroom_drop: true,
            best_effort_targets: true,
            verify_score_cache: false,
        },
        netmon: NetMonitorConfig {
            headroom_fraction: 0.2,
            probe_interval: SimDuration::from_secs(30),
            ..NetMonitorConfig::default()
        },
        ..Default::default()
    };
    let mut env = SimEnv::new(mesh, cluster, catalog::social_network(400.0), cfg);
    env.deploy(&[]).expect("deploys");
    let squeeze = Bandwidth::from_mbps(25.0);
    env.set_scenario(
        Scenario::new()
            .restrict_node_egress(NodeId(0), SimTime::from_secs(10), SimTime::from_secs(160), squeeze)
            .restrict_node_egress(NodeId(2), SimTime::from_secs(10), SimTime::from_secs(160), squeeze),
    );
    let dag = env.dag().clone();
    let mut wl = SocialNetWorkload::new(&dag, 400.0, ArrivalProcess::Constant, 13);
    let mut rec = Recorder::new();
    wl.run(&mut env, SimDuration::from_secs(240), &mut rec).expect("run completes");

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
fn fig13_trait_policy_replays_the_golden_snapshot() {
    // The snapshot was written before the SchedulerPolicy trait
    // existed; the explicit PolicyKind::Bass arm must reproduce it in
    // either step mode.
    let current = fig13_snapshot(PolicyKind::Bass, step_mode_under_test());
    assert_matches_golden(GOLDEN_FIG13, &current, "trait-based fig13 replay");
}

/// The 20-node reference campaign from `tests/golden.rs`, with the
/// policy threaded explicitly.
fn campaign_snapshot(policy: PolicyKind, step_mode: StepMode) -> String {
    let mut spec = ScenarioSpec::small_reference();
    spec.horizon_ticks = 300;
    let opts = CampaignOptions { jobs: 2, step_mode, policy, ..CampaignOptions::default() };
    run_campaign_opts(&spec, 20, &opts).expect("reference campaign runs").summary.to_json()
}

#[test]
fn campaign_20node_trait_policy_replays_the_golden_snapshot() {
    // Byte-for-byte against the golden, in whichever step mode CI's
    // matrix selects.
    let current = campaign_snapshot(PolicyKind::Bass, step_mode_under_test());
    let golden = std::fs::read_to_string(GOLDEN_CAMPAIGN).expect("golden snapshot present");
    assert_eq!(
        current, golden,
        "trait-based BASS campaign must replay the pre-trait golden bytes"
    );
}

// ---------------------------------------------------------------------
// 2. Conformance: every registered policy, under a composed storm.
// ---------------------------------------------------------------------

/// The CityLab storm from `tests/event_driven.rs`.
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

/// Camera pipeline on the trace-driven CityLab testbed under `policy`;
/// returns the journal plus the migration log, asserting cluster
/// invariants on exit.
fn storm_run(
    policy: PolicyKind,
    mode: StepMode,
    seed: u64,
    stormy: bool,
    secs: u64,
) -> (String, Vec<(NodeId, NodeId)>) {
    let (mesh, cluster, _) = citylab_testbed(seed, SimDuration::from_secs(secs + 60));
    let cfg = SimEnvConfig {
        faults: if stormy { storm_plan(seed, secs) } else { FaultPlan::new() },
        step_mode: mode,
        migration_policy: policy,
        ..Default::default()
    };
    let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
    env.attach_journal(Journal::new());
    env.deploy(&[]).expect("deploys");
    env.run_for(SimDuration::from_secs(secs), |_| {}).expect("run completes");
    env.cluster().check_invariants().expect("cluster invariants hold");
    let journal = env.take_journal().expect("journal attached").export_jsonl();
    let moves = env.stats().migrations.iter().map(|m| (m.from, m.to)).collect();
    (journal, moves)
}

#[test]
fn bass_policy_storm_journal_is_step_mode_independent_and_matches_the_default() {
    // The default-constructed environment (no explicit policy) is the
    // exact pre-trait configuration; the explicit Bass arm and both
    // step modes must all journal identical bytes.
    let explicit = storm_run(PolicyKind::Bass, StepMode::Ticked, 0xF16, true, 120).0;
    let (mesh, cluster, _) = citylab_testbed(0xF16, SimDuration::from_secs(180));
    let cfg = SimEnvConfig { faults: storm_plan(0xF16, 120), ..Default::default() };
    let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
    env.attach_journal(Journal::new());
    env.deploy(&[]).expect("deploys");
    env.run_for(SimDuration::from_secs(120), |_| {}).expect("run completes");
    let default_built = env.take_journal().expect("journal attached").export_jsonl();
    assert_eq!(explicit, default_built, "explicit Bass must equal the default construction");

    let event = storm_run(PolicyKind::Bass, StepMode::EventDriven, 0xF16, true, 120).0;
    assert_eq!(explicit, event, "storm journal must not depend on step mode");
}

proptest! {
    // Each case runs a full simulation twice; keep the count modest
    // (CI also runs this file once per step mode).
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Conformance, for every registered policy: same-seed runs are
    /// bit-identical, the cluster's capacity/placement invariants hold
    /// after a composed fault storm, and no migration is a no-op.
    #[test]
    fn every_policy_is_deterministic_and_respects_the_cluster(
        which in 0usize..PolicyKind::all().len(),
        seed in 0u64..u64::MAX / 2,
        stormy in any::<bool>(),
    ) {
        let policy = PolicyKind::all()[which];
        let mode = step_mode_under_test();
        let (j1, moves) = storm_run(policy, mode, seed, stormy, 90);
        let (j2, _) = storm_run(policy, mode, seed, stormy, 90);
        prop_assert_eq!(j1, j2, "same-seed replay must be bit-identical ({})", policy.name());
        for (from, to) in moves {
            prop_assert_ne!(from, to, "{} migrated a component onto itself", policy.name());
        }
    }
}

// ---------------------------------------------------------------------
// 3. The arena: jobs-independence, step-mode independence, golden.
// ---------------------------------------------------------------------

/// The golden arena: bass vs random vs spread over the shortened
/// 20-node reference scenario — the same corpus shape the CI smoke
/// gate uses.
fn arena_table(jobs: usize, step_mode: StepMode) -> String {
    let mut spec = ScenarioSpec::small_reference();
    spec.horizon_ticks = 300;
    let opts = ArenaOptions {
        policies: vec![
            PolicyKind::Bass,
            PolicyKind::Random(bass::core::policy::RANDOM_POLICY_SEED),
            PolicyKind::Spread,
        ],
        campaign: CampaignOptions { jobs, step_mode, ..CampaignOptions::default() },
    };
    run_arena(&[spec], 20, &opts).expect("arena runs").table.to_json()
}

#[test]
fn arena_table_bytes_are_jobs_independent() {
    assert_eq!(
        arena_table(1, step_mode_under_test()),
        arena_table(4, step_mode_under_test()),
        "arena table must be byte-identical for any --jobs value"
    );
}

#[test]
fn arena_table_is_step_mode_independent() {
    assert_eq!(
        arena_table(2, StepMode::Ticked),
        arena_table(2, StepMode::EventDriven),
        "arena rows/ranking must not depend on step mode"
    );
}

#[test]
fn arena_20node_matches_golden_snapshot() {
    let current = arena_table(2, StepMode::Ticked);
    if std::env::var("GOLDEN_UPDATE").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_ARENA).parent().unwrap())
            .expect("mkdir tests/golden");
        std::fs::write(GOLDEN_ARENA, &current).expect("write golden snapshot");
        eprintln!("golden snapshot regenerated at {GOLDEN_ARENA}");
        return;
    }
    assert_matches_golden(GOLDEN_ARENA, &current, "arena tournament");
}

#[test]
fn golden_arena_ranked_bass_first() {
    // The tripwire that makes the snapshot worth keeping: the paper's
    // controller must beat the baselines it was compared against, and
    // random placement must not win a bandwidth-aware tournament.
    let golden_text = std::fs::read_to_string(GOLDEN_ARENA).expect("golden snapshot present");
    let golden: Value = serde_json::from_str(&golden_text).expect("golden parses");
    let ranking = golden["ranking"].as_array().expect("ranking present");
    assert_eq!(ranking[0]["policy"].as_str(), Some("bass"), "bass must rank first");
    let bass_gp = ranking[0]["mean_goodput"].as_f64().expect("goodput");
    let random_gp = ranking
        .iter()
        .find(|s| s["policy"].as_str() == Some("random"))
        .and_then(|s| s["mean_goodput"].as_f64())
        .expect("random competed");
    assert!(bass_gp > random_gp, "bass ({bass_gp}) must beat random ({random_gp})");
}
