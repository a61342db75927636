//! Scheduler-policy battery: refactor equivalence, conformance, and the
//! arena (see `docs/POLICIES.md`).
//!
//! Three layers of guarantees:
//!
//! 1. **Refactor equivalence** — the registry's BASS policy
//!    (`PolicyKind::Bass`, the default) must replay the golden
//!    snapshots written before policies were pluggable under `tests/golden/` bit-for-bit: the fig13
//!    squeeze trace, the 20-node reference campaign, and a composed
//!    fault storm's journal. The goldens themselves never move.
//! 2. **Policy conformance** — every registered `PolicyKind` keeps
//!    cluster invariants under a fault storm, never migrates a
//!    component onto a node it came from, replays the same seed
//!    bit-for-bit, and makes the migration decisions snapshotted in
//!    `tests/golden/policy_storm_decisions.json`.
//! 3. **Arena determinism** — `run_arena` tables are byte-identical
//!    for any `--jobs` value, every campaign underneath them matches
//!    the ticked rebuilt reference, and the table is snapshotted under
//!    `tests/golden/`.
//!
//! Regenerate the arena and storm-decision snapshots after an
//! *intentional* change with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test policy
//! ```

mod snapshot;
mod support;

use bass::appdag::catalog;
use bass::cluster::MigrationRecord;
use bass::apps::testbeds::{citylab_testbed, lan_testbed};
use bass::apps::{ArrivalProcess, SocialNetWorkload};
use bass::core::migration::MigrationConfig;
use bass::core::{ControllerConfig, PlacementPolicy, PolicyKind};
use bass::emu::{Recorder, Scenario, SimEnv, SimEnvConfig};
use bass::faults::{FaultPlan, StormProfile};
use bass::mesh::NodeId;
use bass::netmon::NetMonitorConfig;
use bass::obs::Journal;
use bass::scenario::{run_arena, run_campaign, ArenaOptions, CampaignOptions, ScenarioSpec};
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
const GOLDEN_STORM: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/policy_storm_decisions.json");

// ---------------------------------------------------------------------
// 1. Refactor equivalence: the BASS policy replays the goldens written
//    before policies were pluggable, which are never regenerated.
// ---------------------------------------------------------------------

/// The fig13 squeeze scenario from `tests/golden.rs`, with the
/// migration policy threaded explicitly so the registry's dispatch is
/// the one under test.
fn fig13_snapshot(policy: PolicyKind) -> String {
    let (mesh, cluster) = lan_testbed(3, 16);
    let cfg = SimEnvConfig {
        migration_policy: policy,
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
    // The snapshot was written before policies were pluggable; the
    // explicit PolicyKind::Bass arm must reproduce it.
    let current = fig13_snapshot(PolicyKind::Bass);
    snapshot::assert_matches_golden(GOLDEN_FIG13, &current, "BASS-policy fig13 replay");
}

/// The 20-node reference campaign from `tests/golden.rs`, with the
/// policy threaded explicitly.
fn campaign_snapshot(policy: PolicyKind) -> String {
    let mut spec = ScenarioSpec::small_reference();
    spec.horizon_ticks = 300;
    let opts = CampaignOptions { jobs: 2, policy, ..CampaignOptions::default() };
    run_campaign(&spec, 20, &opts).expect("reference campaign runs").summary.to_json()
}

#[test]
fn campaign_20node_trait_policy_replays_the_golden_snapshot() {
    // Byte-for-byte against the golden.
    let current = campaign_snapshot(PolicyKind::Bass);
    let golden = std::fs::read_to_string(GOLDEN_CAMPAIGN).expect("golden snapshot present");
    assert_eq!(
        current, golden,
        "BASS-policy campaign must replay the golden bytes"
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
/// invariants on exit. `ticked` executes every 100 ms tick in full on
/// the rebuilt reference (`support::ticked`) instead of `run_for`.
fn storm_run(
    policy: PolicyKind,
    ticked: bool,
    seed: u64,
    stormy: bool,
    secs: u64,
) -> (String, Vec<MigrationRecord>) {
    let (mesh, cluster) = citylab_testbed(seed, SimDuration::from_secs(secs + 60));
    let cfg = SimEnvConfig {
        faults: if stormy { storm_plan(seed, secs) } else { FaultPlan::new() },
        migration_policy: policy,
        ..Default::default()
    };
    let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
    env.attach_journal(Journal::new());
    env.deploy(&[]).expect("deploys");
    if ticked {
        support::ticked(&mut env, secs * 10, |_| {});
    } else {
        env.run_for(SimDuration::from_secs(secs), support::check).expect("run completes");
    }
    env.cluster().check_invariants().expect("cluster invariants hold");
    let journal = env.take_journal().expect("journal attached").export_jsonl();
    (journal, env.stats().migrations.clone())
}

#[test]
fn bass_policy_storm_journal_matches_the_default_and_the_ticked_reference() {
    // The default-constructed environment (no explicit policy) is the
    // paper's configuration; the explicit Bass arm, ticked and
    // skipping, must journal identical bytes.
    let explicit = storm_run(PolicyKind::Bass, true, 0xF16, true, 120).0;
    let (mesh, cluster) = citylab_testbed(0xF16, SimDuration::from_secs(180));
    let cfg = SimEnvConfig { faults: storm_plan(0xF16, 120), ..Default::default() };
    let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
    env.attach_journal(Journal::new());
    env.deploy(&[]).expect("deploys");
    env.run_for(SimDuration::from_secs(120), support::check).expect("run completes");
    let default_built = env.take_journal().expect("journal attached").export_jsonl();
    assert_eq!(explicit, default_built, "explicit Bass must equal the default construction");

    let skipping = storm_run(PolicyKind::Bass, false, 0xF16, true, 120).0;
    assert_eq!(explicit, skipping, "storm journal must not depend on quiet ticks");
}

/// The `t_s` of every headroom `ProbeCompleted` in a JSONL journal.
fn headroom_probe_times(journal: &str) -> Vec<f64> {
    let probe = |line: &str| {
        let event: Value = serde_json::from_str(line).expect("journal lines are JSON");
        let probe = event.get("ProbeCompleted")?;
        (probe["kind"].as_str() == Some("Headroom"))
            .then(|| probe["t_s"].as_f64().expect("t_s is a number"))
    };
    journal.lines().filter_map(probe).collect()
}

/// The six policies' decisions, pinned (docs/ARCHITECTURE.md § The
/// scorer): for every registered policy, the storm run's migration
/// sequence `[t_s, component, from, to]` and journal size replay the
/// snapshot; every entrant must migrate at least once. No decision
/// moves a headroom probe: all six probe at the same instants (full
/// probes escalate from what each placement's links show, so those
/// may differ).
#[test]
fn every_policy_storm_decisions_match_golden() {
    let mut policies = Vec::new();
    let mut probe_times = Vec::new();
    for policy in PolicyKind::all() {
        let (journal, moves) = storm_run(policy, false, 0xF16, true, 240);
        assert!(!moves.is_empty(), "the storm must make {} choose a target", policy.name());
        probe_times.push((policy, headroom_probe_times(&journal)));
        let moves: Vec<String> = moves
            .iter()
            .map(|m| {
                format!("[{}, {}, {}, {}]", m.at.as_secs_f64(), m.component.0, m.from.0, m.to.0)
            })
            .collect();
        policies.push(format!(
            "  \"{}\": {{\n    \"journal_events\": {},\n    \"migrations\": [{}]\n  }}",
            policy.name(),
            journal.lines().count(),
            moves.join(", ")
        ));
    }
    let current = format!("{{\n{}\n}}\n", policies.join(",\n"));
    snapshot::assert_or_update_golden(GOLDEN_STORM, &current, "six-policy storm decisions");
    let (_, bass) = &probe_times[0];
    assert!(bass.len() >= 8, "240 s holds at least eight 30 s epochs: {bass:?}");
    for (policy, times) in &probe_times[1..] {
        assert_eq!(times, bass, "{} probes at other instants than bass", policy.name());
    }
}

proptest! {
    // Each case runs a full simulation twice; keep the count modest.
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
        let (j1, moves) = storm_run(policy, false, seed, stormy, 90);
        let (j2, _) = storm_run(policy, false, seed, stormy, 90);
        prop_assert_eq!(j1, j2, "same-seed replay must be bit-identical ({})", policy.name());
        for m in moves {
            prop_assert_ne!(m.from, m.to, "{} migrated a component onto itself", policy.name());
        }
    }
}

// ---------------------------------------------------------------------
// 3. The arena: jobs-independence, stepping reference, golden.
// ---------------------------------------------------------------------

/// The golden arena's corpus and entrants: bass vs random vs spread
/// over the shortened 20-node reference scenario — the same corpus
/// shape the CI smoke gate uses.
fn arena_entry() -> (ScenarioSpec, Vec<PolicyKind>) {
    let mut spec = ScenarioSpec::small_reference();
    spec.horizon_ticks = 300;
    let policies = vec![
        PolicyKind::Bass,
        PolicyKind::Random,
        PolicyKind::Spread,
    ];
    (spec, policies)
}

fn arena_table(jobs: usize) -> String {
    let (spec, policies) = arena_entry();
    let opts = ArenaOptions { policies, jobs, ..ArenaOptions::default() };
    run_arena(&[spec], 20, &opts).expect("arena runs").table.to_json()
}

#[test]
fn arena_table_bytes_are_jobs_independent() {
    assert_eq!(
        arena_table(1),
        arena_table(4),
        "arena table must be byte-identical for any --jobs value"
    );
}

/// The arena table is a pure fold of its campaigns' summaries, so the
/// rows and ranking match the ticked reference iff every `(policy,
/// scenario)` campaign does. For all six policies, each replica samples
/// the same bits driven by hand on the rebuilt reference
/// (`support::drive_replica`) as off the timeline and skipping, and its
/// counts and mean achieved bandwidth are the campaign's.
#[test]
fn arena_campaigns_match_the_ticked_reference() {
    let (spec, _) = arena_entry();
    for policy in PolicyKind::all() {
        let opts = CampaignOptions { jobs: 2, policy, ..CampaignOptions::default() };
        let summary = run_campaign(&spec, 20, &opts).expect("campaign runs").summary;
        for r in &summary.replicas {
            let (ticked, executed_ticked) = support::drive_replica(&spec, r.seed, policy);
            let (skipping, executed) = support::timeline_replica(&spec, r.seed, policy);
            let name = policy.name();
            assert_eq!(ticked, skipping, "{name} replica must not depend on quiet ticks");
            assert!(executed < executed_ticked, "{name} executed all {executed} ticks");
            let achieved = ticked.samples.iter().fold(0.0, |sum, s| sum + f64::from_bits(s.1));
            assert_eq!(
                (ticked.admitted, ticked.rejected, ticked.migrations, ticked.unplaceable),
                (r.apps_admitted, r.apps_rejected, r.migrations, r.unplaceable),
                "{name} replica {} counts",
                r.replica
            );
            assert_eq!(achieved / ticked.samples.len() as f64, r.mean_achieved_mbps, "{name}");
        }
    }
}

/// Entrants share each `(spec, replica)` world but never see each
/// other's runs: over two specs with two replicas each, every arena row
/// equals, bit for bit, the campaign its policy runs alone on that spec.
#[test]
fn arena_rows_equal_each_policys_own_campaign() {
    let (first, _) = arena_entry();
    let mut second = ScenarioSpec::small_reference();
    second.name = "grid-reference".into();
    second.topology = bass::scenario::TopologySpec::Grid { width: 5, height: 4 };
    second.horizon_ticks = 200;
    let corpus = [first, second];
    let policies = vec![PolicyKind::Bass, PolicyKind::K3sDefault, PolicyKind::Metronome];
    let opts = ArenaOptions { policies: policies.clone(), jobs: 2, ..ArenaOptions::default() };
    let table = run_arena(&corpus, 20, &opts).expect("arena runs").table;
    assert_eq!(table.rows.len(), 6);
    let pairs = policies.iter().flat_map(|&p| corpus.iter().map(move |spec| (p, spec)));
    for ((policy, spec), row) in pairs.zip(&table.rows) {
        assert_eq!(spec.replicas, 2);
        let opts = CampaignOptions { policy, ..CampaignOptions::default() };
        let agg = run_campaign(spec, 20, &opts).expect("campaign runs").summary.aggregate;
        assert_eq!((row.policy.as_str(), row.scenario.as_str()), (policy.name(), &*spec.name));
        let got = [row.mean_goodput, row.p50_goodput, row.p95_goodput, row.mean_achieved_mbps];
        let want = [agg.goodput.mean, agg.goodput.p50, agg.goodput.p95, agg.mean_achieved_mbps];
        let name = format!("{} on {}", row.policy, row.scenario);
        assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{name}");
        assert_eq!(
            (row.migrations, row.unplaceable, row.ticks),
            (agg.migrations, agg.unplaceable, agg.ticks),
            "{name}"
        );
    }
}

/// A migration whose target filled up before it was applied is refused
/// (`relocate failed`) and must leave the cluster's per-node sums as
/// they were. The arena corpus's first spread replica (campaign seed
/// 20) refuses eight; its production run checks the cluster's
/// invariants after every tick (`support::check`).
#[test]
fn refused_relocations_keep_the_cluster_sums() {
    let (spec, _) = arena_entry();
    let (replica, _) = support::timeline_replica(&spec, 8706079024333892246, PolicyKind::Spread);
    let refused = replica.journal.matches("relocate failed").count();
    assert!(refused > 0, "the replica must refuse a relocation to test its restore");
}

#[test]
fn arena_20node_matches_golden_snapshot() {
    snapshot::assert_or_update_golden(GOLDEN_ARENA, &arena_table(2), "arena tournament");
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
