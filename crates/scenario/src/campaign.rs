//! The streaming long-horizon campaign runner.
//!
//! A *campaign* executes every replica of a [`ScenarioSpec`]: each
//! replica's world is generated from its own seed, forked off the
//! campaign seed, and built once for every policy run on it (the arena's
//! entrants run on clones). Per-tick results fold into streaming
//! aggregates (fixed-bucket histograms and running sums), so a 100k-tick
//! horizon costs the same memory as a 100-tick one. Replicas shard across
//! worker threads through [`bass_util::pool::ordered_map`], as the
//! experiments runner's `--jobs` does, so the summary is byte-identical
//! whatever the thread count.
//!
//! Each replica's tick runs the six profiled phases of
//! `docs/ARCHITECTURE.md` (`tick.faults`, `tick.scenario`, `tick.demand`,
//! `tick.controller`, `tick.migrate`, `tick.finalize`). Per-replica seeds
//! are forked from the campaign seed (never shared), worker threads only
//! claim work and fill their own slot, and aggregation happens in replica
//! order after the barrier.

use crate::generate::{generate, AppKind};
use crate::spec::{ScenarioSpec, SpecError};
use bass_appdag::AppDag;
use bass_core::PolicyKind;
use bass_emu::{EnvError, SimEnv, SimEnvConfig};
use bass_mesh::MeshError;
use bass_obs::{Progress, ProgressLevel, SpanProfiler};
use bass_util::histogram::Histogram;
use bass_util::pool::ordered_map;
use bass_util::rng::SimRng;
use bass_util::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Goodput-fraction histogram layout: `[0, 1.2)` in 120 buckets (1%
/// resolution; fractions above 1.2 land in the overflow counter). Fixed
/// by code so merged replicas always share a layout.
fn goodput_histogram() -> Histogram {
    Histogram::new(0.0, 1.2, 120)
}

/// A campaign failed outright (distinct from individual admission
/// rejections, which are counted, not fatal).
#[derive(Debug)]
pub enum CampaignError {
    /// The spec failed validation.
    Spec(SpecError),
    /// Building the replica mesh failed.
    Mesh(MeshError),
    /// Deploying or stepping a replica environment failed.
    Env(EnvError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(e) => write!(f, "{e}"),
            CampaignError::Mesh(e) => write!(f, "campaign mesh construction failed: {e}"),
            CampaignError::Env(e) => write!(f, "campaign replica failed: {e}"),
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::Spec(e) => Some(e),
            CampaignError::Mesh(e) => Some(e),
            CampaignError::Env(e) => Some(e),
        }
    }
}

impl From<SpecError> for CampaignError {
    fn from(e: SpecError) -> Self {
        CampaignError::Spec(e)
    }
}

impl From<MeshError> for CampaignError {
    fn from(e: MeshError) -> Self {
        CampaignError::Mesh(e)
    }
}

impl From<EnvError> for CampaignError {
    fn from(e: EnvError) -> Self {
        CampaignError::Env(e)
    }
}

/// Streaming distribution summary: approximate quantiles plus the exact
/// mean, computed without retaining samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileSummary {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Exact mean of all samples.
    pub mean: f64,
    /// Sample count.
    pub samples: u64,
}

impl QuantileSummary {
    fn from_parts(hist: &Histogram, sum: f64, samples: u64) -> Self {
        QuantileSummary {
            p50: hist.approx_quantile(0.50),
            p95: hist.approx_quantile(0.95),
            p99: hist.approx_quantile(0.99),
            mean: if samples == 0 { 0.0 } else { sum / samples as f64 },
            samples,
        }
    }
}

/// One replica's folded results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaSummary {
    /// Zero-based replica index.
    pub replica: u32,
    /// The seed this replica's scenario was generated from.
    pub seed: u64,
    /// Ticks executed.
    pub ticks: u64,
    /// Mesh links in the replica's topology.
    pub links: usize,
    /// Arrivals dropped at generation time by the concurrency cap.
    pub arrivals_capped: u64,
    /// Instances admitted into the running deployment.
    pub apps_admitted: u64,
    /// Admissions rejected at run time (no feasible placement).
    pub apps_rejected: u64,
    /// Instances retired on departure.
    pub apps_retired: u64,
    /// Migrations the controller applied.
    pub migrations: u64,
    /// Migrations wanted but unplaceable.
    pub unplaceable: u64,
    /// Faults injected from the replica's storm schedule.
    pub faults_injected: usize,
    /// Distribution of the per-sample aggregate goodput fraction
    /// (achieved / required over all live edges).
    pub goodput: QuantileSummary,
    /// Mean aggregate achieved bandwidth over the run, Mbps.
    pub mean_achieved_mbps: f64,
    /// Mean aggregate offered (required) bandwidth over the run, Mbps.
    pub mean_offered_mbps: f64,
    /// Each app kind's share of total achieved bandwidth, in `[0, 1]`.
    pub bandwidth_share: BTreeMap<String, f64>,
}

/// Campaign-level aggregates: counters summed and distributions merged
/// across replicas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateSummary {
    /// Total ticks across replicas.
    pub ticks: u64,
    /// Total admitted instances.
    pub apps_admitted: u64,
    /// Total run-time admission rejections.
    pub apps_rejected: u64,
    /// Total retired instances.
    pub apps_retired: u64,
    /// Total applied migrations.
    pub migrations: u64,
    /// Total unplaceable migrations.
    pub unplaceable: u64,
    /// Total injected faults.
    pub faults_injected: usize,
    /// Merged goodput-fraction distribution.
    pub goodput: QuantileSummary,
    /// Mean of the replicas' mean achieved bandwidths, Mbps.
    pub mean_achieved_mbps: f64,
    /// Each app kind's share of total achieved bandwidth.
    pub bandwidth_share: BTreeMap<String, f64>,
}

/// The machine-readable campaign result (`campaign.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Scenario name from the spec.
    pub scenario: String,
    /// Campaign seed (replica seeds are forked from it).
    pub seed: u64,
    /// Horizon per replica, ticks.
    pub horizon_ticks: u64,
    /// Tick length, milliseconds.
    pub step_ms: u64,
    /// Per-replica results, ascending by replica index.
    pub replicas: Vec<ReplicaSummary>,
    /// Cross-replica aggregates.
    pub aggregate: AggregateSummary,
}

impl CampaignSummary {
    /// Pretty JSON rendering (what the CLI and bench write to disk).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("summary serializes")
    }

    /// [`to_json`](Self::to_json) with a `profile` section appended as
    /// the final top-level key.
    ///
    /// The profile is spliced in textually rather than carried as a
    /// summary field: wall-clock timings must never enter the
    /// deterministic summary struct, and a run without profiling must
    /// keep producing byte-identical JSON to every previous release
    /// (the golden snapshots).
    pub fn to_json_with_profile(&self, profile: &bass_obs::ProfileSummary) -> String {
        splice_last_key(&self.to_json(), "profile", profile)
    }
}

/// Appends `"key": value` as the final top-level key of the pretty JSON
/// object `base`, `value` re-indented one level, so that `base` up to
/// its closing brace stays a byte-exact prefix of the result.
pub(crate) fn splice_last_key(base: &str, key: &str, value: &(impl Serialize + ?Sized)) -> String {
    let indented = serde_json::to_string_pretty(value)
        .expect("spliced section serializes")
        .replace('\n', "\n  ");
    let body = base
        .trim_end()
        .strip_suffix('}')
        .expect("pretty JSON object ends with a closing brace")
        .trim_end();
    format!("{body},\n  \"{key}\": {indented}\n}}")
}

/// Internal per-replica fold state that cannot go in the serializable
/// summary (the histogram itself, needed again for cross-replica
/// merging).
struct ReplicaOutcome {
    summary: ReplicaSummary,
    fold: SampleFold,
    profiler: Option<SpanProfiler>,
    /// Wall time of the entrant's own run, its copy of the world excluded.
    busy: Duration,
}

/// How to run a campaign beyond the deterministic `(spec, seed)` pair:
/// worker threads, span profiling, and live progress reporting. Only
/// [`policy`](Self::policy) affects the summary bytes.
#[derive(Debug, Clone, Copy)]
pub struct CampaignOptions {
    /// Worker threads sharding replicas (≥1; clamped up from 0).
    pub jobs: usize,
    /// Enable span profiling in every replica; per-span statistics are
    /// merged in replica order into [`CampaignRun::profiler`].
    pub profile: bool,
    /// Live progress reporting to stderr (replicas done, ticks/s, ETA).
    pub progress: ProgressLevel,
    /// Migration-decision policy every replica's controller runs. This
    /// one DOES change the summary bytes — it is the arena's
    /// independent variable; the default is the paper's controller,
    /// [`PolicyKind::Bass`].
    pub policy: PolicyKind,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            jobs: 1,
            profile: false,
            progress: ProgressLevel::Off,
            policy: PolicyKind::Bass,
        }
    }
}

/// A campaign's full result: the deterministic summary plus, when
/// profiling was requested, the merged cross-replica span profiler.
#[derive(Debug)]
pub struct CampaignRun {
    /// The deterministic summary ([`CampaignSummary::to_json`] bytes are
    /// independent of jobs, profiling, and progress settings).
    pub summary: CampaignSummary,
    /// Merged span statistics across all replicas, present iff
    /// [`CampaignOptions::profile`] was set.
    pub profiler: Option<SpanProfiler>,
}

/// Runs a full campaign: `spec.replicas` independent replicas sharded
/// over `opts.jobs` worker threads, summary merged in replica order. The
/// summary is byte-identical for any `jobs ≥ 1` and reproducible from
/// `(spec, seed, opts.policy)`. Span profiling (merged across replicas)
/// and progress reporting never change it: the wall clock is read only
/// into the profiler, and progress writes only to stderr.
///
/// # Errors
///
/// Fails on an invalid spec or on a replica that cannot be built or
/// stepped; admission rejections are counted, not fatal.
pub fn run_campaign(
    spec: &ScenarioSpec,
    seed: u64,
    opts: &CampaignOptions,
) -> Result<CampaignRun, CampaignError> {
    spec.validate()?;
    let (jobs, profile, progress) = (opts.jobs, opts.profile, opts.progress);
    let mut runs = run_entrants(spec, seed, &[opts.policy], jobs, profile, progress)?;
    Ok(runs.pop().expect("one entrant, one run").0)
}

/// Runs every entrant of `policies` over the replicas of a validated
/// `spec` ([`run_replica`]), sharded over `jobs` worker threads. Returns,
/// per entrant in order, the campaign [`run_campaign`] gives for that
/// policy alone and its own runs' wall time summed over replicas.
pub(crate) fn run_entrants(
    spec: &ScenarioSpec,
    seed: u64,
    policies: &[PolicyKind],
    jobs: usize,
    profile: bool,
    progress: ProgressLevel,
) -> Result<Vec<(CampaignRun, Duration)>, CampaignError> {
    let replica_count = spec.replicas as usize;

    // Fork one seed per replica up front: replica k's scenario never
    // depends on how many replicas run or in what order.
    let mut root = SimRng::seed_from_u64(seed);
    let replica_seeds: Vec<u64> =
        (0..replica_count).map(|k| root.fork(100 + k as u64).next_u64()).collect();

    let progress = Progress::new(progress, "replica", replica_count as u64);
    let replicas = ordered_map(jobs, replica_count, |i| {
        let outcomes = run_replica(spec, i as u32, replica_seeds[i], policies, profile);
        let ticks = outcomes.as_ref().map_or(0, |o| o.iter().map(|o| o.summary.ticks).sum());
        progress.unit_done(i as u64, ticks);
        outcomes
    });
    let mut entrants: Vec<Vec<ReplicaOutcome>> = policies.iter().map(|_| Vec::new()).collect();
    for outcomes in replicas {
        for (entrant, outcome) in entrants.iter_mut().zip(outcomes?) {
            entrant.push(outcome);
        }
    }
    Ok(entrants.into_iter().map(|outcomes| fold_campaign(spec, seed, outcomes)).collect())
}

/// Folds one entrant's replica outcomes, in replica order, into its
/// campaign (profiled iff its replicas were) and its runs' summed wall time.
fn fold_campaign(
    spec: &ScenarioSpec,
    seed: u64,
    outcomes: Vec<ReplicaOutcome>,
) -> (CampaignRun, Duration) {
    let mut profiler: Option<SpanProfiler> = None;
    let (mut hist, mut goodput_sum, mut busy) = (goodput_histogram(), 0.0, Duration::ZERO);
    let mut achieved: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut replicas = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        if let Some(rep) = &outcome.profiler {
            profiler.get_or_insert_with(SpanProfiler::new).merge(rep);
        }
        hist.merge(&outcome.fold.hist);
        goodput_sum += outcome.fold.goodput_sum;
        for (k, v) in &outcome.fold.achieved_sum_mbps {
            *achieved.entry(k).or_insert(0.0) += v;
        }
        busy += outcome.busy;
        replicas.push(outcome.summary);
    }
    let total = |count: fn(&ReplicaSummary) -> u64| replicas.iter().map(count).sum();
    // A validated spec runs at least one replica.
    let achieved_mean_sum = replicas.iter().fold(0.0, |sum, r| sum + r.mean_achieved_mbps);
    let aggregate = AggregateSummary {
        ticks: total(|r| r.ticks),
        apps_admitted: total(|r| r.apps_admitted),
        apps_rejected: total(|r| r.apps_rejected),
        apps_retired: total(|r| r.apps_retired),
        migrations: total(|r| r.migrations),
        unplaceable: total(|r| r.unplaceable),
        faults_injected: replicas.iter().map(|r| r.faults_injected).sum(),
        goodput: QuantileSummary::from_parts(&hist, goodput_sum, total(|r| r.goodput.samples)),
        mean_achieved_mbps: achieved_mean_sum / replicas.len() as f64,
        bandwidth_share: shares(&achieved),
    };
    let summary = CampaignSummary {
        scenario: spec.name.clone(),
        seed,
        horizon_ticks: spec.horizon_ticks,
        step_ms: spec.step_ms,
        replicas,
        aggregate,
    };
    (CampaignRun { summary, profiler }, busy)
}

fn shares(achieved: &BTreeMap<&'static str, f64>) -> BTreeMap<String, f64> {
    let total: f64 = achieved.values().sum();
    achieved
        .iter()
        .map(|(&k, &v)| (k.to_string(), if total > 0.0 { v / total } else { 0.0 }))
        .collect()
}

/// The streaming per-sample fold state of one replica. Accumulation
/// order is fixed — one [`record`](SampleFold::record) call per sampled
/// tick, in tick order — so a run of quiet ticks and one that runs
/// every tick in full feed the same values and produce bitwise-identical
/// sums.
struct SampleFold {
    hist: Histogram,
    goodput_sum: f64,
    samples: u64,
    achieved_sum_mbps: BTreeMap<&'static str, f64>,
    offered_total: f64,
    achieved_total: f64,
}

impl SampleFold {
    fn new() -> Self {
        SampleFold {
            hist: goodput_histogram(),
            goodput_sum: 0.0,
            samples: 0,
            achieved_sum_mbps: BTreeMap::new(),
            offered_total: 0.0,
            achieved_total: 0.0,
        }
    }

    /// Samples required and achieved bandwidth over every live edge, and
    /// achieved per app kind (the kind whose DAG an instance runs).
    fn record(&mut self, env: &SimEnv, dags: &[Arc<AppDag>; 3]) {
        let (mut required, mut achieved) = (0.0, 0.0);
        let mut per_kind: BTreeMap<&'static str, f64> = BTreeMap::new();
        for live in env.live_apps() {
            let kind = dags.iter().position(|dag| Arc::ptr_eq(dag, &live.app));
            let label = AppKind::ALL[kind.expect("every instance runs a kind's DAG")].label();
            for e in live.components.iter().flat_map(|&c| env.dag().out_edges(c)) {
                let a = env.edge_achieved(e.from, e.to).as_mbps();
                required += e.bandwidth.as_mbps();
                achieved += a;
                *per_kind.entry(label).or_insert(0.0) += a;
            }
        }
        let fraction = if required > 0.0 { achieved / required } else { 1.0 };
        self.hist.record(fraction);
        self.goodput_sum += fraction;
        self.samples += 1;
        self.offered_total += required;
        self.achieved_total += achieved;
        for (k, v) in per_kind {
            *self.achieved_sum_mbps.entry(k).or_insert(0.0) += v;
        }
    }
}

/// Executes one replica for every entrant of `policies`, each streaming
/// per-sample aggregates into its own fold state (no per-tick history).
/// The world (scenario, mesh, cluster, timeline) is built once, timed as
/// `campaign.setup` for the first entrant; each entrant runs on a clone,
/// the last on the world itself. The horizon is one [`SimEnv::run_for`],
/// whose hook samples every tick, quiet or full: a quiet tick leaves
/// every sample input as a full one would, so the summary is
/// byte-identical to stepping each tick with [`SimEnv::step`].
fn run_replica(
    spec: &ScenarioSpec,
    replica: u32,
    replica_seed: u64,
    policies: &[PolicyKind],
    profile: bool,
) -> Result<Vec<ReplicaOutcome>, CampaignError> {
    let setup_started = Instant::now();
    let horizon = SimDuration::from_millis(spec.horizon_ticks * spec.step_ms);
    let dags = AppKind::ALL.map(|kind| Arc::new(kind.dag(spec.workload.social_rps)));
    // Only these outlive the build: the scenario's topology copy, nodes,
    // trace configs and workload are dropped before any entrant steps.
    let (built, links, name, faults, arrivals_capped) = {
        let scenario = generate(spec, replica_seed);
        let built =
            (scenario.build_mesh(horizon)?, scenario.build_cluster(), scenario.timeline(&dags));
        let links = scenario.topology.link_count();
        (built, links, scenario.name, scenario.faults, scenario.rejected_arrivals)
    };
    let (mut world, mut setup) = (Some(built), Some(setup_started.elapsed()));
    let mut outcomes = Vec::with_capacity(policies.len());
    for (k, &policy) in policies.iter().enumerate() {
        let world = if k + 1 == policies.len() { world.take() } else { world.clone() };
        let (mesh, cluster, timeline) = world.expect("only the last entrant takes the world");
        let started = Instant::now();
        let cfg = SimEnvConfig {
            step: SimDuration::from_millis(spec.step_ms),
            migration_policy: policy,
            faults: faults.clone(),
            ..SimEnvConfig::default()
        };
        let mut env = SimEnv::new(mesh, cluster, AppDag::new(name.clone()), cfg);
        env.set_scenario(timeline);
        if profile {
            env.enable_span_profiling();
            // Set-up is a one-time cost per world; benches subtract it
            // to report pure stepping throughput.
            if let Some(setup) = setup.take() {
                env.record_span("campaign.setup", setup);
            }
        }
        env.deploy(&[])?;

        let mut fold = SampleFold::new();
        let mut tick = 0u64;
        env.run_for(horizon, |e| {
            if tick.is_multiple_of(spec.sample_every_ticks) {
                fold.record(e, &dags);
            }
            tick += 1;
        })?;

        let stats = env.stats();
        let samples = fold.samples;
        let mean = |total: f64| if samples == 0 { 0.0 } else { total / samples as f64 };
        let summary = ReplicaSummary {
            replica,
            seed: replica_seed,
            ticks: spec.horizon_ticks,
            links,
            arrivals_capped,
            apps_admitted: stats.apps_admitted,
            apps_rejected: stats.apps_rejected,
            apps_retired: stats.apps_retired,
            migrations: stats.migrations.len() as u64,
            unplaceable: stats.unplaceable,
            faults_injected: stats.faults_injected,
            goodput: QuantileSummary::from_parts(&fold.hist, fold.goodput_sum, samples),
            mean_achieved_mbps: mean(fold.achieved_total),
            mean_offered_mbps: mean(fold.offered_total),
            bandwidth_share: shares(&fold.achieved_sum_mbps),
        };
        let profiler = env.take_span_profiler();
        outcomes.push(ReplicaOutcome { summary, fold, profiler, busy: started.elapsed() });
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::small_reference();
        spec.horizon_ticks = 60;
        spec.replicas = 2;
        spec
    }

    fn summary(spec: &ScenarioSpec, seed: u64, jobs: usize) -> CampaignSummary {
        let opts = CampaignOptions { jobs, ..CampaignOptions::default() };
        run_campaign(spec, seed, &opts).unwrap().summary
    }

    #[test]
    fn campaign_runs_and_summarizes() {
        let spec = tiny_spec();
        let summary = summary(&spec, 1, 1);
        assert_eq!(summary.replicas.len(), 2);
        assert_eq!(summary.aggregate.ticks, 120);
        assert!(summary.aggregate.apps_admitted >= 2, "initial apps admit");
        assert!(summary.aggregate.mean_achieved_mbps > 0.0);
        let total_share: f64 = summary.aggregate.bandwidth_share.values().sum();
        assert!((total_share - 1.0).abs() < 1e-9 || total_share == 0.0);
        // Goodput samples respect the sampling cadence.
        for r in &summary.replicas {
            assert_eq!(r.goodput.samples, 60 / spec.sample_every_ticks);
        }
    }

    #[test]
    fn jobs_do_not_change_the_summary() {
        let spec = tiny_spec();
        let a = summary(&spec, 9, 1);
        let b = summary(&spec, 9, 4);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn profiling_does_not_change_summary_bytes() {
        let spec = tiny_spec();
        let plain = summary(&spec, 9, 2);
        let opts = CampaignOptions {
            jobs: 3,
            profile: true,
            ..CampaignOptions::default()
        };
        let profiled = run_campaign(&spec, 9, &opts).unwrap();
        assert_eq!(plain.to_json(), profiled.summary.to_json());

        // Every replica contributed: tick.finalize fires once per full
        // tick, and each replica's first tick (a probe epoch) is full.
        let profiler = profiled.profiler.expect("profiling was on");
        let ticks = profiler.stats("tick.finalize").expect("tick spans present");
        assert!(ticks.count >= 2 && ticks.count <= profiled.summary.aggregate.ticks);
        // One fill span per allocation, each after one component scan.
        let count = |span| profiler.stats(span).map_or(0, |s| s.count);
        assert!(count("mesh.water_fill") > 0);
        assert_eq!(count("mesh.water_fill"), count("mesh.component_scan"));
        assert!(profiler.stats("env.deploy").unwrap().count >= 2, "one deploy per replica");
    }

    #[test]
    fn profile_section_splices_into_summary_json() {
        let spec = tiny_spec();
        let opts = CampaignOptions { profile: true, ..CampaignOptions::default() };
        let run = run_campaign(&spec, 3, &opts).unwrap();
        let profile = run.profiler.as_ref().unwrap().summary();
        let arena_opts =
            crate::ArenaOptions { policies: vec![PolicyKind::Bass], ..Default::default() };
        let arena = crate::run_arena(std::slice::from_ref(&spec), 3, &arena_opts).unwrap();
        // (spliced, deterministic base): the summary's profile and the
        // arena table's timing section.
        let spliced = [
            (run.summary.to_json_with_profile(&profile), run.summary.to_json()),
            (arena.table.to_json_with_timing(&arena.timings), arena.table.to_json()),
        ];
        for (json, base) in &spliced {
            // The splice only appends: the base is a strict prefix up to
            // its closing brace.
            assert!(json.starts_with(base.trim_end().strip_suffix('}').unwrap().trim_end()));
        }
        // Still valid JSON, still carrying the original fields, with the
        // spliced section as a top-level key.
        let value = |i: usize| serde_json::from_str::<serde_json::Value>(&spliced[i].0).unwrap();
        assert_eq!(value(0)["scenario"].as_str(), Some(spec.name.as_str()));
        assert!(value(0)["profile"]["spans"]["tick.finalize"]["count"].as_u64().unwrap() > 0);
        assert_eq!(value(1)["seed"].as_u64(), Some(3));
        assert_eq!(value(1)["timing"][0]["policy"].as_str(), Some("bass"));
    }

    #[test]
    fn replicas_run_quiet_ticks_between_epochs_and_inputs() {
        // Probe epochs and workload or fault inputs wake only some ticks
        // of a 1 s step: the rest are quiet. `tick.finalize` counts full
        // ticks, so it falls below the tick total exactly when ticks were
        // quiet. That the summary still equals a ticked replica's is the
        // root batteries' check (`tests/support`).
        let spec = tiny_spec();
        let opts = CampaignOptions { profile: true, ..CampaignOptions::default() };
        for seed in [7, 11] {
            let run = run_campaign(&spec, seed, &opts).unwrap();
            let total = run.summary.aggregate.ticks;
            let executed = run.profiler.unwrap().stats("tick.finalize").map_or(0, |s| s.count);
            assert!(executed < total, "seed {seed}: executed {executed} of {total} ticks");
        }
    }

    #[test]
    fn each_world_is_built_once_for_all_entrants() {
        let spec = tiny_spec();
        assert_eq!(spec.replicas, 2);
        let policies = [PolicyKind::Bass, PolicyKind::Random, PolicyKind::Spread];
        let runs = run_entrants(&spec, 4, &policies, 2, true, ProgressLevel::Off).unwrap();
        let count = |span| -> u64 {
            let spans = runs.iter().filter_map(|(run, _)| run.profiler.as_ref()?.stats(span));
            spans.map(|s| s.count).sum()
        };
        assert_eq!(count("campaign.setup"), 2, "one world per replica");
        assert_eq!(count("env.deploy"), 2 * 3, "one deploy per replica and entrant");
    }

    #[test]
    fn arena_names_an_invalid_spec_by_position_and_name() {
        let good = tiny_spec();
        let mut bad = tiny_spec();
        bad.name = "no-replicas".into();
        bad.replicas = 0;
        let opts = crate::ArenaOptions { policies: vec![PolicyKind::Bass], ..Default::default() };
        let err = crate::run_arena(&[good, bad], 1, &opts).unwrap_err().to_string();
        assert!(err.contains("corpus[1] 'no-replicas'"), "{err}");
        assert!(err.contains("at least one replica"), "{err}");
    }

    #[test]
    fn same_seed_reproduces_different_seed_differs() {
        let spec = tiny_spec();
        let a = summary(&spec, 5, 2);
        let b = summary(&spec, 5, 2);
        assert_eq!(a.to_json(), b.to_json());
        let c = summary(&spec, 6, 2);
        assert_ne!(a.to_json(), c.to_json());
    }
}
