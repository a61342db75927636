//! The scheduler arena: every registered migration policy, head to
//! head over a scenario corpus.
//!
//! [`run_arena`] runs every policy over each scenario through the
//! constant-memory campaign runner and folds the results into an
//! [`ArenaTable`]: one row per `(policy, scenario)` pair
//! (user-experience aggregates, migration counts) plus a cross-scenario
//! ranking by mean goodput fraction — the paper's user-experience proxy.
//! Each `(scenario, replica)` world is built once and every policy runs
//! on its own clone, so a row is the campaign that policy runs alone.
//!
//! Determinism contract (the same one the campaign runner carries):
//! the table's [`to_json`](ArenaTable::to_json) bytes are a function of
//! `(corpus, seed, policies)` only — identical for any `--jobs` value.
//! Wall-clock throughput (ticks/second) is measured too, but lives in
//! the separate [`ArenaTiming`] records, which only the
//! [`to_text`](ArenaTable::to_text) and
//! [`to_json_with_timing`](ArenaTable::to_json_with_timing) renderings
//! read, so the deterministic table bytes never move (the golden
//! snapshot under `tests/golden/` compares `to_json` only).

use crate::campaign::{run_entrants, splice_last_key, CampaignError};
use crate::spec::{ScenarioSpec, SpecError};
use bass_core::PolicyKind;
use bass_obs::ProgressLevel;
use serde::Serialize;
use std::fmt::Write as _;

/// How to run an arena tournament: which policies compete and how each
/// underlying campaign executes.
#[derive(Debug, Clone)]
pub struct ArenaOptions {
    /// The competing policies, in presentation order. Empty means the
    /// full registry ([`PolicyKind::all`]).
    pub policies: Vec<PolicyKind>,
    /// Worker threads sharding each scenario's replicas (≥1; clamped up
    /// from 0); the table bytes are identical at any value.
    pub jobs: usize,
    /// Live progress reporting to stderr, one line per replica world.
    pub progress: ProgressLevel,
}

impl Default for ArenaOptions {
    fn default() -> Self {
        ArenaOptions { policies: Vec::new(), jobs: 1, progress: ProgressLevel::Off }
    }
}

/// One `(policy, scenario)` entry of the tournament.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ArenaRow {
    /// Policy registry name.
    pub policy: String,
    /// Scenario name from its spec.
    pub scenario: String,
    /// Mean goodput fraction across all replica samples (the
    /// user-experience aggregate the ranking sorts on).
    pub mean_goodput: f64,
    /// Median goodput fraction.
    pub p50_goodput: f64,
    /// 95th-percentile goodput fraction.
    pub p95_goodput: f64,
    /// Mean achieved bandwidth, Mbps.
    pub mean_achieved_mbps: f64,
    /// Migrations executed across all replicas.
    pub migrations: u64,
    /// Migration candidates with no feasible target, across replicas.
    pub unplaceable: u64,
    /// Ticks simulated across all replicas.
    pub ticks: u64,
}

/// One policy's cross-scenario standing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ArenaStanding {
    /// 1-based rank (1 = best mean goodput).
    pub rank: usize,
    /// Policy registry name.
    pub policy: String,
    /// Unweighted mean of the policy's per-scenario mean goodputs.
    pub mean_goodput: f64,
    /// Total migrations across every scenario.
    pub migrations: u64,
}

/// The deterministic tournament result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ArenaTable {
    /// Tournament seed (each campaign runs with it).
    pub seed: u64,
    /// Scenario names, in corpus order.
    pub scenarios: Vec<String>,
    /// One row per `(policy, scenario)`, policies in presentation
    /// order, scenarios in corpus order within each policy.
    pub rows: Vec<ArenaRow>,
    /// Cross-scenario ranking, best first.
    pub ranking: Vec<ArenaStanding>,
}

/// Wall-clock throughput of one `(policy, scenario)` campaign, never
/// part of the deterministic table bytes. It times the policy's own
/// runs (environment, deploy, stepping) summed over replicas, without
/// the world build every policy shares or its clone; `--jobs` does not
/// shrink the sum.
#[derive(Debug, Clone, Serialize)]
pub struct ArenaTiming {
    /// Policy registry name.
    pub policy: String,
    /// Scenario name.
    pub scenario: String,
    /// Simulated ticks per second of the policy's own runs.
    pub ticks_per_sec: f64,
}

/// A finished tournament: the deterministic table plus its wall-clock
/// timings, parallel to [`ArenaTable::rows`].
#[derive(Debug, Clone)]
pub struct ArenaRun {
    /// The deterministic comparison table.
    pub table: ArenaTable,
    /// Per-row wall-clock throughput, same order as `table.rows`.
    pub timings: Vec<ArenaTiming>,
}

impl ArenaTable {
    /// Pretty JSON rendering; byte-identical for any job count.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("arena table serializes")
    }

    /// [`to_json`](Self::to_json) with a `timing` section appended as
    /// the final top-level key — spliced textually so the
    /// deterministic table stays a byte-exact prefix (the same
    /// contract as `CampaignSummary::to_json_with_profile`).
    pub fn to_json_with_timing(&self, timings: &[ArenaTiming]) -> String {
        splice_last_key(&self.to_json(), "timing", timings)
    }

    /// The ranked comparison table as fixed-width text, each row ending
    /// in its wall-clock ticks/s from `timings`, parallel to the rows
    /// (non-deterministic; for terminals, not goldens).
    pub fn to_text(&self, timings: &[ArenaTiming]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "arena: seed {}", self.seed);
        let _ = writeln!(
            out,
            "{:<22} {:<18} {:>9} {:>9} {:>9} {:>10} {:>11} {:>12} {:>9}",
            "policy",
            "scenario",
            "gp-mean",
            "gp-p50",
            "gp-p95",
            "mbps-mean",
            "migrations",
            "unplaceable",
            "ticks/s",
        );
        for (r, timing) in self.rows.iter().zip(timings) {
            let _ = writeln!(
                out,
                "{:<22} {:<18} {:>9.4} {:>9.4} {:>9.4} {:>10.2} {:>11} {:>12} {:>9.0}",
                r.policy,
                r.scenario,
                r.mean_goodput,
                r.p50_goodput,
                r.p95_goodput,
                r.mean_achieved_mbps,
                r.migrations,
                r.unplaceable,
                timing.ticks_per_sec,
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<5} {:<22} {:>9} {:>11}",
            "rank", "policy", "gp-mean", "migrations"
        );
        for s in &self.ranking {
            let _ = writeln!(
                out,
                "{:<5} {:<22} {:>9.4} {:>11}",
                s.rank, s.policy, s.mean_goodput, s.migrations
            );
        }
        out
    }
}

/// Runs the tournament: every policy in `opts.policies` over every
/// spec in `corpus`, each entry a full campaign at `seed`. Rows list
/// policies in presentation order and scenarios in corpus order, so the
/// table layout — like its bytes — is reproducible.
///
/// # Errors
///
/// Fails on an empty corpus, on an invalid spec (naming its position
/// and name; the whole corpus is checked before anything runs), or on
/// any campaign failure ([`CampaignError`]).
pub fn run_arena(
    corpus: &[ScenarioSpec],
    seed: u64,
    opts: &ArenaOptions,
) -> Result<ArenaRun, CampaignError> {
    if corpus.is_empty() {
        return Err(CampaignError::Spec(SpecError::new("arena corpus is empty")));
    }
    for (i, spec) in corpus.iter().enumerate() {
        spec.validate()
            .map_err(|e| SpecError::new(format!("corpus[{i}] '{}': {}", spec.name, e.0)))?;
    }
    // Duplicates would double-count the ranking; first mention wins.
    let requested = if opts.policies.is_empty() { &PolicyKind::all()[..] } else { &opts.policies };
    let mut policies: Vec<PolicyKind> = Vec::with_capacity(requested.len());
    for &policy in requested {
        if !policies.contains(&policy) {
            policies.push(policy);
        }
    }

    let per_spec = corpus
        .iter()
        .map(|spec| run_entrants(spec, seed, &policies, opts.jobs, false, opts.progress))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rows = Vec::with_capacity(policies.len() * corpus.len());
    let (mut timings, mut ranking) = (Vec::with_capacity(rows.capacity()), Vec::new());
    for (p, policy) in policies.iter().enumerate() {
        for (run, busy) in per_spec.iter().map(|runs| &runs[p]) {
            let summary = &run.summary;
            let agg = &summary.aggregate;
            rows.push(ArenaRow {
                policy: policy.name().to_string(),
                scenario: summary.scenario.clone(),
                mean_goodput: agg.goodput.mean,
                p50_goodput: agg.goodput.p50,
                p95_goodput: agg.goodput.p95,
                mean_achieved_mbps: agg.mean_achieved_mbps,
                migrations: agg.migrations,
                unplaceable: agg.unplaceable,
                ticks: agg.ticks,
            });
            timings.push(ArenaTiming {
                policy: policy.name().to_string(),
                scenario: summary.scenario.clone(),
                ticks_per_sec: agg.ticks as f64 / busy.as_secs_f64().max(f64::MIN_POSITIVE),
            });
        }
        // Cross-scenario standing: the unweighted mean of the policy's
        // per-scenario mean goodputs.
        let mine = &rows[rows.len() - corpus.len()..];
        ranking.push(ArenaStanding {
            rank: 0,
            policy: policy.name().to_string(),
            mean_goodput: mine.iter().map(|r| r.mean_goodput).sum::<f64>() / mine.len() as f64,
            migrations: mine.iter().map(|r| r.migrations).sum(),
        });
    }
    // Best mean goodput first; name as the deterministic tie-break.
    ranking.sort_by(|a, b| {
        b.mean_goodput
            .total_cmp(&a.mean_goodput)
            .then_with(|| a.policy.cmp(&b.policy))
    });
    for (i, s) in ranking.iter_mut().enumerate() {
        s.rank = i + 1;
    }

    let table = ArenaTable {
        seed,
        scenarios: corpus.iter().map(|s| s.name.clone()).collect(),
        rows,
        ranking,
    };
    Ok(ArenaRun { table, timings })
}
