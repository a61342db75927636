//! Per-phase tick profiling harness.
//!
//! ```text
//! profile [--seed N] [--out FILE] [--quick]
//! ```
//!
//! Runs single-replica campaigns at 100 and 500 nodes with span
//! profiling enabled (see `docs/OBSERVABILITY.md`) and writes the
//! merged per-phase breakdown plus wall-clock throughput to
//! `PROFILE_mesh.json`. This is the artifact behind the worked
//! "where does a tick go" tables in `docs/PERFORMANCE.md`.
//!
//! Profiling rides outside the simulation: the summaries produced here
//! are byte-identical to unprofiled runs of the same spec and seed.
//! `--quick` shrinks the horizons to a CI-sized smoke run.

use bass_obs::ProfileSummary;
use bass_scenario::{CampaignOptions, run_campaign_opts, ScenarioSpec, TopologySpec};
use serde::Serialize;
use std::process::ExitCode;

/// One profiled configuration: the city campaign scenario scaled to a
/// node count, single replica so the span histogram is one run's story.
fn profile_spec(nodes: u32, radius: f64, horizon_ticks: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::small_reference();
    spec.name = format!("profile-{nodes}");
    spec.topology = TopologySpec::RandomGeometric { nodes, radius };
    spec.nodes.gateways = 4;
    spec.links.sample_interval_s = 60.0;
    spec.workload.max_concurrent = 30;
    spec.workload.initial_apps = 10;
    spec.workload.arrival_rate_per_s = 0.02;
    spec.workload.mean_lifetime_s = 1200.0;
    spec.horizon_ticks = horizon_ticks;
    spec.step_ms = 1000;
    spec.sample_every_ticks = 100;
    spec.replicas = 1;
    spec
}

#[derive(Serialize)]
struct ConfigReport {
    nodes: u32,
    horizon_ticks: u64,
    elapsed_s: f64,
    ticks_per_s: f64,
    profile: ProfileSummary,
}

#[derive(Serialize)]
struct ProfileBench {
    bench: String,
    seed: u64,
    configs: Vec<ConfigReport>,
}

fn main() -> ExitCode {
    let mut seed = 42u64;
    let mut out = std::path::PathBuf::from("PROFILE_mesh.json");
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    let fail = |msg: String| {
        eprintln!("profile: {msg}");
        ExitCode::FAILURE
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--seed" => match value("--seed").and_then(|v| {
                v.parse().map_err(|e| format!("bad --seed: {e}"))
            }) {
                Ok(v) => seed = v,
                Err(e) => return fail(e),
            },
            "--out" => match value("--out") {
                Ok(v) => out = std::path::PathBuf::from(v),
                Err(e) => return fail(e),
            },
            "--quick" => quick = true,
            "--help" | "-h" => {
                println!("usage: profile [--seed N] [--out FILE] [--quick]");
                return ExitCode::SUCCESS;
            }
            other => return fail(format!("unknown flag '{other}'")),
        }
    }

    // 500 nodes shrinks the radius to hold mean degree roughly constant
    // (n·r² invariant) and the horizon to keep the run under a minute.
    let configs: &[(u32, f64, u64)] = if quick {
        &[(100, 0.2, 400), (500, 0.1, 100)]
    } else {
        &[(100, 0.2, 5_000), (500, 0.1, 1_000)]
    };

    let opts = CampaignOptions { profile: true, ..CampaignOptions::default() };
    let mut reports = Vec::new();
    for &(nodes, radius, horizon_ticks) in configs {
        let spec = profile_spec(nodes, radius, horizon_ticks);
        let started = std::time::Instant::now();
        let run = match run_campaign_opts(&spec, seed, &opts) {
            Ok(r) => r,
            Err(e) => return fail(e.to_string()),
        };
        let elapsed = started.elapsed().as_secs_f64();
        let ticks = run.summary.aggregate.ticks;
        let profiler = match run.profiler {
            Some(p) => p,
            None => return fail("campaign returned no span profile".to_string()),
        };
        println!(
            "{nodes:>4} nodes x {horizon_ticks:>6} ticks in {elapsed:>6.2}s \
             ({:>7.0} ticks/s)",
            ticks as f64 / elapsed
        );
        let profile = profiler.summary();
        let mut phases: Vec<_> = profile.spans.iter().collect();
        phases.sort_by_key(|(_, s)| std::cmp::Reverse(s.total_ns));
        for (name, s) in phases.iter().take(8) {
            println!(
                "    {name:<20} {:>10.1} ms total  {:>8.1} us/call  x{}",
                s.total_ns as f64 / 1e6,
                s.mean_ns / 1e3,
                s.count
            );
        }
        reports.push(ConfigReport {
            nodes,
            horizon_ticks,
            elapsed_s: elapsed,
            ticks_per_s: ticks as f64 / elapsed,
            profile,
        });
    }

    let bench = ProfileBench {
        bench: "mesh_profile".to_string(),
        seed,
        configs: reports,
    };
    let json = serde_json::to_string_pretty(&bench).expect("report serializes");
    if let Err(e) = std::fs::write(&out, json) {
        return fail(format!("cannot write {}: {e}", out.display()));
    }
    println!("wrote {}", out.display());
    ExitCode::SUCCESS
}
