//! Long-horizon campaign harness.
//!
//! ```text
//! campaign [--spec FILE] [--seed N] [--jobs N] [--out FILE] [--quick]
//!          [--dump-spec]
//! ```
//!
//! Runs a full scenario campaign (see `docs/SCENARIOS.md`) and writes
//! the streaming summary plus wall-clock throughput to
//! `BENCH_campaign.json`. Without `--spec` it runs the built-in
//! city-scale scenario: 100 nodes of heterogeneous hardware on a
//! random-geometric mesh, every link playing its own OU trace, a mild
//! fault storm, and a churning workload that cycles on the order of a
//! thousand application flows through the mesh over a 100 000-tick
//! horizon — all folded into constant-memory aggregates.
//!
//! `--quick` shrinks the horizon to a CI-sized smoke run; `--dump-spec`
//! prints the built-in spec as JSON (how `examples/campaign_city.json`
//! was produced) and exits.

use bass_scenario::{run_campaign, ScenarioSpec, TopologySpec};
use std::process::ExitCode;

/// The built-in city-scale scenario: the acceptance configuration for
/// the campaign runner (100 nodes, 100k ticks, ~2000 app instances
/// churned through the mesh).
fn city_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::small_reference();
    spec.name = "city-100".to_string();
    spec.topology = TopologySpec::RandomGeometric { nodes: 100, radius: 0.2 };
    spec.nodes.gateways = 4;
    // Coarse trace sampling keeps per-link trace memory flat over the
    // long horizon (the traces are the only horizon-proportional state).
    spec.links.sample_interval_s = 60.0;
    spec.workload.max_concurrent = 30;
    spec.workload.initial_apps = 10;
    spec.workload.arrival_rate_per_s = 0.02;
    spec.workload.mean_lifetime_s = 1200.0;
    spec.horizon_ticks = 100_000;
    spec.step_ms = 1000;
    spec.sample_every_ticks = 100;
    spec.replicas = 1;
    spec
}

fn main() -> ExitCode {
    let mut spec_path: Option<String> = None;
    let mut seed = 42u64;
    let mut jobs = 1usize;
    let mut out = std::path::PathBuf::from("BENCH_campaign.json");
    let mut quick = false;
    let mut dump_spec = false;
    let mut args = std::env::args().skip(1);
    let fail = |msg: String| {
        eprintln!("campaign: {msg}");
        ExitCode::FAILURE
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--spec" => match value("--spec") {
                Ok(v) => spec_path = Some(v),
                Err(e) => return fail(e),
            },
            "--seed" => match value("--seed").and_then(|v| {
                v.parse().map_err(|e| format!("bad --seed: {e}"))
            }) {
                Ok(v) => seed = v,
                Err(e) => return fail(e),
            },
            "--jobs" => match value("--jobs").and_then(|v| {
                v.parse().map_err(|e| format!("bad --jobs: {e}"))
            }) {
                Ok(0) => return fail("--jobs must be at least 1".to_string()),
                Ok(v) => jobs = v,
                Err(e) => return fail(e),
            },
            "--out" => match value("--out") {
                Ok(v) => out = std::path::PathBuf::from(v),
                Err(e) => return fail(e),
            },
            "--quick" => quick = true,
            "--dump-spec" => dump_spec = true,
            "--help" | "-h" => {
                println!(
                    "usage: campaign [--spec FILE] [--seed N] [--jobs N] [--out FILE] \
                     [--quick] [--dump-spec]"
                );
                return ExitCode::SUCCESS;
            }
            other => return fail(format!("unknown flag '{other}'")),
        }
    }

    let mut spec = match &spec_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => return fail(format!("cannot read {path}: {e}")),
            };
            match ScenarioSpec::from_json(&text) {
                Ok(s) => s,
                Err(e) => return fail(format!("cannot parse {path}: {e}")),
            }
        }
        None => city_spec(),
    };
    if dump_spec {
        println!(
            "{}",
            serde_json::to_string_pretty(&spec).expect("spec serializes")
        );
        return ExitCode::SUCCESS;
    }
    if quick {
        spec.horizon_ticks = spec.horizon_ticks.min(2_000);
    }

    let started = std::time::Instant::now();
    let summary = match run_campaign(&spec, seed, jobs) {
        Ok(s) => s,
        Err(e) => return fail(e.to_string()),
    };
    let elapsed = started.elapsed().as_secs_f64();
    let a = &summary.aggregate;
    println!(
        "campaign '{}' seed {seed} jobs {jobs}: {} replicas x {} ticks in {elapsed:.2}s \
         ({:.0} ticks/s)",
        summary.scenario,
        summary.replicas.len(),
        summary.horizon_ticks,
        a.ticks as f64 / elapsed
    );
    println!(
        "apps: {} admitted, {} rejected, {} retired; {} migrations; {} faults",
        a.apps_admitted, a.apps_rejected, a.apps_retired, a.migrations, a.faults_injected
    );
    println!(
        "goodput fraction: p50 {:.3} p95 {:.3} p99 {:.3} mean {:.3} ({} samples)",
        a.goodput.p50, a.goodput.p95, a.goodput.p99, a.goodput.mean, a.goodput.samples
    );
    if let Err(e) = std::fs::write(&out, summary.to_json()) {
        return fail(format!("cannot write {}: {e}", out.display()));
    }
    println!("wrote {}", out.display());
    ExitCode::SUCCESS
}
