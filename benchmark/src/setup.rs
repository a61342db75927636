//! `setup_s`: time to first tick, repeated in-process in a fresh
//! `ladder setup <workload>` child and reported as a median.
//!
//! One repetition is everything a run does before its first tick: parse
//! the input files, then `generate` → `build_mesh(horizon)` →
//! `build_cluster` → `SimEnv::new` → `deploy` for a campaign replica,
//! the `TestbedSpec::build` path for `testbed-journal`, the grid and
//! flow build for `mesh1000-churn`.

use crate::meshchurn::Churn;
use crate::workloads::{read_params, read_text, workload_dir, Kind, Params, Workload};
use bass_appdag::{AppDag, Manifest};
use bass_cli::TestbedSpec;
use bass_emu::{SimEnv, SimEnvConfig};
use bass_scenario::ScenarioSpec;
use bass_util::time::SimDuration;
use std::path::Path;
use std::time::{Duration, Instant};

/// Repetitions a set-up median rests on: nine, more while a cheap
/// set-up has not yet filled [`MIN_TOTAL`] (a sub-millisecond set-up is
/// not a nine-sample timer reading), fewer — but at least three — once
/// an expensive one has used up [`MAX_TOTAL`].
const REPS: usize = 9;
const FEWEST_REPS: usize = 3;
const MOST_REPS: usize = 2000;
const MIN_TOTAL: Duration = Duration::from_secs(1);
const MAX_TOTAL: Duration = Duration::from_secs(4);

fn campaign_setup(dir: &Path, replica_seed: u64) -> Result<(), String> {
    let spec =
        ScenarioSpec::from_json(&read_text(&dir.join("spec.json"))?).map_err(|e| e.to_string())?;
    let scenario = bass_scenario::generate(&spec, replica_seed);
    let horizon = SimDuration::from_millis(spec.horizon_ticks * spec.step_ms);
    let mesh = scenario.build_mesh(horizon).map_err(|e| e.to_string())?;
    let cluster = scenario.build_cluster();
    let cfg = SimEnvConfig {
        step: SimDuration::from_millis(spec.step_ms),
        faults: scenario.faults.clone(),
        ..SimEnvConfig::default()
    };
    let mut env = SimEnv::new(mesh, cluster, AppDag::new(scenario.name.clone()), cfg);
    env.deploy(&[]).map_err(|e| e.to_string())?;
    std::hint::black_box(&env);
    Ok(())
}

fn simulate_setup(dir: &Path, params: &Params) -> Result<(), String> {
    let manifest: Manifest =
        serde_json::from_str(&read_text(&dir.join("app.json"))?).map_err(|e| e.to_string())?;
    let testbed: TestbedSpec =
        serde_json::from_str(&read_text(&dir.join("mesh.json"))?).map_err(|e| e.to_string())?;
    let dag = manifest.to_dag().map_err(|e| e.to_string())?;
    // `bass_cli::simulate` plays traces for the run length plus a minute.
    let trace_len = SimDuration::from_secs(params.piece_duration_s() + 60);
    let (mesh, cluster) = testbed
        .build(params.piece_seeds[0], trace_len)
        .map_err(|e| e.to_string())?;
    let mut env = SimEnv::new(mesh, cluster, dag, SimEnvConfig::default());
    env.deploy(&[]).map_err(|e| e.to_string())?;
    std::hint::black_box(&env);
    Ok(())
}

/// Repeats `w`'s set-up and returns the per-repetition seconds,
/// ascending. `replica_seed` is the campaign's first replica seed, read
/// by the caller from an untraced summary. A smoke run stops at three
/// repetitions.
pub fn measure(
    w: &Workload,
    inputs: &Path,
    replica_seed: u64,
    smoke: bool,
) -> Result<Vec<f64>, String> {
    let params = read_params(inputs, w.name)?;
    let dir = workload_dir(inputs, w.name);
    let mut samples = Vec::new();
    let started = Instant::now();
    let done = |n: usize| {
        if smoke {
            n >= 3
        } else {
            let spent = started.elapsed();
            n >= MOST_REPS
                || (n >= REPS && spent >= MIN_TOTAL)
                || (n >= FEWEST_REPS && spent >= MAX_TOTAL)
        }
    };
    while !done(samples.len()) {
        let t0 = Instant::now();
        match w.kind {
            Kind::Campaign => campaign_setup(&dir, replica_seed)?,
            Kind::MeshChurn => {
                std::hint::black_box(Churn::build(&params));
            }
            Kind::Simulate => simulate_setup(&dir, &params)?,
        }
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    Ok(samples)
}
