//! Table 3: per-component scheduling latency, k3s default vs BASS.
//!
//! Paper: per-component latency is comparable between the two systems
//! (≈1.3 ms for k3s vs ≈1.3–1.5 ms for BASS); BASS additionally pays the
//! one-time DAG-processing cost (Table 4). We measure the per-component
//! cost of a full scheduling pass with each policy.

use crate::{ExperimentReport, Row, RunMode};
use bass_appdag::{catalog, AppDag};
use bass_apps::testbeds::lan_testbed;
use bass_core::{BassScheduler, PlacementPolicy};
use std::time::Instant;

fn per_component_ms(dag: &AppDag, policy: PlacementPolicy, iters: u32) -> (f64, f64) {
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let (mesh, mut cluster) = lan_testbed(4, 16);
        let scheduler = BassScheduler::new(policy);
        let start = Instant::now();
        let placement = scheduler
            .schedule(dag, &mut cluster, &mesh)
            .expect("feasible");
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(placement);
        samples.push(elapsed_ms / dag.component_count() as f64);
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
    (mean, var.sqrt())
}

/// Runs the experiment.
pub fn run(mode: RunMode) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "tab3",
        "per-component scheduling latency, k3s vs BASS",
        "comparable per-component cost: social 1.27 vs 1.5 ms, videoconf 1.28 vs 1.28, camera 1.27 vs 1.4",
    );
    let iters = match mode {
        RunMode::Full => 200,
        RunMode::Quick => 50,
    };
    for (label, dag) in [
        ("social-network", catalog::social_network(50.0)),
        ("video-conference", catalog::video_conference()),
        ("camera", catalog::camera_pipeline()),
    ] {
        let (k3s_mean, k3s_std) = per_component_ms(
            &dag,
            PlacementPolicy::K3sDefault,
            iters,
        );
        let (bass_mean, bass_std) = per_component_ms(&dag, PlacementPolicy::LongestPath, iters);
        report.push_row(
            Row::new(label)
                .with("k3s_ms", k3s_mean)
                .with("k3s_std", k3s_std)
                .with("bass_ms", bass_mean)
                .with("bass_std", bass_std)
                .with("bass_over_k3s", bass_mean / k3s_mean.max(1e-12)),
        );
    }
    report.note("absolute values are microseconds here (no k8s API server); the comparable-cost conclusion is the target");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bass_cost_is_same_order_as_k3s() {
        let rep = run(RunMode::Quick);
        for row in &rep.rows {
            let ratio = row.value("bass_over_k3s").unwrap();
            assert!(
                (0.05..20.0).contains(&ratio),
                "{}: per-component costs should be the same order, ratio {ratio}",
                row.label
            );
        }
    }
}
