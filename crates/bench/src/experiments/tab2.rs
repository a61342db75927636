//! Table 2: median camera-pipeline latency on the emulated CityLab
//! mesh, with and without bandwidth variation, per scheduler.
//!
//! Paper (ms): BFS 540/538, longest-path 551/552, k3s 577/692
//! (no-variation / with-variation) — i.e. the BASS placements are
//! insensitive to the variation while k3s inflates ≈20%; no migrations
//! occur for this workload.

use crate::experiments::common::{camera, Knobs};
use crate::{ExperimentReport, Row, RunMode};
use bass_apps::camera::CameraWorkload;
use bass_apps::testbeds::{citylab_testbed, citylab_testbed_flat};
use bass_core::heuristics::BfsWeighting;
use bass_core::PlacementPolicy;
use bass_emu::Recorder;
use bass_util::time::SimDuration;

/// Runs the experiment.
pub fn run(mode: RunMode) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "tab2",
        "camera median latency on CityLab, ±bandwidth variation",
        "BASS placements insensitive (BFS 540≈538, LP 551≈552); k3s inflates ~20% (577→692); no migrations",
    );
    let duration = SimDuration::from_secs(mode.secs(1200));

    for (label, policy) in [
        ("bfs", PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight)),
        ("longest-path", PlacementPolicy::LongestPath),
        (
            "k3s-default",
            PlacementPolicy::K3sDefault,
        ),
    ] {
        let mut row = Row::new(label);
        for flat in [true, false] {
            let knobs = Knobs {
                policy,
                // k3s performs no dynamic migration; BASS has it enabled
                // but the paper observed none for this workload.
                migrations: policy != PlacementPolicy::K3sDefault,
                ..Knobs::default()
            };
            let trace_len = duration + SimDuration::from_secs(60);
            let testbed = if flat {
                citylab_testbed_flat(42, trace_len)
            } else {
                citylab_testbed(42, trace_len)
            };
            let mut env = camera(testbed, &knobs);
            let wl = CameraWorkload::new(&env.dag().clone());
            let mut rec = Recorder::new();
            env.run_for(duration, |e| {
                if e.now().as_micros() % 1_000_000 == 0 {
                    wl.observe(e, &mut rec);
                }
            })
            .expect("run completes");
            let median = rec.percentiles("latency_ms").median();
            let col = if flat { "median_ms_novar" } else { "median_ms_var" };
            row = row.with(col, median);
            if !flat {
                row = row.with("migrations", env.stats().migrations.len() as f64);
            }
        }
        let novar = row.value("median_ms_novar").unwrap();
        let var = row.value("median_ms_var").unwrap();
        row = row.with("inflation_pct", 100.0 * (var - novar) / novar);
        report.push_row(row);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bass_insensitive_k3s_inflates() {
        let rep = run(RunMode::Quick);
        let inflation =
            |label: &str| rep.row(label).unwrap().value("inflation_pct").unwrap();
        // BASS placements move little with variation…
        assert!(inflation("bfs").abs() < 10.0, "bfs {}", inflation("bfs"));
        assert!(
            inflation("longest-path").abs() < 10.0,
            "lp {}",
            inflation("longest-path")
        );
        // …while the oblivious baseline inflates clearly more (the paper
        // reports ≈20% for k3s vs ≈0 for BASS).
        let worst_bass = inflation("bfs").abs().max(inflation("longest-path").abs());
        assert!(
            inflation("k3s-default") > worst_bass + 5.0,
            "k3s {} vs worst BASS {worst_bass}",
            inflation("k3s-default")
        );
    }

    #[test]
    fn medians_in_paper_regime_and_ordered() {
        let rep = run(RunMode::Quick);
        let med = |label: &str, col: &str| rep.row(label).unwrap().value(col).unwrap();
        for label in ["bfs", "longest-path", "k3s-default"] {
            let v = med(label, "median_ms_novar");
            assert!((300.0..900.0).contains(&v), "{label}: {v}");
        }
        // With variation, BFS ≤ LP < k3s (Table 2's ordering).
        assert!(med("bfs", "median_ms_var") <= med("longest-path", "median_ms_var") + 10.0);
        assert!(med("longest-path", "median_ms_var") < med("k3s-default", "median_ms_var"));
    }
}
