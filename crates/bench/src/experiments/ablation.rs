//! Extension (not a paper artifact): placement-quality ablation of the
//! ordering heuristics.
//!
//! For each application shape — the paper's three apps, the Fig. 6
//! example, and a batch of random DAGs — place with every policy and
//! report the bandwidth left crossing nodes (lower is better; this is
//! the quantity both heuristics minimize, §3.2.1). Covers the design
//! choices DESIGN.md calls out: Fig. 6-consistent edge-weight BFS vs the
//! pseudocode's cumulative variant, and the §8 hybrid heuristic.

use crate::{ExperimentReport, Row, RunMode};
use bass_appdag::{catalog, AppDag};
use bass_apps::testbeds::lan_testbed;
use bass_core::heuristics::BfsWeighting;
use bass_core::placement::crossing_bandwidth;
use bass_core::{BassScheduler, PlacementPolicy};

const POLICIES: &[(&str, PlacementPolicy)] = &[
    ("bfs-edge", PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight)),
    (
        "bfs-cumulative",
        PlacementPolicy::BreadthFirst(BfsWeighting::CumulativePath),
    ),
    ("longest-path", PlacementPolicy::LongestPath),
    ("hybrid", PlacementPolicy::Hybrid),
    (
        "k3s-default",
        PlacementPolicy::K3sDefault,
    ),
];

fn crossing_fraction(dag: &AppDag, policy: PlacementPolicy, nodes: u32, cores: u64) -> Option<f64> {
    let (mesh, mut cluster) = lan_testbed(nodes, cores);
    let placement = BassScheduler::new(policy)
        .schedule(dag, &mut cluster, &mesh)
        .ok()?;
    let total = dag.total_bandwidth().as_bps();
    if total == 0.0 {
        return Some(0.0);
    }
    Some(crossing_bandwidth(dag, &placement).as_bps() / total)
}

/// Runs the ablation.
pub fn run(mode: RunMode) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "ablation",
        "placement quality (crossing-bandwidth fraction) by heuristic — extension",
        "expectation: bandwidth-aware orderings leave less traffic on the wire than k3s. \
         Finding: the Fig. 6-consistent edge-weight BFS matches the cumulative variant on \
         chain-shaped apps, while on the fan-out-heavy social DAG the cumulative variant \
         co-locates slightly more traffic — the two genuinely trade off by DAG shape",
    );
    let random_count = match mode {
        RunMode::Full => 20u64,
        RunMode::Quick => 8,
    };

    let mut shapes: Vec<(String, AppDag, u32, u64)> = vec![
        ("camera".into(), catalog::camera_pipeline(), 3, 12),
        ("social".into(), catalog::social_network(50.0), 4, 4),
        ("fig6".into(), catalog::fig6_example(), 2, 4),
    ];
    // Random DAGs aggregate into a single averaged row per policy.
    for seed in 0..random_count {
        shapes.push((
            format!("random-{seed}"),
            catalog::random_dag(seed, 12, 0.3),
            4,
            8,
        ));
    }

    let mut random_sums: Vec<(f64, u32)> = vec![(0.0, 0); POLICIES.len()];
    for (label, dag, nodes, cores) in &shapes {
        let mut row = Row::new(label.clone());
        for (i, (pname, policy)) in POLICIES.iter().enumerate() {
            if let Some(frac) = crossing_fraction(dag, *policy, *nodes, *cores) {
                if label.starts_with("random-") {
                    random_sums[i].0 += frac;
                    random_sums[i].1 += 1;
                } else {
                    row = row.with(*pname, frac);
                }
            }
        }
        if !label.starts_with("random-") {
            report.push_row(row);
        }
    }
    let mut avg_row = Row::new(format!("random×{random_count} (mean)"));
    for (i, (pname, _)) in POLICIES.iter().enumerate() {
        let (sum, n) = random_sums[i];
        if n > 0 {
            avg_row = avg_row.with(*pname, sum / n as f64);
        }
    }
    report.push_row(avg_row);
    report.note("values are crossing bandwidth as a fraction of total DAG bandwidth (0 = fully co-located)");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_aware_beats_oblivious_on_paper_apps() {
        let rep = run(RunMode::Quick);
        for app in ["camera", "social"] {
            let row = rep.row(app).unwrap();
            let k3s = row.value("k3s-default").unwrap();
            let bfs = row.value("bfs-edge").unwrap();
            let lp = row.value("longest-path").unwrap();
            assert!(bfs <= k3s + 1e-9, "{app}: bfs {bfs} vs k3s {k3s}");
            assert!(lp <= k3s + 1e-9, "{app}: lp {lp} vs k3s {k3s}");
        }
    }

    #[test]
    fn bfs_weighting_variants_trade_off_by_shape() {
        let rep = run(RunMode::Quick);
        // On the chain-shaped apps the Fig. 6-consistent variant is not
        // worse…
        for app in ["camera", "fig6"] {
            let row = rep.row(app).unwrap();
            let edge = row.value("bfs-edge").unwrap();
            let cumulative = row.value("bfs-cumulative").unwrap();
            assert!(
                edge <= cumulative + 1e-9,
                "{app}: edge {edge} vs cumulative {cumulative}"
            );
        }
        // …and on every shape both variants stay in the same ballpark
        // (within 10 percentage points of crossing fraction).
        for row in &rep.rows {
            if let (Some(e), Some(c)) = (row.value("bfs-edge"), row.value("bfs-cumulative")) {
                assert!((e - c).abs() < 0.10, "{}: {e} vs {c}", row.label);
            }
        }
    }

    #[test]
    fn random_average_is_present_and_sane() {
        let rep = run(RunMode::Quick);
        let avg = rep.rows.last().unwrap();
        assert!(avg.label.starts_with("random"));
        for (name, _) in POLICIES {
            let v = avg.value(name).unwrap();
            assert!((0.0..=1.0).contains(&v), "{name}: {v}");
        }
    }
}
