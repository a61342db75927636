//! What-if policy planning: automate the paper's "the developer is
//! expected to pick the heuristic that is best suited to the
//! application's data flow" (§3.2.1).
//!
//! The planner dry-runs every placement policy on a scratch copy of the
//! cluster, scores each by the bandwidth left crossing nodes (the
//! quantity both heuristics minimize), and reports the ranking together
//! with the DAG-shape statistics (fan-out, depth) that explain it.

use crate::placement::crossing_bandwidth;
use crate::scheduler::{BassScheduler, PlacementPolicy};
use crate::heuristics::BfsWeighting;
use bass_appdag::AppDag;
use bass_cluster::Cluster;
use bass_mesh::Mesh;
use serde::Serialize;

/// One evaluated policy.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PolicyScore {
    /// The policy.
    pub policy: PlacementPolicy,
    /// Bandwidth crossing nodes under its placement, in bps.
    pub crossing_bps: f64,
    /// Crossing bandwidth as a fraction of the DAG's total.
    pub crossing_fraction: f64,
}

/// The planner's output: every feasible policy, best first.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Recommendation {
    /// Feasible policies ranked by ascending crossing bandwidth (ties
    /// keep the evaluation order: BFS, longest-path, hybrid, k3s).
    pub ranking: Vec<PolicyScore>,
    /// The DAG's maximum fan-out (favors breadth-first when large).
    pub max_fan_out: usize,
    /// The DAG's depth in edges (favors longest-path when large).
    pub depth: usize,
}

impl Recommendation {
    /// The winning policy.
    ///
    /// # Panics
    ///
    /// Panics if no policy was feasible; check
    /// [`Recommendation::is_feasible`] first.
    pub fn best(&self) -> PlacementPolicy {
        self.ranking.first().expect("at least one feasible policy").policy
    }

    /// True when at least one policy produced a placement.
    pub fn is_feasible(&self) -> bool {
        !self.ranking.is_empty()
    }
}

/// Evaluates every policy on scratch copies of the cluster and ranks
/// them by crossing bandwidth. Policies whose placement fails (CPU or
/// memory infeasibility) are omitted.
///
/// The k3s baseline is included for reference; ties between a BASS
/// heuristic and the baseline rank the heuristic first.
///
/// # Examples
///
/// ```
/// use bass_appdag::catalog;
/// use bass_cluster::{Cluster, NodeSpec};
/// use bass_core::planner::recommend;
/// use bass_mesh::{Mesh, Topology};
/// use bass_util::prelude::*;
///
/// let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(3), Bandwidth::from_mbps(100.0))?;
/// let cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 12, 16_384)))
///     .expect("unique nodes");
/// let rec = recommend(&catalog::camera_pipeline(), &cluster, &mesh);
/// assert!(rec.is_feasible());
/// println!("use {}", rec.best());
/// # Ok::<(), bass_mesh::MeshError>(())
/// ```
pub fn recommend(dag: &AppDag, cluster: &Cluster, mesh: &Mesh) -> Recommendation {
    let policies = [
        PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
        PlacementPolicy::LongestPath,
        PlacementPolicy::Hybrid,
        PlacementPolicy::K3sDefault,
    ];
    let total = dag.total_bandwidth().as_bps();
    let mut ranking: Vec<PolicyScore> = policies
        .into_iter()
        .filter_map(|policy| {
            let mut scratch = cluster.clone();
            let placement = BassScheduler::new(policy).schedule(dag, &mut scratch, mesh).ok()?;
            let crossing = crossing_bandwidth(dag, &placement).as_bps();
            Some(PolicyScore {
                policy,
                crossing_bps: crossing,
                crossing_fraction: if total > 0.0 { crossing / total } else { 0.0 },
            })
        })
        .collect();
    ranking.sort_by(|a, b| {
        a.crossing_bps
            .total_cmp(&b.crossing_bps)
    });
    Recommendation {
        ranking,
        max_fan_out: dag.max_fan_out(),
        depth: dag.depth().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_appdag::catalog;
    use bass_cluster::NodeSpec;
    use bass_mesh::Topology;
    use bass_util::units::Bandwidth;

    fn setup(n: u32, cores: u64) -> (Mesh, Cluster) {
        let mesh =
            Mesh::with_uniform_capacity(Topology::full_mesh(n), Bandwidth::from_mbps(100.0))
                .unwrap();
        let cluster = Cluster::new((0..n).map(|i| NodeSpec::cores_mb(i, cores, 16_384))).unwrap();
        (mesh, cluster)
    }

    #[test]
    fn recommends_a_bandwidth_aware_policy_for_the_paper_apps() {
        for (dag, n, cores) in [
            (catalog::camera_pipeline(), 3, 12),
            (catalog::social_network(50.0), 4, 4),
        ] {
            let (mesh, cluster) = setup(n, cores);
            let rec = recommend(&dag, &cluster, &mesh);
            assert!(rec.is_feasible());
            assert!(
                rec.best() != PlacementPolicy::K3sDefault,
                "{}: the oblivious baseline should never win",
                dag.name()
            );
            // Ranking is sorted ascending.
            for w in rec.ranking.windows(2) {
                assert!(w[0].crossing_bps <= w[1].crossing_bps);
            }
        }
    }

    #[test]
    fn shape_statistics_are_reported() {
        let (mesh, cluster) = setup(3, 12);
        let rec = recommend(&catalog::camera_pipeline(), &cluster, &mesh);
        assert_eq!(rec.depth, 3);
        assert_eq!(rec.max_fan_out, 2);
    }

    #[test]
    fn infeasible_policies_are_omitted() {
        // Nodes too small for the detector: nothing is feasible.
        let (mesh, cluster) = setup(3, 2);
        let rec = recommend(&catalog::camera_pipeline(), &cluster, &mesh);
        assert!(!rec.is_feasible());
        assert!(rec.ranking.is_empty());
    }

    #[test]
    fn scratch_evaluation_leaves_cluster_untouched() {
        let (mesh, cluster) = setup(3, 12);
        let before = cluster.clone();
        let _ = recommend(&catalog::camera_pipeline(), &cluster, &mesh);
        assert_eq!(cluster, before);
        assert_eq!(cluster.placed_count(), 0);
    }
}
