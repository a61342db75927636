//! The BASS scheduler facade.

use crate::heuristics::{breadth_first, hybrid, longest_path, BfsWeighting, ComponentOrdering};
use crate::placement::{pack_ordering, PlacementError};
use bass_appdag::AppDag;
use bass_cluster::{baseline, Cluster, ClusterError, Placement};
use bass_mesh::Mesh;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Which placement policy the scheduler applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Algorithm 1 — modified breadth-first traversal (best for DAGs
    /// with large fan-outs).
    BreadthFirst(BfsWeighting),
    /// Algorithm 2 — weighted longest path (best for deep pipelines).
    #[default]
    LongestPath,
    /// The §8 hybrid: per-subgraph choice by fan-out, at
    /// [`HYBRID_FANOUT_THRESHOLD`].
    Hybrid,
    /// The bandwidth-oblivious k3s default scheduler (the baseline BASS
    /// is evaluated against): least-allocated, one pod at a time.
    K3sDefault,
}

impl PlacementPolicy {
    /// Parses a name [`Display`](fmt::Display) prints (`bfs` reads as
    /// edge-weighted breadth-first), or the alias `lp` or `k3s`.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names for anything else.
    pub fn parse(name: &str) -> Result<PlacementPolicy, String> {
        match name {
            "bfs" => Ok(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight)),
            "longest-path" | "lp" => Ok(PlacementPolicy::LongestPath),
            "hybrid" => Ok(PlacementPolicy::Hybrid),
            "k3s-default" | "k3s" => Ok(PlacementPolicy::K3sDefault),
            other => Err(format!(
                "unknown policy '{other}' (expected bfs, longest-path, hybrid, or k3s-default)"
            )),
        }
    }
}

/// Minimum fan-out for [`PlacementPolicy::Hybrid`] to treat a subgraph
/// as fan-out-heavy (and order it breadth-first).
pub const HYBRID_FANOUT_THRESHOLD: usize = 3;

impl fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementPolicy::BreadthFirst(_) => write!(f, "bfs"),
            PlacementPolicy::LongestPath => write!(f, "longest-path"),
            PlacementPolicy::Hybrid => write!(f, "hybrid"),
            PlacementPolicy::K3sDefault => write!(f, "k3s-default"),
        }
    }
}

/// Errors from [`BassScheduler::schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The ordering heuristic failed.
    Heuristic(crate::heuristics::HeuristicError),
    /// Packing failed.
    Placement(PlacementError),
    /// The baseline scheduler failed.
    Baseline(ClusterError),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Heuristic(e) => write!(f, "ordering failed: {e}"),
            ScheduleError::Placement(e) => write!(f, "packing failed: {e}"),
            ScheduleError::Baseline(e) => write!(f, "baseline scheduling failed: {e}"),
        }
    }
}

impl Error for ScheduleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScheduleError::Heuristic(e) => Some(e),
            ScheduleError::Placement(e) => Some(e),
            ScheduleError::Baseline(e) => Some(e),
        }
    }
}

impl From<crate::heuristics::HeuristicError> for ScheduleError {
    fn from(e: crate::heuristics::HeuristicError) -> Self {
        ScheduleError::Heuristic(e)
    }
}

impl From<PlacementError> for ScheduleError {
    fn from(e: PlacementError) -> Self {
        ScheduleError::Placement(e)
    }
}

impl From<ClusterError> for ScheduleError {
    fn from(e: ClusterError) -> Self {
        ScheduleError::Baseline(e)
    }
}

/// The BASS scheduler: waits for the whole application (the DAG) and
/// schedules all components at once (§5 "Scheduling all components at
/// once"), unlike the one-pod-at-a-time baseline.
///
/// # Examples
///
/// ```
/// use bass_appdag::catalog;
/// use bass_cluster::{Cluster, NodeSpec};
/// use bass_core::{BassScheduler, PlacementPolicy};
/// use bass_mesh::{Mesh, Topology};
/// use bass_util::prelude::*;
///
/// let dag = catalog::camera_pipeline();
/// let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(3), Bandwidth::from_mbps(100.0))?;
/// let mut cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 12, 16384)))
///     .expect("unique nodes");
/// let placement = BassScheduler::new(PlacementPolicy::LongestPath)
///     .schedule(&dag, &mut cluster, &mesh)
///     .expect("feasible");
/// assert_eq!(placement.len(), 5);
/// # Ok::<(), bass_mesh::MeshError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BassScheduler {
    policy: PlacementPolicy,
}

impl BassScheduler {
    /// Creates a scheduler with the given policy.
    pub fn new(policy: PlacementPolicy) -> Self {
        BassScheduler { policy }
    }

    /// The active policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Computes the component ordering this policy would use (without
    /// placing anything). For the k3s baseline this is plain component-id
    /// order in a single group.
    ///
    /// # Errors
    ///
    /// Returns an error for empty or cyclic graphs.
    pub fn ordering(&self, dag: &AppDag) -> Result<ComponentOrdering, ScheduleError> {
        let ordering = match self.policy {
            PlacementPolicy::BreadthFirst(w) => breadth_first(dag, w)?,
            PlacementPolicy::LongestPath => longest_path(dag)?,
            PlacementPolicy::Hybrid => hybrid(dag, HYBRID_FANOUT_THRESHOLD)?,
            PlacementPolicy::K3sDefault => {
                ComponentOrdering::new(vec![dag.component_ids().collect()])
            }
        };
        Ok(ordering)
    }

    /// Schedules the whole application onto the cluster: its
    /// [`ordering`](Self::ordering), [`place`](Self::place)d.
    ///
    /// # Errors
    ///
    /// Returns an error when the ordering cannot be computed or some
    /// component cannot be placed; the cluster may then hold a partial
    /// placement.
    pub fn schedule(
        &self,
        dag: &AppDag,
        cluster: &mut Cluster,
        mesh: &Mesh,
    ) -> Result<Placement, ScheduleError> {
        self.place(&self.ordering(dag)?, dag, cluster, mesh)
    }

    /// Places `ordering`'s components onto the cluster and returns the
    /// cluster's placement — the one placement dispatch. The k3s baseline
    /// binds them one at a time, in ordering order, with
    /// [`baseline::pick_node`] (its ordering is one group in id
    /// order, the order pods arrive in); every other policy packs the
    /// ordering with [`pack_ordering`].
    ///
    /// # Errors
    ///
    /// Returns an error when some component cannot be placed; the
    /// cluster may then hold a partial placement.
    pub fn place(
        &self,
        ordering: &ComponentOrdering,
        dag: &AppDag,
        cluster: &mut Cluster,
        mesh: &Mesh,
    ) -> Result<Placement, ScheduleError> {
        if self.policy != PlacementPolicy::K3sDefault {
            return Ok(pack_ordering(ordering, dag, cluster, mesh)?);
        }
        for &c in ordering.groups().iter().flatten() {
            let component = dag.component(c).ok_or(PlacementError::UnknownComponent(c))?;
            let node = baseline::pick_node(cluster, component.resources)?;
            cluster.place(c, component.resources, node)?;
        }
        Ok(cluster.placement())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_appdag::catalog;
    use bass_cluster::NodeSpec;
    use bass_mesh::{NodeId, Topology};
    use bass_util::units::Bandwidth;

    fn setup(n: u32, cores: u64) -> (Mesh, Cluster) {
        let mesh =
            Mesh::with_uniform_capacity(Topology::full_mesh(n), Bandwidth::from_mbps(100.0))
                .unwrap();
        let cluster = Cluster::new((0..n).map(|i| NodeSpec::cores_mb(i, cores, 16384))).unwrap();
        (mesh, cluster)
    }

    #[test]
    fn all_policies_place_camera() {
        for policy in [
            PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
            PlacementPolicy::LongestPath,
            PlacementPolicy::Hybrid,
            PlacementPolicy::K3sDefault,
        ] {
            let (mesh, mut cluster) = setup(3, 12);
            let placement = BassScheduler::new(policy)
                .schedule(&catalog::camera_pipeline(), &mut cluster, &mesh)
                .unwrap_or_else(|e| panic!("{policy}: {e}"));
            assert_eq!(placement.len(), 5, "{policy}");
            cluster.check_invariants().unwrap();
        }
    }

    #[test]
    fn parse_reads_back_every_displayed_name() {
        for policy in [
            PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
            PlacementPolicy::LongestPath,
            PlacementPolicy::Hybrid,
            PlacementPolicy::K3sDefault,
        ] {
            assert_eq!(PlacementPolicy::parse(&policy.to_string()), Ok(policy));
        }
        assert_eq!(PlacementPolicy::parse("lp"), Ok(PlacementPolicy::LongestPath));
        assert_eq!(PlacementPolicy::parse("k3s"), Ok(PlacementPolicy::K3sDefault));
        assert!(PlacementPolicy::parse("first-fit").unwrap_err().contains("unknown policy"));
    }

    #[test]
    fn k3s_baseline_spreads_while_bass_colocates() {
        let dag = catalog::camera_pipeline();
        let (mesh, mut c1) = setup(3, 16);
        let bass = BassScheduler::new(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight))
            .schedule(&dag, &mut c1, &mesh)
            .unwrap();
        let (_, mut c2) = setup(3, 16);
        let k3s = BassScheduler::new(PlacementPolicy::K3sDefault)
            .schedule(&dag, &mut c2, &mesh)
            .unwrap();
        let crossing = |p: &bass_cluster::Placement| crate::placement::crossing_bandwidth(&dag, p);
        assert!(
            crossing(&bass) < crossing(&k3s),
            "bass {:?} must beat k3s {:?}",
            crossing(&bass),
            crossing(&k3s)
        );
    }

    #[test]
    fn k3s_ordering_is_id_order() {
        let dag = catalog::fig6_example();
        let sched = BassScheduler::new(PlacementPolicy::K3sDefault);
        let order = sched.ordering(&dag).unwrap();
        let ids: Vec<u32> = order.flatten().iter().map(|c| c.0).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn default_policy_is_longest_path() {
        assert_eq!(PlacementPolicy::default(), PlacementPolicy::LongestPath);
    }

    #[test]
    fn display_names() {
        assert_eq!(
            PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight).to_string(),
            "bfs"
        );
        assert_eq!(PlacementPolicy::LongestPath.to_string(), "longest-path");
        assert_eq!(
            PlacementPolicy::K3sDefault.to_string(),
            "k3s-default"
        );
        assert_eq!(
            PlacementPolicy::Hybrid.to_string(),
            "hybrid"
        );
    }

    #[test]
    fn error_chains_are_sourced() {
        let dag = AppDag::new("empty");
        let (mesh, mut cluster) = setup(2, 4);
        let err = BassScheduler::new(PlacementPolicy::LongestPath)
            .schedule(&dag, &mut cluster, &mesh)
            .unwrap_err();
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.to_string().contains("ordering failed"));
    }

    #[test]
    fn infeasible_detector_reported() {
        let dag = catalog::camera_pipeline();
        let (mesh, mut cluster) = setup(3, 4); // detector wants 8 cores
        let err = BassScheduler::new(PlacementPolicy::LongestPath)
            .schedule(&dag, &mut cluster, &mesh)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::Placement(_)));
        let _ = NodeId(0);
    }

    use bass_appdag::AppDag;
}
