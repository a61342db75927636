//! The bandwidth-oblivious baseline scheduler: the k3s default.
//!
//! k3s embeds the upstream kube-scheduler: pods are handled **one at a
//! time**; feasible nodes are filtered by resource fit and scored; the
//! default score favors the least-allocated node, spreading pods. The
//! scheduler never looks at inter-pod traffic — that is precisely the
//! blindness BASS exploits (paper §2.2). Least-allocated is the only
//! score modelled: it is the k3s default the paper compares against.

use crate::cluster::{Cluster, ClusterError, Placement};
use bass_appdag::AppDag;
use bass_mesh::NodeId;

/// Schedules every component of `dag` onto the cluster, one at a time
/// in component-id order (k8s processes pods in arrival order; a
/// manifest's pods arrive in declaration order).
///
/// # Examples
///
/// ```
/// use bass_appdag::catalog;
/// use bass_cluster::{baseline, Cluster, NodeSpec};
///
/// let mut cluster = Cluster::new(vec![
///     NodeSpec::cores_mb(1, 16, 16384),
///     NodeSpec::cores_mb(2, 16, 16384),
/// ])?;
/// let dag = catalog::camera_pipeline();
/// let placement = baseline::schedule(&dag, &mut cluster)?;
/// assert_eq!(placement.len(), 5);
/// # Ok::<(), bass_cluster::ClusterError>(())
/// ```
///
/// # Errors
///
/// Returns the first placement error (e.g. no node fits a component);
/// components placed before the failure remain placed, mirroring how
/// k8s leaves earlier pods running when a later pod is unschedulable.
pub fn schedule(dag: &AppDag, cluster: &mut Cluster) -> Result<Placement, ClusterError> {
    for component in dag.components() {
        let node = pick_node(cluster, component.resources)?;
        cluster.place(component.id, component.resources, node)?;
    }
    Ok(cluster.placement())
}

/// Picks a node for a single pod: filter by fit, then prefer the node
/// with the largest free-resource fraction (the kube-scheduler
/// `LeastAllocated` default), lowest id on a tie.
///
/// # Errors
///
/// Returns [`ClusterError::InsufficientResources`] (against the
/// best-scoring node) when nothing fits.
pub fn pick_node(cluster: &Cluster, req: bass_appdag::ResourceReq) -> Result<NodeId, ClusterError> {
    let nodes = cluster.node_ids();
    let feasible: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&n| cluster.fits(n, req).unwrap_or(false))
        .collect();
    if feasible.is_empty() {
        // Report against the emptiest node for a useful error.
        let roomiest = nodes
            .iter()
            .copied()
            .max_by(|&a, &b| free_fraction(cluster, a).total_cmp(&free_fraction(cluster, b)))
            .expect("cluster has nodes");
        return Err(ClusterError::InsufficientResources {
            node: roomiest,
            requested: req,
            free: cluster.free_on(roomiest)?,
        });
    }
    Ok(feasible
        .iter()
        .copied()
        .max_by(|&a, &b| {
            free_fraction(cluster, a)
                .total_cmp(&free_fraction(cluster, b))
                // Tie-break toward the lower node id: iterate max_by
                // keeps the *later* max, so invert on equality.
                .then(b.cmp(&a))
        })
        .expect("feasible non-empty"))
}

/// Mean of the node's free CPU and memory fractions (the kube-scheduler
/// least-allocated score, normalized to `[0, 1]`).
fn free_fraction(cluster: &Cluster, node: NodeId) -> f64 {
    let spec = cluster.node_spec(node).expect("known node");
    let free = cluster.free_on(node).expect("known node");
    let cpu_frac = if spec.capacity.cpu.as_millis() == 0 {
        0.0
    } else {
        free.cpu.as_millis() as f64 / spec.capacity.cpu.as_millis() as f64
    };
    let mem_frac = if spec.capacity.memory.as_mb() == 0 {
        0.0
    } else {
        free.memory.as_mb() as f64 / spec.capacity.memory.as_mb() as f64
    };
    (cpu_frac + mem_frac) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NodeSpec;
    use bass_appdag::{catalog, ComponentId, ResourceReq};

    fn nodes(n: u32, cores: u64) -> Vec<NodeSpec> {
        (1..=n).map(|i| NodeSpec::cores_mb(i, cores, 16384)).collect()
    }

    #[test]
    fn least_allocated_spreads() {
        let mut cluster = Cluster::new(nodes(2, 8)).unwrap();
        // Four identical pods alternate between the two nodes.
        for i in 1..=4 {
            let n = pick_node(&cluster, ResourceReq::cores_mb(1, 512)).unwrap();
            cluster.place(ComponentId(i), ResourceReq::cores_mb(1, 512), n).unwrap();
        }
        assert_eq!(cluster.components_on(NodeId(1)).len(), 2);
        assert_eq!(cluster.components_on(NodeId(2)).len(), 2);
    }

    #[test]
    fn least_allocated_tie_breaks_to_lower_id() {
        let cluster = Cluster::new(nodes(3, 8)).unwrap();
        assert_eq!(pick_node(&cluster, ResourceReq::cores_mb(1, 1)).unwrap(), NodeId(1));
    }

    #[test]
    fn respects_resource_filters() {
        let mut cluster = Cluster::new(vec![
            NodeSpec::cores_mb(1, 2, 16384),
            NodeSpec::cores_mb(2, 16, 16384),
        ])
        .unwrap();
        // An 8-core pod can only go to node 2 even though node 1 is
        // emptier in relative terms.
        let n = pick_node(&cluster, ResourceReq::cores_mb(8, 512)).unwrap();
        assert_eq!(n, NodeId(2));
        cluster.place(ComponentId(1), ResourceReq::cores_mb(8, 512), n).unwrap();
    }

    #[test]
    fn schedules_whole_dag() {
        let mut cluster = Cluster::new(nodes(3, 16)).unwrap();
        let dag = catalog::camera_pipeline();
        let placement = schedule(&dag, &mut cluster).unwrap();
        assert_eq!(placement.len(), 5);
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn unschedulable_pod_errors() {
        let mut cluster = Cluster::new(nodes(2, 2)).unwrap();
        let dag = catalog::camera_pipeline(); // detector wants 8 cores
        let err = schedule(&dag, &mut cluster).unwrap_err();
        assert!(matches!(err, ClusterError::InsufficientResources { .. }));
        // Earlier pods remain placed, as in k8s.
        assert!(cluster.placed_count() >= 1);
    }

    #[test]
    fn social_network_fits_four_d710s() {
        // The paper's §6.2.2 setup: 4 × (4-core, 12 GB) workers.
        let mut cluster = Cluster::new(nodes(4, 4)).unwrap();
        let dag = catalog::social_network(100.0);
        let placement = schedule(&dag, &mut cluster).unwrap();
        assert_eq!(placement.len(), 27);
        cluster.check_invariants().unwrap();
    }
}
