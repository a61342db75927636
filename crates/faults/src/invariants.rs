//! Conservation invariants that must hold after every tick of any run.
//!
//! Each check takes the simulator's state components directly (`Mesh`,
//! `Cluster`, an optional `Journal`) rather than a `SimEnv`, so the
//! harness is reusable from unit tests, the workspace fault suite, and
//! ad-hoc debugging without pulling the emulator into this crate.
//!
//! [`check_all`] aggregates every check and returns the full list of
//! violations instead of stopping at the first, so a failing storm test
//! reports everything that broke in the tick at once.
//!
//! To add a new invariant: write a `check_*` function returning
//! `Result<(), Vec<String>>` with one human-readable message per
//! violation, call it from [`check_all`], and document it in
//! `docs/FAULTS.md`.

use bass_cluster::Cluster;
use bass_mesh::Mesh;
use bass_obs::Journal;

/// Absolute slack, in bits per second, allowed on the capacity checks.
/// Max-min allocation works in floating-point bps; a handful of ulps of
/// drift over a 1 Gbps link is far below 16 bps.
const CAPACITY_SLACK_BPS: f64 = 16.0;

fn over_capacity(used_bps: f64, cap_bps: f64) -> bool {
    used_bps > cap_bps * (1.0 + 1e-9) + CAPACITY_SLACK_BPS
}

/// No link carries more allocated flow than its effective capacity.
///
/// "Effective" accounts for trace-driven capacity at the current (or
/// frozen) trace time and for down state: a down link has zero effective
/// capacity, so any allocation across it is a violation.
fn check_link_capacity(mesh: &Mesh) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    for (_, link) in mesh.topology().links() {
        let cap = mesh
            .link_effective_capacity(link.a, link.b)
            .expect("topology link has capacity");
        let used = mesh
            .link_usage(link.a, link.b)
            .expect("topology link has usage");
        if over_capacity(used.as_bps(), cap.as_bps()) {
            violations.push(format!(
                "link {}-{} allocated {:.1} bps over effective capacity {:.1} bps",
                link.a, link.b,
                used.as_bps(),
                cap.as_bps()
            ));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// No component is placed on a node the mesh considers down.
fn check_placement_on_up_nodes(mesh: &Mesh, cluster: &Cluster) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    for (component, node) in cluster.placement() {
        if !mesh.node_is_up(node) {
            violations.push(format!("component {component} is placed on down node {node}"));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// The cluster's resource accounting is self-consistent: tracked CPU/mem
/// allocations equal the sum over placed components and fit within every
/// node's capacity (which also rules out negative free resources).
fn check_cluster_accounting(cluster: &Cluster) -> Result<(), Vec<String>> {
    cluster.check_invariants().map_err(|msg| vec![msg])
}

/// Every `migration_triggered` journal event is resolved in the same
/// tick: the journal contains at least one `migration_target_chosen` or
/// `placement_rejected` event with the same timestamp.
///
/// The controller decides each trigger synchronously, so an unresolved
/// trigger means a migration plan was silently dropped.
fn check_triggers_resolved(journal: &Journal) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    for event in journal.events_of_kind("migration_triggered") {
        let t_s = event.t_s();
        let resolved = journal
            .events()
            .any(|e| {
                e.t_s() == t_s
                    && matches!(e.kind(), "migration_target_chosen" | "placement_rejected")
            });
        if !resolved {
            violations.push(format!(
                "migration trigger at t={t_s}s has no same-tick target/rejection event"
            ));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Runs every invariant; returns all violations found across all checks.
///
/// Pass `None` for `journal` when no journal is attached (the
/// journal-based trigger-resolution check is then skipped).
pub fn check_all(
    mesh: &Mesh,
    cluster: &Cluster,
    journal: Option<&Journal>,
) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    for result in [
        check_link_capacity(mesh),
        check_placement_on_up_nodes(mesh, cluster),
        check_cluster_accounting(cluster),
    ] {
        if let Err(mut v) = result {
            violations.append(&mut v);
        }
    }
    if let Some(journal) = journal {
        if let Err(mut v) = check_triggers_resolved(journal) {
            violations.append(&mut v);
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_mesh::{NodeId, Topology};
    use bass_obs::Event;
    use bass_util::units::Bandwidth;

    fn line_mesh() -> Mesh {
        let mut topo = Topology::new();
        for i in 0..3 {
            topo.add_node(NodeId(i)).unwrap();
        }
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        topo.add_link(NodeId(1), NodeId(2)).unwrap();
        Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(100.0)).unwrap()
    }

    #[test]
    fn healthy_mesh_passes_capacity_check() {
        let mut mesh = line_mesh();
        mesh.add_flow(NodeId(0), NodeId(2), Bandwidth::from_mbps(50.0))
            .unwrap();
        check_link_capacity(&mesh).unwrap();
    }

    #[test]
    fn down_link_with_parked_flow_still_passes() {
        // A down link has zero effective capacity; its flows must have
        // been deallocated, not left charging the dead link.
        let mut mesh = line_mesh();
        mesh.add_flow(NodeId(0), NodeId(2), Bandwidth::from_mbps(50.0))
            .unwrap();
        mesh.set_link_up(NodeId(0), NodeId(1), false).unwrap();
        mesh.set_link_up(NodeId(1), NodeId(2), false).unwrap();
        check_link_capacity(&mesh).unwrap();
    }

    #[test]
    fn trigger_without_resolution_is_flagged() {
        let mut journal = Journal::new();
        journal.record(Event::MigrationTriggered {
            t_s: 12.0,
            component: 3,
            dependency: 1,
            trigger: "Degradation".into(),
            required_mbps: 20.0,
            goodput_fraction: 0.4,
            threshold: 0.8,
        });
        let violations = check_triggers_resolved(&journal).unwrap_err();
        assert_eq!(violations.len(), 1);
        journal.record(Event::MigrationTargetChosen {
            t_s: 12.0,
            component: 3,
            from: 0,
            to: 1,
            observed_goodput_fraction: 0.4,
            degraded: true,
        });
        check_triggers_resolved(&journal).unwrap();
    }
}
