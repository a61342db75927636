//! Fault injection and the re-placement of what a crash displaced.

use super::{EnvError, SimEnv};
use bass_appdag::ComponentId;
use bass_core::placement::crossing_bandwidth;
use bass_core::ranking::NodeRanking;
use bass_core::scheduler::ScheduleError;
use bass_faults::Fault;

impl SimEnv {
    /// Applies one injected fault and journals it. Returns `true` when
    /// the fault was a controller restart (the controller loses its tick).
    pub(super) fn apply_fault(&mut self, fault: Fault) -> Result<bool, EnvError> {
        let mut controller_restarted = false;
        let mut detail = String::new();
        match fault {
            Fault::NodeCrash { node } => {
                self.mesh.set_node_up(node, false)?;
                let victims: Vec<ComponentId> = self
                    .cluster
                    .placement()
                    .into_iter()
                    .filter(|&(_, n)| n == node)
                    .map(|(c, _)| c)
                    .collect();
                detail = format!("evicted {} component(s)", victims.len());
                for c in victims {
                    let _ = self.cluster.evict(c);
                    self.displaced.insert(c);
                    self.bindings.rebind_touching(c, &mut self.mesh, &self.cluster, &self.dag)?;
                }
            }
            Fault::NodeRecover { node } => self.mesh.set_node_up(node, true)?,
            Fault::LinkDown { a, b } => self.mesh.set_link_up(a, b, false)?,
            Fault::LinkUp { a, b } => self.mesh.set_link_up(a, b, true)?,
            Fault::ProbeLossStart { p } => {
                // Fork a fresh stream per episode off the plan seed:
                // episode k replays identically regardless of how many
                // probes earlier episodes consumed.
                let mut root = bass_util::rng::SimRng::seed_from_u64(self.cfg.faults.seed());
                let rng = root.fork(1_000 + self.probe_loss_episodes);
                self.probe_loss_episodes += 1;
                self.netmon.set_probe_loss(p, rng);
                detail = format!("p={p}");
            }
            Fault::ProbeLossStop => self.netmon.clear_probe_loss(),
            Fault::StaleTraceStart { a, b } => self.mesh.freeze_link_trace(a, b)?,
            Fault::StaleTraceStop { a, b } => self.mesh.unfreeze_link_trace(a, b)?,
            Fault::ControllerRestart => {
                self.controller.reset();
                controller_restarted = true;
            }
        }
        if let Some(j) = self.journal.as_mut() {
            j.record(bass_obs::Event::FaultInjected {
                t_s: self.mesh.now().as_secs_f64(),
                kind: fault.kind().to_string(),
                target: fault.target(),
                detail,
            });
        }
        Ok(controller_restarted)
    }

    /// Tries to re-place every displaced component on the best-ranked up
    /// node with room; newly placed components pay a restart and have
    /// their edges rebound. The ranking is read once and only the node
    /// just placed on is re-scored: rebinding edges adds and removes
    /// flows, which move no link capacity, so each component sees
    /// exactly a fresh `rank_nodes`.
    pub(super) fn replace_displaced(&mut self) -> Result<(), EnvError> {
        if self.displaced.is_empty() {
            return Ok(());
        }
        let candidates: Vec<ComponentId> = self.displaced.iter().copied().collect();
        let mut ranking = NodeRanking::new(&self.cluster, &self.mesh);
        let mut placed_any = false;
        for c in candidates {
            let Some(comp) = self.dag.component(c) else {
                self.displaced.remove(&c);
                continue;
            };
            let resources = comp.resources;
            let target = ranking
                .nodes()
                .filter(|&n| self.mesh.node_is_up(n))
                .find(|&n| self.cluster.fits(n, resources).unwrap_or(false));
            let Some(node) = target else {
                continue; // still nowhere to go; retry next tick
            };
            self.cluster
                .place(c, resources, node)
                .map_err(|e| EnvError::Schedule(ScheduleError::Baseline(e)))?;
            ranking.refresh(&self.cluster, &self.mesh, &[node]);
            self.displaced.remove(&c);
            // The component restarts on its new node.
            self.bindings.restart(c, self.mesh.now());
            self.bindings.rebind_touching(c, &mut self.mesh, &self.cluster, &self.dag)?;
            placed_any = true;
            if let Some(j) = self.journal.as_mut() {
                j.record(bass_obs::Event::PlacementDecided {
                    t_s: self.mesh.now().as_secs_f64(),
                    component: c.0,
                    node: node.0,
                    policy: "fault-recovery".to_string(),
                    crossing_mbps: 0.0,
                });
            }
        }
        if placed_any {
            if let Some(j) = self.journal.as_mut() {
                // Recompute the crossing bandwidth of the repaired
                // placement into the journal's metric registry.
                let crossing = crossing_bandwidth(&self.dag, &self.cluster.placement());
                j.set_gauge("fault_recovery.crossing_mbps", crossing.as_mbps());
            }
        }
        Ok(())
    }
}
