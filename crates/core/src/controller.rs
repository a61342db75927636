//! The bandwidth controller (§4.3): decides *whether* and *where* to
//! migrate, with a cooldown so transient dips do not trigger churn.
//!
//! The controller is sans-IO and holds only its own decision state:
//! each [`BassController::tick`] takes the current mesh, goodput and
//! cluster state and returns migrations as plans. Probing belongs to the
//! net-monitor (§4.2): the emulation layer runs the headroom probe (and
//! any escalated full probe) on each probe epoch, calls `tick` right
//! after it, and enacts the plans by relocating components and charging
//! restart downtime.

use crate::migration::{MigrationCandidates, MigrationConfig};
use crate::policy::{PolicyCtx, PolicyKind, RANDOM_POLICY_SEED};
use bass_appdag::{AppDag, ComponentId};
use bass_cluster::Cluster;
use bass_mesh::{Mesh, NodeId};
use bass_netmon::GoodputView;
use bass_util::rng::SimRng;
use bass_util::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Candidate-selection thresholds (Algorithm 3).
    pub migration: MigrationConfig,
    /// Minimum time between migration rounds — the §4.3 "cooldown"
    /// between detection of low bandwidth and the next migration trigger.
    pub cooldown: SimDuration,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            migration: MigrationConfig::default(),
            cooldown: SimDuration::from_secs(60),
        }
    }
}

/// One planned migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationPlan {
    /// Component to move.
    pub component: ComponentId,
    /// Node it currently occupies.
    pub from: NodeId,
    /// Chosen target node.
    pub to: NodeId,
}

/// What one controller tick decided.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControllerOutcome {
    /// The raw candidate-selection result (empty when selection did not
    /// run, e.g. during cooldown).
    pub candidates: MigrationCandidates,
    /// Concrete migrations with feasible targets.
    pub plans: Vec<MigrationPlan>,
    /// Candidates for which no feasible target node exists.
    pub unplaceable: Vec<ComponentId>,
}

/// The BASS bandwidth controller.
///
/// # Examples
///
/// ```
/// use bass_core::{BassController, ControllerConfig};
///
/// let controller = BassController::new(ControllerConfig::default());
/// assert_eq!(controller.config(), ControllerConfig::default());
/// ```
#[derive(Debug, Clone)]
pub struct BassController {
    cfg: ControllerConfig,
    policy: PolicyKind,
    /// The random policy's stream, seeded with [`RANDOM_POLICY_SEED`];
    /// no other policy draws from it.
    rng: SimRng,
    last_migration: Option<SimTime>,
}

impl BassController {
    /// Creates a controller running the default [`PolicyKind::Bass`]
    /// migration policy (the paper's behaviour).
    pub fn new(cfg: ControllerConfig) -> Self {
        Self::with_policy(cfg, PolicyKind::Bass)
    }

    /// Creates a controller running `policy` (see `docs/POLICIES.md`).
    pub fn with_policy(cfg: ControllerConfig, policy: PolicyKind) -> Self {
        BassController {
            cfg,
            policy,
            rng: SimRng::seed_from_u64(RANDOM_POLICY_SEED),
            last_migration: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> ControllerConfig {
        self.cfg
    }

    /// Resets runtime state as if the controller process restarted: the
    /// cooldown clock and the random policy's stream are lost (any
    /// in-flight migration plans die with the old process; fault
    /// injection uses this for `ControllerRestart`). The configuration
    /// and the policy survive — they are redeployed with the process, and
    /// the stream restarts from its seed.
    pub fn reset(&mut self) {
        *self = Self::with_policy(self.cfg, self.policy);
    }

    /// True when the cooldown since the last migration has elapsed.
    fn cooldown_elapsed(&self, now: SimTime) -> bool {
        match self.last_migration {
            None => true,
            Some(last) => now.saturating_since(last) >= self.cfg.cooldown,
        }
    }

    /// Runs one decision round, on a probe epoch once the probes ran.
    ///
    /// Outside the cooldown window, Algorithm 3 selects candidates and
    /// the rescheduler picks targets; inside it the outcome is empty.
    /// `headroom_fraction` is the net-monitor's setting, so the probe
    /// that just ran and Algorithm 3's triggers read one value.
    ///
    /// With a journal it narrates its decisions:
    /// [`MigrationTriggered`](bass_obs::Event::MigrationTriggered) per
    /// threshold crossing, [`MigrationTargetChosen`](bass_obs::Event::MigrationTargetChosen)
    /// per feasible plan, and [`PlacementRejected`](bass_obs::Event::PlacementRejected)
    /// per candidate with no feasible target.
    ///
    /// With a profiler it also times its decision points: candidate
    /// selection (Alg. 3) records `ctl.candidates`, and target selection
    /// (Alg. 2 per candidate) records `ctl.target_select`. Wall-clock
    /// readings never feed back into any decision, so outcomes are
    /// byte-identical with or without the profiler.
    #[allow(clippy::too_many_arguments)]
    pub fn tick(
        &mut self,
        mesh: &Mesh,
        goodput: &dyn GoodputView,
        dag: &AppDag,
        cluster: &Cluster,
        pinned: &std::collections::BTreeSet<ComponentId>,
        headroom_fraction: f64,
        mut journal: Option<&mut bass_obs::Journal>,
        mut profiler: Option<&mut bass_obs::SpanProfiler>,
    ) -> ControllerOutcome {
        let now = mesh.now();
        let mut outcome = ControllerOutcome::default();
        if !self.cooldown_elapsed(now) {
            return outcome;
        }

        let mut clock = bass_obs::PhaseClock::new(profiler.is_some());
        let ctx = PolicyCtx {
            mesh,
            dag,
            cluster,
            goodput,
            pinned,
            migration: self.cfg.migration,
            headroom_fraction,
        };
        let candidates = self.policy.find_candidates(&ctx);
        clock.lap(profiler.as_deref_mut(), "ctl.candidates");
        if let Some(j) = journal.as_deref_mut() {
            for v in &candidates.violations {
                let threshold = match v.trigger {
                    crate::migration::TriggerKind::Degradation => {
                        self.cfg.migration.goodput_threshold
                    }
                    crate::migration::TriggerKind::Utilization => {
                        self.cfg.migration.utilization_threshold
                    }
                };
                j.record(bass_obs::Event::MigrationTriggered {
                    t_s: now.as_secs_f64(),
                    component: v.component.0,
                    dependency: v.dependency.0,
                    trigger: format!("{:?}", v.trigger),
                    required_mbps: v.required.as_mbps(),
                    goodput_fraction: v.goodput_fraction,
                    threshold,
                });
            }
        }
        // One availability ranking and one scorer per round that has
        // someone to migrate; every target selection below reads them.
        let ranked = if candidates.to_migrate.is_empty() {
            Vec::new()
        } else {
            crate::ranking::rank_nodes(cluster, mesh)
        };
        let mut scorer = crate::rescheduler::Scorer::default();
        for &component in &candidates.to_migrate {
            let Some(from) = cluster.node_of(component) else {
                continue;
            };
            let observed = candidates.worst_goodput_fraction(component);
            let rng = &mut self.rng;
            match self.policy.select_target(component, observed, &ctx, &ranked, &mut scorer, rng) {
                Some(to) => {
                    if let Some(j) = journal.as_deref_mut() {
                        j.record(bass_obs::Event::MigrationTargetChosen {
                            t_s: now.as_secs_f64(),
                            component: component.0,
                            from: from.0,
                            to: to.0,
                            observed_goodput_fraction: observed,
                            degraded: self.cfg.migration.degraded(observed),
                        });
                    }
                    outcome.plans.push(MigrationPlan { component, from, to });
                }
                None => {
                    if let Some(j) = journal.as_deref_mut() {
                        j.record(bass_obs::Event::PlacementRejected {
                            t_s: now.as_secs_f64(),
                            component: component.0,
                            reason: "no feasible target".to_string(),
                        });
                    }
                    outcome.unplaceable.push(component);
                }
            }
        }
        clock.lap(profiler, "ctl.target_select");
        outcome.candidates = candidates;
        if !outcome.plans.is_empty() {
            self.last_migration = Some(now);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_appdag::catalog;
    use bass_cluster::NodeSpec;
    use bass_mesh::Topology;
    use bass_netmon::EdgeUsage;
    use std::collections::BTreeMap;
    use bass_util::units::Bandwidth;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    /// The net-monitor's default headroom setting.
    const HEADROOM: f64 = 0.2;

    /// Camera pipeline with camera+sampler on n0, rest on n1; third node
    /// n2 idle; sampler→detector edge crossing n0–n1.
    struct World {
        dag: AppDag,
        mesh: Mesh,
        cluster: Cluster,
        goodput: BTreeMap<(ComponentId, ComponentId), EdgeUsage>,
        flow: bass_mesh::FlowId,
    }

    fn world() -> World {
        let dag = catalog::camera_pipeline();
        let mut mesh =
            Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap();
        let mut cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 16, 16384))).unwrap();
        let place = |cl: &mut Cluster, name: &str, n: u32| {
            let c = dag.component_by_name(name).unwrap();
            cl.place(c.id, c.resources, NodeId(n)).unwrap();
        };
        place(&mut cluster, "camera-stream", 0);
        place(&mut cluster, "frame-sampler", 0);
        place(&mut cluster, "object-detector", 1);
        place(&mut cluster, "image-listener", 1);
        place(&mut cluster, "label-listener", 1);
        let flow = mesh.add_flow(NodeId(0), NodeId(1), mbps(6.0)).unwrap();
        World { dag, mesh, cluster, goodput: BTreeMap::new(), flow }
    }

    fn measure(w: &mut World) {
        let sampler = w.dag.component_by_name("frame-sampler").unwrap().id;
        let detector = w.dag.component_by_name("object-detector").unwrap().id;
        let usage = EdgeUsage { required: mbps(6.0), achieved: w.mesh.flow_goodput(w.flow) };
        w.goodput.insert((sampler, detector), usage);
    }

    /// One decision round over `w` at the default headroom, unjournalled.
    fn decide(ctl: &mut BassController, w: &World) -> ControllerOutcome {
        ctl.tick(&w.mesh, &w.goodput, &w.dag, &w.cluster, &Default::default(), HEADROOM, None, None)
    }

    /// `w` with the n0–n1 link degraded under the flow's 6 Mbps and
    /// measured 30 s later.
    fn degraded(mut w: World) -> World {
        w.mesh.set_link_cap(NodeId(0), NodeId(1), Some(mbps(2.0))).unwrap();
        w.mesh.advance(SimDuration::from_secs(30));
        measure(&mut w);
        w
    }

    #[test]
    fn healthy_network_plans_nothing() {
        let mut w = world();
        let mut ctl = BassController::new(ControllerConfig::default());
        w.mesh.advance(SimDuration::from_secs(30));
        measure(&mut w);
        let o = decide(&mut ctl, &w);
        assert!(o.candidates.violations.is_empty());
        assert!(o.plans.is_empty());
    }

    #[test]
    fn capacity_drop_migrates_to_the_healthy_node() {
        let w = degraded(world());
        let mut ctl = BassController::new(ControllerConfig::default());
        let o = decide(&mut ctl, &w);
        assert_eq!(o.plans.len(), 1);
        let plan = o.plans[0];
        let sampler = w.dag.component_by_name("frame-sampler").unwrap().id;
        assert_eq!(plan.component, sampler);
        assert_eq!(plan.from, NodeId(0));
        // n1 hosts the detector but the degraded n0–n1 link cannot carry
        // the 20 Mbps camera→sampler edge that would then become remote,
        // so the healthy idle node n2 is chosen instead.
        assert_eq!(plan.to, NodeId(2));
        assert_eq!(ctl.last_migration, Some(w.mesh.now()));
    }

    #[test]
    fn cooldown_suppresses_back_to_back_migrations() {
        let mut w = degraded(world());
        let mut ctl = BassController::new(ControllerConfig {
            cooldown: SimDuration::from_secs(300),
            ..Default::default()
        });
        let o1 = decide(&mut ctl, &w);
        assert_eq!(o1.plans.len(), 1);
        // Pretend the migration was NOT applied; 30 s later the same
        // violation exists but cooldown suppresses selection entirely.
        w.mesh.advance(SimDuration::from_secs(30));
        measure(&mut w);
        assert_eq!(decide(&mut ctl, &w), ControllerOutcome::default());
        // After the cooldown expires it plans again.
        for _ in 0..10 {
            w.mesh.advance(SimDuration::from_secs(30));
        }
        measure(&mut w);
        let o3 = decide(&mut ctl, &w);
        assert_eq!(o3.plans.len(), 1);
    }

    #[test]
    fn unplaceable_candidates_are_reported() {
        let mut w = world();
        let mut ctl = BassController::new(ControllerConfig::default());
        // Fill n1 and n2 to the last core so the sampler fits nowhere
        // else, then degrade its link.
        for (filler, n) in [(90u32, 1u32), (91, 2)] {
            let free = w.cluster.free_on(NodeId(n)).unwrap();
            let req = bass_appdag::ResourceReq { cpu: free.cpu, memory: free.memory };
            w.cluster.place(ComponentId(filler), req, NodeId(n)).unwrap();
        }
        let w = degraded(w);
        let o = decide(&mut ctl, &w);
        assert!(o.plans.is_empty());
        assert_eq!(o.unplaceable.len(), 1);
        // No migration was planned → cooldown clock not started.
        assert!(ctl.last_migration.is_none());
    }

    #[test]
    fn reset_clears_runtime_state_but_keeps_config() {
        let mut w = degraded(world());
        let cfg = ControllerConfig {
            cooldown: SimDuration::from_secs(300),
            ..Default::default()
        };
        let mut ctl = BassController::new(cfg);
        let o1 = decide(&mut ctl, &w);
        assert_eq!(o1.plans.len(), 1);
        assert!(ctl.last_migration.is_some());
        ctl.reset();
        assert!(ctl.last_migration.is_none());
        assert_eq!(ctl.config(), cfg);
        // With the cooldown clock lost, the restarted controller re-plans
        // immediately instead of waiting out the 300 s window.
        w.mesh.advance(SimDuration::from_secs(30));
        measure(&mut w);
        let o2 = decide(&mut ctl, &w);
        assert_eq!(o2.plans.len(), 1);
    }

    /// `rounds` decision rounds of a fresh degraded world, 60 s apart,
    /// plans never applied: the targets `ctl` picks, in order.
    fn degraded_targets(ctl: &mut BassController, rounds: usize) -> Vec<NodeId> {
        let mut w = world();
        w.mesh.set_link_cap(NodeId(0), NodeId(1), Some(mbps(2.0))).unwrap();
        let mut targets = Vec::new();
        for _ in 0..rounds {
            w.mesh.advance(SimDuration::from_secs(60));
            measure(&mut w);
            targets.extend(decide(ctl, &w).plans.iter().map(|p| p.to));
        }
        targets
    }

    #[test]
    fn reset_restarts_the_random_policy_stream() {
        let cfg = ControllerConfig { cooldown: SimDuration::ZERO, ..Default::default() };
        let fresh = degraded_targets(&mut BassController::with_policy(cfg, PolicyKind::Random), 12);
        assert_eq!(fresh.len(), 12);
        assert!(fresh.contains(&NodeId(1)) && fresh.contains(&NodeId(2)), "{fresh:?}");
        let mut ctl = BassController::with_policy(cfg, PolicyKind::Random);
        assert_eq!(degraded_targets(&mut ctl, 12), fresh);
        // Without a restart the stream continues and the draws differ;
        // after one it starts over from its seed.
        let mut continued = ctl.clone();
        assert_ne!(degraded_targets(&mut continued, 12), fresh);
        ctl.reset();
        assert_eq!(ctl.policy, PolicyKind::Random);
        assert_eq!(degraded_targets(&mut ctl, 12), fresh);
    }

    #[test]
    fn every_registered_policy_targets_an_up_node_that_fits() {
        for kind in PolicyKind::all() {
            let w = degraded(world());
            let mut ctl = BassController::with_policy(ControllerConfig::default(), kind);
            assert_eq!(ctl.policy, kind);
            for plan in &decide(&mut ctl, &w).plans {
                assert!(w.mesh.node_is_up(plan.to), "{kind:?} targeted a down node");
                assert_ne!(plan.to, plan.from, "{kind:?} migrated in place");
                let req = w.dag.component(plan.component).unwrap().resources;
                assert!(
                    w.cluster.fits(plan.to, req).unwrap(),
                    "{kind:?} targeted a node without capacity"
                );
            }
        }
    }

    #[test]
    fn bass_policy_controller_matches_the_default_construction() {
        // `new` and `with_policy(Bass)` must be the same controller.
        let run = |mut ctl: BassController| decide(&mut ctl, &degraded(world()));
        let a = run(BassController::new(ControllerConfig::default()));
        let b = run(BassController::with_policy(
            ControllerConfig::default(),
            PolicyKind::Bass,
        ));
        assert_eq!(a, b);
    }

    #[test]
    fn observed_tick_narrates_the_migration_decision() {
        let w = degraded(world());
        let mut ctl = BassController::new(ControllerConfig::default());
        let mut journal = bass_obs::Journal::new();
        let o = ctl.tick(
            &w.mesh,
            &w.goodput,
            &w.dag,
            &w.cluster,
            &Default::default(),
            HEADROOM,
            Some(&mut journal),
            None,
        );
        assert_eq!(o.plans.len(), 1);
        // Trigger, then target: the probes are the caller's to narrate.
        let kinds: Vec<&str> = journal.events().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec!["migration_triggered", "migration_target_chosen"]);
        let sampler = w.dag.component_by_name("frame-sampler").unwrap().id;
        match journal.events().last().unwrap() {
            bass_obs::Event::MigrationTargetChosen { component, from, to, degraded, .. } => {
                assert_eq!(*component, sampler.0);
                assert_eq!(*from, 0);
                assert_eq!(*to, 2);
                assert!(degraded);
            }
            other => panic!("expected MigrationTargetChosen, got {other:?}"),
        }
    }

    use bass_appdag::AppDag;
    use bass_mesh::Mesh;
    use bass_util::time::SimDuration;
}
