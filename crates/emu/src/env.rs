//! The emulation environment: one application deployment, end to end.
//! Lifecycle and queries live here; `edges` binds DAG edges to mesh
//! flows, `faults` applies injected faults, `stepping` runs ticks.

mod edges;
mod faults;
mod stepping;

use crate::scenario::{Input, Scenario};
use bass_appdag::{AppDag, ComponentId};
use bass_cluster::{Cluster, MigrationRecord, Placement, RestartModel};
use bass_core::heuristics::ComponentOrdering;
use bass_core::scheduler::{BassScheduler, ScheduleError, PlacementPolicy};
use bass_core::{BassController, ControllerConfig, MigrationPlan, PolicyKind};
use bass_faults::FaultPlan;
use bass_mesh::queueing::{LOOPBACK_LATENCY, MAX_DELAY};
use bass_mesh::{FlowId, Mesh, MeshError, NodeId};
use bass_netmon::{NetMonitor, NetMonitorConfig};
use bass_obs::{ProbeKind, SpanProfiler};
use bass_util::time::{SimDuration, SimTime};
use bass_util::units::{Bandwidth, DataSize};
use edges::Bindings;
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Environment configuration.
#[derive(Debug, Clone)]
pub struct SimEnvConfig {
    /// Fixed simulation step (default 100 ms). Must be non-zero:
    /// [`SimEnv::deploy`] and [`SimEnv::run_for`] reject a zero step
    /// with [`EnvError::ZeroStep`] (the clock would never advance).
    pub step: SimDuration,
    /// Placement policy.
    pub policy: PlacementPolicy,
    /// Migration-decision policy the controller runs (the arena's
    /// registry; the default [`PolicyKind::Bass`] is the paper's).
    pub migration_policy: PolicyKind,
    /// Controller configuration (thresholds, cooldown).
    pub controller: ControllerConfig,
    /// Net-monitor configuration (probe cadence, headroom).
    pub netmon: NetMonitorConfig,
    /// Restart cost model for migrations.
    pub restart: RestartModel,
    /// Master switch for dynamic migration (off = static placement, the
    /// paper's "no migration" baselines).
    pub migrations_enabled: bool,
    /// Components that must never migrate (e.g. the pseudo-components
    /// that pin video-conference clients to their nodes).
    pub pinned: BTreeSet<ComponentId>,
    /// Deterministic fault schedule (crashes, flaps, probe loss, stale
    /// traces, controller restarts). The default empty plan injects
    /// nothing and leaves runs byte-identical to fault-free behaviour.
    /// See the `bass-faults` crate and `docs/FAULTS.md`.
    pub faults: FaultPlan,
}

impl Default for SimEnvConfig {
    fn default() -> Self {
        SimEnvConfig {
            step: SimDuration::from_millis(100),
            policy: PlacementPolicy::default(),
            migration_policy: PolicyKind::default(),
            controller: ControllerConfig::default(),
            netmon: NetMonitorConfig::default(),
            restart: RestartModel::default(),
            migrations_enabled: true,
            pinned: BTreeSet::new(),
            faults: FaultPlan::new(),
        }
    }
}

/// How one DAG edge is realized on the network right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EdgeState {
    /// Both endpoints share a node: loopback, no mesh flow.
    Local,
    /// Endpoints on different nodes: carried by this mesh flow.
    Remote(FlowId),
}

/// Environment errors.
#[derive(Debug)]
pub enum EnvError {
    /// Scheduling failed during deploy.
    Schedule(ScheduleError),
    /// A mesh operation failed.
    Mesh(MeshError),
    /// A pinned component referenced an unknown id.
    UnknownComponent(ComponentId),
    /// The application was not deployed yet.
    NotDeployed,
    /// Growing the deployment DAG failed (id collision on admission).
    Dag(bass_appdag::DagError),
    /// [`SimEnvConfig::step`] is zero: stepping would never advance the
    /// clock.
    ZeroStep,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvError::Schedule(e) => write!(f, "deploy failed: {e}"),
            EnvError::Mesh(e) => write!(f, "mesh operation failed: {e}"),
            EnvError::UnknownComponent(c) => write!(f, "unknown component {c}"),
            EnvError::NotDeployed => write!(f, "application is not deployed"),
            EnvError::Dag(e) => write!(f, "deployment dag rejected the app: {e}"),
            EnvError::ZeroStep => write!(f, "simulation step must be non-zero"),
        }
    }
}

impl Error for EnvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EnvError::Schedule(e) => Some(e),
            EnvError::Mesh(e) => Some(e),
            EnvError::Dag(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScheduleError> for EnvError {
    fn from(e: ScheduleError) -> Self {
        EnvError::Schedule(e)
    }
}

impl From<MeshError> for EnvError {
    fn from(e: MeshError) -> Self {
        EnvError::Mesh(e)
    }
}

/// Statistics accumulated over a run.
#[derive(Debug, Clone, Default)]
pub struct EnvStats {
    /// Applied migrations, in order.
    pub migrations: Vec<MigrationRecord>,
    /// Per-round (violating components, migrated components) counts —
    /// the two columns of Table 1.
    pub migration_rounds: Vec<(usize, usize)>,
    /// Migrations the controller wanted but could not place.
    pub unplaceable: u64,
    /// [`Input::Admit`]s that placed their instance.
    pub apps_admitted: u64,
    /// [`Input::Admit`]s the cluster could not host.
    pub apps_rejected: u64,
    /// Live instances an [`Input::Retire`] retired.
    pub apps_retired: u64,
    /// [`Input::Fault`]s taken off the timeline and applied.
    pub faults_injected: usize,
}

/// An instance the timeline admitted and has not retired.
#[derive(Debug, Clone)]
pub struct LiveApp {
    /// The label it was admitted under.
    pub label: String,
    /// Its application, shared with the `Admit` input.
    pub app: Arc<AppDag>,
    /// Its component ids in the deployment.
    pub components: Vec<ComponentId>,
}

/// The emulation environment.
///
/// See the crate docs for the step pipeline. Construct with
/// [`SimEnv::new`], call [`SimEnv::deploy`], then drive with
/// [`SimEnv::step`] or [`SimEnv::run_for`].
#[derive(Debug)]
pub struct SimEnv {
    cfg: SimEnvConfig,
    mesh: Mesh,
    cluster: Cluster,
    dag: AppDag,
    controller: BassController,
    netmon: NetMonitor,
    /// The configured faults and every scenario's inputs, sorted by
    /// time, and the index of the first not yet applied.
    inputs: Vec<(SimTime, Input)>,
    next_input: usize,
    /// Admitted instances not yet retired, in admission order.
    live: Vec<LiveApp>,
    bindings: Bindings,
    deployed: bool,
    stats: EnvStats,
    journal: Option<bass_obs::Journal>,
    /// Span profiler for wall-clock phase timing. Strictly write-only
    /// from the simulation's perspective: timings never feed back into
    /// any decision, so enabling it cannot change simulation results.
    spans: Option<SpanProfiler>,
    /// Components evicted by a node crash, awaiting re-placement.
    displaced: BTreeSet<ComponentId>,
    /// Probe-loss episodes started so far — each gets its own forked RNG
    /// stream off the fault plan's seed, so episode k draws identically
    /// across replays regardless of what happened in between.
    probe_loss_episodes: u64,
}

impl SimEnv {
    /// Creates an environment over a mesh, a cluster, and an application.
    pub fn new(mesh: Mesh, cluster: Cluster, dag: AppDag, cfg: SimEnvConfig) -> Self {
        let faults = cfg.faults.events().iter().map(|(t, f)| (*t, Input::Fault(f.clone())));
        let inputs = faults.collect();
        SimEnv {
            controller: BassController::with_policy(cfg.controller, cfg.migration_policy),
            netmon: NetMonitor::new(cfg.netmon),
            bindings: Bindings::new(cfg.restart),
            cfg,
            mesh,
            cluster,
            dag,
            inputs,
            next_input: 0,
            live: Vec::new(),
            deployed: false,
            stats: EnvStats::default(),
            journal: None,
            spans: None,
            displaced: BTreeSet::new(),
            probe_loss_episodes: 0,
        }
    }

    /// Adds a scenario's inputs to the timeline. Inputs at the same
    /// instant as ones already scheduled apply after them.
    pub fn set_scenario(&mut self, scenario: Scenario) {
        self.inputs.extend(scenario.inputs);
        self.inputs[self.next_input..].sort_by_key(|&(t, _)| t);
    }

    /// The faults on the timeline not yet injected, in the order they
    /// will apply, under the configured seed.
    pub fn fault_plan(&self) -> FaultPlan {
        let plan = FaultPlan::new().with_seed(self.cfg.faults.seed());
        self.inputs[self.next_input..].iter().fold(plan, |plan, (t, input)| match input {
            Input::Fault(fault) => plan.at(*t, fault.clone()),
            _ => plan,
        })
    }

    /// The [`LiveApp`]s, in admission order.
    pub fn live_apps(&self) -> &[LiveApp] {
        &self.live
    }

    /// Components currently evicted by a node crash and awaiting
    /// re-placement.
    pub fn displaced(&self) -> &BTreeSet<ComponentId> {
        &self.displaced
    }

    /// Rebuilds every derived part from the logical state, in place: the
    /// mesh by [`Mesh::rebuilt`], the cluster by [`Cluster::rebuilt`],
    /// and the edge bindings from the DAG and the placement (a binding
    /// keeps its flow id, which is logical, while that flow joins its
    /// edge's nodes). The journal and the span profiler are not
    /// simulation state and stay attached. Production never calls it: it
    /// is the reference the batteries step against.
    ///
    /// # Errors
    ///
    /// Fails if a binding's flow cannot be added or removed.
    pub fn rebuild(&mut self) -> Result<(), EnvError> {
        self.cluster = self.cluster.rebuilt();
        self.bindings.rebuild(&mut self.mesh, &self.cluster, &self.dag)?;
        self.mesh = self.mesh.rebuilt();
        Ok(())
    }

    /// Attaches a structured-event journal: from now on, every probe,
    /// capacity change, trigger, target choice, placement, and tick is
    /// recorded into it (see the `bass-obs` crate and
    /// `docs/OBSERVABILITY.md`). Without a journal the environment pays
    /// no observability cost.
    pub fn attach_journal(&mut self, journal: bass_obs::Journal) {
        // If attached after `deploy`, establish the capacity baseline
        // now so that later scenario cuts and trace drift are reported
        // as changes rather than silently becoming the baseline.
        self.mesh.emit_capacity_changes(self.journal.insert(journal), "scenario");
    }

    /// Detaches and returns the journal, if one was attached.
    pub fn take_journal(&mut self) -> Option<bass_obs::Journal> {
        self.journal.take()
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&bass_obs::Journal> {
        self.journal.as_ref()
    }

    /// Enables span profiling: from now on every [`step`](SimEnv::step)
    /// records wall-clock durations for its per-tick phases (`tick.*`),
    /// the mesh allocation interior (`mesh.*`), probe passes
    /// (`netmon.*`), the controller's decision points (`ctl.*`), and
    /// churn operations (`env.*`) — see `docs/OBSERVABILITY.md` for the
    /// span taxonomy. Timings live outside simulation state: results
    /// and journal contents are byte-identical with profiling on or off.
    pub fn enable_span_profiling(&mut self) {
        self.spans = Some(SpanProfiler::new());
    }

    /// Detaches and returns the span profiler, if profiling was enabled.
    pub fn take_span_profiler(&mut self) -> Option<SpanProfiler> {
        self.spans.take()
    }

    /// Folds an externally timed duration into the span taxonomy under
    /// `name` (no-op without profiling). Harnesses use this to account
    /// for setup work — scenario generation, mesh construction — that
    /// happens before the environment exists, so benches can separate
    /// one-time costs from stepping throughput.
    pub fn record_span(&mut self, name: &'static str, d: std::time::Duration) {
        if let Some(p) = &mut self.spans {
            p.record(name, d);
        }
    }

    /// Runs `f` with the span profiler parked in a local and lent to it
    /// apart from `self`, so `f` can time phases around `&mut self` calls.
    fn parked<T>(&mut self, f: impl FnOnce(&mut Self, Option<&mut SpanProfiler>) -> T) -> T {
        let mut spans = self.spans.take();
        let out = f(self, spans.as_mut());
        self.spans = spans;
        out
    }

    /// Runs `f` against the environment, recording its wall-clock
    /// duration as `name` when span profiling is enabled. `f` sees an
    /// environment without a profiler, so it records no interior spans.
    fn with_span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.parked(|env, spans| {
            let mut clock = bass_obs::PhaseClock::new(spans.is_some());
            let out = f(env);
            clock.lap(spans, name);
            out
        })
    }

    /// Deploys the application: an initial full probe (the paper's
    /// startup capacity probe), pinned placements, then the configured
    /// scheduler for everything else, then flow creation.
    ///
    /// # Errors
    ///
    /// Fails if the configured step is zero, a pin is unknown,
    /// scheduling fails, or flows cannot be created.
    pub fn deploy(&mut self, pins: &[(ComponentId, NodeId)]) -> Result<Placement, EnvError> {
        if self.cfg.step == SimDuration::ZERO {
            return Err(EnvError::ZeroStep);
        }
        self.with_span("env.deploy", |env| {
            env.probe(ProbeKind::Full, None);
            for &(cid, node) in pins {
                let comp = env.dag.component(cid).ok_or(EnvError::UnknownComponent(cid))?;
                env.cluster
                    .place(cid, comp.resources, node)
                    .map_err(|e| EnvError::Schedule(ScheduleError::Baseline(e)))?;
            }
            let pinned: BTreeSet<ComponentId> = pins.iter().map(|&(c, _)| c).collect();
            // An empty DAG deploys trivially — the churning-scenario entry
            // point: start with nothing and admit app instances as they
            // arrive. The heuristics reject empty graphs, so skip them.
            if env.dag.component_count() == 0 {
                env.deployed = true;
                return Ok(env.cluster.placement());
            }
            // The pins are placed; the policy places the rest.
            let unpinned = |c| (!pinned.contains(&c)).then_some(c);
            let (policy, dag) = (env.cfg.policy, &env.dag);
            place_fragment(policy, dag, unpinned, dag, &mut env.cluster, &env.mesh)?;
            env.deployed = true;
            env.bindings.bind_all(&mut env.mesh, &env.cluster, &env.dag)?;
            let placement = env.cluster.placement();
            if let Some(j) = env.journal.as_mut() {
                let crossing_mbps =
                    bass_core::placement::crossing_bandwidth(&env.dag, &placement).as_mbps();
                let policy = env.cfg.policy.to_string();
                let t_s = env.mesh.now().as_secs_f64();
                for (&component, &node) in &placement {
                    j.record(bass_obs::Event::PlacementDecided {
                        t_s,
                        component: component.0,
                        node: node.0,
                        policy: policy.clone(),
                        crossing_mbps,
                    });
                }
                // Establish the capacity baseline so later scenario/trace
                // changes are reported as deltas against deploy time.
                env.mesh.emit_capacity_changes(j, "scenario");
            }
            Ok(placement)
        })
    }

    /// Scales every edge's demand at once (open-loop load scaling).
    pub fn set_global_demand_factor(&mut self, factor: f64) {
        for e in self.dag.edges() {
            self.bindings.set_factor((e.from, e.to), factor);
        }
    }

    /// Admits a new application instance into the running deployment:
    /// absorbs `app` into the deployment DAG with all component ids
    /// shifted by `id_offset` (names prefixed `"<app name>/"`), schedules
    /// the new components with the configured policy, and binds their
    /// edges. The rest of the deployment is untouched — this is the
    /// mid-run Poisson-arrival path of churning scenarios, not a
    /// redeploy. Returns the new (shifted) component ids.
    ///
    /// On a scheduling failure the admission rolls back completely
    /// (components evicted and removed from the DAG) and the error is
    /// returned — the scenario counts it as a rejected arrival.
    ///
    /// # Errors
    ///
    /// [`EnvError::NotDeployed`] before [`SimEnv::deploy`];
    /// [`EnvError::Dag`] when `id_offset` collides with existing
    /// components; [`EnvError::Schedule`] when the cluster cannot host
    /// the instance.
    pub fn admit_app(
        &mut self,
        app: &AppDag,
        id_offset: u32,
    ) -> Result<Vec<ComponentId>, EnvError> {
        self.with_span("env.admit_app", |env| {
            if !env.deployed {
                return Err(EnvError::NotDeployed);
            }
            let prefix = format!("{}/", app.name());
            let added = env.dag.absorb(app, id_offset, &prefix).map_err(EnvError::Dag)?;
            // Order the fragment on its own shape, shifted into deployment space.
            let shift = |c: ComponentId| ComponentId(c.0 + id_offset);
            let result = (|| -> Result<(), EnvError> {
                let (policy, dag) = (env.cfg.policy, &env.dag);
                place_fragment(policy, app, |c| Some(shift(c)), dag, &mut env.cluster, &env.mesh)?;
                for e in app.edges() {
                    let key = (shift(e.from), shift(e.to));
                    env.bindings.bind(key, &mut env.mesh, &env.cluster, &env.dag)?;
                }
                Ok(())
            })();
            if let Err(e) = result {
                for &c in &added {
                    let _ = env.cluster.evict(c);
                    // Unbinds the flows bound before the failure: `c` is unplaced.
                    let _ = env.bindings.rebind_touching(c, &mut env.mesh, &env.cluster, &env.dag);
                    env.dag.remove_component(c);
                }
                return Err(e);
            }
            if let Some(j) = env.journal.as_mut() {
                j.record(bass_obs::Event::AppAdmitted {
                    t_s: env.mesh.now().as_secs_f64(),
                    app: app.name().to_string(),
                    components: added.len() as u32,
                });
            }
            Ok(added)
        })
    }

    /// Retires a running application instance: removes its mesh flows,
    /// evicts its components from the cluster, deletes them (and their
    /// edges) from the deployment DAG, and clears every per-component
    /// trace the environment keeps (restart clocks, demand factors,
    /// displaced markers). `label` is the instance
    /// name recorded in the journal.
    ///
    /// Unknown ids are skipped silently so a scenario can retire an
    /// instance whose admission was partially rejected.
    ///
    /// # Errors
    ///
    /// [`EnvError::NotDeployed`] before [`SimEnv::deploy`].
    pub fn retire_app(&mut self, label: &str, components: &[ComponentId]) -> Result<(), EnvError> {
        self.with_span("env.retire_app", |env| {
            if !env.deployed {
                return Err(EnvError::NotDeployed);
            }
            let mut removed = 0u32;
            for &c in components {
                let _ = env.cluster.evict(c);
                env.bindings.rebind_touching(c, &mut env.mesh, &env.cluster, &env.dag)?;
                if env.dag.remove_component(c) {
                    removed += 1;
                }
                env.bindings.forget(c);
                env.displaced.remove(&c);
            }
            if let Some(j) = env.journal.as_mut() {
                j.record(bass_obs::Event::AppRetired {
                    t_s: env.mesh.now().as_secs_f64(),
                    app: label.to_string(),
                    components: removed,
                });
            }
            Ok(())
        })
    }

    fn apply_migration(&mut self, plan: MigrationPlan) -> Result<(), EnvError> {
        if self.cluster.relocate(plan.component, plan.to).is_err() {
            self.stats.unplaceable += 1;
            if let Some(j) = self.journal.as_mut() {
                j.record(bass_obs::Event::PlacementRejected {
                    t_s: self.mesh.now().as_secs_f64(),
                    component: plan.component.0,
                    reason: "relocate failed".to_string(),
                });
            }
            return Ok(());
        }
        let now = self.mesh.now();
        self.bindings.restart(plan.component, now);
        self.stats.migrations.push(MigrationRecord {
            at: now,
            component: plan.component,
            from: plan.from,
            to: plan.to,
        });
        Ok(self.bindings.rebind_touching(plan.component, &mut self.mesh, &self.cluster, &self.dag)?)
    }

    // ----- queries the workload models use ---------------------------------

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.mesh.now()
    }

    /// The application DAG.
    pub fn dag(&self) -> &AppDag {
        &self.dag
    }

    /// The current placement.
    pub fn placement(&self) -> Placement {
        self.cluster.placement()
    }

    /// Immutable access to the mesh (for assertions and custom metrics).
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Mutable access to the mesh, for workloads that manage additional
    /// flows (e.g. video-conference client traffic).
    pub fn mesh_mut(&mut self) -> &mut Mesh {
        &mut self.mesh
    }

    /// Immutable access to the cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The net-monitor (probe overhead accounting etc.).
    pub fn netmon(&self) -> &NetMonitor {
        &self.netmon
    }

    /// Run statistics (migrations, rounds, failures).
    pub fn stats(&self) -> &EnvStats {
        &self.stats
    }

    /// Residual restart slowdown factor for a component (1.0 = healthy).
    pub fn slowdown(&self, c: ComponentId) -> f64 {
        self.bindings.slowdown(c, self.mesh.now())
    }

    /// Marks a component as restarted now (for restart-cost experiments
    /// like Fig. 14a, independent of any migration).
    pub fn force_restart(&mut self, c: ComponentId) {
        self.bindings.restart(c, self.mesh.now());
    }

    /// The bandwidth an edge currently achieves: its full demand when
    /// co-located, the flow's goodput when remote.
    pub fn edge_achieved(&self, from: ComponentId, to: ComponentId) -> Bandwidth {
        self.bindings.achieved((from, to), &self.mesh)
    }

    /// Loss fraction on an edge (0 when co-located).
    pub fn edge_loss(&self, from: ComponentId, to: ComponentId) -> f64 {
        match self.edge_state(from, to) {
            Some(EdgeState::Remote(f)) => self.mesh.flow_loss(f),
            _ => 0.0,
        }
    }

    /// End-to-end delay for a message of `size` on an edge, including
    /// restart downtime of either endpoint (a message sent to a
    /// restarting component waits out the remaining downtime).
    pub fn edge_delay(&self, from: ComponentId, to: ComponentId, size: DataSize) -> SimDuration {
        let now = self.mesh.now();
        let left = |c| self.bindings.downtime_left(c, now);
        let penalty = left(from).max(left(to));
        let base = match self.edge_state(from, to) {
            Some(EdgeState::Local) | None => LOOPBACK_LATENCY,
            Some(EdgeState::Remote(f)) => self.mesh.flow_message_delay(f, size).unwrap_or(MAX_DELAY),
        };
        penalty + base
    }

    /// How one DAG edge is currently realized.
    fn edge_state(&self, from: ComponentId, to: ComponentId) -> Option<EdgeState> {
        self.bindings.state((from, to))
    }
}

/// Orders `app` under `policy`, maps each component into deployment
/// space (dropping those `remap` maps to `None`) and places them.
fn place_fragment(
    policy: PlacementPolicy,
    app: &AppDag,
    remap: impl Fn(ComponentId) -> Option<ComponentId>,
    dag: &AppDag,
    cluster: &mut Cluster,
    mesh: &Mesh,
) -> Result<(), ScheduleError> {
    let scheduler = BassScheduler::new(policy);
    let groups = scheduler.ordering(app)?.groups().iter()
        .map(|g| g.iter().filter_map(|&c| remap(c)).collect::<Vec<_>>())
        .filter(|g| !g.is_empty())
        .collect();
    scheduler.place(&ComponentOrdering::new(groups), dag, cluster, mesh)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_appdag::{catalog, Component, ResourceReq};
    use bass_cluster::{baseline, NodeSpec};
    use bass_core::heuristics::BfsWeighting;
    use crate::scenario::Action;
    use bass_faults::Fault;
    use bass_mesh::Topology;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    fn camera_env(policy: PlacementPolicy) -> SimEnv {
        camera_env_with_faults(policy, FaultPlan::new())
    }

    fn camera_env_with_faults(policy: PlacementPolicy, faults: FaultPlan) -> SimEnv {
        mesh3_env(catalog::camera_pipeline(), SimEnvConfig { policy, faults, ..Default::default() })
    }

    /// `dag` on a full mesh of three 12-core nodes and 100 Mbps links.
    fn mesh3_env(dag: AppDag, cfg: SimEnvConfig) -> SimEnv {
        let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap();
        let cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 12, 16384))).unwrap();
        SimEnv::new(mesh, cluster, dag, cfg)
    }

    /// Caps the camera pipeline's frame sampler → object detector link
    /// at `cap` from `at_s` on.
    fn squeeze(env: &SimEnv, at_s: u64, cap: Option<Bandwidth>) -> Scenario {
        let placement = env.placement();
        let node = |name| placement[&env.dag().component_by_name(name).unwrap().id];
        let (a, b) = (node("frame-sampler"), node("object-detector"));
        Scenario::new().at(SimTime::from_secs(at_s), Action::CapLink { a, b, cap })
    }

    #[test]
    fn empty_dag_deploys_and_admits_apps_mid_run() {
        let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap();
        let cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 24, 32768))).unwrap();
        let mut env = SimEnv::new(mesh, cluster, AppDag::new("city"), SimEnvConfig::default());
        // Admission before deploy is refused.
        assert!(matches!(
            env.admit_app(&catalog::camera_pipeline(), 1000),
            Err(EnvError::NotDeployed)
        ));
        env.deploy(&[]).unwrap();
        env.step().unwrap();

        let added = env.admit_app(&catalog::camera_pipeline(), 1000).unwrap();
        assert_eq!(added.len(), 5);
        assert_eq!(env.dag().component_count(), 5);
        assert!(env.dag().component(ComponentId(1001)).is_some());
        // All components placed, edges bound (local or remote).
        for &c in &added {
            assert!(env.placement().contains_key(&c));
        }
        env.run_for(SimDuration::from_secs(2), |_| {}).unwrap();

        // A second instance of the same shape under a different offset.
        let added2 = env.admit_app(&catalog::camera_pipeline(), 2000).unwrap();
        assert_eq!(env.dag().component_count(), 10);
        // Colliding offset rolls back without touching what's running.
        assert!(matches!(
            env.admit_app(&catalog::camera_pipeline(), 1000),
            Err(EnvError::Dag(_))
        ));
        assert_eq!(env.dag().component_count(), 10);

        env.retire_app("camera-0", &added).unwrap();
        assert_eq!(env.dag().component_count(), 5);
        for &c in &added {
            assert!(!env.placement().contains_key(&c));
        }
        // The survivor keeps running fine.
        env.run_for(SimDuration::from_secs(2), |_| {}).unwrap();
        for e in env.dag().clone().edges() {
            assert!((env.edge_achieved(e.from, e.to).as_mbps() - e.bandwidth.as_mbps()).abs() < 1e-6);
        }
        drop(added2);
    }

    #[test]
    fn rejected_admission_rolls_back_cleanly() {
        // A cluster too small for the social network: admission must fail
        // and leave zero residue (components, flows, placements).
        let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(2), mbps(100.0)).unwrap();
        let cluster = Cluster::new((0..2).map(|i| NodeSpec::cores_mb(i, 2, 2048))).unwrap();
        let mut env = SimEnv::new(mesh, cluster, AppDag::new("city"), SimEnvConfig::default());
        env.deploy(&[]).unwrap();
        let flows_before = env.mesh().flow_count();
        assert!(matches!(
            env.admit_app(&catalog::social_network(50.0), 5000),
            Err(EnvError::Schedule(_))
        ));
        assert_eq!(env.dag().component_count(), 0);
        assert!(env.placement().is_empty());
        assert_eq!(env.mesh().flow_count(), flows_before);
        // The environment still steps.
        env.run_for(SimDuration::from_secs(1), |_| {}).unwrap();
        // Off the timeline: the rejection is counted, and retiring the
        // instance it never admitted does nothing and counts nothing.
        env.attach_journal(bass_obs::Journal::new());
        let (app, label) = (Arc::new(catalog::social_network(50.0)), "social-0".to_string());
        let admit = Input::Admit { label: label.clone(), app, offset: 5000 };
        let at = SimTime::from_secs;
        env.set_scenario(Scenario::new().at(at(2), admit).at(at(3), Input::Retire { label }));
        env.run_for(SimDuration::from_secs(5), |_| {}).unwrap();
        let stats = env.stats();
        assert_eq!((stats.apps_admitted, stats.apps_rejected, stats.apps_retired), (0, 1, 0));
        assert!(env.live_apps().is_empty() && env.dag().component_count() == 0);
        let journal = env.journal().unwrap();
        assert_eq!((journal.count("app_admitted"), journal.count("app_retired")), (0, 0));
    }

    #[test]
    fn k3s_admission_places_like_a_fresh_baseline_and_rolls_back_cleanly() {
        let k3s_env = |dag: AppDag, nodes: u32, cores: u64| {
            let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(nodes), mbps(100.0)).unwrap();
            let specs = (0..nodes).map(|i| NodeSpec::cores_mb(i, cores, 1024 * cores));
            let cfg = SimEnvConfig { policy: PlacementPolicy::K3sDefault, ..Default::default() };
            let mut env = SimEnv::new(mesh, Cluster::new(specs).unwrap(), dag, cfg);
            env.deploy(&[]).unwrap();
            env
        };
        let app = catalog::camera_pipeline();
        let mut env = k3s_env(catalog::camera_pipeline(), 3, 24);
        env.step().unwrap();
        // A fresh baseline scheduler on a copy of the pre-admission
        // cluster, fed the app under its deployment ids.
        let mut shifted = AppDag::new("expected");
        shifted.absorb(&app, 1000, "").unwrap();
        let mut cluster = env.cluster().clone();
        let expected = baseline::schedule(&shifted, &mut cluster).unwrap();
        let added = env.admit_app(&app, 1000).unwrap();
        assert_eq!(added.len(), app.component_count());
        let placement = env.placement();
        for c in &added {
            assert_eq!(placement[c], expected[c], "component {c}");
        }
        // Out of room part-way: the admission leaves nothing behind.
        let mut env = k3s_env(AppDag::new("city"), 2, 2);
        let before = env.cluster().clone();
        let err = env.admit_app(&catalog::social_network(50.0), 5000).unwrap_err();
        assert!(matches!(err, EnvError::Schedule(ScheduleError::Baseline(_))), "{err}");
        assert_eq!(env.cluster(), &before);
        assert_eq!(env.dag().component_count(), 0);
        assert_eq!(env.mesh().flow_count(), 0);
        env.run_for(SimDuration::from_secs(1), |_| {}).unwrap();
    }

    /// Rebuilds `env` and asserts that nothing observable moved: the
    /// placement, every DAG edge's achieved bandwidth, delay and loss,
    /// and the flow count.
    fn assert_rebuild_is_invisible(env: &mut SimEnv, after: &str) {
        let observe = |env: &SimEnv| {
            let edge = |(a, b)| {
                let achieved = env.edge_achieved(a, b).as_bps().to_bits();
                let delay = env.edge_delay(a, b, DataSize::from_bytes(64_000));
                (achieved, delay, env.edge_loss(a, b).to_bits())
            };
            let edges: Vec<_> = env.dag.edges().iter().map(|e| edge((e.from, e.to))).collect();
            (env.placement(), edges, env.mesh.flow_count())
        };
        let before = observe(env);
        env.rebuild().unwrap();
        assert_eq!(observe(env), before, "a rebuild after {after} moved an observable");
    }

    #[test]
    fn stored_edge_requirements_track_the_dag_through_churn() {
        let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(4), mbps(100.0)).unwrap();
        let cluster = Cluster::new((0..4).map(|i| NodeSpec::cores_mb(i, 16, 32768))).unwrap();
        let mut env = SimEnv::new(mesh, cluster, AppDag::new("city"), SimEnvConfig::default());
        env.deploy(&[]).unwrap();
        let first = env.admit_app(&catalog::camera_pipeline(), 1000).unwrap();
        assert_rebuild_is_invisible(&mut env, "an admission");
        let second = env.admit_app(&catalog::camera_pipeline(), 2000).unwrap();
        env.run_for(SimDuration::from_secs(2), |_| {}).unwrap();
        assert_rebuild_is_invisible(&mut env, "a second admission and two seconds");

        // An instance one of whose components fits no node: the
        // admission fails after absorbing it and rolls back.
        let mut hog = AppDag::new("hog");
        hog.add_component(Component::new(ComponentId(1), "small", ResourceReq::cores_mb(1, 128)))
            .unwrap();
        hog.add_component(Component::new(ComponentId(2), "huge", ResourceReq::cores_mb(64, 128)))
            .unwrap();
        hog.add_edge(ComponentId(1), ComponentId(2), mbps(5.0)).unwrap();
        assert!(matches!(env.admit_app(&hog, 3000), Err(EnvError::Schedule(_))));
        assert_rebuild_is_invisible(&mut env, "a rolled-back admission");

        let moved = second[0];
        let from = env.cluster.node_of(moved).unwrap();
        let resources = env.dag.component(moved).unwrap().resources;
        let to = (0..4)
            .map(NodeId)
            .find(|&n| n != from && env.cluster.fits(n, resources).unwrap_or(false))
            .unwrap();
        env.apply_migration(MigrationPlan { component: moved, from, to }).unwrap();
        assert_eq!(env.cluster.node_of(moved), Some(to));
        assert_rebuild_is_invisible(&mut env, "a migration");

        // A crash evicts and unbinds; the next tick re-places and rebinds.
        let crashed = env.cluster.node_of(second[1]).unwrap();
        env.apply_fault(Fault::NodeCrash { node: crashed }).unwrap();
        assert!(env.displaced.contains(&second[1]));
        assert_rebuild_is_invisible(&mut env, "a node crash");
        env.step().unwrap();
        assert!(env.displaced.is_empty());
        assert_rebuild_is_invisible(&mut env, "a re-placement after a crash");

        env.retire_app("camera-0", &first).unwrap();
        assert_rebuild_is_invisible(&mut env, "a retirement");
        // The retired instance's ids come back with the next admission.
        env.admit_app(&catalog::camera_pipeline(), 1000).unwrap();
        assert_rebuild_is_invisible(&mut env, "an admission reusing retired ids");

        env.bindings.bind_all(&mut env.mesh, &env.cluster, &env.dag).unwrap();
        env.run_for(SimDuration::from_secs(2), |_| {}).unwrap();
        assert_rebuild_is_invisible(&mut env, "a full rebind and two seconds");
    }

    #[test]
    fn span_profiling_never_changes_simulation_outputs() {
        // Identical envs, one with span profiling: journals (the full
        // decision record) must match byte for byte.
        let run = |profiled: bool| {
            let mut env = camera_env(PlacementPolicy::LongestPath);
            env.attach_journal(bass_obs::Journal::new());
            if profiled {
                env.enable_span_profiling();
            }
            env.deploy(&[]).unwrap();
            // Full steps only: `run_for` would time no phase of the
            // quiet ticks whose spans are asserted below.
            for _ in 0..50 {
                env.step().unwrap();
            }
            let journal = env.take_journal().unwrap();
            (journal.export_jsonl(), env.take_span_profiler())
        };
        let (plain_journal, no_profiler) = run(false);
        let (profiled_journal, profiler) = run(true);
        assert!(no_profiler.is_none());
        assert_eq!(plain_journal, profiled_journal);

        // The profiler saw every unconditional tick phase plus the
        // deploy churn span and the mesh allocation interior.
        let profiler = profiler.expect("profiler was enabled");
        for span in [
            "tick.faults",
            "tick.scenario",
            "tick.demand",
            "tick.controller",
            "tick.migrate",
            "tick.finalize",
            "mesh.queues",
            "mesh.cap_diff",
            "mesh.component_scan",
            "mesh.water_fill",
            "mesh.usage_views",
            "env.deploy",
            "netmon.headroom_probe",
        ] {
            let stats = profiler
                .stats(span)
                .unwrap_or_else(|| panic!("span {span} missing"));
            assert!(stats.count > 0, "span {span} never completed");
        }
        assert_eq!(profiler.stats("env.deploy").unwrap().count, 1);
        // Every allocation, an index rebuild's included, fills after one
        // component scan.
        let count = |span| profiler.stats(span).unwrap().count;
        assert_eq!(count("mesh.water_fill"), count("mesh.component_scan"));
        // 5 s at the default step → one instance of each tick phase per
        // tick; the controller and migrations only on probed ticks.
        assert_eq!(count("tick.finalize"), 50);
        assert_eq!(count("tick.faults"), 50);
        let probes = count("netmon.headroom_probe");
        assert_eq!(count("tick.controller"), probes);
        assert_eq!(count("tick.migrate"), probes);
    }

    #[test]
    fn deploy_creates_flows_for_crossing_edges_only() {
        let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        env.deploy(&[]).unwrap();
        // BFS: {camera, sampler} | {detector, image, label} — only the
        // sampler→detector edge crosses.
        let dag = env.dag().clone();
        let id = |n: &str| dag.component_by_name(n).unwrap().id;
        assert_eq!(
            env.edge_state(id("camera-stream"), id("frame-sampler")),
            Some(EdgeState::Local)
        );
        assert!(matches!(
            env.edge_state(id("frame-sampler"), id("object-detector")),
            Some(EdgeState::Remote(_))
        ));
        assert_eq!(
            env.edge_state(id("object-detector"), id("image-listener")),
            Some(EdgeState::Local)
        );
        assert_eq!(env.mesh().flow_count(), 1);
    }

    #[test]
    fn healthy_run_achieves_all_edges() {
        let mut env = camera_env(PlacementPolicy::LongestPath);
        env.deploy(&[]).unwrap();
        env.run_for(SimDuration::from_secs(5), |_| {}).unwrap();
        let dag = env.dag().clone();
        for e in dag.edges() {
            let achieved = env.edge_achieved(e.from, e.to);
            assert!(
                (achieved.as_mbps() - e.bandwidth.as_mbps()).abs() < 1e-6,
                "edge {}→{} achieved {achieved}",
                e.from,
                e.to
            );
            assert_eq!(env.edge_loss(e.from, e.to), 0.0);
        }
        assert!(env.stats().migrations.is_empty());
    }

    #[test]
    fn link_squeeze_triggers_migration_and_recovery() {
        let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        env.deploy(&[]).unwrap();
        let dag = env.dag().clone();
        let id = |n: &str| dag.component_by_name(n).unwrap().id;
        // Squeeze the crossing link 60 s in, forever.
        env.set_scenario(squeeze(&env, 60, Some(mbps(2.0))));
        env.run_for(SimDuration::from_secs(300), |_| {}).unwrap();
        assert!(
            !env.stats().migrations.is_empty(),
            "controller must migrate off the squeezed link"
        );
        // After recovery the crossing edge achieves its demand again.
        let achieved = env.edge_achieved(id("frame-sampler"), id("object-detector"));
        assert!(
            achieved.as_mbps() > 5.9,
            "post-migration goodput {achieved}"
        );
    }

    #[test]
    fn migrations_can_be_disabled() {
        let cfg = SimEnvConfig {
            policy: PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
            migrations_enabled: false,
            ..Default::default()
        };
        let mut env = mesh3_env(catalog::camera_pipeline(), cfg);
        env.deploy(&[]).unwrap();
        let dag = env.dag().clone();
        let id = |n: &str| dag.component_by_name(n).unwrap().id;
        env.set_scenario(squeeze(&env, 10, Some(mbps(2.0))));
        env.run_for(SimDuration::from_secs(200), |_| {}).unwrap();
        assert!(env.stats().migrations.is_empty());
        let achieved = env.edge_achieved(id("frame-sampler"), id("object-detector"));
        assert!(achieved.as_mbps() < 2.1, "stuck on squeezed link");
    }

    #[test]
    fn restart_downtime_zeroes_demand_and_penalizes_delay() {
        let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        env.deploy(&[]).unwrap();
        let dag = env.dag().clone();
        let id = |n: &str| dag.component_by_name(n).unwrap().id;
        env.run_for(SimDuration::from_secs(2), |_| {}).unwrap();
        env.force_restart(id("object-detector"));
        assert!(env.bindings.down(id("object-detector"), env.now()));
        env.step().unwrap();
        // Demand of edges touching the detector collapses to zero.
        assert!(env
            .edge_achieved(id("frame-sampler"), id("object-detector"))
            .is_zero());
        // Delay includes remaining downtime.
        let d = env.edge_delay(
            id("frame-sampler"),
            id("object-detector"),
            DataSize::from_kilobytes(10),
        );
        assert!(d > SimDuration::from_secs(3), "delay {d}");
        // After the restart model's recovery window everything heals.
        env.run_for(SimDuration::from_secs(20), |_| {}).unwrap();
        assert!(!env.bindings.down(id("object-detector"), env.now()));
        assert_eq!(env.slowdown(id("object-detector")), 1.0);
    }

    #[test]
    fn pinned_components_deploy_and_never_migrate() {
        // The camera on n2 streams 20 Mbps to the sampler on n0 until
        // their link is squeezed to 2 Mbps: the camera is the edge's
        // producer, so only its pin keeps it from being the candidate.
        let dag = catalog::camera_pipeline();
        let id = |name| dag.component_by_name(name).unwrap().id;
        let (camera, sampler) = (id("camera-stream"), id("frame-sampler"));
        let migrations = |migration_policy, pinned: &[ComponentId]| {
            let cfg = SimEnvConfig {
                policy: PlacementPolicy::LongestPath,
                migration_policy,
                pinned: pinned.iter().copied().collect(),
                ..Default::default()
            };
            let mut env = mesh3_env(dag.clone(), cfg);
            let placement = env.deploy(&[(camera, NodeId(2)), (sampler, NodeId(0))]).unwrap();
            assert_eq!((placement[&camera], placement[&sampler]), (NodeId(2), NodeId(0)));
            assert_eq!(placement.len(), 5);
            let cap = Some(mbps(2.0));
            let squeeze = Action::CapLink { a: NodeId(2), b: NodeId(0), cap };
            env.set_scenario(Scenario::new().at(SimTime::from_secs(10), squeeze));
            env.run_for(SimDuration::from_secs(100), |_| {}).unwrap();
            env.stats().migrations.clone()
        };
        for kind in PolicyKind::all() {
            let moved = |records: &[MigrationRecord]| records.iter().any(|m| m.component == camera);
            // Control: unpinned, the same squeeze moves the camera.
            assert!(moved(&migrations(kind, &[])), "{kind}: the squeeze must move the camera");
            let pinned = migrations(kind, &[camera]);
            assert!(!moved(&pinned), "{kind} migrated the pinned camera: {pinned:?}");
            assert!(!pinned.is_empty(), "{kind}: the consumer must move instead");
        }
    }

    #[test]
    fn demand_factor_scales_offered_load() {
        let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        env.deploy(&[]).unwrap();
        let dag = env.dag().clone();
        let id = |n: &str| dag.component_by_name(n).unwrap().id;
        env.set_global_demand_factor(0.5);
        env.run_for(SimDuration::from_secs(2), |_| {}).unwrap();
        let achieved = env.edge_achieved(id("frame-sampler"), id("object-detector"));
        assert!((achieved.as_mbps() - 3.0).abs() < 1e-6, "{achieved}");
    }

    #[test]
    fn table1_style_round_accounting() {
        let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        env.deploy(&[]).unwrap();
        env.set_scenario(squeeze(&env, 30, Some(mbps(2.0))));
        env.run_for(SimDuration::from_secs(200), |_| {}).unwrap();
        let rounds = &env.stats().migration_rounds;
        assert!(!rounds.is_empty());
        // Each round migrated no more components than violated.
        for &(violating, migrated) in rounds {
            assert!(migrated <= violating);
        }
    }

    #[test]
    fn node_crash_evicts_and_recovery_replaces() {
        let policy = PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight);
        // Placement is deterministic: a fault-free deploy names the node
        // the detector lands on, which the crash plan then targets.
        let mut probe = camera_env(policy);
        let placement = probe.deploy(&[]).unwrap();
        let dag = probe.dag().clone();
        let id = |n: &str| dag.component_by_name(n).unwrap().id;
        let victim_node = placement[&id("object-detector")];
        let victims: Vec<ComponentId> = placement
            .iter()
            .filter(|&(_, &n)| n == victim_node)
            .map(|(&c, _)| c)
            .collect();
        let (crash, recover) = (SimTime::from_secs(10), SimTime::from_secs(40));
        let plan = FaultPlan::new().node_crash(victim_node, crash, recover);
        let mut env = camera_env_with_faults(policy, plan);
        env.attach_journal(bass_obs::Journal::new());
        assert_eq!(env.deploy(&[]).unwrap(), placement);
        // While the node is down the victims are either displaced or
        // re-placed on surviving nodes — never on the down node.
        env.run_for(SimDuration::from_secs(20), |e| {
            for (c, n) in e.placement() {
                assert!(e.mesh().node_is_up(n), "{c} placed on down node {n}");
            }
        })
        .unwrap();
        assert!(!env.mesh().node_is_up(victim_node));
        for &c in &victims {
            let on_down = env.placement().get(&c) == Some(&victim_node);
            assert!(!on_down, "{c} still on crashed node");
        }
        // After recovery everything is placed somewhere and heals.
        env.run_for(SimDuration::from_secs(60), |_| {}).unwrap();
        assert!(env.mesh().node_is_up(victim_node));
        assert!(env.displaced().is_empty(), "all components re-placed");
        assert_eq!(env.placement().len(), 5);
        env.cluster().check_invariants().unwrap();
        let journal = env.journal().unwrap();
        assert_eq!(journal.count("fault_injected"), 2);
        let kinds: Vec<String> = journal
            .events_of_kind("fault_injected")
            .map(|e| match e {
                bass_obs::Event::FaultInjected { kind, .. } => kind.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kinds, ["node_crash", "node_recover"]);
        // Every eviction-driven re-placement was journalled.
        assert!(journal
            .events_of_kind("placement_decided")
            .any(|e| matches!(e, bass_obs::Event::PlacementDecided { policy, .. } if policy == "fault-recovery")));
    }

    #[test]
    fn the_goodput_view_reads_bound_edges_live_and_unbound_ones_as_none() {
        use bass_netmon::GoodputView;
        let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        env.deploy(&[]).unwrap();
        env.set_global_demand_factor(0.5);
        env.run_for(SimDuration::from_secs(5), |_| {}).unwrap();
        let dag = env.dag().clone();
        let view = env.bindings.goodput(&env.mesh);
        for e in dag.edges() {
            let usage = view.usage(e.from, e.to).expect("every placed edge is bound");
            assert_eq!(usage.required, dag.bandwidth_between(e.from, e.to).scale(0.5));
            assert_eq!(usage.achieved, env.edge_achieved(e.from, e.to));
        }
        // Evict the detector as a node crash does: its edges unbind and
        // read as no measurement, whatever they achieved before.
        let detector = dag.component_by_name("object-detector").unwrap().id;
        env.cluster.evict(detector).unwrap();
        env.bindings.rebind_touching(detector, &mut env.mesh, &env.cluster, &env.dag).unwrap();
        let view = env.bindings.goodput(&env.mesh);
        for e in dag.edges() {
            let touches = e.from == detector || e.to == detector;
            assert_eq!(view.usage(e.from, e.to).is_none(), touches, "{} → {}", e.from, e.to);
        }
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_none() {
        let run = |with_empty_plan: bool| {
            let faults = if with_empty_plan {
                FaultPlan::new().with_seed(99)
            } else {
                FaultPlan::new()
            };
            let policy = PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight);
            let mut env = camera_env_with_faults(policy, faults);
            env.attach_journal(bass_obs::Journal::new());
            env.deploy(&[]).unwrap();
            env.run_for(SimDuration::from_secs(30), |_| {}).unwrap();
            env.take_journal().unwrap().export_jsonl()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn controller_restart_loses_the_tick_and_the_cooldown() {
        // The restart applies on the tick that ends at the 30.1 s probe
        // epoch: that tick neither probes nor decides, the next one
        // does, and the epochs count on from it.
        let plan = FaultPlan::new().controller_restart(SimTime::from_secs(30));
        let policy = PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight);
        let mut env = camera_env_with_faults(policy, plan);
        env.attach_journal(bass_obs::Journal::new());
        env.deploy(&[]).unwrap();
        env.run_for(SimDuration::from_secs(70), |_| {}).unwrap();
        let headroom: Vec<u64> =
            probe_log(&env).into_iter().filter(|p| !p.1).map(|p| p.0).collect();
        assert_eq!(headroom, [1, 302, 602]);
        let journal = env.journal().unwrap();
        assert_eq!(journal.count("fault_injected"), 1);
        match journal.events_of_kind("fault_injected").next().unwrap() {
            bass_obs::Event::FaultInjected { kind, target, .. } => {
                assert_eq!(kind, "controller_restart");
                assert_eq!(target, "controller");
            }
            _ => unreachable!(),
        };
    }

    /// An empty `mesh3_env` deployment on 1 s ticks; node 1 crashes at `crash`.
    fn one_second_env(crash: SimTime) -> SimEnv {
        let faults = FaultPlan::new().node_crash(NodeId(1), crash, SimTime::from_secs(20));
        let cfg = SimEnvConfig { step: SimDuration::from_secs(1), faults, ..Default::default() };
        let mut env = mesh3_env(AppDag::new("city"), cfg);
        env.attach_journal(bass_obs::Journal::new());
        env.deploy(&[]).unwrap();
        env
    }

    #[test]
    fn inputs_inside_one_tick_apply_workload_first() {
        // An arrival at 10.7 s and a crash at 10.3 s both apply on the
        // tick whose pre-advance clock is 11 s: the admission first, then
        // the crash (which evicts what it just placed on node 1).
        let camera = Arc::new(catalog::camera_pipeline());
        let mut env = one_second_env(SimTime::from_millis(10_300));
        let admit = Input::Admit { label: "camera-0".into(), app: camera.clone(), offset: 1000 };
        env.set_scenario(Scenario::new().at(SimTime::from_millis(10_700), admit));
        let mut seen = Vec::new();
        env.run_for(SimDuration::from_secs(30), |e| {
            let left = e.fault_plan();
            assert_eq!(2 - left.remaining(), e.stats().faults_injected);
            seen.push((e.live_apps().len(), left.events().first().map(|(t, _)| t.as_millis())));
        })
        .unwrap();
        // Tick k ends at k + 1 s; the plan reports what is still to come.
        let expected = ((0, Some(10_300)), (1, Some(20_000)), (1, None));
        assert_eq!((seen[10], seen[11], seen[20]), expected);
        let timeline = env.take_journal().unwrap().export_jsonl();
        let at = |event: &str| timeline.find(event).unwrap();
        assert!(at(r#"{"AppAdmitted":{"t_s":11,"#) < at(r#"{"FaultInjected":{"t_s":11,"#));

        // The hand-driven reference: the crash due on that tick, the
        // admission made by hand just before it, every tick stepped.
        let mut env = one_second_env(SimTime::from_secs(11));
        for tick in 0..30 {
            if tick == 11 {
                env.admit_app(&camera, 1000).unwrap();
            }
            env.step().unwrap();
        }
        assert_eq!(env.take_journal().unwrap().export_jsonl(), timeline);
    }

    #[test]
    fn bad_inputs_fail_one_step_without_wedging() {
        // A bad fault and a bad action, each due with a good one of its
        // kind: a step fails on one bad input, the next applies the rest.
        // The good fault comes from the scenario, not the configured plan.
        let (zero, n) = (SimTime::ZERO, NodeId);
        let faults = FaultPlan::new().at(zero, Fault::LinkDown { a: n(0), b: n(9) });
        let mut env = camera_env_with_faults(PlacementPolicy::LongestPath, faults);
        env.deploy(&[]).unwrap();
        env.set_scenario(
            Scenario::new()
                .at(zero, Input::Fault(Fault::LinkDown { a: n(1), b: n(2) }))
                .at(zero, Action::CapNodeEgress { node: n(9), cap: None })
                .at(zero, Action::CapLink { a: n(0), b: n(1), cap: Some(mbps(1.0)) }),
        );
        assert_eq!(env.fault_plan().remaining(), 2);
        assert!(env.step().is_err(), "the bad fault fails the first step");
        assert_eq!((env.stats().faults_injected, env.fault_plan().remaining()), (1, 1));
        assert!(env.step().is_err(), "the bad action fails the second");
        assert!(!env.mesh().link_is_up(n(1), n(2)));
        assert_eq!(env.mesh().link_capacity(n(0), n(1)).unwrap(), mbps(100.0));
        env.step().unwrap();
        assert_eq!(env.mesh().link_capacity(n(0), n(1)).unwrap(), mbps(1.0));
        assert_eq!((env.stats().faults_injected, env.fault_plan().remaining()), (2, 0));
    }

    #[test]
    fn shaping_applies_in_time_order_on_the_pre_advance_clock() {
        // A link cap and a node-egress window over a 50 Mbps flow, added
        // out of order: each holds from the tick whose pre-advance clock
        // reaches it.
        let mut env = mesh3_env(AppDag::new("empty"), SimEnvConfig::default());
        env.deploy(&[]).unwrap();
        let f = env.mesh_mut().add_flow(NodeId(2), NodeId(0), mbps(50.0)).unwrap();
        let cap_link = |cap| Action::CapLink { a: NodeId(0), b: NodeId(1), cap };
        let (t10, t20) = (SimTime::from_secs(10), SimTime::from_secs(20));
        env.set_scenario(
            Scenario::new()
                .at(t20, cap_link(None))
                .restrict_node_egress(NodeId(2), t10, t20, mbps(25.0))
                .at(t10, cap_link(Some(mbps(5.0)))),
        );
        let mut seen = Vec::new();
        env.run_for(SimDuration::from_secs(60), |e| {
            let mesh = e.mesh();
            seen.push((mesh.link_capacity(NodeId(0), NodeId(1)).unwrap(), mesh.flow_rate(f)));
        })
        .unwrap();
        // Tick k runs on pre-advance clock k × 100 ms.
        assert_eq!(seen[99], (mbps(100.0), mbps(50.0)));
        assert_eq!((seen[100], seen[199]), ((mbps(5.0), mbps(25.0)), (mbps(5.0), mbps(25.0))));
        // The backlog built up in the window drains above the demand;
        // then goodput is back at demand.
        assert!(seen[200].0 == mbps(100.0) && seen[200].1 > mbps(50.0));
        assert_eq!(env.mesh().flow_goodput(f), mbps(50.0));
    }

    #[test]
    #[should_panic(expected = "deploy")]
    fn step_before_deploy_panics() {
        let mut env = camera_env(PlacementPolicy::LongestPath);
        let _ = env.step();
    }

    #[test]
    fn journal_reconstructs_the_migration_decision() {
        let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        env.attach_journal(bass_obs::Journal::new());
        env.deploy(&[]).unwrap();
        // Deploy narrates one initial full probe and every binding.
        assert_eq!(env.journal().unwrap().count("probe_completed"), 1);
        assert_eq!(env.journal().unwrap().count("placement_decided"), 5);
        env.set_scenario(squeeze(&env, 60, Some(mbps(2.0))));
        env.run_for(SimDuration::from_secs(120), |_| {}).unwrap();
        assert!(!env.stats().migrations.is_empty());
        let journal = env.take_journal().unwrap();
        // The squeeze is visible as a scenario-caused capacity change …
        let cut = journal
            .events()
            .find_map(|e| match e {
                bass_obs::Event::LinkCapacityChanged { t_s, new_mbps, cause, .. } => {
                    Some((*t_s, *new_mbps, cause.clone()))
                }
                _ => None,
            })
            .expect("capacity cut journalled");
        assert_eq!(cut, (60.0, 2.0, "scenario".to_string()));
        // … followed by trigger and target events in causal order.
        for kind in ["migration_triggered", "migration_target_chosen"] {
            assert!(journal.count(kind) >= 1, "missing {kind}");
        }
        let t_trigger = journal
            .events_of_kind("migration_triggered")
            .next()
            .unwrap()
            .t_s();
        let t_target = journal
            .events_of_kind("migration_target_chosen")
            .next()
            .unwrap()
            .t_s();
        assert!(cut.0 <= t_trigger && t_trigger <= t_target);
        // Ticks were spanned and the final tick counts the migrations.
        assert!(journal.count("tick_completed") >= 1000);
        match journal.events_of_kind("tick_completed").last().unwrap() {
            bass_obs::Event::TickCompleted { migrations_total, .. } => {
                assert_eq!(*migrations_total, env.stats().migrations.len() as u64);
            }
            other => panic!("expected TickCompleted, got {other:?}"),
        }
        // The registry counts the target choice once.
        assert_eq!(journal.metrics().counter("obs.event.migration_target_chosen"), 1);
    }

    /// Contract: `SimEnv` never resets an attached journal. Counters
    /// accumulate across every `deploy` the journal observes — including
    /// a *failed* re-deploy, whose startup probe is charged before the
    /// scheduler rejects the already-placed components. Callers wanting
    /// per-run counters must attach a fresh `Journal` per run.
    #[test]
    fn journal_counters_accumulate_across_deploys() {
        let mut env = camera_env(PlacementPolicy::LongestPath);
        env.attach_journal(bass_obs::Journal::new());
        env.deploy(&[]).unwrap();
        {
            let journal = env.journal().unwrap();
            assert_eq!(journal.count("probe_completed"), 1);
            assert_eq!(journal.count("placement_decided"), 5);
        }

        // Re-deploying on the same env fails (components are already
        // placed) but still runs — and journals — the startup probe.
        assert!(env.deploy(&[]).is_err());
        {
            let journal = env.journal().unwrap();
            assert_eq!(journal.count("probe_completed"), 2);
            assert_eq!(journal.count("placement_decided"), 5);
        }

        // Moving the journal to a fresh env keeps accumulating: nothing
        // in deploy() zeroes the counters or drops recorded events.
        let journal = env.take_journal().unwrap();
        let mut env2 = camera_env(PlacementPolicy::LongestPath);
        env2.attach_journal(journal);
        env2.deploy(&[]).unwrap();
        let journal = env2.journal().unwrap();
        assert_eq!(journal.count("probe_completed"), 3);
        assert_eq!(journal.count("placement_decided"), 10);
        assert_eq!(journal.total_recorded(), journal.len() as u64);
    }

    /// A camera env with a squeeze/release scenario (migration fires),
    /// run for 180 s; returns the journal bytes, final flow rates,
    /// migration count, the clock at every per-tick observation, and the
    /// number of ticks that executed in full. `ticked` calls `step()`
    /// once per tick and reads the clock after each; otherwise
    /// `run_for`'s hook reads it. The two must match byte for byte.
    fn squeeze_run(ticked: bool) -> (String, Vec<u64>, usize, Vec<SimTime>, u64) {
        let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        env.attach_journal(bass_obs::Journal::new());
        env.enable_span_profiling();
        env.deploy(&[]).unwrap();
        env.set_scenario(squeeze(&env, 60, Some(mbps(1.0))));
        env.set_scenario(squeeze(&env, 120, None));
        let duration = SimDuration::from_secs(180);
        let mut seen = Vec::new();
        if ticked {
            let end = env.now() + duration;
            while env.now() < end {
                env.step().unwrap();
                seen.push(env.now());
            }
        } else {
            env.run_for(duration, |e| seen.push(e.now())).unwrap();
        }
        let rates: Vec<u64> = (0..env.mesh().flow_count())
            .map(|i| env.mesh().flow_rate(FlowId(i as u64)).as_bps().to_bits())
            .collect();
        let migrations = env.stats().migrations.len();
        let executed = env
            .take_span_profiler()
            .unwrap()
            .stats("tick.finalize")
            .map_or(0, |s| s.count);
        let journal = env.take_journal().unwrap().export_jsonl();
        (journal, rates, migrations, seen, executed)
    }

    #[test]
    fn run_for_matches_ticked_reference_and_actually_skips() {
        let (journal_t, rates_t, mig_t, seen_t, executed_t) = squeeze_run(true);
        let (journal_p, rates_p, mig_p, seen_p, executed_p) = squeeze_run(false);
        assert_eq!(journal_t, journal_p);
        assert_eq!(rates_t, rates_p);
        assert_eq!(mig_t, mig_p);
        assert!(mig_t > 0, "squeeze should trigger a migration");
        // The hook observes once per simulated tick, quiet or not, on
        // the post-advance clock: tick k ends at (k + 1) × 100 ms.
        let expected: Vec<SimTime> = (1..=1800).map(|k| SimTime::from_millis(100 * k)).collect();
        assert_eq!(seen_t, expected);
        assert_eq!(seen_p, expected);
        // The reference runs every tick in full; `run_for` runs the quiet
        // stretches between scenario actions and 30 s probe epochs
        // without timing a phase.
        assert_eq!(executed_t, 1800);
        assert!(
            executed_p < executed_t / 2,
            "run_for executed {executed_p} of {executed_t} ticks"
        );
    }

    #[test]
    fn zero_step_errors_instead_of_spinning() {
        let mut env = camera_env(PlacementPolicy::LongestPath);
        env.cfg.step = SimDuration::ZERO;
        assert!(matches!(env.deploy(&[]), Err(EnvError::ZeroStep)));
        assert!(matches!(
            env.run_for(SimDuration::from_secs(1), |_| {}),
            Err(EnvError::ZeroStep)
        ));
        assert_eq!(env.now(), SimTime::ZERO);
    }

    #[test]
    fn the_quiet_guard_refuses_due_inputs_displacements_and_probe_epochs() {
        let mut env = camera_env(PlacementPolicy::LongestPath);
        env.deploy(&[]).unwrap();
        // The first tick ends on a probe epoch.
        assert!(!env.quiet());
        env.step().unwrap();
        // Quiet until the 30 s epoch: the tick ending on it is not.
        let mut quiet = 0;
        while env.quiet() {
            env.step().unwrap();
            quiet += 1;
        }
        assert_eq!((quiet, env.now()), (299, SimTime::from_millis(30_000)));
        env.step().unwrap();
        assert!(env.quiet());
        // An input due on the pre-advance clock.
        env.set_scenario(squeeze(&env, 30, Some(mbps(50.0))));
        assert!(!env.quiet());
        env.step().unwrap();
        assert!(env.quiet());
        // A component waiting for re-placement.
        let c = env.dag().components().next().unwrap().id;
        env.displaced.insert(c);
        assert!(!env.quiet());
        env.displaced.clear();
        // Without migrations no probe epoch wakes a tick.
        env.cfg.migrations_enabled = false;
        for _ in 0..600 {
            assert!(env.quiet());
            env.step().unwrap();
        }
    }

    #[test]
    fn quiet_stretches_cross_probe_epochs_identically() {
        // No scenario, no faults: the only events are probe epochs. A
        // long `run_for` must land probes on the same ticks.
        let probes_of = |ticked: bool| {
            let mut env = camera_env(PlacementPolicy::LongestPath);
            env.attach_journal(bass_obs::Journal::new());
            env.deploy(&[]).unwrap();
            if ticked {
                for _ in 0..3000 {
                    env.step().unwrap();
                }
            } else {
                env.run_for(SimDuration::from_secs(300), |_| {}).unwrap();
            }
            let j = env.take_journal().unwrap();
            (j.count("probe_completed"), j.export_jsonl())
        };
        let (probes_t, journal_t) = probes_of(true);
        let (probes_p, journal_p) = probes_of(false);
        assert_eq!(probes_t, probes_p);
        assert_eq!(journal_t, journal_p);
        assert!(probes_t >= 10, "expected ≥10 probe epochs, saw {probes_t}");
    }

    /// Each `ProbeCompleted` in `env`'s journal, in order, as (clock in
    /// 100 ms steps, whether it was a full probe, links violated).
    fn probe_log(env: &SimEnv) -> Vec<(u64, bool, u32)> {
        let probe = |e: &bass_obs::Event| match *e {
            bass_obs::Event::ProbeCompleted { t_s, kind, violated, .. } => {
                ((t_s * 10.0).round() as u64, kind == bass_obs::ProbeKind::Full, violated)
            }
            _ => unreachable!(),
        };
        env.journal().unwrap().events_of_kind("probe_completed").map(probe).collect()
    }

    /// The camera pipeline on `mesh3_env` with a journal, its crossing
    /// link capped to 2 Mbps at 45 s, stepped to 130 s.
    fn squeezed_probe_run(profiled: bool) -> SimEnv {
        let cooldown = SimDuration::from_secs(300);
        let cfg = SimEnvConfig {
            policy: PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
            controller: ControllerConfig { cooldown, ..Default::default() },
            ..Default::default()
        };
        let mut env = mesh3_env(catalog::camera_pipeline(), cfg);
        env.attach_journal(bass_obs::Journal::new());
        if profiled {
            env.enable_span_profiling();
        }
        env.deploy(&[]).unwrap();
        env.set_scenario(squeeze(&env, 45, Some(mbps(2.0))));
        for _ in 0..1300 {
            env.step().unwrap();
        }
        env
    }

    #[test]
    fn the_step_probes_each_epoch_and_escalates_on_a_new_violation() {
        // The squeeze at 45 s leaves the crossing link no headroom. The
        // 60.1 s epoch finds it newly violated, escalates to a full
        // probe and migrates; the 300 s cooldown this starts does not
        // move a single probe, and between epochs nothing probes.
        let env = squeezed_probe_run(false);
        let (full, headroom) = (true, false);
        let expected = [
            (0, full, 0), // deploy's startup probe
            (1, headroom, 0),
            (301, headroom, 0),
            (601, headroom, 1),
            (601, full, 0),
            (901, headroom, 0),
            (1201, headroom, 0),
        ];
        assert_eq!(probe_log(&env), expected);
        let at: Vec<u64> = env.stats().migrations.iter().map(|m| m.at.as_millis()).collect();
        assert_eq!(at, [60_100]);
        assert_eq!(env.netmon().overhead().headroom_probes, 5);
    }

    #[test]
    fn the_step_journals_and_times_each_probe_pass() {
        let mut env = squeezed_probe_run(true);
        let links = env.mesh().topology().link_count() as u32;
        // A full pass floods each link at its capacity for 1 s: deploy's
        // on three 100 Mbps links, the 60.1 s escalation on the squeezed
        // link's 2 Mbps and two 100 Mbps links.
        let mut floods = [3 * 100_000_000 / 8, (2_000_000 + 2 * 100_000_000) / 8].into_iter();
        let mut total = 0;
        for e in env.journal().unwrap().events_of_kind("probe_completed") {
            let bass_obs::Event::ProbeCompleted {
                kind, links: measured, violated, probe_bytes, overhead_bytes_total, ..
            } = *e
            else {
                unreachable!()
            };
            total += probe_bytes;
            assert_eq!(overhead_bytes_total, total);
            assert_eq!(measured, links, "no sample is lost");
            if kind == bass_obs::ProbeKind::Full {
                assert_eq!((violated, Some(probe_bytes)), (0, floods.next()));
            }
        }
        assert_eq!(floods.next(), None);
        let overhead = env.netmon().overhead();
        assert_eq!(total, overhead.total_bytes().as_bytes());
        // Every pass the step runs is one span nested in
        // `tick.controller`; deploy's startup probe is untimed.
        let prof = env.take_span_profiler().unwrap();
        let stats = |span| prof.stats(span).map_or((0, 0), |s| (s.count, s.total_ns));
        let (full, headroom) = (stats("netmon.full_probe"), stats("netmon.headroom_probe"));
        assert_eq!((full.0, headroom.0), (overhead.full_probes - 1, overhead.headroom_probes));
        assert!(full.1 + headroom.1 <= stats("tick.controller").1);
    }

    #[test]
    fn one_headroom_fraction_reaches_the_probe_and_the_triggers() {
        // With headroom h, the probe flags the n0–n1 link once its spare
        // capacity falls below h·C, and Algorithm 3's utilization trigger
        // fires once spare < achieved + h·C. On the C = 100 Mbps link
        // carrying one d Mbps edge alone, that is d > (1 − h)·C and
        // d > (1 − h)·C / 2. At the 0.2 default the second and fourth
        // cases would come out the other way.
        let h = 0.35;
        let (probe_at, trigger_at) = ((1.0 - h) * 100.0, (1.0 - h) * 100.0 / 2.0);
        for (d, violated, triggered) in [
            (trigger_at - 2.0, 0, false),
            (trigger_at + 2.0, 0, true),
            (probe_at - 2.0, 0, true),
            (probe_at + 2.0, 1, true),
        ] {
            let mut dag = AppDag::new("pair");
            for i in [1, 2] {
                let c = Component::new(ComponentId(i), "c", ResourceReq::cores_mb(1, 128));
                dag.add_component(c).unwrap();
            }
            dag.add_edge(ComponentId(1), ComponentId(2), mbps(d)).unwrap();
            let netmon = NetMonitorConfig { headroom_fraction: h, ..Default::default() };
            let mut env = mesh3_env(dag, SimEnvConfig { netmon, ..Default::default() });
            env.attach_journal(bass_obs::Journal::new());
            env.deploy(&[(ComponentId(1), NodeId(0)), (ComponentId(2), NodeId(1))]).unwrap();
            // The first tick is a probe epoch.
            env.step().unwrap();
            assert_eq!(probe_log(&env)[1], (1, false, violated), "d = {d}");
            let journal = env.journal().unwrap();
            let utilization = |e: &bass_obs::Event| match e {
                bass_obs::Event::MigrationTriggered { trigger, .. } => trigger == "Utilization",
                _ => false,
            };
            let fired = journal.events_of_kind("migration_triggered").any(utilization);
            assert_eq!(fired, triggered, "d = {d}");
        }
    }
}
