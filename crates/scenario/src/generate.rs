//! Seeded scenario materialization.
//!
//! [`generate`] turns one [`ScenarioSpec`] + one seed into a
//! [`GeneratedScenario`]: a concrete topology, heterogeneous node
//! resources, per-link OU trace configurations, a pre-compiled fault
//! plan, and a time-ordered churning workload schedule. Everything is
//! drawn from forked sub-streams of a single `SimRng`, so the same
//! `(spec, seed)` pair is byte-identical forever — the determinism the
//! property suite in `tests/scenario_properties.rs` locks down.

use crate::spec::{ScenarioSpec, TopologySpec};
use bass_appdag::{catalog, AppDag};
use bass_cluster::{Cluster, NodeSpec};
use bass_emu::{Input, Scenario};
use bass_faults::FaultPlan;
use bass_mesh::{LinkId, Mesh, MeshError, NodeId, Topology};
use bass_trace::{link_name, ou_traces, BandwidthTrace, OuTraceConfig};
use bass_util::rng::SimRng;
use bass_util::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Component-id stride between app instances: instance `k` occupies ids
/// `(k + 1) * STRIDE ..`. The largest catalog app uses ids below 100, so
/// instances can never collide.
pub const INSTANCE_ID_STRIDE: u32 = 1000;

/// Which of the paper's three application shapes an instance runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppKind {
    /// YOLO-style camera/vision pipeline (deep and narrow).
    Camera,
    /// Pion-style video-conference SFU (single heavy component).
    VideoConf,
    /// DSB-style social network (wide microservice fan-out).
    Social,
}

impl AppKind {
    /// Every kind, in declaration order: `kind as usize` indexes it.
    pub const ALL: [AppKind; 3] = [AppKind::Camera, AppKind::VideoConf, AppKind::Social];

    /// Stable snake-case label (used in summaries and instance names).
    pub fn label(&self) -> &'static str {
        match self {
            AppKind::Camera => "camera",
            AppKind::VideoConf => "videoconf",
            AppKind::Social => "social",
        }
    }

    /// Builds this kind's DAG from the catalog.
    pub fn dag(&self, social_rps: f64) -> AppDag {
        match self {
            AppKind::Camera => catalog::camera_pipeline(),
            AppKind::VideoConf => catalog::video_conference(),
            AppKind::Social => catalog::social_network(social_rps),
        }
    }
}

/// One entry of the churning workload schedule, in milliseconds of
/// simulation time. The schedule is sorted by `(at_ms, departures
/// before arrivals, instance)` and already respects the concurrency cap
/// — the campaign runner just replays it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadEvent {
    /// Instance `instance` of shape `kind` arrives.
    Arrive {
        /// Simulation time, milliseconds.
        at_ms: u64,
        /// Arrival index (also determines the component-id offset).
        instance: u32,
        /// App shape.
        kind: AppKind,
    },
    /// Instance `instance` departs and is retired.
    Depart {
        /// Simulation time, milliseconds.
        at_ms: u64,
        /// Arrival index of the departing instance.
        instance: u32,
    },
}

impl WorkloadEvent {
    /// The event's simulation time in milliseconds.
    pub fn at_ms(&self) -> u64 {
        match *self {
            WorkloadEvent::Arrive { at_ms, .. } | WorkloadEvent::Depart { at_ms, .. } => at_ms,
        }
    }
}

/// One synthesized node: mesh id, drawn resources, gateway flag.
/// Gateways carry mesh traffic but host no workload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeneratedNode {
    /// Mesh node id.
    pub id: u32,
    /// Drawn core count (0 for gateways).
    pub cores: u64,
    /// Drawn memory, MB (0 for gateways).
    pub mem_mb: u64,
    /// True when the node is a workload-free gateway.
    pub gateway: bool,
}

/// A fully materialized scenario: everything a campaign replica needs,
/// all of it `Serialize` so determinism tests can compare generations
/// byte for byte.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GeneratedScenario {
    /// Name copied from the spec.
    pub name: String,
    /// The seed this scenario was generated from.
    pub seed: u64,
    /// The synthesized mesh shape.
    pub topology: Topology,
    /// Per-node resources and gateway flags, ascending by id.
    pub nodes: Vec<GeneratedNode>,
    /// One OU config per link in link order, each named by its link's [`link_name`].
    pub trace_configs: Vec<OuTraceConfig>,
    /// Seed for generating the link traces from `trace_configs` ([`ou_traces`]).
    pub trace_seed: u64,
    /// Pre-compiled fault schedule (empty when the spec has no storm).
    pub faults: FaultPlan,
    /// Time-ordered churning workload schedule.
    pub workload: Vec<WorkloadEvent>,
    /// Arrivals dropped at generation time by the concurrency cap.
    pub rejected_arrivals: u64,
}

impl GeneratedScenario {
    /// Generates each link's trace for `duration` of play time, beside its
    /// link, in link order: the traces [`build_mesh`](Self::build_mesh) moves
    /// into the mesh. Kept out of the struct so generation stays cheap.
    pub fn trace_bundle(&self, duration: SimDuration) -> Vec<(LinkId, BandwidthTrace)> {
        let traces = ou_traces(&self.trace_configs, self.trace_seed, duration);
        traces.enumerate().map(|(i, trace)| (LinkId(i), trace)).collect()
    }

    /// Builds the mesh: the synthesized topology with each link driven
    /// by its generated trace, moved in, covering `duration` of play time.
    ///
    /// # Errors
    ///
    /// Propagates [`Mesh::from_traces`]'s errors (unreachable for
    /// generated scenarios: their topologies are connected by
    /// construction and there is one trace config per link).
    pub fn build_mesh(&self, duration: SimDuration) -> Result<Mesh, MeshError> {
        let traces = ou_traces(&self.trace_configs, self.trace_seed, duration);
        Mesh::from_traces(self.topology.clone(), traces)
    }

    /// Builds the workload cluster over the non-gateway nodes.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no worker nodes (impossible for
    /// validated specs).
    pub fn build_cluster(&self) -> Cluster {
        Cluster::new(
            self.nodes
                .iter()
                .filter(|n| !n.gateway)
                .map(|n| NodeSpec::cores_mb(n.id, n.cores, n.mem_mb)),
        )
        .expect("validated specs produce at least one worker node")
    }

    /// The component-id offset instance `instance` deploys under.
    pub fn instance_offset(instance: u32) -> u32 {
        (instance + 1) * INSTANCE_ID_STRIDE
    }

    /// The label an instance is journaled and summarized under, e.g.
    /// `"social-3"`.
    pub fn instance_label(kind: AppKind, instance: u32) -> String {
        format!("{}-{instance}", kind.label())
    }

    /// The workload as timed `SimEnv` inputs: an [`Input::Admit`] per
    /// arrival (every arrival of `kind` shares `dags[kind as usize]`) and
    /// an [`Input::Retire`] per departure, labelled by instance.
    pub fn timeline(&self, dags: &[Arc<AppDag>; 3]) -> Scenario {
        let mut labels = BTreeMap::new();
        self.workload.iter().fold(Scenario::new(), |scenario, event| {
            let input = match *event {
                WorkloadEvent::Arrive { instance, kind, .. } => {
                    let label = Self::instance_label(kind, instance);
                    labels.insert(instance, label.clone());
                    let offset = Self::instance_offset(instance);
                    Input::Admit { label, app: Arc::clone(&dags[kind as usize]), offset }
                }
                WorkloadEvent::Depart { instance, .. } => Input::Retire {
                    label: labels.remove(&instance).expect("a departure follows its arrival"),
                },
            };
            scenario.at(SimTime::from_millis(event.at_ms()), input)
        })
    }
}

/// Generates a scenario from a validated spec and a seed. Deterministic:
/// the same `(spec, seed)` pair always returns an identical scenario.
///
/// # Panics
///
/// Panics on invalid specs — call [`ScenarioSpec::validate`] first (the
/// campaign entry points do).
pub fn generate(spec: &ScenarioSpec, seed: u64) -> GeneratedScenario {
    spec.validate().expect("generate() requires a validated spec");
    let mut root = SimRng::seed_from_u64(seed);

    // Independent sub-streams per concern: adding e.g. one more workload
    // draw can never shift the topology of the same seed.
    let mut topo_rng = root.fork(1);
    let mut node_rng = root.fork(2);
    let mut gateway_rng = root.fork(3);
    let mut link_rng = root.fork(4);
    let trace_seed = root.fork(5).next_u64();
    let mut workload_rng = root.fork(6);
    let fault_seed = root.fork(7).next_u64();

    let topology = match spec.topology {
        TopologySpec::RandomGeometric { nodes, radius } => {
            Topology::random_geometric(nodes, radius, &mut topo_rng)
        }
        TopologySpec::Grid { width, height } => Topology::grid(width, height),
        TopologySpec::HubAndSpoke { hubs, leaves_per_hub } => {
            Topology::hub_and_spoke(hubs, leaves_per_hub)
        }
    };

    // Gateways: a deterministic shuffle of the id space, first g win.
    let mut ids: Vec<u32> = topology.nodes().map(|n| n.0).collect();
    gateway_rng.shuffle(&mut ids);
    let gateway_ids: std::collections::BTreeSet<u32> =
        ids.iter().copied().take(spec.nodes.gateways as usize).collect();

    let nodes: Vec<GeneratedNode> = topology
        .nodes()
        .map(|NodeId(id)| {
            // Draw for every node, gateway or not, so gateway placement
            // does not shift the other nodes' resources.
            let cores = spec.nodes.cores_min
                + node_rng.below(spec.nodes.cores_max - spec.nodes.cores_min + 1);
            let mem_mb = spec.nodes.mem_mb_min
                + node_rng.below(spec.nodes.mem_mb_max - spec.nodes.mem_mb_min + 1);
            if gateway_ids.contains(&id) {
                GeneratedNode { id, cores: 0, mem_mb: 0, gateway: true }
            } else {
                GeneratedNode { id, cores, mem_mb, gateway: false }
            }
        })
        .collect();

    let trace_configs: Vec<OuTraceConfig> = topology
        .links()
        .map(|(_, link)| {
            let mean = link_rng.uniform(spec.links.mean_mbps_min, spec.links.mean_mbps_max);
            let std = link_rng
                .uniform(spec.links.relative_std_min, spec.links.relative_std_max);
            let mut cfg = OuTraceConfig::new(link_name(link.a.0, link.b.0), mean)
                .relative_std(std)
                .sample_interval(SimDuration::from_millis(
                    (spec.links.sample_interval_s * 1000.0) as u64,
                ));
            if spec.links.fade_rate_per_min > 0.0 {
                cfg = cfg.fades(
                    spec.links.fade_rate_per_min,
                    spec.links.fade_depth,
                    SimDuration::from_millis((spec.links.fade_duration_s * 1000.0) as u64),
                );
            }
            cfg
        })
        .collect();

    let horizon = SimDuration::from_millis(spec.horizon_ticks * spec.step_ms);
    let faults = match &spec.faults {
        Some(profile) => {
            let targeted = profile.clone().targeting(&topology);
            FaultPlan::poisson(fault_seed, horizon, &targeted)
        }
        None => FaultPlan::new(),
    };

    let (workload, rejected_arrivals) = generate_workload(spec, &mut workload_rng);

    GeneratedScenario {
        name: spec.name.clone(),
        seed,
        topology,
        nodes,
        trace_configs,
        trace_seed,
        faults,
        workload,
        rejected_arrivals,
    }
}

/// Draws the churning workload: `initial_apps` instances at t = 0, then
/// Poisson arrivals, each with an exponential lifetime, enforcing the
/// concurrency cap chronologically (an arrival finding the cap full is
/// rejected, not queued).
fn generate_workload(spec: &ScenarioSpec, rng: &mut SimRng) -> (Vec<WorkloadEvent>, u64) {
    let w = &spec.workload;
    let horizon_ms = spec.horizon_ticks * spec.step_ms;
    let total_weight = w.camera_weight + w.videoconf_weight + w.social_weight;
    let draw_kind = |rng: &mut SimRng| -> AppKind {
        let x = rng.uniform(0.0, total_weight);
        if x < w.camera_weight {
            AppKind::Camera
        } else if x < w.camera_weight + w.videoconf_weight {
            AppKind::VideoConf
        } else {
            AppKind::Social
        }
    };
    let draw_lifetime_ms =
        |rng: &mut SimRng| -> u64 { (rng.exponential(1.0 / w.mean_lifetime_s) * 1000.0) as u64 };

    // Candidate arrivals in chronological order.
    let mut candidates: Vec<(u64, AppKind, u64)> = Vec::new();
    for _ in 0..w.initial_apps {
        let kind = draw_kind(rng);
        let life = draw_lifetime_ms(rng);
        candidates.push((0, kind, life));
    }
    if w.arrival_rate_per_s > 0.0 {
        let mut t_ms = (rng.exponential(w.arrival_rate_per_s) * 1000.0) as u64;
        while t_ms < horizon_ms {
            let kind = draw_kind(rng);
            let life = draw_lifetime_ms(rng);
            candidates.push((t_ms, kind, life));
            t_ms += 1 + (rng.exponential(w.arrival_rate_per_s) * 1000.0) as u64;
        }
    }

    // Chronological sweep with the cap: departures at or before an
    // arrival free capacity first.
    let mut events = Vec::new();
    let mut live: Vec<(u64, u32)> = Vec::new(); // (depart_ms, instance)
    let mut rejected = 0u64;
    let mut next_instance = 0u32;
    for (at_ms, kind, life_ms) in candidates {
        live.sort_unstable();
        while let Some(&(dep, inst)) = live.first() {
            if dep <= at_ms {
                live.remove(0);
                if dep < horizon_ms {
                    events.push(WorkloadEvent::Depart { at_ms: dep, instance: inst });
                }
            } else {
                break;
            }
        }
        if live.len() >= w.max_concurrent as usize {
            rejected += 1;
            continue;
        }
        let instance = next_instance;
        next_instance += 1;
        events.push(WorkloadEvent::Arrive { at_ms, instance, kind });
        // A huge finite mean lifetime saturates the draw at `u64::MAX`.
        live.push((at_ms.saturating_add(life_ms.max(1)), instance));
    }
    // Flush in-horizon departures of still-live instances.
    live.sort_unstable();
    for (dep, inst) in live {
        if dep < horizon_ms {
            events.push(WorkloadEvent::Depart { at_ms: dep, instance: inst });
        }
    }
    // Total order: time, departures before arrivals (frees capacity and
    // mirrors the sweep), then instance.
    events.sort_by_key(|e| {
        (e.at_ms(), matches!(e, WorkloadEvent::Arrive { .. }) as u8, match *e {
            WorkloadEvent::Arrive { instance, .. } | WorkloadEvent::Depart { instance, .. } => {
                instance
            }
        })
    });
    (events, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = ScenarioSpec::small_reference();
        let a = generate(&spec, 42);
        let b = generate(&spec, 42);
        assert_eq!(a, b);
        let c = generate(&spec, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_structure_matches_spec() {
        let spec = ScenarioSpec::small_reference();
        let s = generate(&spec, 7);
        assert_eq!(s.topology.node_count(), 20);
        assert!(s.topology.is_connected());
        assert_eq!(s.nodes.len(), 20);
        assert_eq!(s.nodes.iter().filter(|n| n.gateway).count(), 1);
        assert_eq!(s.trace_configs.len(), s.topology.link_count());
        for n in s.nodes.iter().filter(|n| !n.gateway) {
            assert!((4..=12).contains(&n.cores));
            assert!((4096..=16384).contains(&n.mem_mb));
        }
        for cfg in &s.trace_configs {
            assert!((8.0..=25.0).contains(&cfg.mean_mbps()));
        }
        // Mild storm ⇒ a non-empty schedule over a 600 s horizon is
        // overwhelmingly likely but not guaranteed; just check the plan
        // replays from the recorded seed.
        assert_eq!(s.faults, {
            let targeted = spec.faults.clone().unwrap().targeting(&s.topology);
            bass_faults::FaultPlan::poisson(
                s.faults.seed(),
                SimDuration::from_millis(600_000),
                &targeted,
            )
        });
    }

    #[test]
    fn workload_respects_cap_and_ordering() {
        // Dense churn, then lifetimes so long the draw saturates (its
        // departure time once overflowed: a panic, or in release a
        // departure before the arrival that freed its slot).
        for (rate, lifetime_s) in [(0.5, 300.0), (0.05, 1e300)] {
            let mut spec = ScenarioSpec::small_reference();
            spec.workload.arrival_rate_per_s = rate;
            spec.workload.mean_lifetime_s = lifetime_s;
            spec.workload.max_concurrent = 4;
            let s = generate(&spec, 11);
            let mut live = std::collections::BTreeSet::new();
            let mut last_ms = 0;
            for ev in &s.workload {
                assert!(ev.at_ms() >= last_ms, "events out of order");
                last_ms = ev.at_ms();
                match *ev {
                    WorkloadEvent::Arrive { instance, .. } => {
                        assert!(live.insert(instance), "double arrival");
                        assert!(live.len() <= 4, "cap violated");
                    }
                    WorkloadEvent::Depart { instance, .. } => {
                        assert!(live.remove(&instance), "departure without arrival");
                    }
                }
            }
            assert!(s.rejected_arrivals > 0, "a full cap should reject some arrivals");
        }
    }

    #[test]
    fn builders_produce_runnable_mesh_and_cluster() {
        let spec = ScenarioSpec::small_reference();
        let s = generate(&spec, 3);
        let mesh = s.build_mesh(SimDuration::from_secs(60)).unwrap();
        assert_eq!(mesh.topology().node_count(), 20);
        let cluster = s.build_cluster();
        assert_eq!(cluster.node_count(), 19);
    }

    #[test]
    fn grid_and_hub_spoke_specs_generate() {
        let mut spec = ScenarioSpec::small_reference();
        spec.topology = crate::spec::TopologySpec::Grid { width: 5, height: 4 };
        assert!(generate(&spec, 1).topology.is_connected());
        spec.topology = crate::spec::TopologySpec::HubAndSpoke { hubs: 4, leaves_per_hub: 4 };
        assert!(generate(&spec, 1).topology.is_connected());
    }
}
