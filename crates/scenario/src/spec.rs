//! The declarative scenario specification.
//!
//! A [`ScenarioSpec`] is the single input of the scenario subsystem:
//! together with one `u64` seed it fully determines a generated
//! city-scale scenario (topology, node resources, per-link traces,
//! churning workload, fault storm). Specs are written as JSON — the
//! offline build vendors no TOML parser — and validated up front so a
//! campaign never dies halfway through a replica on a bad parameter.

use bass_faults::StormProfile;
use bass_util::time::MAX_SECS;
use bass_util::units::{Bandwidth, Millicores};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Which mesh shape to synthesize, with its shape parameters.
///
/// All three are standard generative models for community Wi-Fi
/// deployments: organically grown meshes (random geometric), planned
/// city-block roll-outs (grid), and gateway-backbone networks
/// (hub and spoke).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// `nodes` dropped uniformly on the unit square, linked within
    /// `radius`; bridged deterministically if partitioned.
    RandomGeometric {
        /// Number of nodes.
        nodes: u32,
        /// Link radius on the unit square.
        radius: f64,
    },
    /// A `width × height` lattice.
    Grid {
        /// Nodes per row.
        width: u32,
        /// Number of rows.
        height: u32,
    },
    /// `hubs` fully-meshed backbone nodes with `leaves_per_hub` leaves
    /// each.
    HubAndSpoke {
        /// Backbone nodes.
        hubs: u32,
        /// Leaves per backbone node.
        leaves_per_hub: u32,
    },
}

impl TopologySpec {
    /// Total node count this spec synthesizes.
    pub fn node_count(&self) -> u32 {
        match *self {
            TopologySpec::RandomGeometric { nodes, .. } => nodes,
            TopologySpec::Grid { width, height } => width * height,
            TopologySpec::HubAndSpoke { hubs, leaves_per_hub } => hubs * (1 + leaves_per_hub),
        }
    }
}

/// Per-node resource ranges and gateway placement.
///
/// Every non-gateway node draws its core count and memory uniformly from
/// the closed ranges below — community meshes are heterogeneous fleets
/// of donated hardware, not uniform racks. Gateway nodes participate in
/// the mesh (they carry traffic) but host no workload, following the
/// paper's CityLab testbed where the gateway is network-only.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Minimum cores per node (inclusive).
    pub cores_min: u64,
    /// Maximum cores per node (inclusive).
    pub cores_max: u64,
    /// Minimum memory per node, MB (inclusive).
    pub mem_mb_min: u64,
    /// Maximum memory per node, MB (inclusive).
    pub mem_mb_max: u64,
    /// How many nodes are workload-free gateways.
    pub gateways: u32,
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec {
            cores_min: 4,
            cores_max: 12,
            mem_mb_min: 4096,
            mem_mb_max: 16384,
            gateways: 1,
        }
    }
}

/// Per-link OU trace ranges.
///
/// Each link draws a mean capacity and a relative standard deviation
/// uniformly from these ranges, then plays an independent OU/fade trace
/// (see `bass-trace`). Fade parameters apply to every link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Minimum mean link capacity, Mbps.
    pub mean_mbps_min: f64,
    /// Maximum mean link capacity, Mbps.
    pub mean_mbps_max: f64,
    /// Minimum relative standard deviation (fraction of the mean).
    pub relative_std_min: f64,
    /// Maximum relative standard deviation (fraction of the mean).
    pub relative_std_max: f64,
    /// Trace sample interval, seconds, at least 0.001 (coarser = less
    /// memory per link).
    pub sample_interval_s: f64,
    /// Fade arrival rate per minute (0 disables fades).
    pub fade_rate_per_min: f64,
    /// Multiplicative fade depth in `[0, 1]`.
    pub fade_depth: f64,
    /// Fade duration, seconds.
    pub fade_duration_s: f64,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            // Fig. 2's two CityLab links span roughly this band.
            mean_mbps_min: 8.0,
            mean_mbps_max: 25.0,
            relative_std_min: 0.10,
            relative_std_max: 0.27,
            sample_interval_s: 5.0,
            fade_rate_per_min: 0.0,
            fade_depth: 0.5,
            fade_duration_s: 45.0,
        }
    }
}

/// The churning application workload: a Poisson arrival process over a
/// weighted mix of the paper's three app shapes, each instance living an
/// exponentially distributed lifetime, capped at `max_concurrent` live
/// instances (arrivals beyond the cap are rejected at generation time).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Relative weight of YOLO-style camera pipelines.
    pub camera_weight: f64,
    /// Relative weight of Pion-style video-conference apps.
    pub videoconf_weight: f64,
    /// Relative weight of DSB-style social-network apps.
    pub social_weight: f64,
    /// Requests/s driven through each social-network instance (scales
    /// its edge bandwidths).
    pub social_rps: f64,
    /// Instance arrival rate, per second.
    pub arrival_rate_per_s: f64,
    /// Mean instance lifetime, seconds.
    pub mean_lifetime_s: f64,
    /// Maximum live instances at any moment.
    pub max_concurrent: u32,
    /// Instances admitted at t = 0 before Poisson arrivals begin.
    pub initial_apps: u32,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            camera_weight: 1.0,
            videoconf_weight: 1.0,
            social_weight: 1.0,
            social_rps: 50.0,
            arrival_rate_per_s: 0.02,
            mean_lifetime_s: 300.0,
            max_concurrent: 10,
            initial_apps: 3,
        }
    }
}

/// One declarative, fully seeded scenario.
///
/// # Examples
///
/// ```
/// use bass_scenario::ScenarioSpec;
///
/// let spec = ScenarioSpec::small_reference();
/// spec.validate().unwrap();
/// let json = spec.to_json();
/// let back = ScenarioSpec::from_json(&json).unwrap();
/// assert_eq!(back, spec);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (recorded in campaign summaries).
    pub name: String,
    /// Mesh shape.
    pub topology: TopologySpec,
    /// Node resource ranges and gateway count.
    pub nodes: NodeSpec,
    /// Per-link trace ranges.
    pub links: LinkSpec,
    /// Churning workload parameters.
    pub workload: WorkloadSpec,
    /// Optional fault storm: rates only — the generator targets it at
    /// every node and link of the synthesized topology.
    pub faults: Option<StormProfile>,
    /// Campaign horizon in ticks.
    pub horizon_ticks: u64,
    /// Tick length, milliseconds.
    pub step_ms: u64,
    /// Record streaming aggregates every this many ticks (≥1; coarser
    /// sampling cuts the per-tick accounting cost on long horizons).
    pub sample_every_ticks: u64,
    /// Independent replicas per campaign (each re-generates the scenario
    /// from its own forked seed).
    pub replicas: u32,
}

/// A structural problem in a [`ScenarioSpec`], found by
/// [`ScenarioSpec::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub(crate) String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scenario spec: {}", self.0)
    }
}

impl Error for SpecError {}

impl SpecError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        SpecError(msg.into())
    }
}

/// Positive and finite — the acceptance test for every rate, interval,
/// and capacity field (NaN and infinities are rejected, not propagated).
fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

impl ScenarioSpec {
    /// A 20-node reference scenario small enough for tests and golden
    /// snapshots but exercising every generator feature (heterogeneous
    /// nodes, a gateway, fades, churn, a mild fault storm).
    pub fn small_reference() -> Self {
        let storm = StormProfile {
            link_flap_rate: 1.0 / 600.0,
            ..StormProfile::default()
        };
        ScenarioSpec {
            name: "small-reference".to_string(),
            topology: TopologySpec::RandomGeometric { nodes: 20, radius: 0.35 },
            nodes: NodeSpec::default(),
            links: LinkSpec {
                fade_rate_per_min: 0.2,
                ..LinkSpec::default()
            },
            workload: WorkloadSpec::default(),
            faults: Some(storm),
            horizon_ticks: 600,
            step_ms: 1000,
            sample_every_ticks: 5,
            replicas: 2,
        }
    }

    /// Parses a spec from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error for malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Serializes the spec as JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("spec serializes")
    }

    /// The synthesized node count.
    pub fn node_count(&self) -> u32 {
        self.topology.node_count()
    }

    /// Checks every structural requirement the generator and campaign
    /// runner rely on. A valid spec generates successfully for **every**
    /// seed; in particular the worst-case resource draw still fits each
    /// enabled app shape into the aggregate cluster, so generated
    /// scenarios are always placeable in aggregate.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the first violated requirement.
    pub fn validate(&self) -> Result<(), SpecError> {
        let n = self.topology.node_count();
        if n == 0 {
            return Err(SpecError::new("topology has zero nodes"));
        }
        if n > 1000 {
            return Err(SpecError::new(format!("{n} nodes exceeds the 1000-node ceiling")));
        }
        if let TopologySpec::RandomGeometric { radius, .. } = self.topology {
            if !positive(radius) {
                return Err(SpecError::new("random-geometric radius must be positive"));
            }
        }
        if self.nodes.cores_min == 0 || self.nodes.cores_min > self.nodes.cores_max {
            return Err(SpecError::new("node core range must satisfy 1 <= min <= max"));
        }
        // Cores are counted in millicores: a larger count would wrap.
        if self.nodes.cores_max > Millicores::MAX_CORES {
            return Err(SpecError::new(format!(
                "nodes.cores_max must be at most {}, got {}",
                Millicores::MAX_CORES,
                self.nodes.cores_max
            )));
        }
        if self.nodes.mem_mb_min == 0 || self.nodes.mem_mb_min > self.nodes.mem_mb_max {
            return Err(SpecError::new("node memory range must satisfy 1 <= min <= max"));
        }
        if self.nodes.gateways >= n {
            return Err(SpecError::new("at least one non-gateway node is required"));
        }
        if !positive(self.links.mean_mbps_min)
            || self.links.mean_mbps_min > self.links.mean_mbps_max
            || !Bandwidth::valid_mbps(self.links.mean_mbps_max)
        {
            return Err(SpecError::new("link mean range must satisfy 0 < min <= max"));
        }
        if self.links.relative_std_min < 0.0
            || self.links.relative_std_min > self.links.relative_std_max
        {
            return Err(SpecError::new("link std range must satisfy 0 <= min <= max"));
        }
        // Traces are sampled on a whole-millisecond grid: anything shorter
        // would truncate to a zero interval.
        if !(self.links.sample_interval_s.is_finite() && self.links.sample_interval_s >= 1e-3) {
            return Err(SpecError::new("links.sample_interval_s must be at least 0.001 (1 ms)"));
        }
        if !(0.0..=1.0).contains(&self.links.fade_depth) {
            return Err(SpecError::new("fade depth must be in [0, 1]"));
        }
        // One Poisson episode family. A negative rate silently disables
        // the family and a non-positive length compiles zero- or
        // negative-length episodes, so both are refused here rather than
        // changing the run.
        let episodes = |rate_field: &str, rate: f64, length_field: &str, length: f64| {
            if !(rate.is_finite() && rate >= 0.0) {
                return Err(SpecError::new(format!("{rate_field} must be finite and non-negative")));
            }
            if rate > 0.0 && !positive(length) {
                return Err(SpecError::new(format!(
                    "{length_field} must be positive when {rate_field} is"
                )));
            }
            Ok(())
        };
        episodes(
            "links.fade_rate_per_min",
            self.links.fade_rate_per_min,
            "links.fade_duration_s",
            self.links.fade_duration_s,
        )?;
        if let Some(f) = &self.faults {
            episodes(
                "faults.node_crash_rate",
                f.node_crash_rate,
                "faults.crash_downtime_s",
                f.crash_downtime_s,
            )?;
            episodes(
                "faults.link_flap_rate",
                f.link_flap_rate,
                "faults.flap_downtime_s",
                f.flap_downtime_s,
            )?;
            episodes(
                "faults.probe_loss_rate",
                f.probe_loss_rate,
                "faults.probe_loss_duration_s",
                f.probe_loss_duration_s,
            )?;
            if !(0.0..=1.0).contains(&f.probe_loss_p) {
                return Err(SpecError::new("faults.probe_loss_p must be in [0, 1]"));
            }
            // The generator aims the storm at the whole synthesized
            // topology; a listed target can only be checked, not honoured.
            if let Some(bad) = f.nodes.iter().find(|id| id.0 >= n) {
                return Err(SpecError::new(format!(
                    "faults.nodes: {bad} is outside the {n}-node topology"
                )));
            }
            if let Some((a, b)) = f.links.iter().find(|(a, b)| a.0 >= n || b.0 >= n) {
                return Err(SpecError::new(format!(
                    "faults.links: {a}-{b} is outside the {n}-node topology"
                )));
            }
        }
        let w = &self.workload;
        if w.camera_weight < 0.0 || w.videoconf_weight < 0.0 || w.social_weight < 0.0 {
            return Err(SpecError::new("workload weights must be non-negative"));
        }
        if w.camera_weight + w.videoconf_weight + w.social_weight <= 0.0 {
            return Err(SpecError::new("at least one workload weight must be positive"));
        }
        if w.arrival_rate_per_s < 0.0 {
            return Err(SpecError::new("arrival rate must be non-negative"));
        }
        if !positive(w.mean_lifetime_s) {
            return Err(SpecError::new("mean lifetime must be positive"));
        }
        if w.max_concurrent == 0 {
            return Err(SpecError::new("max_concurrent must be at least 1"));
        }
        if w.initial_apps > w.max_concurrent {
            return Err(SpecError::new("initial_apps cannot exceed max_concurrent"));
        }
        if w.social_weight > 0.0 && !positive(w.social_rps) {
            return Err(SpecError::new("social_rps must be positive when social apps are enabled"));
        }
        if self.horizon_ticks == 0 {
            return Err(SpecError::new("horizon must be at least one tick"));
        }
        if self.step_ms == 0 {
            return Err(SpecError::new("step must be at least 1 ms"));
        }
        // The run length, horizon_ticks × step_ms, must fit the
        // microsecond clock.
        let horizon_ms = self.horizon_ticks.checked_mul(self.step_ms);
        if horizon_ms.is_none_or(|ms| ms > MAX_SECS * 1000) {
            return Err(SpecError::new(format!(
                "horizon_ticks {} × step_ms {} overflows the microsecond clock",
                self.horizon_ticks, self.step_ms
            )));
        }
        if self.sample_every_ticks == 0 {
            return Err(SpecError::new("sample_every_ticks must be at least 1"));
        }
        if self.replicas == 0 {
            return Err(SpecError::new("a campaign needs at least one replica"));
        }
        // Aggregate placeability: even the stingiest resource draw
        // (every worker node at the range minimum) must fit the largest
        // enabled app shape, or admissions could be structurally doomed
        // rather than transiently rejected.
        let workers = u64::from(n - self.nodes.gateways);
        let min_cores = workers * self.nodes.cores_min;
        let min_mem = workers * self.nodes.mem_mb_min;
        for (enabled, dag) in [
            (w.camera_weight > 0.0, bass_appdag::catalog::camera_pipeline()),
            (w.videoconf_weight > 0.0, bass_appdag::catalog::video_conference()),
            (w.social_weight > 0.0, bass_appdag::catalog::social_network(w.social_rps)),
        ] {
            if !enabled {
                continue;
            }
            // `social_rps` scales the social network's edges: a finite
            // rate can still overflow one to ∞ bps, the rule
            // `Bandwidth::valid_mbps` applies to input numbers.
            if dag.edges().iter().any(|e| !e.bandwidth.as_bps().is_finite()) {
                return Err(SpecError::new(format!(
                    "app '{}' has an edge bandwidth that overflows to ∞ bps",
                    dag.name()
                )));
            }
            let need = dag.total_resources();
            let need_cores = need.cpu.as_cores().ceil() as u64;
            let need_mem = need.memory.as_mb();
            if need_cores > min_cores || need_mem > min_mem {
                return Err(SpecError::new(format!(
                    "app '{}' needs {need_cores} cores / {need_mem} MB but the worst-case \
                     cluster only guarantees {min_cores} cores / {min_mem} MB",
                    dag.name()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_spec_is_valid_and_round_trips() {
        let spec = ScenarioSpec::small_reference();
        spec.validate().unwrap();
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let mut spec = ScenarioSpec::small_reference();
        spec.nodes.gateways = 20;
        assert!(spec.validate().is_err());

        let mut spec = ScenarioSpec::small_reference();
        spec.workload.camera_weight = 0.0;
        spec.workload.videoconf_weight = 0.0;
        spec.workload.social_weight = 0.0;
        assert!(spec.validate().is_err());

        let mut spec = ScenarioSpec::small_reference();
        spec.links.mean_mbps_min = 30.0; // above max
        assert!(spec.validate().is_err());

        let mut spec = ScenarioSpec::small_reference();
        spec.links.mean_mbps_max = 1e308; // ∞ once in bps
        assert!(spec.validate().is_err());

        let mut spec = ScenarioSpec::small_reference();
        spec.sample_every_ticks = 0;
        assert!(spec.validate().is_err());

        // Edge kbps × rps × 8 000 is ∞ bps: every goodput fraction NaN.
        let mut spec = ScenarioSpec::small_reference();
        spec.workload.social_rps = 1e308;
        assert!(spec.validate().expect_err("social_rps 1e308").to_string().contains("∞ bps"));

        // A cluster too small in the worst case for the social network.
        let mut spec = ScenarioSpec::small_reference();
        spec.topology = TopologySpec::Grid { width: 2, height: 1 };
        spec.nodes.gateways = 1;
        spec.nodes.cores_min = 1;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn hostile_fade_and_fault_blocks_are_rejected_by_field() {
        fn storm(spec: &mut ScenarioSpec) -> &mut StormProfile {
            spec.faults.as_mut().expect("reference spec has a storm")
        }
        type Edit = fn(&mut ScenarioSpec);
        // (field the error must name, hostile edit)
        let rows: [(&str, Edit); 11] = [
            // One core over: 1000× it wraps to 384 millicores.
            ("nodes.cores_max", |s| {
                s.nodes.cores_min = 18446744073709552;
                s.nodes.cores_max = 18446744073709552;
            }),
            ("links.sample_interval_s", |s| s.links.sample_interval_s = 0.0004),
            ("links.fade_rate_per_min", |s| s.links.fade_rate_per_min = -1.0),
            ("links.fade_duration_s", |s| s.links.fade_duration_s = -5.0),
            ("faults.node_crash_rate", |s| storm(s).node_crash_rate = -0.5),
            ("faults.crash_downtime_s", |s| storm(s).crash_downtime_s = 0.0),
            ("faults.crash_downtime_s", |s| storm(s).crash_downtime_s = -3.0),
            ("faults.flap_downtime_s", |s| storm(s).flap_downtime_s = -10.0),
            ("faults.probe_loss_p", |s| storm(s).probe_loss_p = 2.0),
            ("faults.nodes", |s| storm(s).nodes = vec![bass_mesh::NodeId(999)]),
            // Fits in milliseconds, not in the microsecond clock.
            ("horizon_ticks", |s| {
                s.horizon_ticks = u64::MAX / 1000;
                s.step_ms = 1000;
            }),
        ];
        for (field, edit) in rows {
            let mut spec = ScenarioSpec::small_reference();
            storm(&mut spec).node_crash_rate = 0.01;
            spec.validate().expect("crashes enabled, still valid");
            edit(&mut spec);
            let err = spec.validate().expect_err(field).to_string();
            assert!(err.contains(field), "{field}: {err}");
        }
        // The length of a disabled family is never read, so never refused.
        let mut spec = ScenarioSpec::small_reference();
        spec.links.fade_rate_per_min = 0.0;
        spec.links.fade_duration_s = 0.0;
        spec.validate().unwrap();
    }

    #[test]
    fn node_counts_per_topology_kind() {
        assert_eq!(TopologySpec::Grid { width: 4, height: 5 }.node_count(), 20);
        assert_eq!(
            TopologySpec::HubAndSpoke { hubs: 3, leaves_per_hub: 4 }.node_count(),
            15
        );
        assert_eq!(
            TopologySpec::RandomGeometric { nodes: 7, radius: 0.2 }.node_count(),
            7
        );
    }
}
