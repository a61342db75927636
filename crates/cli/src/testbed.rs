//! JSON testbed descriptions.

use bass_cluster::{Cluster, ClusterError, NodeSpec};
use bass_mesh::{Mesh, MeshError, NodeId, Topology, TopologyError};
use bass_trace::{link_name, BandwidthTrace, OuTraceConfig};
use bass_util::time::{SimDuration, MAX_SECS};
use bass_util::units::{Bandwidth, Millicores};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// One compute node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSpecJson {
    /// Node id (shared between the mesh and the cluster).
    pub id: u32,
    /// CPU cores available to workloads.
    pub cores: u64,
    /// Memory in MB.
    pub memory_mb: u64,
    /// When false the node carries network traffic but hosts no
    /// components (e.g. a pure relay or the control-plane node).
    #[serde(default = "default_true")]
    pub schedulable: bool,
}

fn default_true() -> bool {
    true
}

/// One wireless link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// One endpoint.
    pub a: u32,
    /// Other endpoint.
    pub b: u32,
    /// Mean capacity in Mbps.
    pub mbps: f64,
    /// Optional relative standard deviation (0 = constant capacity).
    #[serde(default)]
    pub relative_std: f64,
}

/// A timed `tc`-style restriction for `simulate`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RestrictionSpec {
    /// The node whose egress is capped.
    pub node: u32,
    /// The cap in Mbps.
    pub mbps: f64,
    /// Start of the restriction, seconds from the run start.
    pub from_s: u64,
    /// End of the restriction, seconds from the run start.
    pub until_s: u64,
}

/// A complete testbed description.
///
/// # Examples
///
/// ```
/// use bass_cli::TestbedSpec;
///
/// let json = r#"{
///   "nodes": [
///     {"id": 0, "cores": 8, "memory_mb": 8192},
///     {"id": 1, "cores": 8, "memory_mb": 8192}
///   ],
///   "links": [{"a": 0, "b": 1, "mbps": 25.0}]
/// }"#;
/// let spec: TestbedSpec = serde_json::from_str(json)?;
/// let (mesh, cluster) = spec.build(42, bass_util::time::SimDuration::from_secs(60))?;
/// assert_eq!(cluster.node_count(), 2);
/// # let _ = mesh;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestbedSpec {
    /// Compute nodes.
    pub nodes: Vec<NodeSpecJson>,
    /// Wireless links.
    pub links: Vec<LinkSpec>,
    /// Scripted restrictions (used by `simulate`).
    #[serde(default)]
    pub restrictions: Vec<RestrictionSpec>,
}

/// Errors building a testbed from its description.
#[derive(Debug)]
pub enum TestbedError {
    /// Invalid topology (duplicate nodes/links, self loops, …).
    Topology(TopologyError),
    /// Invalid mesh (disconnected, …).
    Mesh(MeshError),
    /// Invalid cluster (duplicate node ids).
    Cluster(ClusterError),
    /// The description is structurally empty or inconsistent.
    Invalid(String),
}

impl fmt::Display for TestbedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestbedError::Topology(e) => write!(f, "invalid topology: {e}"),
            TestbedError::Mesh(e) => write!(f, "invalid mesh: {e}"),
            TestbedError::Cluster(e) => write!(f, "invalid cluster: {e}"),
            TestbedError::Invalid(msg) => write!(f, "invalid testbed: {msg}"),
        }
    }
}

impl Error for TestbedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TestbedError::Topology(e) => Some(e),
            TestbedError::Mesh(e) => Some(e),
            TestbedError::Cluster(e) => Some(e),
            TestbedError::Invalid(_) => None,
        }
    }
}

impl From<TopologyError> for TestbedError {
    fn from(e: TopologyError) -> Self {
        TestbedError::Topology(e)
    }
}

impl From<MeshError> for TestbedError {
    fn from(e: MeshError) -> Self {
        TestbedError::Mesh(e)
    }
}

impl From<ClusterError> for TestbedError {
    fn from(e: ClusterError) -> Self {
        TestbedError::Cluster(e)
    }
}

impl TestbedSpec {
    /// Builds the mesh and cluster.
    ///
    /// Links with `relative_std > 0` get an AR(1)-generated trace of
    /// `trace_len` (deterministic in `seed`); others are constant. Only
    /// `schedulable` nodes join the cluster (with zero-capacity entries
    /// for the rest so pinned pseudo-components can still anchor there).
    ///
    /// # Errors
    ///
    /// Returns a [`TestbedError`] for empty, duplicate, or disconnected
    /// descriptions, for a node with more than [`Millicores::MAX_CORES`]
    /// cores, for a link whose `mbps` or `relative_std` is
    /// negative or non-finite, and for a restriction with such an
    /// `mbps`, an undeclared `node`, an empty `from_s..until_s`, or an
    /// `until_s` past [`MAX_SECS`].
    pub fn build(&self, seed: u64, trace_len: SimDuration) -> Result<(Mesh, Cluster), TestbedError> {
        if self.nodes.is_empty() {
            return Err(TestbedError::Invalid("no nodes".into()));
        }
        if self.links.is_empty() && self.nodes.len() > 1 {
            return Err(TestbedError::Invalid("multiple nodes but no links".into()));
        }
        // Cores are counted in millicores: a larger count would wrap.
        if let Some(n) = self.nodes.iter().find(|n| n.cores > Millicores::MAX_CORES) {
            return Err(TestbedError::Invalid(format!(
                "node {}: cores must be at most {}, got {}",
                n.id,
                Millicores::MAX_CORES,
                n.cores
            )));
        }
        for l in &self.links {
            let std_ok = l.relative_std.is_finite() && l.relative_std >= 0.0;
            for (field, v, ok) in [
                ("mbps", l.mbps, Bandwidth::valid_mbps(l.mbps)),
                ("relative_std", l.relative_std, std_ok),
            ] {
                if !ok {
                    return Err(TestbedError::Invalid(format!(
                        "link {}-{}: {field} must be finite and non-negative, got {v}",
                        l.a, l.b
                    )));
                }
            }
        }
        for (i, r) in self.restrictions.iter().enumerate() {
            let problem = if !Bandwidth::valid_mbps(r.mbps) {
                format!("mbps must be finite and non-negative, got {}", r.mbps)
            } else if !self.nodes.iter().any(|n| n.id == r.node) {
                format!("node {} is not declared", r.node)
            } else if r.from_s >= r.until_s {
                format!("from_s {} must be before until_s {}", r.from_s, r.until_s)
            } else if r.until_s > MAX_SECS {
                // from_s < until_s, so this bounds both ends.
                let until = r.until_s;
                format!("until_s {until} must be at most {MAX_SECS}, the clock's range in seconds")
            } else {
                continue;
            };
            return Err(TestbedError::Invalid(format!("restriction {i}: {problem}")));
        }
        let mut topo = Topology::new();
        for n in &self.nodes {
            topo.add_node(NodeId(n.id))?;
        }
        for l in &self.links {
            topo.add_link(NodeId(l.a), NodeId(l.b))?;
        }
        let mut mesh = Mesh::new(topo)?;
        for (i, l) in self.links.iter().enumerate() {
            let source = match self.link_trace(i, seed, trace_len) {
                Some(trace) => bass_mesh::CapacitySource::Trace(trace),
                None => bass_mesh::CapacitySource::Constant(Bandwidth::from_mbps(l.mbps)),
            };
            mesh.set_link_source(NodeId(l.a), NodeId(l.b), source)?;
        }
        let cluster = Cluster::new(self.nodes.iter().map(|n| {
            if n.schedulable {
                NodeSpec::cores_mb(n.id, n.cores, n.memory_mb)
            } else {
                NodeSpec::cores_mb(n.id, 0, 0)
            }
        }))?;
        Ok((mesh, cluster))
    }

    /// The trace link `i` replays (`None` if constant), as
    /// [`build`](Self::build) installs it and `bassctl traces` exports it.
    pub(crate) fn link_trace(
        &self,
        i: usize,
        seed: u64,
        len: SimDuration,
    ) -> Option<BandwidthTrace> {
        let l = &self.links[i];
        (l.relative_std > 0.0).then(|| {
            OuTraceConfig::new(link_name(l.a, l.b), l.mbps)
                .relative_std(l.relative_std)
                .generate(seed.wrapping_add(i as u64 * 0x9E37), len)
        })
    }

    /// An example spec (printed by `bassctl schema`).
    pub fn example() -> Self {
        TestbedSpec {
            nodes: vec![
                NodeSpecJson { id: 0, cores: 0, memory_mb: 0, schedulable: false },
                NodeSpecJson { id: 1, cores: 12, memory_mb: 8192, schedulable: true },
                NodeSpecJson { id: 2, cores: 12, memory_mb: 8192, schedulable: true },
                NodeSpecJson { id: 3, cores: 8, memory_mb: 8192, schedulable: true },
            ],
            links: vec![
                LinkSpec { a: 0, b: 1, mbps: 100.0, relative_std: 0.0 },
                LinkSpec { a: 1, b: 2, mbps: 19.9, relative_std: 0.10 },
                LinkSpec { a: 2, b: 3, mbps: 12.0, relative_std: 0.27 },
                LinkSpec { a: 3, b: 1, mbps: 18.0, relative_std: 0.18 },
            ],
            restrictions: vec![RestrictionSpec { node: 2, mbps: 25.0, from_s: 60, until_s: 180 }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_builds() {
        let spec = TestbedSpec::example();
        let (mesh, cluster) = spec.build(1, SimDuration::from_secs(60)).unwrap();
        assert_eq!(mesh.topology().node_count(), 4);
        assert_eq!(cluster.node_count(), 4);
        // Non-schedulable node has zero capacity.
        assert_eq!(
            cluster.node_spec(NodeId(0)).unwrap().capacity.cpu.as_millis(),
            0
        );
        // Variable link is trace-driven (capacity changes over time).
        let mut m = mesh;
        let c0 = m.link_capacity(NodeId(2), NodeId(3)).unwrap();
        m.advance(SimDuration::from_secs(30));
        let c1 = m.link_capacity(NodeId(2), NodeId(3)).unwrap();
        assert_ne!(c0, c1);
    }

    #[test]
    fn json_roundtrip_and_defaults() {
        let json = r#"{
            "nodes": [{"id": 0, "cores": 4, "memory_mb": 1024}],
            "links": []
        }"#;
        let spec: TestbedSpec = serde_json::from_str(json).unwrap();
        assert!(spec.nodes[0].schedulable, "schedulable defaults to true");
        assert!(spec.restrictions.is_empty());
        let (_, cluster) = spec.build(1, SimDuration::from_secs(10)).unwrap();
        assert_eq!(cluster.node_count(), 1);
    }

    #[test]
    fn error_cases() {
        let empty = TestbedSpec { nodes: vec![], links: vec![], restrictions: vec![] };
        assert!(matches!(
            empty.build(1, SimDuration::from_secs(10)),
            Err(TestbedError::Invalid(_))
        ));
        let disconnected = TestbedSpec {
            nodes: vec![
                NodeSpecJson { id: 0, cores: 1, memory_mb: 64, schedulable: true },
                NodeSpecJson { id: 1, cores: 1, memory_mb: 64, schedulable: true },
            ],
            links: vec![],
            restrictions: vec![],
        };
        assert!(matches!(
            disconnected.build(1, SimDuration::from_secs(10)),
            Err(TestbedError::Invalid(_))
        ));
        let self_loop = TestbedSpec {
            nodes: vec![NodeSpecJson { id: 0, cores: 1, memory_mb: 64, schedulable: true }],
            links: vec![LinkSpec { a: 0, b: 0, mbps: 1.0, relative_std: 0.0 }],
            restrictions: vec![],
        };
        assert!(matches!(
            self_loop.build(1, SimDuration::from_secs(10)),
            Err(TestbedError::Topology(_))
        ));
    }
}
