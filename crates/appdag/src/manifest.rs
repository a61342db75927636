//! Deployment manifests: the serializable form of an application DAG.
//!
//! The paper attaches bandwidth requirements "to the metadata section of
//! the application's deployment file" (§5). [`Manifest`] is the JSON
//! equivalent: a flat, human-editable description that converts to and
//! from [`AppDag`].

use crate::component::{Component, ComponentId, ResourceReq};
use crate::dag::{AppDag, DagError};
use bass_util::units::{Bandwidth, MemoryMb, Millicores};
use serde::{Deserialize, Serialize};

/// One component entry in a manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestComponent {
    /// Component name; must be unique within the manifest.
    pub name: String,
    /// CPU request in millicores.
    pub cpu_millis: u64,
    /// Memory request in MB.
    pub memory_mb: u64,
}

/// One bandwidth requirement between two named components.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestEdge {
    /// Producing component name.
    pub from: String,
    /// Consuming component name.
    pub to: String,
    /// Maximum bandwidth requirement in Mbps.
    pub bandwidth_mbps: f64,
}

/// A deployable application description.
///
/// # Examples
///
/// ```
/// use bass_appdag::Manifest;
///
/// let json = r#"{
///   "app": "demo",
///   "components": [
///     {"name": "a", "cpu_millis": 500, "memory_mb": 128},
///     {"name": "b", "cpu_millis": 500, "memory_mb": 128}
///   ],
///   "edges": [{"from": "a", "to": "b", "bandwidth_mbps": 8.0}]
/// }"#;
/// let manifest: Manifest = serde_json::from_str(json)?;
/// let dag = manifest.to_dag()?;
/// assert_eq!(dag.component_count(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Application name.
    pub app: String,
    /// Components in id order (ids are assigned 1..n on conversion).
    pub components: Vec<ManifestComponent>,
    /// Bandwidth requirements.
    pub edges: Vec<ManifestEdge>,
}

/// Errors converting a manifest to a DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// An edge referenced a component name not present in the manifest.
    UnknownName(String),
    /// Two components share this name, so edges naming it are ambiguous.
    DuplicateName(String),
    /// The edge `from → to` carries a negative or non-finite
    /// `bandwidth_mbps`.
    InvalidBandwidth {
        /// Producing component name.
        from: String,
        /// Consuming component name.
        to: String,
    },
    /// The underlying graph was invalid.
    Dag(DagError),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::UnknownName(n) => write!(f, "edge references unknown component '{n}'"),
            ManifestError::DuplicateName(n) => write!(f, "duplicate component name '{n}'"),
            ManifestError::InvalidBandwidth { from, to } => write!(
                f,
                "edge '{from}' -> '{to}': bandwidth_mbps must be finite and non-negative"
            ),
            ManifestError::Dag(e) => write!(f, "invalid component graph: {e}"),
        }
    }
}

impl std::error::Error for ManifestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ManifestError::Dag(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DagError> for ManifestError {
    fn from(e: DagError) -> Self {
        ManifestError::Dag(e)
    }
}

impl Manifest {
    /// Builds a manifest from a DAG (component ids become positions).
    pub fn from_dag(dag: &AppDag) -> Self {
        let components: Vec<ManifestComponent> = dag
            .components()
            .map(|c| ManifestComponent {
                name: c.name.clone(),
                cpu_millis: c.resources.cpu.as_millis(),
                memory_mb: c.resources.memory.as_mb(),
            })
            .collect();
        let edges = dag
            .edges()
            .iter()
            .map(|e| ManifestEdge {
                from: dag.component(e.from).expect("edge validated").name.clone(),
                to: dag.component(e.to).expect("edge validated").name.clone(),
                bandwidth_mbps: e.bandwidth.as_mbps(),
            })
            .collect();
        Manifest {
            app: dag.name().to_owned(),
            components,
            edges,
        }
    }

    /// Converts the manifest into a validated [`AppDag`]; components get
    /// ids `1..=n` in listed order.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown edge endpoints, duplicate component
    /// names, negative or non-finite bandwidths, duplicate edges, or
    /// cycles.
    pub fn to_dag(&self) -> Result<AppDag, ManifestError> {
        let mut dag = AppDag::new(self.app.clone());
        let mut names = std::collections::BTreeSet::new();
        for (i, mc) in self.components.iter().enumerate() {
            if !names.insert(mc.name.as_str()) {
                return Err(ManifestError::DuplicateName(mc.name.clone()));
            }
            dag.add_component(Component::new(
                ComponentId(i as u32 + 1),
                mc.name.clone(),
                ResourceReq::new(
                    Millicores::from_millis(mc.cpu_millis),
                    MemoryMb::from_mb(mc.memory_mb),
                ),
            ))?;
        }
        for e in &self.edges {
            let from = dag
                .component_by_name(&e.from)
                .ok_or_else(|| ManifestError::UnknownName(e.from.clone()))?
                .id;
            let to = dag
                .component_by_name(&e.to)
                .ok_or_else(|| ManifestError::UnknownName(e.to.clone()))?
                .id;
            if !Bandwidth::valid_mbps(e.bandwidth_mbps) {
                return Err(ManifestError::InvalidBandwidth {
                    from: e.from.clone(),
                    to: e.to.clone(),
                });
            }
            dag.add_edge(from, to, Bandwidth::from_mbps(e.bandwidth_mbps))?;
        }
        Ok(dag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn roundtrip_through_manifest() {
        let dag = catalog::camera_pipeline();
        let manifest = Manifest::from_dag(&dag);
        let back = manifest.to_dag().unwrap();
        assert_eq!(back.component_count(), dag.component_count());
        assert_eq!(back.edges().len(), dag.edges().len());
        // Bandwidths survive.
        for e in dag.edges() {
            let from = dag.component(e.from).unwrap().name.clone();
            let to = dag.component(e.to).unwrap().name.clone();
            let bf = back.component_by_name(&from).unwrap().id;
            let bt = back.component_by_name(&to).unwrap().id;
            assert!((back.bandwidth_between(bf, bt).as_mbps() - e.bandwidth.as_mbps()).abs() < 1e-9);
        }
    }

    #[test]
    fn json_roundtrip() {
        let manifest = Manifest::from_dag(&catalog::social_network(50.0));
        let json = serde_json::to_string_pretty(&manifest).unwrap();
        let back: Manifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.app, manifest.app);
        assert_eq!(back.components, manifest.components);
        assert_eq!(back.components.len(), 27);
        // Edge bandwidths survive up to float-printing precision.
        assert_eq!(back.edges.len(), manifest.edges.len());
        for (a, b) in back.edges.iter().zip(&manifest.edges) {
            assert_eq!(a.from, b.from);
            assert_eq!(a.to, b.to);
            assert!((a.bandwidth_mbps - b.bandwidth_mbps).abs() < 1e-9);
        }
    }

    #[test]
    fn unknown_edge_name_rejected() {
        let manifest = Manifest {
            app: "x".into(),
            components: vec![ManifestComponent {
                name: "a".into(),
                cpu_millis: 100,
                memory_mb: 64,
            }],
            edges: vec![ManifestEdge {
                from: "a".into(),
                to: "ghost".into(),
                bandwidth_mbps: 1.0,
            }],
        };
        assert_eq!(
            manifest.to_dag().unwrap_err(),
            ManifestError::UnknownName("ghost".into())
        );
    }

    #[test]
    fn cyclic_manifest_rejected() {
        let mk = |n: &str| ManifestComponent {
            name: n.into(),
            cpu_millis: 100,
            memory_mb: 64,
        };
        let edge = |f: &str, t: &str| ManifestEdge {
            from: f.into(),
            to: t.into(),
            bandwidth_mbps: 1.0,
        };
        let manifest = Manifest {
            app: "cyc".into(),
            components: vec![mk("a"), mk("b")],
            edges: vec![edge("a", "b"), edge("b", "a")],
        };
        assert!(matches!(
            manifest.to_dag().unwrap_err(),
            ManifestError::Dag(DagError::Cycle)
        ));
    }
}
