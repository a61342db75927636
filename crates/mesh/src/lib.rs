//! Wireless mesh network simulator.
//!
//! This crate is the stand-in for the paper's physical substrate (CloudLab
//! VMs emulating the CityLab wireless mesh, shaped with `tc`). It models:
//!
//! - [`topology`]: nodes and undirected wireless links.
//! - [`routing`]: deterministic min-hop routing with a traceroute-style
//!   path query (the paper estimates path bandwidth by running
//!   traceroute and taking the bottleneck link).
//! - [`capacity`]: per-link time-varying capacity driven by
//!   [`bass_trace::BandwidthTrace`]s, plus `tc`-style overrides and
//!   per-node egress caps (the paper throttles a node's outgoing
//!   interface).
//! - [`flow`]: demand-driven flows between node pairs with **max-min
//!   fair** bandwidth allocation over shared links.
//! - [`queueing`]: per-flow M/M/1-style delay inflation and explicit
//!   backlog growth when a flow's demand exceeds its allocation, plus a
//!   loss model.
//! - [`mesh`]: the [`mesh::Mesh`] facade that ties all of it together and
//!   exposes the queries the orchestrator layers need (link capacity,
//!   usage, path bottlenecks, transfer delays).
//!
//! The model is *fluid*: rather than simulating packets, each flow gets a
//! rate from the fairness computation and delays are derived from rates,
//! utilizations, and backlogs. This is the standard abstraction level for
//! scheduler studies and reproduces every observable the paper measures
//! (throughput shares, transfer latency, loss under overload).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
pub mod capacity;
pub mod flow;
mod links;
pub mod mesh;
pub mod queueing;
mod routes;
pub mod routing;
pub mod topology;

pub use capacity::CapacitySource;
pub use flow::FlowId;
pub use mesh::{Mesh, MeshError};
pub use routing::RoutingTable;
pub use topology::{LinkId, NodeId, Topology, TopologyError};
