//! Compute-cluster model and k3s-like baseline scheduling.
//!
//! This crate is the stand-in for the paper's k3s cluster: worker nodes
//! with CPU/memory capacities, component placements with resource
//! accounting, and — crucially for the evaluation — a faithful model of
//! the *default k3s scheduler* that BASS is compared against: pods are
//! scheduled **one at a time**, nodes are filtered by resource fit and
//! scored by the least-allocated policy, and **bandwidth is never
//! considered** (paper §2.2, §6.2).
//!
//! - [`cluster`]: [`cluster::Cluster`] — nodes, allocations, placements.
//! - [`baseline`]: the bandwidth-oblivious k3s default scheduler
//!   (least-allocated only).
//! - [`migration`]: migration/restart cost bookkeeping.

pub mod baseline;
pub mod cluster;
pub mod migration;

pub use cluster::{Cluster, ClusterError, NodeSpec, Placement};
pub use migration::{MigrationRecord, RestartModel};
