//! `bassctl` — plan and simulate BASS deployments from JSON inputs.
//!
//! Two input files describe a deployment:
//!
//! - an **application manifest** ([`bass_appdag::Manifest`]): components
//!   with CPU/memory requests and inter-component bandwidth requirements
//!   (the paper's deployment file with bandwidth metadata, §5);
//! - a **testbed description** ([`testbed::TestbedSpec`]): nodes with
//!   capacities, wireless links with mean bandwidth/variability, and
//!   optional scripted restrictions.
//!
//! The library half implements the commands; `src/bin/bassctl.rs` is the
//! thin argument-parsing shell around them.

pub mod commands;
pub mod testbed;

pub use commands::{
    arena, campaign, metrics_report, order, place, simulate, PlaceOutcome, SimulateOptions,
    SimulateOutcome,
};
pub use testbed::{LinkSpec, NodeSpecJson, RestrictionSpec, TestbedSpec};
