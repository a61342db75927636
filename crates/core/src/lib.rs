//! BASS — Bandwidth Aware Scheduling System (the paper's contribution).
//!
//! This crate implements the scheduling and orchestration logic of the
//! paper on top of the substrates in the sibling crates:
//!
//! - [`heuristics`]: component-ordering heuristics — Algorithm 1
//!   (modified breadth-first traversal), Algorithm 2 (weighted longest
//!   path), and the §8 *hybrid* extension that picks per-subgraph.
//! - [`ranking`]: node ranking by free CPU, memory, and combined link
//!   capacity (§3.2.1).
//! - [`placement`]: packing an ordering onto ranked nodes with CPU and
//!   memory as hard constraints.
//! - [`scheduler`]: the [`scheduler::BassScheduler`] facade, including
//!   the k3s-default baseline for comparisons.
//! - [`migration`]: Algorithm 3 — selecting which components to migrate
//!   when bandwidth requirements are no longer met, with dependency
//!   de-duplication to avoid cascades.
//! - [`rescheduler`]: choosing the target node for a migrating
//!   component (most co-located dependencies, then resource/bandwidth
//!   fit, then the best-effort fallback), scoring densely over the
//!   round's one availability ranking.
//! - [`policy`]: the migration-decision registry [`policy::PolicyKind`]
//!   — the paper's controller among spread/random/greedy/k3s/Metronome
//!   baselines, candidate filtering and target selection each one
//!   `match` over the kind (see `docs/POLICIES.md`).
//! - [`controller`]: the bandwidth controller (§4.3) — cooldowns and
//!   migration planning, delegating the decisions themselves to its
//!   policy; the caller runs the net-monitor's probes before each round.
//! - [`planner`]: what-if evaluation of every policy on a scratch
//!   cluster, automating §3.2.1's "developer picks the heuristic".
//! - [`tuning`]: the §8 auto-tuning extension for (threshold, headroom).
//!
//! The controller's `tick` narrates its decisions into a
//! `bass_obs::Journal` when handed one (see `docs/OBSERVABILITY.md`).
//! The migration decision itself has one path: the controller builds
//! the round's world once, and Algorithm 3 and target selection both
//! read it. Each round that has someone to migrate, the controller
//! ranks the nodes once and hands that slice and one
//! [`rescheduler::Scorer`] scratch to the policy, whose call into the
//! rescheduler's `select_target` (or direct scoring) computes every
//! score from the round's world — nothing is carried across rounds.

#![warn(missing_docs)]

pub mod controller;
pub mod heuristics;
pub mod migration;
pub mod placement;
pub mod planner;
pub mod policy;
pub mod ranking;
pub mod rescheduler;
pub mod scheduler;
pub mod tuning;

pub use controller::{BassController, ControllerConfig, MigrationPlan};
pub use policy::PolicyKind;
pub use heuristics::{BfsWeighting, ComponentOrdering};
pub use placement::PlacementError;
pub use scheduler::{BassScheduler, PlacementPolicy};
