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
//!   fit) — two entry points, both scoring densely over the round's
//!   one availability ranking.
//! - [`policy`]: the pluggable migration-decision layer — the
//!   [`policy::SchedulerPolicy`] trait (candidate filtering + target
//!   selection) with the paper's controller as the default
//!   implementation among spread/random/greedy/k3s/Metronome
//!   baselines, registered under [`policy::PolicyKind`] (see
//!   `docs/POLICIES.md`).
//! - [`controller`]: the bandwidth controller (§4.3) — headroom
//!   monitoring, full-probe escalation, cooldowns, and migration
//!   planning, delegating the decisions themselves to its
//!   [`policy::SchedulerPolicy`].
//! - [`events`]: the [`EventSource`]s that bound how many quiescent
//!   ticks the step loop may skip byte-identically, and the clock each
//!   is read against.
//! - [`planner`]: what-if evaluation of every policy on a scratch
//!   cluster, automating §3.2.1's "developer picks the heuristic".
//! - [`tuning`]: the §8 auto-tuning extension for (threshold, headroom).
//!
//! Decision points across the crate optionally narrate what they did
//! into a `bass_obs::Journal` (see `docs/OBSERVABILITY.md`): the
//! controller's `tick` when handed one, the planner's
//! `recommend_observed` and the tuner's `tune_observed`; the planner's
//! and tuner's plain entry points stay observation-free. The migration decision
//! itself has one path: each round that has someone to migrate, the
//! controller ranks the nodes once and hands that slice to the policy,
//! whose [`rescheduler::select_target`] call (or direct scoring)
//! computes every score from the round's world — nothing is carried
//! across rounds.

#![warn(missing_docs)]

pub mod controller;
pub mod events;
pub mod heuristics;
pub mod migration;
pub mod placement;
pub mod planner;
pub mod policy;
pub mod ranking;
pub mod rescheduler;
pub mod scheduler;
pub mod tuning;

pub use controller::{BassController, ControllerConfig, ControllerOutcome, MigrationPlan};
pub use policy::{PolicyCtx, PolicyKind, SchedulerPolicy};
pub use events::EventSource;
pub use heuristics::{BfsWeighting, ComponentOrdering, HeuristicError};
pub use placement::PlacementError;
pub use scheduler::{BassScheduler, PlacementPolicy};
