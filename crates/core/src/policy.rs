//! Pluggable migration-decision policies (the scheduler arena).
//!
//! The BASS controller's decision cycle splits into two policy points:
//! *which components should move* (candidate filtering, Algorithm 3 by
//! default) and *where each should go* (target scoring). This module
//! extracts both behind the [`SchedulerPolicy`] trait so the paper's
//! controller becomes one implementation among several — the baseline
//! families from the orchestrator taxonomy (spread, random,
//! network-aware greedy, k3s-default) plus a Metronome-style
//! priority-aware policy — all runnable head-to-head by `bassctl arena`.
//!
//! Determinism contract (see `docs/POLICIES.md`): a policy's decisions
//! may depend only on the [`PolicyCtx`] snapshot, the round's
//! availability ranking, and the policy's own seeded state. Wall-clock
//! time, map iteration order over non-`BTree` maps, and global RNGs are
//! all forbidden — same-seed runs must be bit-identical, and the
//! default [`BassPolicy`] must reproduce the pre-trait controller's
//! golden journals byte-for-byte.

use crate::migration::{MigrationCandidates, MigrationConfig};
use crate::rescheduler::{bandwidth_score, locate, score_cmp, RescheduleError};
use bass_appdag::{AppDag, ComponentId};
use bass_cluster::{Cluster, Placement};
use bass_mesh::{Mesh, NodeId};
use bass_netmon::GoodputMonitor;
use bass_util::rng::SimRng;
use bass_util::units::Bandwidth;
use std::collections::BTreeSet;

/// Read-only world snapshot handed to a policy for one decision round.
///
/// Everything a policy may legally consult lives here; the controller
/// owns the probe cadence and the cooldown clock.
#[derive(Debug)]
pub struct PolicyCtx<'a> {
    /// The mesh (capacities, routes, up/down state).
    pub mesh: &'a Mesh,
    /// The application DAG (components, edges, requirements).
    pub dag: &'a AppDag,
    /// The cluster (node resources and current placements).
    pub cluster: &'a Cluster,
    /// Per-edge goodput measurements.
    pub goodput: &'a GoodputMonitor,
    /// The current component→node placement snapshot.
    pub placement: &'a Placement,
    /// Components that must never migrate.
    pub pinned: &'a BTreeSet<ComponentId>,
    /// Candidate-selection thresholds (Algorithm 3 knobs).
    pub migration: MigrationConfig,
    /// Whether best-effort fallback targets are allowed.
    pub best_effort_targets: bool,
}

/// A migration-decision policy: candidate filtering plus target
/// selection for one controller round.
///
/// Implementations must be deterministic functions of the
/// [`PolicyCtx`], the round's ranking, and their own seeded state (see
/// the module docs). The provided [`find_candidates`](Self::find_candidates)
/// runs the paper's Algorithm 3; override it to re-rank or filter the
/// candidate list.
pub trait SchedulerPolicy: std::fmt::Debug + Send {
    /// The policy's registry name (`bassctl arena --policy <name>`).
    fn name(&self) -> &'static str;

    /// Which components should migrate this round. The default runs
    /// Algorithm 3 (utilization + degradation triggers, heaviest-first
    /// dedup) exactly as the paper's controller does.
    fn find_candidates(&mut self, ctx: &PolicyCtx<'_>) -> MigrationCandidates {
        crate::migration::find_candidates(
            ctx.dag,
            ctx.placement,
            ctx.goodput,
            ctx.mesh,
            &ctx.migration,
            ctx.pinned,
        )
    }

    /// Where `component` should move. `observed` is the worst goodput
    /// fraction among its violations; `degraded` is whether it fell
    /// below the goodput threshold; `ranked` is this round's
    /// availability ranking ([`rank_nodes`](crate::ranking::rank_nodes)),
    /// computed once by the controller. `Err` marks the component
    /// unplaceable this round.
    ///
    /// # Errors
    ///
    /// [`RescheduleError`] when no acceptable target exists.
    fn select_target(
        &mut self,
        component: ComponentId,
        observed: f64,
        degraded: bool,
        ctx: &PolicyCtx<'_>,
        ranked: &[NodeId],
    ) -> Result<NodeId, RescheduleError>;

    /// Clones the policy behind the object (controllers are `Clone`).
    fn clone_box(&self) -> Box<dyn SchedulerPolicy>;
}

impl Clone for Box<dyn SchedulerPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The policy registry: every buildable policy, by name.
///
/// `Copy` so configs carrying a kind stay `Copy`; the seeded variant
/// carries its seed in the kind, so rebuilding from a kind always
/// yields an identically-behaving instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's controller: Algorithm 3 candidates, bandwidth-scored
    /// targets with the improvement gate and best-effort fallback.
    #[default]
    Bass,
    /// Resource-only bin packing: most-free-resources node, network
    /// ignored (what vanilla k3s would do).
    K3sDefault,
    /// Fewest components per node: spread component count evenly.
    Spread,
    /// Uniformly random feasible node, from the carried seed.
    Random(u64),
    /// Pure bandwidth-score argmax, no hysteresis gate.
    NetworkAwareGreedy,
    /// Metronome-style priority-aware: heavy-traffic components are
    /// a priority class that always moves first and moves eagerly.
    Metronome,
}

/// The default seed for `random` when parsed from a CLI name.
pub const RANDOM_POLICY_SEED: u64 = 0xB455;

impl PolicyKind {
    /// Every registered policy, in the arena's canonical order.
    pub fn all() -> [PolicyKind; 6] {
        [
            PolicyKind::Bass,
            PolicyKind::K3sDefault,
            PolicyKind::Spread,
            PolicyKind::Random(RANDOM_POLICY_SEED),
            PolicyKind::NetworkAwareGreedy,
            PolicyKind::Metronome,
        ]
    }

    /// The registry name (what [`parse`](Self::parse) accepts).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Bass => "bass",
            PolicyKind::K3sDefault => "k3s-default",
            PolicyKind::Spread => "spread",
            PolicyKind::Random(_) => "random",
            PolicyKind::NetworkAwareGreedy => "network-aware-greedy",
            PolicyKind::Metronome => "metronome",
        }
    }

    /// Parses a registry name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names for anything else.
    pub fn parse(name: &str) -> Result<PolicyKind, String> {
        match name {
            "bass" => Ok(PolicyKind::Bass),
            "k3s-default" | "k3s" => Ok(PolicyKind::K3sDefault),
            "spread" => Ok(PolicyKind::Spread),
            "random" => Ok(PolicyKind::Random(RANDOM_POLICY_SEED)),
            "network-aware-greedy" | "greedy" => Ok(PolicyKind::NetworkAwareGreedy),
            "metronome" => Ok(PolicyKind::Metronome),
            other => Err(format!(
                "unknown policy '{other}' (expected bass, k3s-default, spread, random, \
                 network-aware-greedy, or metronome)"
            )),
        }
    }

    /// Builds a fresh instance of the policy.
    pub fn build(self) -> Box<dyn SchedulerPolicy> {
        match self {
            PolicyKind::Bass => Box::new(BassPolicy),
            PolicyKind::K3sDefault => Box::new(K3sDefaultPolicy),
            PolicyKind::Spread => Box::new(SpreadPolicy),
            PolicyKind::Random(seed) => Box::new(RandomPolicy::new(seed)),
            PolicyKind::NetworkAwareGreedy => Box::new(NetworkAwareGreedyPolicy),
            PolicyKind::Metronome => Box::new(MetronomePolicy::default()),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The paper's controller behaviour, verbatim: Algorithm 3 candidates
/// (the trait default) and [`select_target`] targets over the round's
/// ranking. This path must stay bit-identical to the pre-trait
/// controller — the golden refactor-equivalence battery
/// (`tests/policy.rs`) holds it there.
///
/// [`select_target`]: crate::rescheduler::select_target
#[derive(Debug, Clone, Copy, Default)]
pub struct BassPolicy;

impl SchedulerPolicy for BassPolicy {
    fn name(&self) -> &'static str {
        "bass"
    }

    fn select_target(
        &mut self,
        component: ComponentId,
        observed: f64,
        degraded: bool,
        ctx: &PolicyCtx<'_>,
        ranked: &[NodeId],
    ) -> Result<NodeId, RescheduleError> {
        crate::rescheduler::select_target(
            component,
            ctx.dag,
            ctx.cluster,
            ctx.mesh,
            observed,
            degraded,
            ctx.best_effort_targets,
            ranked,
        )
    }

    fn clone_box(&self) -> Box<dyn SchedulerPolicy> {
        Box::new(*self)
    }
}

/// The feasible targets for `component`: up nodes other than its
/// current one where its CPU/memory fit, in ascending `NodeId` order.
fn feasible_targets(
    component: ComponentId,
    ctx: &PolicyCtx<'_>,
) -> Result<(NodeId, Vec<NodeId>), RescheduleError> {
    let (comp, current) = locate(component, ctx.dag, ctx.cluster)?;
    let nodes = ctx
        .cluster
        .node_ids()
        .into_iter()
        .filter(|&n| n != current && ctx.mesh.node_is_up(n))
        .filter(|&n| ctx.cluster.fits(n, comp.resources).unwrap_or(false))
        .collect();
    Ok((current, nodes))
}

/// Resource-only packing, network-blind: the node with the most free
/// CPU (then memory, then lowest id) that fits — what a vanilla k3s
/// scheduler's least-allocated scoring would pick.
#[derive(Debug, Clone, Copy, Default)]
pub struct K3sDefaultPolicy;

impl SchedulerPolicy for K3sDefaultPolicy {
    fn name(&self) -> &'static str {
        "k3s-default"
    }

    fn select_target(
        &mut self,
        component: ComponentId,
        _observed: f64,
        _degraded: bool,
        ctx: &PolicyCtx<'_>,
        _ranked: &[NodeId],
    ) -> Result<NodeId, RescheduleError> {
        let (_, nodes) = feasible_targets(component, ctx)?;
        nodes
            .into_iter()
            .map(|n| {
                let free = ctx.cluster.free_on(n).expect("cluster node exists");
                (std::cmp::Reverse(free.cpu.as_millis()), std::cmp::Reverse(free.memory.as_mb()), n)
            })
            .min()
            .map(|(_, _, n)| n)
            .ok_or(RescheduleError::NoFeasibleNode(component))
    }

    fn clone_box(&self) -> Box<dyn SchedulerPolicy> {
        Box::new(*self)
    }
}

/// Spread: the feasible node hosting the fewest components (then most
/// free CPU, then lowest id) — even component count over the cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpreadPolicy;

impl SchedulerPolicy for SpreadPolicy {
    fn name(&self) -> &'static str {
        "spread"
    }

    fn select_target(
        &mut self,
        component: ComponentId,
        _observed: f64,
        _degraded: bool,
        ctx: &PolicyCtx<'_>,
        _ranked: &[NodeId],
    ) -> Result<NodeId, RescheduleError> {
        let (_, nodes) = feasible_targets(component, ctx)?;
        nodes
            .into_iter()
            .map(|n| {
                let hosted = ctx.cluster.components_on(n).len();
                let free = ctx.cluster.free_on(n).expect("cluster node exists");
                (hosted, std::cmp::Reverse(free.cpu.as_millis()), n)
            })
            .min()
            .map(|(_, _, n)| n)
            .ok_or(RescheduleError::NoFeasibleNode(component))
    }

    fn clone_box(&self) -> Box<dyn SchedulerPolicy> {
        Box::new(*self)
    }
}

/// Uniformly random feasible target, from the policy's own seeded
/// stream. Two instances built from the same [`PolicyKind::Random`]
/// seed make identical decision sequences — the arena's "random" is a
/// reproducible baseline, not noise.
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    rng: SimRng,
}

impl RandomPolicy {
    /// A random policy drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        RandomPolicy { rng: SimRng::seed_from_u64(seed) }
    }
}

impl SchedulerPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn select_target(
        &mut self,
        component: ComponentId,
        _observed: f64,
        _degraded: bool,
        ctx: &PolicyCtx<'_>,
        _ranked: &[NodeId],
    ) -> Result<NodeId, RescheduleError> {
        let (_, nodes) = feasible_targets(component, ctx)?;
        if nodes.is_empty() {
            return Err(RescheduleError::NoFeasibleNode(component));
        }
        let pick = self.rng.below(nodes.len() as u64) as usize;
        Ok(nodes[pick])
    }

    fn clone_box(&self) -> Box<dyn SchedulerPolicy> {
        Box::new(self.clone())
    }
}

/// Pure network greedy: the feasible node with the best bandwidth
/// score toward the component's dependencies, no improvement gate. It
/// chases the best link state every round — strong when the network
/// genuinely moved, churn-prone when the trigger was transient (the
/// contrast the arena is built to show).
#[derive(Debug, Clone, Copy, Default)]
pub struct NetworkAwareGreedyPolicy;

impl SchedulerPolicy for NetworkAwareGreedyPolicy {
    fn name(&self) -> &'static str {
        "network-aware-greedy"
    }

    fn select_target(
        &mut self,
        component: ComponentId,
        _observed: f64,
        _degraded: bool,
        ctx: &PolicyCtx<'_>,
        _ranked: &[NodeId],
    ) -> Result<NodeId, RescheduleError> {
        let (current, nodes) = feasible_targets(component, ctx)?;
        let deps = ctx.dag.neighbors(component);
        let current_score = bandwidth_score(current, &deps, ctx.cluster, ctx.mesh);
        nodes
            .into_iter()
            .map(|n| (n, bandwidth_score(n, &deps, ctx.cluster, ctx.mesh)))
            .filter(|&(_, s)| s > current_score)
            .max_by(|a, b| score_cmp(a.1, b.1))
            .map(|(n, _)| n)
            .ok_or(RescheduleError::NoFeasibleNode(component))
    }

    fn clone_box(&self) -> Box<dyn SchedulerPolicy> {
        Box::new(*self)
    }
}

/// Metronome-style priority awareness: components whose heaviest
/// adjacent edge is at or above `priority_cutoff` form a priority
/// class (Metronome's periodic bulk transfers with deadlines). The
/// candidate list is re-ranked priority-first, and priority components
/// migrate eagerly (any strictly feasible target, no hysteresis) while
/// best-effort traffic keeps the BASS improvement gate.
#[derive(Debug, Clone, Copy)]
pub struct MetronomePolicy {
    /// Heaviest-adjacent-edge bandwidth at which a component counts as
    /// priority traffic.
    pub priority_cutoff: Bandwidth,
}

impl Default for MetronomePolicy {
    fn default() -> Self {
        MetronomePolicy { priority_cutoff: Bandwidth::from_mbps(5.0) }
    }
}

impl MetronomePolicy {
    fn priority(&self, component: ComponentId, dag: &AppDag) -> Bandwidth {
        dag.neighbors(component)
            .into_iter()
            .map(|(_, bw)| bw)
            .fold(Bandwidth::ZERO, Bandwidth::max)
    }
}

impl SchedulerPolicy for MetronomePolicy {
    fn name(&self) -> &'static str {
        "metronome"
    }

    fn find_candidates(&mut self, ctx: &PolicyCtx<'_>) -> MigrationCandidates {
        let mut out = crate::migration::find_candidates(
            ctx.dag,
            ctx.placement,
            ctx.goodput,
            ctx.mesh,
            &ctx.migration,
            ctx.pinned,
        );
        // Priority class first, heaviest adjacent edge descending,
        // component id as the final deterministic tie-break.
        out.to_migrate.sort_by(|&a, &b| {
            let (pa, pb) = (self.priority(a, ctx.dag), self.priority(b, ctx.dag));
            pb.as_bps()
                .total_cmp(&pa.as_bps())
                .then(a.cmp(&b))
        });
        out
    }

    fn select_target(
        &mut self,
        component: ComponentId,
        observed: f64,
        degraded: bool,
        ctx: &PolicyCtx<'_>,
        ranked: &[NodeId],
    ) -> Result<NodeId, RescheduleError> {
        let eager = self.priority(component, ctx.dag) >= self.priority_cutoff;
        crate::rescheduler::select_target(
            component,
            ctx.dag,
            ctx.cluster,
            ctx.mesh,
            observed,
            degraded || eager,
            ctx.best_effort_targets,
            ranked,
        )
    }

    fn clone_box(&self) -> Box<dyn SchedulerPolicy> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_round_trip() {
        for kind in PolicyKind::all() {
            assert_eq!(PolicyKind::parse(kind.name()), Ok(kind));
            assert_eq!(kind.build().name(), kind.name());
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(PolicyKind::parse("k3s"), Ok(PolicyKind::K3sDefault));
        assert_eq!(PolicyKind::parse("greedy"), Ok(PolicyKind::NetworkAwareGreedy));
        let err = PolicyKind::parse("nope").unwrap_err();
        assert!(err.contains("unknown policy 'nope'"), "{err}");
        assert!(err.contains("metronome"), "{err}");
    }

    #[test]
    fn registry_covers_at_least_five_policies() {
        let names: std::collections::BTreeSet<&str> =
            PolicyKind::all().iter().map(|k| k.name()).collect();
        assert!(names.len() >= 5, "{names:?}");
    }

    #[test]
    fn default_kind_is_bass() {
        assert_eq!(PolicyKind::default(), PolicyKind::Bass);
    }
}
