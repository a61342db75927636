//! Deterministic fault injection for the BASS emulation.
//!
//! The paper's premise is that BASS keeps applications healthy while the
//! mesh misbehaves; scripted capacity drops alone do not exercise that
//! claim. This crate provides the adversarial side of the simulator:
//!
//! - [`Fault`]: the injectable fault kinds — node crashes/recoveries,
//!   link down/up (flaps), netmon probe loss, stale (frozen) link trace
//!   feeds, and controller restarts that drop in-flight migration state.
//! - [`FaultPlan`]: a time-ordered, fully pre-compiled schedule of
//!   faults. Plans are built from explicit scripts
//!   ([`FaultPlan::at`] and the convenience builders) or drawn from
//!   seeded Poisson arrival processes ([`FaultPlan::poisson`]); either
//!   way the entire schedule is materialized up front, so a run replays
//!   bit-for-bit from its seed.
//! - [`invariants`]: conservation checks that must hold after every tick
//!   of any run, faulted or not — the reusable harness the workspace
//!   `tests/faults.rs` suite drives.
//!
//! The emulator (`bass-emu`) owns the application of faults: it puts
//! the plan on its timeline, flips mesh/netmon/controller state, and
//! emits a `bass_obs::Event::FaultInjected` journal event per fault.
//! See `docs/FAULTS.md` for the full model and determinism guarantees.

#![warn(missing_docs)]

pub mod invariants;

use bass_mesh::{NodeId, Topology};
use bass_util::rng::SimRng;
use bass_util::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One injectable fault. All faults are instantaneous events; durable
/// conditions (a crashed node, a lossy monitor) are expressed as a
/// start/stop pair of events in the plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// A node crashes: its links go down and its components are evicted.
    NodeCrash {
        /// The crashing node.
        node: NodeId,
    },
    /// A crashed node comes back (empty — components must be re-placed).
    NodeRecover {
        /// The recovering node.
        node: NodeId,
    },
    /// The link between `a` and `b` goes down.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// The link between `a` and `b` comes back up.
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// The net-monitor starts dropping each probe sample independently
    /// with probability `p`.
    ProbeLossStart {
        /// Per-sample drop probability in `[0, 1]`.
        p: f64,
    },
    /// Probe loss ends.
    ProbeLossStop,
    /// The trace feed of the link between `a` and `b` freezes: capacity
    /// reads replay the freeze instant until the stop event.
    StaleTraceStart {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// The stale trace feed recovers.
    StaleTraceStop {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// The controller restarts, losing its cooldown clock and any
    /// in-flight migration plans for the current tick.
    ControllerRestart,
}

impl Fault {
    /// Stable snake-case kind label (mirrors the journal's
    /// `fault_injected` event payload).
    pub fn kind(&self) -> &'static str {
        match self {
            Fault::NodeCrash { .. } => "node_crash",
            Fault::NodeRecover { .. } => "node_recover",
            Fault::LinkDown { .. } => "link_down",
            Fault::LinkUp { .. } => "link_up",
            Fault::ProbeLossStart { .. } => "probe_loss_start",
            Fault::ProbeLossStop => "probe_loss_stop",
            Fault::StaleTraceStart { .. } => "stale_trace_start",
            Fault::StaleTraceStop { .. } => "stale_trace_stop",
            Fault::ControllerRestart => "controller_restart",
        }
    }

    /// The `target` string reported in the journal: `"node:<id>"`,
    /// `"link:<a>-<b>"`, `"netmon"`, or `"controller"`.
    pub fn target(&self) -> String {
        match self {
            Fault::NodeCrash { node } | Fault::NodeRecover { node } => format!("node:{}", node.0),
            Fault::LinkDown { a, b }
            | Fault::LinkUp { a, b }
            | Fault::StaleTraceStart { a, b }
            | Fault::StaleTraceStop { a, b } => format!("link:{}-{}", a.0, b.0),
            Fault::ProbeLossStart { .. } | Fault::ProbeLossStop => "netmon".to_string(),
            Fault::ControllerRestart => "controller".to_string(),
        }
    }
}

/// Why [`FaultPlan::validate`] rejected a plan read from outside the
/// program. `index` counts events from zero in file order.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// An event is due before its predecessor; the emulator's timeline
    /// and its tick-skip bound rely on time order.
    OutOfOrder {
        /// The offending event.
        index: usize,
    },
    /// A probe-loss probability outside `[0, 1]` (or not finite).
    LossProbability {
        /// The offending event.
        index: usize,
        /// The probability found.
        p: f64,
    },
    /// An event names a node the topology does not have.
    UnknownNode {
        /// The offending event.
        index: usize,
        /// The node named.
        node: NodeId,
    },
    /// An event names a link the topology does not have.
    UnknownLink {
        /// The offending event.
        index: usize,
        /// One endpoint named.
        a: NodeId,
        /// The other endpoint named.
        b: NodeId,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::OutOfOrder { index } => {
                let prev = index - 1;
                write!(f, "event {index}: due before event {prev}, events must be in time order")
            }
            PlanError::LossProbability { index, p } => {
                write!(f, "event {index}: probe-loss probability {p} is not in [0, 1]")
            }
            PlanError::UnknownNode { index, node } => write!(f, "event {index}: unknown node {node}"),
            PlanError::UnknownLink { index, a, b } => {
                write!(f, "event {index}: no link between {a} and {b}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Rates and targets for [`FaultPlan::poisson`] storm compilation.
///
/// Every rate is in events per second of simulated time; a rate of zero
/// disables that fault category. Targets are drawn uniformly from the
/// `nodes` / `links` lists with a per-category forked RNG stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StormProfile {
    /// Node-crash arrival rate (events/s).
    pub node_crash_rate: f64,
    /// How long a crashed node stays down, seconds.
    pub crash_downtime_s: f64,
    /// Link-flap arrival rate (events/s).
    pub link_flap_rate: f64,
    /// How long a flapped link stays down, seconds.
    pub flap_downtime_s: f64,
    /// Probe-loss episode arrival rate (events/s).
    pub probe_loss_rate: f64,
    /// Per-sample drop probability during a probe-loss episode.
    pub probe_loss_p: f64,
    /// Probe-loss episode length, seconds.
    pub probe_loss_duration_s: f64,
    /// Nodes eligible for crashes.
    pub nodes: Vec<NodeId>,
    /// Links eligible for flaps, as endpoint pairs.
    pub links: Vec<(NodeId, NodeId)>,
}

impl StormProfile {
    /// Makes every node and link of `topo` eligible for this storm,
    /// replacing the current target lists. Scenario generators use this
    /// to aim a rate-only profile at a freshly synthesized topology.
    pub fn targeting(mut self, topo: &bass_mesh::Topology) -> Self {
        self.nodes = topo.nodes().collect();
        self.links = topo.links().map(|(_, l)| (l.a, l.b)).collect();
        self
    }
}

impl Default for StormProfile {
    fn default() -> Self {
        StormProfile {
            node_crash_rate: 0.0,
            crash_downtime_s: 30.0,
            link_flap_rate: 0.0,
            flap_downtime_s: 10.0,
            probe_loss_rate: 0.0,
            probe_loss_p: 0.5,
            probe_loss_duration_s: 60.0,
            nodes: Vec::new(),
            links: Vec::new(),
        }
    }
}

/// A time-ordered, pre-compiled fault schedule.
///
/// A plan is only a schedule: the environment that runs it keeps how far
/// the run has got. The whole schedule is materialized at construction —
/// nothing is drawn at run time — which is what makes a faulted run
/// replay bit-for-bit.
///
/// # Examples
///
/// ```
/// use bass_faults::{Fault, FaultPlan};
/// use bass_mesh::NodeId;
/// use bass_util::time::SimTime;
///
/// // Crash node 2 at t=30 s for one minute.
/// let plan = FaultPlan::new().node_crash(
///     NodeId(2),
///     SimTime::from_secs(30),
///     SimTime::from_secs(90),
/// );
/// assert_eq!(plan.remaining(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// `(due time, fault)` pairs; kept sorted by time.
    events: Vec<(SimTime, Fault)>,
    /// Seed the applying environment derives runtime randomness from
    /// (currently only probe-loss sampling). Zero by default; explicit
    /// scripts that never start probe loss never touch it.
    seed: u64,
}

impl FaultPlan {
    /// An empty plan (injects nothing; runs behave exactly as unfaulted).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the seed runtime randomness (probe-loss sampling) derives
    /// from.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The plan's runtime-randomness seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Adds a fault at time `t`, keeping the schedule sorted (stable for
    /// equal times: later insertions at the same instant apply later).
    #[must_use]
    pub fn at(mut self, t: SimTime, fault: Fault) -> Self {
        let idx = self.events.partition_point(|&(at, _)| at <= t);
        self.events.insert(idx, (t, fault));
        self
    }

    /// Schedules a crash of `node` at `at`, recovering at `until`.
    #[must_use]
    pub fn node_crash(self, node: NodeId, at: SimTime, until: SimTime) -> Self {
        self.at(at, Fault::NodeCrash { node })
            .at(until, Fault::NodeRecover { node })
    }

    /// Schedules `cycles` down/up cycles of the `a`–`b` link: down at
    /// `start`, up after `down_for`, down again after a further `up_for`,
    /// and so on.
    #[must_use]
    pub fn link_flap(
        mut self,
        a: NodeId,
        b: NodeId,
        start: SimTime,
        down_for: bass_util::time::SimDuration,
        up_for: bass_util::time::SimDuration,
        cycles: u32,
    ) -> Self {
        let mut t = start;
        for _ in 0..cycles {
            self = self.at(t, Fault::LinkDown { a, b });
            t = t.saturating_add(down_for);
            self = self.at(t, Fault::LinkUp { a, b });
            t = t.saturating_add(up_for);
        }
        self
    }

    /// Schedules a probe-loss episode with drop probability `p` over
    /// `[from, until)`.
    #[must_use]
    pub fn probe_loss(self, p: f64, from: SimTime, until: SimTime) -> Self {
        self.at(from, Fault::ProbeLossStart { p })
            .at(until, Fault::ProbeLossStop)
    }

    /// Schedules a stale-trace episode on the `a`–`b` link over
    /// `[from, until)`.
    #[must_use]
    pub fn stale_trace(self, a: NodeId, b: NodeId, from: SimTime, until: SimTime) -> Self {
        self.at(from, Fault::StaleTraceStart { a, b })
            .at(until, Fault::StaleTraceStop { a, b })
    }

    /// Schedules a controller restart at `at`.
    #[must_use]
    pub fn controller_restart(self, at: SimTime) -> Self {
        self.at(at, Fault::ControllerRestart)
    }

    /// Compiles a random storm over `[0, horizon)` from seeded Poisson
    /// arrival processes, one independent RNG stream per fault category
    /// (so changing one rate never perturbs another category's draws).
    /// The same `(seed, horizon, profile)` triple always compiles the
    /// identical schedule.
    pub fn poisson(
        seed: u64,
        horizon: bass_util::time::SimDuration,
        profile: &StormProfile,
    ) -> Self {
        let mut root = SimRng::seed_from_u64(seed);
        let mut crash_rng = root.fork(1);
        let mut flap_rng = root.fork(2);
        let mut loss_rng = root.fork(3);
        let horizon_s = horizon.as_secs_f64();
        let mut plan = FaultPlan::new().with_seed(seed);

        if profile.node_crash_rate > 0.0 && !profile.nodes.is_empty() {
            let mut t = crash_rng.exponential(profile.node_crash_rate);
            while t < horizon_s {
                let node = *crash_rng.choose(&profile.nodes).expect("nodes non-empty");
                plan = plan.node_crash(
                    node,
                    SimTime::from_secs_f64(t),
                    SimTime::from_secs_f64(t + profile.crash_downtime_s),
                );
                t += profile.crash_downtime_s + crash_rng.exponential(profile.node_crash_rate);
            }
        }
        if profile.link_flap_rate > 0.0 && !profile.links.is_empty() {
            let mut t = flap_rng.exponential(profile.link_flap_rate);
            while t < horizon_s {
                let (a, b) = *flap_rng.choose(&profile.links).expect("links non-empty");
                plan = plan
                    .at(SimTime::from_secs_f64(t), Fault::LinkDown { a, b })
                    .at(
                        SimTime::from_secs_f64(t + profile.flap_downtime_s),
                        Fault::LinkUp { a, b },
                    );
                t += profile.flap_downtime_s + flap_rng.exponential(profile.link_flap_rate);
            }
        }
        if profile.probe_loss_rate > 0.0 {
            let mut t = loss_rng.exponential(profile.probe_loss_rate);
            while t < horizon_s {
                plan = plan.probe_loss(
                    profile.probe_loss_p,
                    SimTime::from_secs_f64(t),
                    SimTime::from_secs_f64(t + profile.probe_loss_duration_s),
                );
                t += profile.probe_loss_duration_s
                    + loss_rng.exponential(profile.probe_loss_rate);
            }
        }
        plan
    }

    /// Checks a plan that arrived from outside the program (a `--faults`
    /// file) against the topology it will run on: in time order, every
    /// probability in `[0, 1]`, every named node and link present. Plans
    /// assembled through the builders hold the first by construction.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] in file order.
    pub fn validate(&self, topo: &Topology) -> Result<(), PlanError> {
        for (index, (at, fault)) in self.events.iter().enumerate() {
            if index > 0 && *at < self.events[index - 1].0 {
                return Err(PlanError::OutOfOrder { index });
            }
            match *fault {
                Fault::NodeCrash { node } | Fault::NodeRecover { node } => {
                    if !topo.contains_node(node) {
                        return Err(PlanError::UnknownNode { index, node });
                    }
                }
                Fault::LinkDown { a, b }
                | Fault::LinkUp { a, b }
                | Fault::StaleTraceStart { a, b }
                | Fault::StaleTraceStop { a, b } => {
                    if topo.find_link(a, b).is_none() {
                        return Err(PlanError::UnknownLink { index, a, b });
                    }
                }
                Fault::ProbeLossStart { p } => {
                    if !(0.0..=1.0).contains(&p) {
                        return Err(PlanError::LossProbability { index, p });
                    }
                }
                Fault::ProbeLossStop | Fault::ControllerRestart => {}
            }
        }
        Ok(())
    }

    /// Faults in the plan (in `SimEnv::fault_plan`'s, those not yet injected).
    pub fn remaining(&self) -> usize {
        self.events.len()
    }

    /// The full schedule, in order.
    pub fn events(&self) -> &[(SimTime, Fault)] {
        &self.events
    }

    /// True when the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_util::time::SimDuration;

    #[test]
    fn builders_keep_events_sorted() {
        let plan = FaultPlan::new()
            .controller_restart(SimTime::from_secs(50))
            .node_crash(NodeId(1), SimTime::from_secs(10), SimTime::from_secs(40))
            .probe_loss(0.3, SimTime::from_secs(5), SimTime::from_secs(60));
        let times: Vec<u64> = plan.events().iter().map(|(t, _)| t.as_millis() / 1000).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        assert_eq!(plan.remaining(), 5);
    }

    #[test]
    fn link_flap_alternates_down_up() {
        let plan = FaultPlan::new().link_flap(
            NodeId(0),
            NodeId(1),
            SimTime::from_secs(10),
            SimDuration::from_secs(2),
            SimDuration::from_secs(3),
            2,
        );
        let kinds: Vec<&str> = plan.events().iter().map(|(_, f)| f.kind()).collect();
        assert_eq!(kinds, ["link_down", "link_up", "link_down", "link_up"]);
        assert_eq!(plan.events()[3].0, SimTime::from_secs(17));
    }

    #[test]
    fn poisson_storm_is_deterministic_and_sorted() {
        let profile = StormProfile {
            node_crash_rate: 0.02,
            link_flap_rate: 0.05,
            probe_loss_rate: 0.01,
            nodes: vec![NodeId(1), NodeId(2)],
            links: vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))],
            ..StormProfile::default()
        };
        let a = FaultPlan::poisson(7, SimDuration::from_secs(600), &profile);
        let b = FaultPlan::poisson(7, SimDuration::from_secs(600), &profile);
        assert_eq!(a, b, "same seed ⇒ identical schedule");
        assert!(!a.is_empty(), "rates × horizon should produce events");
        let times: Vec<u64> = a.events().iter().map(|(t, _)| t.as_micros()).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        let c = FaultPlan::poisson(8, SimDuration::from_secs(600), &profile);
        assert_ne!(a, c, "different seed ⇒ different schedule");
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan::new()
            .with_seed(9)
            .node_crash(NodeId(2), SimTime::from_secs(5), SimTime::from_secs(25))
            .stale_trace(NodeId(0), NodeId(1), SimTime::from_secs(1), SimTime::from_secs(9))
            .controller_restart(SimTime::from_secs(30));
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn fault_labels() {
        assert_eq!(Fault::NodeCrash { node: NodeId(3) }.kind(), "node_crash");
        assert_eq!(Fault::NodeCrash { node: NodeId(3) }.target(), "node:3");
        assert_eq!(
            Fault::LinkDown { a: NodeId(1), b: NodeId(4) }.target(),
            "link:1-4"
        );
        assert_eq!(Fault::ProbeLossStop.target(), "netmon");
        assert_eq!(Fault::ControllerRestart.target(), "controller");
    }
}
