//! Timed inputs: the simulated equivalent of an experiment script —
//! apps arriving and leaving, `tc` shaping, injected faults.

use bass_appdag::AppDag;
use bass_faults::Fault;
use bass_mesh::NodeId;
use bass_util::time::SimTime;
use bass_util::units::Bandwidth;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One network manipulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Action {
    /// Cap (or, with `None`, uncap) the link between two nodes.
    CapLink {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// The cap; `None` removes shaping.
        cap: Option<Bandwidth>,
    },
    /// Cap (or uncap) a node's total outgoing traffic.
    CapNodeEgress {
        /// The node whose egress is shaped.
        node: NodeId,
        /// The cap; `None` removes shaping.
        cap: Option<Bandwidth>,
    },
}

/// One timed input to a run.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// Admits an instance, as [`SimEnv::admit_app`](crate::SimEnv::admit_app);
    /// one the cluster cannot host is counted as rejected.
    Admit {
        /// The instance's name in the journal and the live-app view.
        label: String,
        /// The application; every instance of one kind shares it.
        app: Arc<AppDag>,
        /// Component-id offset of this instance.
        offset: u32,
    },
    /// Retires the live instance admitted under `label`, if any.
    Retire {
        /// The instance's label.
        label: String,
    },
    /// Injects a fault.
    Fault(Fault),
    /// Applies a `tc` action.
    Action(Action),
}

impl From<Action> for Input {
    fn from(action: Action) -> Self {
        Input::Action(action)
    }
}

/// A time-ordered script of inputs. It is only a schedule: the
/// environment it is installed in keeps how far the run has got.
///
/// # Examples
///
/// ```
/// use bass_emu::{Action, Scenario};
/// use bass_mesh::NodeId;
/// use bass_util::prelude::*;
///
/// // Fig. 13's scenario: throttle two nodes 10 s in, lift after 3 min.
/// let scenario = Scenario::new()
///     .at(SimTime::from_secs(10), Action::CapNodeEgress {
///         node: NodeId(2),
///         cap: Some(Bandwidth::from_mbps(25.0)),
///     })
///     .at(SimTime::from_secs(190), Action::CapNodeEgress {
///         node: NodeId(2),
///         cap: None,
///     });
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scenario {
    /// `(due time, input)` pairs; kept sorted by time.
    pub(crate) inputs: Vec<(SimTime, Input)>,
}

impl Scenario {
    /// An empty scenario.
    pub fn new() -> Self {
        Scenario::default()
    }

    /// Adds an input at `t` (inputs may be added in any order; inputs at
    /// the same instant keep the order they were added in).
    pub fn at(mut self, t: SimTime, input: impl Into<Input>) -> Self {
        let idx = self.inputs.partition_point(|&(at, _)| at <= t);
        self.inputs.insert(idx, (t, input.into()));
        self
    }

    /// Convenience: restrict then restore a node's egress (the paper's
    /// favourite manipulation).
    pub fn restrict_node_egress(
        self,
        node: NodeId,
        from: SimTime,
        until: SimTime,
        cap: Bandwidth,
    ) -> Self {
        self.at(from, Action::CapNodeEgress { node, cap: Some(cap) })
            .at(until, Action::CapNodeEgress { node, cap: None })
    }
}
