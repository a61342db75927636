//! Deterministic step scripts — the `tc` of the simulated world.
//!
//! The paper's microbenchmarks shape traffic with `tc` ("we restrict the
//! bandwidth ... to 25 Mbps for 2 minutes"). [`StepScript`] expresses the
//! same thing declaratively: a base capacity plus a list of timed
//! restrictions, compiled into a [`BandwidthTrace`].

use crate::trace::BandwidthTrace;
use bass_util::time::{SimDuration, SimTime};
use bass_util::units::Bandwidth;
use serde::{Deserialize, Serialize};

/// A scripted capacity timeline: base capacity with timed overrides.
///
/// # Examples
///
/// ```
/// use bass_trace::StepScript;
/// use bass_util::prelude::*;
///
/// // Fig. 5's scenario: 1 Gbps link throttled to 25 Mbps for 2 minutes.
/// let trace = StepScript::new("n2-out", Bandwidth::from_mbps(1000.0))
///     .restrict(
///         SimTime::from_secs(60),
///         SimDuration::from_secs(120),
///         Bandwidth::from_mbps(25.0),
///     )
///     .compile(SimDuration::from_secs(300));
/// assert_eq!(trace.capacity_at(SimTime::from_secs(90)).as_mbps(), 25.0);
/// assert_eq!(trace.capacity_at(SimTime::from_secs(200)).as_mbps(), 1000.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepScript {
    name: String,
    base: Bandwidth,
    steps: Vec<(SimTime, Bandwidth)>,
}

impl StepScript {
    /// Creates a script with a constant base capacity.
    pub fn new(name: impl Into<String>, base: Bandwidth) -> Self {
        StepScript {
            name: name.into(),
            base,
            steps: Vec::new(),
        }
    }

    /// Sets the capacity to `value` from `at` onward (until the next step).
    fn set_at(mut self, at: SimTime, value: Bandwidth) -> Self {
        self.steps.push((at, value));
        self
    }

    /// Restricts capacity to `limit` during `[start, start + duration)`,
    /// returning to the base capacity afterwards.
    pub fn restrict(self, start: SimTime, duration: SimDuration, limit: Bandwidth) -> Self {
        let base = self.base;
        self.set_at(start, limit).set_at(start + duration, base)
    }

    /// The base capacity.
    pub fn base(&self) -> Bandwidth {
        self.base
    }

    /// Compiles the script into a trace covering `[0, duration]`.
    ///
    /// Steps may be added in any order; later-added steps win ties at the
    /// same instant (matching "last `tc` command wins" semantics).
    pub fn compile(&self, duration: SimDuration) -> BandwidthTrace {
        let end = SimTime::ZERO + duration;
        let mut steps: Vec<(SimTime, usize, Bandwidth)> = self
            .steps
            .iter()
            .enumerate()
            .filter(|&(_, &(t, _))| t <= end)
            .map(|(i, &(t, b))| (t, i, b))
            .collect();
        steps.sort_by_key(|&(t, i, _)| (t, i));

        let mut trace = BandwidthTrace::new(self.name.clone());
        trace.push(SimTime::ZERO, self.base);
        let mut last_time = SimTime::ZERO;
        let mut last_value = self.base;
        for (t, _, b) in steps {
            if t == last_time {
                // Overwrite the sample at this instant: rebuild.
                let mut rebuilt = BandwidthTrace::new(self.name.clone());
                for &(st, sb) in trace.samples() {
                    if st < t {
                        rebuilt.push(st, sb);
                    }
                }
                rebuilt.push(t, b);
                trace = rebuilt;
            } else {
                trace.push(t, b);
            }
            last_time = t;
            last_value = b;
        }
        let _ = last_value;
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    #[test]
    fn restrict_window() {
        let trace = StepScript::new("l", mbps(100.0))
            .restrict(SimTime::from_secs(10), SimDuration::from_secs(180), mbps(25.0))
            .compile(SimDuration::from_secs(400));
        assert_eq!(trace.capacity_at(SimTime::from_secs(0)), mbps(100.0));
        assert_eq!(trace.capacity_at(SimTime::from_secs(9)), mbps(100.0));
        assert_eq!(trace.capacity_at(SimTime::from_secs(10)), mbps(25.0));
        assert_eq!(trace.capacity_at(SimTime::from_secs(189)), mbps(25.0));
        assert_eq!(trace.capacity_at(SimTime::from_secs(190)), mbps(100.0));
    }

    #[test]
    fn multiple_restrictions() {
        let trace = StepScript::new("l", mbps(50.0))
            .restrict(SimTime::from_secs(10), SimDuration::from_secs(10), mbps(5.0))
            .restrict(SimTime::from_secs(40), SimDuration::from_secs(10), mbps(8.0))
            .compile(SimDuration::from_secs(100));
        assert_eq!(trace.capacity_at(SimTime::from_secs(15)), mbps(5.0));
        assert_eq!(trace.capacity_at(SimTime::from_secs(30)), mbps(50.0));
        assert_eq!(trace.capacity_at(SimTime::from_secs(45)), mbps(8.0));
        assert_eq!(trace.capacity_at(SimTime::from_secs(60)), mbps(50.0));
    }

    #[test]
    fn later_step_wins_ties() {
        let trace = StepScript::new("l", mbps(10.0))
            .set_at(SimTime::from_secs(5), mbps(1.0))
            .set_at(SimTime::from_secs(5), mbps(2.0))
            .compile(SimDuration::from_secs(10));
        assert_eq!(trace.capacity_at(SimTime::from_secs(5)), mbps(2.0));
        assert_eq!(trace.capacity_at(SimTime::from_secs(4)), mbps(10.0));
    }

    #[test]
    fn steps_out_of_order_are_sorted() {
        let trace = StepScript::new("l", mbps(10.0))
            .set_at(SimTime::from_secs(8), mbps(3.0))
            .set_at(SimTime::from_secs(2), mbps(7.0))
            .compile(SimDuration::from_secs(10));
        assert_eq!(trace.capacity_at(SimTime::from_secs(3)), mbps(7.0));
        assert_eq!(trace.capacity_at(SimTime::from_secs(9)), mbps(3.0));
    }

    #[test]
    fn steps_beyond_duration_are_dropped() {
        let trace = StepScript::new("l", mbps(10.0))
            .set_at(SimTime::from_secs(500), mbps(1.0))
            .compile(SimDuration::from_secs(100));
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.capacity_at(SimTime::from_secs(99)), mbps(10.0));
    }

    #[test]
    fn plain_base_compiles_to_constant() {
        let trace = StepScript::new("l", mbps(30.0)).compile(SimDuration::from_secs(60));
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.capacity_at(SimTime::from_secs(59)), mbps(30.0));
    }
}
