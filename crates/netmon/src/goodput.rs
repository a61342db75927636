//! Passive per-edge goodput measurement.
//!
//! The paper measures TX/RX bytes between application components with a
//! BPF program and Istio sidecars (§5). Against the simulated mesh, the
//! emulation layer reports, for every DAG edge, the bandwidth the edge
//! *required* and what it actually *achieved*; the monitor turns that
//! into the goodput fraction Algorithm 3 consumes.

use bass_appdag::ComponentId;
use bass_util::time::SimTime;
use bass_util::units::Bandwidth;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One edge's most recent measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeUsage {
    /// The edge's declared bandwidth requirement.
    pub required: Bandwidth,
    /// The bandwidth the edge actually achieved.
    pub achieved: Bandwidth,
    /// When the measurement was taken.
    pub measured_at: SimTime,
}

impl EdgeUsage {
    /// Fraction of the requirement actually achieved, in `[0, ∞)`;
    /// 1.0 when the requirement is zero (a zero-demand edge is trivially
    /// satisfied).
    pub fn goodput_fraction(&self) -> f64 {
        if self.required.is_zero() {
            1.0
        } else {
            self.achieved.as_bps() / self.required.as_bps()
        }
    }
}

/// Passive monitor of per-edge goodput.
///
/// # Examples
///
/// ```
/// use bass_appdag::ComponentId;
/// use bass_netmon::GoodputMonitor;
/// use bass_util::prelude::*;
///
/// let mut monitor = GoodputMonitor::new();
/// monitor.record(
///     ComponentId(1),
///     ComponentId(2),
///     Bandwidth::from_mbps(8.0),
///     Bandwidth::from_mbps(2.0),
///     SimTime::from_secs(30),
/// );
/// let frac = monitor.goodput_fraction(ComponentId(1), ComponentId(2)).unwrap();
/// assert_eq!(frac, 0.25);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GoodputMonitor {
    edges: BTreeMap<(ComponentId, ComponentId), EdgeUsage>,
}

impl GoodputMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        GoodputMonitor::default()
    }

    /// Records the latest measurement for the directed edge `from → to`.
    pub fn record(
        &mut self,
        from: ComponentId,
        to: ComponentId,
        required: Bandwidth,
        achieved: Bandwidth,
        now: SimTime,
    ) {
        self.edges.insert(
            (from, to),
            EdgeUsage {
                required,
                achieved,
                measured_at: now,
            },
        );
    }

    /// The latest measurement for an edge.
    pub fn usage(&self, from: ComponentId, to: ComponentId) -> Option<EdgeUsage> {
        self.edges.get(&(from, to)).copied()
    }

    /// The latest goodput fraction for an edge.
    pub fn goodput_fraction(&self, from: ComponentId, to: ComponentId) -> Option<f64> {
        self.usage(from, to).map(|u| u.goodput_fraction())
    }

    /// Iterates all measured edges.
    pub fn iter(&self) -> impl Iterator<Item = (ComponentId, ComponentId, EdgeUsage)> + '_ {
        self.edges.iter().map(|(&(f, t), &u)| (f, t, u))
    }

    /// Number of measured edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when nothing was measured yet.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Drops every measurement with `component` at either end — a retired
    /// app instance must not leave goodput ghosts behind for the
    /// controller to chase.
    pub fn forget_touching(&mut self, component: ComponentId) {
        self.edges
            .retain(|&(f, t), _| f != component && t != component);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    #[test]
    fn record_and_query() {
        let mut m = GoodputMonitor::new();
        assert!(m.is_empty());
        m.record(ComponentId(1), ComponentId(2), mbps(10.0), mbps(5.0), SimTime::ZERO);
        assert_eq!(m.len(), 1);
        assert_eq!(m.goodput_fraction(ComponentId(1), ComponentId(2)), Some(0.5));
        // Directed: the reverse edge is distinct.
        assert_eq!(m.usage(ComponentId(2), ComponentId(1)), None);
    }

    #[test]
    fn latest_measurement_wins() {
        let mut m = GoodputMonitor::new();
        m.record(ComponentId(1), ComponentId(2), mbps(10.0), mbps(1.0), SimTime::ZERO);
        m.record(ComponentId(1), ComponentId(2), mbps(10.0), mbps(9.0), SimTime::from_secs(30));
        assert_eq!(m.goodput_fraction(ComponentId(1), ComponentId(2)), Some(0.9));
        assert_eq!(
            m.usage(ComponentId(1), ComponentId(2)).unwrap().measured_at,
            SimTime::from_secs(30)
        );
    }

    #[test]
    fn zero_requirement_is_satisfied() {
        let u = EdgeUsage {
            required: Bandwidth::ZERO,
            achieved: Bandwidth::ZERO,
            measured_at: SimTime::ZERO,
        };
        assert_eq!(u.goodput_fraction(), 1.0);
    }

    #[test]
    fn overachieving_edge_exceeds_one() {
        let u = EdgeUsage {
            required: mbps(4.0),
            achieved: mbps(6.0),
            measured_at: SimTime::ZERO,
        };
        assert!((u.goodput_fraction() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn forget_touching_drops_both_directions() {
        let mut m = GoodputMonitor::new();
        m.record(ComponentId(1), ComponentId(2), mbps(1.0), mbps(1.0), SimTime::ZERO);
        m.record(ComponentId(2), ComponentId(3), mbps(1.0), mbps(1.0), SimTime::ZERO);
        m.record(ComponentId(3), ComponentId(4), mbps(1.0), mbps(1.0), SimTime::ZERO);
        m.forget_touching(ComponentId(2));
        assert_eq!(m.len(), 1);
        assert!(m.usage(ComponentId(3), ComponentId(4)).is_some());
    }

    #[test]
    fn iteration_order_is_deterministic() {
        let mut m = GoodputMonitor::new();
        m.record(ComponentId(3), ComponentId(1), mbps(1.0), mbps(1.0), SimTime::ZERO);
        m.record(ComponentId(1), ComponentId(2), mbps(1.0), mbps(1.0), SimTime::ZERO);
        let keys: Vec<(ComponentId, ComponentId)> = m.iter().map(|(f, t, _)| (f, t)).collect();
        assert_eq!(keys, vec![(ComponentId(1), ComponentId(2)), (ComponentId(3), ComponentId(1))]);
    }
}
