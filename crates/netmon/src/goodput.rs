//! Passive per-edge goodput measurement.
//!
//! The paper measures TX/RX bytes between application components with a
//! BPF program and Istio sidecars (§5), and the controller pulls those
//! counters when it decides. Against the simulated mesh, the emulation
//! layer answers the same question at the moment it is asked: for a
//! bound DAG edge, the bandwidth the edge *required* and what it
//! actually *achieved*. Nothing is stored between reads.

use bass_appdag::ComponentId;
use bass_util::units::Bandwidth;
use std::collections::BTreeMap;

/// One edge's measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeUsage {
    /// The edge's declared bandwidth requirement.
    pub required: Bandwidth,
    /// The bandwidth the edge actually achieved.
    pub achieved: Bandwidth,
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

/// Per-edge goodput as the controller reads it (Algorithm 3's input).
///
/// # Examples
///
/// ```
/// use bass_appdag::ComponentId;
/// use bass_netmon::{EdgeUsage, GoodputView};
/// use bass_util::prelude::*;
/// use std::collections::BTreeMap;
///
/// let usage = EdgeUsage {
///     required: Bandwidth::from_mbps(8.0),
///     achieved: Bandwidth::from_mbps(2.0),
/// };
/// let table = BTreeMap::from([((ComponentId(1), ComponentId(2)), usage)]);
/// let view: &dyn GoodputView = &table;
/// assert_eq!(view.usage(ComponentId(1), ComponentId(2)).unwrap().goodput_fraction(), 0.25);
/// assert_eq!(view.usage(ComponentId(2), ComponentId(1)), None);
/// ```
pub trait GoodputView {
    /// The directed edge `from → to`'s usage now; `None` when the edge
    /// carries nothing to measure (it is not bound).
    fn usage(&self, from: ComponentId, to: ComponentId) -> Option<EdgeUsage>;
}

/// A fixed table of measurements.
impl GoodputView for BTreeMap<(ComponentId, ComponentId), EdgeUsage> {
    fn usage(&self, from: ComponentId, to: ComponentId) -> Option<EdgeUsage> {
        self.get(&(from, to)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    #[test]
    fn zero_requirement_is_satisfied() {
        let u = EdgeUsage { required: Bandwidth::ZERO, achieved: Bandwidth::ZERO };
        assert_eq!(u.goodput_fraction(), 1.0);
    }

    #[test]
    fn overachieving_edge_exceeds_one() {
        let u = EdgeUsage { required: mbps(4.0), achieved: mbps(6.0) };
        assert!((u.goodput_fraction() - 1.5).abs() < 1e-12);
    }
}
