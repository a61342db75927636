//! Per-link capacity sources and node egress caps.

use bass_trace::BandwidthTrace;
use bass_util::time::SimTime;
use bass_util::units::Bandwidth;

/// Where a link's capacity comes from at any instant.
///
/// Overrides layer on top of the base source (constant or trace) exactly
/// like a `tc` rate limit layers on top of the physical link: the
/// effective capacity is `min(base, override)`.
#[derive(Debug, Clone, PartialEq)]
pub enum CapacitySource {
    /// Fixed capacity (wired links, microbenchmark LANs).
    Constant(Bandwidth),
    /// Capacity replayed from a recorded or generated trace.
    Trace(BandwidthTrace),
}

impl CapacitySource {
    /// The base capacity at time `t`.
    pub fn capacity_at(&self, t: SimTime) -> Bandwidth {
        match self {
            CapacitySource::Constant(b) => *b,
            CapacitySource::Trace(trace) => trace.capacity_at(t),
        }
    }
}

/// A link's capacity state: base source plus optional `tc`-style cap.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LinkCapacity {
    source: CapacitySource,
    /// Optional artificial cap (the `tc` knob); `None` means unshapen.
    cap: Option<Bandwidth>,
}

impl LinkCapacity {
    /// Creates a capacity state from a source, with no cap.
    pub fn new(source: CapacitySource) -> Self {
        LinkCapacity { source, cap: None }
    }

    /// Applies or clears the artificial cap.
    pub(crate) fn set_cap(&mut self, cap: Option<Bandwidth>) {
        self.cap = cap;
    }

    /// Replaces the base source.
    pub(crate) fn set_source(&mut self, source: CapacitySource) {
        self.source = source;
    }

    /// Effective capacity at time `t`: `min(base, cap)`.
    pub(crate) fn effective_at(&self, t: SimTime) -> Bandwidth {
        self.capped(self.source.capacity_at(t))
    }

    /// [`effective_at`](Self::effective_at) `t` and the source's next
    /// change-point after `t` (`None` for a constant), a trace read
    /// forward from `cursor` ([`BandwidthTrace::read_forward`]).
    pub fn read_forward(&self, t: SimTime, cursor: &mut u32) -> (Bandwidth, Option<SimTime>) {
        let (base, next) = match &self.source {
            CapacitySource::Constant(b) => (*b, None),
            CapacitySource::Trace(trace) => trace.read_forward(t, cursor),
        };
        (self.capped(base), next)
    }

    fn capped(&self, base: Bandwidth) -> Bandwidth {
        match self.cap {
            Some(c) => base.min(c),
            None => base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_trace::BandwidthTrace;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    #[test]
    fn constant_source() {
        let lc = LinkCapacity::new(CapacitySource::Constant(mbps(100.0)));
        assert_eq!(lc.effective_at(SimTime::ZERO), mbps(100.0));
        assert_eq!(lc.effective_at(SimTime::from_secs(1000)), mbps(100.0));
    }

    #[test]
    fn trace_source() {
        let mut trace = BandwidthTrace::new("t");
        trace.push(SimTime::ZERO, mbps(50.0));
        trace.push(SimTime::from_secs(10), mbps(5.0));
        trace.push(SimTime::from_secs(15), mbps(50.0));
        let lc = LinkCapacity::new(CapacitySource::Trace(trace));
        assert_eq!(lc.effective_at(SimTime::from_secs(0)), mbps(50.0));
        assert_eq!(lc.effective_at(SimTime::from_secs(12)), mbps(5.0));
        assert_eq!(lc.effective_at(SimTime::from_secs(20)), mbps(50.0));
    }

    #[test]
    fn cap_layers_like_tc() {
        let mut lc = LinkCapacity::new(CapacitySource::Constant(mbps(1000.0)));
        lc.set_cap(Some(mbps(30.0)));
        assert_eq!(lc.effective_at(SimTime::ZERO), mbps(30.0));
        lc.set_cap(None);
        assert_eq!(lc.effective_at(SimTime::ZERO), mbps(1000.0));
    }

    #[test]
    fn cap_above_base_is_inert() {
        let mut lc = LinkCapacity::new(CapacitySource::Constant(mbps(10.0)));
        lc.set_cap(Some(mbps(100.0)));
        assert_eq!(lc.effective_at(SimTime::ZERO), mbps(10.0));
    }

    #[test]
    fn source_replacement() {
        let mut lc = LinkCapacity::new(CapacitySource::Constant(mbps(10.0)));
        lc.set_source(CapacitySource::Constant(mbps(20.0)));
        assert_eq!(lc.effective_at(SimTime::ZERO), mbps(20.0));
        assert!(matches!(lc.source, CapacitySource::Constant(_)));
    }
}
