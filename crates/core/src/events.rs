//! The event sources that bound a quiescent-window skip.
//!
//! A full simulation step costs the same whether or not anything can
//! change — and between trace change-points, scenario actions, faults,
//! restart expiries and probe epochs, with every flow queue at a bitwise
//! fixed point, nothing can. The environment's step loop therefore
//! follows each executed step with the largest window of ticks it can
//! prove quiescent: it takes the next occurrence of every
//! [`EventSource`], converts each into the number of whole ticks that
//! may elapse before that source can change any step input (the formula
//! depends on which clock the source is read against — see
//! [`EventSource::pre_advance`]), and advances time directly by the
//! minimum. Skipped ticks still stamp their journal events at true tick
//! times, so every output is byte-identical to executing each tick in
//! full (see `docs/ARCHITECTURE.md`).

/// What produces an upcoming change to a step input — decides which
/// skip-bound formula applies (see [`EventSource::pre_advance`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventSource {
    /// A fault-plan entry becomes due.
    Fault,
    /// A scenario action becomes due.
    Scenario,
    /// A restarting component finishes its downtime.
    RestartExpiry,
    /// Some link's bandwidth trace reaches its next change-point.
    TraceChange,
    /// The controller's next headroom-probe epoch (which also ends any
    /// cooldown that could matter — the controller is a guaranteed
    /// no-op between probe epochs).
    ProbeEpoch,
}

impl EventSource {
    /// Whether this source is evaluated against the **pre-advance**
    /// clock of a tick (faults and scenario actions are applied before
    /// `Mesh::advance` moves time) rather than the post-advance clock
    /// (trace capacities and probe epochs are read after it). A
    /// pre-advance event at time `t` affects the tick that
    /// *starts* at or after `t`; a post-advance event affects the tick
    /// that *ends* at or after `t` — one extra skippable tick. With
    /// `t0` the current clock, a pre-advance event caps the window at
    /// `⌈(t − t0)/step⌉` ticks and a post-advance one at
    /// `⌈(t − t0)/step⌉ − 1`.
    ///
    /// Restart expiries are classified post-advance even though the
    /// simulation pushes demands on the pre-advance clock: samplers
    /// (goodput recording, campaign metrics) read edge state on the
    /// post-advance clock, and the stricter bound keeps *both* clocks on
    /// one side of the expiry across a skipped window — which is what
    /// lets a campaign cache one sample tuple per window exactly.
    pub fn pre_advance(self) -> bool {
        match self {
            EventSource::Fault | EventSource::Scenario => true,
            EventSource::RestartExpiry
            | EventSource::TraceChange
            | EventSource::ProbeEpoch => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pre_advance_classification_covers_every_source() {
        for (source, pre) in [
            (EventSource::Fault, true),
            (EventSource::Scenario, true),
            (EventSource::RestartExpiry, false),
            (EventSource::TraceChange, false),
            (EventSource::ProbeEpoch, false),
        ] {
            assert_eq!(source.pre_advance(), pre, "{source:?}");
        }
    }
}
