//! Per-flow queueing: delay inflation under load and backlog under
//! overload.
//!
//! The fluid model needs a delay figure for "transfer a message of size S
//! on this flow". Three regimes:
//!
//! 1. **Uncongested** (`offered < allocated`): transfer takes
//!    `S/allocated`, inflated by the M/M/1 factor `1/(1 - rho)` with
//!    `rho = offered/allocated` to capture statistical queueing.
//! 2. **Saturated** (`offered >= allocated`): the excess accumulates in
//!    an explicit backlog; a new message waits for the backlog to drain
//!    before its own serialization. This is what makes latency explode by
//!    orders of magnitude during the paper's 25 Mbps squeeze (Fig. 5) and
//!    recover after migration.
//! 3. **Dead** (`allocated == 0`): delay is effectively infinite.
//!
//! Loss (for the video-conferencing loss plots, Fig. 4) is the excess
//! demand fraction `max(0, 1 - allocated/offered)`.

use bass_util::time::SimDuration;
use bass_util::units::{Bandwidth, DataSize};
use serde::{Deserialize, Serialize};

/// Cap on the utilization used in the M/M/1 inflation factor so the
/// uncongested regime never produces unbounded delays by itself; past
/// this point the explicit backlog takes over.
const RHO_CAP: f64 = 0.95;

/// Maximum backlog drain time we report, to keep a dead flow's delay
/// finite and comparable (10 minutes dwarfs every experiment's timeout).
pub const MAX_DELAY: SimDuration = SimDuration::from_secs(600);

/// Queue state for one flow (one direction).
///
/// # Examples
///
/// ```
/// use bass_mesh::queueing::FlowQueue;
/// use bass_util::prelude::*;
///
/// let mut q = FlowQueue::new();
/// // Offered 10 Mbps onto an allocation of 5 Mbps for 2 seconds:
/// q.advance(SimDuration::from_secs(2), Bandwidth::from_mbps(10.0), Bandwidth::from_mbps(5.0));
/// assert!(q.backlog().as_bytes() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FlowQueue {
    /// Accumulated un-sent bits.
    backlog_bits: f64,
    /// Bottleneck-link utilization observed at the last advance.
    rho: f64,
}

impl FlowQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        FlowQueue::default()
    }

    /// Advances the queue by `dt` with the given offered and allocated
    /// rates: backlog grows by `offered - allocated` (and drains when
    /// negative).
    pub fn advance(&mut self, dt: SimDuration, offered: Bandwidth, allocated: Bandwidth) {
        let secs = dt.as_secs_f64();
        self.backlog_bits += (offered.as_bps() - allocated.as_bps()) * secs;
        self.backlog_bits = self.backlog_bits.max(0.0);
    }

    /// Updates the utilization of the flow's bottleneck link (total
    /// traffic over capacity, from the allocator's per-link accounting).
    /// Clamped to `[0, 1]`.
    pub fn set_path_utilization(&mut self, rho: f64) {
        self.rho = rho.clamp(0.0, 1.0);
    }

    /// Current backlog.
    pub fn backlog(&self) -> DataSize {
        DataSize::from_bytes((self.backlog_bits / 8.0) as u64)
    }

    /// Delay to deliver a message of `size`:
    ///
    /// - queued backlog drains first at the flow's `allocated` rate;
    /// - the message itself serializes **at line rate** (`capacity`, the
    ///   path's bottleneck capacity — packets burst at link speed, not
    ///   at the flow's average rate), inflated by the M/M/1 factor
    ///   `1/(1 − rho)` for the bottleneck utilization.
    ///
    /// Capped at a large constant (10 minutes — far beyond any
    /// experiment's timeout); a dead path (`capacity == 0`) returns the
    /// cap.
    pub fn transfer_delay(
        &self,
        size: DataSize,
        capacity: Bandwidth,
        allocated: Bandwidth,
    ) -> SimDuration {
        if capacity.is_zero() {
            return MAX_DELAY;
        }
        let drain_secs = if self.backlog_bits <= 0.0 {
            0.0
        } else if allocated.is_zero() {
            return MAX_DELAY;
        } else {
            self.backlog_bits / allocated.as_bps()
        };
        let rho = self.rho.min(RHO_CAP);
        let serialize_secs = size.as_bits() as f64 / capacity.as_bps() / (1.0 - rho);
        let total = SimDuration::from_secs_f64(drain_secs + serialize_secs);
        total.min(MAX_DELAY)
    }

    /// Loss fraction for real-time (non-queued) traffic at the given
    /// rates: the share of offered data that does not fit.
    pub fn loss_fraction(offered: Bandwidth, allocated: Bandwidth) -> f64 {
        if offered.is_zero() {
            return 0.0;
        }
        (1.0 - allocated.as_bps() / offered.as_bps()).clamp(0.0, 1.0)
    }
}

/// Forwarding latency of one wireless hop: 802.11 per-hop forwarding
/// latency is on the order of a millisecond.
const HOP_LATENCY: SimDuration = SimDuration::from_millis(1);

/// Latency between co-located (loopback) components.
pub const LOOPBACK_LATENCY: SimDuration = SimDuration::from_micros(50);

/// Propagation latency for a path of `hops` wireless hops (0 hops =
/// loopback).
pub(crate) fn hop_latency(hops: usize) -> SimDuration {
    if hops == 0 {
        LOOPBACK_LATENCY
    } else {
        HOP_LATENCY * hops as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    #[test]
    fn uncongested_delay_is_near_serialization() {
        let mut q = FlowQueue::new();
        q.advance(SimDuration::from_secs(1), mbps(1.0), mbps(1.0));
        q.set_path_utilization(0.1);
        // 1 Mbit message bursting at 10 Mbps line rate, rho = 0.1.
        let d = q.transfer_delay(DataSize::from_bytes(125_000), mbps(10.0), mbps(1.0));
        let expect = 1.0 / 10.0 / (1.0 - 0.1);
        assert!((d.as_secs_f64() - expect).abs() < 1e-3, "{d}");
    }

    #[test]
    fn overload_grows_backlog_and_delay() {
        let mut q = FlowQueue::new();
        q.advance(SimDuration::from_secs(10), mbps(10.0), mbps(5.0));
        q.set_path_utilization(1.0);
        // 50 Mbit backlog at 5 Mbps → 10 s drain.
        let d = q.transfer_delay(DataSize::from_bytes(1), mbps(5.0), mbps(5.0));
        assert!(d.as_secs_f64() > 9.9, "{d}");
        // Draining: allocation above offer shrinks the backlog.
        q.advance(SimDuration::from_secs(10), Bandwidth::ZERO, mbps(5.0));
        assert_eq!(q.backlog(), DataSize::ZERO);
    }

    #[test]
    fn backlog_never_negative() {
        let mut q = FlowQueue::new();
        q.advance(SimDuration::from_secs(100), Bandwidth::ZERO, mbps(100.0));
        assert_eq!(q.backlog(), DataSize::ZERO);
    }

    #[test]
    fn dead_path_delay_is_capped() {
        let q = FlowQueue::new();
        let d = q.transfer_delay(DataSize::from_megabytes(1), Bandwidth::ZERO, Bandwidth::ZERO);
        assert_eq!(d, MAX_DELAY);
    }

    #[test]
    fn backlog_with_zero_allocation_is_capped() {
        let mut q = FlowQueue::new();
        q.advance(SimDuration::from_secs(1), mbps(10.0), Bandwidth::ZERO);
        let d = q.transfer_delay(DataSize::from_bytes(1), mbps(10.0), Bandwidth::ZERO);
        assert_eq!(d, MAX_DELAY);
    }

    #[test]
    fn delay_capped_under_huge_backlog() {
        let mut q = FlowQueue::new();
        q.advance(SimDuration::from_secs(10_000), mbps(100.0), mbps(0.001));
        let d = q.transfer_delay(DataSize::from_bytes(1), mbps(0.001), mbps(0.001));
        assert_eq!(d, MAX_DELAY);
    }

    #[test]
    fn loss_fraction_regimes() {
        assert_eq!(FlowQueue::loss_fraction(Bandwidth::ZERO, mbps(1.0)), 0.0);
        assert_eq!(FlowQueue::loss_fraction(mbps(1.0), mbps(1.0)), 0.0);
        assert_eq!(FlowQueue::loss_fraction(mbps(2.0), mbps(1.0)), 0.5);
        assert_eq!(FlowQueue::loss_fraction(mbps(1.0), Bandwidth::ZERO), 1.0);
    }

    #[test]
    fn hop_latency_is_loopback_or_per_hop() {
        assert_eq!(hop_latency(0), SimDuration::from_micros(50));
        assert_eq!(hop_latency(3), SimDuration::from_millis(3));
    }
}
