//! Migration cost bookkeeping.
//!
//! Migrating a component is not free: the component must be evicted,
//! rescheduled, and restarted, and the application sees degraded service
//! while connections re-establish. The paper measures ~20–30 s for the
//! Pion server to restart and re-establish WebRTC connections (§6.2.3,
//! §6.3.2) and a latency spike from 552 ms to ≈4.9 s around a social
//! network component restart (Fig. 14a).

use bass_appdag::ComponentId;
use bass_mesh::NodeId;
use bass_util::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How a component restart degrades service.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RestartModel {
    /// Time during which the component is completely unavailable
    /// (rescheduling + container start + connection re-establishment).
    pub downtime: SimDuration,
    /// After downtime ends, residual degradation (e.g. cold caches,
    /// reconnection storms) decays linearly over this long.
    pub recovery: SimDuration,
    /// Peak latency-inflation factor right after the restart.
    pub recovery_slowdown: f64,
}

impl Default for RestartModel {
    /// The social-network calibration: latency jumps from ~0.55 s to
    /// ~4.9 s around a restart (Fig. 14a), i.e. ≈9× inflation decaying
    /// over a few seconds, with a short hard outage.
    fn default() -> Self {
        RestartModel {
            downtime: SimDuration::from_secs(5),
            recovery: SimDuration::from_secs(10),
            recovery_slowdown: 9.0,
        }
    }
}

impl RestartModel {
    /// The WebRTC calibration: ~20 s to restart the SFU and re-establish
    /// connections (§6.3.2), no residual slowdown afterwards.
    pub fn webrtc() -> Self {
        RestartModel {
            downtime: SimDuration::from_secs(20),
            recovery: SimDuration::ZERO,
            recovery_slowdown: 1.0,
        }
    }

    /// Latency inflation factor at `now` for a restart that began at
    /// `started`: infinite during downtime is approximated by the caller
    /// treating [`RestartModel::is_down`] specially; afterwards the
    /// factor decays linearly from `recovery_slowdown` to 1.
    pub fn slowdown_at(&self, started: SimTime, now: SimTime) -> f64 {
        if now < started {
            return 1.0;
        }
        let since = now.saturating_since(started);
        if since < self.downtime {
            return self.recovery_slowdown.max(1.0);
        }
        if self.recovery.is_zero() {
            return 1.0;
        }
        let into_recovery = since - self.downtime;
        if into_recovery >= self.recovery {
            return 1.0;
        }
        let frac = into_recovery.as_secs_f64() / self.recovery.as_secs_f64();
        let peak = self.recovery_slowdown.max(1.0);
        peak + (1.0 - peak) * frac
    }

    /// True while the component is hard-down.
    pub fn is_down(&self, started: SimTime, now: SimTime) -> bool {
        now >= started && now.saturating_since(started) < self.downtime
    }
}

/// A record of one performed migration (for Table 1-style reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// When the migration was triggered.
    pub at: SimTime,
    /// Which component moved.
    pub component: ComponentId,
    /// Node it left.
    pub from: NodeId,
    /// Node it joined.
    pub to: NodeId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_timeline() {
        let m = RestartModel {
            downtime: SimDuration::from_secs(5),
            recovery: SimDuration::from_secs(10),
            recovery_slowdown: 9.0,
        };
        let start = SimTime::from_secs(100);
        // Before the restart: no effect.
        assert_eq!(m.slowdown_at(start, SimTime::from_secs(50)), 1.0);
        assert!(!m.is_down(start, SimTime::from_secs(50)));
        // During downtime.
        assert!(m.is_down(start, SimTime::from_secs(102)));
        assert_eq!(m.slowdown_at(start, SimTime::from_secs(102)), 9.0);
        // Midway through recovery: halfway back to 1.
        let mid = m.slowdown_at(start, SimTime::from_secs(110));
        assert!((mid - 5.0).abs() < 1e-9, "{mid}");
        // Fully recovered.
        assert_eq!(m.slowdown_at(start, SimTime::from_secs(115)), 1.0);
    }

    #[test]
    fn webrtc_model_is_outage_only() {
        let m = RestartModel::webrtc();
        let start = SimTime::from_secs(10);
        assert!(m.is_down(start, SimTime::from_secs(29)));
        assert!(!m.is_down(start, SimTime::from_secs(30)));
        assert_eq!(m.slowdown_at(start, SimTime::from_secs(31)), 1.0);
    }

    #[test]
    fn degenerate_models_are_safe() {
        let m = RestartModel {
            downtime: SimDuration::ZERO,
            recovery: SimDuration::ZERO,
            recovery_slowdown: 0.5, // below 1 must clamp
        };
        let t = SimTime::from_secs(1);
        assert!(!m.is_down(t, t));
        assert_eq!(m.slowdown_at(t, t), 1.0);
    }
}
