//! Max-capacity and headroom probing with overhead accounting.

use bass_mesh::{Mesh, NodeId};
use bass_util::rng::SimRng;
use bass_util::time::{SimDuration, SimTime};
use bass_util::units::{Bandwidth, DataSize};
use serde::{Deserialize, Serialize};

/// Configuration of the net-monitor's probing behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetMonitorConfig {
    /// Spare capacity to maintain on every link, as a fraction of the
    /// link's (cached) capacity. The paper uses ~20% (4 Mbps on a
    /// 25 Mbps link, Fig. 8). The controller hands the same value to
    /// Algorithm 3's triggers, so this is the one headroom setting.
    pub headroom_fraction: f64,
    /// How often headroom probes run (paper default: 30 s).
    pub probe_interval: SimDuration,
}

/// How long each probe transmission lasts (paper §4.2: 1 s).
pub const PROBE_DURATION: SimDuration = SimDuration::from_secs(1);

/// Fraction of link capacity a headroom probe transmits (paper §4.2: 10 %).
const HEADROOM_PROBE_RATE: f64 = 0.10;

impl Default for NetMonitorConfig {
    fn default() -> Self {
        NetMonitorConfig {
            headroom_fraction: 0.20,
            probe_interval: SimDuration::from_secs(30),
        }
    }
}

/// Cumulative probe traffic accounting (for §6.3.4's overhead numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ProbeOverhead {
    /// Bytes transmitted by full (max-capacity) probes.
    pub full_probe_bytes: DataSize,
    /// Bytes transmitted by headroom probes.
    pub headroom_probe_bytes: DataSize,
    /// Number of full probes performed.
    pub full_probes: u64,
    /// Number of headroom probe rounds performed.
    pub headroom_probes: u64,
}

impl ProbeOverhead {
    /// Total probe bytes.
    pub fn total_bytes(&self) -> DataSize {
        self.full_probe_bytes + self.headroom_probe_bytes
    }
}

/// The result of one headroom probing round: how many links it
/// measured and how many of those lacked their headroom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeadroomReport {
    /// Links whose sample landed (a lost sample measures nothing).
    pub measured: u32,
    /// Measured links found below their required headroom.
    pub violated: u32,
    /// Measured links that newly transitioned from OK to violated since
    /// their last sample — the signal that escalates to a full probe
    /// (Fig. 8).
    pub newly_violated: u32,
}

/// The net-monitor: cached link-capacity estimates plus probing.
///
/// # Examples
///
/// ```
/// use bass_mesh::{Mesh, NodeId, Topology};
/// use bass_netmon::NetMonitor;
/// use bass_util::prelude::*;
///
/// let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(3), Bandwidth::from_mbps(50.0))?;
/// let mut monitor = NetMonitor::new(Default::default());
/// monitor.full_probe(&mesh);
/// assert_eq!(
///     monitor.cached_link_capacity(&mesh, NodeId(0), NodeId(1)).unwrap().as_mbps(),
///     50.0
/// );
/// # Ok::<(), bass_mesh::MeshError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetMonitor {
    cfg: NetMonitorConfig,
    /// Per link, indexed by `LinkId`: the last measured capacity;
    /// `None` until a full-probe sample lands.
    capacity_cache: Vec<Option<Bandwidth>>,
    /// Per link, indexed by `LinkId`: whether the last sampled
    /// headroom probe found the headroom; `true` until first sampled.
    headroom_ok: Vec<bool>,
    overhead: ProbeOverhead,
    last_headroom_probe: Option<SimTime>,
    /// When set, each per-link probe sample is independently dropped with
    /// the given probability, drawn from the carried RNG (fault
    /// injection). Dropped samples still cost probe traffic — the packet
    /// was sent; its measurement was lost.
    probe_loss: Option<(f64, SimRng)>,
}

impl NetMonitor {
    /// Creates a monitor with the given probing configuration.
    pub fn new(cfg: NetMonitorConfig) -> Self {
        NetMonitor {
            cfg,
            capacity_cache: Vec::new(),
            headroom_ok: Vec::new(),
            overhead: ProbeOverhead::default(),
            last_headroom_probe: None,
            probe_loss: None,
        }
    }

    /// Starts dropping each per-link probe sample independently with
    /// probability `p` (clamped to `[0, 1]`), drawing from `rng`. Used by
    /// the fault-injection layer; lossy probes keep their traffic cost
    /// but lose their measurements.
    pub fn set_probe_loss(&mut self, p: f64, rng: SimRng) {
        self.probe_loss = Some((p.clamp(0.0, 1.0), rng));
    }

    /// Stops dropping probe samples.
    pub fn clear_probe_loss(&mut self) {
        self.probe_loss = None;
    }

    /// The currently active probe-loss probability, if any.
    pub fn probe_loss(&self) -> Option<f64> {
        self.probe_loss.as_ref().map(|&(p, _)| p)
    }

    /// Draws one loss decision; `false` when no loss is configured.
    fn sample_lost(&mut self) -> bool {
        match &mut self.probe_loss {
            Some((p, rng)) => rng.chance(*p),
            None => false,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> NetMonitorConfig {
        self.cfg
    }

    /// Performs a max-capacity probe of every link: floods each link for
    /// [`PROBE_DURATION`] and caches the measured capacities.
    ///
    /// Against the simulator the measurement is exact; the cost is the
    /// flood traffic, which is charged to the overhead accounting.
    pub fn full_probe(&mut self, mesh: &Mesh) {
        self.fit_links(mesh);
        for (lid, _) in mesh.topology().links() {
            let cap = mesh.link_capacity_by_id(lid);
            // Flooding the link for PROBE_DURATION costs its capacity —
            // even when the resulting sample is lost.
            let bits = cap.as_bps() * PROBE_DURATION.as_secs_f64();
            self.overhead.full_probe_bytes += DataSize::from_bytes((bits / 8.0) as u64);
            if self.sample_lost() {
                continue; // measurement dropped: the stale cache entry survives
            }
            self.capacity_cache[lid.0] = Some(cap);
        }
        self.overhead.full_probes += 1;
    }

    /// Performs one headroom-probing round: checks every link for
    /// `headroom_fraction × cached_capacity` of spare capacity.
    ///
    /// Links without a cached capacity (never full-probed) are measured
    /// against their live capacity — the monitor performs an implicit
    /// first full probe at startup in practice (§4.2).
    pub fn headroom_probe(&mut self, mesh: &Mesh) -> HeadroomReport {
        let now = mesh.now();
        self.fit_links(mesh);
        let mut report = HeadroomReport::default();
        for (lid, _) in mesh.topology().links() {
            let cached = match self.capacity_cache[lid.0] {
                Some(c) => c,
                None => mesh.link_capacity_by_id(lid),
            };
            // Probe transmission: HEADROOM_PROBE_RATE × capacity for
            // PROBE_DURATION, sent whether or not the sample is lost.
            let bits = cached.as_bps() * HEADROOM_PROBE_RATE * PROBE_DURATION.as_secs_f64();
            self.overhead.headroom_probe_bytes += DataSize::from_bytes((bits / 8.0) as u64);
            if self.sample_lost() {
                // Measurement dropped: this link contributes nothing to
                // the report and its OK/violated edge-detection state is
                // untouched.
                continue;
            }
            let required = cached.scale(self.cfg.headroom_fraction);
            let available = mesh.link_available_by_id(lid);
            let ok = available + Bandwidth::from_bps(1.0) >= required;
            let was_ok = std::mem::replace(&mut self.headroom_ok[lid.0], ok);
            report.measured += 1;
            report.violated += u32::from(!ok);
            report.newly_violated += u32::from(was_ok && !ok);
        }
        self.overhead.headroom_probes += 1;
        self.last_headroom_probe = Some(now);
        report
    }

    /// Grows the per-link state to `mesh`'s link count; a link never
    /// probed has no cached capacity and counts as having had headroom.
    fn fit_links(&mut self, mesh: &Mesh) {
        let n = mesh.topology().link_count();
        if self.capacity_cache.len() < n {
            self.capacity_cache.resize(n, None);
            self.headroom_ok.resize(n, true);
        }
    }

    /// Cached capacity of the link between `a` and `b` in `mesh`, if it
    /// was ever probed.
    pub fn cached_link_capacity(&self, mesh: &Mesh, a: NodeId, b: NodeId) -> Option<Bandwidth> {
        let lid = mesh.topology().find_link(a, b)?;
        self.capacity_cache.get(lid.0).copied().flatten()
    }

    /// Cumulative probe overhead so far.
    pub fn overhead(&self) -> ProbeOverhead {
        self.overhead
    }

    /// When the next headroom probe is due: one probe interval after the
    /// last headroom probe, or time zero when no probe ever ran. The
    /// step probes on the first tick whose clock reaches it, and an
    /// event-driven scheduler never skips across it.
    pub fn next_headroom_probe_at(&self) -> SimTime {
        match self.last_headroom_probe {
            None => SimTime::ZERO,
            Some(last) => last + self.cfg.probe_interval,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_mesh::{CapacitySource, Topology};

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    fn mesh() -> Mesh {
        Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(50.0)).unwrap()
    }

    #[test]
    fn full_probe_caches_capacities() {
        let mesh = mesh();
        let mut mon = NetMonitor::new(NetMonitorConfig::default());
        assert_eq!(mon.cached_link_capacity(&mesh, NodeId(0), NodeId(1)), None);
        mon.full_probe(&mesh);
        assert_eq!(
            mon.cached_link_capacity(&mesh, NodeId(0), NodeId(1)),
            Some(mbps(50.0))
        );
        assert_eq!(
            mon.cached_link_capacity(&mesh, NodeId(1), NodeId(0)),
            Some(mbps(50.0))
        );
        assert_eq!(mon.overhead().full_probes, 1);
        // 3 links × 50 Mbit = 150 Mbit = 18.75 MB.
        assert_eq!(
            mon.overhead().full_probe_bytes,
            DataSize::from_bytes(3 * 50_000_000 / 8)
        );
    }

    #[test]
    fn headroom_probe_flags_squeezed_links() {
        let mut mesh = mesh();
        let mut mon = NetMonitor::new(NetMonitorConfig::default());
        mon.full_probe(&mesh);
        // No traffic: all OK.
        let counts = |r: HeadroomReport| (r.measured, r.violated, r.newly_violated);
        assert_eq!(counts(mon.headroom_probe(&mesh)), (3, 0, 0));
        // The requirement is 20% of 50 = 10 Mbps: 11 Mbps spare is OK.
        let f = mesh.add_flow(NodeId(0), NodeId(1), mbps(39.0)).unwrap();
        mesh.advance(SimDuration::from_secs(1));
        assert_eq!(counts(mon.headroom_probe(&mesh)), (3, 0, 0));
        // Saturate link 0-1: 50 Mbps demand on 50 Mbps link leaves no
        // headroom.
        mesh.set_flow_demand(f, mbps(100.0)).unwrap();
        mesh.advance(SimDuration::from_secs(1));
        assert_eq!(counts(mon.headroom_probe(&mesh)), (3, 1, 1));
        // Third round: still violated but not *newly*.
        mesh.advance(SimDuration::from_secs(1));
        assert_eq!(counts(mon.headroom_probe(&mesh)), (3, 1, 0));
    }

    #[test]
    fn headroom_recovery_is_not_newly_violated() {
        let mut mesh = mesh();
        let mut mon = NetMonitor::new(NetMonitorConfig::default());
        mon.full_probe(&mesh);
        let f = mesh.add_flow(NodeId(0), NodeId(1), mbps(100.0)).unwrap();
        mesh.advance(SimDuration::from_secs(1));
        let r1 = mon.headroom_probe(&mesh);
        assert_eq!(r1.newly_violated, 1);
        // Load removed: the link recovers; recovery must not re-trigger.
        mesh.set_flow_demand(f, Bandwidth::ZERO).unwrap();
        mesh.advance(SimDuration::from_secs(30)); // backlog drains here
        mesh.advance(SimDuration::from_secs(1)); // idle step: usage is 0
        let r2 = mon.headroom_probe(&mesh);
        assert_eq!((r2.violated, r2.newly_violated), (0, 0));
        // A second squeeze triggers *newly* again.
        mesh.set_flow_demand(f, mbps(100.0)).unwrap();
        mesh.advance(SimDuration::from_secs(1));
        let r3 = mon.headroom_probe(&mesh);
        assert_eq!(r3.newly_violated, 1);
    }

    #[test]
    fn probes_see_mutations_before_the_next_advance() {
        let mut mesh = mesh();
        // Half of the cached 50 Mbps must stay spare: an idle link
        // capped to 20 Mbps lacks its 25 Mbps headroom.
        let cfg = NetMonitorConfig { headroom_fraction: 0.5, ..Default::default() };
        let mut mon = NetMonitor::new(cfg);
        mon.full_probe(&mesh);
        // One tick: the allocator's capacity snapshot now serves reads.
        mesh.advance(SimDuration::from_secs(1));
        let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
        let violated = |mon: &mut NetMonitor, mesh: &Mesh| mon.headroom_probe(mesh).violated;
        assert_eq!(violated(&mut mon, &mesh), 0);
        // A `tc` cap with no advance: the probe reads the new cap.
        mesh.set_link_cap(n0, n1, Some(mbps(20.0))).unwrap();
        assert_eq!(violated(&mut mon, &mesh), 1);
        mesh.advance(SimDuration::from_secs(1));
        assert_eq!(violated(&mut mon, &mesh), 1);
        // A swapped source with no advance (and no cap queued beside
        // it): a full probe caches the new value.
        let constant = CapacitySource::Constant(mbps(20.0));
        mesh.set_link_source(n1, n2, constant).unwrap();
        let mut other = NetMonitor::new(cfg);
        other.full_probe(&mesh);
        assert_eq!(other.cached_link_capacity(&mesh, n1, n2), Some(mbps(20.0)));
        // After one advance both are served from the refreshed snapshot:
        // against their cached 50 Mbps both links lack headroom, and
        // once re-cached at 20 Mbps neither does.
        mesh.advance(SimDuration::from_secs(1));
        assert_eq!(violated(&mut mon, &mesh), 2);
        mon.full_probe(&mesh);
        assert_eq!(mon.cached_link_capacity(&mesh, n1, n2), Some(mbps(20.0)));
        assert_eq!(mon.cached_link_capacity(&mesh, n0, n1), Some(mbps(20.0)));
        assert_eq!(violated(&mut mon, &mesh), 0);
    }

    #[test]
    fn next_headroom_probe_schedule() {
        let mut mesh = mesh();
        let mut mon = NetMonitor::new(NetMonitorConfig::default());
        assert_eq!(mon.next_headroom_probe_at(), SimTime::ZERO);
        mon.headroom_probe(&mesh);
        assert_eq!(mon.next_headroom_probe_at(), SimTime::from_secs(30));
        // A probe before the epoch (nothing stops a caller) restarts the
        // interval from its own clock; a full probe never moves it.
        mesh.advance(SimDuration::from_secs(20));
        mon.headroom_probe(&mesh);
        mon.full_probe(&mesh);
        assert_eq!(mon.next_headroom_probe_at(), SimTime::from_secs(50));
    }

    #[test]
    fn overhead_fraction_matches_paper_ballpark() {
        // Paper: probing 10% of capacity for 1 s every 30 s ≈ 0.3% of
        // link traffic.
        let mut mesh = mesh();
        let mut mon = NetMonitor::new(NetMonitorConfig::default());
        mon.full_probe(&mesh);
        let full_cost = mon.overhead().total_bytes();
        // Simulate 20 minutes of headroom probing (40 rounds).
        for _ in 0..40 {
            mesh.advance(SimDuration::from_secs(30));
            mon.headroom_probe(&mesh);
        }
        let total_capacity_bits = 3.0 * 50e6 * 1200.0;
        let total_capacity = DataSize::from_bytes((total_capacity_bits / 8.0) as u64);
        let headroom_only = ProbeOverhead {
            headroom_probe_bytes: mon.overhead().headroom_probe_bytes,
            ..Default::default()
        };
        let frac = headroom_only.total_bytes().as_bytes() as f64 / total_capacity.as_bytes() as f64;
        assert!((frac - 0.00333).abs() < 0.0005, "headroom overhead {frac}");
        assert!(full_cost.as_bytes() > 0);
    }

    #[test]
    fn probe_loss_drops_samples_but_keeps_overhead() {
        let mesh = mesh();
        let mut mon = NetMonitor::new(NetMonitorConfig::default());
        mon.set_probe_loss(1.0, SimRng::seed_from_u64(1));
        assert_eq!(mon.probe_loss(), Some(1.0));
        mon.full_probe(&mesh);
        // All samples dropped: nothing cached, yet the flood was paid for.
        assert_eq!(mon.cached_link_capacity(&mesh, NodeId(0), NodeId(1)), None);
        assert_eq!(
            mon.overhead().full_probe_bytes,
            DataSize::from_bytes(3 * 50_000_000 / 8)
        );
        assert_eq!(mon.headroom_probe(&mesh), HeadroomReport::default());
        assert!(mon.overhead().headroom_probe_bytes > DataSize::ZERO);
        // Loss cleared: probing works again.
        mon.clear_probe_loss();
        assert_eq!(mon.probe_loss(), None);
        mon.full_probe(&mesh);
        assert_eq!(
            mon.cached_link_capacity(&mesh, NodeId(0), NodeId(1)),
            Some(mbps(50.0))
        );
    }

    #[test]
    fn partial_probe_loss_is_deterministic_per_seed() {
        let mesh = mesh();
        let run = |seed: u64| {
            let mut mon = NetMonitor::new(NetMonitorConfig::default());
            mon.set_probe_loss(0.5, SimRng::seed_from_u64(seed));
            mon.full_probe(&mesh);
            mesh.topology()
                .links()
                .map(|(_, l)| mon.cached_link_capacity(&mesh, l.a, l.b).is_some())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(42), run(42), "same seed ⇒ same drop pattern");
    }
}
