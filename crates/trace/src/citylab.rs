//! The 5-node CityLab subset used by the paper's emulated-mesh
//! evaluations (Fig. 15a): its links, and one trace per link.
//!
//! The paper emulates a 5-node subset of the CityLab testbed: one control
//! node plus four workers connected by wireless links whose measured
//! half-hour average bandwidths are shown in Fig. 15(a). The figure's
//! exact numbers are not recoverable from the text, so we calibrate the
//! traces from every quantitative statement the paper does make:
//!
//! - Fig. 2: one relatively stable link (mean 19.9 Mbps, σ = 10% of the
//!   mean) and one volatile link (mean 7.62 Mbps, σ = 27%).
//! - Fig. 8: the node3–node4 link is set to 25 Mbps and the example
//!   migration uses ~20% headroom (4 Mbps); node1–node3 also exists and
//!   can be independently degraded.
//! - §6.3: workloads run for 10–20 minutes and a full probe was needed
//!   only about three times in 20 minutes, i.e. deep drops are rare.
//!
//! The worker mesh is a ring with one chord, which makes multi-hop paths
//! (and therefore bottleneck-path estimation) exercise real routing.

use crate::generator::OuTraceConfig;
use crate::trace::{link_name, BandwidthTrace};
use bass_util::time::SimDuration;

/// Static description of one CityLab link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CitylabLink {
    /// First endpoint (worker node index, 1-based as in the paper).
    pub a: u32,
    /// Second endpoint.
    pub b: u32,
    /// Half-hour mean capacity in Mbps.
    pub mean_mbps: f64,
    /// Stationary standard deviation as a fraction of the mean.
    pub relative_std: f64,
}

/// The links of the 5-node CityLab subset (worker nodes 1–4; node 0 is
/// the control-plane node, reachable from node 1 over a stable wired
/// link).
///
/// Links are bidirectional with similar bandwidth in both directions
/// (paper, Fig. 15a caption).
pub fn citylab_topology_links() -> Vec<CitylabLink> {
    vec![
        // Control plane attachment: stable and fast so orchestration
        // traffic never interferes with the experiment.
        CitylabLink { a: 0, b: 1, mean_mbps: 100.0, relative_std: 0.02 },
        // Fig. 2 link A: stable backbone-ish link.
        CitylabLink { a: 1, b: 2, mean_mbps: 19.9, relative_std: 0.10 },
        // Volatile link (link-B-like relative variability; the mean is
        // calibrated so a bandwidth-oblivious spread degrades rather
        // than permanently saturates at the paper's 50 RPS workload).
        CitylabLink { a: 2, b: 3, mean_mbps: 12.0, relative_std: 0.27 },
        // Fig. 8's node3-node4 link at 25 Mbps.
        CitylabLink { a: 3, b: 4, mean_mbps: 25.0, relative_std: 0.15 },
        // Ring closure node4-node1.
        CitylabLink { a: 4, b: 1, mean_mbps: 15.0, relative_std: 0.12 },
        // Chord node1-node3 (used by Fig. 8's second migration).
        CitylabLink { a: 1, b: 3, mean_mbps: 18.0, relative_std: 0.18 },
    ]
}

/// Generates the CityLab traces: one per link of
/// [`citylab_topology_links`], in that order, each `duration` long,
/// named by its [`link_name`] and deterministic in `seed`.
///
/// Every wireless link experiences occasional, *minutes-long* fade
/// events (the paper's "reflections from a truck or attenuation from
/// foliage"; §6.3.4 notes bandwidth fluctuations needing migration
/// "happen in the order of minutes"): volatile links (relative σ ≥ 0.2)
/// fade to 55% capacity, calmer wireless links to 60%, for ~2 minutes,
/// roughly once or twice per 20-minute run per link. The wired
/// control-plane attachment (σ < 0.05) never fades. The rates match the
/// paper's observation that full probes were triggered only a handful
/// of times in 20 minutes.
///
/// # Examples
///
/// ```
/// use bass_trace::citylab_traces;
/// use bass_util::prelude::*;
///
/// let traces = citylab_traces(42, SimDuration::from_secs(1200));
/// assert_eq!(traces.len(), 6);
/// assert_eq!(traces[3].name(), "n3-n4");
/// ```
pub fn citylab_traces(seed: u64, duration: SimDuration) -> Vec<BandwidthTrace> {
    citylab_topology_links()
        .into_iter()
        .enumerate()
        .map(|(i, link)| {
            let mut cfg = OuTraceConfig::new(link_name(link.a, link.b), link.mean_mbps)
                .relative_std(link.relative_std)
                .sample_interval(SimDuration::from_secs(1))
                .floor_mbps(0.25);
            if link.relative_std >= 0.2 {
                cfg = cfg.fades(0.06, 0.55, SimDuration::from_secs(120));
            } else if link.relative_std >= 0.05 {
                cfg = cfg.fades(0.08, 0.6, SimDuration::from_secs(120));
            }
            cfg.generate(seed.wrapping_add(i as u64 * 0x9E37), duration)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_util::time::SimTime;

    #[test]
    fn topology_shape() {
        let links = citylab_topology_links();
        assert_eq!(links.len(), 6);
        // All five nodes appear.
        let mut nodes: Vec<u32> = links.iter().flat_map(|l| [l.a, l.b]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes, vec![0, 1, 2, 3, 4]);
        // No self loops, no duplicate links.
        assert!(links.iter().all(|l| l.a != l.b));
        let mut names: Vec<String> = links.iter().map(|l| link_name(l.a, l.b)).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn traces_cover_every_link_in_order() {
        let traces = citylab_traces(1, SimDuration::from_secs(60));
        assert_eq!(traces.len(), citylab_topology_links().len());
        for (link, trace) in citylab_topology_links().iter().zip(&traces) {
            assert_eq!(trace.name(), link_name(link.a, link.b));
            assert!(trace.capacity_at(SimTime::from_secs(30)).as_mbps() > 0.0);
        }
    }

    #[test]
    fn trace_statistics_match_calibration() {
        let traces = citylab_traces(42, SimDuration::from_secs(1800));
        let a = traces[1].stats_mbps();
        assert!((a.mean() - 19.9).abs() < 1.5, "link A mean {}", a.mean());
        let b = traces[2].stats_mbps();
        assert!((b.mean() - 12.0).abs() < 2.0, "volatile link mean {}", b.mean());
        assert!(b.cv() > a.cv(), "link B must be more volatile than A");
    }

    #[test]
    fn traces_are_deterministic() {
        let a = citylab_traces(7, SimDuration::from_secs(120));
        assert_eq!(a, citylab_traces(7, SimDuration::from_secs(120)));
        assert_ne!(a, citylab_traces(8, SimDuration::from_secs(120)));
    }

    #[test]
    fn node34_link_matches_fig8() {
        let links = citylab_topology_links();
        let l34 = links.iter().find(|l| l.a == 3 && l.b == 4).unwrap();
        assert_eq!(l34.mean_mbps, 25.0);
    }
}
