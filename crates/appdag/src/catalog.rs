//! Ready-made application graphs: the Fig. 6 example and the three
//! evaluation applications.
//!
//! Resource requests and edge bandwidths are calibrated from the paper's
//! stated configuration (§6.1, §6.2, §6.3, Figs. 6, 9, 10b) and from the
//! public DeathStarBench social-network architecture. Where the paper
//! does not state a number we pick one consistent with the reported
//! behaviour and note it here.

use crate::component::{Component, ComponentId, ResourceReq};
use crate::dag::AppDag;
use bass_util::units::Bandwidth;

/// The 7-component example DAG of Fig. 6.
///
/// Weights are calibrated so the two heuristics produce exactly the
/// orderings the figure reports: BFS `1,3,2,4,5,7,6` and longest-path
/// `1,2,4,5,7,3,6`. Each component requires 1 core (the figure assumes
/// 4-core nodes).
pub fn fig6_example() -> AppDag {
    let mut dag = AppDag::new("fig6-example");
    for i in 1..=7u32 {
        dag.add_component(Component::new(
            ComponentId(i),
            format!("comp{i}"),
            ResourceReq::cores_mb(1, 256),
        ))
        .expect("fresh component");
    }
    let edges = [
        (1u32, 2u32, 5.0),
        (1, 3, 10.0),
        (2, 4, 8.0),
        (4, 5, 7.0),
        (5, 7, 6.0),
        (3, 6, 1.0),
    ];
    for (a, b, w) in edges {
        dag.add_edge(ComponentId(a), ComponentId(b), Bandwidth::from_mbps(w))
            .expect("valid edge");
    }
    dag
}

/// The camera-processing pipeline (Fig. 9), five components:
/// camera-stream → frame-sampler → object-detector → {image-listener,
/// label-listener}.
///
/// Calibration: the RTP video stream dominates (≈12 Mbps — a 1080p
/// stream, chosen so the stream is *feasible* on the CityLab links yet
/// heavy enough to matter), sampling reduces it (≈6 Mbps of dissimilar
/// frames), annotated images are smaller still (≈3 Mbps), and the
/// text-label stream is tiny (≈0.1 Mbps) — "much of the data transfer
/// happens in the first two stages" (§6.2.2). The detector is CPU-bound:
/// §6.3.1 uses 4 cores for the sampler and 8 for the detector.
pub fn camera_pipeline() -> AppDag {
    let mut dag = AppDag::new("camera-pipeline");
    let comps = [
        (1u32, "camera-stream", 2u64, 512u64),
        (2, "frame-sampler", 4, 1024),
        (3, "object-detector", 8, 4096),
        (4, "image-listener", 2, 512),
        (5, "label-listener", 1, 256),
    ];
    for (id, name, cores, mb) in comps {
        dag.add_component(Component::new(
            ComponentId(id),
            name,
            ResourceReq::cores_mb(cores, mb),
        ))
        .expect("fresh component");
    }
    let edges = [
        (1u32, 2u32, 12.0),
        (2, 3, 6.0),
        (3, 4, 3.0),
        (3, 5, 0.1),
    ];
    for (a, b, w) in edges {
        dag.add_edge(ComponentId(a), ComponentId(b), Bandwidth::from_mbps(w))
            .expect("valid edge");
    }
    dag
}

/// The video-conferencing application: a single SFU (selective
/// forwarding unit) component; all bandwidth is client-facing and modeled
/// by the workload layer, not by intra-DAG edges (Table 4 lists the
/// application as having one component).
pub fn video_conference() -> AppDag {
    let mut dag = AppDag::new("video-conference");
    dag.add_component(Component::new(
        ComponentId(1),
        "sfu-server",
        ResourceReq::cores_mb(2, 1024),
    ))
    .expect("fresh component");
    dag
}

/// One request type of the social-network workload: its share of the
/// mix and its RPC call sequence (`(caller, callee, kilobytes exchanged
/// per request on that hop)`, in call order).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestPath {
    /// Request type name (e.g. `"read-home-timeline"`).
    pub name: &'static str,
    /// Fraction of the workload mix in `[0, 1]`.
    pub share: f64,
    /// The call sequence with per-hop data volumes.
    pub hops: &'static [(&'static str, &'static str, f64)],
}

/// The three request types of the paper's social-network benchmark
/// driver (compose-post plus home/user-timeline reads), with call trees
/// following the DeathStarBench architecture.
///
/// The DAG's edge bandwidth requirements are *derived* from these paths
/// (share × per-hop KB × request rate, summed over paths sharing an
/// edge), so the workload model in `bass-apps` and the requirements the
/// scheduler sees are consistent by construction.
pub fn social_request_paths() -> &'static [RequestPath] {
    const COMPOSE: &[(&str, &str, f64)] = &[
        ("nginx-frontend", "compose-post-service", 16.0),
        ("compose-post-service", "unique-id-service", 0.7),
        ("compose-post-service", "text-service", 8.0),
        ("text-service", "url-shorten-service", 3.3),
        ("url-shorten-service", "url-shorten-memcached", 1.3),
        ("url-shorten-service", "url-shorten-mongodb", 1.0),
        ("text-service", "user-mention-service", 2.7),
        ("user-mention-service", "user-memcached", 2.0),
        ("user-mention-service", "user-mongodb", 1.3),
        ("nginx-frontend", "media-frontend", 14.0),
        ("media-frontend", "media-service", 12.0),
        ("media-service", "media-memcached", 10.0),
        ("media-service", "media-mongodb", 8.0),
        ("compose-post-service", "media-service", 2.0),
        ("compose-post-service", "user-service", 2.7),
        ("user-service", "user-memcached", 2.0),
        ("user-service", "user-mongodb", 1.3),
        ("compose-post-service", "post-storage-service", 13.3),
        ("post-storage-service", "post-storage-memcached", 6.0),
        ("post-storage-service", "post-storage-mongodb", 8.0),
        ("compose-post-service", "user-timeline-service", 4.0),
        ("user-timeline-service", "user-timeline-redis", 3.0),
        ("user-timeline-service", "user-timeline-mongodb", 3.0),
        ("compose-post-service", "write-home-timeline-service", 9.3),
        ("write-home-timeline-service", "social-graph-service", 5.3),
        ("social-graph-service", "social-graph-redis", 6.0),
        ("social-graph-service", "social-graph-mongodb", 3.3),
        ("write-home-timeline-service", "home-timeline-redis", 12.0),
    ];
    const READ_HOME: &[(&str, &str, f64)] = &[
        ("nginx-frontend", "home-timeline-service", 20.0),
        ("home-timeline-service", "home-timeline-redis", 10.0),
        ("home-timeline-service", "post-storage-service", 17.5),
        ("post-storage-service", "post-storage-memcached", 14.0),
        ("post-storage-service", "post-storage-mongodb", 4.5),
    ];
    const READ_USER: &[(&str, &str, f64)] = &[
        ("nginx-frontend", "user-timeline-service", 22.0),
        ("user-timeline-service", "user-timeline-redis", 11.0),
        ("user-timeline-service", "user-timeline-mongodb", 5.5),
        ("user-timeline-service", "post-storage-service", 16.8),
        ("post-storage-service", "post-storage-memcached", 12.0),
        ("post-storage-service", "post-storage-mongodb", 4.0),
    ];
    const PATHS: &[RequestPath] = &[
        RequestPath { name: "compose-post", share: 0.15, hops: COMPOSE },
        RequestPath { name: "read-home-timeline", share: 0.60, hops: READ_HOME },
        RequestPath { name: "read-user-timeline", share: 0.25, hops: READ_USER },
    ];
    PATHS
}

/// Per-component resource requests for the social network.
const SOCIAL_COMPONENTS: &[(&str, u64, u64)] = &[
    // (name, millicores, MB). Calibrated for the paper's constrained
    // d710 workers (4 cores, 12 GB): the whole app needs ~11 cores.
    ("nginx-frontend", 1000, 512),
    ("compose-post-service", 500, 512),
    ("text-service", 400, 256),
    ("unique-id-service", 200, 128),
    ("media-service", 500, 512),
    ("user-service", 400, 256),
    ("url-shorten-service", 300, 256),
    ("user-mention-service", 300, 256),
    ("post-storage-service", 600, 512),
    ("user-timeline-service", 500, 512),
    ("home-timeline-service", 600, 512),
    ("social-graph-service", 400, 256),
    ("write-home-timeline-service", 400, 256),
    ("media-frontend", 300, 256),
    ("post-storage-memcached", 300, 1024),
    ("post-storage-mongodb", 500, 1024),
    ("user-timeline-redis", 300, 512),
    ("user-timeline-mongodb", 500, 1024),
    ("home-timeline-redis", 400, 1024),
    ("social-graph-redis", 300, 512),
    ("social-graph-mongodb", 400, 1024),
    ("user-memcached", 200, 512),
    ("user-mongodb", 400, 1024),
    ("url-shorten-memcached", 200, 512),
    ("url-shorten-mongodb", 300, 1024),
    ("media-memcached", 200, 512),
    ("media-mongodb", 400, 1024),
];

/// The DeathStarBench-like social network: 27 microservices with the
/// frontend → service → cache → database interaction pattern (§6.1).
///
/// `rps` is the aggregate workload request rate; edge bandwidth
/// requirements scale linearly with it (requirements are profiled at the
/// rate the application is expected to serve, per §5).
pub fn social_network(rps: f64) -> AppDag {
    assert!(rps >= 0.0, "request rate must be non-negative");
    let mut dag = AppDag::new("social-network");
    for (i, &(name, millis, mb)) in SOCIAL_COMPONENTS.iter().enumerate() {
        dag.add_component(Component::new(
            ComponentId(i as u32 + 1),
            name,
            ResourceReq::new(
                bass_util::units::Millicores::from_millis(millis),
                bass_util::units::MemoryMb::from_mb(mb),
            ),
        ))
        .expect("fresh component");
    }
    // Aggregate per-edge volume across the request mix:
    // KB/request-of-type × share × rps, summed over paths sharing the
    // edge, converted to bits per second.
    let mut edge_kbps: Vec<((&str, &str), f64)> = Vec::new();
    for path in social_request_paths() {
        for &(from, to, kb) in path.hops {
            let contribution = kb * path.share * rps;
            match edge_kbps.iter_mut().find(|((f, t), _)| *f == from && *t == to) {
                Some((_, v)) => *v += contribution,
                None => edge_kbps.push(((from, to), contribution)),
            }
        }
    }
    for ((from, to), kb_per_sec) in edge_kbps {
        let from_id = dag.component_by_name(from).expect("known component").id;
        let to_id = dag.component_by_name(to).expect("known component").id;
        let bw = Bandwidth::from_bps(kb_per_sec * 1000.0 * 8.0);
        dag.add_edge(from_id, to_id, bw).expect("valid edge");
    }
    dag
}

/// A random acyclic application graph (edges only from lower to higher
/// ids, so acyclicity is structural) — for fuzzing, property tests, and
/// scheduler ablations on shapes beyond the paper's three applications.
///
/// `n` components each request 1–3 cores; each forward pair gets an edge
/// with probability `edge_prob` and a bandwidth in `(0.1, 30)` Mbps.
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `n == 0` or `edge_prob` is outside `[0, 1]`.
pub fn random_dag(seed: u64, n: u32, edge_prob: f64) -> AppDag {
    assert!(n > 0, "need at least one component");
    assert!((0.0..=1.0).contains(&edge_prob), "edge_prob must be in [0,1]");
    let mut rng = bass_util::rng::SimRng::seed_from_u64(seed);
    let mut dag = AppDag::new(format!("random-{seed}-{n}"));
    for i in 1..=n {
        dag.add_component(Component::new(
            ComponentId(i),
            format!("r{i}"),
            ResourceReq::cores_mb(1 + rng.below(3), 64 + rng.below(512)),
        ))
        .expect("fresh component");
    }
    for from in 1..=n {
        for to in (from + 1)..=n {
            if rng.chance(edge_prob) {
                dag.add_edge(
                    ComponentId(from),
                    ComponentId(to),
                    Bandwidth::from_mbps(rng.uniform(0.1, 30.0)),
                )
                .expect("forward edges are acyclic");
            }
        }
    }
    dag
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_shape() {
        let dag = fig6_example();
        assert_eq!(dag.component_count(), 7);
        assert_eq!(dag.edges().len(), 6);
        assert!(dag.topo_sort().is_ok());
        assert_eq!(dag.roots(), vec![ComponentId(1)]);
        // The heaviest edge out of the root goes to component 3.
        assert_eq!(
            dag.bandwidth_between(ComponentId(1), ComponentId(3)),
            Bandwidth::from_mbps(10.0)
        );
    }

    #[test]
    fn camera_shape() {
        let dag = camera_pipeline();
        assert_eq!(dag.component_count(), 5);
        assert_eq!(dag.edges().len(), 4);
        let detector = dag.component_by_name("object-detector").unwrap();
        assert_eq!(detector.resources.cpu.as_cores(), 8.0);
        let sampler = dag.component_by_name("frame-sampler").unwrap();
        assert_eq!(sampler.resources.cpu.as_cores(), 4.0);
        // First stage carries the most data.
        let first = dag.bandwidth_between(ComponentId(1), ComponentId(2));
        for e in dag.edges() {
            assert!(e.bandwidth <= first);
        }
    }

    #[test]
    fn videoconf_shape() {
        let dag = video_conference();
        assert_eq!(dag.component_count(), 1);
        assert_eq!(dag.edges().len(), 0);
    }

    #[test]
    fn social_network_shape() {
        let dag = social_network(50.0);
        assert_eq!(dag.component_count(), 27, "Table 4: 27 components");
        assert!(dag.edges().len() > 30);
        assert!(dag.topo_sort().is_ok());
        // Every component participates in at least one edge.
        for c in dag.component_ids() {
            assert!(
                !dag.neighbors(c).is_empty(),
                "{:?} is isolated",
                dag.component(c).unwrap().name
            );
        }
    }

    #[test]
    fn social_network_scales_with_rps() {
        let lo = social_network(50.0);
        let hi = social_network(400.0);
        assert!(
            (hi.total_bandwidth().as_mbps() / lo.total_bandwidth().as_mbps() - 8.0).abs() < 1e-9
        );
        // At 400 RPS the hottest edge should be in the tens of Mbps so a
        // 25 Mbps link hurts (Fig. 5).
        let max_edge = hi
            .edges()
            .iter()
            .map(|e| e.bandwidth.as_mbps())
            .fold(0.0f64, f64::max);
        assert!(max_edge > 20.0, "hottest edge {max_edge} Mbps");
        assert!(max_edge < 80.0, "hottest edge {max_edge} Mbps");
    }

    #[test]
    fn social_network_resource_envelope() {
        let dag = social_network(50.0);
        let total = dag.total_resources();
        // Must fit on 4 × 4-core workers but not on a single one.
        assert!(total.cpu.as_cores() <= 16.0, "{}", total.cpu);
        assert!(total.cpu.as_cores() > 4.0, "{}", total.cpu);
    }

    #[test]
    fn frontend_is_the_root() {
        let dag = social_network(10.0);
        let roots = dag.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(dag.component(roots[0]).unwrap().name, "nginx-frontend");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rps_rejected() {
        let _ = social_network(-1.0);
    }

    #[test]
    fn random_dag_is_valid_and_deterministic() {
        let a = random_dag(9, 20, 0.3);
        let b = random_dag(9, 20, 0.3);
        assert_eq!(a, b);
        assert_eq!(a.component_count(), 20);
        assert!(a.topo_sort().is_ok());
        let c = random_dag(10, 20, 0.3);
        assert_ne!(a, c);
        // Degenerate probabilities behave.
        assert_eq!(random_dag(1, 5, 0.0).edges().len(), 0);
        assert_eq!(random_dag(1, 5, 1.0).edges().len(), 10);
    }
}
