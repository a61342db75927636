//! Ready-made testbed environments matching the paper's setups.

use bass_cluster::{Cluster, NodeSpec};
use bass_mesh::{Mesh, NodeId, Topology};
use bass_trace::{citylab_topology_links, citylab_traces, BandwidthTrace};
use bass_util::time::SimDuration;
use bass_util::units::Bandwidth;

/// The microbenchmark cluster (§6.2): `n` workers on a bridged LAN with
/// uniform 1 Gbps links and `cores`-core machines.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn lan_testbed(n: u32, cores: u64) -> (Mesh, Cluster) {
    assert!(n > 0, "need at least one node");
    let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(n), Bandwidth::from_mbps(1000.0))
        .expect("full mesh is connected");
    let cluster = Cluster::new((0..n).map(|i| NodeSpec::cores_mb(i, cores, 16_384)))
        .expect("unique node ids");
    (mesh, cluster)
}

/// The CityLab emulation (§6.3): node 0 runs the control plane (no
/// workloads), workers 1–4 are heterogeneous (8, 12, 12, 8 cores, 8 GB
/// RAM — the paper's mix of 12- and 8-core VMs), and each link replays
/// its CityLab-like trace from [`citylab_traces`]. The two big workers sit on
/// either side of the volatile n2–n3 link, so bandwidth-aware packing
/// still has to reckon with variation.
///
/// The returned cluster contains only the four workers; the mesh
/// contains all five nodes so control traffic paths exist.
pub fn citylab_testbed(seed: u64, duration: SimDuration) -> (Mesh, Cluster) {
    citylab_over(citylab_traces(seed, duration))
}

/// The CityLab testbed with *flat* (maximum-of-trace) link capacities —
/// Table 2's "no bandwidth variation" control.
pub fn citylab_testbed_flat(seed: u64, duration: SimDuration) -> (Mesh, Cluster) {
    citylab_over(citylab_traces(seed, duration).iter().map(BandwidthTrace::flattened_to_max))
}

/// The 5-node CityLab topology of Fig. 15(a): nodes 0–4, and the links
/// of [`citylab_topology_links`] in that order, so `LinkId(i)` is link `i`.
pub fn citylab_topology() -> Topology {
    let mut topo = Topology::new();
    for n in 0..=4u32 {
        topo.add_node(NodeId(n)).expect("fresh node");
    }
    for link in citylab_topology_links() {
        topo.add_link(NodeId(link.a), NodeId(link.b)).expect("fresh link");
    }
    topo
}

/// The CityLab topology with link `i` replaying trace `i`, and the
/// four-worker cluster: what both CityLab testbeds share.
fn citylab_over(traces: impl IntoIterator<Item = BandwidthTrace>) -> (Mesh, Cluster) {
    let mesh = Mesh::from_traces(citylab_topology(), traces).expect("one trace per link");
    let cluster = Cluster::new([
        NodeSpec::cores_mb(1, 8, 8_192),
        NodeSpec::cores_mb(2, 12, 8_192),
        NodeSpec::cores_mb(3, 12, 8_192),
        NodeSpec::cores_mb(4, 8, 8_192),
    ])
    .expect("unique node ids");
    (mesh, cluster)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_shape() {
        let (mesh, cluster) = lan_testbed(3, 12);
        assert_eq!(mesh.topology().node_count(), 3);
        assert_eq!(cluster.node_count(), 3);
        assert_eq!(
            mesh.link_capacity(NodeId(0), NodeId(1)).unwrap(),
            Bandwidth::from_mbps(1000.0)
        );
    }

    #[test]
    fn citylab_shape() {
        let (mesh, cluster) = citylab_testbed(42, SimDuration::from_secs(60));
        assert_eq!(mesh.topology().node_count(), 5);
        assert_eq!(mesh.topology().link_count(), 6);
        // `LinkId(i)` is link `i` of the CityLab link list.
        for ((_, link), l) in mesh.topology().links().zip(citylab_topology_links()) {
            assert_eq!(bass_trace::link_name(link.a.0, link.b.0), bass_trace::link_name(l.a, l.b));
        }
        assert_eq!(cluster.node_count(), 4, "control node hosts no work");
        // Heterogeneous workers.
        assert_eq!(cluster.node_spec(NodeId(2)).unwrap().capacity.cpu.as_cores(), 12.0);
        assert_eq!(cluster.node_spec(NodeId(4)).unwrap().capacity.cpu.as_cores(), 8.0);
    }

    #[test]
    fn flat_variant_has_constant_capacity() {
        let (mut mesh, _) = citylab_testbed_flat(42, SimDuration::from_secs(120));
        let c0 = mesh.link_capacity(NodeId(3), NodeId(4)).unwrap();
        mesh.advance(SimDuration::from_secs(60));
        let c1 = mesh.link_capacity(NodeId(3), NodeId(4)).unwrap();
        assert_eq!(c0, c1);
        let (mut varying, _) = citylab_testbed(42, SimDuration::from_secs(120));
        let v0 = varying.link_capacity(NodeId(3), NodeId(4)).unwrap();
        varying.advance(SimDuration::from_secs(60));
        let v1 = varying.link_capacity(NodeId(3), NodeId(4)).unwrap();
        assert_ne!(v0, v1, "trace-driven capacity varies");
        assert!(c0 >= v0.max(v1), "flat capacity is the trace max");
    }
}
