//! Poke at the mesh substrate directly: take the CityLab testbed's mesh,
//! register flows, inject a fault, and watch the probing layer see it.
//!
//! ```text
//! cargo run --example mesh_playground
//! ```

use bass::apps::testbeds::citylab_testbed;
use bass::mesh::NodeId;
use bass::netmon::{NetMonitor, NetMonitorConfig};
use bass::util::time::SimDuration;
use bass::util::units::{Bandwidth, DataSize};

fn main() {
    // Build the 5-node CityLab mesh with trace-driven links.
    let (mut mesh, _) = citylab_testbed(99, SimDuration::from_secs(600));

    println!("routes (traceroute view):");
    for (src, dst) in [(0u32, 3u32), (2, 4), (4, 2)] {
        let path = mesh.path(NodeId(src), NodeId(dst)).expect("connected");
        let hops: Vec<String> = path.iter().map(|n| n.to_string()).collect();
        println!("  n{src} -> n{dst}: {}", hops.join(" -> "));
    }

    // Two competing flows over the volatile n2–n3 link.
    let f1 = mesh
        .add_flow(NodeId(2), NodeId(3), Bandwidth::from_mbps(9.0))
        .expect("valid");
    let f2 = mesh
        .add_flow(NodeId(2), NodeId(3), Bandwidth::from_mbps(9.0))
        .expect("valid");

    let mut monitor = NetMonitor::new(NetMonitorConfig::default());
    monitor.full_probe(&mesh);
    println!(
        "\nprobed n2–n3 capacity: {}",
        monitor
            .cached_link_capacity(&mesh, NodeId(2), NodeId(3))
            .expect("probed")
    );

    println!("\n t(s)  cap(n2-n3)  rate(f1)  rate(f2)  msg delay (64 KB)");
    for step in 0..10 {
        if step == 5 {
            println!("  -- fault injected: n2-n3 capped at 3 Mbps --");
            mesh.set_link_cap(NodeId(2), NodeId(3), Some(Bandwidth::from_mbps(3.0)))
                .expect("link exists");
        }
        mesh.advance(SimDuration::from_secs(30));
        let report = monitor.headroom_probe(&mesh);
        let cap = mesh.link_capacity(NodeId(2), NodeId(3)).expect("link");
        let delay = mesh
            .flow_message_delay(f1, DataSize::from_kilobytes(64))
            .expect("flow");
        println!(
            "{:>5}  {:>9.1}  {:>8.2}  {:>8.2}  {}  {}",
            mesh.now().as_secs_f64(),
            cap.as_mbps(),
            mesh.flow_rate(f1).as_mbps(),
            mesh.flow_rate(f2).as_mbps(),
            delay,
            if report.violated == 0 { "" } else { "<- headroom violated" },
        );
    }
    println!(
        "\nprobe overhead so far: {} ({} full probes, {} headroom rounds)",
        monitor.overhead().total_bytes(),
        monitor.overhead().full_probes,
        monitor.overhead().headroom_probes
    );
}
