//! The 27-microservice social network on the emulated CityLab mesh:
//! compare k3s with BASS (longest-path + migration) under real
//! bandwidth variation — the Fig. 14(b) scenario in miniature.
//!
//! ```text
//! cargo run --release --example social_network
//! ```

use bass::apps::testbeds::citylab_testbed;
use bass::apps::{ArrivalProcess, SocialNetWorkload};
use bass::appdag::catalog;
use bass::core::PlacementPolicy;
use bass::emu::{Recorder, SimEnv, SimEnvConfig};
use bass::util::time::SimDuration;

fn run(policy: PlacementPolicy, migrations: bool) -> (f64, f64, usize) {
    let duration = SimDuration::from_secs(600);
    let (mesh, cluster) = citylab_testbed(7, duration + SimDuration::from_secs(60));
    let cfg = SimEnvConfig {
        policy,
        migrations_enabled: migrations,
        ..Default::default()
    };
    let mut env = SimEnv::new(mesh, cluster, catalog::social_network(50.0), cfg);
    env.deploy(&[]).expect("social network deploys");
    let mut workload = SocialNetWorkload::new(
        &env.dag().clone(),
        50.0,
        ArrivalProcess::Constant,
        7,
    );
    let mut rec = Recorder::new();
    workload
        .run(&mut env, duration, &mut rec)
        .expect("run completes");
    let p = rec.percentiles("latency_ms");
    (p.median(), p.p99(), env.stats().migrations.len())
}

fn main() {
    println!("social network, 50 RPS, 10 minutes on the CityLab-like mesh\n");
    println!("{:<28} {:>10} {:>12} {:>11}", "configuration", "p50 (ms)", "p99 (ms)", "migrations");
    for (label, policy, migrations) in [
        ("longest-path + migration", PlacementPolicy::LongestPath, true),
        ("longest-path, static", PlacementPolicy::LongestPath, false),
        (
            "k3s default",
            PlacementPolicy::K3sDefault,
            false,
        ),
    ] {
        let (p50, p99, migrations) = run(policy, migrations);
        println!("{label:<28} {p50:>10.0} {p99:>12.0} {migrations:>11}");
    }
    println!("\nBandwidth-aware placement plus right-timed migration should dominate.");
}
