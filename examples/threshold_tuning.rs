//! Automated migration-threshold tuning (the paper's §8 future work):
//! coordinate-descent over (utilization threshold, headroom) driven by
//! measured upper-quartile latency of the social network on the
//! CityLab-like mesh.
//!
//! ```text
//! cargo run --release --example threshold_tuning
//! ```

use bass::apps::testbeds::citylab_testbed;
use bass::apps::{ArrivalProcess, SocialNetWorkload};
use bass::appdag::catalog;
use bass::core::tuning::{tune, TuningGrid, TuningPoint};
use bass::core::PlacementPolicy;
use bass::emu::{Recorder, SimEnv, SimEnvConfig};
use bass::util::time::SimDuration;

fn evaluate(point: TuningPoint) -> f64 {
    let duration = SimDuration::from_secs(600);
    let (mesh, cluster) = citylab_testbed(1450, duration + SimDuration::from_secs(60));
    let mut cfg = SimEnvConfig {
        policy: PlacementPolicy::LongestPath,
        ..Default::default()
    };
    cfg.controller.migration.utilization_threshold = point.threshold;
    cfg.controller.migration.goodput_threshold = point.threshold.min(0.5);
    cfg.netmon.headroom_fraction = point.headroom;
    let mut env = SimEnv::new(mesh, cluster, catalog::social_network(50.0), cfg);
    env.deploy(&[]).expect("deploys");
    let mut workload =
        SocialNetWorkload::new(&env.dag().clone(), 50.0, ArrivalProcess::Constant, 1450);
    let mut rec = Recorder::new();
    workload
        .run(&mut env, duration, &mut rec)
        .expect("run completes");
    rec.percentiles("latency_ms").upper_quartile()
}

fn main() {
    println!("tuning (threshold, headroom) for the social network…\n");
    let grid = TuningGrid::default();
    let result = tune(&grid, evaluate);
    println!("{:>10} {:>9} {:>18}", "threshold", "headroom", "upper quartile ms");
    for (point, cost) in &result.evaluated {
        let marker = if *point == result.best { "  <- best" } else { "" };
        println!(
            "{:>10.2} {:>9.2} {:>18.1}{marker}",
            point.threshold, point.headroom, cost
        );
    }
    println!(
        "\nbest: threshold {:.2}, headroom {:.2} ({:.1} ms upper quartile, {} evaluations)",
        result.best.threshold,
        result.best.headroom,
        result.best_cost,
        result.evaluated.len()
    );
}
