//! Fig. 11: p99 latency of the heuristic vs default scheduler, with no
//! bandwidth constraint and with 25 Mbps on one node, at 100–300 RPS
//! (4 × d710 workers, 5 trials).
//!
//! Paper: unconstrained, longest-path ≈ k3s; with the restriction the
//! gap grows to about two orders of magnitude at 200–300 RPS.

use crate::experiments::common::{social, Knobs};
use crate::{ExperimentReport, Row, RunMode};
use bass_apps::testbeds::lan_testbed;
use bass_apps::ArrivalProcess;
use bass_core::PlacementPolicy;
use bass_emu::Recorder;
use bass_util::stats::StreamingStats;
use bass_util::time::SimDuration;
use bass_util::units::Bandwidth;

/// Runs the experiment.
pub fn run(mode: RunMode) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig11",
        "social p99 by scheduler × restriction × request rate",
        "no constraint: longest-path ≈ k3s; 25 Mbps on one node: ~2 orders of magnitude gap at 200–300 RPS",
    );
    let trials: u64 = match mode {
        RunMode::Full => 5,
        RunMode::Quick => 2,
    };
    let run_secs = mode.secs(300);

    for restricted in [false, true] {
        for rps in [100.0, 200.0, 300.0] {
            for (name, policy) in [
                ("longest-path", PlacementPolicy::LongestPath),
                (
                    "k3s-default",
                    PlacementPolicy::K3sDefault,
                ),
            ] {
                let mut p99s = StreamingStats::new();
                for trial in 0..trials {
                    let knobs = Knobs {
                        policy,
                        migrations: false,
                        ..Knobs::default()
                    };
                    let (mut env, mut wl) = social(
                        lan_testbed(4, 4),
                        rps,
                        &knobs,
                        ArrivalProcess::Constant,
                        100 + trial,
                    );
                    // 2% multiplicative noise models testbed variance so
                    // trials produce the paper-style error bars.
                    wl = wl.with_jitter(0.02);
                    if restricted {
                        // The paper throttles one fixed node's interface
                        // (the same physical machine across runs); the
                        // bandwidth-aware placement keeps chatty pairs
                        // off the wire, the oblivious one does not.
                        env.mesh_mut()
                            .set_node_egress_cap(
                                bass_mesh::NodeId(2),
                                Some(Bandwidth::from_mbps(25.0)),
                            )
                            .expect("node exists");
                    }
                    let mut rec = Recorder::new();
                    wl.run(&mut env, SimDuration::from_secs(run_secs), &mut rec)
                        .expect("run completes");
                    p99s.record(rec.percentiles("latency_ms").p99());
                }
                let label = format!(
                    "{name}, {} , {rps:.0} rps",
                    if restricted { "25 Mbps" } else { "no-limit" }
                );
                report.push_row(
                    Row::new(label)
                        .with("p99_ms_mean", p99s.mean())
                        .with("p99_ms_std", p99s.std_dev()),
                );
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p99(rep: &ExperimentReport, policy: &str, limit: &str, rps: u32) -> f64 {
        rep.row(&format!("{policy}, {limit} , {rps} rps"))
            .unwrap()
            .value("p99_ms_mean")
            .unwrap()
    }

    #[test]
    fn unconstrained_policies_comparable_constrained_gap_large() {
        let rep = run(RunMode::Quick);
        // Unconstrained: same order of magnitude.
        for rps in [100, 200, 300] {
            let lp = p99(&rep, "longest-path", "no-limit", rps);
            let k3s = p99(&rep, "k3s-default", "no-limit", rps);
            assert!(k3s / lp < 5.0, "{rps} rps unconstrained: lp {lp} k3s {k3s}");
        }
        // Constrained at 200/300: k3s at least 10× worse than longest-path.
        for rps in [200, 300] {
            let lp = p99(&rep, "longest-path", "25 Mbps", rps);
            let k3s = p99(&rep, "k3s-default", "25 Mbps", rps);
            assert!(
                k3s > lp * 10.0,
                "{rps} rps constrained: lp {lp} vs k3s {k3s}"
            );
        }
    }
}
