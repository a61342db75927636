//! The social-network workload (DeathStarBench-like, §6.1).
//!
//! Open-loop request mix over the 27-service DAG. Each tick (1 s of
//! simulated time) the workload:
//!
//! 1. samples this second's arrival count (constant or Poisson),
//! 2. scales every DAG edge's offered demand by `arrivals / profiled`,
//! 3. computes each request type's end-to-end latency by walking its
//!    call path — per hop, the callee's service time (scaled by restart
//!    slowdown) plus the transfer delay of the hop's message at the
//!    current network state,
//! 4. records per-type samples (mix-weighted) and the mean-latency time
//!    series (the paper's "average latency at every second", Figs. 5
//!    and 13).

use crate::arrival::ArrivalProcess;
use bass_appdag::catalog::{social_request_paths, RequestPath};
use bass_appdag::{AppDag, ComponentId};
use bass_emu::{Recorder, SimEnv};
use bass_util::rng::SimRng;
use bass_util::time::SimDuration;
use bass_util::units::DataSize;
use std::collections::BTreeMap;

// Per-role service times, calibrated to the paper's slow d710 workers
// so a healthy 50 RPS deployment averages ≈0.5 s end to end (Fig. 14a
// reports 552 ms).
const FRONTEND_MS: u64 = 20; // nginx / frontends
const SERVICE_MS: u64 = 60; // stateless microservice handlers
const CACHE_MS: u64 = 10; // memcached / redis
const DATABASE_MS: u64 = 100; // mongodb

/// The service time for a component, inferred from its name suffix.
fn service_time(name: &str) -> SimDuration {
    let ms = if name.contains("nginx") || name.contains("frontend") {
        FRONTEND_MS
    } else if name.ends_with("memcached") || name.ends_with("redis") {
        CACHE_MS
    } else if name.ends_with("mongodb") {
        DATABASE_MS
    } else {
        SERVICE_MS
    };
    SimDuration::from_millis(ms)
}

/// The social-network workload driver.
#[derive(Debug, Clone)]
pub struct SocialNetWorkload {
    rps: f64,
    arrivals: ArrivalProcess,
    rng: SimRng,
    /// Multiplicative measurement jitter (σ as a fraction of the
    /// latency), modeling testbed noise; 0 = none.
    jitter: f64,
    /// Resolved (from, to, size) hops per request type.
    paths: Vec<ResolvedPath>,
}

#[derive(Debug, Clone)]
struct ResolvedPath {
    name: &'static str,
    share: f64,
    hops: Vec<(ComponentId, ComponentId, DataSize)>,
}

impl SocialNetWorkload {
    /// Binds the workload to a social-network DAG built at `rps`
    /// (via [`bass_appdag::catalog::social_network`]).
    ///
    /// # Panics
    ///
    /// Panics if the DAG is missing social-network components or `rps`
    /// is not positive.
    pub fn new(dag: &AppDag, rps: f64, arrivals: ArrivalProcess, seed: u64) -> Self {
        assert!(rps > 0.0, "request rate must be positive");
        let paths = social_request_paths()
            .iter()
            .map(|p: &RequestPath| ResolvedPath {
                name: p.name,
                share: p.share,
                hops: p
                    .hops
                    .iter()
                    .map(|&(from, to, kb)| {
                        let f = dag
                            .component_by_name(from)
                            .unwrap_or_else(|| panic!("missing component '{from}'"))
                            .id;
                        let t = dag
                            .component_by_name(to)
                            .unwrap_or_else(|| panic!("missing component '{to}'"))
                            .id;
                        (f, t, DataSize::from_bytes((kb * 1000.0) as u64))
                    })
                    .collect(),
            })
            .collect();
        SocialNetWorkload {
            rps,
            arrivals,
            rng: SimRng::seed_from_u64(seed),
            jitter: 0.0,
            paths,
        }
    }

    /// Adds multiplicative measurement jitter: each recorded latency is
    /// scaled by `1 + jitter·N(0,1)` (floored at 10% of the true value),
    /// modeling the run-to-run noise a physical testbed exhibits.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is negative.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!(jitter >= 0.0, "jitter must be non-negative");
        self.jitter = jitter;
        self
    }

    /// The profiled request rate.
    pub fn rps(&self) -> f64 {
        self.rps
    }

    fn path_latency(&self, env: &SimEnv, path: &ResolvedPath) -> SimDuration {
        let dag = env.dag();
        let mut total = SimDuration::ZERO;
        // Frontend entry cost.
        if let Some((first, _, _)) = path.hops.first() {
            let name = &dag.component(*first).expect("resolved").name;
            total += service_time(name).mul_f64(env.slowdown(*first));
        }
        for &(from, to, size) in &path.hops {
            total += env.edge_delay(from, to, size);
            let name = &dag.component(to).expect("resolved").name;
            total += service_time(name).mul_f64(env.slowdown(to));
        }
        total
    }

    /// Runs one observation tick covering `dt` of simulated time:
    /// samples arrivals, scales demands, and records metrics.
    ///
    /// Records, per request type, `latency_ms[<type>]` samples weighted
    /// by the mix (granularity 5%), a combined `latency_ms` batch, and
    /// an `avg_latency_ms` series point.
    pub fn tick(&mut self, env: &mut SimEnv, dt: SimDuration, rec: &mut Recorder) {
        let arrivals = self
            .arrivals
            .sample_arrivals(self.rps, dt.as_secs_f64(), &mut self.rng);
        let factor = arrivals / (self.rps * dt.as_secs_f64()).max(f64::EPSILON);
        env.set_global_demand_factor(factor);

        let mut weighted_mean_ms = 0.0;
        let mut type_latencies: BTreeMap<&'static str, f64> = BTreeMap::new();
        for path in &self.paths {
            let mut lat_ms = self.path_latency(env, path).as_secs_f64() * 1e3;
            if self.jitter > 0.0 {
                let noise = 1.0 + self.jitter * self.rng.standard_normal();
                lat_ms *= noise.max(0.1);
            }
            type_latencies.insert(path.name, lat_ms);
            weighted_mean_ms += path.share * lat_ms;
        }
        for path in &self.paths {
            let lat_ms = type_latencies[path.name];
            rec.record_sample(&format!("latency_ms[{}]", path.name), lat_ms);
            // Mix-weighted combined batch at 5% granularity.
            let copies = (path.share * 20.0).round().max(1.0) as usize;
            for _ in 0..copies {
                rec.record_sample("latency_ms", lat_ms);
            }
        }
        rec.record_series("avg_latency_ms", env.now(), weighted_mean_ms);
        rec.record_series("arrivals", env.now(), arrivals);
    }

    /// Convenience: run the workload for `duration` with 1 s ticks.
    ///
    /// # Errors
    ///
    /// Propagates environment step errors.
    pub fn run(
        &mut self,
        env: &mut SimEnv,
        duration: SimDuration,
        rec: &mut Recorder,
    ) -> Result<(), bass_emu::EnvError> {
        let tick = SimDuration::from_secs(1);
        let end = env.now() + duration;
        while env.now() < end {
            self.tick(env, tick, rec);
            env.run_for(tick, |_| {})?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbeds::lan_testbed;
    use bass_appdag::catalog;
    use bass_core::PlacementPolicy;
    use bass_emu::{Scenario, SimEnvConfig};
    use bass_mesh::NodeId;
    use bass_util::time::SimTime;
    use bass_util::units::Bandwidth;

    fn social_env(rps: f64, policy: PlacementPolicy, migrations: bool) -> SimEnv {
        let (mesh, cluster) = lan_testbed(4, 4);
        let cfg = SimEnvConfig {
            policy,
            migrations_enabled: migrations,
            ..Default::default()
        };
        let mut env = SimEnv::new(mesh, cluster, catalog::social_network(rps), cfg);
        env.deploy(&[]).unwrap();
        env
    }

    #[test]
    fn healthy_latency_in_expected_range() {
        let mut env = social_env(50.0, PlacementPolicy::LongestPath, true);
        let mut wl = SocialNetWorkload::new(
            &env.dag().clone(),
            50.0,
            ArrivalProcess::Constant,
            1,
        );
        let mut rec = Recorder::new();
        wl.run(&mut env, SimDuration::from_secs(30), &mut rec).unwrap();
        let mean = rec.stats("latency_ms").mean();
        // Fig. 14a's healthy average is ≈552 ms; accept a generous band.
        assert!((250.0..900.0).contains(&mean), "mean {mean}");
        assert!(env.stats().migrations.is_empty(), "healthy run must not migrate");
    }

    #[test]
    fn compose_post_is_the_slowest_type() {
        let env = social_env(50.0, PlacementPolicy::LongestPath, true);
        let wl = SocialNetWorkload::new(&env.dag().clone(), 50.0, ArrivalProcess::Constant, 1);
        let path = |name: &str| wl.paths.iter().find(|p| p.name == name).unwrap();
        let latency = |name: &str| wl.path_latency(&env, path(name));
        let compose = latency("compose-post");
        let read_home = latency("read-home-timeline");
        let read_user = latency("read-user-timeline");
        assert!(compose > read_home, "{compose} vs {read_home}");
        assert!(compose > read_user, "{compose} vs {read_user}");
    }

    #[test]
    fn restriction_inflates_latency_by_an_order_of_magnitude() {
        // Fig. 5: 400 RPS, 25 Mbps squeeze on the frontend's node.
        let mut env = social_env(400.0, PlacementPolicy::K3sDefault, false);
        let dag = env.dag().clone();
        let nginx = dag.component_by_name("nginx-frontend").unwrap().id;
        let nginx_node = env.placement()[&nginx];
        env.set_scenario(Scenario::new().restrict_node_egress(
            nginx_node,
            SimTime::from_secs(30),
            SimTime::from_secs(150),
            Bandwidth::from_mbps(25.0),
        ));
        let mut wl =
            SocialNetWorkload::new(&dag, 400.0, ArrivalProcess::Constant, 2);
        let mut rec = Recorder::new();
        wl.run(&mut env, SimDuration::from_secs(180), &mut rec).unwrap();
        let series = rec.series("avg_latency_ms");
        let before = series.stats_in(SimTime::ZERO, SimTime::from_secs(29)).mean();
        let during = series
            .stats_in(SimTime::from_secs(60), SimTime::from_secs(150))
            .mean();
        assert!(
            during > before * 10.0,
            "latency must explode: before {before} during {during}"
        );
    }

    #[test]
    fn exponential_arrivals_fluctuate() {
        let mut env = social_env(50.0, PlacementPolicy::LongestPath, true);
        let mut wl = SocialNetWorkload::new(
            &env.dag().clone(),
            50.0,
            ArrivalProcess::Exponential,
            7,
        );
        let mut rec = Recorder::new();
        wl.run(&mut env, SimDuration::from_secs(30), &mut rec).unwrap();
        let arrivals = rec.series("arrivals");
        let stats = arrivals.stats();
        assert!(stats.std_dev() > 1.0, "Poisson arrivals must vary");
        assert!((stats.mean() - 50.0).abs() < 10.0);
    }

    #[test]
    fn per_type_batches_recorded() {
        let mut env = social_env(50.0, PlacementPolicy::LongestPath, true);
        let mut wl =
            SocialNetWorkload::new(&env.dag().clone(), 50.0, ArrivalProcess::Constant, 1);
        let mut rec = Recorder::new();
        wl.tick(&mut env, SimDuration::from_secs(1), &mut rec);
        assert_eq!(rec.samples("latency_ms[compose-post]").len(), 1);
        assert_eq!(rec.samples("latency_ms[read-home-timeline]").len(), 1);
        // Mix weighting: 20 copies total per tick (0.15/0.60/0.25 → 3/12/5).
        assert_eq!(rec.samples("latency_ms").len(), 20);
        let _ = NodeId(0);
    }

    #[test]
    fn jitter_spreads_samples_without_moving_the_mean_much() {
        let mut env = social_env(50.0, PlacementPolicy::LongestPath, true);
        let dag = env.dag().clone();
        let mut clean = SocialNetWorkload::new(&dag, 50.0, ArrivalProcess::Constant, 3);
        let mut noisy =
            SocialNetWorkload::new(&dag, 50.0, ArrivalProcess::Constant, 3).with_jitter(0.05);
        let mut rec_clean = Recorder::new();
        let mut rec_noisy = Recorder::new();
        for _ in 0..30 {
            clean.tick(&mut env, SimDuration::from_secs(1), &mut rec_clean);
            noisy.tick(&mut env, SimDuration::from_secs(1), &mut rec_noisy);
            env.run_for(SimDuration::from_secs(1), |_| {}).unwrap();
        }
        // Compare within one request type: the clean series is nearly
        // constant on a stable LAN, the jittered one spreads.
        let c = rec_clean.stats("latency_ms[read-home-timeline]");
        let n = rec_noisy.stats("latency_ms[read-home-timeline]");
        assert!(
            n.std_dev() > c.std_dev() + 1.0,
            "jitter adds spread: {} vs {}",
            n.std_dev(),
            c.std_dev()
        );
        assert!((n.mean() - c.mean()).abs() / c.mean() < 0.1, "mean preserved");
    }

    #[test]
    fn service_times_infer_roles_from_names() {
        assert_eq!(service_time("nginx-frontend"), SimDuration::from_millis(20));
        assert_eq!(service_time("media-frontend"), SimDuration::from_millis(20));
        assert_eq!(service_time("post-storage-memcached"), SimDuration::from_millis(10));
        assert_eq!(service_time("home-timeline-redis"), SimDuration::from_millis(10));
        assert_eq!(service_time("user-mongodb"), SimDuration::from_millis(100));
        assert_eq!(service_time("compose-post-service"), SimDuration::from_millis(60));
    }

    #[test]
    fn request_paths_cover_every_dag_edge() {
        // The DAG's edges are derived from the paths, so every edge must
        // appear in at least one request path — no orphan requirements.
        let dag = catalog::social_network(10.0);
        for e in dag.edges() {
            let from = &dag.component(e.from).unwrap().name;
            let to = &dag.component(e.to).unwrap().name;
            let covered = catalog::social_request_paths().iter().any(|p| {
                p.hops.iter().any(|&(f, t, _)| f == *from && t == *to)
            });
            assert!(covered, "edge {from}->{to} not covered by any request path");
        }
        // Shares form a probability distribution.
        let total: f64 = catalog::social_request_paths().iter().map(|p| p.share).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
