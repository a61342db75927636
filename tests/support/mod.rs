//! The batteries' shared harness: the rebuilt reference (`reference`)
//! and campaign replicas driven through it or as production runs them.
//! Built from public calls only, so it shares no code with the timeline
//! that applies a campaign's workload.

mod reference;

use bass::appdag::{AppDag, ComponentId};
use bass::core::PolicyKind;
use bass::emu::{EnvError, SimEnv, SimEnvConfig};
use bass::obs::Journal;
use bass::scenario::{generate, AppKind, GeneratedScenario, ScenarioSpec, WorkloadEvent};
use bass::util::time::SimDuration;
pub use reference::{check, ticked};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One campaign sample's reads, as `f64` bits: required and achieved
/// Mbps summed over every live edge, and each app kind's achieved Mbps.
pub type Sample = (u64, u64, Vec<(&'static str, u64)>);

/// Everything one replica observed.
#[derive(Debug, PartialEq)]
pub struct Replica {
    pub samples: Vec<Sample>,
    pub journal: String,
    pub admitted: u64,
    pub rejected: u64,
    pub migrations: u64,
    pub unplaceable: u64,
}

/// A replica and how many of its ticks executed in full.
pub type Run = (Replica, u64);

/// A replica's scenario and environment, journaled and profiled, not yet
/// deployed.
fn replica_env(spec: &ScenarioSpec, seed: u64, policy: PolicyKind) -> (GeneratedScenario, SimEnv) {
    let scenario = generate(spec, seed);
    let ticks_of = |n: u64| SimDuration::from_millis(n * spec.step_ms);
    let mesh = scenario.build_mesh(ticks_of(spec.horizon_ticks)).expect("mesh builds");
    let cfg = SimEnvConfig {
        step: ticks_of(1),
        migration_policy: policy,
        faults: scenario.faults.clone(),
        ..SimEnvConfig::default()
    };
    let dag = AppDag::new(scenario.name.clone());
    let mut env = SimEnv::new(mesh, scenario.build_cluster(), dag, cfg);
    env.attach_journal(Journal::new());
    env.enable_span_profiling();
    (scenario, env)
}

/// The replica's journal, counts, and how many ticks executed in full.
fn finish(mut env: SimEnv, samples: Vec<Sample>, admitted: u64, rejected: u64) -> Run {
    let profiler = env.take_span_profiler().expect("profiler attached");
    let replica = Replica {
        samples,
        journal: env.take_journal().expect("journal attached").export_jsonl(),
        admitted,
        rejected,
        migrations: env.stats().migrations.len() as u64,
        unplaceable: env.stats().unplaceable,
    };
    (replica, profiler.stats("tick.finalize").map_or(0, |s| s.count))
}

/// A campaign replica driven by hand on the rebuilt reference: each
/// workload event admitted or retired through `admit_app`/`retire_app`
/// just before the tick ⌈at_ms / step_ms⌉, every tick a reference tick,
/// and every live edge sampled on the sample cadence.
pub fn drive_replica(spec: &ScenarioSpec, seed: u64, policy: PolicyKind) -> Run {
    let (scenario, mut env) = replica_env(spec, seed, policy);
    env.deploy(&[]).expect("deploys");
    // Arrival index → (label, admitted component ids, kind).
    let mut live: BTreeMap<u32, (String, Vec<ComponentId>, AppKind)> = BTreeMap::new();
    let (mut samples, mut admitted, mut rejected) = (Vec::new(), 0, 0);
    let mut events = scenario.workload.iter().peekable();
    for tick in 0..spec.horizon_ticks {
        while let Some(event) = events.next_if(|e| e.at_ms() <= tick * spec.step_ms) {
            match *event {
                WorkloadEvent::Arrive { instance, kind, .. } => {
                    let dag = kind.dag(spec.workload.social_rps);
                    match env.admit_app(&dag, GeneratedScenario::instance_offset(instance)) {
                        Ok(ids) => {
                            let label = GeneratedScenario::instance_label(kind, instance);
                            live.insert(instance, (label, ids, kind));
                            admitted += 1;
                        }
                        Err(EnvError::Schedule(_)) => rejected += 1,
                        Err(e) => panic!("admission failed: {e}"),
                    }
                }
                WorkloadEvent::Depart { instance, .. } => {
                    if let Some((label, ids, _)) = live.remove(&instance) {
                        env.retire_app(&label, &ids).expect("retires");
                    }
                }
            }
        }
        reference::step(&mut env);
        if tick.is_multiple_of(spec.sample_every_ticks) {
            let apps = live.values().map(|(_, ids, kind)| (ids.as_slice(), kind.label()));
            samples.push(sample(&env, apps));
        }
    }
    finish(env, samples, admitted, rejected)
}

/// The same replica as production runs it: the workload on the
/// environment's timeline and the horizon in one `run_for`, sampled
/// through the live-app view.
pub fn timeline_replica(spec: &ScenarioSpec, seed: u64, policy: PolicyKind) -> Run {
    let (scenario, mut env) = replica_env(spec, seed, policy);
    let dags = AppKind::ALL.map(|kind| Arc::new(kind.dag(spec.workload.social_rps)));
    env.set_scenario(scenario.timeline(&dags));
    env.deploy(&[]).expect("deploys");
    let faults_total = env.fault_plan().remaining();
    let (mut samples, mut tick) = (Vec::new(), 0u64);
    let horizon = SimDuration::from_millis(spec.horizon_ticks * spec.step_ms);
    env.run_for(horizon, |e| {
        check(e);
        // The benchmark mirror's fault-count check, after every tick.
        assert_eq!(faults_total - e.fault_plan().remaining(), e.stats().faults_injected);
        if tick.is_multiple_of(spec.sample_every_ticks) {
            let apps = e.live_apps().iter().map(|app| {
                let kind = AppKind::ALL.into_iter().find(|k| app.label.starts_with(k.label()));
                (app.components.as_slice(), kind.expect("labelled by kind").label())
            });
            samples.push(sample(e, apps));
        }
        tick += 1;
    })
    .expect("run completes");
    let (admitted, rejected) = (env.stats().apps_admitted, env.stats().apps_rejected);
    finish(env, samples, admitted, rejected)
}

/// The campaign sampler's reads over every live edge of `apps`
/// (component ids and kind label per instance, in admission order).
fn sample<'a>(
    env: &SimEnv,
    apps: impl Iterator<Item = (&'a [ComponentId], &'static str)>,
) -> Sample {
    let (mut required, mut achieved) = (0.0f64, 0.0f64);
    let mut per_kind: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (ids, kind) in apps {
        for e in ids.iter().flat_map(|&c| env.dag().out_edges(c)) {
            let a = env.edge_achieved(e.from, e.to).as_mbps();
            required += e.bandwidth.as_mbps();
            achieved += a;
            *per_kind.entry(kind).or_insert(0.0) += a;
        }
    }
    let per_kind = per_kind.into_iter().map(|(k, v)| (k, v.to_bits())).collect();
    (required.to_bits(), achieved.to_bits(), per_kind)
}
