//! The ticked references the batteries compare production against:
//! `SimEnv::step` in a loop, built from public calls only, so they
//! share no code with the quiescent-window logic of `SimEnv::run_for`.

use bass::appdag::{AppDag, ComponentId};
use bass::core::PolicyKind;
use bass::emu::{EnvError, SimEnv, SimEnvConfig};
use bass::obs::Journal;
use bass::scenario::{generate, AppKind, GeneratedScenario, ScenarioSpec, WorkloadEvent};
use bass::util::time::SimDuration;
use std::collections::BTreeMap;

/// Ticked stepping: `ticks` full `step()` calls, each followed by
/// `hook(env)` — what `SimEnv::run_for(ticks × step, hook)` must match.
pub fn ticked(env: &mut SimEnv, ticks: u64, mut hook: impl FnMut(&SimEnv)) {
    for _ in 0..ticks {
        env.step().expect("step completes");
        hook(env);
    }
}

/// One campaign sample's reads, as `f64` bits: required and achieved
/// Mbps summed over every live edge, and each app kind's achieved Mbps.
pub type Sample = (u64, u64, Vec<(&'static str, u64)>);

/// Everything one driven replica observed.
#[derive(Debug, PartialEq)]
pub struct Replica {
    pub samples: Vec<Sample>,
    pub journal: String,
    pub admitted: u64,
    pub rejected: u64,
    pub migrations: u64,
    pub unplaceable: u64,
}

/// Live instances: arrival index → (label, admitted component ids, kind).
type LiveApps = BTreeMap<u32, (String, Vec<ComponentId>, AppKind)>;

/// A campaign replica rebuilt from public calls: each workload event
/// applies at tick ⌈at_ms / step_ms⌉, and every live edge is sampled
/// on the sample cadence. `ticked` steps through [`ticked`] instead of
/// `run_for`; `dense` puts the mesh on the dense reference allocator.
/// Returns the replica and how many ticks executed in full.
pub fn drive_replica(
    spec: &ScenarioSpec,
    replica_seed: u64,
    policy: PolicyKind,
    ticked: bool,
    dense: bool,
) -> (Replica, u64) {
    let scenario = generate(spec, replica_seed);
    let ticks_of = |n: u64| SimDuration::from_millis(n * spec.step_ms);
    let mut mesh = scenario.build_mesh(ticks_of(spec.horizon_ticks)).expect("mesh builds");
    if dense {
        mesh.use_reference_allocator();
    }
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
    env.deploy(&[]).expect("deploys");

    let mut live = LiveApps::new();
    let (mut samples, mut tick, mut admitted, mut rejected) = (Vec::new(), 0u64, 0, 0);
    let mut run_until = |env: &mut SimEnv, live: &LiveApps, until: u64| {
        let ticks = until.saturating_sub(tick);
        let hook = |e: &SimEnv| {
            if tick.is_multiple_of(spec.sample_every_ticks) {
                samples.push(sample(e, live));
            }
            tick += 1;
        };
        if ticked {
            self::ticked(env, ticks, hook);
        } else {
            env.run_for(ticks_of(ticks), hook).expect("run completes");
        }
    };
    for event in &scenario.workload {
        let due = event.at_ms().div_ceil(spec.step_ms);
        if due >= spec.horizon_ticks {
            break;
        }
        run_until(&mut env, &live, due);
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
    run_until(&mut env, &live, spec.horizon_ticks);

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

/// The campaign sampler's reads over every live edge.
fn sample(env: &SimEnv, live: &LiveApps) -> Sample {
    let (mut required, mut achieved) = (0.0f64, 0.0f64);
    let mut per_kind: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (_, ids, kind) in live.values() {
        for e in ids.iter().flat_map(|&c| env.dag().out_edges(c)) {
            let a = env.edge_achieved(e.from, e.to).as_mbps();
            required += e.bandwidth.as_mbps();
            achieved += a;
            *per_kind.entry(kind.label()).or_insert(0.0) += a;
        }
    }
    let per_kind = per_kind.into_iter().map(|(k, v)| (k, v.to_bits())).collect();
    (required.to_bits(), achieved.to_bits(), per_kind)
}
