//! The per-layer view: one traced, in-process run of a workload.
//!
//! The traced run drives the same layers as the untraced child, but
//! through their plain public entry points, with one harness span
//! around every call (see [`crate::spans`]). The program's own span
//! profiler is switched on here — and only here — so its `tick.*`,
//! `mesh.*`, `ctl.*` and `netmon.*` aggregates land under the harness's
//! `emu.step` spans, which is what makes self time and
//! `emu.step.unattributed_s` fall out. Nothing measured here is an
//! end-to-end number.
//!
//! Pinned public surface (the README lists it too): `ScenarioSpec::
//! from_json`, `bass_scenario::generate`, `GeneratedScenario::{
//! trace_bundle, build_mesh, build_cluster, instance_offset,
//! instance_label}`, `AppKind::dag`, `SimEnv::{new, enable_span_profiling,
//! deploy, admit_app, retire_app, step, stats, fault_plan, mesh,
//! cluster, take_span_profiler}`, `ranking::rank_nodes`, `NetMonitor::{
//! new, headroom_probe, full_probe}`, `Mesh::{clone, advance,
//! advance_profiled, set_link_cap, set_node_up, add_flow, remove_flow}`,
//! `flow::max_min_allocate`, `bass_cli::simulate`.

use crate::meshchurn::{kernel_fill_probe, Churn};
use crate::spans::{percentile, Recorder, Span};
use crate::untraced::ReplicaCounts;
use crate::workloads::{read_params, read_text, workload_dir, Kind, Params, Workload};
use bass_appdag::{AppDag, ComponentId, Manifest};
use bass_cli::{SimulateOptions, TestbedSpec};
use bass_emu::{EnvError, SimEnv, SimEnvConfig};
use bass_mesh::NodeId;
use bass_netmon::{NetMonitor, NetMonitorConfig};
use bass_obs::SpanProfiler;
use bass_scenario::{GeneratedScenario, ScenarioSpec, WorkloadEvent};
use bass_util::time::SimDuration;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;

/// Outside probes (rank, netmon probes, advance-on-a-clone) run four
/// times per campaign replica, but never more often than every this
/// many ticks: cloning a 500-node mesh with its traces costs ≈20 ms, so
/// a fixed every-50th-tick cadence would double a long quiet run.
const PROBE_MIN_EVERY: u64 = 50;
const PROBES_PER_REPLICA: u64 = 4;

/// Program spans as `(calls, busy seconds)` by name, whether they came
/// from an in-process [`SpanProfiler`] or a `--metrics-out` exposition.
type ProgramSpans = BTreeMap<String, (u64, f64)>;

/// What `ladder trace` hands back to its parent.
#[derive(Debug, Default)]
pub struct TraceResult {
    /// Per-layer metrics by name (only those this workload has).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Campaign replicas' counts, for the cross-check.
    pub replicas: Vec<ReplicaCounts>,
    /// `mesh1000-churn`: the final rate sum's bit pattern.
    pub rate_sum_bits: Option<u64>,
}

#[derive(Serialize)]
struct ProgramSpanOut {
    name: String,
    parent: &'static str,
    calls: u64,
    busy_ns: u64,
}

#[derive(Serialize)]
struct TraceFile {
    workload: &'static str,
    seed: u64,
    spans: Vec<Span>,
    program_spans: Vec<ProgramSpanOut>,
}

/// The harness span a program span's time is spent inside.
fn program_parent(name: &str) -> &'static str {
    if name.starts_with("ctl.") || name.starts_with("netmon.") {
        "tick.controller"
    } else if name.starts_with("tick.") || name.starts_with("mesh.") {
        "emu.step"
    } else if name == "env.deploy" {
        "emu.deploy"
    } else if name == "env.admit_app" {
        "emu.admit_app"
    } else if name == "env.retire_app" {
        "emu.retire_app"
    } else {
        "ladder.run"
    }
}

fn from_profiler(p: &SpanProfiler) -> ProgramSpans {
    p.spans()
        .map(|(n, s)| (n.to_string(), (s.count, s.total_ns as f64 / 1e9)))
        .collect()
}

/// Span sums and counts of a `--metrics-out` exposition.
fn from_exposition(text: &str) -> ProgramSpans {
    let mut spans = ProgramSpans::new();
    for line in text.lines() {
        for (prefix, is_sum) in [
            ("bass_span_duration_seconds_sum{span=\"", true),
            ("bass_span_duration_seconds_count{span=\"", false),
        ] {
            let Some(rest) = line.strip_prefix(prefix) else {
                continue;
            };
            let Some((name, tail)) = rest.split_once('"') else {
                continue;
            };
            let Some(value) = tail.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()) else {
                continue;
            };
            let entry = spans.entry(name.to_string()).or_insert((0, 0.0));
            if is_sum {
                entry.1 = value;
            } else {
                entry.0 = value as u64;
            }
        }
    }
    spans
}

/// Per-layer metrics read off the harness's own spans.
fn harness_metrics(rec: &Recorder, m: &mut BTreeMap<&'static str, f64>) {
    let d = rec.durations();
    let busy = |name: &str| {
        d.get(name)
            .map_or(0.0, |v| v.iter().sum::<u64>() as f64 / 1e9)
    };
    let calls = |name: &str| d.get(name).map_or(0.0, |v| v.len() as f64);
    let pct = |name: &str, q: f64| d.get(name).map_or(0.0, |v| percentile(v, q) as f64 / 1e3);
    for (metric, span) in [
        ("scenario.generate.busy_s", "scenario.generate"),
        ("scenario.build_mesh.busy_s", "scenario.build_mesh"),
        ("scenario.build_cluster.busy_s", "scenario.build_cluster"),
        ("trace.bundle.busy_s", "trace.bundle"),
        ("emu.deploy.busy_s", "emu.deploy"),
        ("emu.step.busy_s", "emu.step"),
        ("emu.admit_app.busy_s", "emu.admit_app"),
        ("emu.retire_app.busy_s", "emu.retire_app"),
        ("mesh.advance.busy_s", "mesh.advance"),
        ("mesh.set_link_cap.busy_s", "mesh.set_link_cap"),
        ("mesh.flow_churn.busy_s", "mesh.flow_churn"),
        ("ladder.timed_loop_s", "ladder.timed_loop"),
        ("ladder.probe_s", "ladder.probe"),
        ("ladder.run_s", "ladder.run"),
    ] {
        if d.contains_key(span) {
            m.insert(metric, busy(span));
        }
    }
    for (metric, span) in [
        ("emu.step.calls", "emu.step"),
        ("emu.admit_app.calls", "emu.admit_app"),
        ("emu.retire_app.calls", "emu.retire_app"),
        ("mesh.advance.calls", "mesh.advance"),
        ("mesh.flow_churn.calls", "mesh.flow_churn"),
    ] {
        if d.contains_key(span) {
            m.insert(metric, calls(span));
        }
    }
    for (metric, span, q) in [
        ("emu.step.p50_us", "emu.step", 0.50),
        ("emu.step.p99_us", "emu.step", 0.99),
        ("emu.step.max_us", "emu.step", 1.0),
        ("mesh.advance.p50_us", "mesh.advance", 0.50),
        ("mesh.advance.p99_us", "mesh.advance", 0.99),
        ("core.rank_nodes.p50_us", "core.rank_nodes", 0.50),
        (
            "netmon.headroom_probe.p50_us",
            "netmon.headroom_probe",
            0.50,
        ),
        ("netmon.full_probe.p50_us", "netmon.full_probe", 0.50),
        ("mesh.advance_probe.p50_us", "mesh.advance_probe", 0.50),
        ("mesh.node_flap_probe.p50_us", "mesh.node_flap_probe", 0.50),
    ] {
        if d.contains_key(span) {
            m.insert(metric, pct(span, q));
        }
    }
    m.insert("ladder.spans", rec.spans().len() as f64);
}

/// Per-layer metrics read off the program's own span aggregates. A
/// span the program no longer emits drops its metric with a warning.
fn program_metrics(spans: &ProgramSpans, stepped: bool, m: &mut BTreeMap<&'static str, f64>) {
    for (metric, span, is_calls) in [
        ("emu.tick_faults.busy_s", "tick.faults", false),
        ("emu.tick_demand.busy_s", "tick.demand", false),
        ("emu.tick_goodput.busy_s", "tick.goodput", false),
        ("emu.tick_controller.busy_s", "tick.controller", false),
        ("emu.tick_migrate.busy_s", "tick.migrate", false),
        ("core.target_select.busy_s", "ctl.target_select", false),
        ("core.target_select.calls", "ctl.target_select", true),
        ("core.candidates.busy_s", "ctl.candidates", false),
        ("core.score_cache.busy_s", "ctl.score_cache", false),
        (
            "netmon.headroom_probe.busy_s",
            "netmon.headroom_probe",
            false,
        ),
        ("netmon.headroom_probe.calls", "netmon.headroom_probe", true),
        ("netmon.full_probe.busy_s", "netmon.full_probe", false),
        ("netmon.full_probe.calls", "netmon.full_probe", true),
        ("mesh.water_fill.busy_s", "mesh.water_fill", false),
        ("mesh.index_rebuild.busy_s", "mesh.index_rebuild", false),
        ("mesh.index_rebuild.calls", "mesh.index_rebuild", true),
        ("mesh.cap_diff.busy_s", "mesh.cap_diff", false),
        ("mesh.usage_views.busy_s", "mesh.usage_views", false),
        ("mesh.queues.busy_s", "mesh.queues", false),
        ("mesh.trace_refresh.busy_s", "mesh.trace_refresh", false),
    ] {
        match spans.get(span) {
            Some(&(calls, busy_s)) => {
                m.insert(metric, if is_calls { calls as f64 } else { busy_s });
            }
            // Every stepped workload runs every tick phase; the other
            // spans only exist once their code path ran.
            None if stepped && span.starts_with("tick.") => {
                eprintln!(
                    "ladder: warning: the program no longer emits span '{span}'; {metric} dropped"
                );
            }
            None => {}
        }
    }
    // Direct children of one `SimEnv::step`: the tick phases and the
    // mesh interior (ctl.* and netmon.* nest inside tick.controller).
    if let Some(&step_busy) = m.get("emu.step.busy_s") {
        let children: f64 = spans
            .iter()
            .filter(|(n, _)| n.starts_with("tick.") || n.starts_with("mesh."))
            .map(|(_, &(_, busy_s))| busy_s)
            .sum();
        m.insert("emu.step.unattributed_s", step_busy - children);
    }
}

fn write_trace_file(
    out: &Path,
    w: &Workload,
    seed: u64,
    rec: &Recorder,
    program: &ProgramSpans,
) -> Result<(), String> {
    let file = TraceFile {
        workload: w.name,
        seed,
        spans: rec.spans().to_vec(),
        program_spans: program
            .iter()
            .map(|(name, &(calls, busy_s))| ProgramSpanOut {
                parent: program_parent(name),
                name: name.clone(),
                calls,
                busy_ns: (busy_s * 1e9) as u64,
            })
            .collect(),
    };
    let path = out.join(format!("trace-{}.json", w.name));
    let json = serde_json::to_string(&file).expect("trace serializes");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs `w` traced, writes `<out>/trace-<workload>.json`, and returns
/// the per-layer metrics this run can know by itself (the parent adds
/// the ones that compare against untraced children).
pub fn run_traced(
    w: &Workload,
    inputs: &Path,
    out: &Path,
    replica_seeds: &[u64],
) -> Result<TraceResult, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let params = read_params(inputs, w.name)?;
    let dir = workload_dir(inputs, w.name);
    let mut rec = Recorder::new();
    let mut result = TraceResult::default();
    let run = rec.open("ladder.run");
    let program = match w.kind {
        Kind::Campaign => campaign(&dir, replica_seeds, &mut rec, &mut result)?,
        Kind::MeshChurn => mesh_churn(&params, &mut rec, &mut result),
        Kind::Simulate => simulate(&params, &dir, out, &mut rec, &mut result)?,
    };
    rec.close(run);
    harness_metrics(&rec, &mut result.metrics);
    program_metrics(&program, w.kind != Kind::MeshChurn, &mut result.metrics);
    if w.kind == Kind::MeshChurn {
        // After the run span closed: the kernel probe is not part of
        // the workload's traced wall-clock.
        let calls = kernel_fill_probe(params.seed);
        result.metrics.insert(
            "mesh.kernel.fill.p50_us",
            percentile(&calls, 0.5) as f64 / 1e3,
        );
    }
    write_trace_file(out, w, params.seed, &rec, &program)?;
    Ok(result)
}

/// Mirrors the campaign runner's replica loop through public calls.
fn campaign(
    dir: &Path,
    replica_seeds: &[u64],
    rec: &mut Recorder,
    result: &mut TraceResult,
) -> Result<ProgramSpans, String> {
    let spec =
        ScenarioSpec::from_json(&read_text(&dir.join("spec.json"))?).map_err(|e| e.to_string())?;
    let probe_every = (spec.horizon_ticks / PROBES_PER_REPLICA).max(PROBE_MIN_EVERY);
    let crashes_nodes = spec
        .faults
        .as_ref()
        .is_some_and(|f| f.node_crash_rate > 0.0);
    let mut merged = SpanProfiler::new();
    let mut workload_events = 0usize;
    let mut bundle_samples = 0usize;
    let (mut admit_failed, mut migrations, mut unplaceable, mut faults) = (0u64, 0u64, 0u64, 0u64);
    for (k, &seed) in replica_seeds.iter().enumerate() {
        rec.run = k as u32;
        let replica = rec.open("ladder.replica");
        let scenario = rec.time("scenario.generate", || bass_scenario::generate(&spec, seed));
        let horizon = SimDuration::from_millis(spec.horizon_ticks * spec.step_ms);
        // A timed extra call: `build_mesh` materialises the same bundle
        // inside itself, where it cannot be told apart from routing.
        let bundle = rec.time("trace.bundle", || scenario.trace_bundle(horizon));
        bundle_samples += bundle.iter().map(|(_, t)| t.len()).sum::<usize>();
        drop(bundle);
        let mesh = rec
            .time("scenario.build_mesh", || scenario.build_mesh(horizon))
            .map_err(|e| e.to_string())?;
        let cluster = rec.time("scenario.build_cluster", || scenario.build_cluster());
        let cfg = SimEnvConfig {
            step: SimDuration::from_millis(spec.step_ms),
            faults: scenario.faults.clone(),
            ..SimEnvConfig::default()
        };
        let mut env = SimEnv::new(mesh, cluster, AppDag::new(scenario.name.clone()), cfg);
        env.enable_span_profiling();
        rec.time("emu.deploy", || env.deploy(&[]))
            .map_err(|e| e.to_string())?;
        let faults_total = env.fault_plan().remaining();
        let mut monitor = NetMonitor::new(NetMonitorConfig::default());
        let (mut admitted, mut rejected, mut retired) = (0u64, 0u64, 0u64);
        let mut live: BTreeMap<u32, (String, Vec<ComponentId>)> = BTreeMap::new();
        let mut cursor = 0usize;
        workload_events += scenario.workload.len();
        for tick in 0..spec.horizon_ticks {
            let now_ms = tick * spec.step_ms;
            while cursor < scenario.workload.len() && scenario.workload[cursor].at_ms() <= now_ms {
                match scenario.workload[cursor] {
                    WorkloadEvent::Arrive { instance, kind, .. } => {
                        let dag = kind.dag(spec.workload.social_rps);
                        let offset = GeneratedScenario::instance_offset(instance);
                        match rec.time("emu.admit_app", || env.admit_app(&dag, offset)) {
                            Ok(ids) => {
                                live.insert(
                                    instance,
                                    (GeneratedScenario::instance_label(kind, instance), ids),
                                );
                                admitted += 1;
                            }
                            Err(EnvError::Schedule(_)) => rejected += 1,
                            Err(e) => return Err(e.to_string()),
                        }
                    }
                    WorkloadEvent::Depart { instance, .. } => {
                        if let Some((label, ids)) = live.remove(&instance) {
                            rec.time("emu.retire_app", || env.retire_app(&label, &ids))
                                .map_err(|e| e.to_string())?;
                            retired += 1;
                        }
                    }
                }
                cursor += 1;
            }
            rec.time("emu.step", || env.step())
                .map_err(|e| e.to_string())?;
            if tick.is_multiple_of(probe_every) {
                let probe = rec.open("ladder.probe");
                let ranked = rec.time("core.rank_nodes", || {
                    bass_core::ranking::rank_nodes(env.cluster(), env.mesh())
                });
                std::hint::black_box(ranked);
                let report = rec.time("netmon.headroom_probe", || {
                    monitor.headroom_probe(env.mesh())
                });
                std::hint::black_box(report);
                rec.time("netmon.full_probe", || monitor.full_probe(env.mesh()));
                let mut copy = env.mesh().clone();
                rec.time("mesh.advance_probe", || {
                    copy.advance(SimDuration::from_millis(spec.step_ms))
                });
                // What a node crash and its recovery cost the mesh
                // alone (routes and flow paths are recomputed twice):
                // ≈80 ms at 200 nodes, so only where the scenario
                // crashes nodes, and only on every other round.
                let round = tick / probe_every;
                if crashes_nodes && round.is_multiple_of(2) {
                    let node = NodeId(scenario.nodes[round as usize % scenario.nodes.len()].id);
                    rec.time("mesh.node_flap_probe", || {
                        let _ = copy.set_node_up(node, false);
                        let _ = copy.set_node_up(node, true);
                    });
                }
                drop(copy);
                rec.close(probe);
            }
        }
        let stats = env.stats();
        let injected = (faults_total - env.fault_plan().remaining()) as u64;
        result.replicas.push(ReplicaCounts {
            seed,
            admitted,
            rejected,
            retired,
            migrations: stats.migrations.len() as u64,
            unplaceable: stats.unplaceable,
            faults_injected: injected,
        });
        admit_failed += rejected;
        migrations += stats.migrations.len() as u64;
        unplaceable += stats.unplaceable;
        faults += injected;
        if let Some(p) = env.take_span_profiler() {
            merged.merge(&p);
        }
        rec.close(replica);
    }
    let m = &mut result.metrics;
    m.insert("scenario.workload_events", workload_events as f64);
    m.insert("trace.bundle.samples", bundle_samples as f64);
    m.insert("emu.admit_app.failed", admit_failed as f64);
    m.insert("emu.migrations", migrations as f64);
    m.insert("emu.unplaceable", unplaceable as f64);
    m.insert("faults.injected", faults as f64);
    Ok(from_profiler(&merged))
}

fn mesh_churn(params: &Params, rec: &mut Recorder, result: &mut TraceResult) -> ProgramSpans {
    let mut profiler = SpanProfiler::new();
    let churn = rec.time("ladder.setup", || Churn::build(params));
    let outcome = churn.run(
        params.ticks,
        SimDuration::from_millis(params.step_ms),
        Some((rec, &mut profiler)),
    );
    result.rate_sum_bits = Some(outcome.rate_sum_bps.to_bits());
    from_profiler(&profiler)
}

/// `testbed-journal`: one span around `bass_cli::simulate` per piece,
/// with the journal and the metrics exposition on, as the untraced
/// children have them; the program's spans are read back from the
/// expositions and summed.
fn simulate(
    params: &Params,
    dir: &Path,
    out: &Path,
    rec: &mut Recorder,
    result: &mut TraceResult,
) -> Result<ProgramSpans, String> {
    let journal = out.join("trace-journal.jsonl");
    let metrics = out.join("trace-metrics.prom");
    let mut spans = ProgramSpans::new();
    let (mut events, mut bytes, mut migrations) = (0u64, 0u64, 0usize);
    for (k, &seed) in params.piece_seeds.iter().enumerate() {
        rec.run = k as u32;
        let (manifest, testbed) = rec.time(
            "cli.parse",
            || -> Result<(Manifest, TestbedSpec), String> {
                Ok((
                    serde_json::from_str(&read_text(&dir.join("app.json"))?)
                        .map_err(|e| e.to_string())?,
                    serde_json::from_str(&read_text(&dir.join("mesh.json"))?)
                        .map_err(|e| e.to_string())?,
                ))
            },
        )?;
        let opts = SimulateOptions {
            duration_s: params.piece_duration_s(),
            seed,
            journal: Some(journal.clone()),
            metrics_out: Some(metrics.clone()),
            ..SimulateOptions::default()
        };
        let outcome = rec
            .time("cli.simulate", || {
                bass_cli::simulate(&manifest, &testbed, opts)
            })
            .map_err(|e| e.to_string())?;
        let json = rec.time("cli.render", || {
            serde_json::to_string_pretty(&outcome).expect("outcome serializes")
        });
        std::hint::black_box(json);
        events += outcome.journal_events.unwrap_or(0);
        bytes += std::fs::metadata(&journal).map_or(0, |md| md.len());
        migrations += outcome.migrations.len();
        for (name, (calls, busy_s)) in from_exposition(&read_text(&metrics)?) {
            let entry = spans.entry(name).or_insert((0, 0.0));
            entry.0 += calls;
            entry.1 += busy_s;
        }
        let _ = std::fs::remove_file(&journal);
    }
    let m = &mut result.metrics;
    m.insert("obs.journal.events", events as f64);
    m.insert("obs.journal.bytes", bytes as f64);
    m.insert("emu.migrations", migrations as f64);
    if let Some(&(calls, _)) = spans.get("tick.finalize") {
        // The CLI owns the step loop here; its per-tick spans are the
        // only view of it, so there is no enclosing `emu.step` span.
        m.insert("emu.step.calls", calls as f64);
    }
    Ok(spans)
}
