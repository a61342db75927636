//! Orchestration: the one-workload driver entry (`bench`), the full
//! ladder (`all`, `--smoke`), and the A/A comparison (`aa`).
//!
//! One child process at a time, no harness threads. End-to-end samples
//! come only from untraced children ([`crate::untraced`]); per-layer
//! numbers only from the separate traced run ([`crate::traced`]) that
//! follows them. Every check failure is fatal: a run that fails a check
//! prints no numbers.

use crate::proc::run_child;
use crate::report::{
    median, quartiles, EndToEndResult, Fingerprint, PerLayerResult, Results, WorkloadResult,
};
use crate::traced::run_traced;
use crate::untraced::{fingerprint, run_untraced, Bins, Sample};
use crate::workloads::{
    find, write_inputs, Kind, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Options shared by `all` and `aa`.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Workload seed.
    pub seed: u64,
    /// Output directory (inputs, scratch files, traces, results).
    pub out: PathBuf,
    /// 1/20 of the ticks, one repetition, checks on.
    pub smoke: bool,
    /// Restrict to these workloads (all when empty).
    pub only: Vec<&'static Workload>,
    /// Run the traced pass too. Not a flag: only `aa` turns it off.
    pub traced: bool,
}

impl SuiteOptions {
    fn workloads(&self) -> Vec<&'static Workload> {
        if self.only.is_empty() {
            WORKLOADS.iter().collect()
        } else {
            self.only.clone()
        }
    }
}

/// All repetitions of one workload must reproduce the first one's
/// deterministic output byte for byte.
fn check_identical(w: &Workload, samples: &[Sample]) -> Result<(), String> {
    let first = &samples[0];
    for (i, s) in samples.iter().enumerate().skip(1) {
        if s.output != first.output {
            return Err(format!(
                "{}: repetition {i} produced different output ({} vs {})",
                w.name,
                fingerprint(&s.output),
                fingerprint(&first.output)
            ));
        }
    }
    Ok(())
}

/// Spawns `ladder setup` in a fresh child and returns its per-repetition
/// seconds, ascending.
fn setup_child(
    w: &Workload,
    inputs: &Path,
    work: &Path,
    bins: &Bins,
    sample: &Sample,
    smoke: bool,
) -> Result<Vec<f64>, String> {
    let replica_seed = sample.counts.replicas.first().map_or(0, |r| r.seed);
    let stdout = work.join("setup.json");
    let mut cmd = Command::new(&bins.ladder);
    cmd.args(["setup", w.name, "--inputs"])
        .arg(inputs)
        .args(["--replica-seed", &replica_seed.to_string()]);
    if smoke {
        cmd.arg("--smoke");
    }
    run_child(&mut cmd, &stdout)?;
    let text =
        std::fs::read_to_string(&stdout).map_err(|e| format!("{}: {e}", stdout.display()))?;
    let samples: Vec<f64> =
        serde_json::from_str(&text).map_err(|e| format!("setup output: {e}"))?;
    if samples.is_empty() {
        return Err(format!("{}: setup child reported no samples", w.name));
    }
    Ok(samples)
}

/// The traced pass of one workload: the in-process traced run, its
/// cross-checks against the untraced sample, and the per-layer metrics
/// that compare the two.
fn traced_pass(
    w: &Workload,
    inputs: &Path,
    work: &Path,
    out: &Path,
    bins: &Bins,
    untraced: &[Sample],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let reference = &untraced[0];
    let seeds: Vec<u64> = reference.counts.replicas.iter().map(|r| r.seed).collect();
    let trace = run_traced(w, inputs, out, &seeds)?;
    if trace.replicas != reference.counts.replicas {
        return Err(format!(
            "{}: traced mirror diverged from the untraced summary:\n  traced   {:?}\n  untraced {:?}",
            w.name, trace.replicas, reference.counts.replicas
        ));
    }
    if w.kind == Kind::MeshChurn {
        let printed = String::from_utf8_lossy(&reference.output);
        let bits = format!("{:016x}", trace.rate_sum_bits.unwrap_or(0));
        if !printed.contains(&bits) {
            return Err(format!(
                "{}: traced rate sum {bits} differs from the untraced run",
                w.name
            ));
        }
    }
    let mut m = trace.metrics;
    let run_s = m["ladder.run_s"];
    let walls: Vec<f64> = untraced.iter().map(|s| s.child.wall_s).collect();
    let untraced_wall = median(&walls);
    m.insert("ladder.untraced_wall_s", untraced_wall);
    m.insert("obs.trace_overhead_frac", run_s / untraced_wall - 1.0);
    m.insert("cli.output_bytes", reference.output_bytes as f64);
    // Child wall-clock minus the same work in-process, probes excluded:
    // process start, argument and input parsing, output.
    let probe_s = m.get("ladder.probe_s").copied().unwrap_or(0.0);
    m.insert("cli.overhead_s", untraced_wall - (run_s - probe_s));
    if w.kind == Kind::Simulate {
        let journal_events = m.get("obs.journal.events").copied().unwrap_or(0.0);
        if journal_events != reference.counts.journal_events as f64 {
            return Err(format!(
                "{}: traced run journaled {journal_events} events, the untraced child {}",
                w.name, reference.counts.journal_events
            ));
        }
        // The same command without --journal/--metrics-out; the
        // difference is what observability costs.
        let bare = run_untraced(w, inputs, &work.join("journal-off"), bins, false)?;
        m.insert("obs.journal.busy_s", untraced_wall - bare.child.wall_s);
    }
    Ok(m)
}

/// `ticks_per_s` of a set of repetitions: fixed ticks ÷ the wall-clock
/// one repetition would have taken undisturbed, as far as the
/// repetitions can tell — each piece's fastest run, summed. Contention
/// on a shared box only ever slows a child down, in bursts of seconds,
/// so the fastest run of a short piece is its least disturbed one.
fn ticks_per_s(samples: &[Sample]) -> f64 {
    let fastest: f64 = (0..samples[0].piece_walls.len())
        .map(|k| {
            samples
                .iter()
                .map(|s| s.piece_walls[k])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    samples[0].counts.ticks as f64 / fastest
}

/// Every end-to-end metric of one workload, the one way `bench`, `all`
/// and `aa` report it: `ticks_per_s` from each piece's fastest
/// repetition, the others as the median over repetitions (set-up: over
/// its in-process repetitions). Quartiles are of the per-repetition
/// values.
fn end_to_end(samples: &[Sample], setup: &[f64]) -> BTreeMap<&'static str, EndToEndResult> {
    let per_rep = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    END_TO_END
        .iter()
        .map(|e| {
            let values = match e.name {
                "ticks_per_s" => per_rep(&|s| s.counts.ticks as f64 / s.child.wall_s),
                "setup_s" => setup.to_vec(),
                "peak_rss_mb" => per_rep(&|s| s.child.peak_rss_mb),
                "goodput_mean" => per_rep(&|s| s.goodput_mean),
                "ops_ok_share" => per_rep(&Sample::ops_ok_share),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            let q = quartiles(&values);
            let value = if e.name == "ticks_per_s" {
                ticks_per_s(samples)
            } else {
                q.median
            };
            let result = EndToEndResult {
                value,
                median: q.median,
                q1: q.q1,
                q3: q.q3,
                n: q.n,
                unit: e.unit,
                better: e.better.as_str(),
                bound: e.bound,
            };
            (e.name, result)
        })
        .collect()
}

/// One untraced repetition of `w`, announced on stderr.
fn repetition(
    w: &Workload,
    rep: usize,
    reps: usize,
    inputs: &Path,
    work: &Path,
    bins: &Bins,
) -> Result<Sample, String> {
    let s = run_untraced(w, inputs, work, bins, true)?;
    eprintln!(
        "ladder: {} rep {}/{reps}: {:.3} s wall, {:.3} s cpu, {:.1} MB",
        w.name,
        rep + 1,
        s.child.wall_s,
        s.child.cpu_s,
        s.child.peak_rss_mb
    );
    Ok(s)
}

// ----- driver entry: one workload, one JSON line ----------------------------

/// One metric of the result line.
#[derive(Serialize)]
struct MetricOut {
    value: f64,
    unit: &'static str,
}

/// The result line the benchmark driver reads.
#[derive(Serialize)]
struct BenchOut {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, MetricOut>,
}

/// `ladder bench --workload W --seed N --seconds S --trace 0|1`: the
/// entry the benchmark driver calls. Runs the workload's fixed
/// repetition count scaled by `S ÷ RUN_SECONDS` (rounded down, at least
/// one; one for a traced or smoke run) — a count that depends on the
/// flag alone, never on how fast the build under test is — then
/// measures set-up (`--trace 0`) or runs the traced pass (`--trace 1`),
/// and prints one JSON object as the last line of stdout.
pub fn bench(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: &Path,
) -> Result<(), String> {
    let w = find(workload)?;
    let bins = Bins::locate()?;
    let inputs = out.join("inputs");
    let work = out.join("work").join(w.name);
    write_inputs(&inputs, seed, smoke)?;

    let reps = if trace || smoke {
        1
    } else {
        ((f64::from(w.reps) * seconds / RUN_SECONDS as f64) as usize).max(1)
    };
    let samples = (0..reps)
        .map(|rep| repetition(w, rep, reps, &inputs, &work, &bins))
        .collect::<Result<Vec<Sample>, String>>()?;
    check_identical(w, &samples)?;

    let mut metrics = BTreeMap::new();
    if trace {
        let layers = traced_pass(w, &inputs, &work, out, &bins, &samples)?;
        for (name, unit, _) in PER_LAYER {
            let value = layers.get(name).copied().unwrap_or(0.0);
            metrics.insert(name, MetricOut { value, unit });
        }
    } else {
        let setup = setup_child(w, &inputs, &work, &bins, &samples[0], smoke)?;
        for (name, e) in end_to_end(&samples, &setup) {
            let (value, unit) = (e.value, e.unit);
            metrics.insert(name, MetricOut { value, unit });
        }
    }
    if let Some((name, m)) = metrics.iter().find(|(_, m)| !m.value.is_finite()) {
        return Err(format!("{}: {name} is {}, not a number", w.name, m.value));
    }
    let result = BenchOut {
        correct: true,
        attempted: samples.iter().map(|s| s.counts.ticks).sum(),
        failed: 0,
        metrics,
    };
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    Ok(())
}

// ----- the full ladder ------------------------------------------------------

/// `ladder all`: every workload's fixed repetitions, interleaved
/// round-robin, then set-up and the traced pass per workload; prints
/// every metric by name with its unit and writes `<out>/results.json`.
pub fn all(opts: &SuiteOptions) -> Result<Results, String> {
    let bins = Bins::locate()?;
    let inputs = opts.out.join("inputs");
    write_inputs(&inputs, opts.seed, opts.smoke)?;
    let mut fp = Fingerprint::capture(opts.seed);
    let workloads = opts.workloads();
    let reps = |w: &Workload| if opts.smoke { 1 } else { w.reps as usize };

    let mut samples: BTreeMap<&'static str, Vec<Sample>> = BTreeMap::new();
    for rep in 0..workloads.iter().map(|w| reps(w)).max().unwrap_or(0) {
        for w in workloads.iter().filter(|w| rep < reps(w)) {
            let work = opts.out.join("work").join(w.name);
            let s = repetition(w, rep, reps(w), &inputs, &work, &bins)?;
            samples.entry(w.name).or_default().push(s);
        }
    }

    let mut results = BTreeMap::new();
    for w in &workloads {
        let runs = &samples[w.name];
        check_identical(w, runs)?;
        let work = opts.out.join("work").join(w.name);
        let setup = setup_child(w, &inputs, &work, &bins, &runs[0], opts.smoke)?;
        let per_layer = if opts.traced {
            let layers = traced_pass(w, &inputs, &work, &opts.out, &bins, runs)?;
            PER_LAYER
                .iter()
                .filter_map(|&(name, unit, _)| {
                    layers
                        .get(name)
                        .map(|&value| (name, PerLayerResult { value, unit }))
                })
                .collect()
        } else {
            BTreeMap::new()
        };
        results.insert(
            w.name,
            WorkloadResult {
                why: w.why,
                ticks: runs[0].counts.ticks,
                output_fingerprint: fingerprint(&runs[0].output),
                end_to_end: end_to_end(runs, &setup),
                per_layer,
            },
        );
    }
    fp.finish();
    let results = Results {
        fingerprint: fp,
        smoke: opts.smoke,
        workloads: results,
    };
    let path = opts.out.join("results.json");
    let json = serde_json::to_string_pretty(&results).expect("results serialize");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(results)
}

/// Prints every metric of a result set by name, with its unit.
pub fn print_results(r: &Results) {
    let fp = &r.fingerprint;
    println!(
        "seed {} | {} cpus ({}) | {} | commit {} | load {:.2} -> {:.2}{}{}",
        fp.seed,
        fp.nproc,
        fp.cpu_model,
        fp.rustc,
        fp.git_commit,
        fp.load_1m_start,
        fp.load_1m_end,
        if fp.load_exceeded_nproc {
            " (EXCEEDED nproc: timings suspect)"
        } else {
            ""
        },
        if r.smoke {
            " | SMOKE: 1/20 of the ticks, not comparable"
        } else {
            ""
        },
    );
    for (name, w) in &r.workloads {
        println!(
            "\n{name} ({} ticks, output {})",
            w.ticks, w.output_fingerprint
        );
        for (metric, e) in &w.end_to_end {
            println!(
                "  {metric:<28} {:>14.6} {:<8} n {} (q1 {:.6}, median {:.6}, q3 {:.6}; {} is better, bound {:.0} %)",
                e.value, e.unit, e.n, e.q1, e.median, e.q3, e.better, e.bound * 100.0
            );
        }
        for (metric, p) in &w.per_layer {
            println!("  {metric:<28} {:>14.6} {}", p.value, p.unit);
        }
    }
}

/// `ladder aa`: two full sets of untraced runs of the same binaries,
/// back to back; prints per workload × end-to-end metric the relative
/// difference of the reported values beside its bound and fails when
/// any difference in the worse direction exceeds it.
pub fn aa(opts: &SuiteOptions) -> Result<(), String> {
    let set = |name: &str| {
        let mut o = opts.clone();
        o.out = opts.out.join(name);
        o.traced = false;
        all(&o)
    };
    let a = set("aa-a")?;
    let b = set("aa-b")?;
    let mut exceeded = Vec::new();
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for (name, wa) in &a.workloads {
        let wb = &b.workloads[name];
        for e in END_TO_END {
            let (ma, mb) = (wa.end_to_end[e.name].value, wb.end_to_end[e.name].value);
            let worse = match e.better {
                crate::workloads::Better::Higher => (ma - mb) / ma,
                crate::workloads::Better::Lower => (mb - ma) / ma,
            };
            let flag = if worse > e.bound { "  EXCEEDED" } else { "" };
            println!(
                "{name:<18} {:<14} {ma:>14.6} {mb:>14.6} {:>8.2}% {:>6.0}%{flag}",
                e.name,
                worse * 100.0,
                e.bound * 100.0
            );
            if worse > e.bound {
                exceeded.push(format!("{name}/{}", e.name));
            }
        }
    }
    if exceeded.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "A/A difference exceeded the bound on: {}",
            exceeded.join(", ")
        ))
    }
}
