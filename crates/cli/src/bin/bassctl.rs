//! `bassctl` — plan and simulate BASS deployments.
//!
//! ```text
//! bassctl order    --manifest app.json [--policy bfs|longest-path|hybrid|k3s-default]
//! bassctl place    --manifest app.json --testbed mesh.json [--policy …] [--seed N] [--json]
//! bassctl simulate --manifest app.json --testbed mesh.json [--policy …] [--duration SECS]
//!                  [--no-migrations] [--seed N] [--json] [--journal events.jsonl]
//!                  [--faults plan.json] [--metrics-out metrics.prom]
//! bassctl recommend --manifest app.json --testbed mesh.json [--seed N] [--json]
//! bassctl traces   --testbed mesh.json [--duration SECS] [--seed N]
//! bassctl campaign --spec scenario.json [--seed N] [--jobs N] [--out summary.json] [--json]
//!                  [--journal events.jsonl] [--metrics-out metrics.prom]
//!                  [--profile] [--progress[=off|info|debug]]
//! bassctl arena    --spec scenario.json [--spec more.json …] [--policy bass,random,…]
//!                  [--seed N] [--jobs N] [--out table.json] [--json]
//!                  [--metrics-out metrics.prom] [--progress[=off|info|debug]]
//! bassctl metrics  --in metrics.prom [--diff other.prom | --lint]
//! bassctl schema                       # print example input files
//! ```
//!
//! `arena` races scheduler policies (`bass`, `k3s-default`, `spread`,
//! `random`, `network-aware-greedy`, `metronome`; default all) over the
//! `--spec` corpus and prints a ranked comparison table — see
//! `docs/POLICIES.md`. `--out` writes the deterministic table JSON
//! (byte-identical at any `--jobs`); stdout adds wall-clock ticks/s.
//!
//! `--metrics-out` writes a Prometheus text-format exposition of the
//! run's counters, gauges, and per-phase span timings; `--profile`
//! splices a `profile` section into the campaign summary JSON;
//! `--progress` reports live replica progress on stderr. None of the
//! three changes any deterministic output byte (see
//! `docs/OBSERVABILITY.md`).

use bass_appdag::Manifest;
use bass_cli::{commands::recommend, commands::traces, order, place, simulate, SimulateOptions, TestbedSpec};
use bass_core::PlacementPolicy;
use std::io::{self, Write};
use std::process::ExitCode;

/// Every command `bassctl` dispatches on, as shown in usage errors.
const COMMANDS: &str = "order|place|simulate|recommend|traces|campaign|arena|metrics|schema";

/// The flags `run` reads for each command (`--progress` also stands for
/// `--progress=LEVEL`). The parser refuses every other flag and command,
/// except `--help`/`-h`, which every command takes.
const FLAGS: &[(&str, &str)] = &[
    ("order", "--manifest --policy"),
    ("place", "--manifest --testbed --policy --seed --json"),
    ("simulate", "--manifest --testbed --policy --duration --no-migrations --seed --json \
        --journal --faults --metrics-out"),
    ("recommend", "--manifest --testbed --seed --json"),
    ("traces", "--testbed --seed --duration"),
    ("campaign", "--spec --seed --jobs --out --json --journal --metrics-out --profile --progress"),
    ("arena", "--spec --policy --seed --jobs --out --json --metrics-out --progress"),
    ("metrics", "--in --diff --lint"),
    ("schema", ""), ("help", ""), ("--help", ""), ("-h", ""),
];

struct Args {
    manifest: Option<String>,
    testbed: Option<String>,
    specs: Vec<String>,
    arena_policies: Vec<bass_core::PolicyKind>,
    jobs: usize,
    out: Option<String>,
    policy: PlacementPolicy,
    duration_s: u64,
    migrations: bool,
    seed: u64,
    json: bool,
    journal: Option<String>,
    faults: Option<String>,
    metrics_out: Option<String>,
    profile: bool,
    progress: bass_obs::ProgressLevel,
    input: Option<String>,
    diff: Option<String>,
    lint: bool,
    help: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<(String, Args), String> {
    let command = argv.next().ok_or_else(|| format!("missing command ({COMMANDS})"))?;
    let (_, accepted) = FLAGS
        .iter()
        .find(|(name, _)| *name == command)
        .ok_or_else(|| format!("unknown command '{command}'"))?;
    let mut args = Args {
        manifest: None,
        testbed: None,
        specs: Vec::new(),
        arena_policies: Vec::new(),
        jobs: 1,
        out: None,
        policy: PlacementPolicy::LongestPath,
        duration_s: 300,
        migrations: true,
        seed: 42,
        json: false,
        journal: None,
        faults: None,
        metrics_out: None,
        profile: false,
        progress: bass_obs::ProgressLevel::Off,
        input: None,
        diff: None,
        lint: false,
        help: matches!(command.as_str(), "help" | "--help" | "-h"),
    };
    while let Some(flag) = argv.next() {
        if flag == "--help" || flag == "-h" {
            args.help = true;
            continue;
        }
        let name = flag.split_once('=').map_or(flag.as_str(), |(name, _)| name);
        if !accepted.split_whitespace().any(|f| f == name) {
            return Err(format!("unknown flag '{flag}' for {command}; it takes [{accepted}]"));
        }
        let mut value = |name: &str| argv.next().ok_or(format!("{name} requires a value"));
        match flag.as_str() {
            "--manifest" => args.manifest = Some(value("--manifest")?),
            "--testbed" => args.testbed = Some(value("--testbed")?),
            "--spec" => args.specs.push(value("--spec")?),
            "--out" => args.out = Some(value("--out")?),
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            // `arena` races migration policies (registry names like
            // `bass`); every other command takes a placement policy.
            // Arena accepts the flag repeated and/or comma-separated.
            "--policy" => {
                let v = value("--policy")?;
                if command == "arena" {
                    for name in v.split(',').filter(|n| !n.trim().is_empty()) {
                        args.arena_policies.push(bass_core::PolicyKind::parse(name.trim())?);
                    }
                } else {
                    args.policy = PlacementPolicy::parse(&v)?;
                }
            }
            "--duration" => {
                args.duration_s = value("--duration")?
                    .parse()
                    .map_err(|e| format!("bad --duration: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--no-migrations" => args.migrations = false,
            "--json" => args.json = true,
            "--journal" => args.journal = Some(value("--journal")?),
            "--faults" => args.faults = Some(value("--faults")?),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--profile" => args.profile = true,
            "--progress" => args.progress = bass_obs::ProgressLevel::Info,
            "--in" => args.input = Some(value("--in")?),
            "--diff" => args.diff = Some(value("--diff")?),
            "--lint" => args.lint = true,
            other if other.starts_with("--progress=") => {
                let level = &other["--progress=".len()..];
                args.progress = bass_obs::ProgressLevel::parse(level).ok_or(format!(
                    "unknown progress level '{level}' (expected off, info, or debug)"
                ))?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok((command, args))
}

fn load_manifest(args: &Args) -> Result<Manifest, String> {
    let path = args.manifest.as_ref().ok_or("--manifest is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn load_testbed(args: &Args) -> Result<TestbedSpec, String> {
    let path = args.testbed.as_ref().ok_or("--testbed is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Why a command stopped: a message for stderr, or a write to stdout
/// that failed.
enum Failure {
    Message(String),
    Stdout(io::Error),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Message(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Message(msg.to_string())
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Stdout(e)
    }
}

/// Runs one command, writing everything it reports to `stdout`.
fn run(stdout: &mut impl Write) -> Result<(), Failure> {
    let (command, args) = parse_args(std::env::args().skip(1))?;
    if args.help {
        // `command`'s entry of `FLAGS`, or every command's for `help`.
        let real = COMMANDS.split('|').any(|c| c == command);
        for name in if real { command.as_str() } else { COMMANDS }.split('|') {
            let (_, flags) = FLAGS.iter().find(|(n, _)| *n == name).expect("a command has flags");
            writeln!(stdout, "{}", format!("bassctl {name:<9} {flags}").trim_end())?;
        }
        return Ok(());
    }
    match command.as_str() {
        "schema" => {
            let manifest = Manifest::from_dag(&bass_appdag::catalog::camera_pipeline());
            writeln!(stdout, "--- example application manifest (app.json) ---")?;
            writeln!(stdout, "{}", serde_json::to_string_pretty(&manifest).expect("serializable"))?;
            writeln!(stdout, "--- example testbed (mesh.json) ---")?;
            writeln!(
                stdout,
                "{}",
                serde_json::to_string_pretty(&TestbedSpec::example()).expect("serializable")
            )?;
            Ok(())
        }
        "traces" => {
            let testbed = load_testbed(&args)?;
            let out_dir = std::path::Path::new("traces");
            std::fs::create_dir_all(out_dir)
                .map_err(|e| format!("cannot create traces/: {e}"))?;
            let files =
                traces(&testbed, args.seed, args.duration_s).map_err(|e| e.to_string())?;
            for (name, csv) in files {
                let path = out_dir.join(format!("{name}.csv"));
                std::fs::write(&path, csv)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                writeln!(stdout, "wrote {}", path.display())?;
            }
            Ok(())
        }
        "recommend" => {
            let manifest = load_manifest(&args)?;
            let testbed = load_testbed(&args)?;
            let rec = recommend(&manifest, &testbed, args.seed).map_err(|e| e.to_string())?;
            if args.json {
                writeln!(stdout, "{}", serde_json::to_string_pretty(&rec).expect("serializable"))?;
            } else {
                writeln!(
                    stdout,
                    "DAG shape: max fan-out {}, depth {}",
                    rec.max_fan_out, rec.depth
                )?;
                for (i, score) in rec.ranking.iter().enumerate() {
                    writeln!(
                        stdout,
                        "{}. {:<14} crossing {:>6.1}% of total bandwidth",
                        i + 1,
                        score.policy.to_string(),
                        score.crossing_fraction * 100.0
                    )?;
                }
                if !rec.is_feasible() {
                    writeln!(stdout, "no policy produced a feasible placement")?;
                }
            }
            Ok(())
        }
        "order" => {
            let manifest = load_manifest(&args)?;
            let groups = order(&manifest, args.policy).map_err(|e| e.to_string())?;
            for (i, group) in groups.iter().enumerate() {
                writeln!(stdout, "group {}: {}", i + 1, group.join(" -> "))?;
            }
            Ok(())
        }
        "place" => {
            let manifest = load_manifest(&args)?;
            let testbed = load_testbed(&args)?;
            let outcome =
                place(&manifest, &testbed, args.policy, args.seed).map_err(|e| e.to_string())?;
            if args.json {
                writeln!(
                    stdout,
                    "{}",
                    serde_json::to_string_pretty(&outcome).expect("serializable")
                )?;
            } else {
                for (name, node) in &outcome.placement {
                    writeln!(stdout, "{name:<28} -> node {node}")?;
                }
                writeln!(
                    stdout,
                    "crossing bandwidth: {:.2} / {:.2} Mbps",
                    outcome.crossing_mbps, outcome.total_mbps
                )?;
            }
            Ok(())
        }
        "simulate" => {
            let manifest = load_manifest(&args)?;
            let testbed = load_testbed(&args)?;
            let outcome = simulate(
                &manifest,
                &testbed,
                SimulateOptions {
                    policy: args.policy,
                    duration_s: args.duration_s,
                    migrations: args.migrations,
                    seed: args.seed,
                    journal: args.journal.clone().map(std::path::PathBuf::from),
                    faults: args.faults.clone().map(std::path::PathBuf::from),
                    metrics_out: args.metrics_out.clone().map(std::path::PathBuf::from),
                },
            )
            .map_err(|e| e.to_string())?;
            if args.json {
                writeln!(
                    stdout,
                    "{}",
                    serde_json::to_string_pretty(&outcome).expect("serializable")
                )?;
            } else {
                writeln!(
                    stdout,
                    "initial crossing bandwidth: {:.2} Mbps",
                    outcome.initial.crossing_mbps
                )?;
                for (t, name, from, to) in &outcome.migrations {
                    writeln!(stdout, "t={t:>7.1}s migrate {name}: node {from} -> node {to}")?;
                }
                writeln!(
                    stdout,
                    "final crossing bandwidth: {:.2} Mbps; worst edge goodput: {:.0}%",
                    outcome.r#final.crossing_mbps,
                    outcome.worst_goodput_fraction * 100.0
                )?;
                writeln!(stdout, "probe overhead: {} bytes", outcome.probe_bytes)?;
                if let (Some(n), Some(path)) = (outcome.journal_events, &args.journal) {
                    writeln!(stdout, "journal: {n} events -> {path}")?;
                }
                if let Some(path) = &args.metrics_out {
                    writeln!(stdout, "metrics exposition -> {path}")?;
                }
            }
            Ok(())
        }
        "campaign" => {
            let path = match args.specs.as_slice() {
                [path] => path,
                [] => return Err("--spec is required".into()),
                _ => return Err("campaign takes one --spec; use arena for a corpus".into()),
            };
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let spec = bass_scenario::ScenarioSpec::from_json(&text)
                .map_err(|e| format!("cannot parse {path}: {e}"))?;
            let opts = bass_scenario::CampaignOptions {
                jobs: args.jobs,
                profile: args.profile || args.metrics_out.is_some(),
                progress: args.progress,
                policy: bass_core::PolicyKind::Bass,
            };
            let journal = args.journal.as_deref().map(std::path::Path::new);
            let metrics_out = args.metrics_out.as_deref().map(std::path::Path::new);
            let run = bass_cli::campaign(&spec, args.seed, &opts, journal, metrics_out)
                .map_err(|e| e.to_string())?;
            let summary = &run.summary;
            // The profile section is spliced after the base summary so the
            // plain summary stays a byte-exact prefix (see docs/OBSERVABILITY.md).
            let json = match (&run.profiler, args.profile) {
                (Some(profiler), true) => summary.to_json_with_profile(&profiler.summary()),
                _ => summary.to_json(),
            };
            if let Some(out) = &args.out {
                std::fs::write(out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
            }
            if args.json || args.out.is_none() {
                writeln!(stdout, "{json}")?;
            } else {
                let a = &summary.aggregate;
                writeln!(
                    stdout,
                    "campaign '{}' seed {}: {} replicas, {} ticks total",
                    summary.scenario,
                    summary.seed,
                    summary.replicas.len(),
                    a.ticks
                )?;
                writeln!(
                    stdout,
                    "apps: {} admitted, {} rejected, {} retired; {} migrations ({} unplaceable); {} faults",
                    a.apps_admitted, a.apps_rejected, a.apps_retired, a.migrations,
                    a.unplaceable, a.faults_injected
                )?;
                writeln!(
                    stdout,
                    "goodput fraction: p50 {:.3}, p95 {:.3}, p99 {:.3}, mean {:.3} over {} samples",
                    a.goodput.p50, a.goodput.p95, a.goodput.p99, a.goodput.mean,
                    a.goodput.samples
                )?;
                writeln!(stdout, "summary written to {}", args.out.as_deref().unwrap_or("-"))?;
                if let Some(path) = &args.metrics_out {
                    writeln!(stdout, "metrics exposition -> {path}")?;
                }
            }
            Ok(())
        }
        "arena" => {
            if args.specs.is_empty() {
                return Err("--spec is required (repeat for a multi-scenario corpus)".into());
            }
            // Check every spec, by path, before the first replica runs.
            let mut corpus = Vec::with_capacity(args.specs.len());
            for path in &args.specs {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                let spec = bass_scenario::ScenarioSpec::from_json(&text)
                    .map_err(|e| format!("cannot parse {path}: {e}"))?;
                spec.validate().map_err(|e| format!("{path}: {e}"))?;
                corpus.push(spec);
            }
            let opts = bass_scenario::ArenaOptions {
                policies: args.arena_policies.clone(),
                jobs: args.jobs,
                progress: args.progress,
            };
            let metrics_out = args.metrics_out.as_deref().map(std::path::Path::new);
            let run = bass_cli::arena(&corpus, args.seed, &opts, metrics_out)
                .map_err(|e| e.to_string())?;
            if let Some(out) = &args.out {
                // The deterministic table only — wall-clock timing never
                // reaches the file, so bytes match at any --jobs.
                std::fs::write(out, run.table.to_json())
                    .map_err(|e| format!("cannot write {out}: {e}"))?;
            }
            if args.json {
                writeln!(stdout, "{}", run.table.to_json_with_timing(&run.timings))?;
            } else {
                write!(stdout, "{}", run.table.to_text(&run.timings))?;
                if let Some(out) = &args.out {
                    writeln!(stdout, "table written to {out}")?;
                }
                if let Some(path) = &args.metrics_out {
                    writeln!(stdout, "metrics exposition -> {path}")?;
                }
            }
            Ok(())
        }
        "metrics" => {
            let input = args.input.as_ref().ok_or("--in is required")?;
            let report = bass_cli::metrics_report(
                std::path::Path::new(input),
                args.diff.as_deref().map(std::path::Path::new),
                args.lint,
            )
            .map_err(|e| e.to_string())?;
            write!(stdout, "{report}")?;
            Ok(())
        }
        // `parse_args` refused any other command, and help returned above.
        _ => unreachable!("unknown command '{command}'"),
    }
}

fn main() -> ExitCode {
    let mut stdout = io::stdout();
    match run(&mut stdout).and_then(|()| stdout.flush().map_err(Failure::from)) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader is gone (`bassctl schema | head -c 1`): there is
        // no one left to tell, so end quietly.
        Err(Failure::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) => {
            eprintln!("bassctl: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(msg)) => {
            eprintln!("bassctl: {msg}");
            ExitCode::FAILURE
        }
    }
}
