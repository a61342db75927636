//! `ladder` — the fixed-work benchmark ladder of the BASS reproduction.
//!
//! ```text
//! ladder bench --workload W --seed N --seconds S --trace 0|1 [--out DIR] [--smoke]
//! ladder trace W [--seed N] [--out DIR]          (= bench --workload W --trace 1)
//! ladder all   [--seed N] [--out DIR] [--smoke] [--only W,W]
//! ladder aa    [--seed N] [--out DIR] [--only W,W]
//! ladder gen   [--seed N] --out DIR [--smoke]
//! ladder manifest                                 (prints BENCHMARK.json)
//! ladder run-one mesh1000-churn --inputs DIR      (child of the above)
//! ladder setup W --inputs DIR [--replica-seed X] [--smoke]   (child)
//! ```
//!
//! `bench` is what `BENCHMARK.json`'s command reaches through
//! `benchmark/run.sh`; `all` is the whole ladder in one go. See
//! `benchmark/README.md` for what each number means.
//!
//! Ground rule: production defaults only. Nothing here selects an
//! allocation engine, a step mode, a job count or a dirty-tracking
//! toggle; configuration structs are built from `Default`.

mod meshchurn;
mod proc;
mod report;
mod setup;
mod spans;
mod suite;
mod traced;
mod untraced;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use suite::SuiteOptions;

/// `--flag value` pairs, bare `--flag`s, and positional words.
struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

const BARE_FLAGS: [&str; 1] = ["--smoke"];

/// The flags each command understands; anything else is an error, so a
/// typo never runs silently on defaults.
fn known_flags(command: &str) -> &'static [&'static str] {
    match command {
        "bench" => &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--out",
            "--smoke",
        ],
        "trace" => &["--seed", "--out"],
        "all" => &["--seed", "--out", "--smoke", "--only"],
        "aa" => &["--seed", "--out", "--only"],
        "gen" => &["--seed", "--out", "--smoke"],
        "run-one" => &["--inputs"],
        "setup" => &["--inputs", "--replica-seed", "--smoke"],
        _ => &[],
    }
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        flags: BTreeMap::new(),
    };
    let mut argv = argv.peekable();
    while let Some(a) = argv.next() {
        if BARE_FLAGS.contains(&a.as_str()) {
            args.flags.insert(a, String::new());
        } else if a.starts_with("--") {
            let value = argv.next().ok_or_else(|| format!("{a} requires a value"))?;
            args.flags.insert(a, value);
        } else {
            args.positional.push(a);
        }
    }
    Ok(args)
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            Some(v) => v.parse().map_err(|_| format!("bad value '{v}' for {flag}")),
            None => Ok(default),
        }
    }

    fn path(&self, flag: &str, default: &str) -> PathBuf {
        PathBuf::from(self.flags.get(flag).map_or(default, String::as_str))
    }

    fn suite(&self, default_out: &str) -> Result<SuiteOptions, String> {
        let only = match self.flags.get("--only") {
            Some(list) => list
                .split(',')
                .map(workloads::find)
                .collect::<Result<_, _>>()?,
            None => Vec::new(),
        };
        Ok(SuiteOptions {
            seed: self.get("--seed", 42)?,
            out: self.path("--out", default_out),
            smoke: self.has("--smoke"),
            only,
            traced: true,
        })
    }
}

fn run() -> Result<(), String> {
    let mut argv = std::env::args().skip(1);
    let command = argv
        .next()
        .ok_or("missing command (bench|trace|all|aa|gen|manifest|run-one|setup)")?;
    let args = parse_args(argv)?;
    if let Some(flag) = args
        .flags
        .keys()
        .find(|f| !known_flags(&command).contains(&f.as_str()))
    {
        return Err(format!("{command} does not take {flag}"));
    }
    match command.as_str() {
        // `trace W` is `bench --workload W --trace 1`.
        "bench" | "trace" => {
            let workload = match (command.as_str(), args.positional.first()) {
                ("trace", Some(w)) => w.clone(),
                _ => args.get("--workload", String::new())?,
            };
            let trace: u8 = args.get("--trace", u8::from(command == "trace"))?;
            let seed: u64 = args.get("--seed", 42)?;
            let out = args
                .path("--out", "benchmark/out")
                .join(format!("bench-seed-{seed}"));
            suite::bench(
                &workload,
                seed,
                args.get("--seconds", workloads::RUN_SECONDS as f64)?,
                trace != 0,
                args.has("--smoke"),
                &out,
            )
        }
        "all" => {
            let results = suite::all(&args.suite("benchmark/out")?)?;
            suite::print_results(&results);
            Ok(())
        }
        "aa" => suite::aa(&args.suite("benchmark/out")?),
        "gen" => {
            if !args.has("--out") {
                return Err("gen requires --out DIR".to_string());
            }
            workloads::write_inputs(
                &args.path("--out", ""),
                args.get("--seed", 42)?,
                args.has("--smoke"),
            )
        }
        "manifest" => {
            print!("{}", workloads::manifest_json());
            Ok(())
        }
        "run-one" => {
            let name = args
                .positional
                .first()
                .ok_or("run-one requires a workload")?;
            let w = workloads::find(name)?;
            if w.kind != workloads::Kind::MeshChurn {
                return Err(format!("{name} is driven through bassctl, not run-one"));
            }
            let params =
                workloads::read_params(&args.path("--inputs", "benchmark/workloads"), w.name)?;
            let step = bass_util::time::SimDuration::from_millis(params.step_ms);
            let outcome = meshchurn::Churn::build(&params).run(params.ticks, step, None);
            println!("{}", meshchurn::outcome_json(&outcome));
            Ok(())
        }
        "setup" => {
            let name = args.positional.first().ok_or("setup requires a workload")?;
            let samples = setup::measure(
                workloads::find(name)?,
                &args.path("--inputs", "benchmark/workloads"),
                args.get("--replica-seed", 0)?,
                args.has("--smoke"),
            )?;
            println!(
                "{}",
                serde_json::to_string(&samples).expect("samples serialize")
            );
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ladder: {msg}");
            ExitCode::FAILURE
        }
    }
}
