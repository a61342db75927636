//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--jobs N] [--out DIR] [--journal FILE] [id...]
//! ```
//!
//! With no ids, every experiment runs in paper order. Each report is
//! printed to stdout and written as JSON under `--out` (default
//! `results/`). With `--journal FILE`, experiments that replay a full
//! control-loop scenario (currently `fig13`) append their structured
//! event stream to FILE as JSON lines — see `docs/OBSERVABILITY.md`.
//!
//! Experiments are independent (each owns its own seeded RNG), so by
//! default they run on `--jobs` worker threads (one per available core,
//! capped at the experiment count). Reports are buffered and emitted in
//! request order, so every deterministic output — stdout report blocks,
//! per-experiment JSON files, and the journal — is byte-identical to a
//! `--jobs 1` sequential run. (`tab3`/`tab4` report wall-clock latency
//! they measure on the host, which varies run to run at any job count.)

use bass_bench::experiments::{self, ALL_IDS};
use bass_bench::RunMode;
use bass_util::pool::ordered_map;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;

/// What one worker produced for one requested experiment id.
enum Outcome {
    /// The experiment ran; report plus wall-clock seconds.
    Done(bass_bench::ExperimentReport, f64),
    /// The id is not a known experiment.
    Unknown,
}

fn main() -> ExitCode {
    let mut mode = RunMode::Full;
    let mut out_dir = PathBuf::from("results");
    let mut journal_path: Option<PathBuf> = None;
    let mut jobs: Option<usize> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => mode = RunMode::Quick,
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--journal" => match args.next() {
                Some(path) => journal_path = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--journal requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => {
                    eprintln!("--jobs requires an integer >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--quick] [--jobs N] [--out DIR] [--journal FILE] [id...]"
                );
                println!("experiments: {}", ALL_IDS.join(" "));
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_owned()),
        }
    }
    if ids.is_empty() {
        ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    // `ordered_map` caps the workers at the experiment count.
    let jobs = jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    let journal = match &journal_path {
        Some(path) => match bass_obs::Journal::with_file(path) {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("cannot open journal {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    // Only `fig13` consumes the journal (`experiments::run` hands it back
    // untouched for every other id), so handing it to the worker that
    // draws the first `fig13` — and to no one else — appends exactly the
    // events a sequential run would.
    let journal_idx = ids.iter().position(|id| id == "fig13");
    let journal_slot = Mutex::new(journal);

    // Results come back in request order, so emission afterwards
    // matches a sequential run byte-for-byte.
    let results = ordered_map(jobs, ids.len(), |i| {
        let journal = if journal_idx == Some(i) {
            journal_slot.lock().expect("journal lock").take()
        } else {
            None
        };
        let started = std::time::Instant::now();
        match experiments::run(&ids[i], mode, journal) {
            Some((report, returned)) => {
                if let Some(j) = returned {
                    *journal_slot.lock().expect("journal lock") = Some(j);
                }
                Outcome::Done(report, started.elapsed().as_secs_f64())
            }
            None => Outcome::Unknown,
        }
    });

    let mut failed = false;
    for (id, outcome) in ids.iter().zip(results) {
        match outcome {
            Outcome::Done(report, secs) => {
                println!("{report}");
                println!("({id} completed in {secs:.1}s)\n");
                let path = out_dir.join(format!("{id}.json"));
                match serde_json::to_string_pretty(&report) {
                    Ok(json) => {
                        if let Err(e) = std::fs::write(&path, json) {
                            eprintln!("cannot write {}: {e}", path.display());
                            failed = true;
                        }
                    }
                    Err(e) => {
                        eprintln!("cannot serialize {id}: {e}");
                        failed = true;
                    }
                }
            }
            Outcome::Unknown => {
                eprintln!("unknown experiment '{id}' (known: {})", ALL_IDS.join(", "));
                failed = true;
            }
        }
    }
    let journal = journal_slot.into_inner().expect("journal lock");
    if let (Some(mut j), Some(path)) = (journal, &journal_path) {
        if let Err(e) = j.flush() {
            eprintln!("cannot flush journal {}: {e}", path.display());
            failed = true;
        } else {
            println!("journal: {} events -> {}", j.total_recorded(), path.display());
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
