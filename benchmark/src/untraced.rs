//! One end-to-end sample: an untraced child process running a
//! workload's fixed work from its generated input files, measured from
//! outside, with its outputs parsed and checked.

use crate::proc::{run_child, ChildStats};
use crate::workloads::{read_params, workload_dir, Kind, Params, Workload};
use bass_scenario::CampaignSummary;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where the two programs under measurement live.
#[derive(Debug, Clone)]
pub struct Bins {
    /// `bassctl`, built from the repository at its defaults.
    pub bassctl: PathBuf,
    /// This binary (children: `run-one`, `setup`, `trace`).
    pub ladder: PathBuf,
}

impl Bins {
    /// `ladder` is the running executable; `bassctl` is expected beside
    /// it (both are built into the same target directory).
    pub fn locate() -> Result<Bins, String> {
        let ladder = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bassctl = ladder.with_file_name("bassctl");
        if !bassctl.is_file() {
            return Err(format!(
                "{} not found: build it first (benchmark/run.sh does)",
                bassctl.display()
            ));
        }
        Ok(Bins { bassctl, ladder })
    }
}

/// One campaign replica's counts: what the summary reports and what
/// the traced mirror must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaCounts {
    /// The seed the replica's scenario was generated from.
    pub seed: u64,
    /// Instances admitted.
    pub admitted: u64,
    /// Admissions rejected at run time.
    pub rejected: u64,
    /// Instances retired.
    pub retired: u64,
    /// Migrations applied.
    pub migrations: u64,
    /// Migrations wanted but unplaceable.
    pub unplaceable: u64,
    /// Faults injected.
    pub faults_injected: u64,
}

/// Counts the program reported, used for the failure share and for
/// cross-checking the traced mirror.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Ticks the program says it executed.
    pub ticks: u64,
    /// Operations attempted (admissions; migrations planned; mutation calls).
    pub ops_attempted: u64,
    /// Operations that failed (rejected admissions; relocations that
    /// could not be applied; `Err` returns).
    pub ops_failed: u64,
    /// Campaign: what each replica's summary reported.
    pub replicas: Vec<ReplicaCounts>,
    /// `testbed-journal`: events the CLI says it journaled.
    pub journal_events: u64,
}

/// One untraced repetition: every piece of the workload run once.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Kernel-side measurements of the children: wall-clock and CPU
    /// time summed over pieces, peak RSS the largest piece's.
    pub child: ChildStats,
    /// Each piece's wall-clock, seconds.
    pub piece_walls: Vec<f64>,
    /// Delivered ÷ required bandwidth as the entry point reports it
    /// (the mean over pieces).
    pub goodput_mean: f64,
    /// What the program reported.
    pub counts: Counts,
    /// The deterministic output every repetition must reproduce
    /// byte for byte.
    pub output: Vec<u8>,
    /// Bytes the child wrote (stdout plus its output files).
    pub output_bytes: u64,
}

impl Sample {
    /// 1 − failed ÷ attempted operations (1 when nothing was attempted).
    pub fn ops_ok_share(&self) -> f64 {
        if self.counts.ops_attempted == 0 {
            1.0
        } else {
            1.0 - self.counts.ops_failed as f64 / self.counts.ops_attempted as f64
        }
    }
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A short fingerprint of a deterministic output, for result files.
pub fn fingerprint(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(0xcbf2_9ce4_8422_2325, bytes))
}

/// Runs one untraced repetition of `w` in a child and checks its
/// outputs against the fixed work in `params.json`.
///
/// `journal` switches `testbed-journal`'s `--journal/--metrics-out`
/// pair; it is only ever `false` for the per-layer journal-cost re-run.
///
/// # Errors
///
/// Any failed child or failed check is an error: no numbers exist for
/// such a run.
pub fn run_untraced(
    w: &Workload,
    inputs: &Path,
    work: &Path,
    bins: &Bins,
    journal: bool,
) -> Result<Sample, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let params = read_params(inputs, w.name)?;
    let dir = workload_dir(inputs, w.name);
    let stdout = work.join("stdout.txt");
    let sample = match w.kind {
        Kind::Campaign => campaign(&params, &dir, work, &stdout, bins)?,
        Kind::MeshChurn => mesh_churn(&params, inputs, &stdout, bins)?,
        Kind::Simulate => simulate(&params, &dir, work, &stdout, bins, journal)?,
    };
    if sample.counts.ticks != params.ticks {
        return Err(format!(
            "{}: program executed {} ticks, the workload fixes {}",
            w.name, sample.counts.ticks, params.ticks
        ));
    }
    Ok(sample)
}

fn campaign(
    params: &Params,
    dir: &Path,
    work: &Path,
    stdout: &Path,
    bins: &Bins,
) -> Result<Sample, String> {
    let mut sample = Sample::default();
    for (k, seed) in params.piece_seeds.iter().enumerate() {
        let summary_path = work.join(format!("summary-{k}.json"));
        let mut cmd = Command::new(&bins.bassctl);
        cmd.arg("campaign")
            .arg("--spec")
            .arg(dir.join("spec.json"))
            .args(["--seed", &seed.to_string(), "--jobs", "1"])
            .arg("--out")
            .arg(&summary_path);
        let child = run_child(&mut cmd, stdout)?;
        let output = read(&summary_path)?;
        let summary: CampaignSummary = serde_json::from_slice(&output)
            .map_err(|e| format!("{}: {e}", summary_path.display()))?;
        let a = &summary.aggregate;
        sample.child.add_piece(&child);
        sample.piece_walls.push(child.wall_s);
        // Pieces run equal ticks at one sampling cadence, so the mean
        // of their means is the mean over all samples.
        sample.goodput_mean += a.goodput.mean / params.piece_seeds.len() as f64;
        sample.counts.ticks += a.ticks;
        sample.counts.ops_attempted += a.apps_admitted + a.apps_rejected;
        sample.counts.ops_failed += a.apps_rejected;
        sample
            .counts
            .replicas
            .extend(summary.replicas.iter().map(|r| ReplicaCounts {
                seed: r.seed,
                admitted: r.apps_admitted,
                rejected: r.apps_rejected,
                retired: r.apps_retired,
                migrations: r.migrations,
                unplaceable: r.unplaceable,
                faults_injected: r.faults_injected as u64,
            }));
        sample.output_bytes += output.len() as u64 + file_len(stdout);
        sample.output.extend_from_slice(&output);
    }
    Ok(sample)
}

fn mesh_churn(
    params: &Params,
    inputs: &Path,
    stdout: &Path,
    bins: &Bins,
) -> Result<Sample, String> {
    let mut cmd = Command::new(&bins.ladder);
    cmd.args(["run-one", &params.workload, "--inputs"])
        .arg(inputs);
    let child = run_child(&mut cmd, stdout)?;
    let output = read(stdout)?;
    let v: serde_json::Value =
        serde_json::from_slice(&output).map_err(|e| format!("{}: {e}", stdout.display()))?;
    let num = |key: &str| {
        v[key]
            .as_f64()
            .ok_or_else(|| format!("run-one output lacks '{key}'"))
    };
    let counts = Counts {
        ticks: num("ticks")? as u64,
        ops_attempted: num("mutations")? as u64,
        ops_failed: num("errors")? as u64,
        ..Counts::default()
    };
    Ok(Sample {
        piece_walls: vec![child.wall_s],
        child,
        goodput_mean: num("rate_sum_bps")? / num("demand_sum_bps")?,
        counts,
        output_bytes: output.len() as u64,
        output,
    })
}

fn simulate(
    params: &Params,
    dir: &Path,
    work: &Path,
    stdout: &Path,
    bins: &Bins,
    journal: bool,
) -> Result<Sample, String> {
    let journal_path = work.join("journal.jsonl");
    let metrics_path = work.join("metrics.prom");
    let mut sample = Sample::default();
    for seed in &params.piece_seeds {
        let mut cmd = Command::new(&bins.bassctl);
        cmd.arg("simulate")
            .arg("--manifest")
            .arg(dir.join("app.json"))
            .arg("--testbed")
            .arg(dir.join("mesh.json"))
            .args([
                "--duration",
                &params.piece_duration_s().to_string(),
                "--seed",
                &seed.to_string(),
                "--json",
            ]);
        if journal {
            cmd.arg("--journal")
                .arg(&journal_path)
                .arg("--metrics-out")
                .arg(&metrics_path);
        }
        let child = run_child(&mut cmd, stdout)?;
        let output = read(stdout)?;
        let v: serde_json::Value =
            serde_json::from_slice(&output).map_err(|e| format!("{}: {e}", stdout.display()))?;
        let goodput = v["worst_goodput_fraction"]
            .as_f64()
            .ok_or("simulate --json lacks worst_goodput_fraction")?;
        sample.child.add_piece(&child);
        sample.piece_walls.push(child.wall_s);
        sample.goodput_mean += goodput / params.piece_seeds.len() as f64;
        sample.output_bytes += output.len() as u64;
        sample.output.extend_from_slice(&output);
        if !journal {
            sample.counts.ticks += params.ticks / params.piece_seeds.len() as u64;
            continue;
        }
        let scan = scan_journal(&journal_path)?;
        let reported = v["journal_events"]
            .as_u64()
            .ok_or("simulate --json lacks journal_events")?;
        if scan.lines != reported {
            return Err(format!(
                "journal has {} lines but the CLI reported {reported} events",
                scan.lines
            ));
        }
        sample.counts.journal_events += reported;
        sample.counts.ticks += scan.ticks;
        sample.counts.ops_attempted += scan.migrations_planned;
        sample.counts.ops_failed += scan.relocations_failed;
        sample.output_bytes += scan.bytes + file_len(&metrics_path);
        // The journal is too large to keep per repetition; its running
        // hash joins the CLI's JSON in the compared output instead.
        sample
            .output
            .extend_from_slice(format!("journal fnv1a {:016x}\n", scan.hash).as_bytes());
        let _ = std::fs::remove_file(&journal_path);
    }
    Ok(sample)
}

/// The reason the emulator journals when a planned migration could not
/// be applied; a controller finding no feasible target is a decision
/// not to migrate, not a failed operation.
const RELOCATE_FAILED: &[u8] = b"relocate failed";

struct JournalScan {
    lines: u64,
    bytes: u64,
    ticks: u64,
    migrations_planned: u64,
    relocations_failed: u64,
    hash: u64,
}

/// One pass over the JSONL journal: line and byte counts, the three
/// event kinds the metrics need, and a running hash of every byte.
fn scan_journal(path: &Path) -> Result<JournalScan, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut reader = BufReader::with_capacity(1 << 20, file);
    let mut scan = JournalScan {
        lines: 0,
        bytes: 0,
        ticks: 0,
        migrations_planned: 0,
        relocations_failed: 0,
        hash: 0xcbf2_9ce4_8422_2325,
    };
    let mut line = Vec::new();
    loop {
        line.clear();
        let n = reader
            .read_until(b'\n', &mut line)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if n == 0 {
            break;
        }
        scan.lines += 1;
        scan.bytes += n as u64;
        scan.hash = fnv1a(scan.hash, &line);
        if line.starts_with(b"{\"TickCompleted\"") {
            scan.ticks += 1;
        } else if line.starts_with(b"{\"MigrationTargetChosen\"") {
            scan.migrations_planned += 1;
        } else if line.starts_with(b"{\"PlacementRejected\"")
            && line
                .windows(RELOCATE_FAILED.len())
                .any(|w| w == RELOCATE_FAILED)
        {
            scan.relocations_failed += 1;
        }
    }
    Ok(scan)
}
