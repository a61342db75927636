//! Keeps the harness itself from rotting: the committed seed-42 inputs
//! regenerate byte for byte, `BENCHMARK.json` agrees with the tables in
//! the code, a `--smoke` pass of the two cheapest workloads runs clean
//! with every check on, and the driver entry prints a result line the
//! driver can parse.
//!
//! Run with `cargo test --release` from `benchmark/` (a debug build
//! works but multiplies the smoke pass's run time).

use std::path::{Path, PathBuf};
use std::process::Command;

const LADDER: &str = env!("CARGO_BIN_EXE_ladder");

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            out.extend(files_under(&path));
        } else {
            out.push(path);
        }
    }
    out.sort();
    out
}

#[test]
fn seed_42_inputs_regenerate_byte_for_byte() {
    let fresh = scratch("regen");
    let status = Command::new(LADDER)
        .args(["gen", "--seed", "42", "--out"])
        .arg(&fresh)
        .status()
        .expect("ladder gen runs");
    assert!(status.success());
    let committed = package_dir().join("workloads");
    let relative = |root: &Path| -> Vec<PathBuf> {
        files_under(root)
            .iter()
            .map(|p| p.strip_prefix(root).unwrap().to_path_buf())
            .collect()
    };
    assert_eq!(
        relative(&fresh),
        relative(&committed),
        "same set of input files"
    );
    for rel in relative(&fresh) {
        assert_eq!(
            std::fs::read(fresh.join(&rel)).unwrap(),
            std::fs::read(committed.join(&rel)).unwrap(),
            "{} differs from the committed seed-42 input",
            rel.display()
        );
    }
    // A different seed must change what the program is fed.
    let other = scratch("regen-7");
    assert!(Command::new(LADDER)
        .args(["gen", "--seed", "7", "--out"])
        .arg(&other)
        .status()
        .unwrap()
        .success());
    let mesh = Path::new("testbed-journal").join("mesh.json");
    assert_ne!(
        std::fs::read(other.join(&mesh)).unwrap(),
        std::fs::read(committed.join(&mesh)).unwrap()
    );
}

#[test]
fn benchmark_json_matches_the_tables() {
    let printed = Command::new(LADDER)
        .arg("manifest")
        .output()
        .expect("ladder manifest runs");
    assert!(printed.status.success());
    let committed =
        std::fs::read(package_dir().join("..").join("BENCHMARK.json")).expect("BENCHMARK.json");
    assert_eq!(
        String::from_utf8_lossy(&printed.stdout),
        String::from_utf8_lossy(&committed)
    );
}

/// Builds `bassctl` beside the `ladder` under test (same target
/// directory and profile), as `benchmark/run.sh` does.
fn build_bassctl() {
    let profile_dir = Path::new(LADDER)
        .parent()
        .expect("ladder lives in a profile directory");
    let target_dir = profile_dir
        .parent()
        .expect("profile directory lives in a target directory");
    let mut cmd = Command::new(env!("CARGO"));
    cmd.args(["build", "--offline", "-p", "bass-cli", "--manifest-path"])
        .arg(package_dir().join("..").join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir);
    if profile_dir.ends_with("release") {
        cmd.arg("--release");
    }
    assert!(
        cmd.status().expect("cargo runs").success(),
        "bassctl builds"
    );
}

#[test]
fn smoke_pass_of_the_two_cheapest_workloads_runs_clean() {
    build_bassctl();
    let out = scratch("smoke");
    let run = Command::new(LADDER)
        .args([
            "all",
            "--smoke",
            "--only",
            "city100-churn,testbed-journal",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("ladder all runs");
    assert!(
        run.status.success(),
        "smoke failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let results: serde_json::Value =
        serde_json::from_slice(&std::fs::read(out.join("results.json")).unwrap())
            .expect("results.json parses");
    assert_eq!(results["smoke"].as_bool(), Some(true));
    for workload in ["city100-churn", "testbed-journal"] {
        let w = &results["workloads"][workload];
        for metric in [
            "ticks_per_s",
            "setup_s",
            "peak_rss_mb",
            "goodput_mean",
            "ops_ok_share",
        ] {
            let median = w["end_to_end"][metric]["median"].as_f64();
            assert!(
                median.is_some_and(|m| m > 0.0),
                "{workload}/{metric} = {median:?}"
            );
        }
        assert!(w["per_layer"]["obs.trace_overhead_frac"]["value"]
            .as_f64()
            .is_some());
        assert!(out.join(format!("trace-{workload}.json")).is_file());
    }
}

/// The last line of `ladder bench`'s stdout, parsed.
fn bench_line(out: &Path, trace: &str) -> serde_json::Value {
    let run = Command::new(LADDER)
        .args(["bench", "--smoke", "--workload", "testbed-journal"])
        .args(["--seed", "7", "--seconds", "1", "--trace", trace, "--out"])
        .arg(out)
        .output()
        .expect("ladder bench runs");
    assert!(
        run.status.success(),
        "bench --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last = stdout.lines().last().expect("bench prints a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

#[test]
fn bench_prints_the_result_line_the_driver_reads() {
    build_bassctl();
    let manifest: serde_json::Value =
        serde_json::from_slice(&std::fs::read(package_dir().join("../BENCHMARK.json")).unwrap())
            .expect("BENCHMARK.json parses");
    let out = scratch("bench");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let line = bench_line(&out, trace);
        assert_eq!(line["correct"].as_bool(), Some(true));
        assert_eq!(line["failed"].as_u64(), Some(0));
        assert!(line["attempted"].as_u64().is_some_and(|n| n >= 1));
        let declared = manifest[section].as_array().expect("metric list");
        let reported = line["metrics"].as_object().expect("metrics object");
        assert_eq!(reported.len(), declared.len(), "--trace {trace}");
        for metric in declared {
            let name = metric["name"].as_str().unwrap();
            let m = &line["metrics"][name];
            assert!(m["value"].as_f64().is_some(), "{name} has no value");
            assert_eq!(m["unit"].as_str(), metric["unit"].as_str(), "{name}");
        }
    }
}

#[test]
fn a_mistyped_flag_is_an_error_not_a_default() {
    let run = Command::new(LADDER)
        .args(["bench", "--workload", "testbed-journal", "--sed", "7"])
        .output()
        .expect("ladder runs");
    assert!(!run.status.success());
    assert!(String::from_utf8_lossy(&run.stderr).contains("--sed"));
}
