//! End-to-end tests of the `bassctl` binary itself.

use std::process::Command;

fn bassctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bassctl"))
}

/// Runs `bassctl schema` and splits its output into the two example
/// files, written into a temp dir; returns their paths.
fn write_schema_files(dir: &std::path::Path) -> (std::path::PathBuf, std::path::PathBuf) {
    let out = bassctl().arg("schema").output().expect("bassctl runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut parts = text.split("--- example testbed (mesh.json) ---");
    let manifest_part = parts.next().expect("manifest section");
    let testbed_part = parts.next().expect("testbed section");
    let manifest_json = manifest_part
        .split("--- example application manifest (app.json) ---")
        .nth(1)
        .expect("manifest body");
    let app = dir.join("app.json");
    let mesh = dir.join("mesh.json");
    std::fs::write(&app, manifest_json.trim()).expect("write manifest");
    std::fs::write(&mesh, testbed_part.trim()).expect("write testbed");
    (app, mesh)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bassctl_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn schema_output_is_consumable_by_place() {
    let dir = temp_dir("place");
    let (app, mesh) = write_schema_files(&dir);
    let out = bassctl()
        .args(["place", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .args(["--policy", "bfs", "--json"])
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let parsed: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON outcome");
    assert_eq!(parsed["placement"].as_object().expect("placement map").len(), 5);
    assert!(parsed["crossing_mbps"].as_f64().expect("number") >= 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

/// `k3s-default`, the name `recommend` prints and `PlacementDecided`
/// journals, reads back like its alias `k3s`.
#[test]
fn place_accepts_the_displayed_k3s_default_name() {
    let dir = temp_dir("k3s_default");
    let (app, mesh) = write_schema_files(&dir);
    let place = |policy: &str| {
        let out = bassctl()
            .args(["place", "--manifest"])
            .arg(&app)
            .arg("--testbed")
            .arg(&mesh)
            .args(["--policy", policy])
            .output()
            .expect("bassctl runs");
        assert!(out.status.success(), "{policy}: {}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    assert_eq!(place("k3s-default"), place("k3s"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn order_prints_groups_for_each_policy() {
    let dir = temp_dir("order");
    let (app, _) = write_schema_files(&dir);
    for policy in ["bfs", "longest-path", "hybrid", "k3s"] {
        let out = bassctl()
            .args(["order", "--manifest"])
            .arg(&app)
            .args(["--policy", policy])
            .output()
            .expect("bassctl runs");
        assert!(out.status.success(), "{policy}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("group 1:"), "{policy}: {text}");
        assert!(text.contains("camera-stream"), "{policy}: {text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_reports_json_outcome() {
    let dir = temp_dir("simulate");
    let (app, mesh) = write_schema_files(&dir);
    let out = bassctl()
        .args(["simulate", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .args(["--duration", "60", "--json"])
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let parsed: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(parsed["worst_goodput_fraction"].as_f64().expect("number") > 0.0);
    assert!(parsed["probe_bytes"].as_u64().expect("number") > 0);
    // A raw identifier (`r#final`) names the key `final`.
    assert!(parsed["final"]["placement"].as_object().is_some(), "top-level `final`");
    assert!(!String::from_utf8_lossy(&out.stdout).contains('#'), "no key carries `r#`");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_journal_writes_parseable_events() {
    let dir = temp_dir("journal");
    let (app, mesh) = write_schema_files(&dir);
    let journal = dir.join("events.jsonl");
    let out = bassctl()
        .args(["simulate", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .args(["--duration", "60", "--json", "--journal"])
        .arg(&journal)
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let parsed: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let reported = parsed["journal_events"].as_u64().expect("journal_events");
    let text = std::fs::read_to_string(&journal).expect("journal file written");
    let events = bass_obs::parse_jsonl(&text).expect("journal parses back");
    assert_eq!(events.len() as u64, reported);
    // The run always narrates the startup probe, all five placements,
    // and each of the 600 ticks.
    let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
    assert!(count("probe_completed") >= 1);
    assert_eq!(count("placement_decided"), 5);
    assert_eq!(count("tick_completed"), 600);
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(target_os = "linux")]
#[test]
fn simulate_fails_when_the_journal_cannot_be_written() {
    let dir = temp_dir("journal_full");
    let (app, mesh) = write_schema_files(&dir);
    // /dev/full opens fine and fails every write with ENOSPC: the run
    // must not report events that never reached the file.
    let out = bassctl()
        .args(["simulate", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .args(["--duration", "600", "--json", "--journal", "/dev/full"])
        .output()
        .expect("bassctl runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "an unwritable journal must fail the run");
    assert!(stderr.contains("journal error"), "{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("journal_events"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_faults_crash_and_recover_end_to_end() {
    let dir = temp_dir("faults");
    let (app, mesh) = write_schema_files(&dir);

    // Find a node that actually hosts a component, so the crash displaces
    // real work instead of hitting an idle box.
    let out = bassctl()
        .args(["place", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .arg("--json")
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let placed: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let victim = placed["placement"]
        .as_object()
        .expect("placement map")
        .iter()
        .next()
        .expect("at least one placement")
        .1
        .as_u64()
        .expect("node id") as u32;

    let plan = bass_faults::FaultPlan::new().with_seed(7).node_crash(
        bass_mesh::NodeId(victim),
        bass_util::time::SimTime::from_secs_f64(30.0),
        bass_util::time::SimTime::from_secs_f64(90.0),
    );
    let plan_path = dir.join("plan.json");
    std::fs::write(&plan_path, serde_json::to_string(&plan).expect("serializable"))
        .expect("write plan");

    let journal = dir.join("events.jsonl");
    let out = bassctl()
        .args(["simulate", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .args(["--duration", "120", "--json", "--faults"])
        .arg(&plan_path)
        .arg("--journal")
        .arg(&journal)
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let parsed: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(parsed["worst_goodput_fraction"].as_f64().expect("number") > 0.0);

    let text = std::fs::read_to_string(&journal).expect("journal file written");
    let events = bass_obs::parse_jsonl(&text).expect("journal parses back");
    let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
    // Both halves of the fault fired and were narrated.
    assert_eq!(count("fault_injected"), 2);
    let faults: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            bass_obs::Event::FaultInjected { kind, target, detail, .. } => {
                Some((kind.clone(), target.clone(), detail.clone()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(faults[0].0, "node_crash");
    assert_eq!(faults[0].1, format!("node:{victim}"));
    assert!(faults[0].2.contains("evicted"), "crash hit a populated node: {}", faults[0].2);
    assert_eq!(faults[1].0, "node_recover");
    // The displaced component was eventually re-placed (policy
    // "fault-recovery" placements come on top of the initial five).
    assert!(count("placement_decided") >= 6, "got {}", count("placement_decided"));
    assert_eq!(count("tick_completed"), 1200);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_rejects_unreadable_fault_plan() {
    let dir = temp_dir("badfaults");
    let (app, mesh) = write_schema_files(&dir);
    let out = bassctl()
        .args(["simulate", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .args(["--faults", "/nonexistent/plan.json"])
        .output()
        .expect("bassctl runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("fault plan error"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes a shrunk small-reference scenario spec for fast campaigns.
fn write_campaign_spec(dir: &std::path::Path, horizon_ticks: u64) -> std::path::PathBuf {
    let mut spec = bass_scenario::ScenarioSpec::small_reference();
    spec.horizon_ticks = horizon_ticks;
    let path = dir.join("spec.json");
    std::fs::write(&path, spec.to_json()).expect("write spec");
    path
}

#[test]
fn campaign_metrics_exposition_is_lint_clean_with_tick_phase_spans() {
    let dir = temp_dir("metrics");
    let spec = write_campaign_spec(&dir, 120);
    let metrics = dir.join("m.prom");
    let out = bassctl()
        .args(["campaign", "--spec"])
        .arg(&spec)
        .args(["--jobs", "2", "--progress"])
        .arg("--metrics-out")
        .arg(&metrics)
        .arg("--out")
        .arg(dir.join("summary.json"))
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // `--progress` narrates on stderr without polluting stdout.
    assert!(String::from_utf8_lossy(&out.stderr).contains("replica"));

    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    // Campaign aggregate counters and per-phase span series are present:
    // at least six distinct tick phases, each with buckets+sum+count.
    assert!(text.contains("bass_campaign_ticks_total"));
    assert!(text.contains("bass_campaign_goodput_p95"));
    for phase in [
        "tick.faults",
        "tick.scenario",
        "tick.demand",
        "tick.controller",
        "tick.migrate",
        "tick.finalize",
    ] {
        let label = format!("span=\"{phase}\"");
        assert!(text.contains(&label), "missing span series for {phase}");
        assert!(
            text.contains(&format!("bass_span_duration_seconds_count{{{label}}}")),
            "missing histogram count for {phase}"
        );
    }

    // The committed lint (same one CI runs) accepts the file.
    let out = bassctl()
        .args(["metrics", "--in"])
        .arg(&metrics)
        .arg("--lint")
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains(": ok"));

    // Diffing an exposition against itself reports nothing.
    let out = bassctl()
        .args(["metrics", "--in"])
        .arg(&metrics)
        .arg("--diff")
        .arg(&metrics)
        .output()
        .expect("bassctl runs");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "no differences\n");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_observability_never_changes_summary_bytes() {
    let dir = temp_dir("campaign_bytes");
    let spec = write_campaign_spec(&dir, 80);
    let plain = dir.join("plain.json");
    let observed = dir.join("observed.json");
    let profiled = dir.join("profiled.json");

    let out = bassctl()
        .args(["campaign", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&plain)
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Metrics exposition + progress + parallelism: same summary bytes.
    let out = bassctl()
        .args(["campaign", "--spec"])
        .arg(&spec)
        .args(["--jobs", "3", "--progress=debug"])
        .arg("--metrics-out")
        .arg(dir.join("m.prom"))
        .arg("--out")
        .arg(&observed)
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let plain_bytes = std::fs::read(&plain).expect("plain summary");
    assert_eq!(plain_bytes, std::fs::read(&observed).expect("observed summary"));

    // `--profile` splices a profile section after the base summary,
    // which stays a byte-exact prefix.
    let out = bassctl()
        .args(["campaign", "--spec"])
        .arg(&spec)
        .arg("--profile")
        .arg("--out")
        .arg(&profiled)
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let profiled_text = std::fs::read_to_string(&profiled).expect("profiled summary");
    let plain_text = String::from_utf8(plain_bytes).expect("utf-8 summary");
    let base_prefix =
        plain_text.trim_end().strip_suffix('}').expect("closing brace").trim_end();
    assert!(profiled_text.starts_with(base_prefix));
    let parsed: serde_json::Value =
        serde_json::from_str(&profiled_text).expect("profiled summary parses");
    assert!(
        parsed["profile"]["spans"]["tick.finalize"]["count"].as_f64().expect("span count") > 0.0
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_metrics_out_writes_exposition_without_journal() {
    let dir = temp_dir("sim_metrics");
    let (app, mesh) = write_schema_files(&dir);
    let metrics = dir.join("m.prom");
    let out = bassctl()
        .args(["simulate", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .args(["--duration", "60", "--json", "--metrics-out"])
        .arg(&metrics)
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let parsed: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    // The counting journal behind --metrics-out is not a requested journal.
    assert!(parsed["journal_events"].is_null());
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert!(text.contains("# TYPE bass_span_duration_seconds histogram"));
    assert!(text.contains("span=\"tick.controller\""));
    // Journal event counters ride along (journal-kind counter names are
    // `obs.event.<kind>`, sanitized to underscores).
    assert!(text.contains("bass_obs_event_tick_completed_total 600"));

    // And it lints clean.
    let out = bassctl()
        .args(["metrics", "--in"])
        .arg(&metrics)
        .arg("--lint")
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

/// A run of more than 70 000 events, past the 65 536 a journal once
/// held in memory: `--metrics-out` alone (a counting journal) and with
/// `--journal` (a file journal) count the same events, neither reports
/// an eviction, and `journal_events` is the file's line count.
#[test]
fn simulate_counts_every_event_whatever_the_destination() {
    let dir = temp_dir("destinations");
    let (app, mesh) = write_schema_files(&dir);
    let journal = dir.join("ev.jsonl");
    let run = |metrics: &std::path::Path, journal: Option<&std::path::Path>| {
        let mut cmd = bassctl();
        cmd.args(["simulate", "--manifest"])
            .arg(&app)
            .arg("--testbed")
            .arg(&mesh)
            .args(["--duration", "7000", "--json", "--metrics-out"])
            .arg(metrics);
        if let Some(path) = journal {
            cmd.arg("--journal").arg(path);
        }
        let out = cmd.output().expect("bassctl runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let parsed: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
        let text = std::fs::read_to_string(metrics).expect("metrics written");
        let samples = bass_obs::prom::parse(&text).expect("exposition parses").samples;
        let journal: Vec<_> = samples.into_iter().filter(|s| s.name.starts_with("bass_obs_")).collect();
        // Per-kind event counters are the journal's only series: nothing
        // counts evictions.
        let others: Vec<&str> =
            journal.iter().map(|s| s.name.as_str()).filter(|n| !n.starts_with("bass_obs_event_")).collect();
        assert!(others.is_empty(), "journal series beyond the per-kind counts: {others:?}");
        let events: Vec<(String, f64)> = journal.into_iter().map(|s| (s.series, s.value)).collect();
        (parsed["journal_events"].as_u64(), events)
    };
    let (counted_events, counted) = run(&dir.join("counting.prom"), None);
    let (file_events, filed) = run(&dir.join("file.prom"), Some(&journal));
    assert_eq!(counted_events, None, "a counting journal is not a requested journal");
    assert_eq!(counted, filed);
    let total: f64 = counted.iter().map(|(_, v)| v).sum();
    assert!(total > 70_000.0, "{total} events: not past 65 536");
    let lines = std::fs::read_to_string(&journal).expect("journal written").lines().count() as u64;
    assert_eq!(file_events, Some(lines));
    assert_eq!(total, lines as f64);
    std::fs::remove_dir_all(&dir).ok();
}

/// The guard that the default path cannot silently stop skipping: a
/// plain `simulate` journals one `TickCompleted` per simulated tick but
/// runs `tick.finalize` only for the ticks it executed in full.
#[test]
fn default_simulate_executes_fewer_ticks_than_it_simulates() {
    let dir = temp_dir("default_skips");
    let (app, mesh) = write_schema_files(&dir);
    let journal = dir.join("ev.jsonl");
    let metrics = dir.join("m.prom");
    let out = bassctl()
        .args(["simulate", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .args(["--duration", "120", "--journal"])
        .arg(&journal)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let simulated = std::fs::read_to_string(&journal)
        .expect("journal written")
        .lines()
        .filter(|l| l.starts_with("{\"TickCompleted\""))
        .count() as u64;
    assert_eq!(simulated, 1200, "one TickCompleted per 100 ms tick");
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    let executed: u64 = text
        .lines()
        .find_map(|l| {
            l.strip_prefix("bass_span_duration_seconds_count{span=\"tick.finalize\"} ")
        })
        .expect("tick.finalize span count in the exposition")
        .trim()
        .parse()
        .expect("integer count");
    assert!(executed > 0 && executed < simulated, "executed {executed} of {simulated} ticks");
    std::fs::remove_dir_all(&dir).ok();
}

/// Neither the allocator, the step loop nor the scorer is selectable:
/// the flags that used to choose an engine, a shard count, a step mode
/// or the score-cache oracle are unknown to every subcommand, and the
/// run stops in the parser before any output file is created.
#[test]
fn removed_allocator_flags_fail_cleanly() {
    let dir = temp_dir("removed_flags");
    let sink = dir.join("must_not_exist");
    for (command, sink_flag) in
        [("simulate", "--journal"), ("campaign", "--out"), ("arena", "--out")]
    {
        // (The last three flags are spelled in two pieces so a repo-wide
        // search for the removed names stays empty.)
        for removed in [
            &["--engine", "delta"][..],
            &[concat!("--alloc", "-jobs"), "4"],
            &[concat!("--step", "-mode"), "event-driven"],
            &[concat!("--verify-score", "-cache")],
        ] {
            let out = bassctl()
                .arg(command)
                .arg(sink_flag)
                .arg(&sink)
                .args(removed)
                .output()
                .expect("runs");
            assert!(!out.status.success(), "{command} {removed:?} must fail");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let expected = format!("unknown flag '{}'", removed[0]);
            assert!(stderr.contains(&expected), "{command}: {stderr}");
            assert!(!stderr.contains("panicked"), "{command}: {stderr}");
            assert!(!sink.exists(), "{command} {removed:?} wrote an output file");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Each command takes only the flags it reads. A flag it would ignore
/// (`traces --out`, `order --journal`, `recommend --policy`, …) fails
/// the run in the parser, naming the flag and the command, before any
/// file is read or written: the working directory keeps exactly the
/// inputs it started with.
#[test]
fn flags_outside_the_command_fail_cleanly() {
    let dir = temp_dir("foreign_flags");
    write_schema_files(&dir);
    write_campaign_spec(&dir, 10);
    let inputs = |dir: &std::path::Path| {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        names.sort();
        names
    };
    let before = inputs(&dir);
    // (command, arguments, the first flag the command does not take)
    let rows: &[(&str, &[&str], &str)] = &[
        ("traces", &["--testbed", "mesh.json", "--out", "mydir"], "--out"),
        (
            "order",
            &["--manifest", "app.json", "--journal", "j.jsonl", "--faults", "missing.json"],
            "--journal",
        ),
        ("recommend", &["--testbed", "mesh.json", "--policy", "bfs"], "--policy"),
        ("place", &["--testbed", "mesh.json", "--journal", "j.jsonl"], "--journal"),
        ("simulate", &["--testbed", "mesh.json", "--out", "o.json"], "--out"),
        ("simulate", &["--testbed", "mesh.json", "--progress=debug"], "--progress=debug"),
        ("campaign", &["--spec", "spec.json", "--out", "o.json", "--policy", "bass"], "--policy"),
        ("campaign", &["--journal", "j.jsonl", "--no-migrations"], "--no-migrations"),
        ("arena", &["--spec", "spec.json", "--out", "o.json", "--journal", "j.jsonl"], "--journal"),
        ("arena", &["--spec", "spec.json", "--out", "o.json", "--profile"], "--profile"),
        ("metrics", &["--in", "app.json", "--metrics-out", "m.prom"], "--metrics-out"),
        ("schema", &["--json"], "--json"),
    ];
    for &(command, args, rejected) in rows {
        let out = bassctl().current_dir(&dir).arg(command).args(args).output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{command} {args:?} printed output");
        let named = format!("unknown flag '{rejected}' for {command}");
        assert!(stderr.contains(&named), "{command} {args:?}: {stderr}");
        assert_eq!(inputs(&dir), before, "{command} {args:?} wrote a file");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `<command> --help` (or `-h`) prints that command's flags and exits 0;
/// `help` lists every command with its flags.
#[test]
fn help_names_each_commands_flags() {
    let help = |args: &[&str]| {
        let out = bassctl().args(args).output().expect("runs");
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(out.stderr.is_empty(), "{args:?} wrote to stderr");
        String::from_utf8(out.stdout).expect("utf-8 output")
    };
    let arena = help(&["arena", "--help"]);
    assert_eq!(arena.lines().count(), 1, "{arena}");
    assert!(arena.starts_with("bassctl arena") && arena.contains("--spec --policy"), "{arena}");
    let simulate = help(&["simulate", "-h"]);
    assert!(simulate.contains("--no-migrations") && simulate.contains("--faults"), "{simulate}");
    assert!(!simulate.contains("--spec"), "{simulate}");
    let all = help(&["help"]);
    for command in
        ["order", "place", "simulate", "recommend", "traces", "campaign", "arena", "metrics", "schema"]
    {
        let listed = all.lines().any(|l| l.split_whitespace().nth(1) == Some(command));
        assert!(listed, "{command} missing: {all}");
    }
    assert!(all.contains(arena.trim_end()) && all.contains(simulate.trim_end()), "{all}");
}

#[test]
fn faults_plan_on_nonexistent_node_fails_cleanly() {
    let dir = temp_dir("ghost_node");
    let (app, mesh) = write_schema_files(&dir);
    let plan = bass_faults::FaultPlan::new().node_crash(
        bass_mesh::NodeId(99),
        bass_util::time::SimTime::from_secs_f64(5.0),
        bass_util::time::SimTime::from_secs_f64(30.0),
    );
    let plan_path = dir.join("plan.json");
    std::fs::write(&plan_path, serde_json::to_string(&plan).expect("serializable"))
        .expect("write plan");
    let out = bassctl()
        .args(["simulate", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .args(["--duration", "60", "--faults"])
        .arg(&plan_path)
        .output()
        .expect("bassctl runs");
    assert!(!out.status.success(), "crashing node 99 must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown node"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn malformed_campaign_spec_fails_cleanly() {
    let dir = temp_dir("bad_spec");
    // Truncated JSON and structurally-wrong JSON both reject cleanly.
    for (name, text) in [("truncated.json", "{\"name\": \"oops\""), ("wrong.json", "[1, 2, 3]")] {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write spec");
        let out = bassctl()
            .args(["campaign", "--spec"])
            .arg(&path)
            .output()
            .expect("bassctl runs");
        assert!(!out.status.success(), "{name} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cannot parse"), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
    // A horizon that fits in milliseconds but not in the microsecond
    // clock once panicked (in release: a short trace, then an endless run).
    let mut spec = bass_scenario::ScenarioSpec::small_reference();
    spec.horizon_ticks = u64::MAX / 1000;
    spec.step_ms = 1000;
    let path = dir.join("endless.json");
    std::fs::write(&path, spec.to_json()).expect("write spec");
    let out = bassctl().args(["campaign", "--spec"]).arg(&path).output().expect("bassctl runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("campaign error") && stderr.contains("horizon_ticks"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_rejects_a_second_spec() {
    // A second --spec was once dropped silently: exit 0, first spec only.
    let dir = temp_dir("two_specs");
    let path = write_campaign_spec(&dir, 10);
    let out = bassctl()
        .args(["campaign", "--spec"])
        .arg(&path)
        .arg("--spec")
        .arg(&path)
        .output()
        .expect("bassctl runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(out.stdout.is_empty(), "no summary may be printed");
    assert!(stderr.contains("one --spec") && stderr.contains("arena"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_inputs_fail_cleanly() {
    // No command: the message lists every command there is.
    let out = bassctl().output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing command"), "{stderr}");
    for command in
        ["order", "place", "simulate", "recommend", "traces", "campaign", "arena", "metrics", "schema"]
    {
        assert!(stderr.contains(command), "{command} missing from: {stderr}");
    }
    // Unknown command.
    let out = bassctl().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    // Missing manifest.
    let out = bassctl().args(["order"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--manifest is required"));
    // Unknown policy.
    let out = bassctl()
        .args(["order", "--manifest", "/nonexistent", "--policy", "magic"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown policy"));
}

/// A reader that closes its end early (`bassctl schema | head -c 1`)
/// ends the run quietly instead of panicking on the broken pipe.
#[test]
fn closed_stdout_ends_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = bassctl()
        .arg("schema")
        .stdout(writer)
        .stderr(std::process::Stdio::piped())
        .output()
        .expect("bassctl runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

#[test]
fn hostile_numbers_and_names_fail_cleanly() {
    let dir = temp_dir("hostile");
    let (app, mesh) = write_schema_files(&dir);
    let app_text = std::fs::read_to_string(&app).expect("manifest");
    let mesh_text = std::fs::read_to_string(&mesh).expect("testbed");
    // (case, edit the testbed?, valid text, hostile text, stderr must name)
    let rows = [
        ("traced link mbps -5", true, "\"mbps\": 19.9", "\"mbps\": -5", "link 1-2: mbps"),
        ("constant link mbps -5", true, "\"mbps\": 100", "\"mbps\": -5", "link 0-1: mbps"),
        ("link mbps 1e999", true, "\"mbps\": 19.9", "\"mbps\": 1e999", "number out of range `1e999`"),
        ("link mbps 1e308", true, "\"mbps\": 19.9", "\"mbps\": 1e308", "link 1-2: mbps"),
        ("restriction mbps -5", true, "\"mbps\": 25", "\"mbps\": -5", "restriction 0: mbps"),
        ("restriction mbps 1e308", true, "\"mbps\": 25", "\"mbps\": 1e308", "restriction 0: mbps"),
        ("restriction node 99", true, "\"node\": 2", "\"node\": 99", "restriction 0: node 99"),
        ("restriction until before from", true, "\"until_s\": 180", "\"until_s\": 10", "restriction 0: from_s 60"),
        ("restriction until past the clock", true, "\"until_s\": 180", "\"until_s\": 18446744073710", "restriction 0: until_s"),
        ("node cores past the millicore range", true, "\"cores\": 12", "\"cores\": 18446744073709552", "node 1: cores"),
        ("edge bandwidth -12", false, "\"bandwidth_mbps\": 12", "\"bandwidth_mbps\": -12", "bandwidth_mbps"),
        ("edge bandwidth 1e999", false, "\"bandwidth_mbps\": 12", "\"bandwidth_mbps\": 1e999", "number out of range `1e999`"),
        ("edge bandwidth 1e308", false, "\"bandwidth_mbps\": 12", "\"bandwidth_mbps\": 1e308", "bandwidth_mbps"),
        (
            "duplicate name",
            false,
            "\"components\": [",
            "\"components\": [{\"name\": \"label-listener\", \"cpu_millis\": 100, \"memory_mb\": 64},",
            "duplicate component name 'label-listener'",
        ),
    ];
    let simulate_for = |duration: &str, faults: Option<&std::path::Path>| {
        let mut cmd = bassctl();
        cmd.args(["simulate", "--manifest"])
            .arg(&app)
            .arg("--testbed")
            .arg(&mesh)
            .args(["--duration", duration]);
        if let Some(plan) = faults {
            cmd.arg("--faults").arg(plan);
        }
        cmd.output().expect("bassctl runs")
    };
    let simulate = |faults: Option<&std::path::Path>| simulate_for("10", faults);
    for (case, in_testbed, valid, hostile, names) in rows {
        let (path, text) = if in_testbed { (&mesh, &mesh_text) } else { (&app, &app_text) };
        assert!(text.contains(valid), "{case}: example file lost `{valid}`");
        std::fs::write(path, text.replacen(valid, hostile, 1)).expect("write hostile file");
        let out = simulate(None);
        std::fs::write(path, text).expect("restore valid file");
        assert!(!out.status.success(), "{case} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(names), "{case}: {stderr}");
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
    }
    // `--faults` plans are checked against the testbed at load, before
    // the first tick: (case, events, stderr must name).
    let crash = |t_s: u64, node: u32| format!("[{t_s}000000, {{\"NodeCrash\": {{\"node\": {node}}}}}]");
    let plan_rows = [
        ("probe loss p 7", "[5000000, {\"ProbeLossStart\": {\"p\": 7}}]".to_string(), "event 0: probe-loss probability 7"),
        ("probe loss p -1", "[5000000, {\"ProbeLossStart\": {\"p\": -1}}]".to_string(), "event 0: probe-loss probability -1"),
        ("events out of time order", format!("{}, {}", crash(6, 2), crash(5, 3)), "event 1: due before event 0"),
        ("crash of node 99", crash(5, 99), "event 0: unknown node n99"),
        ("link 0-3 down", "[5000000, {\"LinkDown\": {\"a\": 0, \"b\": 3}}]".to_string(), "event 0: no link between n0 and n3"),
    ];
    let plan_path = dir.join("plan.json");
    for (case, events, names) in plan_rows {
        let plan = format!("{{\"events\": [{events}], \"seed\": 0}}");
        std::fs::write(&plan_path, plan).expect("write plan");
        let out = simulate(Some(&plan_path));
        assert!(!out.status.success(), "{case} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("fault plan error") && stderr.contains(names), "{case}: {stderr}");
    }
    // `--duration 0` once reported "worst edge goodput: 0%" for a run
    // that simulated nothing; `u64::MAX` overflowed the microsecond clock
    // (a panic, or in release a 59 s trace and an endless run).
    let max = "18446744073709551615";
    for (command, duration) in [("simulate", "0"), ("simulate", max), ("traces", max), ("traces", "0")] {
        let mut cmd = bassctl();
        cmd.current_dir(&dir).arg(command);
        if command == "simulate" {
            cmd.arg("--manifest").arg(&app);
        }
        let out = cmd.arg("--testbed").arg(&mesh).args(["--duration", duration]).output().expect("bassctl runs");
        assert!(!out.status.success(), "{command} --duration {duration} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--duration must be at least 1 second"), "{command} --duration {duration}: {stderr}");
        assert!(!stderr.contains("panicked"), "{command} --duration {duration}: {stderr}");
        assert!(out.stdout.is_empty(), "{command} --duration {duration} printed output");
    }
    // Node ids are names, not sizes: renaming node 3 changes nothing,
    // however large the new id (views sized by the largest id once made
    // 3 000 000 000 a 24 GB allocation and an abort).
    let dense = simulate(None);
    assert!(dense.status.success(), "{}", String::from_utf8_lossy(&dense.stderr));
    for id in ["200000", "3000000000"] {
        let mut renamed = mesh_text.clone();
        for field in ["id", "a", "b"] {
            renamed = renamed.replace(&format!("\"{field}\": 3,"), &format!("\"{field}\": {id},"));
        }
        assert_ne!(renamed, mesh_text, "example testbed lost node 3");
        std::fs::write(&mesh, renamed).expect("write renamed testbed");
        let out = simulate(None);
        assert!(out.status.success(), "id {id}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.stdout, dense.stdout, "node id {id} changed the run");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn arena_runs_a_tournament_with_lint_clean_labelled_metrics() {
    let dir = temp_dir("arena");
    let spec = write_campaign_spec(&dir, 120);
    let table = dir.join("table.json");
    let metrics = dir.join("arena.prom");
    let out = bassctl()
        .args(["arena", "--spec"])
        .arg(&spec)
        .args(["--policy", "bass,random", "--policy", "spread", "--jobs", "2"])
        .arg("--out")
        .arg(&table)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The ranked text table with a wall-clock column on stdout.
    assert!(stdout.contains("rank"), "{stdout}");
    assert!(stdout.contains("ticks/s"), "{stdout}");
    for policy in ["bass", "random", "spread"] {
        assert!(stdout.contains(policy), "{policy} missing from table:\n{stdout}");
    }

    // The deterministic table JSON parses and ranks all three entrants.
    let text = std::fs::read_to_string(&table).expect("table written");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("table parses");
    assert_eq!(parsed["ranking"].as_array().expect("ranking").len(), 3);
    // Wall-clock timing must never reach the deterministic file.
    assert!(!text.contains("ticks_per_sec"), "timing leaked into --out bytes");

    // Per-policy labelled series, lint-clean under the committed lint.
    let prom = std::fs::read_to_string(&metrics).expect("metrics written");
    for policy in ["bass", "random", "spread"] {
        let label = format!("policy=\"{policy}\"");
        assert!(prom.contains(&label), "missing {label} in exposition");
    }
    let out = bassctl()
        .args(["metrics", "--in"])
        .arg(&metrics)
        .arg("--lint")
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn arena_checks_every_spec_before_running_any() {
    // A spec with no replicas after a good one once ran the good one's
    // whole campaign first, then failed without saying which file.
    let dir = temp_dir("arena_bad_spec");
    let good = write_campaign_spec(&dir, 120);
    let mut spec = bass_scenario::ScenarioSpec::small_reference();
    spec.replicas = 0;
    let bad = dir.join("bad.json");
    std::fs::write(&bad, spec.to_json()).expect("write spec");
    let out = bassctl()
        .args(["arena", "--spec"])
        .arg(&good)
        .arg("--spec")
        .arg(&bad)
        .arg("--progress")
        .output()
        .expect("bassctl runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "no table may be printed");
    assert!(!stderr.contains("[bass]"), "a replica ran before the check: {stderr}");
    assert!(stderr.contains(&*bad.to_string_lossy()), "bad path missing: {stderr}");
    assert!(stderr.contains("at least one replica"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn arena_rejects_unknown_policy_names_cleanly() {
    // The negative path: a bogus policy name fails with the registry
    // listing, before any spec is even loaded, and never panics.
    let out = bassctl()
        .args(["arena", "--spec", "/nonexistent/spec.json", "--policy", "first-fit"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown policy 'first-fit'"), "{stderr}");
    assert!(stderr.contains("network-aware-greedy"), "registry listing missing: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // And with no --spec at all, arena asks for one.
    let out = bassctl().args(["arena", "--policy", "bass"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--spec is required"));
}
