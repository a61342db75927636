//! The five workloads, the metric tables, and `ladder gen`.
//!
//! Everything a workload feeds the program is a file under
//! `<inputs>/<workload>/`, written here from the seed and nothing else;
//! the program (and every other ladder subcommand) only ever reads
//! those files back. Tick counts are constants: a run never shrinks
//! its work to fit a time budget.

use bass_appdag::Manifest;
use bass_cli::{RestrictionSpec, TestbedSpec};
use bass_faults::StormProfile;
use bass_scenario::{ScenarioSpec, TopologySpec};
use bass_util::rng::SimRng;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Which entry point of the program a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `bassctl campaign --spec spec.json`.
    Campaign,
    /// `ladder run-one`: `bass_mesh::Mesh` only, in-process.
    MeshChurn,
    /// `bassctl simulate --json --journal --metrics-out`.
    Simulate,
}

/// One workload: a name, an entry point, and a fixed amount of work.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line, in file names, and in results.
    pub name: &'static str,
    /// Entry point driven.
    pub kind: Kind,
    /// Simulated ticks per repetition (summed over pieces and replicas).
    pub ticks: u64,
    /// Child processes one repetition is split into, each fed its own
    /// sub-seed. Pieces are short on purpose: a co-tenant slows this
    /// box by up to 1.7× in bursts of one to fifteen seconds, a run
    /// keeps each piece's fastest repetition, and only a short piece
    /// has a fair chance of one undisturbed run. One generated city is
    /// also one draw from a wide distribution, so a repetition sums
    /// several.
    pub pieces: u32,
    /// Campaign replicas per piece (1 otherwise): more cities per child
    /// where a city is cheap.
    pub replicas: u32,
    /// Repetitions of every piece in one run of [`RUN_SECONDS`]. Fixed,
    /// so that a slower build is not measured on fewer draws; `bench`
    /// scales it with `--seconds`, never with how long a child took.
    pub reps: u32,
    /// Why the workload exists (one line; the README has the long form).
    pub why: &'static str,
}

/// `--smoke` divides every tick count by this.
pub const SMOKE_DIVISOR: u64 = 20;

/// The ladder, in the order runs are interleaved.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "city100-churn",
        kind: Kind::Campaign,
        ticks: 32_000,
        pieces: 16,
        replicas: 2,
        reps: 2,
        why: "100-node city under app churn: controller target scoring and goodput/demand accounting dominate",
    },
    Workload {
        name: "city200-storm",
        kind: Kind::Campaign,
        ticks: 750,
        pieces: 3,
        replicas: 1,
        reps: 2,
        why: "200-node city under a synthetic node-crash storm: apply_fault's route recomputation in Mesh::set_node_up dominates",
    },
    Workload {
        name: "city500-quiet",
        kind: Kind::Campaign,
        ticks: 25_000,
        pieces: 5,
        replicas: 1,
        reps: 2,
        why: "500-node quiescent city, no faults or migrations: mesh water-fill and netmon probing dominate",
    },
    Workload {
        name: "mesh1000-churn",
        kind: Kind::MeshChurn,
        ticks: 1_600,
        pieces: 1,
        replicas: 1,
        reps: 1,
        why: "1000-node mesh alone, every district dirtied and one flow replaced per tick: index rebuild and full refill dominate",
    },
    Workload {
        name: "testbed-journal",
        kind: Kind::Simulate,
        ticks: 1_500_000,
        pieces: 5,
        replicas: 1,
        reps: 2,
        why: "paper-scale 4-node testbed with the journal and metrics on: event serialisation and CLI output dominate",
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload '{name}' (expected one of {})",
            names.join(", ")
        )
    })
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: reported by every workload, from untraced
/// child processes only.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, mirrored in `BENCHMARK.json` (a test checks
/// the two agree).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ticks_per_s",
        unit: "ticks/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "goodput_mean",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "ops_ok_share",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.05,
    },
];

/// One per-layer metric: `(name, unit, better)`. The layer is the name's
/// first dotted segment and is a crate of the program.
pub type PerLayer = (&'static str, &'static str, Better);

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// The per-layer metrics, mirrored in `BENCHMARK.json`. A traced run
/// reports every one of them; a metric that does not apply to the
/// workload (or whose span the program no longer emits) reads 0.
pub const PER_LAYER: [PerLayer; 65] = [
    ("cli.overhead_s", "s", L),
    ("cli.output_bytes", "bytes", L),
    ("scenario.generate.busy_s", "s", L),
    ("scenario.build_mesh.busy_s", "s", L),
    ("scenario.build_cluster.busy_s", "s", L),
    ("scenario.workload_events", "count", H),
    ("trace.bundle.busy_s", "s", L),
    ("trace.bundle.samples", "count", H),
    ("emu.deploy.busy_s", "s", L),
    ("emu.step.calls", "count", H),
    ("emu.step.busy_s", "s", L),
    ("emu.step.p50_us", "us", L),
    ("emu.step.p99_us", "us", L),
    ("emu.step.max_us", "us", L),
    ("emu.step.unattributed_s", "s", L),
    ("emu.admit_app.calls", "count", H),
    ("emu.admit_app.busy_s", "s", L),
    ("emu.admit_app.failed", "count", L),
    ("emu.retire_app.calls", "count", H),
    ("emu.retire_app.busy_s", "s", L),
    ("emu.migrations", "count", L),
    ("emu.unplaceable", "count", L),
    ("emu.tick_faults.busy_s", "s", L),
    ("emu.tick_demand.busy_s", "s", L),
    ("emu.tick_goodput.busy_s", "s", L),
    ("emu.tick_controller.busy_s", "s", L),
    ("emu.tick_migrate.busy_s", "s", L),
    ("core.target_select.busy_s", "s", L),
    ("core.target_select.calls", "count", L),
    ("core.candidates.busy_s", "s", L),
    ("core.score_cache.busy_s", "s", L),
    ("core.rank_nodes.p50_us", "us", L),
    ("netmon.headroom_probe.busy_s", "s", L),
    ("netmon.headroom_probe.calls", "count", L),
    ("netmon.full_probe.busy_s", "s", L),
    ("netmon.full_probe.calls", "count", L),
    ("netmon.headroom_probe.p50_us", "us", L),
    ("netmon.full_probe.p50_us", "us", L),
    ("mesh.advance.calls", "count", H),
    ("mesh.advance.busy_s", "s", L),
    ("mesh.advance.p50_us", "us", L),
    ("mesh.advance.p99_us", "us", L),
    ("mesh.set_link_cap.busy_s", "s", L),
    ("mesh.flow_churn.calls", "count", H),
    ("mesh.flow_churn.busy_s", "s", L),
    ("mesh.advance_probe.p50_us", "us", L),
    ("mesh.node_flap_probe.p50_us", "us", L),
    ("mesh.water_fill.busy_s", "s", L),
    ("mesh.index_rebuild.busy_s", "s", L),
    ("mesh.index_rebuild.calls", "count", L),
    ("mesh.cap_diff.busy_s", "s", L),
    ("mesh.usage_views.busy_s", "s", L),
    ("mesh.queues.busy_s", "s", L),
    ("mesh.trace_refresh.busy_s", "s", L),
    ("mesh.kernel.fill.p50_us", "us", L),
    ("obs.journal.events", "count", H),
    ("obs.journal.bytes", "bytes", L),
    ("obs.journal.busy_s", "s", L),
    ("obs.trace_overhead_frac", "fraction", L),
    ("faults.injected", "count", H),
    ("ladder.run_s", "s", L),
    ("ladder.timed_loop_s", "s", L),
    ("ladder.probe_s", "s", L),
    ("ladder.spans", "count", L),
    ("ladder.untraced_wall_s", "s", L),
];

/// How long one driver run measures, seconds (nominally: the work is
/// fixed, so a run takes what [`Workload::reps`] repetitions take).
pub const RUN_SECONDS: u64 = 15;

/// `BENCHMARK.json`, rendered from the tables above (`ladder manifest`;
/// a test keeps the committed file equal to this).
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                e.name,
                e.unit,
                e.better.as_str(),
                e.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

// ----- generated inputs -----------------------------------------------------

/// `params.json` of every workload: what the ladder itself needs to
/// know about the generated inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// The `--seed` of each piece's child: the seed itself for a
    /// one-piece workload, sub-seeds forked from it otherwise.
    pub piece_seeds: Vec<u64>,
    /// Simulated ticks one repetition must execute, all pieces together.
    pub ticks: u64,
    /// Tick length, milliseconds.
    pub step_ms: u64,
    /// `mesh1000-churn` only: grid size and flow count.
    pub mesh: Option<MeshChurnParams>,
}

impl Params {
    /// `testbed-journal`: the `--duration` of one piece, seconds.
    pub fn piece_duration_s(&self) -> u64 {
        self.ticks * self.step_ms / 1000 / self.piece_seeds.len() as u64
    }
}

/// Shape of the `mesh1000-churn` stream (a grid cut into row-band
/// districts like `crates/bench`'s `scale` binary's, plus one flow
/// replacement per tick).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeshChurnParams {
    /// Grid width and height, nodes (`Topology::grid`, row-major ids).
    pub grid: (u32, u32),
    /// Nodes per district (flows never leave their district).
    pub district_nodes: usize,
    /// Flows kept alive.
    pub flows: usize,
    /// Per-flow demand classes, Mbps.
    pub demand_levels_mbps: Vec<f64>,
    /// Constant link capacity range, Mbps.
    pub link_mbps: (f64, f64),
    /// Per-tick cap range, Mbps.
    pub cap_mbps: (f64, f64),
}

/// The inputs directory of one workload.
pub fn workload_dir(inputs: &Path, name: &str) -> PathBuf {
    inputs.join(name)
}

/// Reads an input file as text, naming the path on failure.
pub fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads a workload's `params.json` back.
pub fn read_params(inputs: &Path, name: &str) -> Result<Params, String> {
    let path = workload_dir(inputs, name).join("params.json");
    serde_json::from_str(&read_text(&path)?).map_err(|e| format!("{}: {e}", path.display()))
}

/// The 100-node churn scenario: a pinned copy of
/// `examples/campaign_city.json` (the ladder reads no file outside its
/// own directory), split over replicas so one repetition averages over
/// many generated cities instead of timing a single one.
fn city_churn_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::small_reference();
    spec.name = "city-100".to_string();
    spec.topology = TopologySpec::RandomGeometric {
        nodes: 100,
        radius: 0.2,
    };
    spec.nodes.gateways = 4;
    spec.links.sample_interval_s = 60.0;
    spec.links.fade_rate_per_min = 0.2;
    spec.workload.arrival_rate_per_s = 0.02;
    spec.workload.mean_lifetime_s = 1200.0;
    spec.workload.max_concurrent = 30;
    spec.workload.initial_apps = 10;
    spec.faults = Some(StormProfile {
        link_flap_rate: 1.0 / 600.0,
        ..StormProfile::default()
    });
    spec.step_ms = 1000;
    spec.sample_every_ticks = 100;
    spec
}

/// The crash-storm scenario: the churn city's links and apps on 200
/// nodes, denser (≤60 live apps), with a node crashing every ≈15 s
/// (the storm generator serialises crashes: 10 s down, then a 5 s mean
/// wait). The rate is synthetic, 24× the 1/120 of ISSUE 11 and taken
/// from no observed mesh: it makes a fault the common case, ≈17 per
/// 250-tick city, so that the cost of one is measured many times. At
/// the issue's rate and 500 nodes a run sees about a dozen crashes of
/// 0.4–0.8 s each and its wall-clock is a small-number statistic.
fn city_storm_spec() -> ScenarioSpec {
    let mut spec = city_churn_spec();
    spec.name = "city-200-storm".to_string();
    spec.topology = TopologySpec::RandomGeometric {
        nodes: 200,
        radius: 0.158,
    };
    spec.workload.max_concurrent = 60;
    spec.workload.initial_apps = 30;
    spec.faults = Some(StormProfile {
        node_crash_rate: 0.2,
        crash_downtime_s: 10.0,
        link_flap_rate: 1.0 / 600.0,
        ..StormProfile::default()
    });
    spec
}

/// The quiescent scenario: `city500_spec` of `crates/bench`'s `scale`
/// binary (under-subscribed links, slow churn, no fault storm).
fn city_quiet_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::small_reference();
    spec.name = "city-500".to_string();
    spec.topology = TopologySpec::RandomGeometric {
        nodes: 500,
        radius: 0.12,
    };
    spec.nodes.gateways = 8;
    spec.links.mean_mbps_min = 40.0;
    spec.links.mean_mbps_max = 80.0;
    spec.links.relative_std_min = 0.02;
    spec.links.relative_std_max = 0.05;
    spec.links.sample_interval_s = 60.0;
    spec.links.fade_rate_per_min = 0.005;
    spec.workload.max_concurrent = 20;
    spec.workload.initial_apps = 8;
    spec.workload.arrival_rate_per_s = 0.002;
    spec.workload.mean_lifetime_s = 4000.0;
    spec.faults = None;
    spec.step_ms = 1000;
    spec.sample_every_ticks = 100;
    spec
}

fn campaign_spec(w: &Workload, ticks: u64) -> ScenarioSpec {
    let mut spec = match w.name {
        "city100-churn" => city_churn_spec(),
        "city200-storm" => city_storm_spec(),
        "city500-quiet" => city_quiet_spec(),
        other => unreachable!("{other} is not a campaign workload"),
    };
    spec.replicas = w.replicas;
    spec.horizon_ticks = ticks / u64::from(w.pieces * w.replicas);
    spec
}

/// The 4-node CityLab-style testbed of `bassctl schema` with seeded
/// egress restrictions: one every 300–900 s, capping a worker node at
/// 2, 5 or 8 Mbps for 60–240 s. The last 1000 s stay unrestricted so
/// the end-of-run goodput the CLI reports is not a coin flip on whether
/// a restriction happens to be active.
fn journal_testbed(seed: u64, duration_s: u64) -> TestbedSpec {
    let mut testbed = TestbedSpec::example();
    let workers: Vec<u32> = testbed
        .nodes
        .iter()
        .filter(|n| n.schedulable)
        .map(|n| n.id)
        .collect();
    let mut rng = SimRng::seed_from_u64(seed ^ 0x07E5_7BED);
    testbed.restrictions.clear();
    let mut t = 0u64;
    loop {
        t += 300 + rng.below(601);
        let until = t + 60 + rng.below(181);
        if until + 1000 > duration_s {
            break;
        }
        testbed.restrictions.push(RestrictionSpec {
            node: workers[rng.below(workers.len() as u64) as usize],
            mbps: [2.0, 5.0, 8.0][rng.below(3) as usize],
            from_s: t,
            until_s: until,
        });
        t = until;
    }
    testbed
}

fn pretty<T: Serialize>(value: &T) -> String {
    let mut s = serde_json::to_string_pretty(value).expect("inputs serialize");
    s.push('\n');
    s
}

/// Every input file of one seed, as `(path relative to the inputs
/// directory, contents)`. Pure: the same `(seed, smoke)` always returns
/// the same bytes.
pub fn generate(seed: u64, smoke: bool) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for w in &WORKLOADS {
        let ticks = if smoke {
            w.ticks / SMOKE_DIVISOR
        } else {
            w.ticks
        };
        let piece_seeds = if w.pieces == 1 {
            vec![seed]
        } else {
            let mut root = SimRng::seed_from_u64(seed);
            (0..w.pieces)
                .map(|k| root.fork(u64::from(k)).next_u64())
                .collect()
        };
        let mut params = Params {
            workload: w.name.to_string(),
            seed,
            piece_seeds,
            ticks,
            step_ms: 100,
            mesh: None,
        };
        match w.kind {
            Kind::Campaign => {
                let spec = campaign_spec(w, ticks);
                spec.validate().expect("ladder campaign specs are valid");
                params.step_ms = spec.step_ms;
                params.ticks = spec.horizon_ticks * u64::from(w.pieces * w.replicas);
                files.push((format!("{}/spec.json", w.name), pretty(&spec)));
            }
            Kind::MeshChurn => {
                params.mesh = Some(MeshChurnParams {
                    grid: (40, 25),
                    district_nodes: 100,
                    flows: 10_000,
                    demand_levels_mbps: vec![0.1, 0.15, 0.25],
                    link_mbps: (50.0, 150.0),
                    cap_mbps: (30.0, 120.0),
                });
            }
            Kind::Simulate => {
                params.ticks = ticks / u64::from(w.pieces) * u64::from(w.pieces);
                let duration_s = params.piece_duration_s();
                let manifest = Manifest::from_dag(&bass_appdag::catalog::camera_pipeline());
                files.push((format!("{}/app.json", w.name), pretty(&manifest)));
                files.push((
                    format!("{}/mesh.json", w.name),
                    pretty(&journal_testbed(seed, duration_s)),
                ));
            }
        }
        files.push((format!("{}/params.json", w.name), pretty(&params)));
    }
    files
}

/// `ladder gen`: writes [`generate`]'s files under `inputs`.
pub fn write_inputs(inputs: &Path, seed: u64, smoke: bool) -> Result<(), String> {
    for (rel, contents) in generate(seed, smoke) {
        let path = inputs.join(rel);
        let dir = path
            .parent()
            .expect("input files live in a workload directory");
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}
