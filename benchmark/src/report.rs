//! Summary statistics, the machine fingerprint, and the result file.

use serde::Serialize;
use std::collections::BTreeMap;
use std::process::Command;

/// Median and quartiles of one metric's repetitions.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Quartiles {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method), so the spread printed here is the one
/// the benchmark driver will see. With one sample all three coincide.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len();
    if m == 1 {
        return Quartiles {
            median: v[0],
            q1: v[0],
            q3: v[0],
            n: 1,
        };
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Quartiles {
        median: cut(2),
        q1: cut(1),
        q3: cut(3),
        n: m,
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// Where and with what the numbers were taken.
#[derive(Debug, Clone, Serialize)]
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD` (`unknown` outside a git checkout).
    pub git_commit: String,
    /// Workload seed.
    pub seed: u64,
    /// 1-minute load average when the run started.
    pub load_1m_start: f64,
    /// 1-minute load average when the run ended.
    pub load_1m_end: f64,
    /// True when either load average exceeded `nproc`: the box was
    /// busier than it has cores, so timings are suspect (flagged, not
    /// failed).
    pub load_exceeded_nproc: bool,
}

/// The current 1-minute load average (0 when unreadable).
pub fn load_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Fingerprint {
    /// Captures the fingerprint at the start of a run.
    pub fn capture(seed: u64) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".to_string());
        let load = load_1m();
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["-V"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            seed,
            load_1m_start: load,
            load_1m_end: load,
            load_exceeded_nproc: false,
        }
    }

    /// Records the closing load average and sets the flag.
    pub fn finish(&mut self) {
        self.load_1m_end = load_1m();
        self.load_exceeded_nproc = self.load_1m_start.max(self.load_1m_end) > self.nproc as f64;
    }
}

/// One end-to-end metric of one workload in the result file.
#[derive(Debug, Clone, Serialize)]
pub struct EndToEndResult {
    /// The reported value: `ticks_per_s` from each piece's fastest
    /// repetition, every other metric the median below.
    pub value: f64,
    /// Median of the per-repetition values.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Repetitions.
    pub n: usize,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Regression bound, as a share of the baseline median.
    pub bound: f64,
}

/// One per-layer metric of one workload in the result file.
#[derive(Debug, Clone, Serialize)]
pub struct PerLayerResult {
    /// Value from the single traced run.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything measured for one workload.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadResult {
    /// Why the workload exists.
    pub why: &'static str,
    /// Fixed ticks per repetition.
    pub ticks: u64,
    /// FNV-1a of the deterministic output all repetitions reproduced.
    pub output_fingerprint: String,
    /// End-to-end metrics, from untraced children only.
    pub end_to_end: BTreeMap<&'static str, EndToEndResult>,
    /// Per-layer metrics, from the one traced run (empty when skipped).
    pub per_layer: BTreeMap<&'static str, PerLayerResult>,
}

/// `<out>/results.json`.
#[derive(Debug, Clone, Serialize)]
pub struct Results {
    /// Machine and build fingerprint.
    pub fingerprint: Fingerprint,
    /// True for a `--smoke` run (1/20 of the ticks; numbers are not
    /// comparable with full runs).
    pub smoke: bool,
    /// Per-workload results, by workload name.
    pub workloads: BTreeMap<&'static str, WorkloadResult>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }
}
