//! Experiment harness regenerating every table and figure of the BASS
//! paper's evaluation (§6).
//!
//! Each submodule of [`experiments`] reproduces one artifact and returns
//! an [`report::ExperimentReport`] — the same rows/series the paper
//! plots. The `experiments` binary runs them all and writes JSON +
//! human-readable summaries, the wall-clock overhead tables (Tables 3
//! and 4) and the ablations included.
//!
//! Absolute numbers will not match the paper (its substrate was a
//! CloudLab testbed, ours is a simulator); the *shape* — which scheduler
//! wins, by roughly what factor, where the crossovers fall — is the
//! reproduction target. `EXPERIMENTS.md` records paper-vs-measured for
//! every artifact.

pub mod experiments;
pub mod report;

pub use report::{ExperimentReport, Row};

/// Run length control: `quick` shrinks durations ~5× for CI while
/// keeping every phase of each scenario intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Full durations (matching the paper's experiment lengths).
    Full,
    /// Shortened durations for CI and iteration.
    Quick,
}

impl RunMode {
    /// Scales a duration in seconds by the mode.
    pub fn secs(self, full: u64) -> u64 {
        match self {
            RunMode::Full => full,
            RunMode::Quick => (full / 5).max(30),
        }
    }
}
