//! Leveled live progress reporting for long campaign runs.
//!
//! A [`Progress`] reporter tracks completed work units (campaign
//! replicas) and prints `done/total · ticks/s · ETA` lines. Reports go
//! to **stderr only** and never into any deterministic output:
//! redirecting stdout captures byte-identical summaries whether
//! progress is on or off.
//!
//! The reporter is `Sync` — worker threads call
//! [`unit_done`](Progress::unit_done) concurrently; counters are
//! atomics and each call prints at most one line.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How much progress chatter to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ProgressLevel {
    /// No output at all (the default).
    #[default]
    Off,
    /// One line per completed work unit: count, rate, ETA.
    Info,
    /// Info plus per-unit detail (unit index and its tick count).
    Debug,
}

impl ProgressLevel {
    /// Parses `off` / `info` / `debug` (case-insensitive).
    pub fn parse(s: &str) -> Option<ProgressLevel> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(ProgressLevel::Off),
            "info" | "1" => Some(ProgressLevel::Info),
            "debug" | "2" => Some(ProgressLevel::Debug),
            _ => None,
        }
    }
}

/// Thread-safe progress reporter for a fixed number of work units.
#[derive(Debug)]
pub struct Progress {
    level: ProgressLevel,
    /// What one unit is called in output lines, e.g. `"replica"`.
    noun: &'static str,
    total_units: u64,
    started: Instant,
    units_done: AtomicU64,
    work_done: AtomicU64,
}

impl Progress {
    /// A reporter for `total_units` units named `noun` (plural formed
    /// by appending `s`). The clock starts now.
    pub fn new(level: ProgressLevel, noun: &'static str, total_units: u64) -> Self {
        Progress {
            level,
            noun,
            total_units,
            started: Instant::now(),
            units_done: AtomicU64::new(0),
            work_done: AtomicU64::new(0),
        }
    }

    /// True when any output will be produced.
    pub fn enabled(&self) -> bool {
        self.level > ProgressLevel::Off
    }

    /// Records one finished unit that performed `work` ticks, printing
    /// a progress line to stderr when the level allows. `unit_id`
    /// appears only at debug level.
    pub fn unit_done(&self, unit_id: u64, work: u64) {
        let done = self.units_done.fetch_add(1, Ordering::Relaxed) + 1;
        let work_total = self.work_done.fetch_add(work, Ordering::Relaxed) + work;
        if !self.enabled() {
            return;
        }
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let rate = work_total as f64 / elapsed;
        let remaining = self.total_units.saturating_sub(done);
        let eta_s = elapsed / done as f64 * remaining as f64;
        let mut line = format!(
            "[bass] {noun}s {done}/{total} \u{b7} {rate:.0} ticks/s \u{b7} ETA {eta_s:.1}s",
            noun = self.noun,
            total = self.total_units,
        );
        if self.level >= ProgressLevel::Debug {
            line.push_str(&format!(" \u{b7} {} {unit_id}: {work} ticks", self.noun));
        }
        eprintln!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(ProgressLevel::parse("off"), Some(ProgressLevel::Off));
        assert_eq!(ProgressLevel::parse("INFO"), Some(ProgressLevel::Info));
        assert_eq!(ProgressLevel::parse("debug"), Some(ProgressLevel::Debug));
        assert_eq!(ProgressLevel::parse("loud"), None);
        assert!(ProgressLevel::Off < ProgressLevel::Info);
        assert!(ProgressLevel::Info < ProgressLevel::Debug);
        assert_eq!(ProgressLevel::default(), ProgressLevel::Off);
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let progress = Progress::new(ProgressLevel::Off, "replica", 8);
        std::thread::scope(|scope| {
            for k in 0..8 {
                let p = &progress;
                scope.spawn(move || p.unit_done(k, 100));
            }
        });
        assert_eq!(progress.units_done.load(Ordering::Relaxed), 8);
        assert_eq!(progress.work_done.load(Ordering::Relaxed), 800);
        assert!(!progress.enabled());
    }

    #[test]
    fn info_level_reports() {
        let progress = Progress::new(ProgressLevel::Info, "replica", 2);
        assert!(progress.enabled());
        progress.unit_done(0, 10); // prints to stderr; nothing to assert beyond not panicking
        assert_eq!(progress.units_done.load(Ordering::Relaxed), 1);
    }
}
