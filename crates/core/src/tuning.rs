//! Automated migration-parameter tuning (paper §8, future work).
//!
//! §6.3.3 shows end-to-end latency depends on the (link-utilization
//! threshold, headroom) pair and on the traffic pattern, and the paper
//! leaves automated tuning to future work. This module implements a
//! simple deterministic coordinate-descent search over a discrete grid:
//! the caller supplies an objective (run the workload, return a latency
//! figure) and the tuner finds a locally optimal pair.

use serde::{Deserialize, Serialize};

/// The tunable pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TuningPoint {
    /// Link-utilization / goodput threshold (a fraction).
    pub threshold: f64,
    /// Headroom fraction.
    pub headroom: f64,
}

/// The discrete search grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningGrid {
    /// Candidate thresholds (the paper sweeps 0.25–0.95).
    pub thresholds: Vec<f64>,
    /// Candidate headroom fractions (the paper sweeps 10–30%).
    pub headrooms: Vec<f64>,
}

impl Default for TuningGrid {
    fn default() -> Self {
        TuningGrid {
            thresholds: vec![0.25, 0.50, 0.65, 0.75, 0.95],
            headrooms: vec![0.10, 0.20, 0.30],
        }
    }
}

/// Result of a tuning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningResult {
    /// The best point found.
    pub best: TuningPoint,
    /// Objective value at the best point.
    pub best_cost: f64,
    /// Every point evaluated, with its cost, in evaluation order.
    pub evaluated: Vec<(TuningPoint, f64)>,
}

/// Coordinate descent over the grid: starting from the grid's middle
/// cell, alternately improve the threshold (holding headroom) and the
/// headroom (holding threshold) until neither coordinate improves. The
/// objective is memoized, so each grid cell is evaluated at most once.
///
/// Lower cost is better (cost is typically a latency quantile).
///
/// # Panics
///
/// Panics if either grid axis is empty.
pub fn tune(grid: &TuningGrid, mut objective: impl FnMut(TuningPoint) -> f64) -> TuningResult {
    assert!(!grid.thresholds.is_empty(), "threshold grid is empty");
    assert!(!grid.headrooms.is_empty(), "headroom grid is empty");

    let mut evaluated: Vec<(TuningPoint, f64)> = Vec::new();
    let mut eval = |p: TuningPoint, evaluated: &mut Vec<(TuningPoint, f64)>| -> f64 {
        if let Some(&(_, c)) = evaluated
            .iter()
            .find(|(q, _)| q.threshold == p.threshold && q.headroom == p.headroom)
        {
            return c;
        }
        let c = objective(p);
        evaluated.push((p, c));
        c
    };

    let mut ti = grid.thresholds.len() / 2;
    let mut hi = grid.headrooms.len() / 2;
    let mut best = TuningPoint {
        threshold: grid.thresholds[ti],
        headroom: grid.headrooms[hi],
    };
    let mut best_cost = eval(best, &mut evaluated);

    loop {
        let mut improved = false;
        // Sweep thresholds at the current headroom.
        for (i, &t) in grid.thresholds.iter().enumerate() {
            let p = TuningPoint { threshold: t, headroom: grid.headrooms[hi] };
            let c = eval(p, &mut evaluated);
            if c < best_cost {
                best_cost = c;
                best = p;
                ti = i;
                improved = true;
            }
        }
        // Sweep headrooms at the current threshold.
        for (j, &h) in grid.headrooms.iter().enumerate() {
            let p = TuningPoint { threshold: grid.thresholds[ti], headroom: h };
            let c = eval(p, &mut evaluated);
            if c < best_cost {
                best_cost = c;
                best = p;
                hi = j;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }

    TuningResult { best, best_cost, evaluated }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_global_optimum_on_separable_objective() {
        // Convex bowl centred at (0.65, 0.20): coordinate descent finds it.
        let grid = TuningGrid::default();
        let result = tune(&grid, |p| {
            (p.threshold - 0.65).powi(2) + (p.headroom - 0.20).powi(2)
        });
        assert_eq!(result.best.threshold, 0.65);
        assert_eq!(result.best.headroom, 0.20);
        assert!(result.best_cost < 1e-12);
    }

    #[test]
    fn memoizes_evaluations() {
        let grid = TuningGrid::default();
        let mut calls = 0usize;
        let result = tune(&grid, |p| {
            calls += 1;
            p.threshold + p.headroom
        });
        // No point should be evaluated twice.
        assert_eq!(calls, result.evaluated.len());
        let max_cells = grid.thresholds.len() * grid.headrooms.len();
        assert!(calls <= max_cells);
        // Monotone objective → smallest grid corner wins.
        assert_eq!(result.best.threshold, 0.25);
        assert_eq!(result.best.headroom, 0.10);
    }

    #[test]
    fn single_cell_grid() {
        let grid = TuningGrid {
            thresholds: vec![0.5],
            headrooms: vec![0.2],
        };
        let result = tune(&grid, |_| 42.0);
        assert_eq!(result.best_cost, 42.0);
        assert_eq!(result.evaluated.len(), 1);
    }

    #[test]
    #[should_panic(expected = "grid is empty")]
    fn empty_grid_panics() {
        let grid = TuningGrid {
            thresholds: vec![],
            headrooms: vec![0.2],
        };
        let _ = tune(&grid, |_| 0.0);
    }

    #[test]
    fn deterministic() {
        let grid = TuningGrid::default();
        let f = |p: TuningPoint| (p.threshold * 7.3).sin() + (p.headroom * 3.1).cos();
        let a = tune(&grid, f);
        let b = tune(&grid, f);
        assert_eq!(a, b);
    }
}
