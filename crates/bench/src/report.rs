//! Experiment reports: the rows and series each paper artifact plots.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One labelled row of an experiment's result table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Row label (e.g. `"BFS, with variation"`).
    pub label: String,
    /// `(column name, value)` pairs in display order.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>) -> Self {
        Row {
            label: label.into(),
            values: Vec::new(),
        }
    }

    /// Appends a `(column, value)` pair.
    pub fn with(mut self, column: impl Into<String>, value: f64) -> Self {
        self.values.push((column.into(), value));
        self
    }

    /// Looks up a column's value.
    pub fn value(&self, column: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(c, _)| c == column)
            .map(|&(_, v)| v)
    }
}

/// A complete experiment result: identification, the paper's claim, the
/// measured rows, and optional `(x, y)` series for timeline/CDF plots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Artifact id (e.g. `"fig11"`, `"tab2"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// What the paper reports for this artifact (the shape to match).
    pub paper_claim: String,
    /// Result rows.
    pub rows: Vec<Row>,
    /// Named point series (timelines, CDFs), kept small by downsampling.
    pub series: Vec<(String, Vec<(f64, f64)>)>,
    /// Free-form notes (calibration caveats, event logs).
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        paper_claim: impl Into<String>,
    ) -> Self {
        ExperimentReport {
            id: id.into(),
            title: title.into(),
            paper_claim: paper_claim.into(),
            rows: Vec::new(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub(crate) fn push_row(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Appends a series, downsampled to at most `max_points` points.
    pub(crate) fn push_series(
        &mut self,
        name: impl Into<String>,
        points: &[(f64, f64)],
        max_points: usize,
    ) {
        let stride = (points.len() / max_points.max(1)).max(1);
        let sampled: Vec<(f64, f64)> = points.iter().step_by(stride).copied().collect();
        self.series.push((name.into(), sampled));
    }

    /// Appends a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Finds a row by label.
    pub fn row(&self, label: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.label == label)
    }
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id.to_uppercase(), self.title)?;
        writeln!(f, "paper: {}", self.paper_claim)?;
        // Collect the union of columns in first-seen order.
        let mut columns: Vec<&str> = Vec::new();
        for row in &self.rows {
            for (c, _) in &row.values {
                if !columns.contains(&c.as_str()) {
                    columns.push(c);
                }
            }
        }
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(5)
            .max(5);
        write!(f, "{:label_w$}", "row")?;
        for c in &columns {
            write!(f, " | {c:>14}")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "{:label_w$}", row.label)?;
            for c in &columns {
                match row.value(c) {
                    Some(v) => write!(f, " | {v:>14.3}")?,
                    None => write!(f, " | {:>14}", "-")?,
                }
            }
            writeln!(f)?;
        }
        for (name, points) in &self.series {
            writeln!(f, "series '{name}': {} points", points.len())?;
        }
        for note in &self.notes {
            writeln!(f, "note: {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_lookup() {
        let row = Row::new("bfs").with("latency_ms", 410.0).with("p99", 900.0);
        assert_eq!(row.value("latency_ms"), Some(410.0));
        assert_eq!(row.value("nope"), None);
    }

    #[test]
    fn report_display_includes_everything() {
        let mut rep = ExperimentReport::new("fig10", "camera latency", "BFS 410 < LP 428 < k3s 433");
        rep.push_row(Row::new("bfs").with("mean_ms", 410.0));
        rep.push_row(Row::new("k3s").with("mean_ms", 433.0).with("extra", 1.0));
        rep.push_series("timeline", &[(0.0, 1.0), (1.0, 2.0)], 10);
        rep.note("calibrated");
        let s = rep.to_string();
        assert!(s.contains("FIG10"));
        assert!(s.contains("410.000"));
        assert!(s.contains("timeline"));
        assert!(s.contains("calibrated"));
        assert!(s.contains('-'), "missing cells print a dash");
    }

    #[test]
    fn series_downsampling() {
        let mut rep = ExperimentReport::new("x", "t", "c");
        let points: Vec<(f64, f64)> = (0..1000).map(|i| (i as f64, 0.0)).collect();
        rep.push_series("big", &points, 100);
        assert!(rep.series[0].1.len() <= 101);
    }

    #[test]
    fn json_roundtrip() {
        let mut rep = ExperimentReport::new("tab1", "migrations", "6→2, 1→1, 1→1");
        rep.push_row(Row::new("iteration 1").with("violating", 6.0).with("migrated", 2.0));
        let json = serde_json::to_string(&rep).unwrap();
        let back: ExperimentReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
    }
}
