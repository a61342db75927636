//! Persistence for traces and trace bundles (JSON and CSV).

use crate::trace::{BandwidthTrace, TraceBundle};
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

/// Error loading or saving trace data.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file's contents could not be parsed.
    Parse(String),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::Parse(msg) => write!(f, "trace parse failed: {msg}"),
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Parse(_) => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<serde_json::Error> for TraceIoError {
    fn from(e: serde_json::Error) -> Self {
        TraceIoError::Parse(e.to_string())
    }
}

/// Saves a trace bundle as pretty-printed JSON.
///
/// # Errors
///
/// Returns an error if the file cannot be written.
pub fn save_bundle_json(bundle: &TraceBundle, path: impl AsRef<Path>) -> Result<(), TraceIoError> {
    let json = serde_json::to_string_pretty(bundle)?;
    fs::write(path, json)?;
    Ok(())
}

/// Loads a trace bundle from JSON.
///
/// # Errors
///
/// Returns an error if the file cannot be read or parsed.
pub fn load_bundle_json(path: impl AsRef<Path>) -> Result<TraceBundle, TraceIoError> {
    let data = fs::read_to_string(path)?;
    Ok(serde_json::from_str(&data)?)
}

/// Writes one trace as CSV (`time_s,mbps` rows) to any writer.
///
/// # Errors
///
/// Returns an error if writing fails.
pub fn write_trace_csv(
    trace: &BandwidthTrace,
    mut out: impl std::io::Write,
) -> Result<(), TraceIoError> {
    writeln!(out, "time_s,mbps")?;
    for &(t, b) in trace.samples() {
        writeln!(out, "{:.6},{:.6}", t.as_secs_f64(), b.as_mbps())?;
    }
    Ok(())
}

/// Parses a trace from `time_s,mbps` CSV text.
///
/// # Errors
///
/// Returns an error if any row is malformed or out of time order.
pub fn parse_trace_csv(name: &str, text: &str) -> Result<BandwidthTrace, TraceIoError> {
    use bass_util::time::SimTime;
    use bass_util::units::Bandwidth;

    let mut trace = BandwidthTrace::new(name);
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || (lineno == 0 && line.starts_with("time_s")) {
            continue;
        }
        let mut parts = line.split(',');
        let (Some(ts), Some(bw), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(TraceIoError::Parse(format!(
                "line {}: expected 'time_s,mbps'",
                lineno + 1
            )));
        };
        let t: f64 = ts
            .trim()
            .parse()
            .map_err(|e| TraceIoError::Parse(format!("line {}: bad time: {e}", lineno + 1)))?;
        let m: f64 = bw
            .trim()
            .parse()
            .map_err(|e| TraceIoError::Parse(format!("line {}: bad mbps: {e}", lineno + 1)))?;
        // `f64`'s parser takes `NaN` and `inf`: range-check both fields.
        if !t.is_finite() || t < 0.0 {
            return Err(TraceIoError::Parse(format!(
                "line {}: time must be finite and non-negative, got {t}",
                lineno + 1
            )));
        }
        if !m.is_finite() || m < 0.0 {
            return Err(TraceIoError::Parse(format!(
                "line {}: mbps must be finite and non-negative, got {m}",
                lineno + 1
            )));
        }
        let at = SimTime::from_secs_f64(t);
        if trace.end_time().is_some_and(|end| at < end) {
            return Err(TraceIoError::Parse(format!(
                "line {}: time goes backwards",
                lineno + 1
            )));
        }
        trace.push(at, Bandwidth::from_mbps(m));
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_util::time::SimTime;
    use bass_util::units::Bandwidth;

    fn sample_trace() -> BandwidthTrace {
        let mut t = BandwidthTrace::new("t");
        t.push(SimTime::ZERO, Bandwidth::from_mbps(10.0));
        t.push(SimTime::from_secs(5), Bandwidth::from_mbps(2.5));
        t
    }

    #[test]
    fn csv_roundtrip() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace_csv(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let back = parse_trace_csv("t", &text).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(parse_trace_csv("t", "time_s,mbps\nnot,a,row\n").is_err());
        assert!(parse_trace_csv("t", "abc,1.0\n").is_err());
        assert!(parse_trace_csv("t", "1.0,xyz\n").is_err());
        assert!(parse_trace_csv("t", "-1.0,5.0\n").is_err());
        assert!(parse_trace_csv("t", "5.0,1.0\n2.0,1.0\n").is_err());
        // Non-finite or negative numbers fail naming their line.
        for row in ["NaN,5", "1,NaN", "1,inf", "1,-5"] {
            match parse_trace_csv("t", &format!("time_s,mbps\n0,1\n{row}\n")) {
                Err(TraceIoError::Parse(msg)) => {
                    assert!(msg.starts_with("line 3:"), "{row}: {msg}")
                }
                other => panic!("{row}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn csv_skips_header_and_blank_lines() {
        let trace = parse_trace_csv("t", "time_s,mbps\n\n0.0,1.0\n\n1.0,2.0\n").unwrap();
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn json_bundle_roundtrip() {
        let mut bundle = TraceBundle::new();
        bundle.insert("k", sample_trace());
        let dir = std::env::temp_dir().join("bass_trace_io_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.json");
        save_bundle_json(&bundle, &path).unwrap();
        let back = load_bundle_json(&path).unwrap();
        assert_eq!(back, bundle);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        let err = load_bundle_json("/nonexistent/definitely/missing.json").unwrap_err();
        assert!(err.to_string().contains("i/o failed"));
        assert!(err.source().is_some());
    }

    #[test]
    fn parse_error_display() {
        let err = parse_trace_csv("t", "zzz").unwrap_err();
        assert!(err.to_string().contains("parse failed"));
    }
}
