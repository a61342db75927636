//! Prometheus text-format exposition: render, parse, lint, diff.
//!
//! The first slice of the ROADMAP's `bassctl serve` posture, without the
//! socket: [`render`] turns a [`Metrics`] registry and an optional
//! [`SpanProfiler`] into the Prometheus text format (`# HELP`/`# TYPE`
//! annotated, one sample per line), and [`parse`]/[`lint`]/[`diff`]
//! read it back for validation and regression comparison — `bassctl
//! metrics` is a thin wrapper over those three.
//!
//! Rendering conventions:
//!
//! - Metric names are the registry names sanitized to the Prometheus
//!   charset (`.` and other invalid characters become `_`), prefixed
//!   `bass_`; counters additionally get the `_total` suffix.
//! - Span aggregates render as one histogram family,
//!   `bass_span_duration_seconds`, with a `span` label per span name,
//!   plus `_min`/`_max` gauge families. Histogram `le` bounds are the
//!   [`span_histogram`](crate::profile::span_histogram) bucket upper
//!   bounds converted from log10-nanoseconds to seconds.

use crate::profile::SpanProfiler;
use crate::Metrics;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Sanitizes an internal metric name (`mesh.capacity.changes`) into the
/// Prometheus charset: lowercased, every character outside
/// `[a-z0-9_:]` replaced with `_`, and a leading underscore added if
/// the result would start with a digit.
fn sanitize_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        let c = c.to_ascii_lowercase();
        if c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Escapes a label value per the exposition format (`\`, `"`, newline).
fn escape_label(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders a metrics registry plus optional span aggregates as
/// Prometheus text exposition format.
///
/// Counters become `bass_<name>_total` counter families, gauges become
/// `bass_<name>` gauge families, and each profiled span contributes to
/// the `bass_span_duration_seconds` histogram family (labelled
/// `span="<name>"`) along with `_min`/`_max` gauges.
///
/// `labels` (`&[]` for none) attach to every sample: `&[("policy",
/// "bass")]` yields series such as `bass_campaign_goodput_p50{policy="bass"}`
/// and merges into span label blocks (`{span="...",policy="bass",le="..."}`).
/// Blocks rendered with different label values stay distinct series,
/// so concatenated per-policy expositions (what `bassctl arena
/// --metrics-out` writes) pass [`lint`] cleanly.
pub fn render(metrics: &Metrics, spans: Option<&SpanProfiler>, labels: &[(&str, &str)]) -> String {
    let extra: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label(v)))
        .collect();
    let block = if extra.is_empty() { String::new() } else { format!("{{{}}}", extra.join(",")) };
    let infix = if extra.is_empty() { String::new() } else { format!(",{}", extra.join(",")) };
    let mut out = String::new();
    for (name, value) in metrics.counters() {
        let prom = format!("bass_{}_total", sanitize_name(name));
        let _ = writeln!(out, "# HELP {prom} Counter {name} from the bass-obs registry.");
        let _ = writeln!(out, "# TYPE {prom} counter");
        let _ = writeln!(out, "{prom}{block} {value}");
    }
    for (name, value) in metrics.gauges() {
        let prom = format!("bass_{}", sanitize_name(name));
        let _ = writeln!(out, "# HELP {prom} Gauge {name} from the bass-obs registry.");
        let _ = writeln!(out, "# TYPE {prom} gauge");
        let _ = writeln!(out, "{prom}{block} {value}");
    }
    if let Some(profiler) = spans {
        if !profiler.is_empty() {
            render_spans(profiler, &infix, &mut out);
        }
    }
    out
}

fn render_spans(profiler: &SpanProfiler, infix: &str, out: &mut String) {
    const FAMILY: &str = "bass_span_duration_seconds";
    let _ = writeln!(
        out,
        "# HELP {FAMILY} Wall-clock duration of instrumented spans, by span name."
    );
    let _ = writeln!(out, "# TYPE {FAMILY} histogram");
    for (name, stats) in profiler.spans() {
        let label = escape_label(name);
        let mut cumulative = stats.hist.underflow();
        for i in 0..stats.hist.num_buckets() {
            cumulative += stats.hist.bucket_count(i);
            let (_, upper_log10_ns) = stats.hist.bucket_bounds(i);
            let le = 10f64.powf(upper_log10_ns) / 1e9;
            let _ = writeln!(
                out,
                "{FAMILY}_bucket{{span=\"{label}\"{infix},le=\"{le}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            out,
            "{FAMILY}_bucket{{span=\"{label}\"{infix},le=\"+Inf\"}} {}",
            stats.hist.total()
        );
        let _ = writeln!(
            out,
            "{FAMILY}_sum{{span=\"{label}\"{infix}}} {}",
            stats.total_ns as f64 / 1e9
        );
        let _ = writeln!(out, "{FAMILY}_count{{span=\"{label}\"{infix}}} {}", stats.count);
    }
    for (suffix, help, pick) in [
        (
            "min",
            "Shortest observed duration of each instrumented span.",
            (|s| if s.count == 0 { 0 } else { s.min_ns }) as fn(&crate::profile::SpanStats) -> u64,
        ),
        ("max", "Longest observed duration of each instrumented span.", |s| s.max_ns),
    ] {
        let family = format!("{FAMILY}_{suffix}");
        let _ = writeln!(out, "# HELP {family} {help}");
        let _ = writeln!(out, "# TYPE {family} gauge");
        for (name, stats) in profiler.spans() {
            let _ = writeln!(
                out,
                "{family}{{span=\"{}\"{infix}}} {}",
                escape_label(name),
                pick(stats) as f64 / 1e9
            );
        }
    }
}

/// A parsed exposition file: metadata plus samples in source order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    /// Family name → declared `# TYPE`.
    pub types: BTreeMap<String, String>,
    /// Family name → `# HELP` text.
    pub helps: BTreeMap<String, String>,
    /// Samples in source order: `(metric name, full series key
    /// including labels, value)`.
    pub samples: Vec<Sample>,
}

/// One sample line of an exposition file.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The metric name (no labels).
    pub name: String,
    /// The full series key: name plus label block, normalized as
    /// written.
    pub series: String,
    /// The sample value.
    pub value: f64,
}

impl Exposition {
    /// Series key → value, for diffing. Later duplicates win.
    pub fn series_map(&self) -> BTreeMap<&str, f64> {
        self.samples.iter().map(|s| (s.series.as_str(), s.value)).collect()
    }
}

/// Parses Prometheus text exposition format.
///
/// Accepts the subset [`render`] emits (plus blank lines): `# HELP`,
/// `# TYPE`, other comments, and `name[{labels}] value` samples.
/// Returns a message naming the first malformed line otherwise.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim_end();
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {lineno}: HELP without text"))?;
            exp.helps.insert(name.to_string(), help.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, ty) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {lineno}: TYPE without a type"))?;
            exp.types.insert(name.to_string(), ty.trim().to_string());
        } else if line.starts_with('#') {
            continue;
        } else {
            let (series, value) = split_sample(line)
                .ok_or_else(|| format!("line {lineno}: malformed sample: {line}"))?;
            let value: f64 = match value {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                "NaN" => f64::NAN,
                v => v
                    .parse()
                    .map_err(|_| format!("line {lineno}: bad sample value: {v}"))?,
            };
            let name = series.split('{').next().unwrap_or(series).to_string();
            exp.samples.push(Sample { name, series: series.to_string(), value });
        }
    }
    Ok(exp)
}

/// Splits `name{labels} value` / `name value` into series key and value
/// text, tolerating spaces inside quoted label values.
fn split_sample(line: &str) -> Option<(&str, &str)> {
    let split_at = match line.find('{') {
        Some(open) => {
            let mut in_quotes = false;
            let mut escaped = false;
            let mut close = None;
            for (i, c) in line[open..].char_indices() {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_quotes = !in_quotes;
                } else if c == '}' && !in_quotes {
                    close = Some(open + i);
                    break;
                }
            }
            close? + 1
        }
        None => line.find(' ')?,
    };
    let (series, rest) = line.split_at(split_at);
    let value = rest.trim();
    if series.is_empty() || value.is_empty() || value.contains(' ') {
        return None;
    }
    Some((series, value))
}

/// Returns true when `name` matches the Prometheus metric-name charset
/// `[a-z_:][a-z0-9_:]*` (the lint deliberately rejects uppercase).
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_lowercase() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == ':')
}

/// The family a sample belongs to: histogram samples report under
/// `_bucket`/`_sum`/`_count` suffixes of their declared family.
fn family_of<'a>(name: &'a str, types: &BTreeMap<String, String>) -> &'a str {
    if types.contains_key(name) {
        return name;
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).is_some_and(|t| t == "histogram") {
                return base;
            }
        }
    }
    name
}

/// Lints exposition text. Returns one finding per problem; an empty
/// vector means the file is clean.
///
/// Checks: the text parses; every metric name matches
/// `[a-z_:][a-z0-9_:]*`; every sample's family has `# HELP` and
/// `# TYPE` lines; no series (name + label set) appears twice.
pub fn lint(text: &str) -> Vec<String> {
    let exp = match parse(text) {
        Ok(exp) => exp,
        Err(e) => return vec![e],
    };
    let mut findings = Vec::new();
    let mut seen_series = BTreeSet::new();
    let mut flagged_names = BTreeSet::new();
    let mut flagged_families = BTreeSet::new();
    for sample in &exp.samples {
        if !valid_name(&sample.name) && flagged_names.insert(sample.name.clone()) {
            findings.push(format!("invalid metric name: {}", sample.name));
        }
        if !seen_series.insert(sample.series.clone()) {
            findings.push(format!("duplicate series: {}", sample.series));
        }
        let family = family_of(&sample.name, &exp.types);
        if flagged_families.insert(family.to_string()) {
            if !exp.types.contains_key(family) {
                findings.push(format!("missing # TYPE for {family}"));
            }
            if !exp.helps.contains_key(family) {
                findings.push(format!("missing # HELP for {family}"));
            }
        }
    }
    for (family, ty) in &exp.types {
        if !matches!(ty.as_str(), "counter" | "gauge" | "histogram" | "summary" | "untyped") {
            findings.push(format!("unknown type {ty} for {family}"));
        }
    }
    findings
}

/// Diffs two parsed expositions series by series. Returns one line per
/// difference (series only in one file, or value changed); an empty
/// vector means the files expose identical series and values.
pub fn diff(a: &Exposition, b: &Exposition) -> Vec<String> {
    let left = a.series_map();
    let right = b.series_map();
    let mut out = Vec::new();
    for (series, &va) in &left {
        match right.get(series) {
            None => out.push(format!("- {series} {va} (only in first)")),
            Some(&vb) if va != vb => {
                out.push(format!("~ {series} {va} -> {vb} (delta {})", vb - va));
            }
            Some(_) => {}
        }
    }
    for (series, &vb) in &right {
        if !left.contains_key(series) {
            out.push(format!("+ {series} {vb} (only in second)"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_metrics() -> Metrics {
        let mut m = Metrics::new();
        m.add("mesh.capacity.changes", 7);
        m.inc("probe.full");
        m.set_gauge("campaign.goodput.p50", 0.75);
        m
    }

    #[test]
    fn sanitize_maps_dots_and_digits() {
        assert_eq!(sanitize_name("mesh.capacity.changes"), "mesh_capacity_changes");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("UP-time"), "up_time");
    }

    #[test]
    fn render_is_lint_clean() {
        let mut prof = SpanProfiler::new();
        prof.record("tick.alloc", Duration::from_micros(40));
        prof.record("tick.alloc", Duration::from_millis(2));
        prof.record("tick.faults", Duration::from_nanos(900));
        let text = render(&sample_metrics(), Some(&prof), &[]);
        assert!(text.contains("bass_mesh_capacity_changes_total 7"));
        assert!(text.contains("bass_probe_full_total 1"));
        assert!(text.contains("bass_campaign_goodput_p50 0.75"));
        assert!(text.contains("bass_span_duration_seconds_count{span=\"tick.alloc\"} 2"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        let findings = lint(&text);
        assert!(findings.is_empty(), "lint findings: {findings:?}");
    }

    #[test]
    fn labelled_render_is_lint_clean_and_concatenable() {
        let mut prof = SpanProfiler::new();
        prof.record("tick.alloc", Duration::from_micros(40));
        let a = render(&sample_metrics(), Some(&prof), &[("policy", "bass")]);
        let b = render(&sample_metrics(), Some(&prof), &[("policy", "random")]);
        assert!(a.contains("bass_campaign_goodput_p50{policy=\"bass\"} 0.75"), "{a}");
        assert!(
            a.contains("bass_span_duration_seconds_count{span=\"tick.alloc\",policy=\"bass\"} 1"),
            "{a}"
        );
        // Two policies' blocks concatenate into one lint-clean file:
        // the label keeps every series distinct.
        let both = format!("{a}{b}");
        let findings = lint(&both);
        assert!(findings.is_empty(), "lint findings: {findings:?}");
    }

    #[test]
    fn render_without_spans_is_lint_clean() {
        let text = render(&sample_metrics(), None, &[]);
        assert!(!text.contains("bass_span_duration_seconds"));
        assert!(lint(&text).is_empty());
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut prof = SpanProfiler::new();
        prof.record("x", Duration::from_nanos(100));
        prof.record("x", Duration::from_micros(100));
        let text = render(&Metrics::new(), Some(&prof), &[]);
        let exp = parse(&text).unwrap();
        let buckets: Vec<f64> = exp
            .samples
            .iter()
            .filter(|s| s.name == "bass_span_duration_seconds_bucket")
            .map(|s| s.value)
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "non-monotonic: {buckets:?}");
        assert_eq!(*buckets.last().unwrap(), 2.0);
    }

    #[test]
    fn lint_flags_problems() {
        let text = "bad-name 1\n";
        let findings = lint(text);
        assert!(findings.iter().any(|f| f.contains("invalid metric name")), "{findings:?}");

        let text = "# HELP a_metric ok\n# TYPE a_metric counter\na_metric 1\na_metric 2\n";
        let findings = lint(text);
        assert!(findings.iter().any(|f| f.contains("duplicate series")), "{findings:?}");

        let text = "orphan_metric 3\n";
        let findings = lint(text);
        assert!(findings.iter().any(|f| f.contains("missing # TYPE")), "{findings:?}");
        assert!(findings.iter().any(|f| f.contains("missing # HELP")), "{findings:?}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("not a sample line at all { \n").is_err());
        assert!(parse("name twenty\n").is_err());
    }

    #[test]
    fn diff_reports_changes() {
        let a = parse("# HELP m x\n# TYPE m gauge\nm 1\nonly_a 2\n").unwrap();
        let b = parse("# HELP m x\n# TYPE m gauge\nm 3\nonly_b 4\n").unwrap();
        let d = diff(&a, &b);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().any(|l| l.contains("m 1 -> 3")));
        assert!(d.iter().any(|l| l.contains("only in first")));
        assert!(d.iter().any(|l| l.contains("only in second")));
        assert!(diff(&a, &a).is_empty());
    }

    #[test]
    fn parse_handles_labels_with_spaces_and_escapes() {
        let text = "m_bucket{span=\"a b\",le=\"+Inf\"} 3\n";
        let exp = parse(text).unwrap();
        assert_eq!(exp.samples.len(), 1);
        assert_eq!(exp.samples[0].name, "m_bucket");
        assert_eq!(exp.samples[0].value, 3.0);
    }
}
