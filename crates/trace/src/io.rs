//! CSV export of traces, as `bassctl traces` writes them.

use crate::trace::BandwidthTrace;

/// Writes one trace as CSV (`time_s,mbps` rows) to any writer.
///
/// # Errors
///
/// Returns an error if writing fails.
pub fn write_trace_csv(
    trace: &BandwidthTrace,
    mut out: impl std::io::Write,
) -> std::io::Result<()> {
    writeln!(out, "time_s,mbps")?;
    for &(t, b) in trace.samples() {
        writeln!(out, "{:.6},{:.6}", t.as_secs_f64(), b.as_mbps())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_util::time::SimTime;
    use bass_util::units::Bandwidth;

    #[test]
    fn csv_bytes_are_a_header_and_one_row_per_sample() {
        let mut trace = BandwidthTrace::new("t");
        trace.push(SimTime::ZERO, Bandwidth::from_mbps(10.0));
        trace.push(SimTime::from_millis(1500), Bandwidth::from_mbps(2.5));
        trace.push(SimTime::from_secs(5), Bandwidth::from_kbps(125.0));
        let mut buf = Vec::new();
        write_trace_csv(&trace, &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "time_s,mbps\n0.000000,10.000000\n1.500000,2.500000\n5.000000,0.125000\n"
        );
    }
}
