//! Metric values, the result line, and the small statistics they need.

use corescope_harness::aggregate::percentile;
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value, full precision.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self { name: name.into(), value, unit }
    }
}

/// Nearest-rank percentile of unsorted samples (NaN when empty).
pub fn pct(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// Peak resident set size of this process, MB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, m.value, m.unit);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_valid_json_with_full_precision() {
        let line = result_line(3, 0, &[Metric::new("setup_s", 0.123456789, "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":\
             {\"setup_s\":{\"value\":0.123456789,\"unit\":\"s\"}}}"
        );
        corescope_sched::json::parse(&line).unwrap();
        assert_eq!(pct(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
