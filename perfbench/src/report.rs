//! Metric catalogue, order statistics and the one-line JSON result.
//!
//! The catalogue is the single list of metric names and units the
//! benchmark prints; `BENCHMARK.json` at the repository root declares the
//! same names (a self-test compares the two).

use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("discovery_ms.p50", "ms"),
    ("discovery_ms.p90", "ms"),
    ("ns_per_report", "ns"),
    ("f1", "ratio"),
    ("ncr", "ratio"),
    ("uplink_bits_per_user", "bits"),
    ("downlink_bits_per_user", "bits"),
    ("wire_bytes_per_discovery", "bytes"),
    ("peak_rss_mb", "MiB"),
    ("completed_share", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`.  A metric
/// whose layer a workload does not use reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.items", "count"),
    ("datasets.stream_ns_per_item", "ns"),
    ("datasets.build_s", "s"),
    ("datasets.evolve_ms", "ms"),
    ("scheduler.users", "count"),
    ("scheduler.assign_ns_per_user", "ns"),
    ("estimator.calls", "count"),
    ("estimator.candidates_per_call", "count"),
    ("estimator.encode_ns_per_report", "ns"),
    ("estimator.level_self_ms", "ms"),
    ("fo.perturb_ns_per_report", "ns"),
    ("fo.aggregate_ns_per_report", "ns"),
    ("fo.span_ms", "ms"),
    ("fo.report_bits_per_report", "bits"),
    ("mechanisms.levels", "count"),
    ("mechanisms.pruned_share", "ratio"),
    ("mechanisms.warm_candidates", "count"),
    ("mechanisms.unattributed_ms", "ms"),
    ("session.rounds", "count"),
    ("session.round_ms.p50", "ms"),
    ("session.round_self_ms", "ms"),
    ("session.upload_spread_us.p90", "us"),
    ("server.pairs", "count"),
    ("server.aggregate_us", "us"),
    ("node.handshake_ms", "ms"),
    ("node.rank_wait_ms", "ms"),
    ("wire.uplink_bytes", "bytes"),
    ("wire.downlink_bytes", "bytes"),
    ("wire.frames", "count"),
    ("wire.downlink_per_logical", "ratio"),
    ("wire.decode_ns_per_byte", "ns"),
    ("wire.errors", "count"),
    ("epoch.ledger_ms", "ms"),
    ("epoch.enrolled_share", "ratio"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.resume_ms", "ms"),
    ("trace.discoveries", "count"),
    ("trace.discovery_ms.p50", "ms"),
    ("trace.untraced_discovery_ms.p50", "ms"),
    ("trace.overhead", "ratio"),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 when
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The outcome of one benchmark run: correctness, the attempt/failure
/// counts and the metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness gate held.
    pub correct: bool,
    /// Discoveries (or epochs) attempted.
    pub attempted: u64,
    /// Of those, the ones that errored or timed out.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// The result line: one JSON object holding exactly the metrics of
    /// `catalogue`, in catalogue order.  A catalogue metric the run did not
    /// set reads 0.
    pub fn to_json(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
