//! Metric names and units, correctness bookkeeping, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run. The names, units and
/// order match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("partition_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("max_rate_jobs_s", "1/s"),
    ("d1_pct", "%"),
    ("icomp_pct", "%"),
    ("afs_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_pct", "%"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("def.parse_ms", "ms"),
    ("def.bytes", "bytes"),
    ("problem.build_ms", "ms"),
    ("engine.build_ms", "ms"),
    ("engine.iter_ms", "ms"),
    ("engine.bytes_per_iter", "bytes"),
    ("engine.gbps", "GB/s"),
    ("engine.roofline_frac", "frac"),
    ("mem.copy_gbps", "GB/s"),
    ("mem.triad_gbps", "GB/s"),
    ("solver.iterations", "count"),
    ("solver.restarts", "count"),
    ("solver.recoveries", "count"),
    ("solver.clipped", "count"),
    ("solver.descent_ms", "ms"),
    ("solver.iter_ms", "ms"),
    ("solver.self_ms", "ms"),
    ("solver.restart_overlap", "ratio"),
    ("refine.ms", "ms"),
    ("refine.moves", "count"),
    ("metrics.eval_ms", "ms"),
    ("recycle.plan_ms", "ms"),
    ("partition.glue_ms", "ms"),
    ("serviced.admit_rtt_p50_ms", "ms"),
    ("serviced.admit_rtt_p99_ms", "ms"),
    ("serviced.run_p50_ms", "ms"),
    ("serviced.run_p99_ms", "ms"),
    ("serviced.queue_wait_p50_us", "us"),
    ("serviced.queue_wait_p99_us", "us"),
    ("serviced.solve_p50_us", "us"),
    ("serviced.solve_p99_us", "us"),
    ("serviced.cache_hit_pct", "%"),
    ("serviced.queue_depth_hw", "count"),
    ("serviced.retries", "count"),
    ("serviced.panics", "count"),
    ("serviced.rejected", "count"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.partition_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.descent_refine_pct", "%"),
    ("trace.accounted_pct", "%"),
    ("host.steal_pct", "%"),
    ("host.spin_ms", "ms"),
    ("host.spin2_ms", "ms"),
    ("host.copy_gbps", "GB/s"),
];

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets a count.
    pub fn set_count(&mut self, name: &'static str, value: u64) {
        #[allow(clippy::cast_precision_loss)]
        self.values.insert(name, value as f64);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every metric set, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(&name, &value)| (name, value))
    }
}

/// Correctness bookkeeping: every operation and output check counts as
/// one attempt; each one that went wrong counts as failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// What failed (the first few are printed).
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one attempt; `Some(reason)` marks it failed.
    pub fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = failure {
            self.failed += 1;
            self.failures.push(reason);
        }
    }
}

/// Formats a value with all its digits (shortest round-trip form), as
/// JSON: non-finite values have no JSON spelling and print as 0.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}

/// The result object printed as the last line of standard output.
pub fn result_line(table: &[(&str, &str)], metrics: &Metrics, checks: &Checks) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    );
    for (index, (name, unit)) in table.iter().enumerate() {
        let value = metrics.get(name).unwrap_or(0.0);
        let sep = if index == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_serviced::json::{self, Json};

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect("name and unit");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let spec = spec();
        assert_eq!(listed(&spec, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&spec, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut metrics = Metrics::default();
        metrics.set("partition_s", 1.25);
        let mut checks = Checks::default();
        checks.record(None);
        checks.record(Some("bad".into()));
        let line = result_line(END_TO_END, &metrics, &checks);
        let parsed = json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(2));
        assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(1));
        let Some(Json::Object(map)) = parsed.get("metrics") else {
            panic!("metrics object");
        };
        assert_eq!(map.len(), END_TO_END.len());
        let value = parsed
            .get("metrics")
            .and_then(|m| m.get("partition_s"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(value, Some(1.25));
    }
}
