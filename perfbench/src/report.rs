//! The declared metric sets and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` (the self-test
//! checks they agree). Every workload reports every declared metric; a
//! layer a workload bypasses is reported as 0 through [`Metrics::bypass`],
//! so a missing metric is a bug, never a silent zero.

use std::collections::BTreeMap;

/// `(name, unit)` of each end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of each per-layer metric. Units ending in `-coarse` are
/// upper bounds of log₂ histogram buckets (up to 2x high).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.generate_ms", "ms"),
    ("kmeans-core.init_ms", "ms"),
    ("kmeans-core.assign_gflops", "GFLOP/s"),
    ("kmeans-core.assign_step_ms", "ms"),
    ("kmeans-core.bounds_savings", "ratio"),
    ("kmeans-core.distance_evals", "count"),
    ("hier-kmeans.iter_ms", "ms"),
    ("hier-kmeans.assign_ms", "ms"),
    ("hier-kmeans.merge_ms", "ms"),
    ("hier-kmeans.update_ms", "ms"),
    ("hier-kmeans.exchange_ms", "ms"),
    ("hier-kmeans.assign_imbalance", "ratio"),
    ("hier-kmeans.outside_loop_ms", "ms"),
    ("msg.bytes_per_iter.allreduce", "B"),
    ("msg.bytes_per_iter.minloc", "B"),
    ("msg.bytes_per_iter.total", "B"),
    ("msg.messages_per_iter.allreduce", "count"),
    ("msg.messages_per_iter.minloc", "count"),
    ("msg.messages_per_iter.total", "count"),
    ("msg.allreduce_sum_us", "us"),
    ("msg.minloc_us", "us"),
    ("msg.world_run_us", "us"),
    ("serve.scan_us", "us"),
    ("serve.kernel_us", "us"),
    ("serve.plumbing_us", "us"),
    ("serve.batch_rows_mean", "rows"),
    ("serve.queue_wait_p50_us", "us-coarse"),
    ("serve.execute_p50_us", "us-coarse"),
    ("serve.steals", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("serve.stranded", "count"),
    ("serve.swap_ms", "ms"),
    ("store.publish_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.compact_ms", "ms"),
    ("proc.cpu_ms_per_op", "ms"),
    ("proc.ctx_switches_per_op", "count"),
    ("proc.threads_peak", "count"),
    ("bench.latency_samples", "count"),
    ("bench.latency_p90_ms", "ms"),
    ("bench.latency_p99_ms", "ms"),
    ("bench.throughput_per_s", "1/s"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Metric values by name, filled by a workload run.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} = {value} is not a number");
        let prev = self.0.insert(name, value);
        assert!(prev.is_none(), "{name} reported twice");
    }

    /// Report layers this workload does not exercise as 0.
    pub fn bypass(&mut self, names: &[&'static str]) {
        for &name in names {
            self.set(name, 0.0);
        }
    }
}

/// The result line: exactly the declared metrics, each with its unit.
/// Panics if the workload left a declared metric unset or set an
/// undeclared one.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    mut metrics: Metrics,
    declared: &[(&str, &str)],
) -> String {
    let mut fields = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = metrics
            .0
            .remove(name)
            .unwrap_or_else(|| panic!("workload did not report {name}"));
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    assert!(
        metrics.0.is_empty(),
        "undeclared metrics reported: {:?}",
        metrics.0.keys().collect::<Vec<_>>()
    );
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}
