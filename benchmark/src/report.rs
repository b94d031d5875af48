//! Metric names and units (the same lists `BENCHMARK.json` declares), the
//! outcome of one measured window, and the result line the driver reads.

use crate::machine::escape;
use crate::stats::Summary;
use std::collections::BTreeMap;

/// The six end-to-end metrics, reported by the untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("slo_share", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// The share of the parent's median by which an end-to-end metric may get
/// worse before a change is rejected (the `bound` of `BENCHMARK.json`).
pub fn bound(name: &str) -> f64 {
    match name {
        "slo_share" => 0.02,
        "peak_rss_mib" => 0.1,
        _ => 0.25,
    }
}

/// The per-layer metrics, reported by the traced run. README.md says where
/// each one is measured and which end-to-end metric it should move.
pub const PER_LAYER: &[(&str, &str)] = &[
    // quadra-tensor
    ("tensor.calib.peak_gflops", "GFLOP/s"),
    ("tensor.calib.triad_gbytes_per_s", "GB/s"),
    ("tensor.gemm.gflops_p50", "GFLOP/s"),
    ("tensor.gemm.ceiling_share", "ratio"),
    ("tensor.gemm.blocked_vs_naive_min", "ratio"),
    ("tensor.gemm.parallel_speedup", "ratio"),
    ("tensor.im2col.gbytes_per_s", "GB/s"),
    ("tensor.im2col.ceiling_share", "ratio"),
    ("tensor.conv2d.fwd_ms_per_op", "ms"),
    ("tensor.conv2d.bwd_input_ms_per_op", "ms"),
    ("tensor.conv2d.bwd_weight_ms_per_op", "ms"),
    ("tensor.flops_per_op", "count"),
    ("tensor.bytes_per_op", "count"),
    // vendor/rayon
    ("rayon.threads", "count"),
    ("rayon.join_us_p50", "us"),
    // quadra-autograd
    ("autograd.gradcheck_max_rel_err", "ratio"),
    ("autograd.gradcheck_s", "s"),
    // quadra-nn
    ("nn.conv2d.fwd_ms", "ms"),
    ("nn.residual.fwd_ms", "ms"),
    ("nn.batchnorm2d.fwd_ms", "ms"),
    ("nn.batchnorm2d.bwd_ms", "ms"),
    ("nn.relu.fwd_ms", "ms"),
    ("nn.relu.bwd_ms", "ms"),
    ("nn.maxpool2d.fwd_ms", "ms"),
    ("nn.maxpool2d.bwd_ms", "ms"),
    ("nn.global_avg_pool.fwd_ms", "ms"),
    ("nn.global_avg_pool.bwd_ms", "ms"),
    ("nn.linear.fwd_ms", "ms"),
    ("nn.linear.bwd_ms", "ms"),
    ("nn.loss.ms", "ms"),
    ("nn.optim.step_ms", "ms"),
    // quadra-core
    ("core.step_ms_p50.default", "ms"),
    ("core.step_ms_p50.hybrid", "ms"),
    ("core.qconv.fwd_ms.default", "ms"),
    ("core.qconv.bwd_ms.default", "ms"),
    ("core.qconv.fwd_ms.hybrid", "ms"),
    ("core.qconv.bwd_ms.hybrid", "ms"),
    ("core.qconv.fwd_eval_ms", "ms"),
    ("core.qconv.vs_first_order_ratio", "ratio"),
    ("core.cached_mib.default", "MiB"),
    ("core.cached_mib.hybrid", "MiB"),
    ("core.hybrid.memory_saving_share", "ratio"),
    ("core.hybrid.time_overhead_share", "ratio"),
    ("core.hybrid.loss_gap", "ratio"),
    ("core.build_model_s", "s"),
    // quadra-data
    ("data.generate_s", "s"),
    ("data.batch_select_ms", "ms"),
    // quadra-models
    ("models.mobilenet.samples_per_s_b1", "1/s"),
    ("models.mobilenet.samples_per_s_b8", "1/s"),
    ("models.mobilenet.batch_speedup", "ratio"),
    ("models.mobilenet.flops_per_sample", "count"),
    ("models.resnet20.samples_per_s_b1", "1/s"),
    ("models.resnet20.samples_per_s_b8", "1/s"),
    ("models.resnet20.batch_speedup", "ratio"),
    ("models.resnet20.flops_per_sample", "count"),
    ("models.quadra_resnet20.samples_per_s_b1", "1/s"),
    ("models.quadra_resnet20.samples_per_s_b8", "1/s"),
    ("models.quadra_resnet20.batch_speedup", "ratio"),
    ("models.quadra_resnet20.flops_per_sample", "count"),
    // quadra-serve
    ("serve.submit_us_p50", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p95", "ms"),
    ("serve.execute_ms_p50", "ms"),
    ("serve.delivery_ms_p50", "ms"),
    ("serve.batch_samples_mean", "count"),
    ("serve.batch_fill_share", "ratio"),
    ("serve.batches", "count"),
    ("serve.first.throughput_per_s", "1/s"),
    ("serve.quad.throughput_per_s", "1/s"),
    ("serve.first.op_ms_p95", "ms"),
    ("serve.quad.op_ms_p95", "ms"),
    ("serve.capacity_share", "ratio"),
    ("serve.service_share_first", "ratio"),
    ("serve.wait_budget_ms", "ms"),
    ("serve.queue_depth_mean", "count"),
    ("serve.metrics_snapshot_ms", "ms"),
    ("serve.op_ms_p99", "ms"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("serve.cancelled", "count"),
    ("serve.errored", "count"),
    ("serve.start_s", "s"),
    ("serve.shutdown_s", "s"),
    // quadra-gateway
    ("gateway.overhead_ms_p50", "ms"),
    ("gateway.overhead_ms_p95", "ms"),
    ("gateway.engine_ms_p50", "ms"),
    ("gateway.queue_wait_ms_p50", "ms"),
    ("gateway.client_send_us_p50", "us"),
    ("gateway.frame.encode_ns", "ns"),
    ("gateway.frame.decode_ns", "ns"),
    ("gateway.frame.bytes_per_req", "count"),
    ("gateway.closed_rtt_ms_p50", "ms"),
    ("gateway.inproc_rtt_ms_p50", "ms"),
    ("gateway.cpu_us_per_req", "us"),
    ("gateway.idle_cpu_share", "ratio"),
    ("gateway.connect_ms", "ms"),
    ("gateway.drain_s", "s"),
    ("gateway.op_ms_p99", "ms"),
    ("gateway.backpressure", "count"),
    ("gateway.errors", "count"),
    ("gateway.unanswered", "count"),
    // generator / process / trace: validity of the run
    ("gen.late_ms_p50", "ms"),
    ("gen.late_ms_p99", "ms"),
    ("gen.late_ms_max", "ms"),
    ("proc.cpu_us_per_op", "us"),
    ("alloc.count_per_op", "count"),
    ("alloc.mib_per_op", "MiB"),
    ("trace.overhead_share", "ratio"),
    ("trace.stage_sum_share", "ratio"),
];

/// Per-layer metric values by name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// Insert `value` under `name` when there is one.
pub fn put(layer: &mut LayerMetrics, name: &'static str, value: Option<f64>) {
    if let Some(v) = value {
        layer.insert(name, v);
    }
}

/// What one measured window of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops started in the window.
    pub attempted: u64,
    /// Ops that failed, were refused, shed, or never answered.
    pub failed: u64,
    /// Whether every output check of the workload held.
    pub correct: bool,
    /// Why `correct` is false, and anything a reader of the numbers must know.
    pub notes: Vec<String>,
    /// Time of every successful op in milliseconds. Nothing is ever trimmed.
    pub op_ms: Vec<f64>,
    /// Ops that finished within the workload's limit.
    pub within_limit: u64,
    /// Successful work units (samples or requests) of the window.
    pub work_units: u64,
    /// Length of the measured window in seconds.
    pub elapsed_s: f64,
    /// Median set-up time over the set-up repeats.
    pub setup_s: f64,
    /// Per-layer metrics this window measured (traced runs only).
    pub layer: LayerMetrics,
}

impl Outcome {
    /// Record a failed check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes.push(why.into());
    }

    /// `check` must hold, else the outcome is incorrect for reason `why`.
    pub fn require(&mut self, check: bool, why: impl FnOnce() -> String) {
        if !check {
            self.fail(why());
        }
    }
}

/// One reported value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value, all digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The end-to-end metrics of an untraced outcome. `op_ms_p95` is withheld
/// (absent) when fewer than ten samples lie beyond it.
pub fn end_to_end_metrics(outcome: &Outcome, peak_rss_mib: f64) -> Vec<Metric> {
    let summary = Summary::of(&outcome.op_ms);
    let mut out = Vec::new();
    let mut push = |name: &'static str, value: Option<f64>| {
        let unit = END_TO_END.iter().find(|(n, _)| *n == name).expect("declared metric").1;
        if let Some(value) = value {
            out.push(Metric { name, value, unit });
        }
    };
    push(
        "throughput_per_s",
        (outcome.elapsed_s > 0.0).then(|| outcome.work_units as f64 / outcome.elapsed_s),
    );
    push("op_ms_p50", summary.as_ref().map(|s| s.p50));
    push("op_ms_p95", summary.as_ref().and_then(|s| s.p95));
    push(
        "slo_share",
        (outcome.attempted > 0).then(|| outcome.within_limit as f64 / outcome.attempted as f64),
    );
    push("peak_rss_mib", Some(peak_rss_mib));
    push("setup_s", Some(outcome.setup_s));
    out
}

/// The per-layer metrics of a traced run, in declaration order; `Err` names
/// the declared metrics nothing measured.
pub fn per_layer_metrics(layer: &LayerMetrics) -> Result<Vec<Metric>, Vec<&'static str>> {
    let mut out = Vec::with_capacity(PER_LAYER.len());
    let mut missing = Vec::new();
    for &(name, unit) in PER_LAYER {
        match layer.get(name) {
            Some(&value) if value.is_finite() => out.push(Metric { name, value, unit }),
            _ => missing.push(name),
        }
    }
    if missing.is_empty() {
        Ok(out)
    } else {
        Err(missing)
    }
}

/// The one-line JSON object the driver reads from the last line of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics.iter().map(metric_json).collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// `"name": {"value": v, "unit": "u"}` — one entry of a `metrics` object.
pub fn metric_json(m: &Metric) -> String {
    format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, json_number(m.value), m.unit)
}

/// A finite f64 with all its digits, in a form JSON accepts: `{:?}` prints
/// `1e-7` style exponents and a `.0` on integers, and both are JSON.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values must be finite");
    format!("{v:?}")
}

/// A JSON array of strings.
pub fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", quoted.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(PER_LAYER.len() <= 128);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                unit.len() <= 16 && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let declared = text.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for (name, _) in END_TO_END {
            let needle = format!("\"name\": \"{name}\"");
            let line = text.lines().find(|l| l.contains(&needle)).unwrap();
            assert!(line.contains(&format!("\"bound\": {}}}", bound(name))), "{line}");
        }
    }

    #[test]
    fn p95_is_withheld_from_short_runs_and_slo_counts_failures() {
        let mut o = Outcome { attempted: 100, failed: 10, correct: true, ..Outcome::default() };
        o.op_ms = (1..=90).map(f64::from).collect();
        o.within_limit = 80;
        o.work_units = 90;
        o.elapsed_s = 3.0;
        let m = end_to_end_metrics(&o, 12.5);
        assert!(m.iter().all(|m| m.name != "op_ms_p95"));
        let get = |n: &str| m.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("slo_share"), 0.8);
        assert_eq!(get("throughput_per_s"), 30.0);
        assert_eq!(get("op_ms_p50"), 45.0);
        o.op_ms = (1..=250).map(f64::from).collect();
        assert!(end_to_end_metrics(&o, 1.0).iter().any(|m| m.name == "op_ms_p95"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 5, 0, &[Metric { name: "setup_s", value: 0.25, unit: "s" }]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e-7), "1e-7");
    }

    #[test]
    fn missing_per_layer_metrics_are_named() {
        let mut layer = LayerMetrics::new();
        layer.insert("rayon.threads", 2.0);
        let missing = per_layer_metrics(&layer).unwrap_err();
        assert_eq!(missing.len(), PER_LAYER.len() - 1);
        assert!(!missing.contains(&"rayon.threads"));
    }
}
