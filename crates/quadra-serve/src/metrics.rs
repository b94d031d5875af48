//! Serving telemetry: a lock-guarded per-endpoint recorder the workers and
//! the admission layer write into, the per-model [`ServeMetrics`] snapshot,
//! and the fleet-wide [`RouterMetrics`] roll-up.
//!
//! Every endpoint owns its own hub, so latency percentiles are always
//! **per-model** — a blended p95 across a heterogeneous fleet (a 1 ms
//! MobileNet next to a 15 ms ResNet) would describe neither model.

use crate::request::{Priority, ServeError};
use crate::sync::lock_or_recover;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Cap on retained latency samples; percentiles are over the most recent
/// window once the cap is reached (a ring buffer, so long-running servers
/// don't grow without bound).
const LATENCY_WINDOW: usize = 1 << 16;

#[derive(Default)]
struct MetricsInner {
    completed_requests: u64,
    completed_samples: u64,
    completed_by_class: [u64; Priority::COUNT],
    shed_by_class: [u64; Priority::COUNT],
    cancelled_by_class: [u64; Priority::COUNT],
    deadline_missed_by_class: [u64; Priority::COUNT],
    errored_requests: u64,
    batches: u64,
    reloads: u64,
    /// Total worker service time in µs — the endpoint's fair-share ledger.
    service_us: u64,
    /// `occupancy[k-1]` counts batches that held exactly `k` samples;
    /// oversized batches land in the last bucket.
    occupancy: Vec<u64>,
    latencies_us: Vec<u64>,
    latency_write: usize,
}

/// Shared recorder; one per model endpoint, written by that endpoint's
/// workers and admission layer.
pub(crate) struct MetricsHub {
    started: Instant,
    inner: Mutex<MetricsInner>,
}

impl MetricsHub {
    pub fn new(max_batch_size: usize) -> Self {
        let inner = MetricsInner { occupancy: vec![0; max_batch_size.max(1)], ..Default::default() };
        MetricsHub { started: Instant::now(), inner: Mutex::new(inner) }
    }

    /// Record one completed batch: its sample count and each request's
    /// latency and priority class.
    pub fn record_batch(&self, samples: usize, requests: &[(Duration, Priority)]) {
        let mut m = lock_or_recover(&self.inner);
        m.batches += 1;
        m.completed_requests += requests.len() as u64;
        m.completed_samples += samples as u64;
        let bucket = samples.clamp(1, m.occupancy.len()) - 1;
        m.occupancy[bucket] += 1;
        for (latency, priority) in requests {
            m.completed_by_class[priority.index()] += 1;
            let us = latency.as_micros().min(u64::MAX as u128) as u64;
            if m.latencies_us.len() < LATENCY_WINDOW {
                m.latencies_us.push(us);
            } else {
                let idx = m.latency_write % LATENCY_WINDOW;
                m.latencies_us[idx] = us;
            }
            m.latency_write += 1;
        }
    }

    /// Record one request shed at admission (queue full).
    pub fn record_shed(&self, priority: Priority) {
        lock_or_recover(&self.inner).shed_by_class[priority.index()] += 1;
    }

    /// Record one request shed at dispatch time (cancelled by its handle or
    /// its deadline expired while queued).
    pub fn record_dispatch_shed(&self, priority: Priority, reason: &ServeError) {
        let mut m = lock_or_recover(&self.inner);
        match reason {
            ServeError::Cancelled => m.cancelled_by_class[priority.index()] += 1,
            ServeError::DeadlineExceeded => m.deadline_missed_by_class[priority.index()] += 1,
            _ => {}
        }
    }

    /// Accumulate worker service time (the fair-share ledger); recorded for
    /// successful and panicked batches alike — both occupied the CPU.
    pub fn record_service(&self, service_us: u64) {
        lock_or_recover(&self.inner).service_us += service_us;
    }

    pub fn record_errors(&self, count: usize) {
        lock_or_recover(&self.inner).errored_requests += count as u64;
    }

    pub fn record_reload(&self) {
        lock_or_recover(&self.inner).reloads += 1;
    }

    pub fn snapshot(
        &self,
        model: &str,
        model_version: u64,
        queued_samples: usize,
        wait_budget: Duration,
    ) -> ServeMetrics {
        let m = lock_or_recover(&self.inner);
        let elapsed = self.started.elapsed();
        let secs = elapsed.as_secs_f64().max(1e-9);
        let mut sorted = m.latencies_us.clone();
        sorted.sort_unstable();
        let pct = |q: f64| -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
            sorted[idx] as f64 / 1000.0
        };
        let mean_ms = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<u64>() as f64 / sorted.len() as f64 / 1000.0
        };
        ServeMetrics {
            model: model.to_string(),
            elapsed,
            completed_requests: m.completed_requests,
            completed_samples: m.completed_samples,
            completed_interactive: m.completed_by_class[Priority::Interactive.index()],
            completed_batch_class: m.completed_by_class[Priority::Batch.index()],
            shed_requests: m.shed_by_class.iter().sum(),
            shed_interactive: m.shed_by_class[Priority::Interactive.index()],
            shed_batch_class: m.shed_by_class[Priority::Batch.index()],
            cancelled_requests: m.cancelled_by_class.iter().sum(),
            deadline_missed_requests: m.deadline_missed_by_class.iter().sum(),
            errored_requests: m.errored_requests,
            batches: m.batches,
            reloads: m.reloads,
            model_version,
            queued_samples,
            wait_budget_ms: wait_budget.as_secs_f64() * 1e3,
            service_time_ms: m.service_us as f64 / 1e3,
            throughput_rps: m.completed_requests as f64 / secs,
            throughput_sps: m.completed_samples as f64 / secs,
            mean_latency_ms: mean_ms,
            p50_latency_ms: pct(0.50),
            p95_latency_ms: pct(0.95),
            max_latency_ms: sorted.last().map(|&v| v as f64 / 1000.0).unwrap_or(0.0),
            mean_batch_size: if m.batches == 0 { 0.0 } else { m.completed_samples as f64 / m.batches as f64 },
            batch_occupancy: m.occupancy.clone(),
        }
    }
}

/// A point-in-time snapshot of one model endpoint's serving statistics.
///
/// Latency percentiles are computed from this endpoint's own latency window —
/// never blended across models.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a metrics snapshot is only useful if it is read"]
pub struct ServeMetrics {
    /// Name of the model endpoint this snapshot describes.
    pub model: String,
    /// Wall time since the endpoint started.
    pub elapsed: Duration,
    /// Requests answered successfully.
    pub completed_requests: u64,
    /// Samples answered successfully (≥ requests; requests can be multi-sample).
    pub completed_samples: u64,
    /// Requests of class [`Priority::Interactive`] answered successfully.
    pub completed_interactive: u64,
    /// Requests of class [`Priority::Batch`] answered successfully.
    pub completed_batch_class: u64,
    /// Requests shed at admission with [`ServeError::Overloaded`](crate::ServeError::Overloaded).
    pub shed_requests: u64,
    /// Interactive-class requests shed at admission.
    pub shed_interactive: u64,
    /// Batch-class requests shed at admission.
    pub shed_batch_class: u64,
    /// Requests shed at dispatch time because their handle was
    /// [cancelled](crate::ResponseHandle::cancel) while they queued.
    pub cancelled_requests: u64,
    /// Requests shed at dispatch time because their
    /// [deadline](crate::Request::deadline) expired while they queued.
    pub deadline_missed_requests: u64,
    /// Requests answered with a [`ServeError`](crate::ServeError) by a worker.
    pub errored_requests: u64,
    /// Batches executed.
    pub batches: u64,
    /// Successful hot-reloads since start.
    pub reloads: u64,
    /// Current model state version (0 = initial weights).
    pub model_version: u64,
    /// Samples sitting in the admission queue at snapshot time.
    pub queued_samples: usize,
    /// The scheduler's current wait budget in milliseconds (`max_wait` under
    /// the static policy; the adaptively chosen value otherwise).
    pub wait_budget_ms: f64,
    /// Total worker service time this endpoint consumed, in milliseconds —
    /// the ledger behind the fleet scheduler's weighted fair sharing (compare
    /// across endpoints with [`RouterMetrics::service_share`]).
    pub service_time_ms: f64,
    /// Completed requests per second since start.
    pub throughput_rps: f64,
    /// Completed samples per second since start.
    pub throughput_sps: f64,
    /// Mean request latency (submission → response) in milliseconds.
    pub mean_latency_ms: f64,
    /// Median request latency in milliseconds.
    pub p50_latency_ms: f64,
    /// 95th-percentile request latency in milliseconds.
    pub p95_latency_ms: f64,
    /// Worst request latency in milliseconds (within the retained window).
    pub max_latency_ms: f64,
    /// Mean samples per executed batch.
    pub mean_batch_size: f64,
    /// Batch-occupancy histogram: entry `k` counts batches holding `k+1`
    /// samples (the last bucket also absorbs oversized batches).
    pub batch_occupancy: Vec<u64>,
}

impl ServeMetrics {
    /// One-line summary for logs and bench output.
    pub fn describe(&self) -> String {
        format!(
            "[{}] {} req ({} samples) in {:.2}s | {:.0} req/s {:.0} samples/s | latency ms p50 {:.2} p95 {:.2} max {:.2} | mean batch {:.2} | wait budget {:.2} ms | service {:.0} ms | queue {} | shed {} ({} int / {} batch) | cancelled {} | deadline-missed {} | v{} ({} reloads) | {} errors",
            self.model,
            self.completed_requests,
            self.completed_samples,
            self.elapsed.as_secs_f64(),
            self.throughput_rps,
            self.throughput_sps,
            self.p50_latency_ms,
            self.p95_latency_ms,
            self.max_latency_ms,
            self.mean_batch_size,
            self.wait_budget_ms,
            self.service_time_ms,
            self.queued_samples,
            self.shed_requests,
            self.shed_interactive,
            self.shed_batch_class,
            self.cancelled_requests,
            self.deadline_missed_requests,
            self.model_version,
            self.reloads,
            self.errored_requests,
        )
    }

    /// Render the batch-occupancy histogram as an ASCII bar chart.
    pub fn occupancy_ascii(&self, width: usize) -> String {
        let peak = self.batch_occupancy.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &count) in self.batch_occupancy.iter().enumerate() {
            let bar = (count as usize * width) / peak as usize;
            out.push_str(&format!(
                "{:>4} sample{} |{}{}| {}\n",
                i + 1,
                if i == 0 { " " } else { "s" },
                "#".repeat(bar),
                " ".repeat(width - bar),
                count
            ));
        }
        out
    }
}

/// Per-model snapshots of every endpoint behind a [`Router`](crate::Router).
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a metrics snapshot is only useful if it is read"]
pub struct RouterMetrics {
    /// One [`ServeMetrics`] per endpoint, sorted by model name.
    pub models: Vec<ServeMetrics>,
}

impl RouterMetrics {
    /// The snapshot of one model endpoint, if it exists.
    #[must_use]
    pub fn get(&self, model: &str) -> Option<&ServeMetrics> {
        self.models.iter().find(|m| m.model == model)
    }

    /// Requests completed across the whole fleet.
    #[must_use]
    pub fn total_completed_requests(&self) -> u64 {
        self.models.iter().map(|m| m.completed_requests).sum()
    }

    /// Requests shed across the whole fleet.
    #[must_use]
    pub fn total_shed_requests(&self) -> u64 {
        self.models.iter().map(|m| m.shed_requests).sum()
    }

    /// `model`'s fraction of the fleet's total worker service time — the
    /// fair-share observable: under contention the scheduler drives each
    /// endpoint's share towards `weight / Σ weights`. `None` if the model is
    /// unknown or the fleet has served nothing yet.
    #[must_use]
    pub fn service_share(&self, model: &str) -> Option<f64> {
        let total: f64 = self.models.iter().map(|m| m.service_time_ms).sum();
        let own = self.get(model)?.service_time_ms;
        if total <= 0.0 {
            return None;
        }
        Some(own / total)
    }

    /// One line per endpoint.
    pub fn describe(&self) -> String {
        self.models.iter().map(ServeMetrics::describe).collect::<Vec<_>>().join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const I: Priority = Priority::Interactive;
    const B: Priority = Priority::Batch;

    #[test]
    fn snapshot_aggregates_batches() {
        let hub = MetricsHub::new(4);
        hub.record_batch(3, &[(Duration::from_millis(2), I), (Duration::from_millis(4), B)]);
        hub.record_batch(1, &[(Duration::from_millis(6), I)]);
        hub.record_batch(9, &[(Duration::from_millis(1), B)]); // oversized → last bucket
        hub.record_errors(2);
        hub.record_reload();
        hub.record_shed(I);
        hub.record_shed(B);
        hub.record_shed(B);
        hub.record_dispatch_shed(I, &ServeError::Cancelled);
        hub.record_dispatch_shed(B, &ServeError::DeadlineExceeded);
        hub.record_dispatch_shed(B, &ServeError::DeadlineExceeded);
        hub.record_service(2_500);
        hub.record_service(1_500);
        let snap = hub.snapshot("resnet", 1, 5, Duration::from_micros(1500));
        assert_eq!(snap.model, "resnet");
        assert_eq!(snap.completed_requests, 4);
        assert_eq!(snap.completed_samples, 13);
        assert_eq!(snap.completed_interactive, 2);
        assert_eq!(snap.completed_batch_class, 2);
        assert_eq!(snap.shed_requests, 3);
        assert_eq!(snap.shed_interactive, 1);
        assert_eq!(snap.shed_batch_class, 2);
        assert_eq!(snap.cancelled_requests, 1);
        assert_eq!(snap.deadline_missed_requests, 2);
        assert_eq!(snap.errored_requests, 2);
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.reloads, 1);
        assert_eq!(snap.model_version, 1);
        assert_eq!(snap.queued_samples, 5);
        assert!((snap.wait_budget_ms - 1.5).abs() < 1e-9);
        assert!((snap.service_time_ms - 4.0).abs() < 1e-9);
        assert_eq!(snap.batch_occupancy, vec![1, 0, 1, 1]);
        assert!(snap.p50_latency_ms >= 1.0 && snap.p50_latency_ms <= 6.0);
        assert!(snap.p95_latency_ms >= snap.p50_latency_ms);
        assert!(snap.max_latency_ms >= snap.p95_latency_ms);
        assert!(snap.mean_latency_ms > 0.0);
        assert!((snap.mean_batch_size - 13.0 / 3.0).abs() < 1e-9);
        assert!(snap.throughput_rps > 0.0);
        assert!(snap.describe().contains("4 req"));
        assert!(snap.describe().contains("cancelled 1"));
        assert!(snap.describe().contains("deadline-missed 2"));
        assert!(snap.describe().starts_with("[resnet]"));
        let ascii = snap.occupancy_ascii(20);
        assert_eq!(ascii.lines().count(), 4);
        assert!(ascii.contains('#'));
    }

    #[test]
    fn dispatch_shed_only_counts_lifecycle_reasons() {
        let hub = MetricsHub::new(1);
        hub.record_dispatch_shed(I, &ServeError::Timeout); // not a dispatch-shed reason
        let snap = hub.snapshot("m", 0, 0, Duration::ZERO);
        assert_eq!(snap.cancelled_requests, 0);
        assert_eq!(snap.deadline_missed_requests, 0);
    }

    #[test]
    fn latency_window_is_bounded() {
        let hub = MetricsHub::new(1);
        let lat: Vec<(Duration, Priority)> = vec![(Duration::from_micros(10), I); 100];
        for _ in 0..700 {
            hub.record_batch(1, &lat);
        }
        let snap = hub.snapshot("m", 0, 0, Duration::ZERO);
        assert_eq!(snap.completed_requests, 70_000);
        // The retained sample buffer stays capped at the window size.
        assert!(snap.p50_latency_ms > 0.0);
    }

    #[test]
    fn router_metrics_roll_up_per_model() {
        let hub_a = MetricsHub::new(2);
        hub_a.record_batch(1, &[(Duration::from_millis(1), I)]);
        hub_a.record_service(1_000);
        let hub_b = MetricsHub::new(2);
        hub_b.record_batch(2, &[(Duration::from_millis(30), B), (Duration::from_millis(40), B)]);
        hub_b.record_shed(I);
        hub_b.record_service(3_000);
        let fleet = RouterMetrics {
            models: vec![
                hub_a.snapshot("fast", 0, 0, Duration::ZERO),
                hub_b.snapshot("slow", 2, 1, Duration::ZERO),
            ],
        };
        assert_eq!(fleet.total_completed_requests(), 3);
        assert_eq!(fleet.total_shed_requests(), 1);
        assert_eq!(fleet.get("slow").unwrap().model_version, 2);
        assert!(fleet.get("none").is_none());
        // The whole point: each model keeps its own latency distribution.
        assert!(fleet.get("fast").unwrap().p95_latency_ms < 5.0);
        assert!(fleet.get("slow").unwrap().p95_latency_ms > 25.0);
        // Fair-share ledger: slow consumed 3 of the 4 ms of service time.
        assert!((fleet.service_share("slow").unwrap() - 0.75).abs() < 1e-9);
        assert!((fleet.service_share("fast").unwrap() - 0.25).abs() < 1e-9);
        assert!(fleet.service_share("none").is_none());
        assert_eq!(fleet.describe().lines().count(), 2);
    }
}
