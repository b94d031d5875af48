//! One named model endpoint: its admission queue, hot-reload slot, metrics
//! hub, fleet-scheduler membership, and the arrival/service statistics behind
//! the adaptive wait budget and the live overload estimate.

use crate::admission::{AdmissionQueue, AdmitRejection};
use crate::metrics::{MetricsHub, ServeMetrics};
use crate::request::{PendingInfer, Priority, ReplyDest, ReplySlot, Request, ServeConfig, ServeError};
use crate::scheduler::FleetScheduler;
use crate::sync::lock_or_recover;
use crate::worker::ReloadSlot;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// EWMA smoothing: `new = (3 * old + sample) / 4`.
///
/// A single atomic read-modify-write: multiple workers feed `ewma_batch_us`
/// concurrently, and a separate load-then-store here would let two updates
/// race and silently drop one sample.
fn ewma_update(cell: &AtomicU64, sample_us: u64) {
    // quadra-analyze: allow(must_use, fetch_update with a Some-returning closure cannot fail)
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
        let next = if old == 0 { sample_us.max(1) } else { (3 * old + sample_us) / 4 };
        Some(next.max(1))
    });
}

/// Shared state of one model endpoint; the admission layer, worker pool, and
/// the router front-end all hold an `Arc` of this.
pub(crate) struct EndpointShared {
    pub name: String,
    pub config: ServeConfig,
    pub queue: AdmissionQueue,
    pub reload: ReloadSlot,
    pub metrics: MetricsHub,
    /// The fleet-level fair-share arbiter all endpoints of a router share.
    pub fleet: Arc<FleetScheduler>,
    /// This endpoint's member index in the fleet scheduler.
    pub member: usize,
    /// EWMA of request inter-arrival time in µs (0 = no data yet).
    ewma_interarrival_us: AtomicU64,
    last_arrival: Mutex<Option<Instant>>,
    /// EWMA of batch service (forward-pass) time in µs, fed by workers.
    ewma_batch_us: AtomicU64,
    /// Gauge: the wait budget a worker most recently computed, in µs.
    wait_budget_us: AtomicU64,
}

impl EndpointShared {
    pub fn new(name: &str, config: ServeConfig, fleet: Arc<FleetScheduler>) -> Self {
        // The queue keeps the shared depth cell current under its own lock;
        // the fleet scheduler reads it lock-free for contention checks.
        let depth_cell = Arc::new(AtomicUsize::new(0));
        let member = fleet.register(config.weight, Arc::clone(&depth_cell));
        EndpointShared {
            // quadra-analyze: allow(hot_alloc:to-string, endpoint construction runs once per registered model, not per request)
            name: name.to_string(),
            config,
            queue: AdmissionQueue::new(
                config.admission.queue_capacity,
                config.admission.batch_aging,
                depth_cell,
            ),
            reload: ReloadSlot::new(),
            metrics: MetricsHub::new(config.policy.max_batch_size),
            fleet,
            member,
            ewma_interarrival_us: AtomicU64::new(0),
            last_arrival: Mutex::new(None),
            ewma_batch_us: AtomicU64::new(0),
            wait_budget_us: AtomicU64::new(config.policy.max_wait.as_micros() as u64),
        }
    }

    /// Validate and admit one request, to be answered at `dest`; returns its
    /// cancellation flag or the admission error (bad input, overload shed,
    /// shutting down). A refused request answers nothing at `dest`.
    pub fn submit(&self, id: u64, request: Request, dest: ReplyDest) -> Result<Arc<AtomicBool>, ServeError> {
        if request.input.ndim() < 2 {
            // quadra-analyze: allow(hot_alloc:format, reject path: runs once per malformed request, never on admitted traffic)
            return Err(ServeError::BadInput(format!(
                "input must have a leading sample axis (got {}-d; wrap a single sample as [1, ...])",
                request.input.ndim()
            )));
        }
        let samples = request.input.shape()[0];
        if samples == 0 {
            return Err(ServeError::BadInput("input holds zero samples".into()));
        }
        self.record_arrival();
        let submitted_at = Instant::now();
        let deadline = request.resolve_deadline(submitted_at);
        let priority = request.priority;
        let cancelled = Arc::new(AtomicBool::new(false));
        let pending = PendingInfer {
            id,
            input: request.input,
            samples,
            priority,
            tag: request.tag,
            submitted_at,
            deadline,
            cancelled: Arc::clone(&cancelled),
            reply: ReplySlot::new(dest),
        };
        match self.queue.try_admit(pending) {
            Ok(()) => {
                self.fleet.nudge();
                Ok(cancelled)
            }
            Err(AdmitRejection::Closed) => Err(ServeError::ShuttingDown),
            Err(AdmitRejection::Full) => {
                self.metrics.record_shed(priority);
                Err(ServeError::Overloaded { retry_after: self.retry_after(priority) })
            }
        }
    }

    fn record_arrival(&self) {
        let now = Instant::now();
        let mut last = lock_or_recover(&self.last_arrival);
        if let Some(prev) = last.replace(now) {
            let dt_us = now.duration_since(prev).as_micros().min(u64::MAX as u128) as u64;
            ewma_update(&self.ewma_interarrival_us, dt_us);
        }
    }

    /// Workers report each batch's forward-pass duration here.
    pub fn record_batch_service(&self, service: Duration) {
        let us = service.as_micros().min(u64::MAX as u128) as u64;
        ewma_update(&self.ewma_batch_us, us);
    }

    /// The cost estimate the fair-share gate debits before a batch runs: the
    /// live EWMA batch-service time, or a nominal 1 ms before any batch has
    /// completed.
    pub fn estimated_batch_us(&self) -> u64 {
        let us = self.ewma_batch_us.load(Ordering::Relaxed);
        if us == 0 {
            1_000
        } else {
            us
        }
    }

    /// The wait budget for a batch currently holding `samples_in_batch`
    /// samples: `max_wait` under the static policy; under the adaptive policy
    /// the time the measured arrival rate needs to fill the batch, capped by
    /// twice the measured batch service time (waiting past that trades more
    /// latency than batching saves) and by `max_wait`, floored at
    /// `max_wait / 16` so in-flight bursts still coalesce.
    pub fn wait_budget(&self, samples_in_batch: usize) -> Duration {
        let policy = &self.config.policy;
        let max = policy.max_wait;
        if !policy.adaptive_wait {
            return max;
        }
        let inter_us = self.ewma_interarrival_us.load(Ordering::Relaxed);
        let budget = if inter_us == 0 {
            max // no arrival data yet: behave like the static policy
        } else {
            let remaining = policy.max_batch_size.saturating_sub(samples_in_batch).max(1) as u64;
            let mut budget_us = inter_us.saturating_mul(remaining);
            let svc_us = self.ewma_batch_us.load(Ordering::Relaxed);
            if svc_us > 0 {
                budget_us = budget_us.min(2 * svc_us);
            }
            // `min(max)` keeps floor ≤ max even for sub-microsecond caps
            // (Duration::clamp panics when min > max).
            let floor = (max / 16).max(Duration::from_micros(1)).min(max);
            Duration::from_micros(budget_us).clamp(floor, max)
        };
        self.wait_budget_us.store(budget.as_micros() as u64, Ordering::Relaxed);
        budget
    }

    /// Live estimate of when the backlog ahead of a newly shed request of
    /// `priority` will have drained: the samples queued ahead of that class
    /// (interactive only waits behind interactive; the batch class waits
    /// behind everything), in batches, divided over the worker pool, at the
    /// EWMA batch-service time (falling back to `max_wait` before any batch
    /// has completed). Shrinks live as the queue drains and as the measured
    /// service time drops.
    pub fn retry_after(&self, priority: Priority) -> Duration {
        let policy = &self.config.policy;
        let backlog = self.queue.class_backlog(priority);
        let batches_queued = backlog.div_ceil(policy.max_batch_size).max(1) as u32;
        let waves = batches_queued.div_ceil(self.config.workers.max(1) as u32).max(1);
        let svc_us = self.ewma_batch_us.load(Ordering::Relaxed);
        let per_batch = if svc_us > 0 {
            Duration::from_micros(svc_us)
        } else {
            policy.max_wait.max(Duration::from_millis(1))
        };
        per_batch * waves
    }

    /// Point-in-time snapshot of this endpoint's serving statistics.
    pub fn snapshot(&self) -> ServeMetrics {
        self.metrics.snapshot(
            &self.name,
            self.reload.version(),
            self.queue.depth(),
            Duration::from_micros(self.wait_budget_us.load(Ordering::Relaxed)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{AdmissionPolicy, BatchPolicy};
    use quadra_tensor::Tensor;

    fn submit(ep: &EndpointShared, request: Request) -> Result<Arc<AtomicBool>, ServeError> {
        ep.submit(0, request, ReplyDest::Channel(std::sync::mpsc::channel().0))
    }

    fn endpoint(adaptive: bool) -> EndpointShared {
        EndpointShared::new(
            "test",
            ServeConfig {
                workers: 1,
                policy: BatchPolicy {
                    max_batch_size: 8,
                    max_wait: Duration::from_millis(16),
                    adaptive_wait: adaptive,
                },
                admission: AdmissionPolicy::default(),
                weight: 1,
            },
            Arc::new(FleetScheduler::new()),
        )
    }

    #[test]
    fn static_policy_returns_max_wait() {
        let ep = endpoint(false);
        ep.record_batch_service(Duration::from_micros(100));
        assert_eq!(ep.wait_budget(0), Duration::from_millis(16));
    }

    #[test]
    fn adaptive_budget_tracks_arrivals_and_service_time() {
        let ep = endpoint(true);
        // Cold start: no arrival data → fall back to the cap.
        assert_eq!(ep.wait_budget(0), Duration::from_millis(16));
        // Feed a steady ~200 µs inter-arrival EWMA and a 500 µs service EWMA.
        for _ in 0..32 {
            ewma_update(&ep.ewma_interarrival_us, 200);
            ewma_update(&ep.ewma_batch_us, 500);
        }
        let budget = ep.wait_budget(0);
        // Fill estimate: 8 × 200 µs = 1.6 ms, capped at 2 × 500 µs = 1 ms.
        assert_eq!(budget, Duration::from_micros(1000));
        // A nearly full batch needs only one more sample: floored at max/16.
        let near_full = ep.wait_budget(7);
        assert_eq!(near_full, Duration::from_millis(1));
        // Budget gauge reflects the last computation.
        assert_eq!(ep.snapshot().wait_budget_ms, 1.0);
    }

    #[test]
    fn zero_max_wait_dispatches_immediately_without_panicking() {
        // "Dispatch as soon as possible" was a legal setting before the
        // adaptive policy existed; the clamp must not panic on max_wait
        // below the 1 µs floor once arrival data exists.
        let ep = EndpointShared::new(
            "zero",
            ServeConfig {
                workers: 1,
                policy: BatchPolicy { max_batch_size: 8, max_wait: Duration::ZERO, adaptive_wait: true },
                admission: AdmissionPolicy::default(),
                weight: 1,
            },
            Arc::new(FleetScheduler::new()),
        );
        for _ in 0..4 {
            ewma_update(&ep.ewma_interarrival_us, 200);
            ewma_update(&ep.ewma_batch_us, 500);
        }
        assert_eq!(ep.wait_budget(0), Duration::ZERO);
    }

    #[test]
    fn adaptive_budget_never_exceeds_cap() {
        let ep = endpoint(true);
        for _ in 0..32 {
            ewma_update(&ep.ewma_interarrival_us, 1_000_000); // 1 s between arrivals
            ewma_update(&ep.ewma_batch_us, 1_000_000);
        }
        assert_eq!(ep.wait_budget(0), Duration::from_millis(16));
    }

    #[test]
    fn estimated_batch_cost_falls_back_before_data() {
        let ep = endpoint(true);
        assert_eq!(ep.estimated_batch_us(), 1_000, "nominal 1 ms before any batch completed");
        for _ in 0..32 {
            ewma_update(&ep.ewma_batch_us, 7_000);
        }
        assert_eq!(ep.estimated_batch_us(), 7_000);
    }

    /// Regression surface for the `Overloaded { retry_after }` satellite: the
    /// estimate is derived from the *live* queue depth and EWMA service time,
    /// so it must shrink monotonically as the queue drains.
    #[test]
    fn retry_after_shrinks_as_the_queue_drains() {
        let ep = endpoint(true); // max_batch_size 8, 1 worker
        for _ in 0..32 {
            ewma_update(&ep.ewma_batch_us, 10_000); // 10 ms per batch
        }
        // 24 queued batch-class samples = 3 batches of 8 → 30 ms.
        for _ in 0..24 {
            let _ = submit(&ep, Request::new(Tensor::zeros(&[1, 2])).priority(Priority::Batch)).unwrap();
        }
        let deep = ep.retry_after(Priority::Batch);
        assert_eq!(deep, Duration::from_millis(30));

        // Drain two batches' worth: the estimate shrinks with the queue.
        for _ in 0..16 {
            assert!(matches!(ep.queue.pop_blocking(), crate::admission::PopResult::Request(_)));
        }
        let shallow = ep.retry_after(Priority::Batch);
        assert_eq!(shallow, Duration::from_millis(10));
        assert!(shallow < deep, "retry_after must shrink as the queue drains");

        // A faster measured service time shrinks it further, live.
        for _ in 0..64 {
            ewma_update(&ep.ewma_batch_us, 2_000);
        }
        assert!(ep.retry_after(Priority::Batch) < shallow);
    }

    #[test]
    fn retry_after_is_class_aware() {
        let ep = endpoint(true);
        for _ in 0..32 {
            ewma_update(&ep.ewma_batch_us, 10_000);
        }
        // 16 batch-class samples queued, nothing interactive.
        for _ in 0..16 {
            let _ = submit(&ep, Request::new(Tensor::zeros(&[1, 2])).priority(Priority::Batch)).unwrap();
        }
        // An interactive request only waits behind interactive backlog (one
        // wave), while a batch-class one waits behind everything (two waves).
        assert_eq!(ep.retry_after(Priority::Interactive), Duration::from_millis(10));
        assert_eq!(ep.retry_after(Priority::Batch), Duration::from_millis(20));
    }

    #[test]
    fn retry_after_scales_with_backlog() {
        let ep = endpoint(true);
        for _ in 0..32 {
            ewma_update(&ep.ewma_batch_us, 10_000); // 10 ms per batch
        }
        let empty = ep.retry_after(Priority::Interactive);
        assert_eq!(empty, Duration::from_millis(10));
    }
}
