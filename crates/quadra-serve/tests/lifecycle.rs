//! Request-lifecycle coverage: cancellation races (cancel while queued, mid
//! batch, after completion), deadline expiry shedding queued requests,
//! non-blocking handle polling, response provenance (batch id, tag), the
//! batch-class aging credit, and fair sharing across contending endpoints.

use quadra_nn::{Layer, Linear, Relu, Sequential};
use quadra_serve::{
    AdmissionPolicy, BatchPolicy, Priority, Request, Router, ServeConfig, ServeError, ServeMetrics,
};
use quadra_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Endpoint name of the single-model routers below.
const MODEL: &str = "model";

/// Shut a single-endpoint router down and return that endpoint's metrics.
fn shutdown(router: Router) -> ServeMetrics {
    router.shutdown().models.remove(0)
}

fn mlp(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new(vec![
        Box::new(Linear::new(4, 8, true, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Linear::new(8, 3, true, &mut rng)),
    ])
}

/// An identity layer slow enough that requests pile up behind it.
struct SleepIdentity(Duration);

impl Layer for SleepIdentity {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        std::thread::sleep(self.0);
        x.clone()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }

    fn layer_type(&self) -> &'static str {
        "sleep_identity"
    }
}

/// An identity layer that *burns* CPU for a fixed duration — sleeps release
/// the core, so fair-sharing tests need real work.
struct BusyIdentity(Duration);

impl Layer for BusyIdentity {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let start = Instant::now();
        let mut acc = 0.0f64;
        while start.elapsed() < self.0 {
            for k in 0..256 {
                acc += (k as f64).sqrt();
            }
        }
        std::hint::black_box(acc);
        x.clone()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }

    fn layer_type(&self) -> &'static str {
        "busy_identity"
    }
}

fn sleep_server(service: Duration, batch_aging: u32) -> Router {
    Router::builder()
        .endpoint(
            MODEL,
            ServeConfig {
                workers: 1,
                policy: BatchPolicy {
                    max_batch_size: 1,
                    max_wait: Duration::from_millis(1),
                    ..BatchPolicy::default()
                },
                admission: AdmissionPolicy { queue_capacity: None, batch_aging },
                ..ServeConfig::default()
            },
            move || Box::new(SleepIdentity(service)),
        )
        .start()
        .unwrap()
}

#[test]
fn cancel_while_queued_sheds_with_cancelled() {
    let router = sleep_server(Duration::from_millis(40), 0);
    let client = router.client();
    // Occupy the single worker, then queue the victim behind it.
    let warmup = client.send(MODEL, Request::new(Tensor::ones(&[1, 2]))).unwrap();
    std::thread::sleep(Duration::from_millis(5));
    let victim = client.send(MODEL, Request::new(Tensor::full(&[1, 2], 7.0))).unwrap();
    victim.cancel();
    assert_eq!(victim.wait().unwrap_err(), ServeError::Cancelled);
    let _ = warmup.wait().unwrap();
    let metrics = shutdown(router);
    assert_eq!(metrics.cancelled_requests, 1);
    assert_eq!(metrics.completed_requests, 1, "only the warmup was served");
}

#[test]
fn cancel_mid_batch_is_a_noop() {
    let router = sleep_server(Duration::from_millis(40), 0);
    let client = router.client();
    let handle = client.send(MODEL, Request::new(Tensor::full(&[1, 2], 3.0))).unwrap();
    // The idle worker pulls the request immediately; by now it is mid
    // forward. Cancelling a dispatched request must not abort it.
    std::thread::sleep(Duration::from_millis(10));
    handle.cancel();
    let response = handle.wait().unwrap();
    assert_eq!(response.output.as_slice(), &[3.0, 3.0]);
    let metrics = shutdown(router);
    assert_eq!(metrics.cancelled_requests, 0, "a dispatched request is never counted as cancelled");
    assert_eq!(metrics.completed_requests, 1);
}

#[test]
fn cancel_after_completion_still_returns_the_response() {
    let router = sleep_server(Duration::from_millis(1), 0);
    let client = router.client();
    let first = client.send(MODEL, Request::new(Tensor::full(&[1, 2], 5.0))).unwrap();
    // One worker, FIFO seeds: once this blocking request is answered, the
    // first one has completed too and its response sits in the channel.
    let _ = client.infer(MODEL, Tensor::ones(&[1, 2])).unwrap();
    first.cancel();
    let response = first.wait().unwrap();
    assert_eq!(response.output.as_slice(), &[5.0, 5.0]);
    let metrics = shutdown(router);
    assert_eq!(metrics.cancelled_requests, 0);
}

#[test]
fn deadline_expiry_sheds_requests_already_queued() {
    let router = sleep_server(Duration::from_millis(40), 0);
    let client = router.client();
    // Occupy the worker for 40 ms, then queue a request that gives up after
    // 5 ms: by dispatch time it has expired and must be shed, not served.
    let warmup = client.send(MODEL, Request::new(Tensor::ones(&[1, 2]))).unwrap();
    std::thread::sleep(Duration::from_millis(5));
    let hopeless =
        client.send(MODEL, Request::new(Tensor::ones(&[1, 2])).deadline(Duration::from_millis(5))).unwrap();
    // A generous deadline on a queued request is honoured normally.
    let patient = client
        .send(MODEL, Request::new(Tensor::full(&[1, 2], 2.0)).deadline(Duration::from_secs(30)))
        .unwrap();
    assert_eq!(hopeless.wait().unwrap_err(), ServeError::DeadlineExceeded);
    assert_eq!(patient.wait().unwrap().output.as_slice(), &[2.0, 2.0]);
    let _ = warmup.wait().unwrap();
    let metrics = shutdown(router);
    assert_eq!(metrics.deadline_missed_requests, 1);
    assert_eq!(metrics.completed_requests, 2);
}

#[test]
fn try_wait_polls_without_blocking_and_settles_once() {
    let router = sleep_server(Duration::from_millis(30), 0);
    let client = router.client();
    let mut handle = client.send(MODEL, Request::new(Tensor::full(&[1, 2], 9.0))).unwrap();
    assert!(handle.try_wait().is_none(), "the request is still in flight");
    let deadline = Instant::now() + Duration::from_secs(10);
    let response = loop {
        if let Some(result) = handle.try_wait() {
            break result.unwrap();
        }
        assert!(Instant::now() < deadline, "response never arrived");
        std::thread::sleep(Duration::from_millis(2));
    };
    assert_eq!(response.output.as_slice(), &[9.0, 9.0]);
    let _ = shutdown(router);
}

#[test]
fn wait_timeout_leaves_the_handle_usable() {
    let router = sleep_server(Duration::from_millis(30), 0);
    let client = router.client();
    let mut handle = client.send(MODEL, Request::new(Tensor::full(&[1, 2], 4.0))).unwrap();
    assert_eq!(handle.wait_timeout(Duration::from_millis(1)).unwrap_err(), ServeError::Timeout);
    // The timeout did not consume the request: a later bounded wait succeeds.
    let response = handle.wait_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(response.output.as_slice(), &[4.0, 4.0]);
    let _ = shutdown(router);
}

#[test]
fn responses_carry_batch_id_and_tag_provenance() {
    let router = Router::builder()
        .endpoint(
            MODEL,
            ServeConfig {
                workers: 1,
                policy: BatchPolicy {
                    max_batch_size: 8,
                    max_wait: Duration::from_millis(40),
                    ..BatchPolicy::default()
                },
                ..ServeConfig::default()
            },
            || Box::new(SleepIdentity(Duration::from_millis(25))),
        )
        .start()
        .unwrap();
    let client = router.client();
    // Occupy the worker with an oversized request (dispatched immediately,
    // no fill wait), then queue two requests that ride one batch.
    let warmup = client.send(MODEL, Request::new(Tensor::ones(&[8, 2])).tag("warmup")).unwrap();
    std::thread::sleep(Duration::from_millis(5));
    let a = client.send(MODEL, Request::new(Tensor::full(&[1, 2], 1.0)).tag("rider-a")).unwrap();
    let b = client.send(MODEL, Request::new(Tensor::full(&[1, 2], 2.0))).unwrap();
    let warmup = warmup.wait().unwrap();
    let a = a.wait().unwrap();
    let b = b.wait().unwrap();
    assert_eq!(warmup.tag.as_deref(), Some("warmup"));
    assert_eq!(a.tag.as_deref(), Some("rider-a"));
    assert_eq!(b.tag, None);
    assert_ne!(warmup.batch_id, a.batch_id, "separate batches have distinct ids");
    if a.batch_samples == 2 {
        assert_eq!(a.batch_id, b.batch_id, "coalesced requests report the same batch id");
    }
    assert!(a.queue_wait <= a.latency, "queue wait is a component of latency");
    let _ = shutdown(router);
}

#[test]
fn tight_deadline_request_rides_the_earlier_batch() {
    // EDF slack ordering inside the admission queue: with a 2-slot batch, the
    // seed takes exactly one rider. FIFO fill would pick B (it arrived first);
    // EDF must pick C, whose deadline is tight, leaving B to the next batch.
    let router = Router::builder()
        .endpoint(
            MODEL,
            ServeConfig {
                workers: 1,
                policy: BatchPolicy {
                    max_batch_size: 2,
                    max_wait: Duration::from_millis(1),
                    ..BatchPolicy::default()
                },
                ..ServeConfig::default()
            },
            || Box::new(SleepIdentity(Duration::from_millis(40))),
        )
        .start()
        .unwrap();
    let client = router.client();
    // Occupy the single worker so the riders queue up behind it.
    let warmup = client.send(MODEL, Request::new(Tensor::ones(&[1, 2]))).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    let a = client.send(MODEL, Request::new(Tensor::full(&[1, 2], 1.0))).unwrap();
    let b = client.send(MODEL, Request::new(Tensor::full(&[1, 2], 2.0))).unwrap();
    let c = client
        .send(MODEL, Request::new(Tensor::full(&[1, 2], 3.0)).deadline(Duration::from_secs(10)))
        .unwrap();
    let _ = warmup.wait().unwrap();
    let a = a.wait().unwrap();
    let b = b.wait().unwrap();
    let c = c.wait().unwrap();
    assert_eq!(c.batch_id, a.batch_id, "the deadlined request rides the seed's batch");
    assert!(b.batch_id > a.batch_id, "the undeadlined rider waits for the next batch");
    let _ = shutdown(router);
}

#[test]
fn batch_class_is_never_fully_starved_under_interactive_backlog() {
    // An unbounded interactive backlog with strict priority would serve the
    // batch class dead last. With the aging credit (every 3rd seed at most),
    // batch-class work is dispatched well before the interactive backlog
    // drains — visible deterministically through the monotone batch ids.
    let router = sleep_server(Duration::from_millis(2), 2);
    let client = router.client();
    let interactive: Vec<_> = (0..30)
        .map(|_| {
            client.send(MODEL, Request::new(Tensor::ones(&[1, 2])).priority(Priority::Interactive)).unwrap()
        })
        .collect();
    let aged: Vec<_> = (0..2)
        .map(|_| client.send(MODEL, Request::new(Tensor::ones(&[1, 2])).priority(Priority::Batch)).unwrap())
        .collect();
    let last_interactive_batch_id =
        interactive.into_iter().map(|p| p.wait().unwrap().batch_id).max().unwrap();
    for handle in aged {
        let response = handle.wait().unwrap();
        assert!(
            response.batch_id < last_interactive_batch_id,
            "batch-class request (batch {}) must be dispatched before the interactive backlog \
             drains (last interactive batch {})",
            response.batch_id,
            last_interactive_batch_id
        );
    }
    let metrics = shutdown(router);
    assert_eq!(metrics.completed_batch_class, 2);
}

#[test]
fn strict_priority_without_aging_drains_batch_class_last() {
    // The control for the aging test: batch_aging = 0 restores PR-4 strict
    // priority, so the queued batch-class requests get the highest batch ids.
    let router = sleep_server(Duration::from_millis(2), 0);
    let client = router.client();
    let warmup = client.send(MODEL, Request::new(Tensor::ones(&[1, 2]))).unwrap();
    std::thread::sleep(Duration::from_millis(1));
    let starved: Vec<_> = (0..2)
        .map(|_| client.send(MODEL, Request::new(Tensor::ones(&[1, 2])).priority(Priority::Batch)).unwrap())
        .collect();
    let interactive: Vec<_> = (0..20)
        .map(|_| {
            client.send(MODEL, Request::new(Tensor::ones(&[1, 2])).priority(Priority::Interactive)).unwrap()
        })
        .collect();
    let _ = warmup.wait().unwrap();
    let last_interactive_batch_id =
        interactive.into_iter().map(|p| p.wait().unwrap().batch_id).max().unwrap();
    for handle in starved {
        let response = handle.wait().unwrap();
        assert!(
            response.batch_id > last_interactive_batch_id,
            "under strict priority the batch class drains only after the interactive backlog"
        );
    }
    let _ = shutdown(router);
}

#[test]
fn fair_sharing_tracks_endpoint_weights_under_contention() {
    // Two CPU-burning endpoints, both saturated by closed-loop clients. The
    // DRR gate grants service time proportionally to the configured weights
    // even though the light model could push many more batches through: the
    // heavy endpoint (weight 3) must end up with roughly 3/4 of the fleet's
    // service time. Without the gate the split would drift towards whatever
    // the OS scheduler gives two competing threads (~1/2).
    let config = |weight: u32| ServeConfig {
        workers: 1,
        policy: BatchPolicy {
            max_batch_size: 1,
            max_wait: Duration::from_millis(1),
            ..BatchPolicy::default()
        },
        admission: AdmissionPolicy { queue_capacity: None, ..AdmissionPolicy::default() },
        weight,
    };
    let router = Router::builder()
        .endpoint("light", config(1), || Box::new(BusyIdentity(Duration::from_millis(1))))
        .endpoint("heavy", config(3), || Box::new(BusyIdentity(Duration::from_millis(3))))
        .start()
        .unwrap();

    let stop_at = Instant::now() + Duration::from_millis(600);
    let handles: Vec<_> = ["light", "heavy"]
        .into_iter()
        .flat_map(|model| (0..2).map(move |c| (model, c)))
        .map(|(model, _)| {
            let client = router.client();
            std::thread::spawn(move || {
                while Instant::now() < stop_at {
                    let _ = client.infer(model, Tensor::ones(&[1, 2])).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let metrics = router.shutdown();
    let heavy_share = metrics.service_share("heavy").expect("heavy served");
    let light_share = metrics.service_share("light").expect("light served");
    assert!(
        heavy_share > 0.60,
        "weight-3 endpoint must hold the bulk of the service time, got {heavy_share:.2}"
    );
    assert!(light_share > 0.05, "fair sharing must not starve the light endpoint, got {light_share:.2}");
    assert!(
        metrics.get("light").unwrap().completed_requests > 0
            && metrics.get("heavy").unwrap().completed_requests > 0
    );
}

#[test]
fn send_to_unknown_model_is_rejected() {
    let router = Router::builder()
        .endpoint("only", ServeConfig { workers: 1, ..ServeConfig::default() }, || Box::new(mlp(0)))
        .start()
        .unwrap();
    let err = router.client().send("missing", Request::new(Tensor::ones(&[1, 4]))).unwrap_err();
    assert_eq!(err, ServeError::UnknownModel("missing".to_string()));
    let _ = router.shutdown();
}
