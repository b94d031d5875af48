//! Coverage for the admission layer and routing engine: bounded-queue
//! shedding under overload, priority ordering, per-model isolation, adaptive
//! wait-budget convergence, and shutdown with queued-but-undispatched
//! requests.

use quadra_nn::{Layer, Linear, Relu, Sequential};
use quadra_serve::{
    AdmissionPolicy, BatchPolicy, Priority, Request, Router, ServeConfig, ServeError, ServeMetrics,
};
use quadra_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
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

fn slow_config(queue_capacity: Option<usize>, max_batch: usize) -> ServeConfig {
    ServeConfig {
        workers: 1,
        policy: BatchPolicy {
            max_batch_size: max_batch,
            max_wait: Duration::from_millis(1),
            ..BatchPolicy::default()
        },
        admission: AdmissionPolicy { queue_capacity, ..AdmissionPolicy::default() },
        ..ServeConfig::default()
    }
}

#[test]
fn overload_sheds_with_retry_after_and_serves_admitted() {
    let router = Router::builder()
        .endpoint(MODEL, slow_config(Some(2), 1), || Box::new(SleepIdentity(Duration::from_millis(20))))
        .start()
        .unwrap();
    let client = router.client();

    // 1 executing + 1 in the batcher's hand + 2 queued = 4 in flight; the
    // rest of a rapid burst must be shed, not buffered.
    let mut pending = Vec::new();
    let mut sheds = 0u64;
    for i in 0..10 {
        match client.send(MODEL, Request::new(Tensor::full(&[1, 2], i as f32))) {
            Ok(p) => pending.push((i, p)),
            Err(ServeError::Overloaded { retry_after }) => {
                sheds += 1;
                assert!(retry_after > Duration::ZERO, "retry_after must be a usable hint");
            }
            Err(e) => panic!("unexpected submit error: {e:?}"),
        }
    }
    assert!(sheds > 0, "a 10-deep burst into capacity 2 must shed");
    assert!(pending.len() >= 2, "the queue capacity must still admit work");

    // Every admitted request is still answered correctly.
    for (i, p) in pending {
        let response = p.wait().unwrap();
        assert_eq!(response.output.as_slice(), &[i as f32; 2]);
    }
    let metrics = shutdown(router);
    assert_eq!(metrics.shed_requests, sheds);
    assert_eq!(metrics.completed_requests + metrics.shed_requests, 10);
    assert_eq!(metrics.errored_requests, 0);
}

#[test]
fn interactive_class_is_served_before_queued_batch_class() {
    let router = Router::builder()
        .endpoint(MODEL, slow_config(None, 1), || Box::new(SleepIdentity(Duration::from_millis(10))))
        .start()
        .unwrap();
    let client = router.client();
    let finished: Arc<Mutex<Vec<(Priority, Instant)>>> = Arc::new(Mutex::new(Vec::new()));

    // Fill the pipeline with batch-class work...
    let waiters: Vec<_> = (0..6)
        .map(|_| {
            let p =
                client.send(MODEL, Request::new(Tensor::ones(&[1, 2])).priority(Priority::Batch)).unwrap();
            let finished = Arc::clone(&finished);
            std::thread::spawn(move || {
                let response = p.wait().unwrap();
                finished.lock().unwrap().push((response.priority, Instant::now()));
            })
        })
        .collect();
    // ...then inject one interactive request while the backlog is deep.
    std::thread::sleep(Duration::from_millis(5));
    let p = client.send(MODEL, Request::new(Tensor::ones(&[1, 2])).priority(Priority::Interactive)).unwrap();
    let interactive_done = {
        let finished = Arc::clone(&finished);
        std::thread::spawn(move || {
            let response = p.wait().unwrap();
            finished.lock().unwrap().push((response.priority, Instant::now()));
        })
    };
    interactive_done.join().unwrap();
    for w in waiters {
        w.join().unwrap();
    }

    let finished = finished.lock().unwrap();
    let interactive_at = finished.iter().find(|(c, _)| *c == Priority::Interactive).map(|(_, t)| *t).unwrap();
    let last_batch_at =
        finished.iter().filter(|(c, _)| *c == Priority::Batch).map(|(_, t)| *t).max().unwrap();
    assert!(interactive_at < last_batch_at, "the interactive request must overtake queued batch-class work");
    let metrics = shutdown(router);
    assert_eq!(metrics.completed_interactive, 1);
    assert_eq!(metrics.completed_batch_class, 6);
}

#[test]
fn one_models_full_queue_does_not_block_another() {
    let router = Router::builder()
        .endpoint("slow", slow_config(Some(1), 1), || Box::new(SleepIdentity(Duration::from_millis(25))))
        .endpoint("fast", ServeConfig { workers: 1, ..ServeConfig::default() }, || Box::new(mlp(0)))
        .start()
        .unwrap();
    let client = router.client();

    // Saturate the slow endpoint until it sheds.
    let mut slow_pending = Vec::new();
    let mut saw_shed = false;
    for _ in 0..12 {
        match client.send("slow", Request::new(Tensor::ones(&[1, 2]))) {
            Ok(p) => slow_pending.push(p),
            Err(ServeError::Overloaded { .. }) => {
                saw_shed = true;
                break;
            }
            Err(e) => panic!("unexpected: {e:?}"),
        }
    }
    assert!(saw_shed, "slow endpoint must reach its admission limit");

    // The fast endpoint must keep serving immediately despite its neighbour's
    // saturated queue: well under the slow model's multi-batch backlog.
    let started = Instant::now();
    let response = client.infer("fast", Tensor::ones(&[1, 4])).unwrap();
    assert_eq!(response.output.shape(), &[1, 3]);
    assert!(
        started.elapsed() < Duration::from_millis(250),
        "fast endpoint stalled behind the slow one: {:?}",
        started.elapsed()
    );

    for p in slow_pending {
        let _ = p.wait().unwrap();
    }
    let metrics = router.shutdown();
    assert!(metrics.get("slow").unwrap().shed_requests >= 1);
    assert_eq!(metrics.get("fast").unwrap().shed_requests, 0);
    // Cross-model interference is bounded: the fast request may wait behind
    // ~one slow batch at the fair-share gate, never behind the slow model's
    // multi-batch backlog. The slow model's p50 is at least one of its own
    // batches, so "at most one batch of interference" is machine-relative:
    // fast p95 stays under ~2× slow p50, while queueing behind two or more
    // slow batches would push it past that.
    assert!(
        metrics.get("fast").unwrap().p95_latency_ms < 1.8 * metrics.get("slow").unwrap().p50_latency_ms,
        "fast endpoint ({:.2} ms p95) queued behind more than one slow batch (slow p50 {:.2} ms)",
        metrics.get("fast").unwrap().p95_latency_ms,
        metrics.get("slow").unwrap().p50_latency_ms
    );
    // Per-model latency windows: the slow model's 25 ms batches dominate its
    // own percentiles only.
    assert!(metrics.get("slow").unwrap().p50_latency_ms >= 20.0);
}

#[test]
fn unknown_model_is_rejected_before_admission() {
    let router = Router::builder()
        .endpoint("only", ServeConfig { workers: 1, ..ServeConfig::default() }, || Box::new(mlp(0)))
        .start()
        .unwrap();
    let client = router.client();
    let err = client.infer("missing", Tensor::ones(&[1, 4])).unwrap_err();
    assert_eq!(err, ServeError::UnknownModel("missing".to_string()));
    assert_eq!(client.models(), vec!["only".to_string()]);
    let _ = router.shutdown();
}

#[test]
fn duplicate_and_empty_endpoint_names_are_rejected() {
    let dup = Router::builder()
        .endpoint("m", ServeConfig { workers: 1, ..ServeConfig::default() }, || Box::new(mlp(0)))
        .endpoint("m", ServeConfig { workers: 1, ..ServeConfig::default() }, || Box::new(mlp(1)))
        .start();
    assert!(matches!(dup, Err(ServeError::BadInput(_))));
    let empty = Router::builder().start();
    assert!(matches!(empty, Err(ServeError::BadInput(_))));
    let unnamed = Router::builder()
        .endpoint("", ServeConfig { workers: 1, ..ServeConfig::default() }, || Box::new(mlp(0)))
        .start();
    assert!(matches!(unnamed, Err(ServeError::BadInput(_))));
    let zero_queue = Router::builder()
        .endpoint(
            "m",
            ServeConfig {
                workers: 1,
                admission: AdmissionPolicy { queue_capacity: Some(0), ..AdmissionPolicy::default() },
                ..ServeConfig::default()
            },
            || Box::new(mlp(0)),
        )
        .start();
    assert!(matches!(zero_queue, Err(ServeError::BadInput(_))));
}

#[test]
fn adaptive_wait_budget_converges_under_steady_load() {
    let config = ServeConfig {
        workers: 1,
        policy: BatchPolicy { max_batch_size: 8, max_wait: Duration::from_millis(25), adaptive_wait: true },
        admission: AdmissionPolicy { queue_capacity: None, ..AdmissionPolicy::default() },
        ..ServeConfig::default()
    };
    let router = Router::builder()
        .endpoint(MODEL, config, || Box::new(SleepIdentity(Duration::from_millis(1))))
        .start()
        .unwrap();
    let client = router.client();

    // Steady ~2000 req/s for a while: the budget must settle well below the
    // 25 ms cap (the arrival rate fills batches much faster than that).
    let drive = |n: usize| {
        let pending: Vec<_> = (0..n)
            .map(|_| {
                std::thread::sleep(Duration::from_micros(500));
                client.send(MODEL, Request::new(Tensor::ones(&[1, 2]))).unwrap()
            })
            .collect();
        for p in pending {
            let _ = p.wait().unwrap();
        }
    };
    drive(150);
    let mid = router.metrics_for(MODEL).unwrap().wait_budget_ms;
    drive(150);
    let late = router.metrics_for(MODEL).unwrap().wait_budget_ms;

    assert!(mid > 0.0, "budget gauge must be populated");
    assert!(mid < 25.0 * 0.8, "budget must adapt below the cap, got {mid} ms");
    assert!(late < 25.0 * 0.8, "budget must stay adapted, got {late} ms");
    // Converged: successive readings stay in the same regime rather than
    // oscillating across the [floor, cap] range.
    assert!((mid - late).abs() < 25.0 * 0.25, "budget did not converge: {mid} ms then {late} ms");
    let _ = shutdown(router);
}

#[test]
fn static_wait_budget_stays_at_max_wait() {
    let config = ServeConfig {
        workers: 1,
        policy: BatchPolicy { max_batch_size: 8, max_wait: Duration::from_millis(3), adaptive_wait: false },
        ..ServeConfig::default()
    };
    let router = Router::builder().endpoint(MODEL, config, || Box::new(mlp(0))).start().unwrap();
    let client = router.client();
    for _ in 0..20 {
        let _ = client.infer(MODEL, Tensor::ones(&[1, 4])).unwrap();
    }
    let metrics = shutdown(router);
    assert!((metrics.wait_budget_ms - 3.0).abs() < 1e-9, "static budget is exactly max_wait");
}

#[test]
fn shutdown_answers_queued_but_undispatched_requests() {
    // A deep queue of slow single-sample batches: most requests still sit in
    // the admission queue when shutdown lands, yet all must be answered.
    let router = Router::builder()
        .endpoint(MODEL, slow_config(Some(64), 1), || Box::new(SleepIdentity(Duration::from_millis(10))))
        .start()
        .unwrap();
    let client = router.client();
    let pending: Vec<_> = (0..8)
        .map(|i| {
            client
                .send(MODEL, Request::new(Tensor::full(&[1, 2], i as f32)).priority(Priority::Batch))
                .unwrap()
        })
        .collect();
    let metrics = shutdown(router);
    assert_eq!(metrics.completed_requests, 8, "every admitted request drains through shutdown");
    for (i, p) in pending.into_iter().enumerate() {
        let response = p.wait().unwrap();
        assert_eq!(response.output.as_slice(), &[i as f32; 2]);
    }
    assert_eq!(
        client.send(MODEL, Request::new(Tensor::ones(&[1, 2]))).unwrap_err(),
        ServeError::ShuttingDown
    );
}

#[test]
fn response_carries_model_name_and_priority() {
    let router =
        Router::builder().endpoint(MODEL, ServeConfig::default(), || Box::new(mlp(0))).start().unwrap();
    let client = router.client();
    let response = client
        .send(MODEL, Request::new(Tensor::ones(&[1, 4])).priority(Priority::Batch))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(response.model, MODEL);
    assert_eq!(response.priority, Priority::Batch);
    let metrics = shutdown(router);
    assert_eq!(metrics.model, MODEL);
    assert_eq!(metrics.completed_batch_class, 1);
}
