//! Edge-case coverage for the dynamic batcher and worker pool: empty-queue
//! idling, oversized requests, shutdown with in-flight work, hot-reload
//! mid-stream, worker panics, and input validation.

use quadra_nn::{Layer, Linear, Relu, Sequential, StateDict};
use quadra_serve::{BatchPolicy, Request, Router, ServeConfig, ServeError, ServeMetrics};
use quadra_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

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

fn mlp_server(config: ServeConfig, seed: u64) -> Router {
    Router::builder().endpoint(MODEL, config, move || Box::new(mlp(seed))).start().unwrap()
}

#[test]
fn idle_queue_blocks_then_serves() {
    let config = ServeConfig {
        workers: 1,
        policy: BatchPolicy {
            max_batch_size: 8,
            max_wait: Duration::from_millis(1),
            ..BatchPolicy::default()
        },
        ..ServeConfig::default()
    };
    let router = mlp_server(config, 0);
    let client = router.client();
    // Let the batcher sit on an empty queue well past max_wait: nothing may
    // fire, spin, or wedge while there are no requests.
    std::thread::sleep(Duration::from_millis(30));
    let response = client.infer(MODEL, Tensor::ones(&[1, 4])).unwrap();
    assert_eq!(response.output.shape(), &[1, 3]);
    assert_eq!(response.batch_samples, 1);
    let metrics = shutdown(router);
    assert_eq!(metrics.completed_requests, 1);
    assert_eq!(metrics.batches, 1);
    assert_eq!(metrics.batch_occupancy[0], 1);
}

#[test]
fn oversized_request_forms_its_own_batch() {
    let config = ServeConfig {
        workers: 1,
        policy: BatchPolicy {
            max_batch_size: 4,
            max_wait: Duration::from_millis(1),
            ..BatchPolicy::default()
        },
        ..ServeConfig::default()
    };
    let router = mlp_server(config, 0);
    let client = router.client();
    let response = client.infer(MODEL, Tensor::ones(&[10, 4])).unwrap();
    assert_eq!(response.output.shape(), &[10, 3]);
    assert_eq!(response.batch_samples, 10);
    let metrics = shutdown(router);
    assert_eq!(metrics.completed_samples, 10);
    // The oversized batch lands in the histogram's last bucket.
    assert_eq!(metrics.batch_occupancy, vec![0, 0, 0, 1]);
}

/// An identity layer slow enough that requests pile up behind it.
struct SlowIdentity;

impl Layer for SlowIdentity {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        std::thread::sleep(Duration::from_millis(20));
        x.clone()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }

    fn layer_type(&self) -> &'static str {
        "slow_identity"
    }
}

#[test]
fn shutdown_answers_in_flight_requests() {
    let config = ServeConfig {
        workers: 1,
        policy: BatchPolicy {
            max_batch_size: 2,
            max_wait: Duration::from_millis(1),
            ..BatchPolicy::default()
        },
        ..ServeConfig::default()
    };
    let router = Router::builder().endpoint(MODEL, config, || Box::new(SlowIdentity)).start().unwrap();
    let client = router.client();
    let pending: Vec<_> =
        (0..6).map(|i| client.send(MODEL, Request::new(Tensor::full(&[1, 2], i as f32))).unwrap()).collect();
    // Shut down while most of those requests still sit in the queue; every
    // one must still be answered before the threads exit.
    let metrics = shutdown(router);
    assert_eq!(metrics.completed_requests, 6);
    for (i, p) in pending.into_iter().enumerate() {
        let response = p.wait().unwrap();
        assert_eq!(response.output.as_slice(), &[i as f32; 2]);
    }
    // The queue is gone: new submissions fail fast instead of hanging.
    assert_eq!(
        client.send(MODEL, Request::new(Tensor::ones(&[1, 2]))).unwrap_err(),
        ServeError::ShuttingDown
    );
}

#[test]
fn hot_reload_mid_stream_switches_versions() {
    let config = ServeConfig {
        workers: 2,
        policy: BatchPolicy {
            max_batch_size: 4,
            max_wait: Duration::from_millis(1),
            ..BatchPolicy::default()
        },
        ..ServeConfig::default()
    };
    let router = mlp_server(config, 0);
    let client = router.client();
    let x = Tensor::linspace(-1.0, 1.0, 4).reshape(&[1, 4]).unwrap();

    let before = client.infer(MODEL, x.clone()).unwrap();
    assert_eq!(before.model_version, 0);
    assert_eq!(before.output.as_slice(), mlp(0).forward(&x, false).as_slice());

    // Reload with a differently-seeded model's checkpoint mid-stream.
    let mut retrained = mlp(1);
    let version = router.reload(MODEL, StateDict::from_layer(&retrained)).unwrap();
    assert_eq!(version, 1);
    assert_eq!(router.version(MODEL).unwrap(), 1);

    let after = client.infer(MODEL, x.clone()).unwrap();
    assert_eq!(after.model_version, 1, "post-reload responses must carry the new version");
    assert_eq!(after.output.as_slice(), retrained.forward(&x, false).as_slice());
    assert_ne!(before.output.as_slice(), after.output.as_slice());

    let metrics = shutdown(router);
    assert_eq!(metrics.reloads, 1);
    assert_eq!(metrics.model_version, 1);
}

#[test]
fn incompatible_reload_is_rejected_and_serving_continues() {
    let router = mlp_server(ServeConfig::default(), 0);
    let client = router.client();
    let mut rng = StdRng::seed_from_u64(9);
    let wrong = Sequential::new(vec![Box::new(Linear::new(5, 3, true, &mut rng)) as Box<dyn Layer>]);
    let err = router.reload(MODEL, StateDict::from_layer(&wrong)).unwrap_err();
    assert!(matches!(err, ServeError::InvalidState(_)), "{:?}", err);
    assert_eq!(router.version(MODEL).unwrap(), 0, "failed reload must not bump the version");
    let response = client.infer(MODEL, Tensor::ones(&[1, 4])).unwrap();
    assert_eq!(response.model_version, 0);
}

#[test]
fn worker_panic_reports_error_and_pool_recovers() {
    let config = ServeConfig {
        workers: 1,
        policy: BatchPolicy {
            max_batch_size: 2,
            max_wait: Duration::from_millis(1),
            ..BatchPolicy::default()
        },
        ..ServeConfig::default()
    };
    let router = mlp_server(config, 0);
    let client = router.client();
    // 5 features into a 4-feature Linear: the layer asserts, the worker
    // catches the unwind, reports it, rebuilds its replica, and keeps going.
    let err = client.infer(MODEL, Tensor::ones(&[1, 5])).unwrap_err();
    assert!(matches!(err, ServeError::WorkerFailed(_)), "{:?}", err);
    let response = client.infer(MODEL, Tensor::ones(&[1, 4])).unwrap();
    assert_eq!(response.output.shape(), &[1, 3]);
    let metrics = shutdown(router);
    assert_eq!(metrics.errored_requests, 1);
    assert_eq!(metrics.completed_requests, 1);
}

#[test]
fn invalid_inputs_are_rejected_before_queueing() {
    let router = mlp_server(ServeConfig::default(), 0);
    let client = router.client();
    assert!(matches!(
        client.send(MODEL, Request::new(Tensor::from_slice(&[1.0, 2.0]))),
        Err(ServeError::BadInput(_))
    ));
    assert!(matches!(client.send(MODEL, Request::new(Tensor::zeros(&[0, 4]))), Err(ServeError::BadInput(_))));
    // A config without workers is refused outright.
    let bad = ServeConfig { workers: 0, ..ServeConfig::default() };
    assert!(Router::builder().endpoint(MODEL, bad, || Box::new(mlp(0))).start().is_err());
}

#[test]
fn requests_coalesce_into_shared_batches() {
    // One worker + slow model: concurrent clients land in the same batch.
    let config = ServeConfig {
        workers: 1,
        policy: BatchPolicy {
            max_batch_size: 8,
            max_wait: Duration::from_millis(50),
            ..BatchPolicy::default()
        },
        ..ServeConfig::default()
    };
    let router = Router::builder()
        .endpoint(MODEL, config, || Box::new(Sequential::new(vec![Box::new(SlowIdentity) as Box<dyn Layer>])))
        .start()
        .unwrap();
    let client = router.client();
    // First request occupies the worker; the next four arrive while it runs
    // and must ride one coalesced batch.
    let warmup = client.send(MODEL, Request::new(Tensor::ones(&[1, 2]))).unwrap();
    std::thread::sleep(Duration::from_millis(5));
    let pending: Vec<_> =
        (0..4).map(|_| client.send(MODEL, Request::new(Tensor::ones(&[1, 2]))).unwrap()).collect();
    let _ = warmup.wait().unwrap();
    let batch_sizes: Vec<usize> = pending.into_iter().map(|p| p.wait().unwrap().batch_samples).collect();
    assert!(batch_sizes.iter().any(|&b| b > 1), "expected coalescing, saw batch sizes {:?}", batch_sizes);
    let _ = shutdown(router);
}

fn identity_server(policy: BatchPolicy) -> Router {
    Router::builder()
        .endpoint(MODEL, ServeConfig { workers: 1, policy, ..ServeConfig::default() }, || {
            Box::new(Sequential::new(vec![Box::new(SlowIdentity) as Box<dyn Layer>]))
        })
        .start()
        .unwrap()
}

#[test]
fn mixed_spatial_sizes_never_share_a_batch() {
    // A request's prediction must not depend on what it rides with: mixed
    // sizes form separate batches and nothing is padded.
    let router = identity_server(BatchPolicy {
        max_batch_size: 4,
        max_wait: Duration::from_millis(50),
        ..BatchPolicy::default()
    });
    let client = router.client();
    let warmup = client.send(MODEL, Request::new(Tensor::ones(&[1, 1, 1, 1]))).unwrap();
    std::thread::sleep(Duration::from_millis(5));
    let small = client.send(MODEL, Request::new(Tensor::full(&[1, 1, 1, 2], 2.0))).unwrap();
    let large = client.send(MODEL, Request::new(Tensor::full(&[1, 1, 2, 2], 3.0))).unwrap();
    let _ = warmup.wait().unwrap();
    let small = small.wait().unwrap();
    let large = large.wait().unwrap();
    assert_eq!(small.batch_samples, 1, "mixed sizes must not coalesce");
    assert_eq!(small.output.shape(), &[1, 1, 1, 2]);
    assert_eq!(small.output.as_slice(), &[2.0, 2.0]);
    assert_eq!(large.batch_samples, 1);
    assert_eq!(large.output.as_slice(), &[3.0; 4]);
    let _ = shutdown(router);
}
