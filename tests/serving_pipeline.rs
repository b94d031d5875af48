//! End-to-end serving pipeline: train a toy BatchNorm CNN, checkpoint it to
//! disk, hot-reload it into a running inference server, and prove the served
//! predictions are bitwise-identical to direct `forward` calls.
//!
//! This is the regression surface for the two eval-path bugs the serving
//! subsystem exposed: checkpoints dropping BatchNorm running statistics, and
//! batch coalescing changing predictions.
//!
//! Follows the repo convention: a shrunk default test plus the full-length
//! variant behind `#[ignore]` for the non-blocking CI job.

use quadralib::core::{build_model, LayerSpec, ModelConfig};
use quadralib::data::ShapeImageDataset;
use quadralib::nn::{ConstantLr, CrossEntropyLoss, Layer, Sgd, StateDict, Trainer, TrainerConfig};
use quadralib::serve::{BatchPolicy, Request, Router, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Endpoint name the toy model is served under.
const MODEL: &str = "toy";

fn toy_config() -> ModelConfig {
    ModelConfig::new(
        "serving-toy",
        3,
        8,
        4,
        vec![
            LayerSpec::Conv {
                out_channels: 6,
                kernel: 3,
                stride: 1,
                padding: 1,
                groups: 1,
                batch_norm: true,
                relu: true,
            },
            LayerSpec::Conv {
                out_channels: 8,
                kernel: 3,
                stride: 2,
                padding: 1,
                groups: 1,
                batch_norm: true,
                relu: true,
            },
            LayerSpec::GlobalAvgPool,
            LayerSpec::Linear { out_features: 4, relu: false },
        ],
    )
}

fn serving_pipeline(n_train: usize, epochs: usize, n_serve: usize) {
    // 1. Train a toy model whose eval path depends on BatchNorm running stats.
    let config = toy_config();
    let mut trained = build_model(&config, &mut StdRng::seed_from_u64(1));
    let data = ShapeImageDataset::generate(n_train, 4, 8, 3, 0.05, 2);
    let report =
        Trainer::new(TrainerConfig { epochs, batch_size: 16, verbose: false, ..TrainerConfig::default() })
            .fit(
                &mut trained,
                &CrossEntropyLoss::new(),
                &mut Sgd::plain(0.05),
                &ConstantLr::new(0.05),
                &data.images,
                &data.labels,
                None,
            );
    assert!(report.final_loss().is_finite());
    trained.clear_cache();

    // 2. Checkpoint to disk — running statistics must survive the round trip.
    let state = StateDict::from_layer(&trained);
    assert!(!state.buffers.is_empty(), "BatchNorm running stats must be captured");
    let path = std::env::temp_dir().join(format!("quadra_serving_pipeline_{}.json", n_train));
    state.save(&path).unwrap();
    let restored = StateDict::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // 3. Direct per-sample eval forwards are the ground truth.
    let eval = ShapeImageDataset::generate(n_serve, 4, 8, 3, 0.05, 3);
    let mut expected = Vec::with_capacity(n_serve);
    for i in 0..n_serve {
        let xi = eval.images.narrow(0, i, 1).unwrap();
        expected.push(trained.forward(&xi, false));
    }

    // 4. Serve from a *differently initialised* replica pool, hot-reloading
    //    the trained checkpoint into it.
    let router = Router::builder()
        .endpoint(
            MODEL,
            ServeConfig {
                workers: 2,
                policy: BatchPolicy {
                    max_batch_size: 4,
                    max_wait: Duration::from_millis(2),
                    ..BatchPolicy::default()
                },
                ..ServeConfig::default()
            },
            move || Box::new(build_model(&toy_config(), &mut StdRng::seed_from_u64(99))),
        )
        .start()
        .unwrap();
    let client = router.client();

    // Fresh factory weights (version 0) must NOT match the trained model —
    // otherwise the reload below would prove nothing.
    let fresh = client.infer(MODEL, eval.images.narrow(0, 0, 1).unwrap()).unwrap();
    assert_eq!(fresh.model_version, 0);
    assert_ne!(fresh.output.as_slice(), expected[0].as_slice());

    let version = router.reload(MODEL, restored).unwrap();
    assert_eq!(version, 1);

    // 5a. Concurrent single-sample clients: batched serving must reproduce
    //     the direct forwards bit for bit.
    let pending: Vec<_> = (0..n_serve)
        .map(|i| client.send(MODEL, Request::new(eval.images.narrow(0, i, 1).unwrap())).unwrap())
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        let response = p.wait().unwrap();
        assert_eq!(response.model_version, 1);
        assert_eq!(response.output.shape(), expected[i].shape());
        assert_eq!(
            response.output.as_slice(),
            expected[i].as_slice(),
            "served prediction for sample {} diverged from direct forward",
            i
        );
    }

    // 5b. A single multi-sample request (an oversized batch) must match the
    //     direct batch forward exactly as well.
    let direct_batch = trained.forward(&eval.images, false);
    let batched = client.infer(MODEL, eval.images.clone()).unwrap();
    assert_eq!(batched.batch_samples, n_serve);
    assert_eq!(batched.output.as_slice(), direct_batch.as_slice());

    let fleet = router.shutdown();
    let metrics = fleet.get(MODEL).unwrap();
    assert_eq!(metrics.completed_requests as usize, n_serve + 2);
    assert_eq!(metrics.errored_requests, 0);
    assert_eq!(metrics.reloads, 1);
    assert!(metrics.p95_latency_ms >= metrics.p50_latency_ms);
}

#[test]
fn served_predictions_match_direct_forward() {
    serving_pipeline(48, 2, 12);
}

#[test]
#[ignore = "full-length variant of served_predictions_match_direct_forward"]
fn served_predictions_match_direct_forward_full() {
    serving_pipeline(192, 5, 48);
}
