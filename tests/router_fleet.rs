//! Acceptance surface of the routing engine: a router serving two real
//! architectures (MobileNetV1 + ResNet-20) concurrently must return
//! bitwise-identical outputs to direct per-model forward calls, and
//! hot-reloading one endpoint must not disturb the other.
//!
//! Follows the repo convention: a shrunk default test plus the full-length
//! variant behind `#[ignore]` for the non-blocking CI job.

use quadralib::core::{build_model, ModelConfig};
use quadralib::models::{mobilenet_v1_config, resnet20_config};
use quadralib::nn::{Layer, StateDict};
use quadralib::serve::{BatchPolicy, Priority, Request, Router, ServeConfig, ServeError};
use quadralib::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn fleet_configs(image: usize) -> Vec<(&'static str, ModelConfig, u64)> {
    vec![
        ("mobilenet", mobilenet_v1_config(2, 0.25, 3, image, 4), 11),
        ("resnet", resnet20_config(4, 4, image), 22),
    ]
}

fn router_fleet(image: usize, n_serve: usize) {
    let specs = fleet_configs(image);
    let mut builder = Router::builder();
    for (name, config, seed) in &specs {
        let (config, seed) = (config.clone(), *seed);
        builder = builder.endpoint(
            name,
            ServeConfig {
                workers: 2,
                policy: BatchPolicy {
                    max_batch_size: 4,
                    max_wait: Duration::from_millis(2),
                    ..BatchPolicy::default()
                },
                ..ServeConfig::default()
            },
            move || Box::new(build_model(&config, &mut StdRng::seed_from_u64(seed))),
        );
    }
    let router = builder.start().unwrap();
    assert_eq!(router.models(), vec!["mobilenet".to_string(), "resnet".to_string()]);

    // Ground truth: direct forwards of identically seeded models.
    let mut rng = StdRng::seed_from_u64(5);
    let inputs: Vec<Tensor> =
        (0..n_serve).map(|_| Tensor::randn(&[1, 3, image, image], 0.0, 1.0, &mut rng)).collect();
    let mut expected: Vec<Vec<Tensor>> = Vec::new();
    for (_, config, seed) in &specs {
        let mut model = build_model(config, &mut StdRng::seed_from_u64(*seed));
        expected.push(inputs.iter().map(|x| model.forward(x, false)).collect());
    }

    // 1. Both architectures served concurrently from multiple client threads:
    //    bitwise-identical to the direct forwards, under mixed priorities.
    let handles: Vec<_> = specs
        .iter()
        .enumerate()
        .flat_map(|(mi, (name, _, _))| (0..2).map(move |t| (mi, *name, t)))
        .map(|(mi, name, t)| {
            let client = router.client();
            let inputs = inputs.clone();
            let expected: Vec<Tensor> = expected[mi].clone();
            std::thread::spawn(move || {
                let priority = if t == 0 { Priority::Interactive } else { Priority::Batch };
                for (i, x) in inputs.iter().enumerate() {
                    let response = client
                        .send(name, Request::new(x.clone()).priority(priority))
                        .unwrap()
                        .wait()
                        .unwrap();
                    assert_eq!(response.model, name);
                    assert_eq!(response.model_version, 0);
                    assert_eq!(
                        response.output.as_slice(),
                        expected[i].as_slice(),
                        "served {name} prediction {i} diverged from direct forward"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // 2. Hot-reload ONE endpoint (differently seeded MobileNet weights): its
    //    outputs must switch bitwise, the other endpoint must be untouched.
    let retrained_config = specs[0].1.clone();
    let mut retrained = build_model(&retrained_config, &mut StdRng::seed_from_u64(77));
    let version = router.reload("mobilenet", StateDict::from_layer(&retrained)).unwrap();
    assert_eq!(version, 1);
    assert_eq!(router.version("mobilenet").unwrap(), 1);
    assert_eq!(router.version("resnet").unwrap(), 0, "reload of one endpoint must not touch another");
    assert!(matches!(
        router.reload("missing", StateDict::from_layer(&retrained)),
        Err(ServeError::UnknownModel(_))
    ));

    let client = router.client();
    for (i, x) in inputs.iter().enumerate() {
        let mobile = client.infer("mobilenet", x.clone()).unwrap();
        assert_eq!(mobile.model_version, 1);
        let fresh = retrained.forward(x, false);
        assert_eq!(mobile.output.as_slice(), fresh.as_slice(), "reloaded mobilenet output {i}");
        assert_ne!(
            mobile.output.as_slice(),
            expected[0][i].as_slice(),
            "reload must actually change the served weights"
        );
        let res = client.infer("resnet", x.clone()).unwrap();
        assert_eq!(res.model_version, 0);
        assert_eq!(
            res.output.as_slice(),
            expected[1][i].as_slice(),
            "resnet output {i} disturbed by the mobilenet reload"
        );
    }

    // 3. Per-model metrics: each endpoint accounted separately.
    let metrics = router.shutdown();
    let mobile = metrics.get("mobilenet").unwrap();
    let resnet = metrics.get("resnet").unwrap();
    assert_eq!(mobile.completed_requests as usize, 2 * n_serve + n_serve);
    assert_eq!(resnet.completed_requests as usize, 2 * n_serve + n_serve);
    assert_eq!(mobile.reloads, 1);
    assert_eq!(resnet.reloads, 0);
    assert_eq!(mobile.model_version, 1);
    assert_eq!(resnet.model_version, 0);
    assert_eq!(mobile.errored_requests + resnet.errored_requests, 0);
    assert!(mobile.completed_batch_class >= 1, "mixed priorities exercised");
    assert_eq!(metrics.total_completed_requests(), mobile.completed_requests + resnet.completed_requests);
}

#[test]
fn router_serves_two_architectures_bitwise_and_reloads_independently() {
    router_fleet(8, 6);
}

#[test]
#[ignore = "full-length variant of router_serves_two_architectures_bitwise_and_reloads_independently"]
fn router_serves_two_architectures_bitwise_and_reloads_independently_full() {
    router_fleet(16, 24);
}
