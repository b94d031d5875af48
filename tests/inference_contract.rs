//! What inference may rely on, whatever the model:
//!
//! * an eval-mode forward caches nothing — on every configuration of the model
//!   zoo and on the auto-built quadratic ResNet-20;
//! * row `i` of a batched eval forward is **bitwise** the batch-1 forward of
//!   sample `i`, on any pool size — the kernels pick their path and their
//!   summation order from the layer geometry alone, never from the batch, the
//!   thread count or a fork decision. The repo benchmark compares served and
//!   batched outputs against batch-1 forwards on an untrained quadratic
//!   ResNet-20 that amplifies single ulps, so this is a contract, not a
//!   tolerance.

use quadralib::core::{build_model, AutoBuilder, ModelConfig, NeuronType};
use quadralib::models::{
    mobilenet_v1_config, resnet20_config, resnet32_config, vgg11_config, vgg16_config, vgg8_config,
};
use quadralib::nn::{Layer, Sequential};
use quadralib::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPool;

fn quadratic(config: &ModelConfig) -> ModelConfig {
    AutoBuilder::new(NeuronType::Ours).convert(config)
}

#[test]
fn eval_forwards_cache_nothing_on_every_zoo_config() {
    let zoo = [
        mobilenet_v1_config(2, 0.25, 3, 16, 10),
        resnet20_config(4, 10, 16),
        resnet32_config(4, 10, 16),
        vgg8_config(0.125, 10, 16),
        vgg11_config(0.125, 10, 16),
        vgg16_config(0.125, 10, 16),
        quadratic(&resnet20_config(4, 10, 16)),
    ];
    for config in zoo {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = build_model(&config, &mut rng);
        let x = Tensor::randn(
            &[2, config.input_channels, config.image_size, config.image_size],
            0.0,
            1.0,
            &mut rng,
        );
        let _ = model.forward(&x, false);
        assert_eq!(model.cached_bytes(), 0, "{}: eval forward left a cache", config.name);
        // The counter is live (a training forward fills it) and an eval
        // forward drops what training left behind.
        let _ = model.forward(&x, true);
        assert!(model.cached_bytes() > 0, "{}: training forward cached nothing", config.name);
        let _ = model.forward(&x, false);
        assert_eq!(model.cached_bytes(), 0, "{}: eval forward kept a training cache", config.name);
    }
}

/// The three served models of the repo benchmark, batch-norm statistics
/// settled by a few training passes.
fn benchmark_models() -> Vec<(&'static str, Sequential)> {
    let resnet = resnet20_config(8, 10, 16);
    [
        ("mobilenet", mobilenet_v1_config(5, 0.25, 3, 16, 10)),
        ("quadra_resnet20", quadratic(&resnet)),
        ("resnet20", resnet),
    ]
    .into_iter()
    .map(|(name, config)| {
        let mut model = build_model(&config, &mut StdRng::seed_from_u64(11));
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..24 {
            let _ = model.forward(&Tensor::randn(&[8, 3, 16, 16], 0.0, 1.0, &mut rng), true);
        }
        model.clear_cache();
        (name, model)
    })
    .collect()
}

/// Eight seeded images `model` answers finitely and moderately, as one batch:
/// an untrained quadratic stack overflows `f32` on a few percent of random
/// inputs, and NaN rows would make the comparison below vacuous.
fn sane_batch(model: &mut Sequential, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    while rows.len() < 8 {
        let x = Tensor::randn(&[1, 3, 16, 16], 0.0, 1.0, &mut rng);
        if model.forward(&x, false).as_slice().iter().all(|v| v.abs() < 100.0) {
            rows.push(x);
        }
    }
    Tensor::concat(&rows.iter().collect::<Vec<_>>(), 0).expect("rows share a shape")
}

#[test]
fn batched_rows_are_bitwise_the_batch_one_forwards_on_every_pool_size() {
    for (name, mut model) in benchmark_models() {
        let batch = sane_batch(&mut model, 21);
        let mut across_pools: Option<Tensor> = None;
        for threads in [1, 2, 4] {
            ThreadPool::new(threads).install(|| {
                let batched = model.forward(&batch, false);
                assert!(!batched.has_non_finite(), "{name}: non-finite output");
                assert!(batched.as_slice().iter().any(|v| v.abs() > 1e-6), "{name}: degenerate output");
                for i in 0..8 {
                    let single = model.forward(&batch.narrow(0, i, 1).expect("row"), false);
                    let row = batched.narrow(0, i, 1).expect("row");
                    assert_eq!(row.as_slice(), single.as_slice(), "{name}: row {i}, {threads} threads");
                }
                match &across_pools {
                    None => across_pools = Some(batched),
                    Some(first) => {
                        assert_eq!(first.as_slice(), batched.as_slice(), "{name}: {threads} threads")
                    }
                }
            });
        }
    }
}
