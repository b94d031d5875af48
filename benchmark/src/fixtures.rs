//! The models, inputs and serving configuration the workloads share.
//!
//! Model weights come from fixed seeds — `--seed` drives only generated
//! inputs and arrival times, so every seed measures the same program.

use quadra_core::{build_model, AutoBuilder, LayerSpec, ModelConfig, NeuronType};
use quadra_models::{mobilenet_v1_config, resnet20_config};
use quadra_nn::{Layer, Linear, Relu, Sequential, StateDict};
use quadra_serve::{AdmissionPolicy, BatchPolicy, ServeConfig};
use quadra_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// Seed of every model's weights (the one the shipped gateway binary uses).
pub const MODEL_SEED: u64 = 11;
/// Side length of the images the served conv models take.
pub const FLEET_IMAGE: usize = 16;
/// Distinct seeded inputs per endpoint; replies are checked against the
/// direct forward of the input they carried.
pub const POOL_SIZE: usize = 64;
/// Largest tolerated difference between a served and a direct output.
pub const OUTPUT_TOL: f32 = 1e-4;
/// Train-mode passes that settle batch-norm running statistics before a
/// model is used in eval mode (an untrained quadratic stack otherwise
/// collapses to zeros and every output check would pass vacuously).
const CALIBRATION_PASSES: usize = 24;

/// The 4-stage quadratic CNN of `train_quadra`.
pub fn train_cnn_config() -> ModelConfig {
    let q = |c| LayerSpec::qconv3x3(NeuronType::Ours, c);
    let pool = || LayerSpec::MaxPool { kernel: 2 };
    ModelConfig::new(
        "quadra-cnn4",
        3,
        32,
        10,
        vec![
            q(16),
            pool(),
            q(32),
            pool(),
            q(64),
            pool(),
            q(128),
            LayerSpec::GlobalAvgPool,
            LayerSpec::Linear { out_features: 10, relu: false },
        ],
    )
}

/// MobileNetV1, 0.25x width, 5 depth-wise pairs, 16x16 input.
pub fn mobilenet_config() -> ModelConfig {
    mobilenet_v1_config(5, 0.25, 3, FLEET_IMAGE, 10)
}

/// ResNet-20, base width 8, 16x16 input.
pub fn resnet20_config_w8() -> ModelConfig {
    resnet20_config(8, 10, FLEET_IMAGE)
}

/// ResNet-20 with every convolution replaced by the paper's quadratic neuron.
pub fn quadra_resnet20_config() -> ModelConfig {
    AutoBuilder::new(NeuronType::Ours).convert(&resnet20_config_w8())
}

/// Layer widths of the gateway's MLP (`mlp:64x32x10`).
pub const MLP_WIDTHS: [usize; 3] = [64, 32, 10];

/// The ReLU MLP the shipped `quadra-gateway` binary serves by default.
pub fn build_mlp() -> Sequential {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for (i, pair) in MLP_WIDTHS.windows(2).enumerate() {
        if i > 0 {
            layers.push(Box::new(Relu::new()));
        }
        layers.push(Box::new(Linear::new(pair[0], pair[1], true, &mut rng)));
    }
    Sequential::new(layers)
}

/// Build a conv model from its config and settle its batch-norm statistics.
pub fn build_calibrated(config: &ModelConfig) -> Sequential {
    let mut model = build_model(config, &mut StdRng::seed_from_u64(MODEL_SEED));
    let mut rng = StdRng::seed_from_u64(MODEL_SEED + 1);
    let shape = [8, config.input_channels, config.image_size, config.image_size];
    for _ in 0..CALIBRATION_PASSES {
        let x = Tensor::randn(&shape, 0.0, 1.0, &mut rng);
        let _ = model.forward(&x, true);
    }
    model.clear_cache();
    model
}

/// A replica factory for `quadra-serve`: rebuilds the model from its config
/// on the worker thread and loads the calibrated state into it.
pub fn replica_factory(
    config: ModelConfig,
    state: Arc<StateDict>,
) -> impl Fn() -> Box<dyn Layer> + Send + Sync + 'static {
    move || {
        let mut model = build_model(&config, &mut StdRng::seed_from_u64(MODEL_SEED));
        state.load_into(&mut model).expect("state was taken from a model of the same config");
        Box::new(model)
    }
}

/// The serving configuration the shipped `quadra-gateway` binary uses:
/// `workers 2`, `max_batch 8`, `max_wait 2 ms` adaptive, `queue 256`.
pub fn pinned_serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        policy: BatchPolicy {
            max_batch_size: 8,
            max_wait: Duration::from_millis(2),
            adaptive_wait: true,
            ..BatchPolicy::default()
        },
        admission: AdmissionPolicy { queue_capacity: Some(256), ..AdmissionPolicy::default() },
        weight: 1,
    }
}

/// Seeded inputs a model answers sanely, with its direct eval-mode outputs.
pub struct Pool {
    /// Single-sample inputs, shape `[1, ...]`.
    pub inputs: Vec<Tensor>,
    /// `model.forward(input, false)` of each input: what replies are compared against.
    pub outputs: Vec<Tensor>,
}

/// Draw standard-normal single-sample inputs from `seed` until `count` of
/// them have a finite, moderate output under `model`. An untrained quadratic
/// stack is heavy-tailed — a few percent of random images overflow `f32` —
/// and the workloads are to be ones on which no operation fails, so those
/// inputs are passed over.
pub fn checked_pool(seed: u64, count: usize, sample_shape: &[usize], model: &mut dyn Layer) -> Pool {
    const OUTPUT_CEILING: f32 = 100.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = Pool { inputs: Vec::with_capacity(count), outputs: Vec::with_capacity(count) };
    for _ in 0..count * 20 {
        if pool.inputs.len() == count {
            break;
        }
        let x = Tensor::randn(sample_shape, 0.0, 1.0, &mut rng);
        let y = model.forward(&x, false);
        if y.as_slice().iter().all(|v| v.abs() < OUTPUT_CEILING) {
            pool.inputs.push(x);
            pool.outputs.push(y);
        }
    }
    model.clear_cache();
    assert_eq!(pool.inputs.len(), count, "the model overflows on nearly every input");
    pool
}

/// Whether `got` equals `want` within [`OUTPUT_TOL`], with every value finite.
pub fn outputs_match(got: &Tensor, want: &Tensor) -> bool {
    got.shape() == want.shape() && !got.has_non_finite() && got.allclose(want, OUTPUT_TOL)
}

/// Floating-point operations of one forward pass of `config` at batch size 1,
/// computed from shapes: two per multiply-accumulate `estimate_flops` counts.
pub fn flops_per_sample(config: &ModelConfig) -> f64 {
    2.0 * quadra_core::estimate_flops(config) as f64
}

/// Compulsory bytes of one forward pass at batch size `batch`, computed from
/// shapes: every conv / linear layer reads its input and weights and writes
/// its output once, 4 bytes per value. Not a measurement.
pub fn bytes_per_forward(config: &ModelConfig, batch: usize) -> f64 {
    use quadra_core::{advance_geometry, estimate_costs, Geometry};
    let mut geom = Geometry { channels: config.input_channels, spatial: config.image_size, flat: false };
    let mut values = 0.0f64;
    for (spec, cost) in config.layers.iter().zip(estimate_costs(config)) {
        let next = advance_geometry(spec, geom);
        if cost.flops > 0 {
            values += batch as f64 * (geom.features() + next.features()) as f64 + cost.params as f64;
        }
        geom = next;
    }
    values * 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_quadratic_resnet_is_not_degenerate_and_state_round_trips() {
        let config = quadra_resnet20_config();
        let mut model = build_calibrated(&config);
        let pool = checked_pool(3, 4, &[1, 3, FLEET_IMAGE, FLEET_IMAGE], &mut model);
        assert!(pool.outputs.iter().all(|y| !y.has_non_finite()));
        assert!(pool.outputs[0].as_slice().iter().any(|v| v.abs() > 1e-6), "outputs collapsed to zero");
        let state = Arc::new(StateDict::from_layer(&model));
        let mut replica = replica_factory(config, state)();
        let got = replica.forward(&pool.inputs[1], false);
        assert!(outputs_match(&got, &pool.outputs[1]));
    }

    #[test]
    fn computed_costs_are_positive_and_scale_with_batch() {
        let c = train_cnn_config();
        assert!(flops_per_sample(&c) > 2e6);
        assert!(bytes_per_forward(&c, 16) > bytes_per_forward(&c, 1));
    }
}
