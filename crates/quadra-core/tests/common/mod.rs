//! The training setup of the repo benchmark's `train_quadra` workload.

use quadra_core::{LayerSpec, ModelConfig, NeuronType};
use quadra_nn::SgdConfig;

/// The 4-stage quadratic CNN: `(Wa·x) ∘ (Wb·x) + Wc·x` convolutions of 16,
/// 32, 64 and 128 channels with batch-norm and ReLU, a 2×2 max-pool after
/// each of the first three, global average pooling and a 10-way classifier,
/// on 3 × 32 × 32 images.
pub fn cnn() -> ModelConfig {
    let q = |c| LayerSpec::qconv3x3(NeuronType::Ours, c);
    let pool = || LayerSpec::MaxPool { kernel: 2 };
    let head = [LayerSpec::GlobalAvgPool, LayerSpec::Linear { out_features: 10, relu: false }];
    let layers = [q(16), pool(), q(32), pool(), q(64), pool(), q(128)].into_iter().chain(head).collect();
    ModelConfig::new("quadra-cnn4", 3, 32, 10, layers)
}

/// Its optimiser settings.
pub fn sgd() -> SgdConfig {
    SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4, nesterov: false }
}
