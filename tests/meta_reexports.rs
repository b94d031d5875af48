//! Integration test of the `quadralib` meta-crate: every member-crate
//! re-export must resolve, and a small quadratic forward/backward round-trip
//! must run entirely through the re-exported paths.

use quadralib::autograd::{check_close, numeric_gradient};
use quadralib::core::{BackpropMode, NeuronType, QuadraticLinear};
use quadralib::data::xor_dataset;
use quadralib::models::vgg8_config;
use quadralib::nn::Layer;
use quadralib::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Each of the six re-exported modules resolves and exposes its core API.
#[test]
fn all_reexports_resolve() {
    // tensor
    let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
    assert_eq!(t.shape(), &[2, 2]);

    // autograd: d(sum x)/dx is all ones
    let x = Tensor::from_slice(&[2.0, 3.0]);
    let numeric = numeric_gradient(|t| t.sum(), &x, 1e-2);
    assert!(check_close(&Tensor::ones_like(&x), &numeric).passes(1e-3));

    // nn: the Layer trait is the cross-crate contract quadratic layers build on
    let mut rng = StdRng::seed_from_u64(0);
    let mut linear = quadralib::nn::Linear::new(2, 3, true, &mut rng);
    assert_eq!(linear.forward(&t, false).shape(), &[2, 3]);

    // core
    assert_eq!(NeuronType::ALL.len(), 8);

    // data
    let (xs, ys) = xor_dataset(16, 0.05, 1);
    assert_eq!(xs.shape()[0], ys.numel());

    // models
    let cfg = vgg8_config(1.0, 10, 32);
    assert!(!cfg.layers.is_empty());

    // gateway: the wire codec round-trips through the re-exported paths
    let mut wire = Vec::new();
    quadralib::gateway::encode_frame(&quadralib::gateway::Frame::GoAway, &mut wire).unwrap();
    let decoded = quadralib::gateway::decode_frame(&wire, 1 << 20).unwrap().unwrap();
    assert_eq!(decoded.0, quadralib::gateway::Frame::GoAway);
    assert_eq!(decoded.1, wire.len());

    // meta-crate version constant
    assert!(!quadralib::VERSION.is_empty());
}

/// A tiny quadratic layer round-trips forward and backward through the
/// meta-crate paths, in both default and hybrid back-propagation modes.
#[test]
fn quadratic_forward_backward_roundtrip() {
    let mut rng = StdRng::seed_from_u64(7);
    let x = Tensor::randn(&[4, 6], 0.0, 1.0, &mut rng);

    for mode in [BackpropMode::Default, BackpropMode::Hybrid] {
        let mut layer = QuadraticLinear::new(NeuronType::Ours, 6, 5, &mut rng);
        layer.set_mode(mode);
        let y = layer.forward(&x, true);
        assert_eq!(y.shape(), &[4, 5]);
        assert!(!y.has_non_finite());

        let gx = layer.backward(&Tensor::ones_like(&y));
        assert_eq!(gx.shape(), x.shape());
        assert!(!gx.has_non_finite());
        assert!(
            layer.params().iter().all(|p| p.grad.as_slice().iter().any(|&v| v != 0.0)),
            "every parameter should receive gradient in mode {mode:?}"
        );
    }
}
