//! Quadratic 2-D convolution layers — the encapsulated quadratic layer modules
//! of QuadraLib (`qua.type#()` in the paper's API), generalised to every
//! practical neuron type.
//!
//! T1 and T1&2 are deliberately *not* offered as convolution layers: their
//! full-rank bilinear weight is a `C·r⁴·N·C` tensor (problem **P2**), which the
//! paper reports blowing a 0.2 M-parameter ResNet up to 128 M parameters — the
//! very reason those designs are impractical for deep models. Requesting one
//! panics with an explanatory message.

use crate::hybrid_bp::BackpropMode;
use crate::neuron::{Branches, FirstOrder, NeuronType, Products};
use quadra_nn::{Layer, Param};
use quadra_tensor::{Conv2dParams, InitKind, Tensor};
use rand::Rng;

/// A quadratic convolution layer over NCHW tensors.
///
/// For the proposed design ("Ours") the forward pass is
/// `Y = conv(X, Wa) ∘ conv(X, Wb) + conv(X, Wc) + b`, i.e. three ordinary
/// convolutions plus element-wise arithmetic — which is why it is as
/// implementation-friendly as a first-order layer (design insight 4 of the
/// paper). The other supported types drop or alter individual branches.
pub struct QuadraticConv2d {
    branches: Branches,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    conv: Conv2dParams,
}

impl QuadraticConv2d {
    /// Create a quadratic convolution layer.
    ///
    /// # Panics
    /// Panics for the designs with a bilinear term, T1 and T1&2 (see module
    /// docs), and for T4+Identity when the configuration would change the
    /// tensor shape (identity mapping requires equal input/output shape).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        neuron_type: NeuronType,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        groups: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let form = neuron_type.form();
        assert!(
            !form.bilinear,
            "{} convolution is not supported: its full-rank bilinear weight is O(n^2) per neuron \
             (problem P2 in the paper) and cannot be assembled from first-order convolutions (P4)",
            neuron_type.name()
        );
        if form.first == FirstOrder::Identity {
            assert!(
                in_channels == out_channels && stride == 1 && padding * 2 + 1 == kernel,
                "{} requires shape-preserving convolution (in==out channels, stride 1, 'same' padding)",
                neuron_type.name()
            );
        }
        let fan_in = (in_channels / groups) * kernel * kernel;
        let fan_out = (out_channels / groups) * kernel * kernel;
        let shape = [out_channels, in_channels / groups, kernel, kernel];
        QuadraticConv2d {
            branches: Branches::new(neuron_type, "qconv", out_channels, |_| {
                Tensor::init(&shape, InitKind::KaimingNormal, fan_in, fan_out, rng)
            }),
            in_channels,
            out_channels,
            kernel,
            conv: Conv2dParams::new(stride, padding, groups),
        }
    }

    /// Standard 3×3 shape-preserving quadratic convolution.
    pub fn conv3x3(
        neuron_type: NeuronType,
        in_channels: usize,
        out_channels: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self::new(neuron_type, in_channels, out_channels, 3, 1, 1, 1, rng)
    }

    /// The neuron design of this layer.
    pub fn neuron_type(&self) -> NeuronType {
        self.branches.neuron_type()
    }

    /// Select the back-propagation mode.
    pub fn set_mode(&mut self, mode: BackpropMode) {
        self.branches.set_mode(mode);
    }

    /// The current back-propagation mode.
    pub fn mode(&self) -> BackpropMode {
        self.branches.mode()
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Convolution hyper-parameters.
    pub fn conv_params(&self) -> Conv2dParams {
        self.conv
    }
}

/// Convolutions: the branches on `x` share one lowering of it per sample,
/// forward and backward.
impl Products for Conv2dParams {
    fn forward(&self, x: &Tensor, weights: &[&Tensor]) -> Vec<Tensor> {
        x.conv2d_multi(weights, *self).expect("conv shapes")
    }

    fn backward(&self, grads: &[&Tensor], weights: &[&Tensor], x: &Tensor) -> (Tensor, Vec<Tensor>) {
        let grad_in =
            Tensor::conv2d_backward_input_multi(grads, weights, x.shape(), *self).expect("conv input grad");
        let shape = weights.first().map_or(&[][..], |w| w.shape());
        let grad_w = Tensor::conv2d_backward_weight_multi(grads, x, shape, *self).expect("conv weight grad");
        (grad_in, grad_w)
    }

    fn bias_grad(&self, grad_out: &Tensor) -> Tensor {
        Tensor::conv2d_backward_bias(grad_out).expect("bias grad")
    }
}

impl Layer for QuadraticConv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.ndim(), 4, "QuadraticConv2d expects NCHW input");
        self.branches.forward(&self.conv, x, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.branches.backward(&self.conv, grad_out)
    }

    fn params(&self) -> Vec<&Param> {
        self.branches.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.branches.params_mut()
    }

    fn cached_bytes(&self) -> usize {
        self.branches.cached_bytes()
    }

    fn clear_cache(&mut self) {
        self.branches.clear_cache();
    }

    fn flops_last_forward(&self) -> usize {
        self.branches.flops()
    }

    fn set_memory_saving(&mut self, enabled: bool) {
        self.set_mode(if enabled { BackpropMode::Hybrid } else { BackpropMode::Default });
    }

    fn memory_saving(&self) -> bool {
        self.mode() == BackpropMode::Hybrid
    }

    fn layer_type(&self) -> &'static str {
        "quadratic_conv2d"
    }

    fn describe(&self) -> String {
        format!(
            "quadratic_conv2d[{}] {}→{} k{} ({} params, {})",
            self.neuron_type().name(),
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.param_count(),
            self.mode()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadra_autograd::{check_close, numeric_gradient};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(44)
    }

    const CONV_TYPES: [NeuronType; 6] = [
        NeuronType::T2,
        NeuronType::T3,
        NeuronType::T4,
        NeuronType::T4Identity,
        NeuronType::T2And4,
        NeuronType::Ours,
    ];

    /// The value of the parameter called `name`.
    fn weight(layer: &QuadraticConv2d, name: &str) -> Tensor {
        layer.params().into_iter().find(|p| p.name == name).expect(name).value.clone()
    }

    /// Reference forward used by the finite-difference checks, spelled out
    /// per type from the paper's formulas.
    fn reference_forward(layer: &QuadraticConv2d, x: &Tensor) -> Tensor {
        let conv = |x: &Tensor, name: &str| x.conv2d(&weight(layer, name), None, layer.conv).unwrap();
        let out = match layer.neuron_type() {
            NeuronType::T2 => conv(&x.square(), "qconv.wa"),
            NeuronType::T3 => conv(x, "qconv.wa").square(),
            NeuronType::T4 => conv(x, "qconv.wa").mul(&conv(x, "qconv.wb")).unwrap(),
            NeuronType::T4Identity => conv(x, "qconv.wa").mul(&conv(x, "qconv.wb")).unwrap().add(x).unwrap(),
            NeuronType::T2And4 => conv(x, "qconv.wa")
                .mul(&conv(x, "qconv.wb"))
                .unwrap()
                .add(&conv(&x.square(), "qconv.wc"))
                .unwrap(),
            NeuronType::Ours => {
                conv(x, "qconv.wa").mul(&conv(x, "qconv.wb")).unwrap().add(&conv(x, "qconv.wc")).unwrap()
            }
            _ => unreachable!(),
        };
        let bias = weight(layer, "qconv.bias").reshape(&[1, layer.out_channels, 1, 1]).unwrap();
        out.add(&bias).unwrap()
    }

    #[test]
    fn forward_matches_reference_for_all_conv_types() {
        let mut r = rng();
        for t in CONV_TYPES {
            let mut layer = QuadraticConv2d::conv3x3(t, 2, 2, &mut r);
            let x = Tensor::randn(&[2, 2, 6, 6], 0.0, 1.0, &mut r);
            let y = layer.forward(&x, true);
            assert!(y.allclose(&reference_forward(&layer, &x), 1e-4), "type {}", t);
            assert_eq!(y.shape(), &[2, 2, 6, 6]);
            assert!(layer.flops_last_forward() > 0);
        }
    }

    const MODES: [BackpropMode; 2] = [BackpropMode::Default, BackpropMode::Hybrid];

    /// A layer of type `t`, its input and a random upstream gradient, after
    /// one training forward + backward in `mode`: `(layer, x, probe, grad_in)`.
    fn stepped(t: NeuronType, mode: BackpropMode, seed: u64) -> (QuadraticConv2d, Tensor, Tensor, Tensor) {
        let mut r = StdRng::seed_from_u64(seed);
        let mut layer = QuadraticConv2d::conv3x3(t, 2, 2, &mut r);
        layer.set_mode(mode);
        let x = Tensor::randn(&[2, 2, 4, 4], 0.0, 1.0, &mut r);
        let probe = Tensor::randn(&[2, 2, 4, 4], 0.0, 1.0, &mut r);
        let y = layer.forward(&x, true);
        assert_eq!(y.shape(), probe.shape());
        let grad_in = layer.backward(&probe);
        (layer, x, probe, grad_in)
    }

    /// The scalar the gradchecks differentiate: `<reference_forward(x), probe>`.
    fn probe_loss(layer: &QuadraticConv2d, x: &Tensor, probe: &Tensor) -> f32 {
        reference_forward(layer, x).mul(probe).unwrap().sum()
    }

    // The shared lowering must not drift from the paper's semantics: the input
    // gradient and every weight gradient of every neuron type, under default
    // and hybrid BP, against central differences of the reference forward.

    #[test]
    fn backward_input_gradcheck_all_conv_types() {
        for t in CONV_TYPES {
            for mode in MODES {
                let (layer, x, probe, grad_in) = stepped(t, mode, 44);
                let numeric = numeric_gradient(|xv| probe_loss(&layer, xv, &probe), &x, 1e-2);
                let rep = check_close(&grad_in, &numeric);
                assert!(rep.passes(8e-2), "type {t} {mode}: {rep:?}");
            }
        }
    }

    #[test]
    fn backward_weight_gradcheck_all_conv_types() {
        for t in CONV_TYPES {
            for mode in MODES {
                let (layer, x, probe, _) = stepped(t, mode, 44);
                let analytic: Vec<Tensor> = layer.params().iter().map(|p| p.grad.clone()).collect();
                let layer = std::cell::RefCell::new(layer);
                for (idx, analytic) in analytic.iter().enumerate() {
                    let w0 = layer.borrow().params()[idx].value.clone();
                    let wrt_param = |w: &Tensor| {
                        layer.borrow_mut().params_mut()[idx].value = w.clone();
                        probe_loss(&layer.borrow(), &x, &probe)
                    };
                    let numeric = numeric_gradient(wrt_param, &w0, 1e-2);
                    layer.borrow_mut().params_mut()[idx].value = w0;
                    let rep = check_close(analytic, &numeric);
                    assert!(rep.passes(1e-1), "param {idx}, type {t} {mode}: {rep:?}");
                }
            }
        }
    }

    #[test]
    fn hybrid_mode_identical_gradients_lower_memory() {
        // Hybrid BP recomputes za, zb with the forward's own lowering and
        // products, so nothing about the step may differ — not by an ulp.
        for t in CONV_TYPES {
            let (d, _, _, gd) = stepped(t, BackpropMode::Default, 7);
            let (h, _, _, gh) = stepped(t, BackpropMode::Hybrid, 7);
            assert_eq!(gd.as_slice(), gh.as_slice(), "input grad, type {t}");
            for (pd, ph) in d.params().iter().zip(h.params()) {
                assert_eq!(pd.value.as_slice(), ph.value.as_slice());
                assert_eq!(pd.grad.as_slice(), ph.grad.as_slice(), "{} grad, type {t}", pd.name);
            }
        }
        let mut r = rng();
        let mut d = QuadraticConv2d::conv3x3(NeuronType::Ours, 3, 4, &mut r);
        let mut h = QuadraticConv2d::conv3x3(NeuronType::Ours, 3, 4, &mut r);
        for (pd, ph) in d.params().iter().zip(h.params_mut()) {
            ph.value.copy_from(&pd.value).unwrap();
        }
        h.set_mode(BackpropMode::Hybrid);
        let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        assert_eq!(d.forward(&x, true).as_slice(), h.forward(&x, true).as_slice());
        // Default caches x + za + zb; hybrid only x.
        assert_eq!(h.cached_bytes(), x.nbytes());
        assert_eq!(d.cached_bytes(), x.nbytes() + 2 * 2 * 4 * 8 * 8 * 4);
    }

    #[test]
    fn eval_forward_caches_nothing_and_matches_training_forward() {
        let mut r = rng();
        for t in CONV_TYPES {
            let mut layer = QuadraticConv2d::conv3x3(t, 2, 2, &mut r);
            let x = Tensor::randn(&[3, 2, 5, 5], 0.0, 1.0, &mut r);
            let trained = layer.forward(&x, true);
            assert!(layer.cached_bytes() > 0);
            let served = layer.forward(&x, false);
            assert_eq!(layer.cached_bytes(), 0, "type {t}");
            assert_eq!(served.as_slice(), trained.as_slice(), "type {t}");
        }
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_after_eval_forward_fails() {
        let mut r = rng();
        let mut layer = QuadraticConv2d::conv3x3(NeuronType::Ours, 2, 2, &mut r);
        let y = layer.forward(&Tensor::randn(&[1, 2, 4, 4], 0.0, 1.0, &mut r), false);
        layer.backward(&Tensor::ones_like(&y));
    }

    #[test]
    fn ours_conv_param_count_is_three_first_order_convs() {
        let mut r = rng();
        let layer = QuadraticConv2d::conv3x3(NeuronType::Ours, 16, 32, &mut r);
        let first_order = 32 * 16 * 9;
        assert_eq!(layer.param_count(), 3 * first_order + 32);
        assert_eq!(layer.neuron_type(), NeuronType::Ours);
        assert_eq!(layer.in_channels(), 16);
        assert_eq!(layer.out_channels(), 32);
        assert_eq!(layer.kernel(), 3);
        assert_eq!(layer.layer_type(), "quadratic_conv2d");
        assert!(layer.describe().contains("Ours"));
    }

    #[test]
    fn strided_and_grouped_quadratic_conv() {
        let mut r = rng();
        let mut layer = QuadraticConv2d::new(NeuronType::Ours, 4, 8, 3, 2, 1, 2, &mut r);
        let x = Tensor::randn(&[1, 4, 8, 8], 0.0, 1.0, &mut r);
        let y = layer.forward(&x, true);
        assert_eq!(y.shape(), &[1, 8, 4, 4]);
        let gin = layer.backward(&Tensor::ones_like(&y));
        assert_eq!(gin.shape(), x.shape());
        assert!(!gin.has_non_finite());
        assert_eq!(layer.conv_params().groups, 2);
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn t1_conv_is_rejected() {
        let mut r = rng();
        let _ = QuadraticConv2d::conv3x3(NeuronType::T1, 2, 2, &mut r);
    }

    #[test]
    #[should_panic]
    fn t4_identity_requires_shape_preserving_config() {
        let mut r = rng();
        let _ = QuadraticConv2d::new(NeuronType::T4Identity, 2, 4, 3, 1, 1, 1, &mut r);
    }

    #[test]
    fn cache_lifecycle() {
        let mut r = rng();
        let mut layer = QuadraticConv2d::conv3x3(NeuronType::T2, 1, 1, &mut r);
        let x = Tensor::randn(&[1, 1, 4, 4], 0.0, 1.0, &mut r);
        let _ = layer.forward(&x, true);
        assert!(layer.cached_bytes() > 0);
        layer.clear_cache();
        assert_eq!(layer.cached_bytes(), 0);
        assert_eq!(layer.mode(), BackpropMode::Default);
    }
}
