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
use crate::neuron::NeuronType;
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
    neuron_type: NeuronType,
    mode: BackpropMode,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    conv: Conv2dParams,
    wa: Option<Param>,
    wb: Option<Param>,
    wc: Option<Param>,
    bias: Param,
    // Caches.
    cached_x: Option<Tensor>,
    cached_za: Option<Tensor>,
    cached_zb: Option<Tensor>,
    flops: usize,
}

impl QuadraticConv2d {
    /// Create a quadratic convolution layer.
    ///
    /// # Panics
    /// Panics for [`NeuronType::T1`] / [`NeuronType::T1And2`] (see module docs)
    /// and for [`NeuronType::T4Identity`] when the configuration would change
    /// the tensor shape (identity mapping requires equal input/output shape).
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
        assert!(
            !matches!(neuron_type, NeuronType::T1 | NeuronType::T1And2),
            "{} convolution is not supported: its full-rank bilinear weight is O(n^2) per neuron \
             (problem P2 in the paper) and cannot be assembled from first-order convolutions (P4)",
            neuron_type.name()
        );
        if neuron_type == NeuronType::T4Identity {
            assert!(
                in_channels == out_channels && stride == 1 && padding * 2 + 1 == kernel,
                "T4+Identity requires shape-preserving convolution (in==out channels, stride 1, 'same' padding)"
            );
        }
        let fan_in = (in_channels / groups) * kernel * kernel;
        let fan_out = (out_channels / groups) * kernel * kernel;
        let mut mk = |name: &str| {
            Param::new(
                name,
                Tensor::init(
                    &[out_channels, in_channels / groups, kernel, kernel],
                    InitKind::KaimingNormal,
                    fan_in,
                    fan_out,
                    rng,
                ),
            )
        };
        let needs_b = matches!(
            neuron_type,
            NeuronType::T4 | NeuronType::T4Identity | NeuronType::T2And4 | NeuronType::Ours
        );
        let needs_c = matches!(neuron_type, NeuronType::T2And4 | NeuronType::Ours);
        let wa = Some(mk("qconv.wa"));
        let wb = needs_b.then(|| mk("qconv.wb"));
        let wc = needs_c.then(|| mk("qconv.wc"));
        QuadraticConv2d {
            neuron_type,
            mode: BackpropMode::Default,
            in_channels,
            out_channels,
            kernel,
            conv: Conv2dParams::new(stride, padding, groups),
            wa,
            wb,
            wc,
            bias: Param::new_no_decay("qconv.bias", Tensor::zeros(&[out_channels])),
            cached_x: None,
            cached_za: None,
            cached_zb: None,
            flops: 0,
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
        self.neuron_type
    }

    /// Select the back-propagation mode.
    pub fn set_mode(&mut self, mode: BackpropMode) {
        self.mode = mode;
    }

    /// The current back-propagation mode.
    pub fn mode(&self) -> BackpropMode {
        self.mode
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

    /// The branch weights convolved with `x` itself, in `Wa, Wb, Wc` order.
    /// These share one lowering of `x` per sample, forward and backward.
    fn weights_on_x(&self) -> Vec<&Tensor> {
        let on_x = match self.neuron_type {
            NeuronType::T2 => [None, None, None],
            NeuronType::T2And4 => [self.wa.as_ref(), self.wb.as_ref(), None],
            _ => [self.wa.as_ref(), self.wb.as_ref(), self.wc.as_ref()],
        };
        on_x.into_iter().flatten().map(|w| &w.value).collect()
    }

    /// The branch weight convolved with `x²` (T2's only branch, T2&4's third).
    fn weight_on_square(&mut self) -> Option<&mut Param> {
        match self.neuron_type {
            NeuronType::T2 => self.wa.as_mut(),
            NeuronType::T2And4 => self.wc.as_mut(),
            _ => None,
        }
    }

    /// `conv(x, W)` for the first `branches` weights of
    /// [`Self::weights_on_x`], over one lowering of `x`.
    fn convs_of_x(&self, x: &Tensor, branches: usize) -> Vec<Tensor> {
        let mut weights = self.weights_on_x();
        weights.truncate(branches);
        if weights.is_empty() {
            return Vec::new();
        }
        x.conv2d_multi(&weights, self.conv).expect("conv shapes")
    }

    fn branch_flops(&self, x: &Tensor, y: &Tensor) -> usize {
        let n = x.shape()[0];
        let (oh, ow) = (y.shape()[2], y.shape()[3]);
        n * self.out_channels * oh * ow * (self.in_channels / self.conv.groups) * self.kernel * self.kernel
    }
}

impl Layer for QuadraticConv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.ndim(), 4, "QuadraticConv2d expects NCHW input");
        let conv = self.conv;
        let mut z = self.convs_of_x(x, 3).into_iter();
        let (za, zb, lin) = (z.next(), z.next(), z.next());
        let squared =
            self.weight_on_square().map(|w| x.square().conv2d(&w.value, None, conv).expect("conv shapes"));
        let nbranches = [&za, &zb, &lin, &squared].into_iter().flatten().count();

        // Second-order term, then the first-order (or squared-input) term.
        let product = match (&za, &zb) {
            (Some(za), Some(zb)) => Some(za.mul(zb).expect("shape")),
            (Some(za), None) => Some(za.square()),
            _ => None,
        };
        let mut out = match (product, lin.or(squared)) {
            (Some(mut product), Some(linear)) => {
                product.add_assign(&linear).expect("shape");
                product
            }
            (Some(only), None) | (None, Some(only)) => only,
            (None, None) => unreachable!("every neuron type has at least one branch"),
        };
        if self.neuron_type == NeuronType::T4Identity {
            out.add_assign(x).expect("shape");
        }
        // Per-channel bias.
        let plane = out.shape()[2] * out.shape()[3];
        if plane > 0 {
            let bias = self.bias.value.as_slice();
            for (i, values) in out.as_mut_slice().chunks_exact_mut(plane).enumerate() {
                let b = bias[i % bias.len()];
                values.iter_mut().for_each(|v| *v += b);
            }
        }
        self.flops = nbranches * self.branch_flops(x, &out);

        // Eval keeps nothing; hybrid BP keeps the input only and recomputes
        // the branch outputs from it in backward.
        let keep_branches = train && self.mode == BackpropMode::Default;
        self.cached_x = train.then(|| x.clone());
        self.cached_za = za.filter(|_| keep_branches);
        self.cached_zb = zb.filter(|_| keep_branches);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_x.take().expect("backward called before forward");
        self.bias.accumulate_grad(&Tensor::conv2d_backward_bias(grad_out).expect("bias grad"));
        let conv = self.conv;

        // Gradient reaching each branch on `x`, in `Wa, Wb, Wc` order. Hybrid
        // BP recomputes za, zb here — one lowering, the forward's own products,
        // so the recomputed values are the forward's bit for bit.
        let (za, zb) = match (self.cached_za.take(), self.cached_zb.take()) {
            (Some(za), zb) => (Some(za), zb),
            (None, _) => {
                let mut z = self.convs_of_x(&x, 2).into_iter();
                (z.next(), z.next())
            }
        };
        let product_grads: Vec<Tensor> = match (self.neuron_type, &za, &zb) {
            (NeuronType::T2, ..) => Vec::new(),
            (NeuronType::T3, Some(za), _) => vec![grad_out.mul(&za.mul_scalar(2.0)).expect("shape")],
            (_, Some(za), Some(zb)) => {
                vec![grad_out.mul(zb).expect("shape"), grad_out.mul(za).expect("shape")]
            }
            _ => unreachable!("branch outputs exist for every type but T2"),
        };
        let mut grads: Vec<&Tensor> = product_grads.iter().collect();
        if self.neuron_type == NeuronType::Ours {
            grads.push(grad_out);
        }

        // One shared lowering for the weight gradients, one accumulated column
        // gradient and one scatter for the input gradient.
        let mut grad_in = if grads.is_empty() {
            Tensor::zeros(x.shape())
        } else {
            let weights = self.weights_on_x();
            let grad_in = Tensor::conv2d_backward_input_multi(&grads, &weights, x.shape(), conv)
                .expect("conv input grad");
            let gws = Tensor::conv2d_backward_weight_multi(&grads, &x, weights[0].shape(), conv)
                .expect("conv weight grad");
            for (w, gw) in [&mut self.wa, &mut self.wb, &mut self.wc].into_iter().flatten().zip(&gws) {
                w.accumulate_grad(gw);
            }
            grad_in
        };
        if let Some(w) = self.weight_on_square() {
            let xsq = x.square();
            let gw = Tensor::conv2d_backward_weight(grad_out, &xsq, w.value.shape(), conv)
                .expect("conv weight grad");
            w.accumulate_grad(&gw);
            let gx =
                Tensor::conv2d_backward_input(grad_out, &w.value, x.shape(), conv).expect("conv input grad");
            // d(x²)/dx = 2x
            grad_in.add_assign(&gx.mul(&x.mul_scalar(2.0)).expect("shape")).expect("shape");
        }
        if self.neuron_type == NeuronType::T4Identity {
            grad_in.add_assign(grad_out).expect("shape");
        }
        grad_in
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = Vec::new();
        for w in [&self.wa, &self.wb, &self.wc].into_iter().flatten() {
            p.push(w);
        }
        p.push(&self.bias);
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = Vec::new();
        for w in [&mut self.wa, &mut self.wb, &mut self.wc].into_iter().flatten() {
            p.push(w);
        }
        p.push(&mut self.bias);
        p
    }

    fn cached_bytes(&self) -> usize {
        self.cached_x.as_ref().map(|t| t.nbytes()).unwrap_or(0)
            + self.cached_za.as_ref().map(|t| t.nbytes()).unwrap_or(0)
            + self.cached_zb.as_ref().map(|t| t.nbytes()).unwrap_or(0)
    }

    fn clear_cache(&mut self) {
        self.cached_x = None;
        self.cached_za = None;
        self.cached_zb = None;
    }

    fn flops_last_forward(&self) -> usize {
        self.flops
    }

    fn set_memory_saving(&mut self, enabled: bool) {
        self.mode = if enabled { BackpropMode::Hybrid } else { BackpropMode::Default };
    }

    fn memory_saving(&self) -> bool {
        self.mode == BackpropMode::Hybrid
    }

    fn layer_type(&self) -> &'static str {
        "quadratic_conv2d"
    }

    fn describe(&self) -> String {
        format!(
            "quadratic_conv2d[{}] {}→{} k{} ({} params, {})",
            self.neuron_type.name(),
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.param_count(),
            self.mode
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

    /// Reference forward used by the finite-difference checks.
    fn reference_forward(layer: &QuadraticConv2d, x: &Tensor) -> Tensor {
        let p = layer.conv;
        let get = |w: &Option<Param>| w.as_ref().unwrap().value.clone();
        let out = match layer.neuron_type {
            NeuronType::T2 => x.square().conv2d(&get(&layer.wa), None, p).unwrap(),
            NeuronType::T3 => x.conv2d(&get(&layer.wa), None, p).unwrap().square(),
            NeuronType::T4 => {
                let a = x.conv2d(&get(&layer.wa), None, p).unwrap();
                let b = x.conv2d(&get(&layer.wb), None, p).unwrap();
                a.mul(&b).unwrap()
            }
            NeuronType::T4Identity => {
                let a = x.conv2d(&get(&layer.wa), None, p).unwrap();
                let b = x.conv2d(&get(&layer.wb), None, p).unwrap();
                a.mul(&b).unwrap().add(x).unwrap()
            }
            NeuronType::T2And4 => {
                let a = x.conv2d(&get(&layer.wa), None, p).unwrap();
                let b = x.conv2d(&get(&layer.wb), None, p).unwrap();
                a.mul(&b).unwrap().add(&x.square().conv2d(&get(&layer.wc), None, p).unwrap()).unwrap()
            }
            NeuronType::Ours => {
                let a = x.conv2d(&get(&layer.wa), None, p).unwrap();
                let b = x.conv2d(&get(&layer.wb), None, p).unwrap();
                a.mul(&b).unwrap().add(&x.conv2d(&get(&layer.wc), None, p).unwrap()).unwrap()
            }
            _ => unreachable!(),
        };
        let bias = layer.bias.value.reshape(&[1, layer.out_channels, 1, 1]).unwrap();
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
