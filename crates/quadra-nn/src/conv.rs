//! First-order 2-D convolution layer.

use crate::layer::Layer;
use crate::param::Param;
use quadra_tensor::{Conv2dParams, InitKind, Tensor};
use rand::Rng;

/// A standard (first-order) 2-D convolution layer over NCHW tensors.
///
/// Supports stride, zero padding and grouped convolution; setting
/// `groups == in_channels` yields the depth-wise convolution used by
/// MobileNetV1.
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    conv: Conv2dParams,
    cached_input: Option<Tensor>,
    flops: usize,
}

impl Conv2d {
    /// Create a convolution layer with Kaiming-normal initialised weights.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        groups: usize,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(groups >= 1 && in_channels % groups == 0, "groups must divide in_channels");
        assert!(out_channels % groups == 0, "groups must divide out_channels");
        let fan_in = (in_channels / groups) * kernel * kernel;
        let fan_out = (out_channels / groups) * kernel * kernel;
        let weight = Tensor::init(
            &[out_channels, in_channels / groups, kernel, kernel],
            InitKind::KaimingNormal,
            fan_in,
            fan_out,
            rng,
        );
        let bias = if bias {
            Some(Param::new_no_decay("conv2d.bias", Tensor::zeros(&[out_channels])))
        } else {
            None
        };
        Conv2d {
            weight: Param::new("conv2d.weight", weight),
            bias,
            in_channels,
            out_channels,
            kernel,
            conv: Conv2dParams::new(stride, padding, groups),
            cached_input: None,
            flops: 0,
        }
    }

    /// Standard 3×3 convolution with padding 1 and stride 1.
    pub fn conv3x3(in_channels: usize, out_channels: usize, rng: &mut impl Rng) -> Self {
        Self::new(in_channels, out_channels, 3, 1, 1, 1, true, rng)
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

    /// Convolution hyper-parameters (stride / padding / groups).
    pub fn conv_params(&self) -> Conv2dParams {
        self.conv
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = x
            .conv2d(&self.weight.value, self.bias.as_ref().map(|b| &b.value), self.conv)
            .expect("conv2d shapes");
        // MACs = N * OC * OH * OW * (IC/groups) * K * K
        let (n, _c, _h, _w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = (y.shape()[2], y.shape()[3]);
        self.flops = n
            * self.out_channels
            * oh
            * ow
            * (self.in_channels / self.conv.groups)
            * self.kernel
            * self.kernel;
        self.cached_input = train.then(|| x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_input.take().expect("backward called before forward");
        let gw = Tensor::conv2d_backward_weight(grad_out, &x, self.weight.value.shape(), self.conv)
            .expect("conv2d backward weight");
        self.weight.accumulate_grad(&gw);
        if let Some(b) = &mut self.bias {
            let gb = Tensor::conv2d_backward_bias(grad_out).expect("conv2d backward bias");
            b.accumulate_grad(&gb);
        }
        Tensor::conv2d_backward_input(grad_out, &self.weight.value, x.shape(), self.conv)
            .expect("conv2d backward input")
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = vec![&self.weight];
        if let Some(b) = &self.bias {
            p.push(b);
        }
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            p.push(b);
        }
        p
    }

    fn cached_bytes(&self) -> usize {
        self.cached_input.as_ref().map(|t| t.nbytes()).unwrap_or(0)
    }

    fn clear_cache(&mut self) {
        self.cached_input = None;
    }

    fn flops_last_forward(&self) -> usize {
        self.flops
    }

    fn layer_type(&self) -> &'static str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadra_autograd::{check_close, numeric_gradient};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2)
    }

    #[test]
    fn forward_shapes_and_flops() {
        let mut r = rng();
        let mut conv = Conv2d::conv3x3(3, 8, &mut r);
        let x = Tensor::randn(&[2, 3, 16, 16], 0.0, 1.0, &mut r);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[2, 8, 16, 16]);
        assert_eq!(conv.flops_last_forward(), 2 * 8 * 16 * 16 * 3 * 9);
        assert_eq!(conv.in_channels(), 3);
        assert_eq!(conv.out_channels(), 8);
        assert_eq!(conv.kernel(), 3);
        assert_eq!(conv.conv_params().padding, 1);
        assert_eq!(conv.layer_type(), "conv2d");
        assert!(conv.param_count() > 0);
    }

    #[test]
    fn strided_conv_halves_resolution() {
        let mut r = rng();
        let mut conv = Conv2d::new(4, 8, 3, 2, 1, 1, false, &mut r);
        let x = Tensor::randn(&[1, 4, 8, 8], 0.0, 1.0, &mut r);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[1, 8, 4, 4]);
        assert_eq!(conv.params().len(), 1);
    }

    #[test]
    fn depthwise_conv_parameters() {
        let mut r = rng();
        let conv = Conv2d::new(8, 8, 3, 1, 1, 8, false, &mut r);
        // depthwise: one 3x3 filter per channel
        assert_eq!(conv.param_count(), 8 * 9);
    }

    #[test]
    fn backward_input_gradcheck() {
        let mut r = rng();
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 1, true, &mut r);
        let x = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, &mut r);
        let y = conv.forward(&x, true);
        let gin = conv.backward(&Tensor::ones_like(&y));
        let w = conv.params()[0].value.clone();
        let b = conv.params()[1].value.clone();
        let p = conv.conv_params();
        let f = |t: &Tensor| t.conv2d(&w, Some(&b), p).unwrap().sum();
        let numeric = numeric_gradient(f, &x, 1e-2);
        assert!(check_close(&gin, &numeric).passes(5e-2));
    }

    #[test]
    fn backward_weight_gradcheck() {
        let mut r = rng();
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, 1, false, &mut r);
        let x = Tensor::randn(&[2, 2, 4, 4], 0.0, 1.0, &mut r);
        let y = conv.forward(&x, true);
        conv.backward(&Tensor::ones_like(&y));
        let gw = conv.params()[0].grad.clone();
        let x2 = x.clone();
        let p = conv.conv_params();
        let f = |w: &Tensor| x2.conv2d(w, None, p).unwrap().sum();
        let numeric = numeric_gradient(f, &conv.params()[0].value, 1e-2);
        assert!(check_close(&gw, &numeric).passes(5e-2));
    }

    #[test]
    fn cache_lifecycle() {
        let mut r = rng();
        let mut conv = Conv2d::conv3x3(1, 1, &mut r);
        assert_eq!(conv.cached_bytes(), 0);
        let x = Tensor::randn(&[1, 1, 4, 4], 0.0, 1.0, &mut r);
        let _ = conv.forward(&x, true);
        assert_eq!(conv.cached_bytes(), x.nbytes());
        conv.clear_cache();
        assert_eq!(conv.cached_bytes(), 0);
    }

    #[test]
    #[should_panic]
    fn invalid_groups_panic() {
        let mut r = rng();
        let _ = Conv2d::new(3, 4, 3, 1, 1, 2, false, &mut r);
    }
}
