//! Element-wise activation layers: ReLU, LeakyReLU, Sigmoid, Tanh.

use crate::layer::Layer;
use crate::mask::BitMask;
use quadra_tensor::Tensor;

/// Rectified linear unit, `y = max(x, 0)`. Training keeps one bit per
/// element, `x > 0`.
#[derive(Default)]
pub struct Relu {
    mask: Option<BitMask>,
}

impl Relu {
    /// Create a ReLU activation layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.mask = train.then(|| BitMask::pack(x.as_slice(), |v| v > 0.0));
        x.relu()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.take().expect("backward called before forward");
        mask.apply(grad_out, 1.0, 0.0)
    }

    fn cached_bytes(&self) -> usize {
        self.mask.as_ref().map(|m| m.nbytes()).unwrap_or(0)
    }

    fn clear_cache(&mut self) {
        self.mask = None;
    }

    fn layer_type(&self) -> &'static str {
        "relu"
    }
}

/// Leaky rectified linear unit, `y = x` for `x >= 0` else `slope * x`.
/// Training keeps one bit per element, `x >= 0`.
pub struct LeakyRelu {
    slope: f32,
    mask: Option<BitMask>,
}

impl LeakyRelu {
    /// Create a leaky-ReLU with the given negative slope (0.2 is common for GANs).
    pub fn new(slope: f32) -> Self {
        LeakyRelu { slope, mask: None }
    }
}

impl Layer for LeakyRelu {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.mask = train.then(|| BitMask::pack(x.as_slice(), |v| v >= 0.0));
        x.leaky_relu(self.slope)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.take().expect("backward called before forward");
        mask.apply(grad_out, 1.0, self.slope)
    }

    fn cached_bytes(&self) -> usize {
        self.mask.as_ref().map(|m| m.nbytes()).unwrap_or(0)
    }

    fn clear_cache(&mut self) {
        self.mask = None;
    }

    fn layer_type(&self) -> &'static str {
        "leaky_relu"
    }
}

/// Logistic sigmoid activation.
#[derive(Default)]
pub struct Sigmoid {
    output: Option<Tensor>,
}

impl Sigmoid {
    /// Create a sigmoid activation layer.
    pub fn new() -> Self {
        Sigmoid { output: None }
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = x.sigmoid();
        self.output = train.then(|| y.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self.output.take().expect("backward called before forward");
        let dy = y.mul(&y.map(|v| 1.0 - v)).expect("shape");
        grad_out.mul(&dy).expect("shape")
    }

    fn cached_bytes(&self) -> usize {
        self.output.as_ref().map(|m| m.nbytes()).unwrap_or(0)
    }

    fn clear_cache(&mut self) {
        self.output = None;
    }

    fn layer_type(&self) -> &'static str {
        "sigmoid"
    }
}

/// Hyperbolic-tangent activation (used by the GAN generator output).
#[derive(Default)]
pub struct Tanh {
    output: Option<Tensor>,
}

impl Tanh {
    /// Create a tanh activation layer.
    pub fn new() -> Self {
        Tanh { output: None }
    }
}

impl Layer for Tanh {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = x.tanh();
        self.output = train.then(|| y.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self.output.take().expect("backward called before forward");
        let dy = y.map(|v| 1.0 - v * v);
        grad_out.mul(&dy).expect("shape")
    }

    fn cached_bytes(&self) -> usize {
        self.output.as_ref().map(|m| m.nbytes()).unwrap_or(0)
    }

    fn clear_cache(&mut self) {
        self.output = None;
    }

    fn layer_type(&self) -> &'static str {
        "tanh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadra_autograd::{check_close, numeric_gradient};

    #[test]
    fn relu_forward_backward() {
        let mut relu = Relu::new();
        let x = Tensor::from_slice(&[-2.0, 0.0, 3.0]);
        let y = relu.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 3.0]);
        let g = relu.backward(&Tensor::from_slice(&[1.0, 1.0, 1.0]));
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0]);
        assert_eq!(relu.layer_type(), "relu");
        assert_eq!(relu.cached_bytes(), 0); // mask consumed by backward
        let _ = relu.forward(&x, true);
        assert!(relu.cached_bytes() > 0);
        relu.clear_cache();
        assert_eq!(relu.cached_bytes(), 0);
    }

    #[test]
    fn leaky_relu_forward_backward() {
        let mut lr = LeakyRelu::new(0.1);
        let x = Tensor::from_slice(&[-2.0, 3.0]);
        let y = lr.forward(&x, true);
        assert_eq!(y.as_slice(), &[-0.2, 3.0]);
        let g = lr.backward(&Tensor::from_slice(&[1.0, 1.0]));
        assert_eq!(g.as_slice(), &[0.1, 1.0]);
        assert_eq!(lr.layer_type(), "leaky_relu");
    }

    #[test]
    fn sigmoid_gradcheck() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = s.forward(&x, true);
        let gin = s.backward(&Tensor::ones_like(&y));
        let numeric = numeric_gradient(|t| t.sigmoid().sum(), &x, 1e-3);
        assert!(check_close(&gin, &numeric).passes(1e-3));
        assert_eq!(s.layer_type(), "sigmoid");
        let _ = s.forward(&x, true);
        assert!(s.cached_bytes() > 0);
        s.clear_cache();
        assert_eq!(s.cached_bytes(), 0);
    }

    #[test]
    fn tanh_gradcheck() {
        let mut t = Tanh::new();
        let x = Tensor::from_slice(&[-0.5, 0.25, 1.5]);
        let y = t.forward(&x, true);
        let gin = t.backward(&Tensor::ones_like(&y));
        let numeric = numeric_gradient(|v| v.tanh().sum(), &x, 1e-3);
        assert!(check_close(&gin, &numeric).passes(1e-3));
        assert_eq!(t.layer_type(), "tanh");
        let _ = t.forward(&x, true);
        assert!(t.cached_bytes() > 0);
        t.clear_cache();
        assert_eq!(t.cached_bytes(), 0);
    }

    #[test]
    fn activations_have_no_parameters() {
        assert_eq!(Relu::new().params().len(), 0);
        assert_eq!(LeakyRelu::new(0.2).params().len(), 0);
        assert_eq!(Sigmoid::new().params().len(), 0);
        assert_eq!(Tanh::new().params().len(), 0);
    }
}
