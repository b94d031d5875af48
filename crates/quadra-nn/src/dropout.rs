//! Utility layers: Dropout, Flatten, Identity and nearest-neighbour up-sampling.

use crate::layer::Layer;
use crate::mask::BitMask;
use quadra_tensor::Tensor;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Inverted dropout: during training each element is zeroed with probability
/// `p` and the survivors are scaled by `1/(1-p)`; inference is a no-op.
/// Training keeps one bit per element: whether it survived.
pub struct Dropout {
    p: f32,
    rng: StdRng,
    mask: Option<BitMask>,
}

impl Dropout {
    /// Create a dropout layer with drop probability `p` and a deterministic seed.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1)");
        Dropout { p, rng: StdRng::seed_from_u64(seed), mask: None }
    }

    /// The configured drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }

    fn keep(&self) -> f32 {
        1.0 - self.p
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            self.mask = None;
            return x.clone();
        }
        // The draws `Tensor::bernoulli(x.shape(), keep, rng)` makes, in order.
        let (keep, rng, dist) = (self.keep(), &mut self.rng, Uniform::new(0.0f32, 1.0f32));
        let mask = BitMask::draw(x.numel(), || dist.sample(rng) < keep);
        let y = mask.apply(x, 1.0 / keep, 0.0);
        self.mask = Some(mask);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self.mask.take() {
            Some(mask) => mask.apply(grad_out, 1.0 / self.keep(), 0.0),
            None => grad_out.clone(),
        }
    }

    fn cached_bytes(&self) -> usize {
        self.mask.as_ref().map(|m| m.nbytes()).unwrap_or(0)
    }

    fn clear_cache(&mut self) {
        self.mask = None;
    }

    fn layer_type(&self) -> &'static str {
        "dropout"
    }
}

/// Flatten an NCHW tensor to `[n, c*h*w]` for the classifier head.
#[derive(Default)]
pub struct Flatten {
    input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Create a flatten layer.
    pub fn new() -> Self {
        Flatten { input_shape: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.input_shape = Some(x.shape().to_vec());
        x.flatten_batch()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self.input_shape.take().expect("backward called before forward");
        grad_out.reshape(&shape).expect("flatten backward reshape")
    }

    fn layer_type(&self) -> &'static str {
        "flatten"
    }
}

/// A no-op layer, useful as a placeholder when the auto-builder removes a layer.
#[derive(Default)]
pub struct Identity;

impl Identity {
    /// Create an identity layer.
    pub fn new() -> Self {
        Identity
    }
}

impl Layer for Identity {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        x.clone()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }

    fn layer_type(&self) -> &'static str {
        "identity"
    }
}

/// Nearest-neighbour spatial up-sampling by an integer factor (GAN generator).
pub struct Upsample2d {
    factor: usize,
}

impl Upsample2d {
    /// Create an up-sampling layer with the given integer factor.
    pub fn new(factor: usize) -> Self {
        assert!(factor >= 1, "upsample factor must be >= 1");
        Upsample2d { factor }
    }
}

impl Layer for Upsample2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        x.upsample_nearest2d(self.factor).expect("upsample shapes")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // The adjoint of nearest-neighbour up-sampling is summation over each
        // factor×factor block, i.e. average pooling times factor².
        grad_out
            .downsample_avg2d(self.factor)
            .expect("downsample shapes")
            .mul_scalar((self.factor * self.factor) as f32)
    }

    fn layer_type(&self) -> &'static str {
        "upsample2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropout_scales_and_masks_in_training() {
        let mut d = Dropout::new(0.5, 7);
        let x = Tensor::ones(&[1000]);
        let y = d.forward(&x, true);
        // Survivors are scaled to 2.0, dropped to 0.0.
        assert!(y.as_slice().iter().all(|&v| v == 0.0 || v == 2.0));
        let kept = y.as_slice().iter().filter(|&&v| v > 0.0).count();
        assert!((kept as f32 / 1000.0 - 0.5).abs() < 0.08);
        let g = d.backward(&Tensor::ones_like(&y));
        // Gradient is zero exactly where the activation was dropped.
        for (gy, yy) in g.as_slice().iter().zip(y.as_slice()) {
            assert_eq!(*gy == 0.0, *yy == 0.0);
        }
        assert_eq!(d.probability(), 0.5);
    }

    #[test]
    fn dropout_is_identity_in_eval() {
        let mut d = Dropout::new(0.5, 7);
        let x = Tensor::ones(&[16]);
        let y = d.forward(&x, false);
        assert_eq!(y.as_slice(), x.as_slice());
        let g = d.backward(&Tensor::ones_like(&y));
        assert_eq!(g.as_slice(), &[1.0; 16]);
        assert_eq!(d.cached_bytes(), 0);
        let mut d0 = Dropout::new(0.0, 1);
        assert_eq!(d0.forward(&x, true).as_slice(), x.as_slice());
        let _ = d.forward(&x, true);
        d.clear_cache();
        assert_eq!(d.cached_bytes(), 0);
    }

    #[test]
    #[should_panic]
    fn invalid_probability_panics() {
        let _ = Dropout::new(1.0, 0);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::ones(&[2, 3, 4, 4]);
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 48]);
        let g = f.backward(&Tensor::ones_like(&y));
        assert_eq!(g.shape(), x.shape());
        assert_eq!(f.layer_type(), "flatten");
    }

    #[test]
    fn identity_layer() {
        let mut id = Identity::new();
        let x = Tensor::from_slice(&[1.0, 2.0]);
        assert_eq!(id.forward(&x, true).as_slice(), x.as_slice());
        assert_eq!(id.backward(&x).as_slice(), x.as_slice());
        assert_eq!(id.layer_type(), "identity");
        assert_eq!(id.param_count(), 0);
    }

    #[test]
    fn upsample_forward_backward_adjoint() {
        let mut up = Upsample2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = up.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        let g = up.backward(&Tensor::ones_like(&y));
        // Each input pixel receives gradient from its 4 copies.
        assert_eq!(g.as_slice(), &[4.0, 4.0, 4.0, 4.0]);
        assert_eq!(up.layer_type(), "upsample2d");
    }

    #[test]
    #[should_panic]
    fn zero_upsample_factor_panics() {
        let _ = Upsample2d::new(0);
    }
}
