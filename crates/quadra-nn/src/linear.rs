//! Fully connected (dense) layer.

use crate::layer::Layer;
use crate::param::Param;
use quadra_tensor::{InitKind, Tensor};
use rand::Rng;

/// A fully connected layer computing `y = x · W + b`.
///
/// `W` has shape `[in_features, out_features]`, inputs are `[batch, in_features]`.
pub struct Linear {
    weight: Param,
    bias: Option<Param>,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
    flops: usize,
}

impl Linear {
    /// Create a linear layer with Kaiming-uniform initialised weights.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut impl Rng) -> Self {
        let weight = Tensor::init(
            &[in_features, out_features],
            InitKind::KaimingUniform,
            in_features,
            out_features,
            rng,
        );
        let bias = if bias {
            Some(Param::new_no_decay("linear.bias", Tensor::zeros(&[out_features])))
        } else {
            None
        };
        Linear {
            weight: Param::new("linear.weight", weight),
            bias,
            in_features,
            out_features,
            cached_input: None,
            flops: 0,
        }
    }

    /// Input feature dimension.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature dimension.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.ndim(), 2, "Linear expects [batch, features] input, got {:?}", x.shape());
        assert_eq!(x.shape()[1], self.in_features, "Linear input width mismatch");
        let mut y = x.matmul(&self.weight.value).expect("linear shapes");
        if let Some(b) = &self.bias {
            y = y.add(&b.value).expect("bias broadcast");
        }
        self.flops = x.shape()[0] * self.in_features * self.out_features;
        self.cached_input = train.then(|| x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_input.take().expect("backward called before forward");
        // dW = xᵀ · dY, dX = dY · Wᵀ, db = column sums of dY — the tn/nt
        // matmul variants read the transposed operand in place.
        let gw = x.matmul_tn(grad_out).expect("shapes");
        self.weight.accumulate_grad(&gw);
        if let Some(b) = &mut self.bias {
            let gb = grad_out.sum_axis(0).expect("axis 0");
            b.accumulate_grad(&gb);
        }
        grad_out.matmul_nt(&self.weight.value).expect("shapes")
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
        "linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadra_autograd::{check_close, numeric_gradient};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn forward_known_values() {
        let mut r = rng();
        let mut lin = Linear::new(2, 2, true, &mut r);
        lin.params_mut()[0]
            .value
            .copy_from(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap())
            .unwrap();
        lin.params_mut()[1].value.copy_from(&Tensor::from_slice(&[0.5, -0.5])).unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = lin.forward(&x, true);
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
        assert_eq!(lin.in_features(), 2);
        assert_eq!(lin.out_features(), 2);
        assert_eq!(lin.flops_last_forward(), 4);
        assert_eq!(lin.layer_type(), "linear");
    }

    #[test]
    fn backward_matches_finite_difference_for_input() {
        let mut r = rng();
        let mut lin = Linear::new(4, 3, true, &mut r);
        let x = Tensor::randn(&[2, 4], 0.0, 1.0, &mut r);
        let y = lin.forward(&x, true);
        let gin = lin.backward(&Tensor::ones_like(&y));

        let w = lin.params()[0].value.clone();
        let b = lin.params()[1].value.clone();
        let f = |t: &Tensor| t.matmul(&w).unwrap().add(&b).unwrap().sum();
        let numeric = numeric_gradient(f, &x, 1e-3);
        assert!(check_close(&gin, &numeric).passes(1e-2));
    }

    #[test]
    fn backward_matches_finite_difference_for_weight_and_bias() {
        let mut r = rng();
        let mut lin = Linear::new(3, 2, true, &mut r);
        let x = Tensor::randn(&[5, 3], 0.0, 1.0, &mut r);
        let y = lin.forward(&x, true);
        lin.backward(&Tensor::ones_like(&y));
        let gw = lin.params()[0].grad.clone();
        let gb = lin.params()[1].grad.clone();

        let x2 = x.clone();
        let b = lin.params()[1].value.clone();
        let fw = |w: &Tensor| x2.matmul(w).unwrap().add(&b).unwrap().sum();
        let numeric_w = numeric_gradient(fw, &lin.params()[0].value, 1e-3);
        assert!(check_close(&gw, &numeric_w).passes(1e-2));

        let w = lin.params()[0].value.clone();
        let x3 = x.clone();
        let fb = |bv: &Tensor| x3.matmul(&w).unwrap().add(bv).unwrap().sum();
        let numeric_b = numeric_gradient(fb, &lin.params()[1].value, 1e-3);
        assert!(check_close(&gb, &numeric_b).passes(1e-2));
    }

    #[test]
    fn no_bias_variant() {
        let mut r = rng();
        let mut lin = Linear::new(3, 2, false, &mut r);
        assert_eq!(lin.params().len(), 1);
        let x = Tensor::randn(&[1, 3], 0.0, 1.0, &mut r);
        let y = lin.forward(&x, true);
        assert_eq!(y.shape(), &[1, 2]);
        assert!(lin.cached_bytes() > 0);
        lin.clear_cache();
        assert_eq!(lin.cached_bytes(), 0);
    }

    #[test]
    #[should_panic]
    fn wrong_input_width_panics() {
        let mut r = rng();
        let mut lin = Linear::new(3, 2, false, &mut r);
        lin.forward(&Tensor::zeros(&[1, 4]), true);
    }
}
