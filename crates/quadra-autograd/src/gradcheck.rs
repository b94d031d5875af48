//! Finite-difference gradient checking.
//!
//! Every layer in `quadra-nn` and every quadratic layer in `quadra-core`
//! implements its backward pass by hand (symbolic differentiation); these
//! helpers verify those implementations against central finite differences.

use quadra_tensor::Tensor;

/// Outcome of comparing an analytic gradient against a numeric one.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Largest absolute element-wise difference found.
    pub max_abs_err: f32,
    /// Largest relative difference found (|a-n| / max(|a|,|n|,1e-8)).
    pub max_rel_err: f32,
    /// Number of elements compared.
    pub count: usize,
}

impl GradCheckReport {
    /// True if the maximum absolute error is within `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_abs_err <= tol
    }
}

/// Compute the numeric gradient of `f` with respect to `input` using central
/// differences with step `eps`.
///
/// `f` must be a deterministic scalar function of the input tensor.
pub fn numeric_gradient(f: impl Fn(&Tensor) -> f32, input: &Tensor, eps: f32) -> Tensor {
    let mut grad = Tensor::zeros(input.shape());
    for i in 0..input.numel() {
        let mut plus = input.clone();
        plus.as_mut_slice()[i] += eps;
        let mut minus = input.clone();
        minus.as_mut_slice()[i] -= eps;
        grad.as_mut_slice()[i] = (f(&plus) - f(&minus)) / (2.0 * eps);
    }
    grad
}

/// Compare an analytic gradient against a numeric one element-wise.
pub fn check_close(analytic: &Tensor, numeric: &Tensor) -> GradCheckReport {
    assert_eq!(analytic.shape(), numeric.shape(), "gradient shapes differ");
    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    for (&a, &n) in analytic.as_slice().iter().zip(numeric.as_slice()) {
        let abs = (a - n).abs();
        let rel = abs / a.abs().max(n.abs()).max(1e-8);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(rel);
    }
    GradCheckReport { max_abs_err: max_abs, max_rel_err: max_rel, count: analytic.numel() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn numeric_gradient_of_quadratic() {
        // f(x) = sum(x^2) => grad = 2x
        let x = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        let g = numeric_gradient(|t| t.square().sum(), &x, 1e-3);
        let expect = x.mul_scalar(2.0);
        let report = check_close(&expect, &g);
        assert!(report.passes(1e-2), "{:?}", report);
        assert_eq!(report.count, 3);
    }

    #[test]
    fn closed_form_gradient_matches_numeric_for_composite_function() {
        let mut rng = StdRng::seed_from_u64(11);
        let x0 = Tensor::randn(&[6], 0.0, 1.0, &mut rng);
        let w0 = Tensor::randn(&[6], 0.0, 1.0, &mut rng);

        // f(x) = mean(tanh(w ∘ x)²)  =>  ∂f/∂xᵢ = 2·tanh(wᵢxᵢ)·(1 − tanh²(wᵢxᵢ))·wᵢ / n.
        let n = x0.numel() as f32;
        let grads: Vec<f32> = x0
            .as_slice()
            .iter()
            .zip(w0.as_slice())
            .map(|(&x, &w)| {
                let t = (w * x).tanh();
                2.0 * t * (1.0 - t * t) * w / n
            })
            .collect();
        let analytic = Tensor::from_vec(grads, x0.shape()).unwrap();

        // Numeric gradient of the same function.
        let f = |t: &Tensor| {
            let wx = w0.mul(t).unwrap();
            wx.tanh().square().mean()
        };
        let numeric = numeric_gradient(f, &x0, 1e-3);
        let report = check_close(&analytic, &numeric);
        assert!(report.passes(1e-3), "{:?}", report);
    }

    #[test]
    fn report_rel_err_is_finite_for_zero_gradients() {
        let a = Tensor::zeros(&[4]);
        let n = Tensor::zeros(&[4]);
        let r = check_close(&a, &n);
        assert_eq!(r.max_abs_err, 0.0);
        assert_eq!(r.max_rel_err, 0.0);
        assert!(r.passes(0.0));
    }

    #[test]
    #[should_panic]
    fn mismatched_shapes_panic() {
        let _ = check_close(&Tensor::zeros(&[2]), &Tensor::zeros(&[3]));
    }
}
