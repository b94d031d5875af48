//! Batch normalisation over NCHW tensors.
//!
//! The paper's model-construction insights stress that batch normalisation is
//! "significantly important for QDNN to regulate the output activation values"
//! because second-order terms generate extreme values; the quadratic model
//! builders in `quadra-core` therefore insert this layer after every quadratic
//! convolution by default.

use crate::layer::Layer;
use crate::param::Param;
use quadra_tensor::Tensor;

/// Batch normalisation over the channel axis of an NCHW tensor.
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    channels: usize,
    // Cached for backward by a training-mode forward.
    cached_xhat: Option<Tensor>,
    cached_inv_std: Option<Vec<f32>>,
}

impl BatchNorm2d {
    /// Create a batch-norm layer for `channels` channels with default
    /// momentum 0.1 and epsilon 1e-5.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new_no_decay("bn.gamma", Tensor::ones(&[channels])),
            beta: Param::new_no_decay("bn.beta", Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            channels,
            cached_xhat: None,
            cached_inv_std: None,
        }
    }

    /// Number of normalised channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The running (inference-time) mean per channel.
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// The running (inference-time) variance per channel.
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.ndim(), 4, "BatchNorm2d expects NCHW input");
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(c, self.channels, "channel mismatch in BatchNorm2d");
        let m = (n * h * w) as f32;
        let src = x.as_slice();
        let mut out = Tensor::zeros(x.shape());
        // Eval mode normalises with constants and keeps nothing for backward.
        let mut xhat = train.then(|| Tensor::zeros(x.shape()));
        let mut inv_stds = vec![0.0f32; c];
        let gamma = self.gamma.value.as_slice().to_vec();
        let beta = self.beta.value.as_slice().to_vec();

        for ci in 0..c {
            let (mean, var) = if train {
                // Two-pass mean/variance: the single-pass E[x²]−E[x]² form
                // cancels catastrophically for large-offset inputs (it needed a
                // `.max(0.0)` clamp to paper over negative variance).
                let mut sum = 0.0f32;
                for ni in 0..n {
                    let base = (ni * c + ci) * h * w;
                    for &v in &src[base..base + h * w] {
                        sum += v;
                    }
                }
                let mean = sum / m;
                let mut sq_dev = 0.0f32;
                for ni in 0..n {
                    let base = (ni * c + ci) * h * w;
                    for &v in &src[base..base + h * w] {
                        let d = v - mean;
                        sq_dev += d * d;
                    }
                }
                // Normalisation uses the biased batch variance; the running
                // (inference) variance uses the unbiased m/(m−1) estimate, as
                // in PyTorch. A single-element batch has no unbiased variance
                // estimate at all, so it must not touch the running statistics
                // (blending in the meaningless 0 would decay running_var
                // toward zero and blow up eval-mode outputs).
                let var = sq_dev / m;
                if m > 1.0 {
                    let rm = self.running_mean.as_mut_slice();
                    let rv = self.running_var.as_mut_slice();
                    rm[ci] = (1.0 - self.momentum) * rm[ci] + self.momentum * mean;
                    rv[ci] = (1.0 - self.momentum) * rv[ci] + self.momentum * (sq_dev / (m - 1.0));
                }
                (mean, var)
            } else {
                (self.running_mean.as_slice()[ci], self.running_var.as_slice()[ci])
            };
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds[ci] = inv_std;
            let g = gamma[ci];
            let b = beta[ci];
            let o = out.as_mut_slice();
            for ni in 0..n {
                let plane = (ni * c + ci) * h * w..(ni * c + ci + 1) * h * w;
                match xhat.as_mut() {
                    Some(xhat) => {
                        let xh = &mut xhat.as_mut_slice()[plane.clone()];
                        for ((o, xh), &x) in o[plane.clone()].iter_mut().zip(xh).zip(&src[plane]) {
                            *xh = (x - mean) * inv_std;
                            *o = g * *xh + b;
                        }
                    }
                    None => {
                        for (o, &x) in o[plane.clone()].iter_mut().zip(&src[plane]) {
                            *o = g * ((x - mean) * inv_std) + b;
                        }
                    }
                }
            }
        }
        self.cached_inv_std = xhat.is_some().then_some(inv_stds);
        self.cached_xhat = xhat;
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let xhat = self.cached_xhat.take().expect("backward called before forward");
        let inv_stds = self.cached_inv_std.take().expect("backward called before forward");
        let (n, c, h, w) =
            (grad_out.shape()[0], grad_out.shape()[1], grad_out.shape()[2], grad_out.shape()[3]);
        let m = (n * h * w) as f32;
        let g = grad_out.as_slice();
        let xh = xhat.as_slice();
        let gamma = self.gamma.value.as_slice().to_vec();
        let mut grad_in = Tensor::zeros(grad_out.shape());
        let gi = grad_in.as_mut_slice();
        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];

        for ci in 0..c {
            // First accumulate per-channel sums.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                for i in base..base + h * w {
                    sum_dy += g[i];
                    sum_dy_xhat += g[i] * xh[i];
                }
            }
            dgamma[ci] = sum_dy_xhat;
            dbeta[ci] = sum_dy;
            let scale = gamma[ci] * inv_stds[ci];
            let mean_dy = sum_dy / m;
            let mean_dy_xhat = sum_dy_xhat / m;
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                for i in base..base + h * w {
                    gi[i] = scale * (g[i] - mean_dy - xh[i] * mean_dy_xhat);
                }
            }
        }
        self.gamma.accumulate_grad(&Tensor::from_vec(dgamma, &[c]).expect("shape"));
        self.beta.accumulate_grad(&Tensor::from_vec(dbeta, &[c]).expect("shape"));
        grad_in
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn buffers(&self) -> Vec<(&'static str, &Tensor)> {
        vec![("bn.running_mean", &self.running_mean), ("bn.running_var", &self.running_var)]
    }

    fn buffers_mut(&mut self) -> Vec<(&'static str, &mut Tensor)> {
        vec![("bn.running_mean", &mut self.running_mean), ("bn.running_var", &mut self.running_var)]
    }

    fn cached_bytes(&self) -> usize {
        self.cached_xhat.as_ref().map(|t| t.nbytes()).unwrap_or(0)
            + self.cached_inv_std.as_ref().map(|v| v.len() * 4).unwrap_or(0)
    }

    fn clear_cache(&mut self) {
        self.cached_xhat = None;
        self.cached_inv_std = None;
    }

    fn layer_type(&self) -> &'static str {
        "batchnorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadra_autograd::{check_close, numeric_gradient};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn normalises_to_zero_mean_unit_variance() {
        let mut r = rng();
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn(&[8, 3, 4, 4], 5.0, 3.0, &mut r);
        let y = bn.forward(&x, true);
        // Per-channel mean ~0, std ~1.
        for c in 0..3 {
            let mut vals = Vec::new();
            for n in 0..8 {
                for h in 0..4 {
                    for w in 0..4 {
                        vals.push(y.at(&[n, c, h, w]));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {}", mean);
            assert!((var - 1.0).abs() < 1e-2, "var {}", var);
        }
        assert_eq!(bn.channels(), 3);
        assert_eq!(bn.params().len(), 2);
    }

    #[test]
    fn running_stats_track_batch_stats() {
        let mut r = rng();
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[16, 2, 8, 8], 2.0, 1.5, &mut r);
        for _ in 0..50 {
            bn.forward(&x, true);
        }
        // With repeated identical batches the running stats converge to the batch stats.
        assert!((bn.running_mean().as_slice()[0] - 2.0).abs() < 0.2);
        assert!((bn.running_var().as_slice()[0] - 2.25).abs() < 0.4);
        // Eval mode output should then be close to the train-mode output.
        let y_train = bn.forward(&x, true);
        let y_eval = bn.forward(&x, false);
        assert!(y_train.max_abs_diff(&y_eval).unwrap() < 0.2);
    }

    #[test]
    fn affine_parameters_scale_and_shift() {
        let mut bn = BatchNorm2d::new(1);
        bn.params_mut()[0].value.fill(2.0); // gamma
        bn.params_mut()[1].value.fill(1.0); // beta
        let x = Tensor::from_vec(vec![-1.0, 1.0, -1.0, 1.0], &[1, 1, 2, 2]).unwrap();
        let y = bn.forward(&x, true);
        // x_hat = ±1, so y = ±2 + 1.
        assert!((y.at(&[0, 0, 0, 0]) - (-1.0)).abs() < 1e-3);
        assert!((y.at(&[0, 0, 0, 1]) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn backward_input_gradcheck() {
        let mut r = rng();
        let mut bn = BatchNorm2d::new(2);
        // Random affine so the test exercises gamma/beta too.
        bn.params_mut()[0].value.copy_from(&Tensor::from_slice(&[1.3, 0.7])).unwrap();
        bn.params_mut()[1].value.copy_from(&Tensor::from_slice(&[0.2, -0.1])).unwrap();
        let x = Tensor::randn(&[3, 2, 3, 3], 0.0, 1.0, &mut r);
        let y = bn.forward(&x, true);
        // Use a fixed random "loss weight" so the loss isn't symmetric.
        let lw = Tensor::randn(y.shape(), 0.0, 1.0, &mut r);
        let gin = bn.backward(&lw);

        let gamma = Tensor::from_slice(&[1.3, 0.7]);
        let beta = Tensor::from_slice(&[0.2, -0.1]);
        let lw2 = lw.clone();
        let f = move |t: &Tensor| {
            // recompute batch norm forward from scratch
            let (n, c, h, w) = (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]);
            let m = (n * h * w) as f32;
            let mut loss = 0.0f32;
            for ci in 0..c {
                let mut sum = 0.0;
                let mut sq = 0.0;
                for ni in 0..n {
                    for hi in 0..h {
                        for wi in 0..w {
                            let v = t.at(&[ni, ci, hi, wi]);
                            sum += v;
                            sq += v * v;
                        }
                    }
                }
                let mean = sum / m;
                let var = (sq / m - mean * mean).max(0.0);
                let inv = 1.0 / (var + 1e-5).sqrt();
                for ni in 0..n {
                    for hi in 0..h {
                        for wi in 0..w {
                            let xh = (t.at(&[ni, ci, hi, wi]) - mean) * inv;
                            let y = gamma.as_slice()[ci] * xh + beta.as_slice()[ci];
                            loss += y * lw2.at(&[ni, ci, hi, wi]);
                        }
                    }
                }
            }
            loss
        };
        let numeric = numeric_gradient(f, &x, 1e-2);
        let report = check_close(&gin, &numeric);
        assert!(report.passes(5e-2), "{:?}", report);
    }

    #[test]
    fn running_var_uses_unbiased_estimate() {
        let mut bn = BatchNorm2d::new(1);
        // One channel, m = 4 values with mean 2.5: biased var = 1.25,
        // unbiased var = 5/3.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4, 1, 1, 1]).unwrap();
        bn.forward(&x, true);
        let expected = 0.9 * 1.0 + 0.1 * (5.0 / 3.0);
        assert!((bn.running_var().as_slice()[0] - expected).abs() < 1e-6);
        // m == 1: no unbiased estimate exists, so the running statistics must
        // stay untouched (not decay toward the meaningless batch variance 0).
        let mut bn1 = BatchNorm2d::new(1);
        let single = Tensor::from_vec(vec![3.0], &[1, 1, 1, 1]).unwrap();
        bn1.forward(&single, true);
        assert_eq!(bn1.running_mean().as_slice()[0], 0.0);
        assert_eq!(bn1.running_var().as_slice()[0], 1.0);
    }

    #[test]
    fn two_pass_variance_survives_large_offsets() {
        // With mean ≈ 4096 and tiny spread, E[x²]−E[x]² in f32 loses all the
        // signal (the clamp used to return 0 and inv_std exploded to 1/√eps).
        let vals = vec![4096.0, 4096.25, 4096.5, 4096.75];
        let x = Tensor::from_vec(vals.clone(), &[4, 1, 1, 1]).unwrap();
        let mut bn = BatchNorm2d::new(1);
        let y = bn.forward(&x, true);
        let mean: f32 = vals.iter().sum::<f32>() / 4.0;
        let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
        let inv = 1.0 / (var + 1e-5).sqrt();
        for (i, &v) in vals.iter().enumerate() {
            let expected = (v - mean) * inv;
            assert!(
                (y.as_slice()[i] - expected).abs() < 1e-3,
                "sample {}: got {}, expected {}",
                i,
                y.as_slice()[i],
                expected
            );
        }
    }

    #[test]
    fn exposes_running_stats_as_named_buffers() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[4, 2, 3, 3], 1.0, 2.0, &mut rng());
        bn.forward(&x, true);
        let buffers = bn.buffers();
        assert_eq!(buffers.len(), 2);
        assert_eq!(buffers[0].0, "bn.running_mean");
        assert_eq!(buffers[1].0, "bn.running_var");
        assert_eq!(buffers[0].1.as_slice(), bn.running_mean().as_slice());
        let mut bn2 = BatchNorm2d::new(2);
        for (src, (name, dst)) in bn.buffers().iter().map(|(_, t)| (*t).clone()).zip(bn2.buffers_mut()) {
            assert!(name.starts_with("bn.running_"));
            dst.copy_from(&src).unwrap();
        }
        assert_eq!(bn2.running_var().as_slice(), bn.running_var().as_slice());
    }

    #[test]
    fn cache_lifecycle_and_eval_backward() {
        let mut r = rng();
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[2, 2, 2, 2], 0.0, 1.0, &mut r);
        let _ = bn.forward(&x, true);
        assert!(bn.cached_bytes() > 0);
        bn.clear_cache();
        assert_eq!(bn.cached_bytes(), 0);
        // An eval forward keeps nothing — and drops what a train forward left.
        let _ = bn.forward(&x, true);
        let y = bn.forward(&x, false);
        assert_eq!(bn.cached_bytes(), 0);
        assert_eq!(bn.layer_type(), "batchnorm2d");
        // ... so there is nothing to propagate a gradient through.
        let backward = std::panic::AssertUnwindSafe(|| bn.backward(&Tensor::ones_like(&y)));
        let panic = std::panic::catch_unwind(backward).expect_err("backward after an eval forward must fail");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("backward called before forward")
        );
    }
}
