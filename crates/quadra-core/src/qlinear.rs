//! Quadratic fully connected layers for every neuron type of Table 1.

use crate::hybrid_bp::BackpropMode;
use crate::neuron::{accumulate, Branches, FirstOrder, NeuronType, Products};
use quadra_nn::{Layer, Param};
use quadra_tensor::{InitKind, Tensor};
use rand::Rng;

/// A quadratic dense layer: every output unit is a quadratic neuron of the
/// configured [`NeuronType`] over the input vector.
///
/// Weight layout follows the first-order [`quadra_nn::Linear`] convention
/// (`[in_features, out_features]`) so that a quadratic layer is literally "a
/// few first-order layers plus element-wise arithmetic" — the implementation
/// feasibility argument (P4) of the paper. The T1 and T1&2 designs need a full
/// bilinear tensor `[out, in, in]` instead, which is supported here for
/// completeness (and for the Table 1 micro-benchmarks) but is exactly the
/// memory blow-up the paper warns about.
pub struct QuadraticLinear {
    branches: Branches,
    in_features: usize,
    out_features: usize,
}

impl QuadraticLinear {
    /// Create a quadratic dense layer of the given neuron type.
    pub fn new(neuron_type: NeuronType, in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        if neuron_type.form().first == FirstOrder::Identity {
            assert_eq!(
                in_features,
                out_features,
                "{} requires in_features == out_features for the identity mapping",
                neuron_type.name()
            );
        }
        let branches = Branches::new(neuron_type, "qlinear", out_features, |bilinear| {
            if bilinear {
                Tensor::randn(&[out_features, in_features, in_features], 0.0, 1.0 / in_features as f32, rng)
            } else {
                let shape = [in_features, out_features];
                Tensor::init(&shape, InitKind::KaimingUniform, in_features, out_features, rng)
            }
        });
        QuadraticLinear { branches, in_features, out_features }
    }

    /// The neuron design implemented by this layer.
    pub fn neuron_type(&self) -> NeuronType {
        self.branches.neuron_type()
    }

    /// Select the back-propagation mode (default AD caching vs hybrid).
    pub fn set_mode(&mut self, mode: BackpropMode) {
        self.branches.set_mode(mode);
    }

    /// The current back-propagation mode.
    pub fn mode(&self) -> BackpropMode {
        self.branches.mode()
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

/// Matrix products over `[batch, features]` rows, and the bilinear kernel.
struct MatMul;

impl Products for MatMul {
    fn forward(&self, x: &Tensor, weights: &[&Tensor]) -> Vec<Tensor> {
        weights.iter().map(|w| x.matmul(w).expect("linear shapes")).collect()
    }

    fn backward(&self, grads: &[&Tensor], weights: &[&Tensor], x: &Tensor) -> (Tensor, Vec<Tensor>) {
        let mut grad_in = None;
        let grad_w = grads
            .iter()
            .zip(weights)
            .map(|(g, w)| {
                accumulate(&mut grad_in, g.matmul_nt(w).expect("shape"));
                x.matmul_tn(g).expect("shape")
            })
            .collect();
        (grad_in.expect("at least one product"), grad_w)
    }

    fn bias_grad(&self, grad_out: &Tensor) -> Tensor {
        grad_out.sum_axis(0).expect("axis 0")
    }

    /// `y[n, j] = x[n, :]ᵀ W[j] x[n, :]`. No entry is skipped, so a NaN or
    /// infinity in `W` reaches the output even against a zero input.
    fn bilinear(&self, x: &Tensor, w: &Tensor) -> Tensor {
        let (n, d) = (x.shape()[0], x.shape()[1]);
        let o = w.shape()[0];
        let xs = x.as_slice();
        let ws = w.as_slice();
        let mut out = Tensor::zeros(&[n, o]);
        let os = out.as_mut_slice();
        for ni in 0..n {
            let xrow = &xs[ni * d..(ni + 1) * d];
            for j in 0..o {
                let wj = &ws[j * d * d..(j + 1) * d * d];
                let mut acc = 0.0f32;
                for p in 0..d {
                    let row = &wj[p * d..(p + 1) * d];
                    acc += xrow[p] * row.iter().zip(xrow.iter()).map(|(a, b)| a * b).sum::<f32>();
                }
                os[ni * o + j] = acc;
            }
        }
        out
    }

    fn bilinear_backward(&self, x: &Tensor, grad_out: &Tensor, w: &Tensor) -> (Tensor, Tensor) {
        let (n, d) = (x.shape()[0], x.shape()[1]);
        let o = w.shape()[0];
        let xs = x.as_slice();
        let gs = grad_out.as_slice();
        let ws = w.as_slice();
        let mut grad_in = Tensor::zeros(x.shape());
        let mut grad_w = Tensor::zeros(w.shape());
        let gi = grad_in.as_mut_slice();
        let gwm = grad_w.as_mut_slice();
        for ni in 0..n {
            let xrow = &xs[ni * d..(ni + 1) * d];
            for j in 0..o {
                let g = gs[ni * o + j];
                let wj = &ws[j * d * d..(j + 1) * d * d];
                for p in 0..d {
                    let xp = xrow[p];
                    let grow = &mut gwm[j * d * d + p * d..j * d * d + (p + 1) * d];
                    for q in 0..d {
                        grow[q] += g * xp * xrow[q];
                    }
                    // dx[p] += g * sum_q (W[p,q] + W[q,p]) x[q]
                    let mut acc = 0.0f32;
                    for q in 0..d {
                        acc += (wj[p * d + q] + wj[q * d + p]) * xrow[q];
                    }
                    gi[ni * d + p] += g * acc;
                }
            }
        }
        (grad_in, grad_w)
    }
}

impl Layer for QuadraticLinear {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.ndim(), 2, "QuadraticLinear expects [batch, features] input");
        assert_eq!(x.shape()[1], self.in_features, "input width mismatch");
        self.branches.forward(&MatMul, x, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.branches.backward(&MatMul, grad_out)
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
        "quadratic_linear"
    }

    fn describe(&self) -> String {
        format!(
            "quadratic_linear[{}] {}→{} ({} params, {})",
            self.neuron_type().name(),
            self.in_features,
            self.out_features,
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
        StdRng::seed_from_u64(33)
    }

    /// The value of the parameter called `name`.
    fn weight(layer: &QuadraticLinear, name: &str) -> Tensor {
        layer.params().into_iter().find(|p| p.name == name).expect(name).value.clone()
    }

    /// Reference forward pass used for finite-difference checks, spelled out
    /// per type from the paper's formulas.
    fn reference_forward(layer: &QuadraticLinear, x: &Tensor) -> Tensor {
        let lin = |x: &Tensor, name: &str| x.matmul(&weight(layer, name)).unwrap();
        let out = match layer.neuron_type() {
            NeuronType::T2 => lin(&x.square(), "qlinear.wa"),
            NeuronType::T3 => lin(x, "qlinear.wa").square(),
            NeuronType::T4 => lin(x, "qlinear.wa").mul(&lin(x, "qlinear.wb")).unwrap(),
            NeuronType::T4Identity => {
                lin(x, "qlinear.wa").mul(&lin(x, "qlinear.wb")).unwrap().add(x).unwrap()
            }
            NeuronType::T2And4 => lin(x, "qlinear.wa")
                .mul(&lin(x, "qlinear.wb"))
                .unwrap()
                .add(&lin(&x.square(), "qlinear.wc"))
                .unwrap(),
            NeuronType::Ours => {
                lin(x, "qlinear.wa").mul(&lin(x, "qlinear.wb")).unwrap().add(&lin(x, "qlinear.wc")).unwrap()
            }
            NeuronType::T1 => layer_forward_bilinear(layer, x).add(&lin(x, "qlinear.wa")).unwrap(),
            NeuronType::T1And2 => {
                layer_forward_bilinear(layer, x).add(&lin(&x.square(), "qlinear.wb")).unwrap()
            }
        };
        out.add(&weight(layer, "qlinear.bias")).unwrap()
    }

    /// `y[n, j] = Σ_pq x[n, p] · W_full[j, p, q] · x[n, q]`, term by term.
    fn layer_forward_bilinear(layer: &QuadraticLinear, x: &Tensor) -> Tensor {
        let w = weight(layer, "qlinear.w_full");
        let n = x.shape()[0];
        let d = layer.in_features;
        let o = layer.out_features;
        let mut out = Tensor::zeros(&[n, o]);
        for ni in 0..n {
            for j in 0..o {
                let mut acc = 0.0;
                for p in 0..d {
                    for q in 0..d {
                        acc += x.at(&[ni, p]) * w.at(&[j, p, q]) * x.at(&[ni, q]);
                    }
                }
                out.set(&[ni, j], acc);
            }
        }
        out
    }

    #[test]
    fn forward_matches_reference_for_all_types() {
        let mut r = rng();
        for t in NeuronType::ALL {
            let (fin, fout) = if t == NeuronType::T4Identity { (5, 5) } else { (5, 4) };
            let mut layer = QuadraticLinear::new(t, fin, fout, &mut r);
            let x = Tensor::randn(&[3, fin], 0.0, 1.0, &mut r);
            let y = layer.forward(&x, true);
            let y_ref = reference_forward(&layer, &x);
            assert!(y.allclose(&y_ref, 1e-4), "type {} mismatch", t);
            assert_eq!(y.shape(), &[3, fout]);
            assert!(layer.flops_last_forward() > 0);
        }
    }

    #[test]
    fn ours_layer_param_count_is_three_linear_layers() {
        let mut r = rng();
        let layer = QuadraticLinear::new(NeuronType::Ours, 8, 6, &mut r);
        // three weight matrices + bias
        assert_eq!(layer.param_count(), 3 * 8 * 6 + 6);
        assert_eq!(layer.neuron_type(), NeuronType::Ours);
        assert_eq!(layer.in_features(), 8);
        assert_eq!(layer.out_features(), 6);
        assert_eq!(layer.layer_type(), "quadratic_linear");
        assert!(layer.describe().contains("Ours"));
    }

    #[test]
    fn backward_gradcheck_input_all_types() {
        let mut r = rng();
        for t in NeuronType::ALL {
            let (fin, fout) = if t == NeuronType::T4Identity { (4, 4) } else { (4, 3) };
            let mut layer = QuadraticLinear::new(t, fin, fout, &mut r);
            let x = Tensor::randn(&[2, fin], 0.0, 1.0, &mut r);
            let y = layer.forward(&x, true);
            let gin = layer.backward(&Tensor::ones_like(&y));
            let lref = &layer;
            let numeric = numeric_gradient(|xv| reference_forward(lref, xv).sum(), &x, 1e-3);
            let rep = check_close(&gin, &numeric);
            assert!(rep.passes(5e-2), "type {}: {:?}", t, rep);
        }
    }

    #[test]
    fn backward_weight_gradcheck_all_types() {
        // Every parameter of every neuron type, under default and hybrid BP,
        // against central differences of `<reference_forward(x), probe>`.
        for t in NeuronType::ALL {
            for mode in [BackpropMode::Default, BackpropMode::Hybrid] {
                let mut r = rng();
                let (fin, fout) = if t == NeuronType::T4Identity { (4, 4) } else { (4, 3) };
                let mut layer = QuadraticLinear::new(t, fin, fout, &mut r);
                layer.set_mode(mode);
                let x = Tensor::randn(&[3, fin], 0.0, 1.0, &mut r);
                let probe = Tensor::randn(&[3, fout], 0.0, 1.0, &mut r);
                layer.forward(&x, true);
                layer.backward(&probe);
                let analytic: Vec<Tensor> = layer.params().iter().map(|p| p.grad.clone()).collect();
                let layer = std::cell::RefCell::new(layer);
                for (idx, analytic) in analytic.iter().enumerate() {
                    let w0 = layer.borrow().params()[idx].value.clone();
                    let wrt_param = |w: &Tensor| {
                        layer.borrow_mut().params_mut()[idx].value = w.clone();
                        reference_forward(&layer.borrow(), &x).mul(&probe).unwrap().sum()
                    };
                    let numeric = numeric_gradient(wrt_param, &w0, 1e-3);
                    layer.borrow_mut().params_mut()[idx].value = w0;
                    let rep = check_close(analytic, &numeric);
                    assert!(rep.passes(5e-2), "param {idx}, type {t} {mode}: {rep:?}");
                }
            }
        }
    }

    #[test]
    fn hybrid_mode_produces_identical_gradients_with_smaller_cache() {
        // Hybrid BP recomputes za, zb with the forward's own products, so
        // nothing about the step may differ — not by an ulp.
        for t in NeuronType::ALL {
            let mut r = rng();
            let mut default_layer = QuadraticLinear::new(t, 6, 6, &mut r);
            let mut hybrid_layer = QuadraticLinear::new(t, 6, 6, &mut r);
            // Copy weights so both layers are identical.
            for (d, h) in default_layer.params().iter().zip(hybrid_layer.params_mut()) {
                h.value.copy_from(&d.value).unwrap();
            }
            hybrid_layer.set_mode(BackpropMode::Hybrid);
            assert_eq!(hybrid_layer.mode(), BackpropMode::Hybrid);
            assert_eq!(default_layer.mode(), BackpropMode::Default);

            let x = Tensor::randn(&[8, 6], 0.0, 1.0, &mut r);
            let yd = default_layer.forward(&x, true);
            let yh = hybrid_layer.forward(&x, true);
            assert_eq!(yd.as_slice(), yh.as_slice(), "output, type {t}");
            // The default mode caches x and the branches the second-order
            // term reads; hybrid caches only x.
            assert_eq!(hybrid_layer.cached_bytes(), x.nbytes(), "type {t}");
            assert_eq!(default_layer.cached_bytes(), x.nbytes() + t.form().second.arity() * yd.nbytes());

            let g = Tensor::randn(yd.shape(), 0.0, 1.0, &mut r);
            let gd = default_layer.backward(&g);
            let gh = hybrid_layer.backward(&g);
            assert_eq!(gd.as_slice(), gh.as_slice(), "input grad, type {t}");
            for (pd, ph) in default_layer.params().iter().zip(hybrid_layer.params()) {
                assert_eq!(pd.grad.as_slice(), ph.grad.as_slice(), "{} grad, type {t}", pd.name);
            }
        }
    }

    #[test]
    fn non_finite_bilinear_weight_reaches_output_and_input_grad() {
        // 0 · inf is NaN: a zero input or a zero upstream gradient must not
        // hide a non-finite bilinear weight.
        let mut r = rng();
        for t in [NeuronType::T1, NeuronType::T1And2] {
            let mut layer = QuadraticLinear::new(t, 3, 2, &mut r);
            layer.params_mut()[0].value.set(&[0, 0, 1], f32::INFINITY);
            let x = Tensor::from_vec(vec![0.0, 1.0, 1.0], &[1, 3]).unwrap();
            let y = layer.forward(&x, true);
            assert!(y.at(&[0, 0]).is_nan(), "type {t}: {y:?}");
            assert!(reference_forward(&layer, &x).at(&[0, 0]).is_nan());
            assert!(y.at(&[0, 1]).is_finite(), "type {t}");
            let grad_in = layer.backward(&Tensor::zeros(y.shape()));
            assert!(grad_in.has_non_finite(), "type {t}: {grad_in:?}");
        }
    }

    #[test]
    fn cache_cleared_after_clear_cache() {
        let mut r = rng();
        let mut layer = QuadraticLinear::new(NeuronType::T4, 3, 3, &mut r);
        let x = Tensor::randn(&[2, 3], 0.0, 1.0, &mut r);
        let _ = layer.forward(&x, true);
        assert!(layer.cached_bytes() > 0);
        layer.clear_cache();
        assert_eq!(layer.cached_bytes(), 0);
    }

    #[test]
    #[should_panic]
    fn t4_identity_requires_square_layer() {
        let mut r = rng();
        let _ = QuadraticLinear::new(NeuronType::T4Identity, 3, 4, &mut r);
    }

    #[test]
    fn t1_param_count_is_quadratic_in_input() {
        let mut r = rng();
        let layer = QuadraticLinear::new(NeuronType::T1, 10, 2, &mut r);
        // full tensor 2*10*10 + wa 10*2 + bias 2
        assert_eq!(layer.param_count(), 200 + 20 + 2);
    }
}
