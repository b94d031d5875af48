//! Quadratic fully connected layers for every neuron type of Table 1.

use crate::hybrid_bp::BackpropMode;
use crate::neuron::NeuronType;
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
    neuron_type: NeuronType,
    mode: BackpropMode,
    in_features: usize,
    out_features: usize,
    /// Full bilinear tensor for T1 / T1&2 (`[out, in, in]`).
    w_full: Option<Param>,
    wa: Option<Param>,
    wb: Option<Param>,
    wc: Option<Param>,
    bias: Param,
    // Caches (populated according to `mode`).
    cached_x: Option<Tensor>,
    cached_za: Option<Tensor>,
    cached_zb: Option<Tensor>,
    flops: usize,
}

impl QuadraticLinear {
    /// Create a quadratic dense layer of the given neuron type.
    pub fn new(neuron_type: NeuronType, in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        if neuron_type == NeuronType::T4Identity {
            assert_eq!(
                in_features, out_features,
                "T4+Identity requires in_features == out_features for the identity mapping"
            );
        }
        fn vec_init<R: Rng>(in_features: usize, out_features: usize, rng: &mut R) -> Tensor {
            Tensor::init(
                &[in_features, out_features],
                InitKind::KaimingUniform,
                in_features,
                out_features,
                rng,
            )
        }
        let needs = NeuronWeights::required(neuron_type);
        let w_full = needs.full.then(|| {
            Param::new(
                "qlinear.w_full",
                Tensor::randn(&[out_features, in_features, in_features], 0.0, 1.0 / in_features as f32, rng),
            )
        });
        let wa = needs.a.then(|| Param::new("qlinear.wa", vec_init(in_features, out_features, rng)));
        let wb = needs.b.then(|| Param::new("qlinear.wb", vec_init(in_features, out_features, rng)));
        let wc = needs.c.then(|| Param::new("qlinear.wc", vec_init(in_features, out_features, rng)));
        QuadraticLinear {
            neuron_type,
            mode: BackpropMode::Default,
            in_features,
            out_features,
            w_full,
            wa,
            wb,
            wc,
            bias: Param::new_no_decay("qlinear.bias", Tensor::zeros(&[out_features])),
            cached_x: None,
            cached_za: None,
            cached_zb: None,
            flops: 0,
        }
    }

    /// The neuron design implemented by this layer.
    pub fn neuron_type(&self) -> NeuronType {
        self.neuron_type
    }

    /// Select the back-propagation mode (default AD caching vs hybrid).
    pub fn set_mode(&mut self, mode: BackpropMode) {
        self.mode = mode;
    }

    /// The current back-propagation mode.
    pub fn mode(&self) -> BackpropMode {
        self.mode
    }

    /// Input feature dimension.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature dimension.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    fn branch(&self, x: &Tensor, w: &Option<Param>) -> Tensor {
        x.matmul(&w.as_ref().expect("branch weight present").value).expect("linear shapes")
    }

    /// Bilinear term for T1-style designs: `y[n, j] = x[n, :]ᵀ W_full[j] x[n, :]`.
    fn bilinear(&self, x: &Tensor) -> Tensor {
        let w = &self.w_full.as_ref().expect("T1 weight").value;
        let n = x.shape()[0];
        let d = self.in_features;
        let o = self.out_features;
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
                    let xp = xrow[p];
                    if xp == 0.0 {
                        continue;
                    }
                    let row = &wj[p * d..(p + 1) * d];
                    acc += xp * row.iter().zip(xrow.iter()).map(|(a, b)| a * b).sum::<f32>();
                }
                os[ni * o + j] = acc;
            }
        }
        out
    }
}

/// Which weight tensors each neuron type requires.
struct NeuronWeights {
    full: bool,
    a: bool,
    b: bool,
    c: bool,
}

impl NeuronWeights {
    fn required(t: NeuronType) -> Self {
        match t {
            NeuronType::T1 => NeuronWeights { full: true, a: true, b: false, c: false },
            NeuronType::T2 | NeuronType::T3 => NeuronWeights { full: false, a: true, b: false, c: false },
            NeuronType::T4 | NeuronType::T4Identity => {
                NeuronWeights { full: false, a: true, b: true, c: false }
            }
            NeuronType::T1And2 => NeuronWeights { full: true, a: false, b: true, c: false },
            NeuronType::T2And4 | NeuronType::Ours => NeuronWeights { full: false, a: true, b: true, c: true },
        }
    }
}

impl Layer for QuadraticLinear {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.ndim(), 2, "QuadraticLinear expects [batch, features] input");
        assert_eq!(x.shape()[1], self.in_features, "input width mismatch");
        let n = x.shape()[0];
        let base_flops = n * self.in_features * self.out_features;

        let (out, za, zb, flops) = match self.neuron_type {
            NeuronType::T1 => {
                let quad = self.bilinear(x);
                let lin = self.branch(x, &self.wa);
                (
                    quad.add(&lin).expect("shape"),
                    None,
                    None,
                    n * self.in_features * self.in_features * self.out_features + base_flops,
                )
            }
            NeuronType::T1And2 => {
                let quad = self.bilinear(x);
                let sq = x.square().matmul(&self.wb.as_ref().unwrap().value).expect("shape");
                (
                    quad.add(&sq).expect("shape"),
                    None,
                    None,
                    n * self.in_features * self.in_features * self.out_features + 2 * base_flops,
                )
            }
            NeuronType::T2 => {
                let out = x.square().matmul(&self.wa.as_ref().unwrap().value).expect("shape");
                (out, None, None, 2 * base_flops)
            }
            NeuronType::T3 => {
                let za = self.branch(x, &self.wa);
                (za.square(), Some(za), None, 2 * base_flops)
            }
            NeuronType::T4 => {
                let za = self.branch(x, &self.wa);
                let zb = self.branch(x, &self.wb);
                (za.mul(&zb).expect("shape"), Some(za), Some(zb), 3 * base_flops)
            }
            NeuronType::T4Identity => {
                let za = self.branch(x, &self.wa);
                let zb = self.branch(x, &self.wb);
                (za.mul(&zb).expect("shape").add(x).expect("shape"), Some(za), Some(zb), 3 * base_flops)
            }
            NeuronType::T2And4 => {
                let za = self.branch(x, &self.wa);
                let zb = self.branch(x, &self.wb);
                let sq = x.square().matmul(&self.wc.as_ref().unwrap().value).expect("shape");
                (za.mul(&zb).expect("shape").add(&sq).expect("shape"), Some(za), Some(zb), 5 * base_flops)
            }
            NeuronType::Ours => {
                let za = self.branch(x, &self.wa);
                let zb = self.branch(x, &self.wb);
                let lin = self.branch(x, &self.wc);
                (za.mul(&zb).expect("shape").add(&lin).expect("shape"), Some(za), Some(zb), 4 * base_flops)
            }
        };
        self.flops = flops;
        let out = out.add(&self.bias.value).expect("bias broadcast");
        // Eval keeps nothing; hybrid BP keeps the input only and recomputes
        // the branches from it (symbolic gradients).
        let keep_branches = train && self.mode == BackpropMode::Default;
        self.cached_x = train.then(|| x.clone());
        self.cached_za = za.filter(|_| keep_branches);
        self.cached_zb = zb.filter(|_| keep_branches);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_x.take().expect("backward called before forward");
        // Bias gradient is shared by every design.
        self.bias.accumulate_grad(&grad_out.sum_axis(0).expect("axis 0"));

        // Recompute branches if running in hybrid mode.
        let need_branches = matches!(
            self.neuron_type,
            NeuronType::T3 | NeuronType::T4 | NeuronType::T4Identity | NeuronType::T2And4 | NeuronType::Ours
        );
        let (za, zb) = if need_branches {
            let za = match self.cached_za.take() {
                Some(z) => Some(z),
                None => self.wa.as_ref().map(|_| self.branch(&x, &self.wa)),
            };
            let zb = match self.cached_zb.take() {
                Some(z) => Some(z),
                None => self.wb.as_ref().map(|_| self.branch(&x, &self.wb)),
            };
            (za, zb)
        } else {
            self.cached_za = None;
            self.cached_zb = None;
            (None, None)
        };

        let mut grad_in = Tensor::zeros(x.shape());

        // Helper to apply the contribution of a plain linear branch y = x·W.
        let linear_branch =
            |w: &mut Option<Param>, branch_grad: &Tensor, grad_in: &mut Tensor, x_used: &Tensor| {
                let w = w.as_mut().expect("branch weight");
                let gw = x_used.matmul_tn(branch_grad).expect("shape");
                w.accumulate_grad(&gw);
                let gx = branch_grad.matmul_nt(&w.value).expect("shape");
                grad_in.add_assign(&gx).expect("shape");
            };

        match self.neuron_type {
            NeuronType::T1 | NeuronType::T1And2 => {
                // Bilinear part.
                let d = self.in_features;
                let o = self.out_features;
                let n = x.shape()[0];
                let xs = x.as_slice();
                let gs = grad_out.as_slice();
                {
                    let wfull = self.w_full.as_mut().expect("T1 weight");
                    let mut gw = Tensor::zeros(wfull.value.shape());
                    let gwm = gw.as_mut_slice();
                    let ws = wfull.value.as_slice();
                    let gi = grad_in.as_mut_slice();
                    for ni in 0..n {
                        let xrow = &xs[ni * d..(ni + 1) * d];
                        for j in 0..o {
                            let g = gs[ni * o + j];
                            if g == 0.0 {
                                continue;
                            }
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
                    wfull.accumulate_grad(&gw);
                }
                if self.neuron_type == NeuronType::T1 {
                    // + Wa·X linear term.
                    linear_branch(&mut self.wa, grad_out, &mut grad_in, &x);
                } else {
                    // + Wb·X² term.
                    let xsq = x.square();
                    let gw = xsq.matmul_tn(grad_out).expect("shape");
                    let wb = self.wb.as_mut().expect("wb");
                    wb.accumulate_grad(&gw);
                    let gx =
                        grad_out.matmul_nt(&wb.value).expect("shape").mul(&x.mul_scalar(2.0)).expect("shape");
                    grad_in.add_assign(&gx).expect("shape");
                }
            }
            NeuronType::T2 => {
                let xsq = x.square();
                let gw = xsq.matmul_tn(grad_out).expect("shape");
                let wa = self.wa.as_mut().expect("wa");
                wa.accumulate_grad(&gw);
                let gx =
                    grad_out.matmul_nt(&wa.value).expect("shape").mul(&x.mul_scalar(2.0)).expect("shape");
                grad_in.add_assign(&gx).expect("shape");
            }
            NeuronType::T3 => {
                let za = za.expect("za");
                let gz = grad_out.mul(&za.mul_scalar(2.0)).expect("shape");
                linear_branch(&mut self.wa, &gz, &mut grad_in, &x);
            }
            NeuronType::T4 | NeuronType::T4Identity | NeuronType::T2And4 | NeuronType::Ours => {
                let za = za.expect("za");
                let zb = zb.expect("zb");
                let ga = grad_out.mul(&zb).expect("shape");
                let gb = grad_out.mul(&za).expect("shape");
                linear_branch(&mut self.wa, &ga, &mut grad_in, &x);
                linear_branch(&mut self.wb, &gb, &mut grad_in, &x);
                match self.neuron_type {
                    NeuronType::T4Identity => {
                        grad_in.add_assign(grad_out).expect("shape");
                    }
                    NeuronType::T2And4 => {
                        let xsq = x.square();
                        let gw = xsq.matmul_tn(grad_out).expect("shape");
                        let wc = self.wc.as_mut().expect("wc");
                        wc.accumulate_grad(&gw);
                        let gx = grad_out
                            .matmul_nt(&wc.value)
                            .expect("shape")
                            .mul(&x.mul_scalar(2.0))
                            .expect("shape");
                        grad_in.add_assign(&gx).expect("shape");
                    }
                    NeuronType::Ours => {
                        linear_branch(&mut self.wc, grad_out, &mut grad_in, &x);
                    }
                    _ => {}
                }
            }
        }
        grad_in
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = Vec::new();
        if let Some(w) = &self.w_full {
            p.push(w);
        }
        for w in [&self.wa, &self.wb, &self.wc].into_iter().flatten() {
            p.push(w);
        }
        p.push(&self.bias);
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = Vec::new();
        if let Some(w) = &mut self.w_full {
            p.push(w);
        }
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
        "quadratic_linear"
    }

    fn describe(&self) -> String {
        format!(
            "quadratic_linear[{}] {}→{} ({} params, {})",
            self.neuron_type.name(),
            self.in_features,
            self.out_features,
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
        StdRng::seed_from_u64(33)
    }

    /// Reference forward pass used for finite-difference checks.
    fn reference_forward(layer: &QuadraticLinear, x: &Tensor) -> Tensor {
        let get = |p: &Option<Param>| p.as_ref().unwrap().value.clone();
        let bias = layer.bias.value.clone();
        let out = match layer.neuron_type {
            NeuronType::T2 => x.square().matmul(&get(&layer.wa)).unwrap(),
            NeuronType::T3 => x.matmul(&get(&layer.wa)).unwrap().square(),
            NeuronType::T4 => {
                let za = x.matmul(&get(&layer.wa)).unwrap();
                let zb = x.matmul(&get(&layer.wb)).unwrap();
                za.mul(&zb).unwrap()
            }
            NeuronType::T4Identity => {
                let za = x.matmul(&get(&layer.wa)).unwrap();
                let zb = x.matmul(&get(&layer.wb)).unwrap();
                za.mul(&zb).unwrap().add(x).unwrap()
            }
            NeuronType::T2And4 => {
                let za = x.matmul(&get(&layer.wa)).unwrap();
                let zb = x.matmul(&get(&layer.wb)).unwrap();
                za.mul(&zb).unwrap().add(&x.square().matmul(&get(&layer.wc)).unwrap()).unwrap()
            }
            NeuronType::Ours => {
                let za = x.matmul(&get(&layer.wa)).unwrap();
                let zb = x.matmul(&get(&layer.wb)).unwrap();
                za.mul(&zb).unwrap().add(&x.matmul(&get(&layer.wc)).unwrap()).unwrap()
            }
            NeuronType::T1 | NeuronType::T1And2 => layer_forward_bilinear(layer, x),
        };
        out.add(&bias).unwrap()
    }

    fn layer_forward_bilinear(layer: &QuadraticLinear, x: &Tensor) -> Tensor {
        let w = &layer.w_full.as_ref().unwrap().value;
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
        match layer.neuron_type {
            NeuronType::T1 => out.add(&x.matmul(&layer.wa.as_ref().unwrap().value).unwrap()).unwrap(),
            NeuronType::T1And2 => {
                out.add(&x.square().matmul(&layer.wb.as_ref().unwrap().value).unwrap()).unwrap()
            }
            _ => out,
        }
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
        let mut r = rng();
        let mut default_layer = QuadraticLinear::new(NeuronType::Ours, 6, 6, &mut r);
        let mut hybrid_layer = QuadraticLinear::new(NeuronType::Ours, 6, 6, &mut r);
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
        assert!(yd.allclose(&yh, 1e-5));
        // The default mode caches x + za + zb; hybrid caches only x.
        assert!(default_layer.cached_bytes() > hybrid_layer.cached_bytes());
        assert_eq!(hybrid_layer.cached_bytes(), x.nbytes());

        let g = Tensor::randn(yd.shape(), 0.0, 1.0, &mut r);
        let gd = default_layer.backward(&g);
        let gh = hybrid_layer.backward(&g);
        assert!(gd.allclose(&gh, 1e-4));
        for (pd, ph) in default_layer.params().iter().zip(hybrid_layer.params()) {
            assert!(pd.grad.allclose(&ph.grad, 1e-4));
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
