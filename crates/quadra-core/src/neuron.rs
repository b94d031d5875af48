//! The quadratic-neuron taxonomy of the paper (Table 1), and the one table
//! that says how each design is built.
//!
//! Every QDNN design published before QuadraLib introduces the second-order
//! term of the input `X` in one of a few ways; the paper groups them into four
//! base types plus two hybrids, and proposes a new format ("Ours"):
//!
//! | Type | Neuron format | Complexity (time) | Complexity (params) |
//! |------|---------------|-------------------|---------------------|
//! | T1   | `Xᵀ·Wa·X (+ Wb·X)`            | O(n²) (+n)   | O(n²) (+n) |
//! | T2   | `Wa·X²`                        | O(2n)        | O(n)       |
//! | T3   | `(Wa·X)²`                      | O(2n)        | O(n)       |
//! | T4   | `(Wa·X) ∘ (Wb·X)`              | O(3n)        | O(2n)      |
//! | T1&2 | `Xᵀ·Wa·X + Wb·X²`              | O(n²+2n)     | O(n²+n)    |
//! | T2&4 | `(Wa·X) ∘ (Wb·X) + Wc·X²`      | O(5n)        | O(3n)      |
//! | T4+Id| `(Wa·X) ∘ (Wb·X) + X`          | O(3n)        | O(2n)      |
//! | Ours | `(Wa·X) ∘ (Wb·X) + Wc·X`       | O(4n)        | O(3n)      |
//!
//! [`NeuronType`] names a design. A private table, `NeuronType::form`,
//! describes each one as data (a `NeuronForm`): which weight slots `Wa`, `Wb`,
//! `Wc` are applied to `x` and which to `x²`, whether the second-order term is
//! `za²` or `za∘zb`, whether the first-order term is an `x`-branch, the
//! `x²`-branch or the identity, and whether a full-rank bilinear `xᵀWx` term is
//! present. It is the only map from a type to its branches; its readers are:
//!
//! * the closed-form counts [`NeuronType::param_count`] and
//!   [`NeuronType::flop_count`];
//! * both quadratic layers, through `Branches`: parameter creation, the
//!   forward, the caching of `za`/`zb`, hybrid-BP recompute and the gradient
//!   routing are written once over the table, and a layer supplies only its
//!   `Products` (convolutions for [`QuadraticConv2d`](crate::QuadraticConv2d),
//!   matrix products and the bilinear kernel for
//!   [`QuadraticLinear`](crate::QuadraticLinear));
//! * the cost estimates of [`estimate_costs`](crate::estimate_costs) and the
//!   activation estimate of
//!   [`MemoryProfiler::estimate_from_config`](crate::MemoryProfiler::estimate_from_config).

use crate::hybrid_bp::BackpropMode;
use quadra_nn::json::Value;
use quadra_nn::Param;
use quadra_tensor::Tensor;

/// The quadratic neuron design taxonomy of Table 1 in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeuronType {
    /// `f(X) = Xᵀ·Wa·X + Wb·X` — full-rank bilinear form (Cheung & Leung 1991).
    T1,
    /// `f(X) = Wa·X²` — squared inputs (Goyal et al. 2020).
    T2,
    /// `f(X) = (Wa·X)²` — squared first-order neuron (DeClaris & Su 1991).
    T3,
    /// `f(X) = (Wa·X) ∘ (Wb·X)` — Hadamard product of two first-order neurons
    /// (Bu & Karpatne 2021).
    T4,
    /// `f(X) = Xᵀ·Wa·X + Wb·X²` — hybrid of T1 and T2 (Milenkovic et al. 1996).
    T1And2,
    /// `f(X) = (Wa·X) ∘ (Wb·X) + Wc·X²` — hybrid of T2 and T4 (Fan et al. 2018).
    T2And4,
    /// `f(X) = (Wa·X) ∘ (Wb·X) + X` — T4 plus an identity mapping, the
    /// strongest baseline evaluated in Table 2.
    T4Identity,
    /// `f(X) = (Wa·X) ∘ (Wb·X) + Wc·X` — the neuron proposed by the paper.
    Ours,
}

impl NeuronType {
    /// All neuron types, in Table 1 order.
    pub const ALL: [NeuronType; 8] = [
        NeuronType::T1,
        NeuronType::T2,
        NeuronType::T3,
        NeuronType::T4,
        NeuronType::T1And2,
        NeuronType::T2And4,
        NeuronType::T4Identity,
        NeuronType::Ours,
    ];

    /// Display name matching the paper's nomenclature.
    pub fn name(&self) -> &'static str {
        match self {
            NeuronType::T1 => "T1",
            NeuronType::T2 => "T2",
            NeuronType::T3 => "T3",
            NeuronType::T4 => "T4",
            NeuronType::T1And2 => "T1&2",
            NeuronType::T2And4 => "T2&4",
            NeuronType::T4Identity => "T4+Identity",
            NeuronType::Ours => "Ours (QuadraNN)",
        }
    }

    /// The literature reference the paper associates with the design.
    pub fn reference(&self) -> &'static str {
        match self {
            NeuronType::T1 => "Cheung & Leung 1991; Zoumpourlis 2017; Jiang 2019; Mantini & Shah 2021",
            NeuronType::T2 => "Goyal et al. 2020",
            NeuronType::T3 => "DeClaris & Su 1991",
            NeuronType::T4 => "Bu & Karpatne 2021",
            NeuronType::T1And2 => "Milenkovic et al. 1996",
            NeuronType::T2And4 => "Fan et al. 2018",
            NeuronType::T4Identity => "T4 with identity mapping (ablation baseline)",
            NeuronType::Ours => "This work (QuadraLib)",
        }
    }

    /// Neuron formula as printed in Table 1.
    pub fn formula(&self) -> &'static str {
        match self {
            NeuronType::T1 => "f(X) = X^T Wa X + Wb X",
            NeuronType::T2 => "f(X) = Wa X^2",
            NeuronType::T3 => "f(X) = (Wa X)^2",
            NeuronType::T4 => "f(X) = (Wa X) ∘ (Wb X)",
            NeuronType::T1And2 => "f(X) = X^T Wa X + Wb X^2",
            NeuronType::T2And4 => "f(X) = (Wa X) ∘ (Wb X) + Wc X^2",
            NeuronType::T4Identity => "f(X) = (Wa X) ∘ (Wb X) + X",
            NeuronType::Ours => "f(X) = (Wa X) ∘ (Wb X) + Wc X",
        }
    }

    /// Number of trainable parameters of a single neuron with input size `n`
    /// (bias ignored, as in Table 1's "Model Structure" column).
    pub fn param_count(&self, n: usize) -> usize {
        self.form().weights(n, n)
    }

    /// Multiply–accumulate count of a single neuron evaluation with input size
    /// `n` (Table 1's "Computation Complexity" column): its weights, plus one
    /// pass over `n` values for squaring the input and one for the
    /// second-order product.
    pub fn flop_count(&self, n: usize) -> usize {
        let form = self.form();
        let passes = usize::from(form.on_square.is_some()) + usize::from(form.second != SecondOrder::None);
        form.weights(n, n) + passes * n
    }

    /// How the design is built: the neuron-form table.
    #[rustfmt::skip]
    pub(crate) fn form(self) -> &'static NeuronForm {
        use FirstOrder::{Identity, SquaredInput, XBranch};
        use SecondOrder::{Product, Square};
        const fn row(
            bilinear: bool,
            on_x: &'static [usize],
            on_square: Option<usize>,
            second: SecondOrder,
            first: FirstOrder,
        ) -> NeuronForm {
            NeuronForm { bilinear, on_x, on_square, second, first }
        }
        match self {
            //                                    bilinear on x        on x²    second-order       first-order
            NeuronType::T1 =>         &const { row(true,  &[A],       None,    SecondOrder::None, XBranch) },
            NeuronType::T2 =>         &const { row(false, &[],        Some(A), SecondOrder::None, SquaredInput) },
            NeuronType::T3 =>         &const { row(false, &[A],       None,    Square,            FirstOrder::None) },
            NeuronType::T4 =>         &const { row(false, &[A, B],    None,    Product,           FirstOrder::None) },
            NeuronType::T1And2 =>     &const { row(true,  &[],        Some(B), SecondOrder::None, SquaredInput) },
            NeuronType::T2And4 =>     &const { row(false, &[A, B],    Some(C), Product,           SquaredInput) },
            NeuronType::T4Identity => &const { row(false, &[A, B],    None,    Product,           Identity) },
            NeuronType::Ours =>       &const { row(false, &[A, B, C], None,    Product,           XBranch) },
        }
    }

    /// True for designs whose second-order term adds *no* extra trainable
    /// parameters over a first-order neuron — the approximation-capability
    /// problem **P1** identified by the paper.
    pub fn has_approximation_issue(&self) -> bool {
        matches!(self, NeuronType::T2 | NeuronType::T3)
    }

    /// True for designs whose per-neuron cost grows quadratically in the input
    /// size — the computation-complexity problem **P2**.
    pub fn has_complexity_issue(&self) -> bool {
        self.form().bilinear
    }

    /// True for designs with no first-order (or identity) escape path in the
    /// gradient, i.e. subject to the vanishing-gradient problem **P3** in deep
    /// plain networks.
    pub fn has_gradient_vanishing_issue(&self) -> bool {
        !matches!(self, NeuronType::T4Identity | NeuronType::Ours)
    }

    /// True if the neuron can be assembled purely from first-order building
    /// blocks already offered by DNN libraries (problem **P4** otherwise).
    pub fn is_library_friendly(&self) -> bool {
        !self.form().bilinear
    }
}

impl std::fmt::Display for NeuronType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

// In configuration files a neuron type is its variant name, e.g. "T4Identity".
impl NeuronType {
    pub(crate) fn to_value(self) -> Value {
        Value::Str(format!("{self:?}"))
    }

    pub(crate) fn from_value(v: &Value) -> Result<Self, String> {
        let name = v.as_str()?;
        NeuronType::ALL
            .into_iter()
            .find(|t| format!("{t:?}") == name)
            .ok_or_else(|| format!("unknown neuron type `{name}`"))
    }
}

// The weight slots `Wa`, `Wb`, `Wc`, and the parameter name of each.
const A: usize = 0;
const B: usize = 1;
const C: usize = 2;
const SLOT_NAMES: [&str; 3] = ["wa", "wb", "wc"];

/// The second-order term, formed from the first `x`-branches `za`, `zb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SecondOrder {
    /// No product of branches.
    None,
    /// `za²`.
    Square,
    /// `za ∘ zb`.
    Product,
}

impl SecondOrder {
    /// The `x`-branches the term reads: the ones default BP caches for
    /// backward and hybrid BP recomputes.
    pub(crate) fn arity(self) -> usize {
        match self {
            SecondOrder::None => 0,
            SecondOrder::Square => 1,
            SecondOrder::Product => 2,
        }
    }
}

/// The first-order term added to the second-order one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FirstOrder {
    /// Nothing is added.
    None,
    /// The `x`-branch after the ones the second-order term reads.
    XBranch,
    /// The `x²`-branch.
    SquaredInput,
    /// `x` itself (input and output shapes must agree).
    Identity,
}

/// One row of the neuron-form table: how a design is built.
#[derive(Debug)]
pub(crate) struct NeuronForm {
    /// A full-rank bilinear term `xᵀ·W·x` (dense layers only).
    pub(crate) bilinear: bool,
    /// The weight slots applied to `x`, in order.
    pub(crate) on_x: &'static [usize],
    /// The weight slot applied to `x²`.
    pub(crate) on_square: Option<usize>,
    pub(crate) second: SecondOrder,
    pub(crate) first: FirstOrder,
}

impl NeuronForm {
    /// Weight slots the form instantiates.
    fn slots(&self) -> usize {
        self.on_x.len() + usize::from(self.on_square.is_some())
    }

    /// Weight scalars of a layer of this form whose slots hold `per_branch`
    /// each over a fan-in of `fan_in` (a bilinear weight holds `fan_in` times
    /// a slot's). The same sum counts the layer's multiply-adds per output
    /// position.
    pub(crate) fn weights(&self, per_branch: usize, fan_in: usize) -> usize {
        (self.slots() + if self.bilinear { fan_in } else { 0 }) * per_branch
    }
}

/// The products a quadratic layer computes its branches with. Which branches
/// exist and how they combine is [`Branches`]' business.
pub(crate) trait Products {
    /// `x ⊛ W` for each of `weights`, in order.
    fn forward(&self, x: &Tensor, weights: &[&Tensor]) -> Vec<Tensor>;

    /// For the products `x ⊛ weights[i]` receiving the gradients `grads[i]`:
    /// the input gradient, summed over the products, and each weight's.
    fn backward(&self, grads: &[&Tensor], weights: &[&Tensor], x: &Tensor) -> (Tensor, Vec<Tensor>);

    /// The bias gradient.
    fn bias_grad(&self, grad_out: &Tensor) -> Tensor;

    /// The bilinear term `y[n, j] = x[n]ᵀ·W[j]·x[n]`.
    fn bilinear(&self, _x: &Tensor, _w: &Tensor) -> Tensor {
        unreachable!("the layer has no bilinear form")
    }

    /// The input and weight gradients of [`Products::bilinear`].
    fn bilinear_backward(&self, _x: &Tensor, _grad_out: &Tensor, _w: &Tensor) -> (Tensor, Tensor) {
        unreachable!("the layer has no bilinear form")
    }
}

/// Add `t` to an optional running sum.
pub(crate) fn accumulate(sum: &mut Option<Tensor>, t: Tensor) {
    match sum {
        Some(sum) => sum.add_assign(&t).expect("shape"),
        None => *sum = Some(t),
    }
}

fn slot(w: &[Option<Param>; 3], s: usize) -> &Param {
    w[s].as_ref().expect("the form instantiates its slots")
}

fn slot_mut(w: &mut [Option<Param>; 3], s: usize) -> &mut Param {
    w[s].as_mut().expect("the form instantiates its slots")
}

/// The values of the weights applied to `x`, in order.
fn on_x_values<'a>(w: &'a [Option<Param>; 3], form: &NeuronForm) -> Vec<&'a Tensor> {
    form.on_x.iter().map(|&s| &slot(w, s).value).collect()
}

/// The weights, caches and arithmetic of a quadratic layer, laid out by its
/// neuron form. A layer wraps one and supplies its [`Products`].
pub(crate) struct Branches {
    neuron_type: NeuronType,
    mode: BackpropMode,
    /// The bilinear weight, `[out, in, in]`.
    w_full: Option<Param>,
    /// The `Wa`, `Wb`, `Wc` slots the form uses.
    w: [Option<Param>; 3],
    /// One bias per output channel.
    bias: Param,
    cached_x: Option<Tensor>,
    cached_za: Option<Tensor>,
    cached_zb: Option<Tensor>,
    flops: usize,
}

impl Branches {
    /// The parameters of `neuron_type`, named `{prefix}.w_full`,
    /// `{prefix}.wa` … and `{prefix}.bias`, with `outputs` biases. `init`
    /// draws each weight in parameter order; its argument says whether the
    /// weight is the bilinear one.
    pub(crate) fn new(
        neuron_type: NeuronType,
        prefix: &str,
        outputs: usize,
        mut init: impl FnMut(bool) -> Tensor,
    ) -> Self {
        let form = neuron_type.form();
        let w_full = form.bilinear.then(|| Param::new(format!("{prefix}.w_full"), init(true)));
        let w = std::array::from_fn(|s| {
            let used = form.on_x.contains(&s) || form.on_square == Some(s);
            used.then(|| Param::new(format!("{prefix}.{}", SLOT_NAMES[s]), init(false)))
        });
        Branches {
            neuron_type,
            mode: BackpropMode::Default,
            w_full,
            w,
            bias: Param::new_no_decay(format!("{prefix}.bias"), Tensor::zeros(&[outputs])),
            cached_x: None,
            cached_za: None,
            cached_zb: None,
            flops: 0,
        }
    }

    pub(crate) fn neuron_type(&self) -> NeuronType {
        self.neuron_type
    }

    pub(crate) fn mode(&self) -> BackpropMode {
        self.mode
    }

    pub(crate) fn set_mode(&mut self, mode: BackpropMode) {
        self.mode = mode;
    }

    /// Multiply-adds of the last forward: every weight branch, and the
    /// bilinear term.
    pub(crate) fn flops(&self) -> usize {
        self.flops
    }

    pub(crate) fn params(&self) -> Vec<&Param> {
        self.w_full.iter().chain(self.w.iter().flatten()).chain([&self.bias]).collect()
    }

    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        self.w_full.iter_mut().chain(self.w.iter_mut().flatten()).chain([&mut self.bias]).collect()
    }

    pub(crate) fn cached_bytes(&self) -> usize {
        [&self.cached_x, &self.cached_za, &self.cached_zb].into_iter().flatten().map(Tensor::nbytes).sum()
    }

    pub(crate) fn clear_cache(&mut self) {
        self.cached_x = None;
        self.cached_za = None;
        self.cached_zb = None;
    }

    /// The layer's output: the bilinear or second-order term, `+=` the
    /// first-order term, `+ x`, then the bias. Eval keeps nothing; hybrid BP
    /// keeps the input only and recomputes `za`, `zb` from it in backward.
    pub(crate) fn forward(&mut self, ops: &impl Products, x: &Tensor, train: bool) -> Tensor {
        let form = self.neuron_type.form();
        let on_x = on_x_values(&self.w, form);
        let mut z = if on_x.is_empty() { Vec::new() } else { ops.forward(x, &on_x) }.into_iter();
        let squared =
            form.on_square.map(|s| ops.forward(&x.square(), &[&slot(&self.w, s).value]).swap_remove(0));
        let bilinear = self.w_full.as_ref().map(|w| ops.bilinear(x, &w.value));
        let (za, zb) = match form.second {
            SecondOrder::None => (None, None),
            SecondOrder::Square => (z.next(), None),
            SecondOrder::Product => (z.next(), z.next()),
        };
        let second = match (&za, &zb) {
            (Some(za), Some(zb)) => Some(za.mul(zb).expect("shape")),
            (Some(za), None) => Some(za.square()),
            _ => None,
        };
        let first = match form.first {
            FirstOrder::XBranch => z.next(),
            FirstOrder::SquaredInput => squared,
            FirstOrder::Identity | FirstOrder::None => None,
        };
        let mut terms = bilinear.into_iter().chain(second).chain(first);
        let mut out = terms.next().expect("every form has a term");
        for term in terms {
            out.add_assign(&term).expect("shape");
        }
        if form.first == FirstOrder::Identity {
            out.add_assign(x).expect("shape");
        }
        // Per output channel, over however many trailing axes there are.
        let plane: usize = out.shape()[2..].iter().product();
        if plane > 0 {
            let bias = self.bias.value.as_slice();
            for (i, values) in out.as_mut_slice().chunks_exact_mut(plane).enumerate() {
                let b = bias[i % bias.len()];
                values.iter_mut().for_each(|v| *v += b);
            }
        }
        // A weight branch does `w.numel() / outputs` multiply-adds per output.
        let per_output = self.w.iter().flatten().next().map_or(0, |w| w.numel() / self.bias.numel().max(1));
        self.flops = form.weights(out.numel() * per_output, x.shape()[1]);

        let keep_branches = train && self.mode == BackpropMode::Default;
        self.cached_x = train.then(|| x.clone());
        self.cached_za = za.filter(|_| keep_branches);
        self.cached_zb = zb.filter(|_| keep_branches);
        out
    }

    /// Route `grad_out` to the bias and every branch, and return the input
    /// gradient, accumulated bilinear → `x`-branches → `x²`-branch →
    /// identity.
    pub(crate) fn backward(&mut self, ops: &impl Products, grad_out: &Tensor) -> Tensor {
        let x = self.cached_x.take().expect("backward called before forward");
        self.bias.accumulate_grad(&ops.bias_grad(grad_out));
        let form = self.neuron_type.form();
        let on_x = on_x_values(&self.w, form);

        // Hybrid BP recomputes za, zb with the forward's own products, so the
        // recomputed values are the forward's bit for bit.
        let arity = form.second.arity();
        let (za, zb) = match (self.cached_za.take(), self.cached_zb.take()) {
            (Some(za), zb) => (Some(za), zb),
            (None, _) if arity > 0 => {
                let mut z = ops.forward(&x, &on_x[..arity]).into_iter();
                (z.next(), z.next())
            }
            _ => (None, None),
        };
        // The gradient reaching each `x`-branch, in slot order.
        let product_grads = match (&za, &zb) {
            (Some(za), Some(zb)) => {
                [Some(grad_out.mul(zb).expect("shape")), Some(grad_out.mul(za).expect("shape"))]
            }
            (Some(za), None) => [Some(grad_out.mul(&za.mul_scalar(2.0)).expect("shape")), None],
            _ => [None, None],
        };
        let linear = (form.first == FirstOrder::XBranch).then_some(grad_out);
        let grads: Vec<&Tensor> = product_grads.iter().flatten().chain(linear).collect();

        let mut grad_in = self.w_full.as_mut().map(|w| {
            let (grad_in, grad_w) = ops.bilinear_backward(&x, grad_out, &w.value);
            w.accumulate_grad(&grad_w);
            grad_in
        });
        if !grads.is_empty() {
            let (gx, gws) = ops.backward(&grads, &on_x, &x);
            accumulate(&mut grad_in, gx);
            for (&s, gw) in form.on_x.iter().zip(&gws) {
                slot_mut(&mut self.w, s).accumulate_grad(gw);
            }
        }
        if let Some(s) = form.on_square {
            let w = slot_mut(&mut self.w, s);
            let (gx, gws) = ops.backward(&[grad_out], &[&w.value], &x.square());
            gws.iter().for_each(|gw| w.accumulate_grad(gw));
            // d(x²)/dx = 2x
            let gx = gx.mul(&x.mul_scalar(2.0)).expect("shape");
            grad_in.get_or_insert_with(|| Tensor::zeros(x.shape())).add_assign(&gx).expect("shape");
        }
        let mut grad_in = grad_in.expect("every form reaches its input");
        if form.first == FirstOrder::Identity {
            grad_in.add_assign(grad_out).expect("shape");
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuadraticLinear;
    use quadra_nn::Layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(21)
    }

    /// `W·x` for the `[n, 1]` weight called `name` of a one-neuron layer.
    fn dot(layer: &QuadraticLinear, name: &str, x: &Tensor) -> f32 {
        let w = &layer.params().into_iter().find(|p| p.name == name).expect(name).value;
        w.as_slice().iter().zip(x.as_slice()).map(|(w, x)| w * x).sum()
    }

    #[test]
    fn complexity_table_matches_paper_orders() {
        let n = 16;
        assert_eq!(NeuronType::T1.param_count(n), n * n + n);
        assert_eq!(NeuronType::T2.param_count(n), n);
        assert_eq!(NeuronType::T3.param_count(n), n);
        assert_eq!(NeuronType::T4.param_count(n), 2 * n);
        assert_eq!(NeuronType::T1And2.param_count(n), n * n + n);
        assert_eq!(NeuronType::T2And4.param_count(n), 3 * n);
        assert_eq!(NeuronType::Ours.param_count(n), 3 * n);
        assert_eq!(NeuronType::T2.flop_count(n), 2 * n);
        assert_eq!(NeuronType::T4.flop_count(n), 3 * n);
        assert_eq!(NeuronType::T2And4.flop_count(n), 5 * n);
        assert_eq!(NeuronType::Ours.flop_count(n), 4 * n);
        assert_eq!(NeuronType::T1.flop_count(n), n * n + n);
        assert_eq!(NeuronType::T4Identity.param_count(n), 2 * n);
        assert_eq!(NeuronType::T3.flop_count(n), 2 * n);
        assert_eq!(NeuronType::T1And2.flop_count(n), n * n + 2 * n);
        assert_eq!(NeuronType::T4Identity.flop_count(n), 3 * n);
    }

    #[test]
    fn issue_flags_follow_table_1() {
        use NeuronType::*;
        // P1: approximation capability
        assert!(T2.has_approximation_issue() && T3.has_approximation_issue());
        assert!(!T4.has_approximation_issue() && !Ours.has_approximation_issue());
        // P2: quadratic cost
        assert!(T1.has_complexity_issue() && T1And2.has_complexity_issue());
        assert!(!Ours.has_complexity_issue());
        // P3: gradient vanishing — solved only by identity/linear escape path
        assert!(T2.has_gradient_vanishing_issue());
        assert!(T4.has_gradient_vanishing_issue());
        assert!(!T4Identity.has_gradient_vanishing_issue());
        assert!(!Ours.has_gradient_vanishing_issue());
        // P4: implementation feasibility
        assert!(!T1.is_library_friendly());
        assert!(Ours.is_library_friendly());
    }

    #[test]
    fn names_formulas_references_are_nonempty_and_unique() {
        let mut names = std::collections::HashSet::new();
        for t in NeuronType::ALL {
            assert!(!t.name().is_empty());
            assert!(!t.formula().is_empty());
            assert!(!t.reference().is_empty());
            assert!(names.insert(t.name()), "duplicate name {}", t.name());
            assert_eq!(format!("{}", t), t.name());
        }
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn forms_are_consistent() {
        for t in NeuronType::ALL {
            let form = t.form();
            // The second-order term reads the leading `x`-branches; an
            // `XBranch` first-order term is the one after them.
            let linear = usize::from(form.first == FirstOrder::XBranch);
            assert_eq!(form.on_x.len(), form.second.arity() + linear, "type {t}");
            assert_eq!(form.on_square.is_some(), form.first == FirstOrder::SquaredInput, "type {t}");
            let mut slots: Vec<usize> = form.on_x.iter().copied().chain(form.on_square).collect();
            slots.sort_unstable();
            slots.dedup();
            assert_eq!(slots.len(), form.slots(), "type {t} reuses a slot");
        }
    }

    // A dense layer's output units are single neurons: the checks below run
    // on `QuadraticLinear` layers, one neuron wide where the type allows.

    #[test]
    fn dense_neuron_param_counts_match_closed_form() {
        let mut r = rng();
        for t in NeuronType::ALL {
            // The identity mapping needs a square layer.
            let (n, out) = if t == NeuronType::T4Identity { (12, 12) } else { (12, 5) };
            let layer = QuadraticLinear::new(t, n, out, &mut r);
            assert_eq!(layer.param_count(), out * t.param_count(n) + out, "type {t}");
        }
    }

    #[test]
    fn ours_forward_matches_manual_formula() {
        let mut r = rng();
        let mut neuron = QuadraticLinear::new(NeuronType::Ours, 5, 1, &mut r);
        let x = Tensor::randn(&[1, 5], 0.0, 1.0, &mut r);
        let expect =
            dot(&neuron, "qlinear.wa", &x) * dot(&neuron, "qlinear.wb", &x) + dot(&neuron, "qlinear.wc", &x);
        assert!((neuron.forward(&x, false).at(&[0, 0]) - expect).abs() < 1e-5);
    }

    #[test]
    fn t3_square_of_linear_is_nonnegative_without_bias() {
        let mut r = rng();
        let mut neuron = QuadraticLinear::new(NeuronType::T3, 8, 1, &mut r);
        for _ in 0..20 {
            let x = Tensor::randn(&[1, 8], 0.0, 1.0, &mut r);
            assert!(neuron.forward(&x, false).at(&[0, 0]) >= 0.0);
        }
    }

    #[test]
    fn t1_quadratic_form_scaling() {
        // f(2x) - linear part should be 4x the quadratic part of f(x).
        let mut r = rng();
        let mut neuron = QuadraticLinear::new(NeuronType::T1, 6, 1, &mut r);
        let x = Tensor::randn(&[1, 6], 0.0, 1.0, &mut r);
        let fx = neuron.forward(&x, false).at(&[0, 0]) - dot(&neuron, "qlinear.wa", &x);
        let x2 = x.mul_scalar(2.0);
        let fx2 = neuron.forward(&x2, false).at(&[0, 0]) - dot(&neuron, "qlinear.wa", &x2);
        assert!((fx2 - 4.0 * fx).abs() < 1e-4);
    }

    #[test]
    fn all_types_forward_produce_finite_values() {
        let mut r = rng();
        for t in NeuronType::ALL {
            let mut layer = QuadraticLinear::new(t, 10, 10, &mut r);
            let x = Tensor::randn(&[1, 10], 0.0, 1.0, &mut r);
            assert!(!layer.forward(&x, false).has_non_finite(), "type {}", t);
        }
    }

    #[test]
    fn neuron_type_serde_roundtrip() {
        for t in NeuronType::ALL {
            let text = t.to_value().to_text(false);
            assert_eq!(text, format!("\"{t:?}\""));
            assert_eq!(NeuronType::from_value(&quadra_nn::json::parse(&text).unwrap()), Ok(t));
        }
        assert!(NeuronType::from_value(&Value::Str("T5".into())).unwrap_err().contains("`T5`"));
        assert!(NeuronType::from_value(&Value::Null).is_err());
    }
}
