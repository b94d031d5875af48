//! The [`Layer`] trait plus the [`Sequential`] and [`Residual`] containers.

use crate::mask::BitMask;
use crate::param::Param;
use quadra_tensor::Tensor;

/// The interface every network component implements.
///
/// A layer is a stateful object: a training-mode [`Layer::forward`] computes
/// the output for a batch and caches whatever intermediate values the layer's
/// backward pass will need; [`Layer::backward`] consumes the cache,
/// accumulates parameter gradients, and returns the gradient with respect to
/// the layer's input. An eval-mode forward caches nothing (and drops what an
/// earlier training forward left), so inference pays for no copy it will
/// never use and a `backward` after it fails like one before any forward.
///
/// The cache is deliberately explicit: its size is reported by
/// [`Layer::cached_bytes`] so the memory profiler in `quadra-core` can
/// reproduce the paper's training-memory measurements, and quadratic layers can
/// trade cache size against recomputation (the hybrid back-propagation scheme).
pub trait Layer {
    /// Compute the layer output for `x`. `train` selects training behaviour
    /// (caches kept for backward, dropout active, batch-norm uses batch
    /// statistics) versus inference.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Propagate `grad_out` (gradient w.r.t. the layer output) backwards,
    /// accumulating parameter gradients and returning the gradient w.r.t. the
    /// layer input. Must be called after a training-mode `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Immutable access to the layer's trainable parameters.
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable access to the layer's trainable parameters (for the optimizer).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Immutable access to the layer's named non-trainable buffers — state the
    /// forward pass depends on but no optimizer updates, such as batch-norm
    /// running statistics. Checkpointing persists these alongside the
    /// parameters; a model restored without them would normalise with
    /// zero-mean/unit-variance defaults and serve garbage in eval mode.
    fn buffers(&self) -> Vec<(&'static str, &Tensor)> {
        Vec::new()
    }

    /// Mutable access to the layer's named buffers (for checkpoint loading).
    /// Must yield the same names in the same order as [`Layer::buffers`].
    fn buffers_mut(&mut self) -> Vec<(&'static str, &mut Tensor)> {
        Vec::new()
    }

    /// Bytes of intermediate activations currently cached for backward, at
    /// the size they are stored in: f32 tensors at 4 bytes per element,
    /// bit masks at one bit per element (rounded up to a byte), max-pool
    /// window offsets at one byte per output. Shapes and other bookkeeping
    /// are not counted.
    fn cached_bytes(&self) -> usize {
        0
    }

    /// Drop any cached activations (used after an optimizer step and by the
    /// gradient-checkpointing style hybrid back-propagation).
    fn clear_cache(&mut self) {}

    /// Total number of trainable scalars in the layer.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Approximate multiply–accumulate count of the most recent forward pass.
    /// Used by the auto-builder's layer-performance indicator (Eq. 5).
    fn flops_last_forward(&self) -> usize {
        0
    }

    /// Enable or disable the layer's memory-saving backward mode, if it has
    /// one. First-order layers ignore this; the quadratic layers in
    /// `quadra-core` switch between default and hybrid back-propagation.
    /// Containers propagate the call to their children.
    fn set_memory_saving(&mut self, _enabled: bool) {}

    /// True if the layer is currently in its memory-saving backward mode.
    fn memory_saving(&self) -> bool {
        false
    }

    /// Short type tag, e.g. `"conv2d"` or `"quadratic_conv2d[ours]"`.
    fn layer_type(&self) -> &'static str;

    /// Human-readable one-line description used by the analysis tools.
    fn describe(&self) -> String {
        format!("{} ({} params)", self.layer_type(), self.param_count())
    }
}

/// A container applying layers one after another.
///
/// `Sequential` also exposes its children for inspection and surgery, which is
/// what the QDNN auto-builder uses for layer replacement and heuristic layer
/// reduction.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Build a sequential container from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// An empty container.
    pub fn empty() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Append a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the container has no children.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the children.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the children (used by the auto-builder).
    pub fn layers_mut(&mut self) -> &mut Vec<Box<dyn Layer>> {
        &mut self.layers
    }

    /// Replace the child at `index`, returning the old layer.
    pub fn replace(&mut self, index: usize, layer: Box<dyn Layer>) -> Box<dyn Layer> {
        std::mem::replace(&mut self.layers[index], layer)
    }

    /// Remove and return the child at `index`.
    pub fn remove(&mut self, index: usize) -> Box<dyn Layer> {
        self.layers.remove(index)
    }

    /// Per-child parameter counts, useful for model summaries.
    pub fn param_counts(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.param_count()).collect()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for layer in self.layers.iter_mut() {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut grad = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        grad
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    fn buffers(&self) -> Vec<(&'static str, &Tensor)> {
        self.layers.iter().flat_map(|l| l.buffers()).collect()
    }

    fn buffers_mut(&mut self) -> Vec<(&'static str, &mut Tensor)> {
        self.layers.iter_mut().flat_map(|l| l.buffers_mut()).collect()
    }

    fn cached_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.cached_bytes()).sum()
    }

    fn clear_cache(&mut self) {
        for l in self.layers.iter_mut() {
            l.clear_cache();
        }
    }

    fn flops_last_forward(&self) -> usize {
        self.layers.iter().map(|l| l.flops_last_forward()).sum()
    }

    fn set_memory_saving(&mut self, enabled: bool) {
        for l in self.layers.iter_mut() {
            l.set_memory_saving(enabled);
        }
    }

    fn memory_saving(&self) -> bool {
        self.layers.iter().any(|l| l.memory_saving())
    }

    fn layer_type(&self) -> &'static str {
        "sequential"
    }

    fn describe(&self) -> String {
        let children: Vec<String> = self.layers.iter().map(|l| l.describe()).collect();
        format!("sequential[\n  {}\n]", children.join("\n  "))
    }
}

/// A residual block: `y = relu?(body(x) + shortcut(x))`.
///
/// The shortcut defaults to identity; a projection (1×1 convolution) can be
/// supplied when the body changes the channel count or spatial size. This is
/// the He et al. 2016 structure the paper relies on both for first-order
/// ResNet-32 and for its quadratic counterpart.
pub struct Residual {
    body: Sequential,
    shortcut: Option<Box<dyn Layer>>,
    final_relu: bool,
    relu_mask: Option<BitMask>,
}

impl Residual {
    /// Create a residual block with an identity shortcut.
    pub fn new(body: Sequential, final_relu: bool) -> Self {
        Residual { body, shortcut: None, final_relu, relu_mask: None }
    }

    /// Create a residual block with a projection shortcut.
    pub fn with_shortcut(body: Sequential, shortcut: Box<dyn Layer>, final_relu: bool) -> Self {
        Residual { body, shortcut: Some(shortcut), final_relu, relu_mask: None }
    }

    /// Immutable access to the residual body (for the auto-builder).
    pub fn body(&self) -> &Sequential {
        &self.body
    }

    /// Mutable access to the residual body (for the auto-builder).
    pub fn body_mut(&mut self) -> &mut Sequential {
        &mut self.body
    }
}

impl Layer for Residual {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut out = self.body.forward(x, train);
        let sum = match &mut self.shortcut {
            Some(s) => out.add_assign(&s.forward(x, train)),
            None => out.add_assign(x),
        };
        sum.expect("residual shapes must match");
        if self.final_relu {
            self.relu_mask = train.then(|| BitMask::pack(out.as_slice(), |v| v > 0.0));
            // The op `Tensor::relu` applies, without a fresh tensor.
            out.map_inplace(|v| v.max(0.0));
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let grad = if self.final_relu {
            let mask = self.relu_mask.take().expect("backward called before forward");
            mask.apply(grad_out, 1.0, 0.0)
        } else {
            grad_out.clone()
        };
        let grad_body = self.body.backward(&grad);
        let grad_skip = match &mut self.shortcut {
            Some(s) => s.backward(&grad),
            None => grad,
        };
        grad_body.add(&grad_skip).expect("residual gradient shapes must match")
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = self.body.params();
        if let Some(s) = &self.shortcut {
            p.extend(s.params());
        }
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.body.params_mut();
        if let Some(s) = &mut self.shortcut {
            p.extend(s.params_mut());
        }
        p
    }

    fn buffers(&self) -> Vec<(&'static str, &Tensor)> {
        let mut b = self.body.buffers();
        if let Some(s) = &self.shortcut {
            b.extend(s.buffers());
        }
        b
    }

    fn buffers_mut(&mut self) -> Vec<(&'static str, &mut Tensor)> {
        let mut b = self.body.buffers_mut();
        if let Some(s) = &mut self.shortcut {
            b.extend(s.buffers_mut());
        }
        b
    }

    fn cached_bytes(&self) -> usize {
        let mut b = self.body.cached_bytes() + self.relu_mask.as_ref().map(BitMask::nbytes).unwrap_or(0);
        if let Some(s) = &self.shortcut {
            b += s.cached_bytes();
        }
        b
    }

    fn clear_cache(&mut self) {
        self.body.clear_cache();
        if let Some(s) = &mut self.shortcut {
            s.clear_cache();
        }
        self.relu_mask = None;
    }

    fn flops_last_forward(&self) -> usize {
        self.body.flops_last_forward() + self.shortcut.as_ref().map(|s| s.flops_last_forward()).unwrap_or(0)
    }

    fn set_memory_saving(&mut self, enabled: bool) {
        self.body.set_memory_saving(enabled);
        if let Some(s) = &mut self.shortcut {
            s.set_memory_saving(enabled);
        }
    }

    fn memory_saving(&self) -> bool {
        self.body.memory_saving() || self.shortcut.as_ref().map(|s| s.memory_saving()).unwrap_or(false)
    }

    fn layer_type(&self) -> &'static str {
        "residual"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::linear::Linear;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn sequential_forward_backward_chain() {
        let mut r = rng();
        let mut model = Sequential::new(vec![
            Box::new(Linear::new(3, 5, true, &mut r)),
            Box::new(Relu::new()),
            Box::new(Linear::new(5, 2, true, &mut r)),
        ]);
        let x = Tensor::randn(&[4, 3], 0.0, 1.0, &mut r);
        let y = model.forward(&x, true);
        assert_eq!(y.shape(), &[4, 2]);
        // Caches are populated by forward and consumed by backward.
        assert!(model.cached_bytes() > 0);
        let gin = model.backward(&Tensor::ones_like(&y));
        assert_eq!(gin.shape(), &[4, 3]);
        assert_eq!(model.params().len(), 4); // two weights, two biases
        assert!(model.param_count() > 0);
        let _ = model.forward(&x, true);
        model.clear_cache();
        assert_eq!(model.cached_bytes(), 0);
        assert!(model.describe().contains("linear"));
        assert_eq!(model.param_counts().len(), 3);
    }

    #[test]
    fn sequential_surgery() {
        let mut r = rng();
        let mut model = Sequential::empty();
        assert!(model.is_empty());
        model.push(Box::new(Linear::new(2, 2, false, &mut r)));
        model.push(Box::new(Relu::new()));
        assert_eq!(model.len(), 2);
        let old = model.replace(1, Box::new(Linear::new(2, 2, false, &mut r)));
        assert_eq!(old.layer_type(), "relu");
        let removed = model.remove(0);
        assert_eq!(removed.layer_type(), "linear");
        assert_eq!(model.len(), 1);
        assert_eq!(model.layers().len(), 1);
        assert_eq!(model.layers_mut().len(), 1);
    }

    #[test]
    fn identity_residual_adds_input() {
        let mut r = rng();
        // Body is a zero-initialised linear layer, so output == relu(x).
        let mut lin = Linear::new(3, 3, false, &mut r);
        for p in lin.params_mut() {
            p.value.fill(0.0);
        }
        let mut block = Residual::new(Sequential::new(vec![Box::new(lin)]), true);
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[1, 3]).unwrap();
        let y = block.forward(&x, true);
        assert_eq!(y.as_slice(), &[1.0, 0.0, 3.0]);
        assert!(block.cached_bytes() > 0);
        let gin = block.backward(&Tensor::ones_like(&y));
        // Gradient flows through the identity path for positive outputs.
        assert_eq!(gin.shape(), &[1, 3]);
        assert_eq!(gin.as_slice()[0], 1.0);
        assert_eq!(gin.as_slice()[1], 0.0);
        let _ = block.forward(&x, true);
        block.clear_cache();
        assert_eq!(block.cached_bytes(), 0);
        assert_eq!(block.layer_type(), "residual");
        assert_eq!(block.body().len(), 1);
        assert_eq!(block.body_mut().len(), 1);
    }

    #[test]
    fn projection_shortcut_changes_width() {
        let mut r = rng();
        let body = Sequential::new(vec![Box::new(Linear::new(3, 4, false, &mut r))]);
        let shortcut = Box::new(Linear::new(3, 4, false, &mut r));
        let mut block = Residual::with_shortcut(body, shortcut, false);
        let x = Tensor::randn(&[2, 3], 0.0, 1.0, &mut r);
        let y = block.forward(&x, true);
        assert_eq!(y.shape(), &[2, 4]);
        let gin = block.backward(&Tensor::ones_like(&y));
        assert_eq!(gin.shape(), &[2, 3]);
        assert_eq!(block.params().len(), 2);
        assert!(block.flops_last_forward() > 0);
    }

    #[test]
    fn residual_gradient_sums_both_paths() {
        // With a zero body (gradient contributions only via weights) the input
        // gradient equals the output gradient exactly (identity path), doubled
        // if the body is also identity-like. Use a linear body initialised to
        // the identity matrix to verify summation.
        let mut r = rng();
        let mut lin = Linear::new(2, 2, false, &mut r);
        lin.params_mut()[0].value.copy_from(&Tensor::eye(2)).unwrap();
        let mut block = Residual::new(Sequential::new(vec![Box::new(lin)]), false);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let y = block.forward(&x, true);
        assert_eq!(y.as_slice(), &[2.0, 4.0]);
        let gin = block.backward(&Tensor::ones_like(&y));
        assert_eq!(gin.as_slice(), &[2.0, 2.0]);
    }
}
