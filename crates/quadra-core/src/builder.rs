//! The QDNN auto-builder: first-order → quadratic layer replacement and
//! heuristic-based layer reduction (Eq. 5 of the paper).
//!
//! The paper's auto-builder takes an existing first-order model from the model
//! pool and produces a "QuadraNN" in two steps:
//!
//! 1. **Layer replacement** — every first-order convolution is replaced by the
//!    encapsulated quadratic layer module (batch-norm enforced after each one).
//! 2. **Heuristic layer reduction** — because a quadratic neuron has higher
//!    per-layer capacity, the depth can be reduced. Each removable layer is
//!    ranked by the layer-performance indicator
//!    `RI = P(Mpar) · P(Tlat) / ΔAcc` (Xu et al. 2019), where `P(Mpar)` and
//!    `P(Tlat)` are the layer's parameter and compute share of the whole model
//!    and `ΔAcc` is the accuracy drop from removing it. Layers with high cost
//!    and low accuracy contribution are removed first until a target depth is
//!    reached.

use crate::config::{advance_geometry, Geometry, LayerSpec, ModelConfig};
use crate::neuron::NeuronType;

/// Parameter / compute cost of one top-level configuration entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecCost {
    /// Trainable parameters of the entry (including quadratic branches and BN).
    pub params: usize,
    /// Multiply–accumulate count of one forward pass at batch size 1.
    pub flops: usize,
}

/// Importance score of a removable layer as computed by Eq. 5.
#[derive(Debug, Clone, PartialEq)]
pub struct RiScore {
    /// Index of the entry in `ModelConfig::layers`.
    pub index: usize,
    /// Parameter share `P(Mpar)` of the whole model.
    pub param_share: f32,
    /// Compute share `P(Tlat)` of the whole model.
    pub flop_share: f32,
    /// Accuracy drop `ΔAcc` when the layer is removed (1.0 when unknown).
    pub delta_acc: f32,
    /// The resulting indicator `RI = P(Mpar)·P(Tlat)/ΔAcc`.
    pub ri: f32,
}

/// Compute the layer-performance indicator of Eq. 5.
pub fn layer_performance_indicator(param_share: f32, flop_share: f32, delta_acc: f32) -> f32 {
    param_share * flop_share / delta_acc.max(1e-6)
}

fn spec_cost(spec: &LayerSpec, geom: Geometry) -> SpecCost {
    // `has_bias` mirrors the construction function: a first-order Conv2d gets a
    // bias only when it is not followed by batch-norm, while a quadratic
    // convolution always carries its own bias parameter. A first-order layer
    // holds one weight branch; a quadratic one what its neuron form asks for.
    let weights = |neuron: Option<&NeuronType>, per_branch: usize, fan_in: usize| {
        neuron.map_or(per_branch, |t| t.form().weights(per_branch, fan_in))
    };
    let conv_cost = |out_c: usize,
                     k: usize,
                     stride: usize,
                     padding: usize,
                     groups: usize,
                     neuron: Option<&NeuronType>,
                     bn: bool,
                     has_bias: bool| {
        let out_hw = (geom.spatial + 2 * padding).saturating_sub(k) / stride + 1;
        let fan_in = (geom.channels / groups.max(1)) * k * k;
        let weight = weights(neuron, out_c * fan_in, fan_in);
        let params = weight + if has_bias { out_c } else { 0 } + if bn { 2 * out_c } else { 0 };
        SpecCost { params, flops: weight * out_hw * out_hw }
    };
    let dense_cost = |out_features: usize, neuron: Option<&NeuronType>| {
        let weight = weights(neuron, geom.features() * out_features, geom.features());
        SpecCost { params: weight + out_features, flops: weight }
    };
    match spec {
        LayerSpec::Conv { out_channels, kernel, stride, padding, groups, batch_norm, .. } => {
            conv_cost(*out_channels, *kernel, *stride, *padding, *groups, None, *batch_norm, !*batch_norm)
        }
        LayerSpec::QuadraticConv {
            neuron,
            out_channels,
            kernel,
            stride,
            padding,
            groups,
            batch_norm,
            ..
        } => conv_cost(*out_channels, *kernel, *stride, *padding, *groups, Some(neuron), *batch_norm, true),
        LayerSpec::Linear { out_features, .. } => dense_cost(*out_features, None),
        LayerSpec::QuadraticLinear { neuron, out_features } => dense_cost(*out_features, Some(neuron)),
        LayerSpec::Residual { body, projection, .. } => {
            let mut g = geom;
            let mut total = SpecCost { params: 0, flops: 0 };
            for s in body {
                let c = spec_cost(s, g);
                total.params += c.params;
                total.flops += c.flops;
                g = advance_geometry(s, g);
            }
            if *projection {
                let w = geom.channels * g.channels;
                total.params += w;
                total.flops += w * g.spatial.max(1) * g.spatial.max(1);
            }
            total
        }
        _ => SpecCost { params: 0, flops: 0 },
    }
}

/// Estimate the parameter / compute cost of every top-level entry of a config.
pub fn estimate_costs(config: &ModelConfig) -> Vec<SpecCost> {
    let mut geom = Geometry { channels: config.input_channels, spatial: config.image_size, flat: false };
    let mut costs = Vec::with_capacity(config.layers.len());
    for spec in &config.layers {
        costs.push(spec_cost(spec, geom));
        geom = advance_geometry(spec, geom);
    }
    costs
}

/// Total estimated parameter count of a configuration.
pub fn estimate_param_count(config: &ModelConfig) -> usize {
    estimate_costs(config).iter().map(|c| c.params).sum()
}

/// Total estimated multiply–accumulate count of one forward pass (batch 1).
pub fn estimate_flops(config: &ModelConfig) -> usize {
    estimate_costs(config).iter().map(|c| c.flops).sum()
}

/// The QDNN auto-builder.
#[derive(Debug, Clone, Copy)]
pub struct AutoBuilder {
    neuron: NeuronType,
}

impl AutoBuilder {
    /// Create an auto-builder that converts models to the given neuron type
    /// (the paper's QuadraNN uses its proposed neuron, "Ours").
    ///
    /// # Panics
    /// Panics for the designs with a bilinear term, T1 and T1&2: the builder
    /// converts convolutions, and [`QuadraticConv2d::new`](crate::QuadraticConv2d::new)
    /// cannot build those types.
    pub fn new(neuron: NeuronType) -> Self {
        assert!(
            !neuron.form().bilinear,
            "{} convolution is not supported: its full-rank bilinear weight cannot be assembled \
             from first-order convolutions (P4)",
            neuron.name()
        );
        AutoBuilder { neuron }
    }

    /// The neuron type used for replacement.
    pub fn neuron(&self) -> NeuronType {
        self.neuron
    }

    /// Step 1 — layer replacement: convert every first-order convolution into a
    /// quadratic convolution of the configured type, iterating from shallow to
    /// deep layers (and recursively into residual bodies). Batch normalisation
    /// is enforced after every quadratic layer.
    ///
    /// This alone produces the "QuadraNN (no auto-builder)" variant of Table 3.
    pub fn convert(&self, config: &ModelConfig) -> ModelConfig {
        fn convert_specs(specs: &[LayerSpec], neuron: NeuronType) -> Vec<LayerSpec> {
            specs
                .iter()
                .map(|s| match s {
                    LayerSpec::Conv { out_channels, kernel, stride, padding, groups, relu, .. } => {
                        LayerSpec::QuadraticConv {
                            neuron,
                            out_channels: *out_channels,
                            kernel: *kernel,
                            stride: *stride,
                            padding: *padding,
                            groups: *groups,
                            batch_norm: true,
                            relu: *relu,
                        }
                    }
                    LayerSpec::Residual { body, projection, final_relu } => LayerSpec::Residual {
                        body: convert_specs(body, neuron),
                        projection: *projection,
                        final_relu: *final_relu,
                    },
                    other => other.clone(),
                })
                .collect()
        }
        ModelConfig {
            name: format!("{}-{}", config.name, "quadratic"),
            layers: convert_specs(&config.layers, self.neuron),
            ..config.clone()
        }
    }

    /// Indices of top-level entries that can be removed without breaking the
    /// channel chain: shape-preserving convolutions (same in/out channels,
    /// stride 1) and shape-preserving residual blocks.
    pub fn removable_indices(config: &ModelConfig) -> Vec<usize> {
        let mut geom = Geometry { channels: config.input_channels, spatial: config.image_size, flat: false };
        let mut removable = Vec::new();
        for (i, spec) in config.layers.iter().enumerate() {
            let next = advance_geometry(spec, geom);
            let preserves_shape = next == geom;
            match spec {
                LayerSpec::Conv { .. } | LayerSpec::QuadraticConv { .. } | LayerSpec::Residual { .. }
                    if preserves_shape =>
                {
                    removable.push(i);
                }
                _ => {}
            }
            geom = next;
        }
        removable
    }

    /// Step 2 — compute RI scores (Eq. 5) for every removable entry.
    ///
    /// `delta_acc` optionally supplies the measured accuracy drop per top-level
    /// index (e.g. from a quick probe fine-tune); entries without a measurement
    /// use `ΔAcc = 1`, which reduces the indicator to pure cost share.
    pub fn layer_importance(config: &ModelConfig, delta_acc: &[(usize, f32)]) -> Vec<RiScore> {
        let costs = estimate_costs(config);
        let total_params: usize = costs.iter().map(|c| c.params).sum();
        let total_flops: usize = costs.iter().map(|c| c.flops).sum();
        Self::removable_indices(config)
            .into_iter()
            .map(|i| {
                let param_share = costs[i].params as f32 / total_params.max(1) as f32;
                let flop_share = costs[i].flops as f32 / total_flops.max(1) as f32;
                let delta = delta_acc.iter().find(|(idx, _)| *idx == i).map(|(_, d)| *d).unwrap_or(1.0);
                RiScore {
                    index: i,
                    param_share,
                    flop_share,
                    delta_acc: delta,
                    ri: layer_performance_indicator(param_share, flop_share, delta),
                }
            })
            .collect()
    }

    /// Step 2 — heuristic layer reduction: remove the highest-RI removable
    /// entries until at most `target_conv_layers` convolution layers remain.
    pub fn reduce(
        &self,
        config: &ModelConfig,
        target_conv_layers: usize,
        delta_acc: &[(usize, f32)],
    ) -> ModelConfig {
        let mut cfg = config.clone();
        loop {
            let current = cfg.conv_layer_count();
            if current <= target_conv_layers {
                break;
            }
            let mut scores = Self::layer_importance(&cfg, delta_acc);
            if scores.is_empty() {
                break;
            }
            scores.sort_by(|a, b| b.ri.partial_cmp(&a.ri).unwrap_or(std::cmp::Ordering::Equal));
            // Do not remove more conv layers than we need to.
            let excess = current - target_conv_layers;
            let candidate =
                scores.iter().find(|s| conv_count_of(&cfg.layers[s.index]) <= excess).map(|s| s.index);
            match candidate {
                Some(idx) => {
                    cfg.layers.remove(idx);
                }
                None => break,
            }
        }
        cfg.name = format!("{}-reduced{}", cfg.name, cfg.conv_layer_count());
        cfg
    }

    /// The full auto-builder pipeline: layer replacement followed by heuristic
    /// layer reduction down to `target_conv_layers` convolution layers.
    pub fn build(
        &self,
        config: &ModelConfig,
        target_conv_layers: usize,
        delta_acc: &[(usize, f32)],
    ) -> ModelConfig {
        let converted = self.convert(config);
        self.reduce(&converted, target_conv_layers, delta_acc)
    }
}

fn conv_count_of(spec: &LayerSpec) -> usize {
    match spec {
        LayerSpec::Conv { .. } | LayerSpec::QuadraticConv { .. } => 1,
        LayerSpec::Residual { body, .. } => body.iter().map(conv_count_of).sum(),
        _ => 0,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::build_model;
    use quadra_nn::Layer;
    use quadra_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A one-layer config, with no BN or ReLU, for every neuron type as a
    /// quadratic dense layer and, for the six a convolution can hold, as a
    /// quadratic convolution. Dense configs take `[batch, 6]` inputs.
    pub(crate) fn single_layer_configs() -> Vec<ModelConfig> {
        let mut configs = Vec::new();
        for neuron in NeuronType::ALL {
            let dense = vec![LayerSpec::QuadraticLinear { neuron, out_features: 6 }];
            configs.push(ModelConfig::new(format!("dense {neuron}"), 6, 0, 6, dense));
            if matches!(neuron, NeuronType::T1 | NeuronType::T1And2) {
                continue;
            }
            let conv = LayerSpec::QuadraticConv {
                neuron,
                out_channels: 3,
                kernel: 3,
                stride: 1,
                padding: 1,
                groups: 1,
                batch_norm: false,
                relu: false,
            };
            configs.push(ModelConfig::new(format!("conv {neuron}"), 3, 5, 3, vec![conv]));
        }
        configs
    }

    /// A random batch of `batch` inputs for `config`.
    pub(crate) fn input_batch(config: &ModelConfig, batch: usize, rng: &mut StdRng) -> Tensor {
        let (c, s) = (config.input_channels, config.image_size);
        let shape = if s == 0 { vec![batch, c] } else { vec![batch, c, s, s] };
        Tensor::randn(&shape, 0.0, 1.0, rng)
    }

    fn vgg_like() -> ModelConfig {
        ModelConfig::new(
            "vgg-like",
            3,
            16,
            10,
            vec![
                LayerSpec::conv3x3(16),
                LayerSpec::conv3x3(16),
                LayerSpec::conv3x3(16),
                LayerSpec::MaxPool { kernel: 2 },
                LayerSpec::conv3x3(32),
                LayerSpec::conv3x3(32),
                LayerSpec::conv3x3(32),
                LayerSpec::MaxPool { kernel: 2 },
                LayerSpec::GlobalAvgPool,
                LayerSpec::Linear { out_features: 10, relu: false },
            ],
        )
    }

    #[test]
    fn conversion_replaces_every_conv_and_forces_batchnorm() {
        let cfg = vgg_like();
        let builder = AutoBuilder::new(NeuronType::Ours);
        assert_eq!(builder.neuron(), NeuronType::Ours);
        let q = builder.convert(&cfg);
        assert_eq!(q.conv_layer_count(), cfg.conv_layer_count());
        assert!(q.is_quadratic());
        for spec in &q.layers {
            if let LayerSpec::QuadraticConv { batch_norm, neuron, .. } = spec {
                assert!(*batch_norm);
                assert_eq!(*neuron, NeuronType::Ours);
            }
            assert!(!matches!(spec, LayerSpec::Conv { .. }));
        }
        // Non-conv layers are preserved.
        assert!(q.layers.iter().any(|s| matches!(s, LayerSpec::MaxPool { .. })));
        assert!(q.layers.iter().any(|s| matches!(s, LayerSpec::Linear { .. })));
    }

    #[test]
    fn converted_model_has_roughly_three_times_conv_params() {
        let cfg = vgg_like();
        let q = AutoBuilder::new(NeuronType::Ours).convert(&cfg);
        let p1 = estimate_param_count(&cfg) as f32;
        let p3 = estimate_param_count(&q) as f32;
        // "Ours" has 3 weight branches, so conv params triple (biases/BN/linear unchanged).
        assert!(p3 / p1 > 2.5 && p3 / p1 < 3.1, "ratio {}", p3 / p1);
        let f1 = estimate_flops(&cfg) as f32;
        let f3 = estimate_flops(&q) as f32;
        assert!(f3 / f1 > 2.5 && f3 / f1 <= 3.0 + 1e-3);
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn t1_auto_builder_is_rejected() {
        let _ = AutoBuilder::new(NeuronType::T1);
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn t1_and_2_auto_builder_is_rejected() {
        let _ = AutoBuilder::new(NeuronType::T1And2);
    }

    #[test]
    fn estimated_params_match_built_model() {
        let cfg = vgg_like();
        let mut rng = StdRng::seed_from_u64(5);
        let model = build_model(&cfg, &mut rng);
        assert_eq!(model.param_count(), estimate_param_count(&cfg));
        let q = AutoBuilder::new(NeuronType::Ours).convert(&cfg);
        let qmodel = build_model(&q, &mut rng);
        assert_eq!(qmodel.param_count(), estimate_param_count(&q));
        for cfg in single_layer_configs() {
            let model = build_model(&cfg, &mut rng);
            assert_eq!(model.param_count(), estimate_param_count(&cfg), "{}", cfg.name);
        }
    }

    #[test]
    fn layer_flops_are_batch_times_estimated_flops() {
        // One convention for both layers and the estimate: the multiply-adds
        // of every weight branch, plus the bilinear term.
        let mut rng = StdRng::seed_from_u64(5);
        for cfg in single_layer_configs() {
            for batch in [1, 3] {
                let mut model = build_model(&cfg, &mut rng);
                let _ = model.forward(&input_batch(&cfg, batch, &mut rng), true);
                assert_eq!(model.flops_last_forward(), batch * estimate_flops(&cfg), "{}", cfg.name);
            }
        }
    }

    #[test]
    fn removable_indices_are_shape_preserving_only() {
        let cfg = vgg_like();
        let removable = AutoBuilder::removable_indices(&cfg);
        // Layers 1, 2 (16->16) and 5, 6 (32->32) are removable; the first conv of
        // each stage changes channel count, pools/head are not conv layers.
        assert_eq!(removable, vec![1, 2, 5, 6]);
    }

    #[test]
    fn ri_ranks_costly_low_contribution_layers_first() {
        let cfg = vgg_like();
        // Pretend removing layer 1 hurts a lot, removing layer 6 hurts little.
        let scores = AutoBuilder::layer_importance(&cfg, &[(1, 0.20), (6, 0.001)]);
        let ri = |idx: usize| scores.iter().find(|s| s.index == idx).unwrap().ri;
        assert!(ri(6) > ri(1));
        // With no ΔAcc measurements the indicator reduces to cost share.
        let proxy = AutoBuilder::layer_importance(&cfg, &[]);
        for s in &proxy {
            assert!((s.ri - s.param_share * s.flop_share).abs() < 1e-9);
            assert_eq!(s.delta_acc, 1.0);
        }
        assert_eq!(layer_performance_indicator(0.5, 0.5, 0.0), 0.25 / 1e-6);
    }

    #[test]
    fn reduction_reaches_target_depth_and_model_still_runs() {
        let cfg = vgg_like();
        let builder = AutoBuilder::new(NeuronType::Ours);
        let reduced = builder.build(&cfg, 4, &[]);
        assert_eq!(reduced.conv_layer_count(), 4);
        assert!(reduced.is_quadratic());
        // The reduced model must still build and run end to end.
        let mut rng = StdRng::seed_from_u64(6);
        let mut model = build_model(&reduced, &mut rng);
        let y = model.forward(&Tensor::randn(&[2, 3, 16, 16], 0.0, 1.0, &mut rng), true);
        assert_eq!(y.shape(), &[2, 10]);
        // Fewer parameters than the unreduced quadratic model.
        assert!(estimate_param_count(&reduced) < estimate_param_count(&builder.convert(&cfg)));
    }

    #[test]
    fn reduction_stops_when_no_removable_layers_remain() {
        let cfg = ModelConfig::new(
            "small",
            3,
            8,
            2,
            vec![
                LayerSpec::conv3x3(8),
                LayerSpec::Conv {
                    out_channels: 16,
                    kernel: 3,
                    stride: 2,
                    padding: 1,
                    groups: 1,
                    batch_norm: true,
                    relu: true,
                },
                LayerSpec::GlobalAvgPool,
                LayerSpec::Linear { out_features: 2, relu: false },
            ],
        );
        let builder = AutoBuilder::new(NeuronType::Ours);
        // Both convs change shape (channels or spatial), so nothing is removable.
        let reduced = builder.build(&cfg, 1, &[]);
        assert_eq!(reduced.conv_layer_count(), 2);
    }

    #[test]
    fn resnet_style_reduction_removes_whole_blocks() {
        let block = |ch: usize| LayerSpec::Residual {
            body: vec![
                LayerSpec::conv3x3(ch),
                LayerSpec::Conv {
                    out_channels: ch,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                    groups: 1,
                    batch_norm: true,
                    relu: false,
                },
            ],
            projection: false,
            final_relu: true,
        };
        let cfg = ModelConfig::new(
            "resnet-like",
            3,
            16,
            10,
            vec![
                LayerSpec::conv3x3(16),
                block(16),
                block(16),
                block(16),
                LayerSpec::GlobalAvgPool,
                LayerSpec::Linear { out_features: 10, relu: false },
            ],
        );
        assert_eq!(cfg.conv_layer_count(), 7);
        let builder = AutoBuilder::new(NeuronType::Ours);
        let reduced = builder.build(&cfg, 3, &[]);
        // 7 -> remove two whole blocks (2 convs each) -> 3 convs remain.
        assert_eq!(reduced.conv_layer_count(), 3);
        assert_eq!(reduced.residual_block_count(), 1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut model = build_model(&reduced, &mut rng);
        let y = model.forward(&Tensor::randn(&[1, 3, 16, 16], 0.0, 1.0, &mut rng), true);
        assert_eq!(y.shape(), &[1, 10]);
    }
}
