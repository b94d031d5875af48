//! The memory profiler: deterministic accounting of training-time memory.
//!
//! The paper uses PyTorch's memory profiler / `torch.cuda.memory_allocated()`
//! to (a) warn when a QDNN is at risk of exhausting GPU memory (Fig. 5) and
//! (b) show the saving of hybrid back-propagation over one training iteration
//! (Fig. 8). Since this reproduction runs on CPU, the profiler instead models
//! memory *exactly* from the computation graph: parameters + gradients,
//! optimizer state, and the intermediate activations each layer reports caching
//! via [`Layer::cached_bytes`]. That quantity is hardware-independent and is
//! what determines whether a given GPU capacity would be exceeded.

use quadra_nn::{Layer, Sequential};
use quadra_tensor::Tensor;

/// Break-down of the memory required for one training step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryReport {
    /// Bytes of parameters and their gradient buffers.
    pub param_bytes: usize,
    /// Bytes of optimizer state (momentum / Adam moments), if supplied.
    pub optimizer_bytes: usize,
    /// Peak bytes of cached intermediate activations during forward+backward.
    pub peak_activation_bytes: usize,
    /// Bytes of the batch input tensor.
    pub input_bytes: usize,
    /// Bytes of the output tensor.
    pub output_bytes: usize,
}

impl MemoryReport {
    /// Total modelled memory requirement.
    pub fn total_bytes(&self) -> usize {
        self.param_bytes
            + self.optimizer_bytes
            + self.peak_activation_bytes
            + self.input_bytes
            + self.output_bytes
    }

    /// Total in mebibytes.
    pub fn total_mib(&self) -> f64 {
        self.total_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// True if the requirement exceeds a device budget in bytes (the
    /// out-of-memory risk check the quadratic optimizer performs).
    pub fn exceeds(&self, budget_bytes: usize) -> bool {
        self.total_bytes() > budget_bytes
    }
}

/// A [`MemoryReport`] attributed to a named model (per-endpoint accounting in
/// a serving fleet: each worker pool reports under its endpoint's name).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMemoryReport {
    /// Name of the model (serving-endpoint name) the report belongs to.
    pub model: String,
    /// The memory break-down itself.
    pub report: MemoryReport,
}

impl ModelMemoryReport {
    /// One-line summary, e.g. for per-model serving logs.
    pub fn describe(&self) -> String {
        format!(
            "{}: {:.2} MiB total ({:.1} KiB activations)",
            self.model,
            self.report.total_mib(),
            self.report.peak_activation_bytes as f64 / 1024.0
        )
    }
}

/// One sample of the memory timeline of a single training iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinePoint {
    /// Phase and layer description, e.g. `"forward conv2d#3"`.
    pub event: String,
    /// Live cached-activation bytes after the event.
    pub live_activation_bytes: usize,
}

/// The memory timeline of one forward+backward pass (Fig. 8 of the paper).
#[derive(Debug, Clone, Default)]
pub struct MemoryTimeline {
    /// Timeline samples in execution order.
    pub points: Vec<TimelinePoint>,
}

impl MemoryTimeline {
    /// Peak live activation bytes over the iteration.
    pub fn peak(&self) -> usize {
        self.points.iter().map(|p| p.live_activation_bytes).max().unwrap_or(0)
    }

    /// Render the timeline as a simple ASCII chart (one row per event).
    pub fn render_ascii(&self, width: usize) -> String {
        let peak = self.peak().max(1);
        let mut out = String::new();
        for p in &self.points {
            let bar = (p.live_activation_bytes * width) / peak;
            out.push_str(&format!(
                "{:>10.2} MiB |{}{}| {}\n",
                p.live_activation_bytes as f64 / (1024.0 * 1024.0),
                "█".repeat(bar),
                " ".repeat(width - bar),
                p.event
            ));
        }
        out
    }
}

/// The memory profiler.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryProfiler;

impl MemoryProfiler {
    /// Create a profiler.
    pub fn new() -> Self {
        MemoryProfiler
    }

    /// Run one forward+backward pass of `model` on `input`, recording the live
    /// activation memory after every layer event, and return the report plus
    /// the full timeline.
    ///
    /// `optimizer_bytes` lets the caller add the optimizer-state footprint
    /// (pass 0 when profiling inference).
    pub fn profile_step(
        &self,
        model: &mut Sequential,
        input: &Tensor,
        optimizer_bytes: usize,
    ) -> (MemoryReport, MemoryTimeline) {
        let mut timeline = MemoryTimeline::default();
        let live = |model: &Sequential| model.cached_bytes();

        // Forward, layer by layer.
        let mut activations: Vec<Tensor> = Vec::new();
        let mut cur = input.clone();
        let n_layers = model.len();
        for i in 0..n_layers {
            let Some(layer) = model.layers_mut().get_mut(i) else { break };
            cur = layer.forward(&cur, true);
            let layer_type = model.layers().get(i).map_or("?", |l| l.layer_type());
            activations.push(cur.clone());
            timeline.points.push(TimelinePoint {
                event: format!("forward {}#{}", layer_type, i),
                live_activation_bytes: live(model),
            });
        }
        let output = activations.last().cloned().unwrap_or_else(|| input.clone());

        // Backward, layer by layer (a "sum" loss: gradient of ones).
        let mut grad = Tensor::ones(output.shape());
        for i in (0..n_layers).rev() {
            let Some(layer) = model.layers_mut().get_mut(i) else { continue };
            grad = layer.backward(&grad);
            let layer_type = model.layers().get(i).map_or("?", |l| l.layer_type());
            timeline.points.push(TimelinePoint {
                event: format!("backward {}#{}", layer_type, i),
                live_activation_bytes: live(model),
            });
        }

        let report = MemoryReport {
            param_bytes: model.params().iter().map(|p| p.nbytes()).sum(),
            optimizer_bytes,
            peak_activation_bytes: timeline.peak(),
            input_bytes: input.nbytes(),
            output_bytes: output.nbytes(),
        };
        // Zero out the parameter gradients the probe produced.
        for p in model.params_mut() {
            p.zero_grad();
        }
        model.clear_cache();
        (report, timeline)
    }

    /// Account the memory footprint of one **inference** batch whose forward
    /// pass has just completed: parameter tensors (values plus the gradient
    /// buffers every [`Param`](quadra_nn::Param) allocates), the activations
    /// the layers are currently caching, and the batch input/output tensors.
    ///
    /// Unlike [`MemoryProfiler::profile_step`] this runs nothing — it reads
    /// the live [`Layer::cached_bytes`] state. Eval-mode forwards cache
    /// nothing, so after one the activation figure is 0 and the batch costs
    /// its parameters, input and output.
    pub fn inference_report(&self, model: &dyn Layer, input: &Tensor, output: &Tensor) -> MemoryReport {
        MemoryReport {
            param_bytes: model.params().iter().map(|p| p.nbytes()).sum(),
            optimizer_bytes: 0,
            peak_activation_bytes: model.cached_bytes(),
            input_bytes: input.nbytes(),
            output_bytes: output.nbytes(),
        }
    }

    /// [`MemoryProfiler::inference_report`] attributed to a named model —
    /// what a multi-model serving fleet needs to tell which endpoint's
    /// replicas account for which share of the activation memory.
    pub fn inference_report_for(
        &self,
        model_name: &str,
        model: &dyn Layer,
        input: &Tensor,
        output: &Tensor,
    ) -> ModelMemoryReport {
        ModelMemoryReport {
            model: model_name.to_string(),
            report: self.inference_report(model, input, output),
        }
    }

    /// Analytic estimate of the training memory of a model built from
    /// `config`, for an arbitrary batch size, **without** materialising the
    /// activations (needed for the batch-512 GPU-scale comparison of Fig. 5).
    ///
    /// The activation figure is what a default-BP training forward at
    /// `batch_size` leaves cached, layer by layer, at the size each layer
    /// stores it in: f32 inputs, branch outputs and normalised activations,
    /// one inverse deviation per batch-norm channel, one bit per ReLU or
    /// dropout element and one byte per max-pool output. To it come
    /// parameters, gradients and optional optimizer state (one momentum slot
    /// per parameter when `sgd_momentum` is true).
    pub fn estimate_from_config(
        &self,
        config: &crate::config::ModelConfig,
        batch_size: usize,
        sgd_momentum: bool,
    ) -> MemoryReport {
        use crate::config::{advance_geometry, Geometry, LayerSpec};
        const F32: usize = 4;
        // Bytes `spec` caches for backward, given its input geometry.
        fn cached(spec: &LayerSpec, geom: Geometry, batch: usize) -> usize {
            let out = advance_geometry(spec, geom);
            let (x, z) = (geom.features() * batch, out.features() * batch);
            let bits = |elements: usize| elements.div_ceil(8);
            // Batch-norm keeps x̂ and one inverse deviation per channel.
            let bn = |on: bool| if on { z * F32 + out.channels * F32 } else { 0 };
            let relu = |on: bool| if on { bits(z) } else { 0 };
            match spec {
                // A first-order conv or linear layer keeps its input.
                LayerSpec::Conv { batch_norm, relu: r, .. } => x * F32 + bn(*batch_norm) + relu(*r),
                // A quadratic layer (default BP) keeps its input and the
                // branch outputs its second-order term reads.
                LayerSpec::QuadraticConv { batch_norm, relu: r, neuron, .. } => {
                    (x + neuron.form().second.arity() * z) * F32 + bn(*batch_norm) + relu(*r)
                }
                LayerSpec::Linear { relu: r, .. } => x * F32 + relu(*r),
                LayerSpec::QuadraticLinear { neuron, .. } => (x + neuron.form().second.arity() * z) * F32,
                LayerSpec::MaxPool { .. } => z,
                LayerSpec::Dropout { p } => {
                    if *p > 0.0 {
                        bits(x)
                    } else {
                        0
                    }
                }
                LayerSpec::Residual { body, projection, final_relu } => {
                    let mut g = geom;
                    let mut total = 0;
                    for s in body {
                        total += cached(s, g, batch);
                        g = advance_geometry(s, g);
                    }
                    // The projection is a 1×1 conv: it keeps the block input.
                    total + if *projection { x * F32 } else { 0 } + relu(*final_relu)
                }
                LayerSpec::AvgPool { .. } | LayerSpec::GlobalAvgPool | LayerSpec::Flatten => 0,
            }
        }

        let input = Geometry { channels: config.input_channels, spatial: config.image_size, flat: false };
        let mut geom = input;
        let mut activation_bytes = 0usize;
        for spec in &config.layers {
            activation_bytes += cached(spec, geom, batch_size);
            geom = advance_geometry(spec, geom);
        }
        let params = crate::builder::estimate_param_count(config);
        MemoryReport {
            param_bytes: params * F32 * 2, // value + gradient
            optimizer_bytes: if sgd_momentum { params * F32 } else { 0 },
            peak_activation_bytes: activation_bytes,
            input_bytes: input.features() * F32 * batch_size,
            output_bytes: config.num_classes * F32 * batch_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{build_model, LayerSpec, ModelConfig};
    use crate::neuron::NeuronType;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_config(quadratic: bool) -> ModelConfig {
        let conv: Vec<LayerSpec> = if quadratic {
            vec![LayerSpec::qconv3x3(NeuronType::Ours, 8), LayerSpec::qconv3x3(NeuronType::Ours, 8)]
        } else {
            vec![LayerSpec::conv3x3(8), LayerSpec::conv3x3(8)]
        };
        let mut layers = conv;
        layers.push(LayerSpec::GlobalAvgPool);
        layers.push(LayerSpec::Linear { out_features: 4, relu: false });
        ModelConfig::new(if quadratic { "small-q" } else { "small" }, 3, 8, 4, layers)
    }

    #[test]
    fn inference_report_reads_live_cache_state() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut model = build_model(&small_config(false), &mut rng);
        let input = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        // An eval forward caches nothing, so an inference batch is its
        // parameters plus its input and output.
        let output = model.forward(&input, false);
        let report = MemoryProfiler::new().inference_report(&model, &input, &output);
        assert!(report.param_bytes > 0);
        assert_eq!(report.optimizer_bytes, 0);
        assert_eq!(report.peak_activation_bytes, 0);
        assert_eq!(report.input_bytes, input.nbytes());
        assert_eq!(report.output_bytes, output.nbytes());
        // The figure is the layers' live cache state: a train forward fills it.
        let output = model.forward(&input, true);
        let trained = MemoryProfiler::new().inference_report(&model, &input, &output);
        assert!(trained.peak_activation_bytes > 0);
        assert_eq!(trained.peak_activation_bytes, model.cached_bytes());
        model.clear_cache();
        let after = MemoryProfiler::new().inference_report(&model, &input, &output);
        assert_eq!(after.peak_activation_bytes, 0);
    }

    #[test]
    fn inference_report_for_attributes_to_model_name() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut model = build_model(&small_config(false), &mut rng);
        let input = Tensor::randn(&[1, 3, 8, 8], 0.0, 1.0, &mut rng);
        let output = model.forward(&input, false);
        let attributed = MemoryProfiler::new().inference_report_for("mobilenet", &model, &input, &output);
        assert_eq!(attributed.model, "mobilenet");
        assert_eq!(attributed.report, MemoryProfiler::new().inference_report(&model, &input, &output));
        assert!(attributed.describe().starts_with("mobilenet:"));
    }

    #[test]
    fn profile_step_reports_nonzero_components() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut model = build_model(&small_config(true), &mut rng);
        let input = Tensor::randn(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
        let (report, timeline) = MemoryProfiler::new().profile_step(&mut model, &input, 128);
        assert!(report.param_bytes > 0);
        assert_eq!(report.optimizer_bytes, 128);
        assert!(report.peak_activation_bytes > 0);
        assert_eq!(report.input_bytes, input.nbytes());
        assert!(report.total_bytes() > report.param_bytes);
        assert!(report.total_mib() > 0.0);
        assert!(!timeline.points.is_empty());
        assert_eq!(timeline.peak(), report.peak_activation_bytes);
        // Memory rises during forward and falls during backward.
        let forward_end = timeline.points.len() / 2 - 1;
        assert!(
            timeline.points[forward_end].live_activation_bytes >= timeline.points[0].live_activation_bytes
        );
        assert!(timeline.points.last().unwrap().live_activation_bytes <= timeline.peak());
        // The probe cleans up after itself.
        assert_eq!(model.cached_bytes(), 0);
        assert!(model.params().iter().all(|p| p.grad.l2_norm() == 0.0));
        // ASCII rendering mentions at least one layer type.
        let chart = timeline.render_ascii(30);
        assert!(chart.contains("forward"));
        assert!(chart.contains("backward"));
    }

    #[test]
    fn quadratic_model_uses_more_activation_memory_than_first_order() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut fo = build_model(&small_config(false), &mut rng);
        let mut qd = build_model(&small_config(true), &mut rng);
        let input = Tensor::randn(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
        let (r_fo, _) = MemoryProfiler::new().profile_step(&mut fo, &input, 0);
        let (r_qd, _) = MemoryProfiler::new().profile_step(&mut qd, &input, 0);
        assert!(r_qd.peak_activation_bytes > r_fo.peak_activation_bytes);
        assert!(r_qd.total_bytes() > r_fo.total_bytes());
    }

    #[test]
    fn hybrid_mode_lowers_measured_peak() {
        let mut rng = StdRng::seed_from_u64(10);
        let cfg = small_config(true);
        let mut default_model = build_model(&cfg, &mut rng);
        let mut hybrid_model = build_model(&cfg, &mut rng);
        hybrid_model.set_memory_saving(true);
        assert!(hybrid_model.memory_saving());
        assert!(!default_model.memory_saving());
        let input = Tensor::randn(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
        let (r_def, _) = MemoryProfiler::new().profile_step(&mut default_model, &input, 0);
        let (r_hyb, _) = MemoryProfiler::new().profile_step(&mut hybrid_model, &input, 0);
        assert!(r_hyb.peak_activation_bytes < r_def.peak_activation_bytes);
    }

    #[test]
    fn exceeds_budget_check() {
        let r = MemoryReport {
            param_bytes: 1000,
            optimizer_bytes: 0,
            peak_activation_bytes: 1000,
            input_bytes: 0,
            output_bytes: 0,
        };
        assert!(r.exceeds(1999));
        assert!(!r.exceeds(2000));
    }

    #[test]
    fn config_estimate_scales_with_batch_and_tracks_real_measurement() {
        let cfg = small_config(true);
        let profiler = MemoryProfiler::new();
        let est8 = profiler.estimate_from_config(&cfg, 8, true);
        let est64 = profiler.estimate_from_config(&cfg, 64, true);
        // Everything batch-sized scales with the batch; batch-norm's one
        // inverse deviation per channel (two layers of 8) does not.
        let est0 = profiler.estimate_from_config(&cfg, 0, true);
        assert_eq!(est0.peak_activation_bytes, 2 * 8 * 4);
        assert!(
            est64.peak_activation_bytes - est0.peak_activation_bytes
                == 8 * (est8.peak_activation_bytes - est0.peak_activation_bytes)
        );
        assert_eq!(est8.param_bytes, est64.param_bytes);
        assert!(est8.optimizer_bytes > 0);
        let est_no_mom = profiler.estimate_from_config(&cfg, 8, false);
        assert_eq!(est_no_mom.optimizer_bytes, 0);

        // The analytic estimate should agree with an actual measured step at the
        // same batch size to within 2x (it intentionally over-approximates since
        // the real peak frees some caches during backward).
        let mut rng = StdRng::seed_from_u64(11);
        let mut model = build_model(&cfg, &mut rng);
        let input = Tensor::randn(&[8, 3, 8, 8], 0.0, 1.0, &mut rng);
        let (measured, _) = profiler.profile_step(&mut model, &input, 0);
        let ratio = est8.peak_activation_bytes as f64 / measured.peak_activation_bytes as f64;
        assert!(ratio > 0.5 && ratio < 2.0, "ratio {}", ratio);
    }

    #[test]
    fn estimate_is_the_measured_cache_of_every_quadratic_layer() {
        // Default BP caches the input and the branches the second-order term
        // reads; the estimate must say exactly that, per type and layer.
        use crate::builder::tests::{input_batch, single_layer_configs};
        let mut rng = StdRng::seed_from_u64(12);
        for cfg in single_layer_configs() {
            let batch = 3;
            let mut model = build_model(&cfg, &mut rng);
            let _ = model.forward(&input_batch(&cfg, batch, &mut rng), true);
            let estimate = MemoryProfiler::new().estimate_from_config(&cfg, batch, false);
            assert_eq!(estimate.peak_activation_bytes, model.cached_bytes(), "{}", cfg.name);
        }
    }

    #[test]
    fn estimate_is_the_measured_cache_of_a_mixed_network() {
        // Every layer kind that caches, with odd sizes so that no mask fills
        // whole bytes: f32 inputs and branches, batch-norm's x̂ and per-channel
        // deviations, one bit per ReLU and dropout element, one byte per
        // max-pool output, and a residual's projection and final ReLU.
        let conv = |out_channels, stride, batch_norm| LayerSpec::Conv {
            out_channels,
            kernel: 3,
            stride,
            padding: 1,
            groups: 1,
            batch_norm,
            relu: true,
        };
        let qconv = LayerSpec::QuadraticConv {
            neuron: NeuronType::Ours,
            out_channels: 6,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
            batch_norm: false,
            relu: true,
        };
        let layers = vec![
            conv(4, 1, true),
            qconv,
            LayerSpec::MaxPool { kernel: 2 },
            LayerSpec::Residual { body: vec![conv(8, 2, true)], projection: true, final_relu: true },
            LayerSpec::Flatten,
            LayerSpec::Dropout { p: 0.25 },
            LayerSpec::Linear { out_features: 5, relu: true },
            LayerSpec::Linear { out_features: 2, relu: false },
        ];
        let cfg = ModelConfig::new("mixed", 3, 9, 2, layers);
        let batch = 3;
        let mut rng = StdRng::seed_from_u64(13);
        let mut model = build_model(&cfg, &mut rng);
        let _ = model.forward(&Tensor::randn(&[batch, 3, 9, 9], 0.0, 1.0, &mut rng), true);
        let estimate = MemoryProfiler::new().estimate_from_config(&cfg, batch, false);
        assert_eq!(estimate.peak_activation_bytes, model.cached_bytes());
    }

    #[test]
    fn first_order_estimate_is_smaller_than_quadratic_estimate() {
        let profiler = MemoryProfiler::new();
        let fo = profiler.estimate_from_config(&small_config(false), 32, true);
        let qd = profiler.estimate_from_config(&small_config(true), 32, true);
        assert!(qd.total_bytes() > fo.total_bytes());
        assert!(qd.peak_activation_bytes > fo.peak_activation_bytes);
    }
}
