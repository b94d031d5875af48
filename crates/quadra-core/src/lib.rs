//! # quadra-core
//!
//! The core of **QuadraLib-rs** — a Rust reproduction of *"QuadraLib: A
//! Performant Quadratic Neural Network Library for Architecture Optimization
//! and Design Exploration"* (MLSys 2022).
//!
//! Quadratic deep neural networks (QDNNs) replace the linear neuron
//! `f(X) = W·X + b` with a second-order polynomial of the input. The paper
//! surveys the existing quadratic-neuron designs (types T1–T4 and hybrids,
//! [`NeuronType`]), identifies six practical problems (P1–P6), proposes a new
//! neuron `f(X) = (Wa·X) ∘ (Wb·X) + Wc·X`, and builds a library around it.
//! This crate provides those "complementary components":
//!
//! * **Model level** — encapsulated quadratic layer modules
//!   ([`QuadraticLinear`], [`QuadraticConv2d`]) for every practical neuron
//!   type, model-structure configuration files ([`ModelConfig`]) with a
//!   construction function ([`build_model`]), and the QDNN [`AutoBuilder`]
//!   that converts any first-order model into a QuadraNN via layer replacement
//!   and RI-heuristic layer reduction (Eq. 5). Each neuron type is one row of
//!   a neuron-form table (which weights act on `x` and on `x²`, and how the
//!   branches combine) that both layers, the cost estimates
//!   ([`estimate_costs`]) and the [`MemoryProfiler`]'s analytic estimate read.
//! * **Training / inference level** — the [`MemoryProfiler`], the
//!   [`BackpropMode`] switch implementing hybrid (AD + symbolic)
//!   back-propagation, and the [`QuadraticOptimizer`] that couples the two.
//! * **Application level** — analysis tools: [`GradientRecorder`],
//!   weight/activation statistics, ASCII histograms and activation-attention
//!   maps ([`activation_attention`]).
//!
//! ## Quick example
//!
//! ```
//! use quadra_core::{NeuronType, QuadraticConv2d};
//! use quadra_nn::Layer;
//! use quadra_tensor::Tensor;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! // The proposed neuron: conv_a(x) ∘ conv_b(x) + conv_c(x)
//! let mut layer = QuadraticConv2d::conv3x3(NeuronType::Ours, 3, 16, &mut rng);
//! let x = Tensor::randn(&[1, 3, 32, 32], 0.0, 1.0, &mut rng);
//! let y = layer.forward(&x, true);
//! assert_eq!(y.shape(), &[1, 16, 32, 32]);
//! ```

#![warn(missing_docs)]

mod analysis;
mod builder;
mod config;
mod hybrid_bp;
mod neuron;
mod optimizer;
mod profiler;
mod qconv;
mod qlinear;

pub use analysis::{
    activation_attention, ascii_histogram, edge_vs_region_score, render_heatmap, tensor_stats, weight_stats,
    GradientRecorder, TensorStats,
};
pub use builder::{
    estimate_costs, estimate_flops, estimate_param_count, layer_performance_indicator, AutoBuilder, RiScore,
    SpecCost,
};
pub use config::{advance_geometry, build_model, walk_geometry, Geometry, LayerSpec, ModelConfig};
pub use hybrid_bp::BackpropMode;
pub use neuron::NeuronType;
pub use optimizer::{MemoryDecision, QuadraticOptimizer};
pub use profiler::{MemoryProfiler, MemoryReport, MemoryTimeline, ModelMemoryReport, TimelinePoint};
pub use qconv::QuadraticConv2d;
pub use qlinear::QuadraticLinear;
