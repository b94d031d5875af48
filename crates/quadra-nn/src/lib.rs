//! # quadra-nn
//!
//! First-order (linear-neuron) neural-network building blocks for QuadraLib-rs:
//! the layer zoo, loss functions, optimizers, learning-rate schedulers, metrics
//! and a small training loop.
//!
//! Everything here corresponds to the "Original PyTorch Components" box of the
//! paper's Fig. 4 — the parts QuadraLib inherits from its host framework. The
//! quadratic layers, auto-builder, memory profiler and hybrid back-propagation
//! (the "Complementary Components in QuadraLib") live in `quadra-core` and are
//! built *on top of* the [`Layer`] trait defined here.
//!
//! ## Design
//!
//! Layers follow the explicit forward/backward style (as in Caffe or
//! `torch.autograd.Function`): [`Layer::forward`] computes outputs and caches
//! whatever the layer chooses to keep, [`Layer::backward`] consumes the cache
//! and produces input gradients while accumulating parameter gradients. The
//! amount of cached memory is observable through [`Layer::cached_bytes`], which
//! is what the memory profiler in `quadra-core` aggregates to reproduce the
//! paper's memory figures.
//!
//! A training forward keeps each cache at its information size:
//!
//! | Layer | Keeps for backward |
//! |-------|--------------------|
//! | [`Conv2d`], [`Linear`] | the input, f32 |
//! | [`BatchNorm2d`] | `x̂`, f32, and one inverse deviation per channel |
//! | [`Relu`], [`LeakyRelu`], [`Residual`]'s final ReLU | one bit per element: which side of 0 it was |
//! | [`Dropout`] | one bit per element: whether it survived |
//! | [`MaxPool2d`] | one byte per output: where in its window the maximum was |
//! | [`Sigmoid`], [`Tanh`] | the output, f32 |
//! | pooling by average, [`Flatten`] | the input shape only |
//!
//! A bit mask's backward multiplies each gradient by the factor its bit
//! selects (`1` or `0`; `1` or the slope; `1/keep` or `0`), so it is bitwise
//! the product with an f32 mask tensor, `-0.0` and NaN included.
//!
//! ## Example
//!
//! ```
//! use quadra_nn::{Layer, Linear, Relu, Sequential};
//! use quadra_tensor::Tensor;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = Sequential::new(vec![
//!     Box::new(Linear::new(4, 16, true, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(16, 3, true, &mut rng)),
//! ]);
//! let x = Tensor::randn(&[8, 4], 0.0, 1.0, &mut rng);
//! let logits = model.forward(&x, true);
//! assert_eq!(logits.shape(), &[8, 3]);
//! ```

#![warn(missing_docs)]

mod activation;
mod batchnorm;
mod checkpoint;
mod conv;
mod dropout;
pub mod json;
mod layer;
mod linear;
mod loss;
mod mask;
mod metrics;
mod optim;
mod param;
mod pooling;
mod scheduler;
mod trainer;

pub use activation::{LeakyRelu, Relu, Sigmoid, Tanh};
pub use batchnorm::BatchNorm2d;
pub use checkpoint::{ParamState, StateDict};
pub use conv::Conv2d;
pub use dropout::{Dropout, Flatten, Identity, Upsample2d};
pub use layer::{Layer, Residual, Sequential};
pub use linear::Linear;
pub use loss::{BceWithLogitsLoss, CrossEntropyLoss, HingeGanLoss, Loss, MseLoss, SmoothL1Loss};
pub use metrics::{accuracy, confusion_matrix, topk_accuracy};
pub use optim::{Adam, AdamConfig, Optimizer, Sgd, SgdConfig};
pub use param::Param;
pub use pooling::{AvgPool2d, GlobalAvgPool, MaxPool2d};
pub use scheduler::{ConstantLr, CosineAnnealingLr, LrScheduler, MultiStepLr, StepLr};
pub use trainer::{TrainReport, Trainer, TrainerConfig};
