//! # quadralib
//!
//! Meta-crate for **QuadraLib-rs**, a from-scratch Rust reproduction of
//! *"QuadraLib: A Performant Quadratic Neural Network Library for Architecture
//! Optimization and Design Exploration"* (MLSys 2022).
//!
//! This crate simply re-exports the public APIs of every member crate so that
//! examples and downstream users can depend on a single package:
//!
//! * [`tensor`] — the dense `f32` tensor substrate,
//! * [`autograd`] — finite-difference gradient checking for the hand-written
//!   backward passes,
//! * [`nn`] — first-order layers, losses, optimizers, schedulers, training loop,
//! * [`core`] — quadratic neurons, quadratic layers, hybrid back-propagation,
//!   memory profiler, auto-builder and analysis tools (the paper's contribution),
//! * [`data`] — synthetic datasets standing in for CIFAR / Tiny-ImageNet / VOC,
//! * [`models`] — the model zoo (VGG, ResNet, MobileNetV1, GAN, SSD-lite),
//! * [`serve`] — multi-model batched inference serving (router over named
//!   endpoints, bounded priority admission with load shedding, adaptive
//!   dynamic batcher, worker pools, checkpoint hot-reload, per-model
//!   metrics),
//! * [`gateway`] — event-driven TCP front-end over `serve`: epoll event
//!   loop, length-prefixed binary wire protocol, backpressure frames and
//!   read pausing, graceful drain.

pub use quadra_autograd as autograd;
pub use quadra_core as core;
pub use quadra_data as data;
pub use quadra_gateway as gateway;
pub use quadra_models as models;
pub use quadra_nn as nn;
pub use quadra_serve as serve;
pub use quadra_tensor as tensor;

/// Crate version of the meta-package, re-exported for convenience.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
