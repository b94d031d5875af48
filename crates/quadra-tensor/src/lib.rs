//! # quadra-tensor
//!
//! A compact, CPU-only, `f32` N-dimensional tensor library that serves as the
//! computational substrate for QuadraLib-rs, the Rust reproduction of
//! *"QuadraLib: A Performant Quadratic Neural Network Library for Architecture
//! Optimization and Design Exploration"* (MLSys 2022).
//!
//! The crate intentionally mirrors the small subset of a deep-learning tensor
//! library that the paper's experiments actually require:
//!
//! * dense row-major storage with shape/stride bookkeeping ([`Tensor`]),
//! * element-wise arithmetic with NumPy/PyTorch-style broadcasting,
//! * 2-D and batched matrix multiplication backed by a cache-blocked,
//!   register-tiled GEMM with transpose-free `nt`/`tn` variants ([`gemm`]),
//! * `conv2d` (NCHW, arbitrary stride/padding/groups, so depth-wise convolution
//!   for MobileNetV1 works) with full backward passes,
//! * max / average pooling with backward passes,
//! * reductions, softmax, shape manipulation, padding and nearest-neighbour
//!   up-sampling (for the GAN generator),
//! * deterministic random initialisation (Kaiming / Xavier) driven by explicit
//!   seeds.
//!
//! Higher-level concepts (layers, autograd, optimizers, quadratic neurons) live
//! in the `quadra-autograd`, `quadra-nn` and `quadra-core` crates.
//!
//! ## Example
//!
//! ```
//! use quadra_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c.as_slice(), a.as_slice());
//! ```

#![warn(missing_docs)]

mod conv;
mod error;
mod fork;
pub mod gemm;
mod init;
mod manip;
mod matmul;
mod ops;
mod pool;
mod reduce;
mod shape;
mod tensor;

pub use conv::{col2im, im2col, Conv2dParams};
pub use error::{Result, TensorError};
pub use init::InitKind;
pub use pool::{PoolIndices, PoolParams};
pub use shape::{broadcast_shapes, strides_for};
pub use tensor::Tensor;
