//! # quadra-autograd
//!
//! Finite-difference gradient checking for the closed-form backward passes of
//! QuadraLib-rs.
//!
//! Every layer in `quadra-nn` and every quadratic layer in `quadra-core`
//! back-propagates by hand: each `backward` applies the layer's closed-form
//! ("symbolic") gradient and caches only what that formula needs, which is
//! what lets hybrid back-propagation trade recomputation for activation
//! memory (Fig. 8 of the paper). This crate checks those hand-written
//! gradients against central finite differences.
//!
//! ## Example
//!
//! ```
//! use quadra_autograd::{check_close, numeric_gradient};
//! use quadra_tensor::Tensor;
//!
//! // f(x) = sum(w ∘ x) has the closed-form gradient w.
//! let w = Tensor::from_slice(&[0.5, -1.0, 2.0]);
//! let x = Tensor::from_slice(&[1.0, 2.0, 3.0]);
//! let numeric = numeric_gradient(|t| w.mul(t).unwrap().sum(), &x, 1e-3);
//! assert!(check_close(&w, &numeric).passes(1e-2));
//! ```

#![warn(missing_docs)]

mod gradcheck;

pub use gradcheck::{check_close, numeric_gradient, GradCheckReport};
