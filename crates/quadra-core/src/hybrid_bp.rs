//! Back-propagation modes for quadratic layers.
//!
//! The paper observes (problem **P6**) that QDNN training with the default
//! reverse-mode auto-differentiation keeps *every* intermediate tensor of the
//! quadratic layer alive until the backward pass: the input `X`, both
//! first-order branches `Wa·X` and `Wb·X`, and (for designs with a squared
//! input term) `X²`. Its remedy is a **hybrid back-propagation** scheme: the
//! gradients of the quadratic layer are derived symbolically (Eq. 7 in the
//! paper), so only the layer input has to be cached and the branch activations
//! are recomputed on demand during backward, while the surrounding first-order
//! layers (batch-norm, pooling, ...) keep using ordinary AD.
//!
//! [`BackpropMode`] selects between the two behaviours on every quadratic
//! layer in this crate. The memory profiler ([`crate::profiler`]) measures the
//! difference, reproducing Fig. 8 of the paper.

/// How a quadratic layer balances activation caching against recomputation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpropMode {
    /// Default auto-differentiation behaviour: cache the input and every
    /// intermediate branch activation produced during forward.
    #[default]
    Default,
    /// Hybrid AD + symbolic differentiation: cache only the layer input and
    /// recompute branch activations inside backward using the closed-form
    /// gradient expressions.
    Hybrid,
}

impl BackpropMode {
    /// Human-readable label used by the benchmark harnesses.
    pub fn label(&self) -> &'static str {
        match self {
            BackpropMode::Default => "default-BP (AD)",
            BackpropMode::Hybrid => "hybrid-BP (AD+SD)",
        }
    }
}

impl std::fmt::Display for BackpropMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_default_bp() {
        assert_eq!(BackpropMode::default(), BackpropMode::Default);
    }

    #[test]
    fn labels_and_display() {
        assert!(BackpropMode::Default.label().contains("default"));
        assert!(BackpropMode::Hybrid.label().contains("hybrid"));
        assert_eq!(format!("{}", BackpropMode::Hybrid), BackpropMode::Hybrid.label());
    }
}
