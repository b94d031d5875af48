//! Max / average pooling over NCHW tensors, with the index bookkeeping needed
//! for exact backward passes.

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

/// Configuration of a 2-D pooling operation: square window and stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolParams {
    /// Side length of the pooling window.
    pub kernel: usize,
    /// Stride between windows (defaults to `kernel` for non-overlapping pooling).
    pub stride: usize,
}

impl PoolParams {
    /// Non-overlapping pooling with window `kernel`.
    pub fn new(kernel: usize) -> Self {
        PoolParams { kernel, stride: kernel }
    }

    /// Pooling with an explicit stride.
    pub fn with_stride(kernel: usize, stride: usize) -> Self {
        PoolParams { kernel, stride }
    }

    /// Output spatial extent given the input extent.
    pub fn out_size(&self, in_size: usize) -> usize {
        if in_size < self.kernel {
            0
        } else {
            (in_size - self.kernel) / self.stride + 1
        }
    }

    fn validate(&self, h: usize, w: usize) -> Result<()> {
        if self.kernel == 0 || self.stride == 0 {
            return Err(TensorError::InvalidConvConfig { msg: "pool kernel/stride must be >= 1".into() });
        }
        if h < self.kernel || w < self.kernel {
            return Err(TensorError::InvalidConvConfig {
                msg: format!("pool window {} larger than input {}x{}", self.kernel, h, w),
            });
        }
        Ok(())
    }
}

/// Where each window of a [`Tensor::maxpool2d`] found its maximum, as its
/// backward pass needs it: one byte per output, the window-relative offset
/// `ki · kernel + kj` of the winning element (8× smaller than a flat
/// `usize` index). The pooling parameters and the input shape rebuild the
/// input index from it, which is why windows are limited to
/// [`PoolIndices::MAX_WINDOW`] on a side. Only `maxpool2d` makes one, so
/// every offset lies inside its window and the shape fits the parameters.
#[derive(Debug, Clone)]
pub struct PoolIndices {
    /// For each output element (row-major over `[n, c, oh, ow]`), the offset
    /// of the maximum within its window.
    offsets: Vec<u8>,
    /// Shape of the input the pooling was applied to.
    input_shape: Vec<usize>,
    /// The window and stride the pooling used.
    params: PoolParams,
}

impl PoolIndices {
    /// Largest window side whose offsets fit a byte.
    pub const MAX_WINDOW: usize = 16;

    /// Bytes the offsets occupy: one per pooled output.
    pub fn nbytes(&self) -> usize {
        self.offsets.len()
    }
}

/// The first maximum of the `k × k` window whose first element is
/// `src[corner]`, in rows `w` apart, and its offset `ki · k + kj`.
#[inline(always)]
fn window_max(src: &[f32], corner: usize, w: usize, k: usize) -> (f32, usize) {
    let (mut max, mut at) = (src[corner], 0);
    for ki in 0..k {
        for kj in 0..k {
            let v = src[corner + ki * w + kj];
            if v > max {
                (max, at) = (v, ki * k + kj);
            }
        }
    }
    (max, at)
}

impl Tensor {
    /// Max pooling over an NCHW tensor. Returns the pooled tensor and the
    /// window offsets needed for the backward pass.
    ///
    /// A window's first maximum wins; a NaN anywhere in a window wins it
    /// (the first NaN), so the output says the input was not a number. A
    /// window of nothing but `-∞` yields `-∞` from its first element.
    /// Windows wider than [`PoolIndices::MAX_WINDOW`] are refused.
    pub fn maxpool2d(&self, params: PoolParams) -> Result<(Tensor, PoolIndices)> {
        if self.ndim() != 4 {
            return Err(TensorError::RankMismatch { op: "maxpool2d", expected: 4, actual: self.ndim() });
        }
        let (n, c, h, w) = (self.shape()[0], self.shape()[1], self.shape()[2], self.shape()[3]);
        params.validate(h, w)?;
        if params.kernel > PoolIndices::MAX_WINDOW {
            return Err(TensorError::InvalidConvConfig {
                msg: format!(
                    "max-pool window {} exceeds {}: its offsets are kept in one byte",
                    params.kernel,
                    PoolIndices::MAX_WINDOW
                ),
            });
        }
        let (k, stride, oh, ow) = (params.kernel, params.stride, params.out_size(h), params.out_size(w));
        let src = self.as_slice();
        // The input index of the first element of output `o`'s window.
        let corner_of = |o: usize| o / ow / oh * h * w + o / ow % oh * stride * w + o % ow * stride;
        let mut out = vec![0.0f32; n * c * oh * ow];
        let mut offsets = vec![0u8; n * c * oh * ow];
        let rows = out.chunks_exact_mut(ow).zip(offsets.chunks_exact_mut(ow));
        for (r, (out_row, at_row)) in rows.enumerate() {
            let mut corner = corner_of(r * ow);
            for (best, best_at) in out_row.iter_mut().zip(at_row) {
                // 2 × 2, the common window, gets a copy with the loops unrolled.
                let (max, at) =
                    if k == 2 { window_max(src, corner, w, 2) } else { window_max(src, corner, w, k) };
                *best = max;
                // At most 16 · 16 − 1: wider windows were refused above.
                *best_at = at as u8;
                corner += stride;
            }
        }
        // NaNs are rare: look for them once rather than test every element
        // in the scan above, which would cost it a quarter of its time. A
        // fold, unlike a short-circuit `any`, vectorises.
        if src.iter().fold(false, |nan, v| nan | v.is_nan()) {
            for (o, (best, best_at)) in out.iter_mut().zip(&mut offsets).enumerate() {
                let at_input = |at: usize| corner_of(o) + at / k * w + at % k;
                if let Some(at) = (0..k * k).find(|&at| src[at_input(at)].is_nan()) {
                    (*best, *best_at) = (src[at_input(at)], at as u8);
                }
            }
        }
        Ok((
            Tensor::from_vec(out, &[n, c, oh, ow])?,
            PoolIndices { offsets, input_shape: self.shape().to_vec(), params },
        ))
    }

    /// Backward pass of max pooling: routes each output gradient to the input
    /// element that produced the maximum.
    pub fn maxpool2d_backward(grad_out: &Tensor, indices: &PoolIndices) -> Result<Tensor> {
        if grad_out.numel() != indices.offsets.len() {
            return Err(TensorError::InvalidArgument {
                msg: format!(
                    "grad_out has {} elements but {} pooling offsets were recorded",
                    grad_out.numel(),
                    indices.offsets.len()
                ),
            });
        }
        let (h, w) = (indices.input_shape[2], indices.input_shape[3]);
        let PoolParams { kernel: k, stride } = indices.params;
        let (oh, ow) = (indices.params.out_size(h), indices.params.out_size(w));
        // Input offset of each window offset, from the window's corner. A
        // byte indexes the table without a bounds check.
        let mut within = [0usize; 256];
        for (at, off) in within.iter_mut().enumerate().take(k * k) {
            *off = at / k * w + at % k;
        }
        let mut grad_in = Tensor::zeros(&indices.input_shape);
        let dst = grad_in.as_mut_slice();
        let rows = grad_out.as_slice().chunks_exact(ow).zip(indices.offsets.chunks_exact(ow));
        for (r, (g_row, at_row)) in rows.enumerate() {
            let mut corner = r / oh * h * w + r % oh * stride * w;
            for (&g, &at) in g_row.iter().zip(at_row) {
                dst[corner + within[usize::from(at)]] += g;
                corner += stride;
            }
        }
        Ok(grad_in)
    }

    /// Average pooling over an NCHW tensor.
    pub fn avgpool2d(&self, params: PoolParams) -> Result<Tensor> {
        if self.ndim() != 4 {
            return Err(TensorError::RankMismatch { op: "avgpool2d", expected: 4, actual: self.ndim() });
        }
        let (n, c, h, w) = (self.shape()[0], self.shape()[1], self.shape()[2], self.shape()[3]);
        params.validate(h, w)?;
        let oh = params.out_size(h);
        let ow = params.out_size(w);
        let norm = (params.kernel * params.kernel) as f32;
        let src = self.as_slice();
        let mut out = vec![0.0f32; n * c * oh * ow];
        for ni in 0..n {
            for ci in 0..c {
                let img_base = (ni * c + ci) * h * w;
                for ohi in 0..oh {
                    for owi in 0..ow {
                        let mut s = 0.0;
                        for ki in 0..params.kernel {
                            for kj in 0..params.kernel {
                                s +=
                                    src[img_base + (ohi * params.stride + ki) * w + owi * params.stride + kj];
                            }
                        }
                        out[((ni * c + ci) * oh + ohi) * ow + owi] = s / norm;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, c, oh, ow])
    }

    /// Backward pass of average pooling given the original input shape.
    pub fn avgpool2d_backward(
        grad_out: &Tensor,
        input_shape: &[usize],
        params: PoolParams,
    ) -> Result<Tensor> {
        if input_shape.len() != 4 || grad_out.ndim() != 4 {
            return Err(TensorError::InvalidArgument {
                msg: "avgpool2d_backward expects NCHW shapes".into(),
            });
        }
        let (n, c, h, w) = (input_shape[0], input_shape[1], input_shape[2], input_shape[3]);
        params.validate(h, w)?;
        let oh = params.out_size(h);
        let ow = params.out_size(w);
        if grad_out.shape() != [n, c, oh, ow] {
            return Err(TensorError::IncompatibleShapes {
                op: "avgpool2d_backward",
                lhs: grad_out.shape().to_vec(),
                rhs: vec![n, c, oh, ow],
            });
        }
        let norm = (params.kernel * params.kernel) as f32;
        let g = grad_out.as_slice();
        let mut grad_in = Tensor::zeros(input_shape);
        let dst = grad_in.as_mut_slice();
        for ni in 0..n {
            for ci in 0..c {
                let img_base = (ni * c + ci) * h * w;
                for ohi in 0..oh {
                    for owi in 0..ow {
                        let gval = g[((ni * c + ci) * oh + ohi) * ow + owi] / norm;
                        for ki in 0..params.kernel {
                            for kj in 0..params.kernel {
                                dst[img_base + (ohi * params.stride + ki) * w + owi * params.stride + kj] +=
                                    gval;
                            }
                        }
                    }
                }
            }
        }
        Ok(grad_in)
    }

    /// Global average pooling: `[n, c, h, w] -> [n, c]`.
    pub fn global_avg_pool(&self) -> Result<Tensor> {
        if self.ndim() != 4 {
            return Err(TensorError::RankMismatch {
                op: "global_avg_pool",
                expected: 4,
                actual: self.ndim(),
            });
        }
        let (n, c, h, w) = (self.shape()[0], self.shape()[1], self.shape()[2], self.shape()[3]);
        let hw = (h * w) as f32;
        let src = self.as_slice();
        let mut out = vec![0.0f32; n * c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                out[ni * c + ci] = src[base..base + h * w].iter().sum::<f32>() / hw;
            }
        }
        Tensor::from_vec(out, &[n, c])
    }

    /// Backward pass of [`Tensor::global_avg_pool`].
    pub fn global_avg_pool_backward(grad_out: &Tensor, input_shape: &[usize]) -> Result<Tensor> {
        if input_shape.len() != 4 || grad_out.ndim() != 2 {
            return Err(TensorError::InvalidArgument {
                msg: "global_avg_pool_backward shape mismatch".into(),
            });
        }
        let (n, c, h, w) = (input_shape[0], input_shape[1], input_shape[2], input_shape[3]);
        if grad_out.shape() != [n, c] {
            return Err(TensorError::IncompatibleShapes {
                op: "global_avg_pool_backward",
                lhs: grad_out.shape().to_vec(),
                rhs: vec![n, c],
            });
        }
        let hw = (h * w) as f32;
        let g = grad_out.as_slice();
        let mut grad_in = Tensor::zeros(input_shape);
        let dst = grad_in.as_mut_slice();
        for ni in 0..n {
            for ci in 0..c {
                let val = g[ni * c + ci] / hw;
                let base = (ni * c + ci) * h * w;
                for v in dst[base..base + h * w].iter_mut() {
                    *v = val;
                }
            }
        }
        Ok(grad_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn maxpool_known_values() {
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let (y, idx) = x.maxpool2d(PoolParams::new(2)).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
        assert_eq!(idx.offsets, vec![3, 3, 3, 3]);
    }

    #[test]
    fn maxpool_backward_routes_gradient() {
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let (y, idx) = x.maxpool2d(PoolParams::new(2)).unwrap();
        let grad = Tensor::ones_like(&y);
        let gin = Tensor::maxpool2d_backward(&grad, &idx).unwrap();
        assert_eq!(gin.shape(), x.shape());
        assert_eq!(gin.sum(), 4.0);
        assert_eq!(gin.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(gin.at(&[0, 0, 0, 0]), 0.0);
        assert!(Tensor::maxpool2d_backward(&Tensor::zeros(&[9]), &idx).is_err());
    }

    /// The routing the window offsets replaced: the first maximum's flat
    /// input index, scanned from `-∞`, gradients added in output order.
    fn absolute_index_maxpool(x: &Tensor, p: PoolParams, g: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = (p.out_size(h), p.out_size(w));
        let src = x.as_slice();
        let (mut out, mut grad_in) = (Vec::new(), vec![0.0f32; src.len()]);
        for plane in 0..n * c {
            for ohi in 0..oh {
                for owi in 0..ow {
                    let (mut best, mut best_idx) = (f32::NEG_INFINITY, 0);
                    for ki in 0..p.kernel {
                        for kj in 0..p.kernel {
                            let idx = plane * h * w + (ohi * p.stride + ki) * w + owi * p.stride + kj;
                            if src[idx] > best {
                                (best, best_idx) = (src[idx], idx);
                            }
                        }
                    }
                    grad_in[best_idx] += g.as_slice()[out.len()];
                    out.push(best);
                }
            }
        }
        (out, grad_in)
    }

    #[test]
    fn maxpool_offsets_route_like_absolute_indices() {
        let mut rng = StdRng::seed_from_u64(6);
        let cases = [(2, 2, 4, 4), (2, 2, 7, 5), (3, 2, 7, 9), (3, 1, 5, 6), (2, 1, 9, 7), (4, 3, 11, 10)];
        for (kernel, stride, h, w) in cases {
            let p = PoolParams::with_stride(kernel, stride);
            // Integers in [-2, 2]: many ties within a window.
            let x = Tensor::randn(&[2, 3, h, w], 0.0, 1.5, &mut rng).map(|v| v.round().clamp(-2.0, 2.0));
            let (y, idx) = x.maxpool2d(p).unwrap();
            let g = Tensor::randn(y.shape(), 0.0, 1.0, &mut rng);
            let (y_ref, gin_ref) = absolute_index_maxpool(&x, p, &g);
            let gin = Tensor::maxpool2d_backward(&g, &idx).unwrap();
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(y.as_slice()), bits(&y_ref), "{kernel}/{stride} on {h}x{w}");
            assert_eq!(bits(gin.as_slice()), bits(&gin_ref), "{kernel}/{stride} on {h}x{w}");
            assert_eq!(idx.offsets.len(), y.numel());
        }
    }

    #[test]
    fn maxpool_gradient_of_an_all_neg_infinity_window_stays_in_it() {
        // Sample 1 is all -∞: its window's gradient goes to its own first
        // element, not to sample 0's.
        let mut v = vec![1.0, 4.0, 2.0, 3.0];
        v.extend([f32::NEG_INFINITY; 4]);
        let x = Tensor::from_vec(v, &[2, 1, 2, 2]).unwrap();
        let (y, idx) = x.maxpool2d(PoolParams::new(2)).unwrap();
        assert_eq!(y.as_slice(), &[4.0, f32::NEG_INFINITY]);
        let g = Tensor::from_vec(vec![10.0, 100.0], &[2, 1, 1, 1]).unwrap();
        let gin = Tensor::maxpool2d_backward(&g, &idx).unwrap();
        assert_eq!(gin.as_slice(), &[0.0, 10.0, 0.0, 0.0, 100.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_nan_wins_its_window() {
        let x = Tensor::from_vec(vec![f32::NAN, 5.0, 1.0, 2.0], &[1, 1, 2, 2]).unwrap();
        let (y, idx) = x.maxpool2d(PoolParams::new(2)).unwrap();
        assert!(y.as_slice()[0].is_nan());
        assert_eq!(idx.offsets, vec![0]);
        // A later NaN wins too, and the first NaN keeps the window.
        let x = Tensor::from_vec(vec![1.0, 5.0, f32::NAN, -f32::NAN], &[1, 1, 2, 2]).unwrap();
        let (y, idx) = x.maxpool2d(PoolParams::new(2)).unwrap();
        assert_eq!(y.as_slice()[0].to_bits(), f32::NAN.to_bits());
        assert_eq!(idx.offsets, vec![2]);
        let gin = Tensor::maxpool2d_backward(&Tensor::ones_like(&y), &idx).unwrap();
        assert_eq!(gin.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn maxpool_windows_above_16_are_refused() {
        let x = Tensor::zeros(&[1, 1, 17, 17]);
        assert!(x.maxpool2d(PoolParams::new(16)).is_ok());
        let err = x.maxpool2d(PoolParams::new(17)).unwrap_err();
        assert!(err.to_string().contains("exceeds 16"), "{err}");
        // Average pooling keeps no offsets and takes any window.
        assert!(x.avgpool2d(PoolParams::new(17)).is_ok());
    }

    #[test]
    fn maxpool_overlapping_stride() {
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let (y, _) = x.maxpool2d(PoolParams::with_stride(2, 1)).unwrap();
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        assert_eq!(y.at(&[0, 0, 0, 0]), 5.0);
        assert_eq!(y.at(&[0, 0, 2, 2]), 15.0);
    }

    #[test]
    fn avgpool_values_and_backward() {
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = x.avgpool2d(PoolParams::new(2)).unwrap();
        assert_eq!(y.as_slice(), &[2.5, 4.5, 10.5, 12.5]);
        let gin = Tensor::avgpool2d_backward(&Tensor::ones_like(&y), x.shape(), PoolParams::new(2)).unwrap();
        assert_eq!(gin.shape(), x.shape());
        assert!((gin.sum() - 4.0).abs() < 1e-6);
        assert!((gin.at(&[0, 0, 0, 0]) - 0.25).abs() < 1e-6);
        assert!(
            Tensor::avgpool2d_backward(&Tensor::zeros(&[1, 1, 3, 3]), x.shape(), PoolParams::new(2)).is_err()
        );
    }

    #[test]
    fn avgpool_backward_is_adjoint() {
        // <avgpool(x), y> == <x, avgpool_backward(y)>
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::randn(&[2, 3, 6, 6], 0.0, 1.0, &mut rng);
        let p = PoolParams::new(2);
        let y = Tensor::randn(&[2, 3, 3, 3], 0.0, 1.0, &mut rng);
        let lhs: f32 = x.avgpool2d(p).unwrap().as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let back = Tensor::avgpool2d_backward(&y, x.shape(), p).unwrap();
        let rhs: f32 = x.as_slice().iter().zip(back.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3);
    }

    #[test]
    fn global_avg_pool_and_backward() {
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let y = x.global_avg_pool().unwrap();
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.as_slice(), &[1.5, 5.5]);
        let gin = Tensor::global_avg_pool_backward(&Tensor::ones_like(&y), x.shape()).unwrap();
        assert!((gin.sum() - 2.0).abs() < 1e-6);
        assert!((gin.at(&[0, 1, 0, 0]) - 0.25).abs() < 1e-6);
        assert!(Tensor::global_avg_pool_backward(&Tensor::zeros(&[1, 3]), x.shape()).is_err());
        assert!(Tensor::global_avg_pool_backward(&y, &[1, 2, 2]).is_err());
        assert!(Tensor::zeros(&[2, 2]).global_avg_pool().is_err());
    }

    #[test]
    fn pool_param_validation() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(x.maxpool2d(PoolParams::new(3)).is_err());
        assert!(x.maxpool2d(PoolParams::new(0)).is_err());
        assert!(x.avgpool2d(PoolParams::new(3)).is_err());
        assert!(Tensor::zeros(&[2, 2]).maxpool2d(PoolParams::new(2)).is_err());
        assert!(Tensor::zeros(&[2, 2]).avgpool2d(PoolParams::new(2)).is_err());
        assert_eq!(PoolParams::new(2).out_size(1), 0);
    }
}
