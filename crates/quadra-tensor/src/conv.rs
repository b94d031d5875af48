//! 2-D convolution (NCHW) with stride, zero-padding and groups (which covers
//! depth-wise convolution for MobileNetV1).
//!
//! The forward pass and both backward passes (w.r.t. input and weight) are
//! implemented so the layer crates can use closed-form ("symbolic") gradients —
//! the ingredient the paper's hybrid back-propagation scheme relies on.
//!
//! The forward and the input gradient work one sample at a time, inside one
//! parallel region decided by the crate's fork rule ([`crate::fork`]):
//!
//! * **generic** — the sample is lowered into a per-thread column buffer
//!   `[c·kh·kw, oh·ow]` with contiguous row copies ([`Geom::lower`]), multiplied
//!   per group by the blocked GEMM, and (backward) scattered back with row adds
//!   ([`Geom::scatter`]). The products read each weight packed once per
//!   call, before the region forks ([`Geom::pack_weights`]); every sample
//!   shares it read-only.
//! * **1×1 / stride 1 / pad 0** — the image *is* its column form, so it feeds
//!   the GEMM directly in all three directions.
//! * **depth-wise** (`groups == in_c == out_c`) — a direct stencil; a
//!   `1 × k² × oh·ow` product per channel is not worth lowering for.
//!
//! The weight gradient is one product per call over the stacked branches
//! (see [`backward_weight`]): each sample's `colᵀ` is packed once and serves
//! every branch. When the call splits by output rows, the batch's packed
//! columns exist for that one call, and each row range folds through one
//! range-sized partial; small stacked operands split by sample batches
//! instead. Either way the summation order is fixed by shape alone.
//!
//! The `*_multi` entry points run several weight branches over **one** lowering
//! of the input — what a quadratic layer's `conv(X,Wa) ∘ conv(X,Wb) + conv(X,Wc)`
//! needs. The public [`im2col`] / [`col2im`] are the same per-sample routines
//! applied to a whole batch.
//!
//! Numerics: a sample's result depends on its own data and the layer geometry
//! only — same kernel, same summation order whatever the batch size, pool size
//! or fork decision — so row `i` of a batched forward is bitwise the batch-1
//! forward of sample `i`.

use crate::error::{Result, TensorError};
use crate::fork::{for_each_range, with_scratch, Scratch};
use crate::gemm::{gemm_packed_into, gemm_rows_into, pack_bt, packed_b_len, Bt, PackedA, MR};
use crate::tensor::Tensor;
use std::cell::Cell;
use std::ops::Range;

thread_local! {
    /// One sample's column form (or column gradient), or one row range's
    /// weight-gradient partial, reused across samples, layers and calls on
    /// this thread.
    static COL_SCRATCH: Scratch = const { Cell::new(Vec::new()) };
}

/// Configuration of a 2-D convolution: square kernel, stride, padding, groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding added on every side of both spatial axes.
    pub padding: usize,
    /// Number of groups; `groups == in_channels` gives depth-wise convolution.
    pub groups: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams { stride: 1, padding: 0, groups: 1 }
    }
}

impl Conv2dParams {
    /// Convenience constructor.
    pub fn new(stride: usize, padding: usize, groups: usize) -> Self {
        Conv2dParams { stride, padding, groups }
    }

    /// Output spatial extent for an input extent `in_size` and kernel extent `k`.
    ///
    /// Returns 0 when the kernel exceeds the padded input (no valid output
    /// position exists); the `+ 1` only applies once the kernel fits.
    pub fn out_size(&self, in_size: usize, k: usize) -> usize {
        let padded = in_size + 2 * self.padding;
        if padded < k {
            return 0;
        }
        (padded - k) / self.stride + 1
    }

    fn validate(&self, in_c: usize, h: usize, w: usize, kh: usize, kw: usize) -> Result<()> {
        if self.stride == 0 {
            return Err(TensorError::InvalidConvConfig { msg: "stride must be >= 1".into() });
        }
        if self.groups == 0 || in_c % self.groups != 0 {
            return Err(TensorError::InvalidConvConfig {
                msg: format!("groups {} must divide input channels {}", self.groups, in_c),
            });
        }
        if h + 2 * self.padding < kh || w + 2 * self.padding < kw {
            return Err(TensorError::InvalidConvConfig {
                msg: format!(
                    "kernel {}x{} larger than padded input {}x{}",
                    kh,
                    kw,
                    h + 2 * self.padding,
                    w + 2 * self.padding
                ),
            });
        }
        Ok(())
    }
}

/// Output positions `o` along one axis whose input position
/// `o·stride + k_off − pad` falls inside `0..in_size`.
fn valid_range(k_off: usize, in_size: usize, out_size: usize, stride: usize, pad: usize) -> Range<usize> {
    let hi = if in_size + pad > k_off { ((in_size + pad - k_off - 1) / stride + 1).min(out_size) } else { 0 };
    let lo = pad.saturating_sub(k_off).div_ceil(stride).min(hi);
    lo..hi
}

/// One kernel offset `(ki, kj)` with the output rows / columns for which it
/// reads inside the image (everything else sees zero padding).
struct Tap {
    /// `ki·kw + kj`: the offset's row within one channel of the column form.
    index: usize,
    ki: usize,
    kj: usize,
    rows: Range<usize>,
    cols: Range<usize>,
}

/// `dst[j] = src[j·stride]`.
#[inline]
fn gather(dst: &mut [f32], src: &[f32], stride: usize) {
    if stride == 1 {
        dst.copy_from_slice(&src[..dst.len()]);
    } else {
        for (d, s) in dst.iter_mut().zip(src.iter().step_by(stride)) {
            *d = *s;
        }
    }
}

/// `dst[j] += a · src[j·stride]`.
#[inline]
fn axpy_gather(dst: &mut [f32], a: f32, src: &[f32], stride: usize) {
    if stride == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d += a * s;
        }
    } else {
        for (d, s) in dst.iter_mut().zip(src.iter().step_by(stride)) {
            *d += a * s;
        }
    }
}

/// `dst[j·stride] += a · src[j]`.
#[inline]
fn axpy_scatter(dst: &mut [f32], a: f32, src: &[f32], stride: usize) {
    if stride == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d += a * s;
        }
    } else {
        for (d, s) in dst.iter_mut().step_by(stride).zip(src) {
            *d += a * s;
        }
    }
}

/// Per-sample geometry of one convolution call, validated once per call.
struct Geom {
    c: usize,
    h: usize,
    w: usize,
    oc: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    taps: Vec<Tap>,
}

impl Geom {
    /// Geometry of `op` over an NCHW `input_shape` and an
    /// `[oc, c/groups, kh, kw]` `weight_shape`; returns the batch size too.
    fn new(
        op: &'static str,
        input_shape: &[usize],
        weight_shape: &[usize],
        params: Conv2dParams,
    ) -> Result<(usize, Geom)> {
        let (&[n, c, h, w], &[oc, wc, kh, kw]) = (input_shape, weight_shape) else {
            return Err(TensorError::InvalidArgument { msg: format!("{op} expects NCHW tensors") });
        };
        params.validate(c, h, w, kh, kw)?;
        if wc != c / params.groups || oc % params.groups != 0 {
            return Err(TensorError::IncompatibleShapes {
                op,
                lhs: input_shape.to_vec(),
                rhs: weight_shape.to_vec(),
            });
        }
        Ok((n, Geom::lowering(c, h, w, oc, kh, kw, params)))
    }

    /// Geometry of the lowering alone (`oc` only matters to the products).
    fn lowering(c: usize, h: usize, w: usize, oc: usize, kh: usize, kw: usize, params: Conv2dParams) -> Geom {
        let (stride, pad) = (params.stride, params.padding);
        let (oh, ow) = (params.out_size(h, kh), params.out_size(w, kw));
        let taps = (0..kh * kw)
            .map(|index| {
                let (ki, kj) = (index / kw, index % kw);
                let cols = valid_range(kj, w, ow, stride, pad);
                // A tap that reads no column reads no row either.
                let rows = if cols.is_empty() { 0..0 } else { valid_range(ki, h, oh, stride, pad) };
                Tap { index, ki, kj, rows, cols }
            })
            .collect();
        Geom { c, h, w, oc, kh, kw, oh, ow, stride, pad, groups: params.groups, taps }
    }

    /// Rows of one sample's column form.
    fn col_rows(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Columns of one sample's column form: output positions.
    fn cols(&self) -> usize {
        self.oh * self.ow
    }

    /// Floats of one input sample.
    fn in_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Floats of one output sample.
    fn out_len(&self) -> usize {
        self.oc * self.cols()
    }

    /// Floats of one weight tensor.
    fn weight_len(&self) -> usize {
        self.oc * self.col_rows() / self.groups
    }

    /// Multiply-adds of one sample through one weight.
    fn macs(&self) -> usize {
        self.weight_len() * self.cols()
    }

    /// 1×1, stride 1, no padding: the image is already its own column form.
    fn is_pointwise(&self) -> bool {
        self.kh == 1 && self.kw == 1 && self.stride == 1 && self.pad == 0
    }

    /// One filter per channel: a stencil, not a matrix product.
    fn is_depthwise(&self) -> bool {
        self.groups == self.c && self.oc == self.c
    }

    /// Offset within an image plane of the first input `tap` reads for output row `ohi`.
    #[inline]
    fn in_start(&self, tap: &Tap, ohi: usize) -> usize {
        (ohi * self.stride + tap.ki - self.pad) * self.w + tap.cols.start * self.stride + tap.kj - self.pad
    }

    /// The one lowering: write one sample `[c, h, w]` into column form
    /// `[c·kh·kw, oh·ow]` with row copies. Every slot of `col` is written
    /// (zeros where the receptive field hangs over the padding), so a stale
    /// scratch buffer is fine.
    fn lower(&self, col: &mut [f32], img: &[f32]) {
        let (hw, cols, kk, ow) = (self.h * self.w, self.cols(), self.kh * self.kw, self.ow);
        for (ci, plane) in img.chunks_exact(hw.max(1)).enumerate().take(self.c) {
            for tap in &self.taps {
                let dst = &mut col[(ci * kk + tap.index) * cols..][..cols];
                let Some(last_row) = tap.rows.clone().last() else {
                    dst.fill(0.0);
                    continue;
                };
                // What the tap reads inside the image, per output row.
                let seg = |ohi: usize| ohi * ow + tap.cols.start..ohi * ow + tap.cols.end;
                let (first, last) = (seg(tap.rows.start).start, seg(last_row).end);
                if self.stride == 1 && ow == self.w {
                    // Image and column form share a row pitch, so the tap's
                    // whole block is the plane shifted by a constant: one copy,
                    // whose wrapped-around margins are zeroed below.
                    dst[first..last]
                        .copy_from_slice(&plane[self.in_start(tap, tap.rows.start)..][..last - first]);
                } else {
                    for ohi in tap.rows.clone() {
                        gather(&mut dst[seg(ohi)], &plane[self.in_start(tap, ohi)..], self.stride);
                    }
                }
                dst[..first].fill(0.0);
                dst[last..].fill(0.0);
                for ohi in tap.rows.start..last_row {
                    dst[seg(ohi).end..seg(ohi + 1).start].fill(0.0);
                }
            }
        }
    }

    /// Call `f(channel, tap, out_segment, in_start)` for every (channel, tap,
    /// output row) that reads inside the image, in `(c, ki, kj, oh)` order:
    /// `out_segment` indexes an output plane, `in_start` an input plane
    /// (then every `stride`-th element).
    #[inline]
    fn for_each_tap_row(&self, mut f: impl FnMut(usize, &Tap, Range<usize>, usize)) {
        for ch in 0..self.c {
            for tap in &self.taps {
                for ohi in tap.rows.clone() {
                    f(
                        ch,
                        tap,
                        ohi * self.ow + tap.cols.start..ohi * self.ow + tap.cols.end,
                        self.in_start(tap, ohi),
                    );
                }
            }
        }
    }

    /// Adjoint of [`Geom::lower`]: add one sample's column form back onto its
    /// image, overlapping receptive fields accumulating.
    fn scatter(&self, img: &mut [f32], col: &[f32]) {
        let (hw, cols, kk) = (self.h * self.w, self.cols(), self.kh * self.kw);
        self.for_each_tap_row(|ci, tap, seg, start| {
            let src = &col[(ci * kk + tap.index) * cols..][seg];
            axpy_scatter(&mut img[ci * hw + start..(ci + 1) * hw], 1.0, src, self.stride);
        });
    }

    /// Depth-wise forward: `out[ch] += Σ_tap w[ch][tap] · shifted(img[ch])`.
    fn stencil_forward(&self, out: &mut [f32], img: &[f32], w: &[f32]) {
        let (hw, cols, kk) = (self.h * self.w, self.cols(), self.kh * self.kw);
        self.for_each_tap_row(|ch, tap, seg, start| {
            let src = &img[ch * hw + start..(ch + 1) * hw];
            axpy_gather(&mut out[ch * cols..][seg], w[ch * kk + tap.index], src, self.stride);
        });
    }

    /// Depth-wise input gradient: the stencil transposed, accumulated onto `grad_in`.
    fn stencil_backward_input(&self, grad_in: &mut [f32], grad_out: &[f32], w: &[f32]) {
        let (hw, cols, kk) = (self.h * self.w, self.cols(), self.kh * self.kw);
        self.for_each_tap_row(|ch, tap, seg, start| {
            let dst = &mut grad_in[ch * hw + start..(ch + 1) * hw];
            axpy_scatter(dst, w[ch * kk + tap.index], &grad_out[ch * cols..][seg], self.stride);
        });
    }

    /// Depth-wise weight gradient: `gw[ch·pitch + tap] += <grad_out[ch], shifted(img[ch])>`.
    fn stencil_backward_weight(&self, gw: &mut [f32], pitch: usize, grad_out: &[f32], img: &[f32]) {
        let (hw, cols) = (self.h * self.w, self.cols());
        self.for_each_tap_row(|ch, tap, seg, start| {
            let src = img[ch * hw + start..(ch + 1) * hw].iter().step_by(self.stride);
            gw[ch * pitch + tap.index] +=
                grad_out[ch * cols..][seg].iter().zip(src).map(|(g, x)| g * x).sum::<f32>();
        });
    }

    /// Run `f` on the column form of `img`: the image itself for a point-wise
    /// convolution, otherwise its lowering in this thread's scratch.
    fn with_cols<R>(&self, img: &[f32], f: impl FnOnce(&[f32]) -> R) -> R {
        if self.is_pointwise() {
            return f(img);
        }
        with_scratch(&COL_SCRATCH, self.col_rows() * self.cols(), |col| {
            self.lower(col, img);
            f(col)
        })
    }

    /// Call `f(group, out_group, weight_group, col_group)` with each group's
    /// index and its element range in an output sample, a weight and a
    /// column form.
    #[inline]
    fn for_each_group(&self, mut f: impl FnMut(usize, Range<usize>, Range<usize>, Range<usize>)) {
        let (out_g, w_g, col_g) = (
            self.out_len() / self.groups,
            self.weight_len() / self.groups,
            self.col_rows() * self.cols() / self.groups,
        );
        for gi in 0..self.groups {
            f(gi, gi * out_g..(gi + 1) * out_g, gi * w_g..(gi + 1) * w_g, gi * col_g..(gi + 1) * col_g);
        }
    }

    /// Every weight's per-group `A` operand, packed once for a whole call and
    /// shared by all its samples: `W_g` (`oc/groups × col_rows/groups`) for
    /// the forward, `W_gᵀ` for the input gradient. Branch-major, one operand
    /// per group. A depth-wise stencil reads its weights as stored, so it
    /// packs nothing.
    ///
    /// Callers pack before they allocate their output, so the packed buffers
    /// are freed while the output still lives above them. Packed after it,
    /// they made a three-branch batch-16 forward take ~650 minor page faults
    /// per call instead of ~0 and run 1.3–1.9× slower (2-vCPU Xeon, glibc).
    fn pack_weights(&self, weights: &[&[f32]], transposed: bool) -> Vec<PackedA> {
        if self.is_depthwise() {
            return Vec::new();
        }
        let (rows, k) = (self.oc / self.groups, self.col_rows() / self.groups);
        let mut packed = Vec::with_capacity(weights.len() * self.groups);
        for w in weights {
            self.for_each_group(|_, _, wg, _| {
                let mut slot = PackedA::default();
                if transposed {
                    slot.pack(&w[wg], k, rows, true);
                } else {
                    slot.pack(&w[wg], rows, k, false);
                }
                packed.push(slot);
            });
        }
        packed
    }

    /// Forward of one sample through every weight: one lowering, then each
    /// branch's per-group products `out_b = W_b · col` with the `(m, k, n)` a
    /// single-weight call would use. `packed` is `weights` as
    /// [`Geom::pack_weights`] packs them.
    fn forward_sample(&self, outs: &mut [&mut [f32]], img: &[f32], weights: &[&[f32]], packed: &[PackedA]) {
        if self.is_depthwise() {
            for (out, w) in outs.iter_mut().zip(weights) {
                self.stencil_forward(out, img, w);
            }
            return;
        }
        let n = self.cols();
        self.with_cols(img, |col| {
            for (out, w) in outs.iter_mut().zip(packed.chunks_exact(self.groups)) {
                self.for_each_group(|gi, og, _, cg| gemm_packed_into(&mut out[og], &w[gi], &col[cg], n));
            }
        });
    }

    /// Sample `ni` of each per-branch batch of output gradients.
    fn sample<'a>(&self, batches: &'a [&'a [f32]], ni: usize) -> impl Iterator<Item = &'a [f32]> {
        let len = self.out_len();
        batches.iter().map(move |b| &b[ni * len..(ni + 1) * len])
    }

    /// Input gradient of sample `ni`: every branch's `W_bᵀ · grad_out_b`
    /// accumulates into one column gradient, scattered back once (or lands
    /// directly on `grad_in` when the image is its own column form).
    /// `packed` is the transposed `weights` as
    /// [`Geom::pack_weights`] packs them.
    fn backward_input_sample(
        &self,
        grad_in: &mut [f32],
        grad_outs: &[&[f32]],
        ni: usize,
        weights: &[&[f32]],
        packed: &[PackedA],
    ) {
        if self.is_depthwise() {
            for (go, w) in self.sample(grad_outs, ni).zip(weights) {
                self.stencil_backward_input(grad_in, go, w);
            }
            return;
        }
        let n = self.cols();
        let products = |grad_col: &mut [f32]| {
            for (go, w) in self.sample(grad_outs, ni).zip(packed.chunks_exact(self.groups)) {
                self.for_each_group(|gi, og, _, cg| gemm_packed_into(&mut grad_col[cg], &w[gi], &go[og], n));
            }
        };
        if self.is_pointwise() {
            return products(grad_in);
        }
        with_scratch(&COL_SCRATCH, self.col_rows() * self.cols(), |grad_col| {
            grad_col.fill(0.0);
            products(grad_col);
            self.scatter(grad_in, grad_col);
        });
    }

    /// Row `r` of group `gi`'s stacked weight-gradient operand for sample
    /// `ni`: rows `b·oc_g..(b+1)·oc_g` are branch `b`'s output-gradient rows
    /// of the group, `cols` floats each.
    fn stacked_row<'a>(&self, grad_outs: &[&'a [f32]], ni: usize, gi: usize, r: usize) -> &'a [f32] {
        let (oc_g, cols) = (self.oc / self.groups, self.cols());
        let (b, rr) = (r / oc_g, r % oc_g);
        &grad_outs[b][ni * self.out_len() + (gi * oc_g + rr) * cols..][..cols]
    }

    /// Add sample `ni`'s weight-gradient products to the stacked rows
    /// `rows` (see [`backward_weight`]), held in `dst` as `rows.len()` rows of
    /// `col_rows/groups` floats: per group, `dst_g += A_g · colᵀ_g`, with
    /// `A_g` the group's stacked output-gradient rows. `packed` holds every
    /// sample's `colᵀ` as [`pack_bt`] packs it, `groups` operands per sample;
    /// empty, the sample is lowered here and its `colᵀ` packed a panel at a
    /// time by the product. A depth-wise stencil takes every row at once and
    /// packs nothing.
    fn accumulate_weight_grad(
        &self,
        dst: &mut [f32],
        rows: Range<usize>,
        grad_outs: &[&[f32]],
        ni: usize,
        img: &[f32],
        packed: &[f32],
    ) {
        let branches = grad_outs.len();
        if self.is_depthwise() {
            let kk = self.kh * self.kw;
            for (b, go) in self.sample(grad_outs, ni).enumerate() {
                self.stencil_backward_weight(&mut dst[b * kk..], branches * kk, go, img);
            }
            return;
        }
        let (k, width, stacked) =
            (self.cols(), self.col_rows() / self.groups, branches * self.oc / self.groups);
        let product = |dst: &mut [f32], gi: usize, b: Bt<'_>| {
            // This group's share of `rows`, and where it sits in `dst`.
            let run = rows.start.max(gi * stacked)..rows.end.min((gi + 1) * stacked);
            let dst = &mut dst[(run.start - rows.start) * width..];
            let first = run.start - gi * stacked;
            gemm_rows_into(dst, run.len(), |i| self.stacked_row(grad_outs, ni, gi, first + i), b, k, width);
        };
        let groups = rows.start / stacked..rows.end.div_ceil(stacked);
        if packed.is_empty() {
            self.with_cols(img, |col| {
                self.for_each_group(|gi, _, _, cg| {
                    if groups.contains(&gi) {
                        product(dst, gi, Bt::Stored(&col[cg]));
                    }
                });
            });
        } else {
            let len = packed_b_len(k, width);
            for gi in groups {
                product(dst, gi, Bt::Packed(&packed[(ni * self.groups + gi) * len..][..len]));
            }
        }
    }

    /// Every output row of the stacked weight gradient, in stacked order:
    /// per group, each branch's `oc/groups` rows of `outs[b]`.
    fn stacked_rows<'a>(&self, outs: &'a mut [Vec<f32>]) -> Vec<&'a mut [f32]> {
        let (width, oc_g) = (self.col_rows() / self.groups, self.oc / self.groups);
        let mut branches: Vec<_> = outs.iter_mut().map(|out| out.chunks_exact_mut(width)).collect();
        let mut rows = Vec::with_capacity(self.groups * oc_g * branches.len());
        for _ in 0..self.groups {
            for branch in &mut branches {
                rows.extend(branch.by_ref().take(oc_g));
            }
        }
        rows
    }
}

/// Fold one sample batch's partial (stacked rows back to back) into `rows`
/// of the output: copied for the first batch, added after.
fn fold_rows(rows: &mut [&mut [f32]], partial: &[f32], width: usize, first: bool) {
    for (row, part) in rows.iter_mut().zip(partial.chunks_exact(width)) {
        if first {
            row.copy_from_slice(part);
        } else {
            for (a, v) in row.iter_mut().zip(part) {
                *a += v;
            }
        }
    }
}

/// Lower one NCHW image batch into column form.
///
/// Returns a `[n, c*kh*kw, oh*ow]` tensor where each column holds the receptive
/// field of one output location. The convolutions themselves never build this
/// batch-wide tensor — they lower one sample at a time with the same routine.
pub fn im2col(input: &Tensor, kh: usize, kw: usize, params: Conv2dParams) -> Result<Tensor> {
    let &[n, c, h, w] = input.shape() else {
        return Err(TensorError::RankMismatch { op: "im2col", expected: 4, actual: input.ndim() });
    };
    params.validate(c, h, w, kh, kw)?;
    let g = Geom::lowering(c, h, w, 0, kh, kw, params);
    let per = g.col_rows() * g.cols();
    let mut out = vec![0.0f32; n * per];
    if per > 0 {
        for (col, img) in out.chunks_exact_mut(per).zip(input.as_slice().chunks_exact(g.in_len())) {
            g.lower(col, img);
        }
    }
    Tensor::from_vec(out, &[n, g.col_rows(), g.cols()])
}

/// Inverse of [`im2col`]: scatter-add column form back into an NCHW image batch.
///
/// `cols` must have shape `[n, c*kh*kw, oh*ow]`; the result has shape
/// `[n, c, h, w]`. Overlapping receptive fields accumulate, which is exactly
/// the gradient of im2col.
pub fn col2im(
    cols: &Tensor,
    out_shape: &[usize],
    kh: usize,
    kw: usize,
    params: Conv2dParams,
) -> Result<Tensor> {
    if cols.ndim() != 3 {
        return Err(TensorError::RankMismatch { op: "col2im", expected: 3, actual: cols.ndim() });
    }
    let &[n, c, h, w] = out_shape else {
        return Err(TensorError::InvalidArgument { msg: "col2im output shape must be NCHW".into() });
    };
    params.validate(c, h, w, kh, kw)?;
    let g = Geom::lowering(c, h, w, 0, kh, kw, params);
    if cols.shape() != [n, g.col_rows(), g.cols()] {
        return Err(TensorError::IncompatibleShapes {
            op: "col2im",
            lhs: cols.shape().to_vec(),
            rhs: vec![n, g.col_rows(), g.cols()],
        });
    }
    let per = g.col_rows() * g.cols();
    let mut out = vec![0.0f32; n * g.in_len()];
    if per > 0 && g.in_len() > 0 {
        for (img, col) in out.chunks_exact_mut(g.in_len()).zip(cols.as_slice().chunks_exact(per)) {
            g.scatter(img, col);
        }
    }
    Tensor::from_vec(out, out_shape)
}

/// Every tensor of `rest` must have the shape of `first`.
fn same_shapes(op: &'static str, first: &Tensor, rest: &[&Tensor]) -> Result<()> {
    match rest.iter().find(|t| t.shape() != first.shape()) {
        Some(t) => {
            Err(TensorError::IncompatibleShapes { op, lhs: first.shape().to_vec(), rhs: t.shape().to_vec() })
        }
        None => Ok(()),
    }
}

/// The data of each tensor of `ts`.
fn slices<'a>(ts: &[&'a Tensor]) -> Vec<&'a [f32]> {
    ts.iter().map(|t| t.as_slice()).collect()
}

/// Forward of `input` through each of `weights` (same shape), lowering every
/// sample once. `bias` is added to every branch's output.
fn forward(
    op: &'static str,
    input: &Tensor,
    weights: &[&Tensor],
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<Vec<Tensor>> {
    let Some((first, rest)) = weights.split_first() else {
        return Err(TensorError::InvalidArgument { msg: format!("{op} needs at least one weight") });
    };
    if first.ndim() != 4 {
        return Err(TensorError::RankMismatch { op: "conv2d weight", expected: 4, actual: first.ndim() });
    }
    if input.ndim() != 4 {
        return Err(TensorError::RankMismatch { op, expected: 4, actual: input.ndim() });
    }
    let (n, g) = Geom::new(op, input.shape(), first.shape(), params)?;
    same_shapes(op, first, rest)?;
    if let Some(b) = bias.filter(|b| b.shape() != [g.oc]) {
        return Err(TensorError::IncompatibleShapes {
            op: "conv2d bias",
            lhs: vec![g.oc],
            rhs: b.shape().to_vec(),
        });
    }
    let (src, ws, out_len) = (input.as_slice(), slices(weights), g.out_len());
    let packed = g.pack_weights(&ws, false);
    let mut outs: Vec<Vec<f32>> = weights.iter().map(|_| vec![0.0f32; n * out_len]).collect();
    if out_len > 0 {
        // Sample-major: each sample's output slice of every branch, adjacent.
        let mut branches: Vec<_> = outs.iter_mut().map(|out| out.chunks_exact_mut(out_len)).collect();
        let mut samples: Vec<&mut [f32]> = Vec::with_capacity(n * weights.len());
        for _ in 0..n {
            samples.extend(branches.iter_mut().filter_map(Iterator::next));
        }
        for_each_range(&mut samples, weights.len(), n * weights.len() * g.macs(), |first, range| {
            for (ni, outs_n) in (first..).zip(range.chunks_exact_mut(weights.len())) {
                g.forward_sample(outs_n, &src[ni * g.in_len()..(ni + 1) * g.in_len()], &ws, &packed);
                if let Some(b) = bias {
                    for out in outs_n.iter_mut() {
                        for (plane, bv) in out.chunks_exact_mut(g.cols()).zip(b.as_slice()) {
                            plane.iter_mut().for_each(|v| *v += bv);
                        }
                    }
                }
            }
        });
    }
    outs.into_iter().map(|out| Tensor::from_vec(out, &[n, g.oc, g.oh, g.ow])).collect()
}

/// Input gradient summed over branches `(grad_outs[b], weights[b])`.
fn backward_input(
    op: &'static str,
    grad_outs: &[&Tensor],
    weights: &[&Tensor],
    input_shape: &[usize],
    params: Conv2dParams,
) -> Result<Tensor> {
    let (Some((first_w, rest_w)), Some((first_g, rest_g))) = (weights.split_first(), grad_outs.split_first())
    else {
        return Err(TensorError::InvalidArgument { msg: format!("{op} needs at least one branch") });
    };
    if weights.len() != grad_outs.len() {
        return Err(TensorError::InvalidArgument { msg: format!("{op}: one weight per output gradient") });
    }
    let (n, g) = Geom::new(op, input_shape, first_w.shape(), params)?;
    same_shapes(op, first_w, rest_w)?;
    same_shapes(op, first_g, rest_g)?;
    if first_g.shape() != [n, g.oc, g.oh, g.ow] {
        return Err(TensorError::IncompatibleShapes {
            op,
            lhs: first_g.shape().to_vec(),
            rhs: vec![n, g.oc, g.oh, g.ow],
        });
    }
    let (gos, ws, in_len) = (slices(grad_outs), slices(weights), g.in_len());
    let packed = g.pack_weights(&ws, true);
    let mut grad_in = vec![0.0f32; n * in_len];
    if in_len > 0 && g.out_len() > 0 {
        for_each_range(&mut grad_in, in_len, n * weights.len() * g.macs(), |first, range| {
            for (ni, gin) in (first..).zip(range.chunks_exact_mut(in_len)) {
                g.backward_input_sample(gin, &gos, ni, &ws, &packed);
            }
        });
    }
    Tensor::from_vec(grad_in, input_shape)
}

/// Weight gradient of each branch `grad_outs[b]` over one lowering of `input`.
fn backward_weight(
    op: &'static str,
    grad_outs: &[&Tensor],
    input: &Tensor,
    weight_shape: &[usize],
    params: Conv2dParams,
) -> Result<Vec<Tensor>> {
    let Some((first_g, rest_g)) = grad_outs.split_first() else {
        return Err(TensorError::InvalidArgument { msg: format!("{op} needs at least one branch") });
    };
    let (n, g) = Geom::new(op, input.shape(), weight_shape, params)?;
    same_shapes(op, first_g, rest_g)?;
    if first_g.shape() != [n, g.oc, g.oh, g.ow] {
        return Err(TensorError::IncompatibleShapes {
            op,
            lhs: first_g.shape().to_vec(),
            rhs: vec![n, g.oc, g.oh, g.ow],
        });
    }
    let (gos, src, per) = (slices(grad_outs), input.as_slice(), g.weight_len());
    if n == 0 || per == 0 || g.cols() == 0 {
        return grad_outs.iter().map(|_| Tensor::from_vec(vec![0.0f32; per], weight_shape)).collect();
    }

    // One product per call over the stacked branches: per group, the rows
    // of every branch's weight gradient form one `branches·oc/groups`-row
    // operand, so each sample's `colᵀ` is packed once for all of them.
    //
    // The summation order is fixed by shape alone, never by the pool: the
    // samples fall into `WEIGHT_REDUCE_BATCHES` contiguous batches; within a
    // batch, each sample's per-`KC`-panel accumulators (zero-started FMA
    // chains) add into the batch's partial in sample order; the partials
    // fold into the result in batch order. So seeded training is
    // reproducible across machines and pool sizes. The constant sizes no
    // buffer. The fork rule only decides which thread computes what, along
    // one of two splits, whichever keeps the smaller transient:
    //
    // * by output rows: every sample's packed `colᵀ` for the whole call
    //   (`n × column` floats), and per row range one range-sized partial,
    //   folded into the output after each batch;
    // * by sample batches: one partial per batch (`batches × unit` floats),
    //   each sample lowered where it is used and its `colᵀ` packed a panel
    //   at a time by the product, the partials folded after the region. Few
    //   stacked rows against many output positions take this one — the
    //   training CNN's first stages — where a range of one or two `MR`
    //   strips would stream the whole call's packed columns out of cache for
    //   little arithmetic.
    const WEIGHT_REDUCE_BATCHES: usize = 8;
    let batches = WEIGHT_REDUCE_BATCHES.min(n);
    let fold = n.div_ceil(batches);
    let batch = |bi: usize| bi * fold..((bi + 1) * fold).min(n);
    let img = |ni: usize| &src[ni * g.in_len()..(ni + 1) * g.in_len()];
    let (branches, width) = (gos.len(), g.col_rows() / g.groups);
    let (unit, column) = (branches * per, g.groups * packed_b_len(g.cols(), width));
    let by_batch = g.is_depthwise() || batches * unit <= n * column;
    let macs = n * branches * g.macs();
    // The transient before the outputs, as in `forward` (see `pack_weights`).
    let mut transient = vec![0.0f32; if by_batch { batches * unit } else { n * column }];
    let mut outs: Vec<Vec<f32>> = (0..branches).map(|_| vec![0.0f32; per]).collect();
    let mut rows = g.stacked_rows(&mut outs);
    let all = 0..rows.len();
    if by_batch {
        for_each_range(&mut transient, unit, macs, |first, range| {
            for (bi, partial) in (first..).zip(range.chunks_exact_mut(unit)) {
                for ni in batch(bi) {
                    g.accumulate_weight_grad(partial, all.clone(), &gos, ni, img(ni), &[]);
                }
            }
        });
        for (bi, partial) in transient.chunks_exact(unit).enumerate() {
            fold_rows(&mut rows, partial, width, bi == 0);
        }
    } else {
        for_each_range(&mut transient, column, macs, |first, range| {
            for (ni, dst) in (first..).zip(range.chunks_exact_mut(column)) {
                let len = packed_b_len(g.cols(), width);
                g.with_cols(img(ni), |col| {
                    g.for_each_group(|gi, _, _, cg| {
                        pack_bt(&mut dst[gi * len..][..len], &col[cg], g.cols(), width)
                    });
                });
            }
        });
        let packed = &transient[..];
        for_each_range(&mut rows, MR, macs, |strip, range| {
            let ours = strip * MR..strip * MR + range.len();
            with_scratch(&COL_SCRATCH, range.len() * width, |partial| {
                for bi in 0..batches {
                    partial.fill(0.0);
                    for ni in batch(bi) {
                        g.accumulate_weight_grad(partial, ours.clone(), &gos, ni, img(ni), packed);
                    }
                    fold_rows(range, partial, width, bi == 0);
                }
            });
        });
    }
    drop(rows);
    outs.into_iter().map(|gw| Tensor::from_vec(gw, weight_shape)).collect()
}

impl Tensor {
    /// 2-D convolution of an NCHW input with an `[out_c, in_c/groups, kh, kw]`
    /// weight tensor and optional `[out_c]` bias.
    pub fn conv2d(&self, weight: &Tensor, bias: Option<&Tensor>, params: Conv2dParams) -> Result<Tensor> {
        Ok(forward("conv2d", self, &[weight], bias, params)?.swap_remove(0))
    }

    /// [`Tensor::conv2d`] through several same-shape weights at once, lowering
    /// each input sample a single time: `result[b] = conv2d(self, weights[b])`,
    /// bitwise.
    pub fn conv2d_multi(&self, weights: &[&Tensor], params: Conv2dParams) -> Result<Vec<Tensor>> {
        forward("conv2d_multi", self, weights, None, params)
    }

    /// Gradient of a conv2d output with respect to its input.
    ///
    /// `grad_out` has shape `[n, oc, oh, ow]`; the result has `input_shape`.
    pub fn conv2d_backward_input(
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &[usize],
        params: Conv2dParams,
    ) -> Result<Tensor> {
        backward_input("conv2d_backward_input", &[grad_out], &[weight], input_shape, params)
    }

    /// Input gradient of several convolutions of one input, summed:
    /// `Σ_b conv2d_backward_input(grad_outs[b], weights[b])`, accumulated in
    /// column form and scattered back onto the image once.
    pub fn conv2d_backward_input_multi(
        grad_outs: &[&Tensor],
        weights: &[&Tensor],
        input_shape: &[usize],
        params: Conv2dParams,
    ) -> Result<Tensor> {
        backward_input("conv2d_backward_input_multi", grad_outs, weights, input_shape, params)
    }

    /// Gradient of a conv2d output with respect to its weight.
    ///
    /// Returns a tensor with the same shape as `weight`.
    pub fn conv2d_backward_weight(
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &[usize],
        params: Conv2dParams,
    ) -> Result<Tensor> {
        Ok(backward_weight("conv2d_backward_weight", &[grad_out], input, weight_shape, params)?
            .swap_remove(0))
    }

    /// Weight gradients of several convolutions of one input, lowering each
    /// sample a single time: `result[b] = conv2d_backward_weight(grad_outs[b],
    /// input)`, bitwise.
    pub fn conv2d_backward_weight_multi(
        grad_outs: &[&Tensor],
        input: &Tensor,
        weight_shape: &[usize],
        params: Conv2dParams,
    ) -> Result<Vec<Tensor>> {
        backward_weight("conv2d_backward_weight_multi", grad_outs, input, weight_shape, params)
    }

    /// Gradient of a conv2d output with respect to its bias: sum over batch and
    /// spatial locations, shape `[oc]`.
    pub fn conv2d_backward_bias(grad_out: &Tensor) -> Result<Tensor> {
        if grad_out.ndim() != 4 {
            return Err(TensorError::RankMismatch {
                op: "conv2d_backward_bias",
                expected: 4,
                actual: grad_out.ndim(),
            });
        }
        let (n, oc, oh, ow) =
            (grad_out.shape()[0], grad_out.shape()[1], grad_out.shape()[2], grad_out.shape()[3]);
        let src = grad_out.as_slice();
        let mut out = vec![0.0f32; oc];
        for ni in 0..n {
            for (oci, acc) in out.iter_mut().enumerate() {
                let base = (ni * oc + oci) * oh * ow;
                *acc += src[base..base + oh * ow].iter().sum::<f32>();
            }
        }
        Tensor::from_vec(out, &[oc])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_blocked, gemm_tn, KC};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Visit every multiply-add of a convolution as `(output index, input
    /// index, weight index)` — the definition the three references share.
    fn for_each_mac(
        input_shape: &[usize],
        weight_shape: &[usize],
        p: Conv2dParams,
        mut f: impl FnMut([usize; 4], [usize; 4], [usize; 4]),
    ) {
        let (n, c, h, w) = (input_shape[0], input_shape[1], input_shape[2], input_shape[3]);
        let (oc, kh, kw) = (weight_shape[0], weight_shape[2], weight_shape[3]);
        let (oh, ow) = (p.out_size(h, kh), p.out_size(w, kw));
        let (cg, ocg) = (c / p.groups, oc / p.groups);
        for ni in 0..n {
            for oci in 0..oc {
                for ohi in 0..oh {
                    for owi in 0..ow {
                        for ci in 0..cg {
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let ih = (ohi * p.stride + ki) as isize - p.padding as isize;
                                    let iw = (owi * p.stride + kj) as isize - p.padding as isize;
                                    if ih < 0 || iw < 0 || ih >= h as isize || iw >= w as isize {
                                        continue;
                                    }
                                    let cin = oci / ocg * cg + ci;
                                    f(
                                        [ni, oci, ohi, owi],
                                        [ni, cin, ih as usize, iw as usize],
                                        [oci, ci, ki, kj],
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Direct (nested-loop) convolution used as a reference implementation.
    fn naive_conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, p: Conv2dParams) -> Tensor {
        let (oc, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
        let (n, h, w) = (input.shape()[0], input.shape()[2], input.shape()[3]);
        let mut out = Tensor::zeros(&[n, oc, p.out_size(h, kh), p.out_size(w, kw)]);
        if let Some(b) = bias {
            let plane = out.shape()[2] * out.shape()[3];
            for (i, v) in out.as_mut_slice().iter_mut().enumerate() {
                *v = b.as_slice()[i / plane.max(1) % oc];
            }
        }
        for_each_mac(input.shape(), weight.shape(), p, |o, i, k| {
            out.set(&o, out.at(&o) + input.at(&i) * weight.at(&k));
        });
        out
    }

    /// Direct input gradient: the adjoint of [`naive_conv2d`] in its input.
    fn naive_backward_input(
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &[usize],
        p: Conv2dParams,
    ) -> Tensor {
        let mut grad_in = Tensor::zeros(input_shape);
        for_each_mac(input_shape, weight.shape(), p, |o, i, k| {
            grad_in.set(&i, grad_in.at(&i) + grad_out.at(&o) * weight.at(&k));
        });
        grad_in
    }

    /// Direct weight gradient: the adjoint of [`naive_conv2d`] in its weight.
    fn naive_backward_weight(
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &[usize],
        p: Conv2dParams,
    ) -> Tensor {
        let mut grad_w = Tensor::zeros(weight_shape);
        for_each_mac(input.shape(), weight_shape, p, |o, i, k| {
            grad_w.set(&k, grad_w.at(&k) + grad_out.at(&o) * input.at(&i));
        });
        grad_w
    }

    /// The per-element `im2col` this crate shipped before the row-copy
    /// lowering; the public function must still equal it bit for bit.
    fn reference_im2col(input: &Tensor, kh: usize, kw: usize, p: Conv2dParams) -> Tensor {
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let (oh, ow) = (p.out_size(h, kh), p.out_size(w, kw));
        let mut cols = Tensor::zeros(&[n, c * kh * kw, oh * ow]);
        // One ungrouped output channel visits every (channel, tap) once per position.
        let ungrouped = Conv2dParams::new(p.stride, p.padding, 1);
        for_each_mac(input.shape(), &[1, c, kh, kw], ungrouped, |o, i, k| {
            cols.set(&[o[0], (i[1] * kh + k[2]) * kw + k[3], o[2] * ow + o[3]], input.at(&i));
        });
        cols
    }

    /// The per-element `col2im` this crate shipped before, accumulating in
    /// `(c, ki, kj, oh, ow)` order per sample.
    fn reference_col2im(cols: &Tensor, out_shape: &[usize], kh: usize, kw: usize, p: Conv2dParams) -> Tensor {
        let (n, c, h, w) = (out_shape[0], out_shape[1], out_shape[2], out_shape[3]);
        let (oh, ow) = (p.out_size(h, kh), p.out_size(w, kw));
        let mut img = Tensor::zeros(out_shape);
        for ni in 0..n {
            for ci in 0..c {
                for ki in 0..kh {
                    for kj in 0..kw {
                        for ohi in 0..oh {
                            for owi in 0..ow {
                                let ih = (ohi * p.stride + ki) as isize - p.padding as isize;
                                let iw = (owi * p.stride + kj) as isize - p.padding as isize;
                                if ih < 0 || iw < 0 || ih >= h as isize || iw >= w as isize {
                                    continue;
                                }
                                let at = [ni, ci, ih as usize, iw as usize];
                                let v = cols.at(&[ni, (ci * kh + ki) * kw + kj, ohi * ow + owi]);
                                img.set(&at, img.at(&at) + v);
                            }
                        }
                    }
                }
            }
        }
        img
    }

    /// One sample of an NCHW batch, as a batch of one.
    fn sample(batch: &Tensor, i: usize) -> Tensor {
        let len = batch.numel() / batch.shape()[0];
        let mut shape = batch.shape().to_vec();
        shape[0] = 1;
        Tensor::from_vec(batch.as_slice()[i * len..(i + 1) * len].to_vec(), &shape).unwrap()
    }

    /// Pin every direction of one geometry: against the direct references,
    /// the multi-weight entry points against the single-weight ones, batched
    /// rows against batch-1 calls (bitwise), and `im2col` / `col2im` against
    /// the per-element versions they replaced (bitwise).
    fn check_geometry(
        n: usize,
        c: usize,
        hw: (usize, usize),
        oc: usize,
        k: usize,
        p: Conv2dParams,
        seed: u64,
    ) {
        let what = format!("n{n} c{c} {hw:?} oc{oc} k{k} {p:?}");
        let mut r = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[n, c, hw.0, hw.1], 0.0, 1.0, &mut r);
        let wshape = [oc, c / p.groups, k, k];
        let (wa, wb) = (Tensor::randn(&wshape, 0.0, 0.5, &mut r), Tensor::randn(&wshape, 0.0, 0.5, &mut r));
        let bias = Tensor::randn(&[oc], 0.0, 0.5, &mut r);
        let tol = 1e-5 * (wa.numel() / oc.max(1) + hw.0 * hw.1) as f32;

        // Forward, both input-gradient and both weight-gradient entry points.
        let ya = x.conv2d(&wa, Some(&bias), p).unwrap();
        assert!(ya.allclose(&naive_conv2d(&x, &wa, Some(&bias), p), tol), "forward {what}");
        let (ga, gb) =
            (Tensor::randn(ya.shape(), 0.0, 1.0, &mut r), Tensor::randn(ya.shape(), 0.0, 1.0, &mut r));
        let gin = Tensor::conv2d_backward_input(&ga, &wa, x.shape(), p).unwrap();
        assert!(gin.allclose(&naive_backward_input(&ga, &wa, x.shape(), p), tol), "backward input {what}");
        let gw = Tensor::conv2d_backward_weight(&ga, &x, &wshape, p).unwrap();
        let gw_tol = tol * (n * ya.shape()[2] * ya.shape()[3]).max(1) as f32;
        assert!(gw.allclose(&naive_backward_weight(&ga, &x, &wshape, p), gw_tol), "backward weight {what}");

        // Shared lowering: per-branch results are the single-weight results.
        let plain = [x.conv2d(&wa, None, p).unwrap(), x.conv2d(&wb, None, p).unwrap()];
        let multi = x.conv2d_multi(&[&wa, &wb], p).unwrap();
        assert!(multi.iter().zip(&plain).all(|(m, s)| m.as_slice() == s.as_slice()), "multi forward {what}");
        let gws = Tensor::conv2d_backward_weight_multi(&[&ga, &gb], &x, &wshape, p).unwrap();
        assert_eq!(gws[0].as_slice(), gw.as_slice(), "multi weight grad a {what}");
        let gwb = Tensor::conv2d_backward_weight(&gb, &x, &wshape, p).unwrap();
        assert_eq!(gws[1].as_slice(), gwb.as_slice(), "multi weight grad b {what}");
        let gin_multi = Tensor::conv2d_backward_input_multi(&[&ga, &gb], &[&wa, &wb], x.shape(), p).unwrap();
        let gin_sum = gin.add(&Tensor::conv2d_backward_input(&gb, &wb, x.shape(), p).unwrap()).unwrap();
        assert!(gin_multi.allclose(&gin_sum, 2.0 * tol), "multi input grad {what}");

        // A sample's results do not depend on what else is in the batch.
        for i in 0..n {
            let xi = sample(&x, i);
            let yi = xi.conv2d(&wa, Some(&bias), p).unwrap();
            assert_eq!(sample(&ya, i).as_slice(), yi.as_slice(), "forward row {i} of {what}");
            let gi = Tensor::conv2d_backward_input(&sample(&ga, i), &wa, xi.shape(), p).unwrap();
            assert_eq!(sample(&gin, i).as_slice(), gi.as_slice(), "input-grad row {i} of {what}");
        }

        // The public lowering and its adjoint, bit for bit.
        let cols = im2col(&x, k, k, p).unwrap();
        assert_eq!(cols.as_slice(), reference_im2col(&x, k, k, p).as_slice(), "im2col {what}");
        let y = Tensor::randn(cols.shape(), 0.0, 1.0, &mut r);
        let back = col2im(&y, x.shape(), k, k, p).unwrap();
        assert_eq!(back.as_slice(), reference_col2im(&y, x.shape(), k, k, p).as_slice(), "col2im {what}");
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn assert_bitwise(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn im2col_known_values() {
        // 1x1x3x3 input, 2x2 kernel, stride 1, no padding.
        let input = Tensor::arange(0.0, 1.0, 9).reshape(&[1, 1, 3, 3]).unwrap();
        let cols = im2col(&input, 2, 2, Conv2dParams::default()).unwrap();
        assert_eq!(cols.shape(), &[1, 4, 4]);
        // First column is the top-left 2x2 patch [0,1,3,4].
        assert_eq!(cols.at(&[0, 0, 0]), 0.0);
        assert_eq!(cols.at(&[0, 1, 0]), 1.0);
        assert_eq!(cols.at(&[0, 2, 0]), 3.0);
        assert_eq!(cols.at(&[0, 3, 0]), 4.0);
        // Last column is the bottom-right patch [4,5,7,8].
        assert_eq!(cols.at(&[0, 0, 3]), 4.0);
        assert_eq!(cols.at(&[0, 3, 3]), 8.0);
    }

    #[test]
    fn conv2d_matches_naive_basic() {
        let mut r = rng();
        let input = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        let weight = Tensor::randn(&[4, 3, 3, 3], 0.0, 0.5, &mut r);
        let bias = Tensor::randn(&[4], 0.0, 0.5, &mut r);
        let p = Conv2dParams::new(1, 1, 1);
        let fast = input.conv2d(&weight, Some(&bias), p).unwrap();
        let slow = naive_conv2d(&input, &weight, Some(&bias), p);
        assert_eq!(fast.shape(), &[2, 4, 8, 8]);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn conv2d_matches_naive_stride_and_padding() {
        let mut r = rng();
        let input = Tensor::randn(&[1, 2, 9, 7], 0.0, 1.0, &mut r);
        let weight = Tensor::randn(&[3, 2, 3, 3], 0.0, 0.5, &mut r);
        let p = Conv2dParams::new(2, 1, 1);
        let fast = input.conv2d(&weight, None, p).unwrap();
        let slow = naive_conv2d(&input, &weight, None, p);
        assert_eq!(fast.shape(), slow.shape());
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn depthwise_conv_matches_naive() {
        let mut r = rng();
        let input = Tensor::randn(&[2, 4, 6, 6], 0.0, 1.0, &mut r);
        let weight = Tensor::randn(&[4, 1, 3, 3], 0.0, 0.5, &mut r);
        let p = Conv2dParams::new(1, 1, 4);
        let fast = input.conv2d(&weight, None, p).unwrap();
        let slow = naive_conv2d(&input, &weight, None, p);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn grouped_conv_multiple_out_per_group() {
        let mut r = rng();
        let input = Tensor::randn(&[1, 4, 5, 5], 0.0, 1.0, &mut r);
        let weight = Tensor::randn(&[6, 2, 3, 3], 0.0, 0.5, &mut r);
        let p = Conv2dParams::new(1, 0, 2);
        let fast = input.conv2d(&weight, None, p).unwrap();
        let slow = naive_conv2d(&input, &weight, None, p);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn conv_1x1_equals_channel_matmul() {
        let mut r = rng();
        let input = Tensor::randn(&[1, 3, 4, 4], 0.0, 1.0, &mut r);
        let weight = Tensor::randn(&[5, 3, 1, 1], 0.0, 1.0, &mut r);
        let out = input.conv2d(&weight, None, Conv2dParams::default()).unwrap();
        assert_eq!(out.shape(), &[1, 5, 4, 4]);
        // pixel (2,3): out[., oc] = W[oc, :] . input[., :, 2, 3]
        let px: Vec<f32> = (0..3).map(|c| input.at(&[0, c, 2, 3])).collect();
        for oc in 0..5 {
            let wrow: Vec<f32> = (0..3).map(|c| weight.at(&[oc, c, 0, 0])).collect();
            let expect: f32 = px.iter().zip(&wrow).map(|(a, b)| a * b).sum();
            assert!((out.at(&[0, oc, 2, 3]) - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn conv_config_errors() {
        let input = Tensor::zeros(&[1, 3, 4, 4]);
        let weight = Tensor::zeros(&[2, 3, 3, 3]);
        assert!(input.conv2d(&weight, None, Conv2dParams::new(0, 0, 1)).is_err());
        assert!(input.conv2d(&weight, None, Conv2dParams::new(1, 0, 2)).is_err());
        assert!(input.conv2d(&weight, None, Conv2dParams::new(1, 0, 0)).is_err());
        assert!(input.conv2d(&Tensor::zeros(&[2, 3, 9, 9]), None, Conv2dParams::default()).is_err());
        assert!(input.conv2d(&Tensor::zeros(&[2, 2, 3, 3]), None, Conv2dParams::default()).is_err());
        assert!(input.conv2d(&weight, Some(&Tensor::zeros(&[3])), Conv2dParams::new(1, 1, 1)).is_err());
        assert!(Tensor::zeros(&[3, 4, 4]).conv2d(&weight, None, Conv2dParams::default()).is_err());
        assert!(input.conv2d(&Tensor::zeros(&[2, 3, 3]), None, Conv2dParams::default()).is_err());
    }

    #[test]
    fn backward_input_matches_finite_difference() {
        let mut r = rng();
        let input = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, &mut r);
        let weight = Tensor::randn(&[3, 2, 3, 3], 0.0, 0.5, &mut r);
        let p = Conv2dParams::new(1, 1, 1);
        let out = input.conv2d(&weight, None, p).unwrap();
        // loss = sum(out); d loss / d out = ones
        let grad_out = Tensor::ones_like(&out);
        let grad_in = Tensor::conv2d_backward_input(&grad_out, &weight, input.shape(), p).unwrap();
        assert_eq!(grad_in.shape(), input.shape());
        let eps = 1e-2;
        for &flat in &[0usize, 7, 24, 33, 49] {
            let mut plus = input.clone();
            plus.as_mut_slice()[flat] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[flat] -= eps;
            let fd = (plus.conv2d(&weight, None, p).unwrap().sum()
                - minus.conv2d(&weight, None, p).unwrap().sum())
                / (2.0 * eps);
            assert!(
                (grad_in.as_slice()[flat] - fd).abs() < 1e-2,
                "analytic {} vs fd {}",
                grad_in.as_slice()[flat],
                fd
            );
        }
    }

    #[test]
    fn backward_weight_matches_finite_difference() {
        let mut r = rng();
        let input = Tensor::randn(&[2, 2, 4, 4], 0.0, 1.0, &mut r);
        let weight = Tensor::randn(&[2, 2, 3, 3], 0.0, 0.5, &mut r);
        let p = Conv2dParams::new(1, 1, 1);
        let out = input.conv2d(&weight, None, p).unwrap();
        let grad_out = Tensor::ones_like(&out);
        let grad_w = Tensor::conv2d_backward_weight(&grad_out, &input, weight.shape(), p).unwrap();
        assert_eq!(grad_w.shape(), weight.shape());
        let eps = 1e-2;
        for &flat in &[0usize, 5, 17, 35] {
            let mut plus = weight.clone();
            plus.as_mut_slice()[flat] += eps;
            let mut minus = weight.clone();
            minus.as_mut_slice()[flat] -= eps;
            let fd = (input.conv2d(&plus, None, p).unwrap().sum()
                - input.conv2d(&minus, None, p).unwrap().sum())
                / (2.0 * eps);
            assert!(
                (grad_w.as_slice()[flat] - fd).abs() < 2e-2,
                "analytic {} vs fd {}",
                grad_w.as_slice()[flat],
                fd
            );
        }
    }

    #[test]
    fn backward_bias_sums_spatial_and_batch() {
        let grad_out = Tensor::ones(&[3, 2, 4, 4]);
        let gb = Tensor::conv2d_backward_bias(&grad_out).unwrap();
        assert_eq!(gb.shape(), &[2]);
        assert_eq!(gb.as_slice(), &[48.0, 48.0]);
        assert!(Tensor::conv2d_backward_bias(&Tensor::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn backward_depthwise_gradients_finite_difference() {
        let mut r = rng();
        let input = Tensor::randn(&[1, 3, 4, 4], 0.0, 1.0, &mut r);
        let weight = Tensor::randn(&[3, 1, 3, 3], 0.0, 0.5, &mut r);
        let p = Conv2dParams::new(1, 1, 3);
        let out = input.conv2d(&weight, None, p).unwrap();
        let grad_out = Tensor::ones_like(&out);
        let grad_w = Tensor::conv2d_backward_weight(&grad_out, &input, weight.shape(), p).unwrap();
        let grad_in = Tensor::conv2d_backward_input(&grad_out, &weight, input.shape(), p).unwrap();
        let eps = 1e-2;
        let flat = 10usize;
        let mut plus = weight.clone();
        plus.as_mut_slice()[flat] += eps;
        let mut minus = weight.clone();
        minus.as_mut_slice()[flat] -= eps;
        let fd = (input.conv2d(&plus, None, p).unwrap().sum() - input.conv2d(&minus, None, p).unwrap().sum())
            / (2.0 * eps);
        assert!((grad_w.as_slice()[flat] - fd).abs() < 2e-2);
        let mut iplus = input.clone();
        iplus.as_mut_slice()[flat] += eps;
        let mut iminus = input.clone();
        iminus.as_mut_slice()[flat] -= eps;
        let fd = (iplus.conv2d(&weight, None, p).unwrap().sum()
            - iminus.conv2d(&weight, None, p).unwrap().sum())
            / (2.0 * eps);
        assert!((grad_in.as_slice()[flat] - fd).abs() < 1e-2);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y (adjoint test).
        let mut r = rng();
        let x = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, &mut r);
        let p = Conv2dParams::new(2, 1, 1);
        let cols = im2col(&x, 3, 3, p).unwrap();
        let y = Tensor::randn(cols.shape(), 0.0, 1.0, &mut r);
        let lhs: f32 = cols.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, x.shape(), 3, 3, p).unwrap();
        let rhs: f32 = x.as_slice().iter().zip(back.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{} vs {}", lhs, rhs);
    }

    #[test]
    fn col2im_shape_errors() {
        let cols = Tensor::zeros(&[1, 8, 4]);
        assert!(col2im(&cols, &[1, 2, 3, 3], 2, 2, Conv2dParams::default()).is_ok());
        assert!(col2im(&cols, &[1, 2, 3], 2, 2, Conv2dParams::default()).is_err());
        assert!(col2im(&Tensor::zeros(&[8, 4]), &[1, 2, 3, 3], 2, 2, Conv2dParams::default()).is_err());
        assert!(col2im(&cols, &[1, 3, 3, 3], 2, 2, Conv2dParams::default()).is_err());
    }

    #[test]
    fn out_size_formula() {
        let p = Conv2dParams::new(2, 1, 1);
        assert_eq!(p.out_size(32, 3), 16);
        let p = Conv2dParams::new(1, 1, 1);
        assert_eq!(p.out_size(32, 3), 32);
        let p = Conv2dParams::new(1, 0, 1);
        assert_eq!(p.out_size(32, 3), 30);
    }

    #[test]
    fn zero_channel_tensors_do_not_panic() {
        // Regression: zero output/input channels pass shape validation but
        // used to hit par_chunks_mut(0), which asserts.
        let p = Conv2dParams::new(1, 1, 1);
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        let w0 = Tensor::zeros(&[0, 2, 3, 3]);
        let out = x.conv2d(&w0, None, p).unwrap();
        assert_eq!(out.shape(), &[1, 0, 4, 4]);

        let xe = Tensor::zeros(&[1, 0, 4, 4]);
        let we = Tensor::zeros(&[0, 0, 3, 3]);
        let oute = xe.conv2d(&we, None, p).unwrap();
        assert_eq!(oute.shape(), &[1, 0, 4, 4]);

        let go = Tensor::zeros(&[1, 0, 4, 4]);
        let gi = Tensor::conv2d_backward_input(&go, &we, &[1, 0, 4, 4], p).unwrap();
        assert_eq!(gi.shape(), &[1, 0, 4, 4]);
        let gw = Tensor::conv2d_backward_weight(&go, &xe, &[0, 0, 3, 3], p).unwrap();
        assert_eq!(gw.shape(), &[0, 0, 3, 3]);
    }

    #[test]
    fn out_size_is_zero_when_kernel_exceeds_padded_input() {
        // Regression: `saturating_sub` used to collapse to 0 and the `+ 1`
        // then reported one phantom output pixel for impossible configs.
        let p = Conv2dParams::new(1, 0, 1);
        assert_eq!(p.out_size(2, 5), 0);
        assert_eq!(p.out_size(0, 1), 0);
        let p = Conv2dParams::new(2, 1, 1);
        assert_eq!(p.out_size(2, 5), 0); // padded 4 < kernel 5
        assert_eq!(p.out_size(3, 5), 1); // padded 5 == kernel 5
                                         // Exact fit still yields one output position.
        let p = Conv2dParams::new(3, 0, 1);
        assert_eq!(p.out_size(4, 4), 1);
    }

    #[test]
    fn every_path_matches_the_references() {
        // (n, c, (h, w), oc, k, stride, pad, groups): each path at least once
        // with H ≠ W, plus the shapes where ranges of valid taps degenerate.
        for (i, &(n, c, hw, oc, k, stride, pad, groups)) in [
            (3, 4, (7, 5), 6, 3, 1, 1, 1), // generic
            (2, 4, (9, 6), 4, 3, 2, 1, 2), // generic, strided, grouped
            (2, 3, (5, 8), 5, 1, 1, 0, 1), // point-wise: no lowering
            (3, 4, (6, 4), 6, 1, 1, 0, 2), // point-wise, grouped
            (2, 2, (7, 5), 3, 1, 2, 0, 1), // 1×1 but strided: generic
            (2, 5, (8, 6), 5, 3, 1, 1, 5), // depth-wise stencil
            (3, 4, (9, 7), 4, 3, 2, 1, 4), // depth-wise, strided
            (2, 3, (6, 9), 3, 5, 3, 2, 3), // depth-wise, wide kernel and stride
            (1, 2, (3, 3), 2, 5, 1, 2, 1), // kernel wider than the image
            (2, 1, (4, 6), 1, 2, 1, 0, 1), // one channel: also a stencil
        ]
        .iter()
        .enumerate()
        {
            check_geometry(n, c, hw, oc, k, Conv2dParams::new(stride, pad, groups), 100 + i as u64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random geometry through [`check_geometry`]: kernel 1–5, stride
        /// 1–3, padding 0–2, H ≠ W, groups ∈ {1, 2, C}, batch 1–9.
        #[test]
        fn random_geometry_matches_the_references(
            (k, stride, pad) in (1usize..6, 1usize..4, 0usize..3),
            (h, w) in (2usize..9, 2usize..9),
            (n, per_group, out_per_group) in (1usize..10, 1usize..4, 1usize..4),
            group_kind in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let (c, oc, groups) = match group_kind {
                0 => (per_group, out_per_group, 1),
                1 => (2 * per_group, 2 * out_per_group, 2),
                _ => (per_group + 1, per_group + 1, per_group + 1),
            };
            check_geometry(n, c, (h, w), oc, k, Conv2dParams::new(stride, pad, groups), seed);
        }
    }

    /// Per-sample reference built from public calls: `(forward of every
    /// branch, summed input gradient)` with each weight's products run
    /// sample by sample — `im2col` + `gemm_blocked` forward; one zeroed
    /// column gradient, each branch's `gemm_tn` added in branch order (with
    /// `oc/groups ≤ KC`, one `k`-panel: the accumulating product's sum),
    /// `col2im`.
    fn per_sample_reference(
        x: &Tensor,
        ws: &[Tensor],
        gs: &[Tensor],
        k: usize,
        p: Conv2dParams,
    ) -> (Vec<Vec<f32>>, Vec<f32>) {
        let (n, c, oc) = (x.shape()[0], x.shape()[1], ws[0].shape()[0]);
        let (oh, ow) = (p.out_size(x.shape()[2], k), p.out_size(x.shape()[3], k));
        let (rows, cols) = (c * k * k / p.groups, oh * ow);
        let (m, w_g, out_len) = (oc / p.groups, ws[0].numel() / p.groups, oc * cols);
        let mut outs = vec![Vec::new(); ws.len()];
        let mut grad_in = Vec::new();
        for i in 0..n {
            let xi = sample(x, i);
            let col = im2col(&xi, k, k, p).unwrap();
            for (out, w) in outs.iter_mut().zip(ws) {
                for gi in 0..p.groups {
                    let wg = &w.as_slice()[gi * w_g..(gi + 1) * w_g];
                    out.extend(gemm_blocked(wg, &col.as_slice()[gi * rows * cols..], m, rows, cols));
                }
            }
            let mut grad_col = vec![0.0f32; col.numel()];
            for (g, w) in gs.iter().zip(ws) {
                for gi in 0..p.groups {
                    let wg = &w.as_slice()[gi * w_g..(gi + 1) * w_g];
                    let go = &g.as_slice()[i * out_len + gi * m * cols..];
                    let product = gemm_tn(wg, go, rows, m, cols);
                    for (acc, v) in grad_col[gi * rows * cols..].iter_mut().zip(product) {
                        *acc += v;
                    }
                }
            }
            let grad_col = Tensor::from_vec(grad_col, col.shape()).unwrap();
            grad_in.extend_from_slice(col2im(&grad_col, xi.shape(), k, k, p).unwrap().as_slice());
        }
        (outs, grad_in)
    }

    #[test]
    fn packed_weights_are_bitwise_the_per_sample_products() {
        // Each call packs its weights once and shares them across samples
        // and forked ranges; every sample must still see exactly the
        // products it would get on its own. (c, (h, w), oc, k, stride, pad,
        // groups, branches); the first clears the fork constant at batch 5.
        for (i, &(c, hw, oc, k, stride, pad, groups, branches)) in [
            (16, (16, 16), 32, 3, 1, 1, 1, 3), // 3 branches, forks on 4 threads
            (4, (9, 7), 6, 3, 2, 1, 2, 3),     // grouped, strided
            (6, (5, 8), 8, 1, 1, 0, 1, 3),     // point-wise: no lowering
            (4, (6, 4), 6, 1, 1, 0, 2, 2),     // point-wise, grouped
            (3, (7, 5), 4, 3, 2, 0, 1, 1),     // one branch, strided, unpadded
        ]
        .iter()
        .enumerate()
        {
            let p = Conv2dParams::new(stride, pad, groups);
            let mut r = StdRng::seed_from_u64(300 + i as u64);
            let x = Tensor::randn(&[5, c, hw.0, hw.1], 0.0, 1.0, &mut r);
            let ws: Vec<Tensor> =
                (0..branches).map(|_| Tensor::randn(&[oc, c / groups, k, k], 0.0, 0.3, &mut r)).collect();
            let (oh, ow) = (p.out_size(hw.0, k), p.out_size(hw.1, k));
            let gs: Vec<Tensor> =
                (0..branches).map(|_| Tensor::randn(&[5, oc, oh, ow], 0.0, 1.0, &mut r)).collect();
            let (want_outs, want_grad) = per_sample_reference(&x, &ws, &gs, k, p);
            let (wrefs, grefs): (Vec<&Tensor>, Vec<&Tensor>) = (ws.iter().collect(), gs.iter().collect());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for threads in [1, 4] {
                let (outs, grad) = rayon::ThreadPool::new(threads).install(|| {
                    let outs = x.conv2d_multi(&wrefs, p).unwrap();
                    (outs, Tensor::conv2d_backward_input_multi(&grefs, &wrefs, x.shape(), p).unwrap())
                });
                for (b, (got, want)) in outs.iter().zip(&want_outs).enumerate() {
                    let what = format!("geometry {i} branch {b} forward, {threads} threads");
                    assert_eq!(bits(got.as_slice()), bits(want), "{what}");
                }
                let what = format!("geometry {i} input grad, {threads} threads");
                assert_eq!(bits(grad.as_slice()), bits(&want_grad), "{what}");
            }
        }
    }

    /// The weight gradient's summation order, written as scalars: the
    /// samples fall into `min(8, n)` contiguous batches; per sample and per
    /// `KC` panel of output positions, each weight element starts a zero
    /// accumulator, takes one fused multiply-add per position in order, and
    /// is then added into its batch's partial; the partials fold in batch
    /// order. One gradient per output-gradient tensor of `gs`.
    fn weight_grad_reference(x: &Tensor, gs: &[Tensor], k: usize, p: Conv2dParams) -> Vec<Vec<f32>> {
        let col = im2col(x, k, k, p).unwrap();
        let (n, rows, positions) = (col.shape()[0], col.shape()[1], col.shape()[2]);
        let (col, oc) = (col.as_slice(), gs[0].shape()[1]);
        let (width, oc_g) = (rows / p.groups, oc / p.groups);
        let (batches, fold) = (8.min(n), n.div_ceil(8.min(n)));
        let grad = |go: &[f32]| {
            let mut partials = vec![vec![0.0f32; oc * width]; batches];
            for (bi, partial) in partials.iter_mut().enumerate() {
                for ni in bi * fold..((bi + 1) * fold).min(n) {
                    for (o, j) in (0..oc).flat_map(|o| (0..width).map(move |j| (o, j))) {
                        let a = &go[(ni * oc + o) * positions..][..positions];
                        let b = &col[(ni * rows + o / oc_g * width + j) * positions..][..positions];
                        for pc in (0..positions).step_by(KC) {
                            let mut acc = 0.0f32;
                            for q in pc..positions.min(pc + KC) {
                                acc = a[q].mul_add(b[q], acc);
                            }
                            partial[o * width + j] += acc;
                        }
                    }
                }
            }
            let (first, rest) = partials.split_first_mut().unwrap();
            for partial in rest {
                first.iter_mut().zip(partial.iter()).for_each(|(a, v)| *a += v);
            }
            partials.swap_remove(0)
        };
        gs.iter().map(|g| grad(g.as_slice())).collect()
    }

    #[test]
    fn weight_grad_is_bitwise_the_fixed_summation_order() {
        // Every branch count, batch size and pool size must give exactly the
        // scalar order above: a change of partition, fold order or FMA chain
        // breaks it even where pools agree with each other. (c, (h, w), oc,
        // k, stride, pad, groups); which operand is split how follows from
        // the shape, so both splits and both fork decisions are covered.
        for (i, &(c, hw, oc, k, stride, pad, groups)) in [
            (16, (16, 16), 32, 3, 1, 1, 1), // training stage 2: split by batches, forks
            (64, (4, 4), 128, 3, 1, 1, 1),  // training stage 4: split by rows, forks
            (32, (6, 6), 88, 3, 1, 1, 2),   // grouped, by rows: strips cross groups
            (8, (9, 7), 12, 3, 1, 1, 2),    // grouped, by batches
            (12, (8, 8), 20, 1, 1, 0, 1),   // 1×1: the image is its column form
            (8, (2, 2), 64, 1, 1, 0, 1),    // 1×1, by rows
            (6, (11, 9), 10, 3, 2, 1, 1),   // stride 2
        ]
        .iter()
        .enumerate()
        {
            let p = Conv2dParams::new(stride, pad, groups);
            let wshape = [oc, c / groups, k, k];
            for n in [1, 5, 16, 17] {
                let mut r = StdRng::seed_from_u64(500 + 10 * i as u64 + n as u64);
                let x = Tensor::randn(&[n, c, hw.0, hw.1], 0.0, 1.0, &mut r);
                let (oh, ow) = (p.out_size(hw.0, k), p.out_size(hw.1, k));
                let gs: Vec<Tensor> =
                    (0..3).map(|_| Tensor::randn(&[n, oc, oh, ow], 0.0, 1.0, &mut r)).collect();
                let want = weight_grad_reference(&x, &gs, k, p);
                for threads in [1, 2, 4] {
                    rayon::ThreadPool::new(threads).install(|| {
                        for branches in 1..=3 {
                            let refs: Vec<&Tensor> = gs[..branches].iter().collect();
                            let got = Tensor::conv2d_backward_weight_multi(&refs, &x, &wshape, p).unwrap();
                            for (b, (got, want)) in got.iter().zip(&want).enumerate() {
                                let what =
                                    format!("geometry {i} n {n} branch {b}/{branches}, {threads} threads");
                                assert_bitwise(got.as_slice(), want, &what);
                            }
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn forked_regions_are_bitwise_the_inline_ones() {
        // 8 × 32·144·256 multiply-adds: far over the fork constant, so pools
        // of 2 and 4 really cut the batch into ranges — and must reproduce
        // the one-thread (inline) result and the batch-1 rows bit for bit.
        let mut r = rng();
        let p = Conv2dParams::new(1, 1, 1);
        let x = Tensor::randn(&[8, 16, 16, 16], 0.0, 1.0, &mut r);
        let (wa, wb) = (
            Tensor::randn(&[32, 16, 3, 3], 0.0, 0.2, &mut r),
            Tensor::randn(&[32, 16, 3, 3], 0.0, 0.2, &mut r),
        );
        let g = Tensor::randn(&[8, 32, 16, 16], 0.0, 1.0, &mut r);
        let all = |threads: usize| {
            rayon::ThreadPool::new(threads).install(|| {
                let mut out = x.conv2d_multi(&[&wa, &wb], p).unwrap();
                out.push(Tensor::conv2d_backward_input_multi(&[&g, &g], &[&wa, &wb], x.shape(), p).unwrap());
                out.extend(Tensor::conv2d_backward_weight_multi(&[&g, &g], &x, wa.shape(), p).unwrap());
                out
            })
        };
        let inline = all(1);
        for threads in [2, 4] {
            for (forked, inline) in all(threads).iter().zip(&inline) {
                assert_eq!(forked.as_slice(), inline.as_slice(), "{threads} threads");
            }
        }
        for i in 0..8 {
            let row = sample(&x, i).conv2d(&wa, None, p).unwrap();
            assert_eq!(sample(&inline[0], i).as_slice(), row.as_slice(), "row {i}");
        }
    }
}
