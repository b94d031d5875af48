//! Blocked, register-tiled GEMM kernels — the workhorse under `matmul`,
//! `bmm` and the im2col convolution paths.
//!
//! The design follows the classic BLIS/GotoBLAS decomposition, scaled down to
//! what auto-vectorisation can exploit without intrinsics:
//!
//! * the `k` dimension is split into panels of at most `KC` so one packed
//!   panel of `B` stays cache-resident while it is swept,
//! * rows of `C` are processed in blocks of `MC`; each block packs its slice
//!   of `A` into `[kc][MR]` micro-panels (column-major within the panel),
//! * `B` panels are packed into `[kc][NR]` micro-panels, zero-padded at the
//!   edges so the micro-kernel never branches on tile size,
//! * an `MR×NR` micro-kernel keeps a `[[f32; NR]; MR]` accumulator block in
//!   registers: per `k` step it loads one `NR`-wide row of `B`, broadcasts
//!   `MR` values of `A`, and issues `MR` fused multiply-add rows that the
//!   compiler vectorises.
//!
//! Transposed operands are handled by the packing step (the micro-panels are
//! read with swapped strides), so `gemm_nt` / `gemm_tn` never materialise a
//! transposed copy — this is what makes the conv backward passes
//! transpose-free.
//!
//! Unlike the previous naive kernel there is no `a == 0.0` skip: IEEE-754
//! requires `0.0 * inf` and `0.0 * NaN` to produce NaN, so zero inputs must
//! still participate (and with blocking the branch was a pessimisation
//! anyway).

use crate::fork::{for_each_range, with_scratch, Scratch};
use std::cell::Cell;

thread_local! {
    /// Reusable packing buffer for `B` panels. GEMM is called thousands of
    /// times per training epoch; reusing the scratch avoids a fresh ~256 KiB
    /// zeroed allocation (and its page faults) on every call. The pack
    /// routines overwrite every slot they expose, so stale contents are fine.
    static B_SCRATCH: Scratch = const { Cell::new(Vec::new()) };
    /// Reusable packing buffer for `A` row-block panels.
    static A_SCRATCH: Scratch = const { Cell::new(Vec::new()) };
}

/// Micro-kernel tile height (rows of `C` accumulated in registers).
pub const MR: usize = 8;
/// Micro-kernel tile width (columns of `C` accumulated in registers).
pub const NR: usize = 8;
/// `k`-panel depth: one packed `B` panel holds at most `KC * n` floats.
const KC: usize = 256;
/// Row-block height: rows of `C` handled per (possibly parallel) block.
const MC: usize = 128;
/// Below this many multiply-adds the packed path costs more than it saves and
/// the dispatcher falls back to a plain triple loop.
const SMALL_GEMM_FLOPS: usize = 32 * 32 * 32;
/// A strided read-only view of a row-major operand: element `(i, j)` of the
/// *logical* (post-transpose) matrix lives at `data[i * rs + j * cs]`.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl View<'_> {
    #[inline(always)]
    // quadra-analyze: allow(panic_path:indexing, the view constructors bound data to exactly rows*cols and callers stay inside the logical extents; a bounds branch here would defeat vectorisation)
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }
}

/// Pack rows `pc..pc+kc` of the logical `B` into `[kc][NR]` micro-panels,
/// zero-padding the last panel when `n` is not a multiple of `NR`.
///
/// Specialised for the two layouts that actually occur — contiguous rows
/// (`cs == 1`, plain `B`) and contiguous columns (`rs == 1`, stored-transposed
/// `B`) — so the copy loops carry no per-element stride arithmetic.
// quadra-analyze: allow(panic_path:indexing, panel extents are derived from kc/n exactly as the caller sized bpack; checked indexing in the pack loop costs ~15% of total GEMM time)
fn pack_b(bpack: &mut [f32], b: View<'_>, pc: usize, kc: usize, n: usize) {
    let nb = n.div_ceil(NR);
    for jb in 0..nb {
        let j0 = jb * NR;
        let nr = NR.min(n - j0);
        let panel = &mut bpack[jb * kc * NR..(jb + 1) * kc * NR];
        if nr < NR {
            panel.fill(0.0);
        }
        if b.cs == 1 {
            for p in 0..kc {
                let src = &b.data[(pc + p) * b.rs + j0..][..nr];
                panel[p * NR..p * NR + nr].copy_from_slice(src);
            }
        } else if b.rs == 1 {
            for jj in 0..nr {
                let src = &b.data[(j0 + jj) * b.cs + pc..][..kc];
                for (p, &v) in src.iter().enumerate() {
                    panel[p * NR + jj] = v;
                }
            }
        } else {
            for p in 0..kc {
                for jj in 0..nr {
                    panel[p * NR + jj] = b.at(pc + p, j0 + jj);
                }
            }
        }
    }
}

/// Pack rows `i0..i0+mc` (columns `pc..pc+kc`) of the logical `A` into
/// `[kc][MR]` micro-panels (column-major inside each panel), zero-padded.
/// Specialised like [`pack_b`] for the contiguous-row / contiguous-column
/// layouts.
// quadra-analyze: allow(panic_path:indexing, panel extents are derived from kc/mc exactly as the caller sized apack; checked indexing in the pack loop costs ~15% of total GEMM time)
fn pack_a(apack: &mut [f32], a: View<'_>, pc: usize, kc: usize, i0: usize, mc: usize) {
    let mb = mc.div_ceil(MR);
    for ib in 0..mb {
        let r0 = ib * MR;
        let mr = MR.min(mc - r0);
        let panel = &mut apack[ib * kc * MR..(ib + 1) * kc * MR];
        if mr < MR {
            panel.fill(0.0);
        }
        if a.rs == 1 {
            for p in 0..kc {
                let src = &a.data[(pc + p) * a.cs + i0 + r0..][..mr];
                panel[p * MR..p * MR + mr].copy_from_slice(src);
            }
        } else if a.cs == 1 {
            for ii in 0..mr {
                let src = &a.data[(i0 + r0 + ii) * a.rs + pc..][..kc];
                for (p, &v) in src.iter().enumerate() {
                    panel[p * MR + ii] = v;
                }
            }
        } else {
            for p in 0..kc {
                for ii in 0..mr {
                    panel[p * MR + ii] = a.at(i0 + r0 + ii, pc + p);
                }
            }
        }
    }
}

/// `MR×NR` register-tiled micro-kernel: accumulate one tile of
/// `A_panel · B_panel` into `c` (a row block of the output, row stride `n`).
#[inline]
#[allow(clippy::too_many_arguments)] // flat scalars keep the hot call zero-cost
                                     // quadra-analyze: allow(panic_path, the fixed-extent indexing and try_into expects are the exact shape LLVM turns into an 8-register FMA block; panel sizes are established by the pack routines)
fn micro_kernel(
    c: &mut [f32],
    n: usize,
    apanel: &[f32],
    bpanel: &[f32],
    kc: usize,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
) {
    // Plain index loops over fixed-size array refs: this exact shape is what
    // LLVM turns into an 8-register FMA block (the iterator-zip equivalent
    // spills the accumulators and runs ~3× slower).
    let mut acc = [[0.0f32; NR]; MR];
    debug_assert!(apanel.len() == kc * MR && bpanel.len() == kc * NR);
    for (ach, bch) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        let av: &[f32; MR] = ach.try_into().expect("panel width");
        let bv: &[f32; NR] = bch.try_into().expect("panel width");
        for i in 0..MR {
            for j in 0..NR {
                acc[i][j] += av[i] * bv[j];
            }
        }
    }
    if mr == MR && nr == NR {
        // Full tile: fixed-extent write-back the compiler can vectorise.
        for (ii, accrow) in acc.iter().enumerate() {
            let base = (row0 + ii) * n + col0;
            let crow: &mut [f32; NR] = (&mut c[base..base + NR]).try_into().expect("row width");
            for j in 0..NR {
                crow[j] += accrow[j];
            }
        }
    } else {
        for (ii, accrow) in acc.iter().enumerate().take(mr) {
            let base = (row0 + ii) * n + col0;
            for (cv, &av) in c[base..base + nr].iter_mut().zip(accrow.iter()) {
                *cv += av;
            }
        }
    }
}

/// Sweep every micro-tile of one packed row block.
// quadra-analyze: allow(panic_path:indexing, panel slicing mirrors the pack routines' layout; mb/nb are div_ceil of the same extents)
fn block_rows(c: &mut [f32], n: usize, kc: usize, mc: usize, apack: &[f32], bpack: &[f32]) {
    let mb = mc.div_ceil(MR);
    let nb = n.div_ceil(NR);
    for ib in 0..mb {
        let apanel = &apack[ib * kc * MR..(ib + 1) * kc * MR];
        let mr = MR.min(mc - ib * MR);
        for jb in 0..nb {
            let bpanel = &bpack[jb * kc * NR..(jb + 1) * kc * NR];
            let nr = NR.min(n - jb * NR);
            micro_kernel(c, n, apanel, bpanel, kc, ib * MR, jb * NR, mr, nr);
        }
    }
}

/// Cache-blocked driver: accumulate `op(A) · op(B)` into `c[m×n]`.
///
/// With `fork` set, each `k`-panel's sweep over the rows of `C` goes through
/// the crate's fork rule; the shared packed `B` panel is read-only. Row
/// ranges are whole `MR`-row strips and each output element is computed
/// entirely within one strip, so the split (and with it pool size and the
/// fork decision) affects scheduling only, never numerics.
// quadra-analyze: allow(panic_path:indexing, the public entry points size c to m*n and the scratch closures size their buffers from the same extents)
fn gemm_blocked_views(c: &mut [f32], m: usize, k: usize, n: usize, a: View<'_>, b: View<'_>, fork: bool) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let c = &mut c[..m * n];
    let nb = n.div_ceil(NR);
    with_scratch(&B_SCRATCH, KC.min(k) * nb * NR, |bpack| {
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            let bpanel = &mut bpack[..kc * nb * NR];
            pack_b(bpanel, b, pc, kc, n);
            let bpanel = &bpanel[..];
            let macs = if fork { m.saturating_mul(kc).saturating_mul(n) } else { 0 };
            for_each_range(c, MR * n, macs, |strip0, rows| {
                let (row0, nrows) = (strip0 * MR, rows.len() / n);
                with_scratch(&A_SCRATCH, MC.min(nrows).div_ceil(MR) * kc * MR, |apack| {
                    for i0 in (0..nrows).step_by(MC) {
                        let mc = MC.min(nrows - i0);
                        let ap = &mut apack[..mc.div_ceil(MR) * kc * MR];
                        pack_a(ap, a, pc, kc, row0 + i0, mc);
                        block_rows(&mut rows[i0 * n..(i0 + mc) * n], n, kc, mc, ap, bpanel);
                    }
                });
            });
            pc += kc;
        }
    });
}

/// Plain triple loop (no zero-skip): accumulate `op(A) · op(B)` into `c`.
/// Used below the blocking threshold and as the reference kernel in tests.
// quadra-analyze: allow(panic_path:indexing, row slices are bounded by the m*n extent the entry points allocate; bounds checks in the inner loop halve throughput)
fn gemm_naive_views(c: &mut [f32], m: usize, k: usize, n: usize, a: View<'_>, b: View<'_>) {
    for i in 0..m {
        let crow = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let aval = a.at(i, p);
            let bbase = p * b.rs;
            if b.cs == 1 {
                for (cv, bv) in crow.iter_mut().zip(&b.data[bbase..bbase + n]) {
                    *cv += aval * bv;
                }
            } else {
                for (j, cv) in crow.iter_mut().enumerate() {
                    *cv += aval * b.data[bbase + j * b.cs];
                }
            }
        }
    }
}

/// Kernel choice depends on the product's own `(m, k, n)` only — never on
/// batch size, pool size or `fork` — so a given product always sees the same
/// kernel and summation order (naive and blocked differ in the last ulp once
/// `k` spans more than one `KC` panel).
fn dispatch(c: &mut [f32], m: usize, k: usize, n: usize, a: View<'_>, b: View<'_>, fork: bool) {
    if m.saturating_mul(k).saturating_mul(n) <= SMALL_GEMM_FLOPS {
        gemm_naive_views(c, m, k, n, a, b);
    } else {
        gemm_blocked_views(c, m, k, n, a, b, fork);
    }
}

#[inline]
// quadra-analyze: allow(panic_path:indexing, the slice is the operand-length contract: a shorter input must fail loudly here, not corrupt the kernel)
fn view_nn_a(a: &[f32], m: usize, k: usize) -> View<'_> {
    View { data: &a[..m * k], rs: k, cs: 1 }
}

#[inline]
// quadra-analyze: allow(panic_path:indexing, the slice is the operand-length contract: a shorter input must fail loudly here, not corrupt the kernel)
fn view_tn_a(a: &[f32], m: usize, k: usize) -> View<'_> {
    // stored [k, m], read as the logical m×k transpose
    View { data: &a[..k * m], rs: 1, cs: m }
}

#[inline]
// quadra-analyze: allow(panic_path:indexing, the slice is the operand-length contract: a shorter input must fail loudly here, not corrupt the kernel)
fn view_nn_b(b: &[f32], k: usize, n: usize) -> View<'_> {
    View { data: &b[..k * n], rs: n, cs: 1 }
}

#[inline]
// quadra-analyze: allow(panic_path:indexing, the slice is the operand-length contract: a shorter input must fail loudly here, not corrupt the kernel)
fn view_nt_b(b: &[f32], k: usize, n: usize) -> View<'_> {
    // stored [n, k], read as the logical k×n transpose
    View { data: &b[..n * k], rs: 1, cs: k }
}

/// `C[m×n] = A[m×k] · B[k×n]`, blocked and (for large products) row-parallel.
pub fn gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    dispatch(&mut c, m, k, n, view_nn_a(a, m, k), view_nn_b(b, k, n), true);
    c
}

/// `C[m×n] = A[m×k] · Bᵀ` where `b` is stored row-major as `[n, k]`.
pub fn gemm_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    dispatch(&mut c, m, k, n, view_nn_a(a, m, k), view_nt_b(b, k, n), true);
    c
}

/// `C[m×n] = Aᵀ · B[k×n]` where `a` is stored row-major as `[k, m]`.
pub fn gemm_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    dispatch(&mut c, m, k, n, view_tn_a(a, m, k), view_nn_b(b, k, n), true);
    c
}

/// Accumulate `A[m×k] · B[k×n]` into `c[m×n]` in place.
///
/// The `*_into` variants never fork: their callers (per-sample conv passes,
/// per-batch `bmm`) own the parallel region and decide it once, through the
/// crate's fork rule. They *accumulate*, so `c` must be pre-zeroed for a plain
/// product and repeated calls sum naturally (used by the conv weight reduce
/// and the shared column gradient of multi-branch convolutions).
pub fn gemm_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert!(c.len() >= m * n, "gemm_into: output buffer too small");
    dispatch(c, m, k, n, view_nn_a(a, m, k), view_nn_b(b, k, n), false);
}

/// Accumulate `A[m×k] · Bᵀ` (with `b` stored `[n, k]`) into `c[m×n]` in place.
pub fn gemm_nt_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert!(c.len() >= m * n, "gemm_nt_into: output buffer too small");
    dispatch(c, m, k, n, view_nn_a(a, m, k), view_nt_b(b, k, n), false);
}

/// Accumulate `Aᵀ · B[k×n]` (with `a` stored `[k, m]`) into `c[m×n]` in place.
pub fn gemm_tn_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert!(c.len() >= m * n, "gemm_tn_into: output buffer too small");
    dispatch(c, m, k, n, view_tn_a(a, m, k), view_nn_b(b, k, n), false);
}

/// `C = A · B` through the blocked path regardless of size, single-threaded —
/// the bench / test hook for measuring the kernel itself (the parallel layer
/// would otherwise be conflated with the blocking win on multicore hosts).
pub fn gemm_blocked(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_blocked_views(&mut c, m, k, n, view_nn_a(a, m, k), view_nn_b(b, k, n), false);
    c
}

/// `C = A · Bᵀ` through the blocked path regardless of size, single-threaded
/// (bench / test hook, see [`gemm_blocked`]).
pub fn gemm_nt_blocked(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_blocked_views(&mut c, m, k, n, view_nn_a(a, m, k), view_nt_b(b, k, n), false);
    c
}

/// `C = Aᵀ · B` through the blocked path regardless of size, single-threaded
/// (bench / test hook, see [`gemm_blocked`]).
pub fn gemm_tn_blocked(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_blocked_views(&mut c, m, k, n, view_tn_a(a, m, k), view_nn_b(b, k, n), false);
    c
}

/// Reference triple-loop `C = A · B` (no blocking, no zero-skip). Kept public
/// so benches and property tests can cross-check the optimised kernels.
pub fn gemm_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_naive_views(&mut c, m, k, n, view_nn_a(a, m, k), view_nn_b(b, k, n));
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn randvec(len: usize, seed: u64) -> Vec<f32> {
        let t = crate::tensor::Tensor::randn(&[len.max(1)], 0.0, 1.0, &mut StdRng::seed_from_u64(seed));
        t.as_slice()[..len].to_vec()
    }

    fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = src[r * cols + c];
            }
        }
        out
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() <= tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_matches_naive_across_shapes() {
        // Edge sizes around the MR/NR/MC/KC boundaries, incl. 0 and 1.
        for &(m, k, n) in &[
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
            (1, 1, 1),
            (7, 9, 5),
            (8, 8, 8),
            (9, 17, 10),
            (33, 70, 41),
            (65, 300, 23),
            (70, 64, 72),
            (300, 257, 130), // > 2 MC row blocks, > 1 KC k-panel, odd edges
        ] {
            let a = randvec(m * k, 1 + (m * 1000 + k * 10 + n) as u64);
            let b = randvec(k * n, 2 + (m * 1000 + k * 10 + n) as u64);
            let fast = gemm_blocked(&a, &b, m, k, n);
            let slow = gemm_naive(&a, &b, m, k, n);
            assert_close(&fast, &slow, 1e-4 * (k.max(1) as f32));
        }
    }

    #[test]
    fn nt_and_tn_match_transpose_then_gemm() {
        for &(m, k, n) in &[(5, 7, 6), (16, 40, 9), (33, 65, 34)] {
            let a = randvec(m * k, 7);
            let bt = randvec(n * k, 8); // stored [n, k]
            let b = transpose(&bt, n, k); // [k, n]
            assert_close(&gemm_nt(&a, &bt, m, k, n), &gemm_naive(&a, &b, m, k, n), 1e-3);
            assert_close(&gemm_nt_blocked(&a, &bt, m, k, n), &gemm_naive(&a, &b, m, k, n), 1e-3);

            let at = randvec(k * m, 9); // stored [k, m]
            let a2 = transpose(&at, k, m); // [m, k]
            let b2 = randvec(k * n, 10);
            assert_close(&gemm_tn(&at, &b2, m, k, n), &gemm_naive(&a2, &b2, m, k, n), 1e-3);
            assert_close(&gemm_tn_blocked(&at, &b2, m, k, n), &gemm_naive(&a2, &b2, m, k, n), 1e-3);
        }
    }

    #[test]
    fn into_variants_accumulate() {
        let a = randvec(6, 11);
        let b = randvec(6, 12);
        let mut c = vec![1.0f32; 4];
        gemm_into(&mut c, &a, &b, 2, 3, 2);
        let plain = gemm_naive(&a, &b, 2, 3, 2);
        for (cv, pv) in c.iter().zip(plain.iter()) {
            assert!((cv - (pv + 1.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn non_finite_values_propagate() {
        // 0 * inf must produce NaN in the output — no zero-skip fast path.
        let a = [0.0f32, 0.0];
        let b = [f32::INFINITY, f32::NAN, 1.0, 2.0];
        for c in [gemm(&a, &b, 1, 2, 2), gemm_blocked(&a, &b, 1, 2, 2), gemm_naive(&a, &b, 1, 2, 2)] {
            assert!(c[0].is_nan(), "0·inf must poison the output, got {}", c[0]);
            assert!(c[1].is_nan(), "0·NaN must poison the output, got {}", c[1]);
        }
    }
}
