//! Blocked, register-tiled GEMM kernels — the workhorse under `matmul`,
//! `bmm` and the im2col convolution paths.
//!
//! The design follows the classic BLIS/GotoBLAS decomposition, written in
//! portable Rust around one explicit fused-multiply-add micro-kernel:
//!
//! * the `k` dimension is split into panels of at most `KC`,
//! * `A` is read in one form only, `PackedA`: packed whole before the
//!   blocked loops run, per `k`-panel into `[kc][MR]` micro-panels
//!   (column-major within the panel, the last one zero-padded to `MR`
//!   rows). The public entry points pack their `A` on entry; a convolution
//!   packs each weight once per call and reuses it for every sample it
//!   multiplies,
//! * a `B` with contiguous rows (`gemm`, `gemm_tn`) is read in place: the
//!   micro-kernel walks `NR` columns down the row stride. Only a partial last
//!   column block is copied, into a zero-padded `[kc][NR]` panel, so the
//!   kernel never reads past the operand and never branches on tile size. A
//!   stored-transposed `B` (`gemm_nt`) is packed into `[kc][NR]` panels, one
//!   `k`-panel at a time. A convolution's weight gradient multiplies every
//!   branch's stacked output-gradient rows by one sample's `colᵀ`
//!   (`gemm_rows_into`), packed that way or, when many row ranges share it,
//!   packed whole once per call (`pack_bt`),
//! * an `MR×NR` micro-kernel keeps a `[[f32; NR]; MR]` accumulator block in
//!   registers: per `k` step it loads one `NR`-wide row of `B`, broadcasts
//!   `MR` values of `A`, and updates every accumulator with `f32::mul_add`.
//!   Rust never contracts `acc += a * b` into a fused multiply-add on its own;
//!   the explicit call is one `vfmadd` per vector when the build targets an
//!   FMA host (`.cargo/config.toml` builds for `native`).
//!
//! Every tile sees the same arithmetic — accumulators start at zero, take one
//! fused multiply-add per `k` in panel order, and are then added into `C` — so
//! neither the `B` layout (in place or packed), nor how many products share one
//! packed operand, nor which rows are stacked into one `A`, nor the fork
//! changes a bit of the result. Every product takes this one kernel, however
//! small: with a size cut to a second kernel, a linear layer (whose `m` is the
//! batch) would sum a batch's rows in another order than its batch-1 forwards.
//! Below ~16³ multiply-adds the packing costs ~0.1–0.5 µs more than a triple
//! loop would.
//!
//! Transposed operands are handled by the packing step (the micro-panels are
//! read with swapped strides), so `gemm_nt` / `gemm_tn` never materialise a
//! transposed copy — this is what makes the conv backward passes
//! transpose-free.
//!
//! Unlike the original naive kernel there is no `a == 0.0` skip: IEEE-754
//! requires `0.0 * inf` and `0.0 * NaN` to produce NaN, so zero inputs must
//! still participate (and with blocking the branch was a pessimisation
//! anyway).

use crate::fork::{for_each_range, with_scratch, Scratch};
use std::cell::Cell;
use std::ops::Range;

thread_local! {
    /// Reusable packing buffer for `B` panels (the whole transposed panel, or
    /// just the partial edge block of an in-place `B`). GEMM is called
    /// thousands of times per training epoch; reusing the scratch avoids a
    /// fresh zeroed allocation (and its page faults) on every call. The pack
    /// routines overwrite every slot they expose, so stale contents are fine.
    static B_SCRATCH: Scratch = const { Cell::new(Vec::new()) };
    /// The [`PackedA`] a public entry point packs on entry, kept for the
    /// next call for the same reason.
    static A_SCRATCH: Cell<PackedA> = const { Cell::new(PackedA { data: Vec::new(), m: 0, k: 0 }) };
}

/// Micro-kernel tile height (rows of `C` accumulated in registers).
pub const MR: usize = 8;
/// Micro-kernel tile width (columns of `C` accumulated in registers).
pub const NR: usize = 16;
/// `k`-panel depth: one packed `B` panel holds at most `KC * n` floats.
pub(crate) const KC: usize = 256;
/// A strided read-only view of a row-major operand: element `(i, j)` of the
/// *logical* (post-transpose) matrix lives at `data[i * rs + j * cs]`. Every
/// view has `rs == 1` (stored transposed) or `cs == 1` (plain row-major).
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

/// Pack rows `pc..pc+kc`, columns `cols` of the logical `B` into `[kc][NR]`
/// micro-panels, zero-padding the last panel when the range is not a multiple
/// of `NR`. A stored-transposed `B` (`rs == 1`) is packed whole; a row-major
/// one (`cs == 1`) only ever has its partial edge block packed.
// quadra-analyze: allow(panic_path:indexing, panel extents are derived from kc and the column range exactly as the caller sized bpack; checked indexing in the pack loop costs ~15% of total GEMM time)
fn pack_b(bpack: &mut [f32], b: View<'_>, pc: usize, kc: usize, cols: Range<usize>) {
    for (jb, j0) in cols.clone().step_by(NR).enumerate() {
        let nr = NR.min(cols.end - j0);
        let panel = &mut bpack[jb * kc * NR..(jb + 1) * kc * NR];
        if nr < NR {
            panel.fill(0.0);
        }
        if b.rs == 1 {
            for jj in 0..nr {
                let src = &b.data[(j0 + jj) * b.cs + pc..][..kc];
                for (p, &v) in src.iter().enumerate() {
                    panel[p * NR + jj] = v;
                }
            }
        } else {
            for p in 0..kc {
                let src = &b.data[(pc + p) * b.rs + j0..][..nr];
                panel[p * NR..p * NR + nr].copy_from_slice(src);
            }
        }
    }
}

/// Pack the logical `A[m×k]` whole into `apack` (`packed_len(m, k)` floats):
/// `k`-panel `pc` starts at `pc * m.div_ceil(MR) * MR` and holds the
/// `[kc][MR]` micro-panels (column-major inside each panel) of every
/// `MR`-row block in order, the last block zero-padded. `line(i)` is line
/// `i` of `A` as stored: row `i` (`k` floats), or with `transposed`, row `i`
/// of the stored `Aᵀ` (`m` floats). Specialised like [`pack_b`] for the two
/// layouts.
// quadra-analyze: allow(panic_path:indexing, panel extents are derived from m, k and KC exactly as packed_len sized apack; checked indexing in the pack loop costs ~15% of total GEMM time)
fn pack_a<'a>(apack: &mut [f32], m: usize, k: usize, transposed: bool, line: impl Fn(usize) -> &'a [f32]) {
    let rows = m.div_ceil(MR) * MR;
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        for (ib, panel) in apack[pc * rows..(pc + kc) * rows].chunks_exact_mut(kc * MR).enumerate() {
            let r0 = ib * MR;
            let mr = MR.min(m - r0);
            if mr < MR {
                panel.fill(0.0);
            }
            if transposed {
                for p in 0..kc {
                    panel[p * MR..p * MR + mr].copy_from_slice(&line(pc + p)[r0..r0 + mr]);
                }
            } else {
                for ii in 0..mr {
                    for (p, &v) in line(r0 + ii)[pc..pc + kc].iter().enumerate() {
                        panel[p * MR + ii] = v;
                    }
                }
            }
        }
    }
}

/// Floats of a packed `m×k` operand: every `MR`-row block, zero-padded.
fn packed_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * k
}

/// An `A[m×k]` operand in the one form the blocked loops read (see
/// [`pack_a`]). Packing only moves bytes, so a product through a `PackedA`
/// is bitwise the product of the operand it was packed from, however often
/// it is reused. Shared read-only, it serves every sample of a convolution
/// and every row range of a fork.
#[derive(Default)]
pub(crate) struct PackedA {
    data: Vec<f32>,
    m: usize,
    k: usize,
}

impl PackedA {
    /// Pack `A[m×k]` in place of what this operand held, reusing its storage:
    /// `a` is `A` stored row-major `[m, k]`, or with `transposed`, `Aᵀ`
    /// stored row-major `[k, m]`. `pack_a` writes every slot, so stale
    /// contents are fine.
    pub(crate) fn pack(&mut self, a: &[f32], m: usize, k: usize, transposed: bool) {
        assert!(a.len() >= m * k, "PackedA::pack: operand shorter than {m}×{k}");
        let len = if transposed { m } else { k };
        self.pack_lines(m, k, transposed, |i| a.get(i * len..(i + 1) * len).unwrap_or_default());
    }

    /// [`PackedA::pack`] from `A`'s stored lines, wherever each one lives
    /// (see [`pack_a`]).
    fn pack_lines<'a>(&mut self, m: usize, k: usize, transposed: bool, line: impl Fn(usize) -> &'a [f32]) {
        self.data.resize(packed_len(m, k), 0.0);
        pack_a(&mut self.data, m, k, transposed, line);
        (self.m, self.k) = (m, k);
    }
}

/// Run `f` on this thread's reusable [`PackedA`] after `pack` refilled it.
///
/// Like [`with_scratch`], the operand is taken out of the cell while `f`
/// runs, so a re-entrant call on this thread packs into a fresh one.
fn with_packed_a<R>(pack: impl FnOnce(&mut PackedA), f: impl FnOnce(&PackedA) -> R) -> R {
    let mut packed = A_SCRATCH.with(Cell::take);
    pack(&mut packed);
    let out = f(&packed);
    A_SCRATCH.with(|cell| cell.set(packed));
    out
}

/// Floats of a `B[k×n]` packed whole by [`pack_bt`]: every `NR`-column
/// block, zero-padded.
pub(crate) fn packed_b_len(k: usize, n: usize) -> usize {
    k * n.div_ceil(NR) * NR
}

/// Pack the `B[k×n]` whose transpose `bt` is stored row-major `[n, k]` whole
/// into `dst` (`packed_b_len(k, n)` floats): `k`-panel `pc` starts at
/// `pc * n.div_ceil(NR) * NR` and holds the `[kc][NR]` panels that
/// [`gemm_packed`] packs one `k`-panel at a time. Packed once, it serves
/// every product [`gemm_rows_into`] runs against it.
pub(crate) fn pack_bt(dst: &mut [f32], bt: &[f32], k: usize, n: usize) {
    assert_eq!(dst.len(), packed_b_len(k, n), "pack_bt: destination is not one packed operand");
    if n == 0 {
        return;
    }
    let panels = dst.chunks_mut(KC * n.div_ceil(NR) * NR);
    for (panel, pc) in panels.zip((0..k).step_by(KC)) {
        pack_b(panel, view_nt_b(bt, k, n), pc, KC.min(k - pc), 0..n);
    }
}

/// The `B[k×n]` a stacked product reads, given by its transpose.
#[derive(Clone, Copy)]
pub(crate) enum Bt<'a> {
    /// `Bᵀ` stored row-major `[n, k]`, packed one `k`-panel at a time while
    /// the product runs, as [`gemm_nt`] packs it.
    Stored(&'a [f32]),
    /// `B` packed whole by [`pack_bt`], shared by many products.
    Packed(&'a [f32]),
}

/// Accumulate `A · B` into `c[m×n]` in place, where `row(i)` is row `i` of
/// `A[m×k]`. The rows may come from different buffers (a stacked operand);
/// they are packed into this thread's `A` scratch. Every element takes the
/// same per-`k`-panel fused multiply-add chain as through any other entry
/// point, so the product is bitwise theirs, whichever form `b` takes.
/// Never forks.
pub(crate) fn gemm_rows_into<'a>(
    c: &mut [f32],
    m: usize,
    row: impl Fn(usize) -> &'a [f32],
    b: Bt<'_>,
    k: usize,
    n: usize,
) {
    assert!(c.len() >= m * n, "gemm_rows_into: output buffer too small");
    if let Bt::Packed(b) = b {
        assert_eq!(b.len(), packed_b_len(k, n), "gemm_rows_into: B is not one packed operand");
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let (rows, width) = (m.div_ceil(MR) * MR, n.div_ceil(NR) * NR);
    with_packed_a(
        |a| a.pack_lines(m, k, false, row),
        |a| match b {
            Bt::Stored(bt) => gemm_packed(c, a, view_nt_b(bt, k, n), n, false),
            Bt::Packed(b) => {
                // `k`-panel `pc` of each operand, panel by panel.
                let panels = b.chunks(KC * width).zip(a.data.chunks(KC * rows));
                for ((data, apanels), pc) in panels.zip((0..k).step_by(KC)) {
                    let kc = KC.min(k - pc);
                    let bpanel = BPanel { data, ld: NR, step: kc * NR, full: usize::MAX, edge: &[] };
                    block_rows(c, n, kc, m, apanels, bpanel);
                }
            }
        },
    );
}

/// One `k`-panel of the logical `B` as the micro-kernel reads it. Column
/// block `jb < full` has row `p` at `data[jb * step + p * ld..][..NR]`; the
/// block after them, if any, is the zero-padded `[kc][NR]` panel `edge`.
#[derive(Clone, Copy)]
struct BPanel<'a> {
    data: &'a [f32],
    ld: usize,
    step: usize,
    full: usize,
    edge: &'a [f32],
}

/// The `MR×NR` product of one `A` micro-panel and one `B` block, `kc` deep:
/// accumulators start at zero and take one fused multiply-add per `k` step in
/// panel order. Row `p` of the `B` block is `b[p * ldb..][..NR]`.
///
/// The tile is returned by value and only ever indexed with constants here,
/// so LLVM keeps all of it in vector registers across the `k` loop.
#[inline(always)]
// quadra-analyze: allow(panic_path:indexing, both operands are bounded to exactly kc rows once per tile, outside the k loop, so no step can read past the last row of B)
fn tile_product(apanel: &[f32], b: &[f32], ldb: usize, kc: usize) -> [[f32; NR]; MR] {
    // Rows shorter than a tile would end the `map_while` below early.
    debug_assert!(kc == 1 || ldb >= NR, "B row stride {ldb} under the tile width");
    let apanel = &apanel[..kc * MR];
    let b = &b[..(kc - 1) * ldb + NR];
    let brows = b.chunks(ldb).map_while(|row| <&[f32; NR]>::try_from(row.get(..NR)?).ok());
    let apanels = apanel.chunks_exact(MR).map_while(|col| <&[f32; MR]>::try_from(col).ok());
    let mut acc = [[0.0f32; NR]; MR];
    for (av, bv) in apanels.zip(brows) {
        // One call per row, written out: as a loop over rows, LLVM vectorises
        // across the rows (gathers through a stack copy of the tile) instead
        // of along them.
        let [r0, r1, r2, r3, r4, r5, r6, r7] = &mut acc;
        fma_row(r0, av[0], bv);
        fma_row(r1, av[1], bv);
        fma_row(r2, av[2], bv);
        fma_row(r3, av[3], bv);
        fma_row(r4, av[4], bv);
        fma_row(r5, av[5], bv);
        fma_row(r6, av[6], bv);
        fma_row(r7, av[7], bv);
    }
    acc
}

/// `acc[j] = fma(a, b[j], acc[j])` across one accumulator row.
#[inline(always)]
fn fma_row(acc: &mut [f32; NR], a: f32, b: &[f32; NR]) {
    for (x, &bj) in acc.iter_mut().zip(b) {
        *x = a.mul_add(bj, *x);
    }
}

/// Accumulate one `mr×nr` tile of `A_panel · B_block` into `c` (a row block
/// of the output, row stride `n`) at `(row0, col0)`.
#[inline]
#[allow(clippy::too_many_arguments)] // flat scalars keep the hot call zero-cost
                                     // quadra-analyze: allow(panic_path, the fixed-extent row slices and try_into expect are the write-back shape the compiler vectorises; tile positions come from div_ceil of the same extents)
fn micro_kernel(
    c: &mut [f32],
    n: usize,
    apanel: &[f32],
    b: &[f32],
    ldb: usize,
    kc: usize,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
) {
    let acc = tile_product(apanel, b, ldb, kc);
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

/// Sweep every micro-tile of `mc` rows of `C`, whose `A` micro-panels are
/// `apack`'s first `mc.div_ceil(MR)`.
// quadra-analyze: allow(panic_path:indexing, panel slicing mirrors the pack routines' layout; mb/nb are div_ceil of the same extents)
fn block_rows(c: &mut [f32], n: usize, kc: usize, mc: usize, apack: &[f32], b: BPanel<'_>) {
    let mb = mc.div_ceil(MR);
    let nb = n.div_ceil(NR);
    for ib in 0..mb {
        let apanel = &apack[ib * kc * MR..(ib + 1) * kc * MR];
        let mr = MR.min(mc - ib * MR);
        for jb in 0..nb {
            let (bblock, ldb) = if jb < b.full { (&b.data[jb * b.step..], b.ld) } else { (b.edge, NR) };
            let nr = NR.min(n - jb * NR);
            micro_kernel(c, n, apanel, bblock, ldb, kc, ib * MR, jb * NR, mr, nr);
        }
    }
}

/// Cache-blocked loop nest: accumulate `A · op(B)` into `c[m×n]`.
///
/// A row-major `B` is read in place (only its partial edge block is packed);
/// a stored-transposed one is packed per `k`-panel. With `fork` set, each
/// `k`-panel's sweep over the rows of `C` goes through the crate's fork rule;
/// `A` and `B` are shared read-only. Row ranges are whole `MR`-row strips, so
/// each reads whole micro-panels of `A`, and each output element is computed
/// entirely within one strip: the split (and with it pool size and the fork
/// decision) affects scheduling only, never numerics.
// quadra-analyze: allow(panic_path:indexing, the public entry points size c to m*n and the scratch closures size their buffers from the same extents)
fn gemm_packed(c: &mut [f32], a: &PackedA, b: View<'_>, n: usize, fork: bool) {
    let (m, k) = (a.m, a.k);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let c = &mut c[..m * n];
    let rows = m.div_ceil(MR) * MR;
    // Rows of `B` contiguous and back to back (`view_nn_b`): read in place. A
    // stored-transposed `B` with `k == 1` also has unit strides, but its row
    // stride of 1 is no row stride the kernel can walk, so it is packed.
    let in_place = b.cs == 1 && b.rs == n;
    // Columns that go through the pack: all of them, or the partial edge block.
    let packed_cols = if in_place { n - n % NR..n } else { 0..n };
    let panel_len = |kc: usize| kc * packed_cols.len().div_ceil(NR) * NR;
    with_scratch(&B_SCRATCH, panel_len(KC.min(k)), |bpack| {
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            let bpack = &mut bpack[..panel_len(kc)];
            pack_b(bpack, b, pc, kc, packed_cols.clone());
            let bpack = &bpack[..];
            let bpanel = if in_place {
                BPanel { data: &b.data[pc * b.rs..], ld: b.rs, step: NR, full: n / NR, edge: bpack }
            } else {
                BPanel { data: bpack, ld: NR, step: kc * NR, full: usize::MAX, edge: &[] }
            };
            let apanels = &a.data[pc * rows..(pc + kc) * rows];
            let macs = if fork { m.saturating_mul(kc).saturating_mul(n) } else { 0 };
            for_each_range(c, MR * n, macs, |strip0, strip| {
                block_rows(strip, n, kc, strip.len() / n, &apanels[strip0 * kc * MR..], bpanel);
            });
            pc += kc;
        }
    });
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
    with_packed_a(|p| p.pack(a, m, k, false), |a| gemm_packed(&mut c, a, view_nn_b(b, k, n), n, true));
    c
}

/// `C[m×n] = A[m×k] · Bᵀ` where `b` is stored row-major as `[n, k]`.
pub fn gemm_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    with_packed_a(|p| p.pack(a, m, k, false), |a| gemm_packed(&mut c, a, view_nt_b(b, k, n), n, true));
    c
}

/// `C[m×n] = Aᵀ · B[k×n]` where `a` is stored row-major as `[k, m]`.
pub fn gemm_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    with_packed_a(|p| p.pack(a, m, k, true), |a| gemm_packed(&mut c, a, view_nn_b(b, k, n), n, true));
    c
}

/// Accumulate `A[m×k] · B[k×n]` into `c[m×n]` in place.
///
/// Never forks: its caller (the per-batch `bmm`) owns the parallel region and
/// decides it once, through the crate's fork rule. It *accumulates*, so `c`
/// must be pre-zeroed for a plain product and repeated calls sum naturally.
pub fn gemm_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert!(c.len() >= m * n, "gemm_into: output buffer too small");
    with_packed_a(|p| p.pack(a, m, k, false), |a| gemm_packed(c, a, view_nn_b(b, k, n), n, false));
}

/// Accumulate `a · B[k×n]` into `c[m×n]` in place, `(m, k)` being the packed
/// operand's: the [`gemm_into`] product without the packing, for a caller
/// that multiplies one `A` by many `B`s. Never forks.
pub(crate) fn gemm_packed_into(c: &mut [f32], a: &PackedA, b: &[f32], n: usize) {
    assert!(c.len() >= a.m * n, "gemm_packed_into: output buffer too small");
    gemm_packed(c, a, view_nn_b(b, a.k, n), n, false);
}

/// `C = A · B` through the blocked path regardless of size, single-threaded —
/// the bench / test hook for measuring the kernel itself (the parallel layer
/// would otherwise be conflated with the blocking win on multicore hosts).
pub fn gemm_blocked(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_into(&mut c, a, b, m, k, n);
    c
}

/// Reference triple-loop `C = A · B` (no blocking, no zero-skip, separate
/// multiply and add). No product is dispatched to it; it is kept public so
/// the benchmark and the property tests can time and cross-check the blocked
/// kernel against it.
// quadra-analyze: allow(panic_path:indexing, the operand slices are bounded to m*k and k*n up front; bounds checks in the inner loop halve throughput)
pub fn gemm_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let (a, b) = (&a[..m * k], &b[..k * n]);
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        let crow = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let aval = a[i * k + p];
            for (cv, bv) in crow.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                *cv += aval * bv;
            }
        }
    }
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

    /// A `*_into` product on a zeroed `m×n` buffer: the plain product.
    fn zeroed(m: usize, n: usize, into: impl FnOnce(&mut [f32])) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        into(&mut c);
        c
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() <= tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_matches_naive_across_shapes() {
        // Edge sizes around the MR/NR/KC boundaries, incl. 0 and 1.
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
            (300, 257, 130), // > 1 KC k-panel, odd edges
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

            let at = randvec(k * m, 9); // stored [k, m]
            let a2 = transpose(&at, k, m); // [m, k]
            let b2 = randvec(k * n, 10);
            assert_close(&gemm_tn(&at, &b2, m, k, n), &gemm_naive(&a2, &b2, m, k, n), 1e-3);
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

    /// The benchmark's probe shapes (the models' per-sample products) and the
    /// `MR`/`NR`/`KC` edge shapes of `blocked_matches_naive_across_shapes`.
    const CONTRACT_SHAPES: [(usize, usize, usize); 19] = [
        (16, 27, 1024),
        (32, 144, 256),
        (64, 288, 64),
        (128, 576, 16),
        (8, 27, 256),
        (8, 72, 256),
        (16, 144, 64),
        (32, 288, 16),
        (8, 64, 32),
        (8, 32, 10),
        (1, 1, 1),
        (7, 9, 5),
        (8, 8, 8),
        (9, 17, 10),
        (33, 70, 41),
        (65, 300, 23),
        (70, 64, 72),
        (300, 257, 130),
        (5, 1, 40),
    ];

    /// The arithmetic contract of the blocked path, written as scalars: per
    /// `KC` panel, each output element starts a zero accumulator, takes one
    /// fused multiply-add per `k` in order, and is then added into `C`.
    fn fma_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for pc in (0..k).step_by(KC) {
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in pc..k.min(pc + KC) {
                        acc = a[i * k + p].mul_add(b[p * n + j], acc);
                    }
                    c[i * n + j] += acc;
                }
            }
        }
        c
    }

    fn assert_bitwise(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} index {i}: {x} vs {y}");
        }
    }

    /// `A · B` through [`gemm_rows_into`], `A` handed over row by row from
    /// two separate buffers, as a stacked operand is; with `whole`, `B` is
    /// packed whole once first.
    fn rows_product(a: &[f32], bt: &[f32], m: usize, k: usize, n: usize, whole: bool) -> Vec<f32> {
        let mut packed = vec![f32::NAN; packed_b_len(k, n)];
        pack_bt(&mut packed, bt, k, n);
        let b = if whole { Bt::Packed(&packed) } else { Bt::Stored(bt) };
        let (head, tail) = a.split_at(m / 2 * k);
        let row = |i: usize| if i < m / 2 { &head[i * k..][..k] } else { &tail[(i - m / 2) * k..][..k] };
        zeroed(m, n, |c| gemm_rows_into(c, m, row, b, k, n))
    }

    #[test]
    fn every_entry_point_and_b_layout_is_bitwise_the_fma_contract() {
        // In-place `B` (gemm, gemm_tn), `B` packed per panel (gemm_nt, and
        // stacked rows) and `B` packed whole (stacked rows) run the same
        // micro-kernel over the same values, so every entry point agrees to
        // the bit with the scalar statement of the contract.
        for (m, k, n) in CONTRACT_SHAPES {
            let a = randvec(m * k, 3 + (m * 1000 + k * 10 + n) as u64);
            let b = randvec(k * n, 4 + (m * 1000 + k * 10 + n) as u64);
            let (at, bt) = (transpose(&a, m, k), transpose(&b, k, n));
            let want = fma_reference(&a, &b, m, k, n);
            let shape = format!("({m},{k},{n})");
            assert_bitwise(&gemm_blocked(&a, &b, m, k, n), &want, &format!("in-place B {shape}"));
            for (got, what) in [
                (gemm(&a, &b, m, k, n), "gemm"),
                (gemm_nt(&a, &bt, m, k, n), "gemm_nt"),
                (gemm_tn(&at, &b, m, k, n), "gemm_tn"),
                (rows_product(&a, &bt, m, k, n, false), "stacked rows, B packed per panel"),
                (rows_product(&a, &bt, m, k, n, true), "stacked rows, B packed whole"),
            ] {
                assert_bitwise(&got, &want, &format!("{what} {shape}"));
            }
        }
    }

    #[test]
    fn a_packed_once_serves_every_product_bitwise() {
        // One packed `A`, plain and transposed, multiplied by three different
        // `B`s in turn: a stale or shifted panel would break the second or
        // third product even when the first one is right. The two operands
        // are repacked from shape to shape, as a thread's scratch is.
        let mut packed = [PackedA::default(), PackedA::default()];
        for (m, k, n) in CONTRACT_SHAPES {
            let seed = (m * 1000 + k * 10 + n) as u64;
            let a = randvec(m * k, 5 + seed);
            packed[0].pack(&a, m, k, false);
            packed[1].pack(&transpose(&a, m, k), m, k, true);
            for (round, b) in (0..3).map(|r| (r, randvec(k * n, 6 + seed + r))) {
                let want = fma_reference(&a, &b, m, k, n);
                for (pa, what) in packed.iter().zip(["plain A", "transposed A"]) {
                    let got = zeroed(m, n, |c| gemm_packed_into(c, pa, &b, n));
                    assert_bitwise(&got, &want, &format!("{what} ({m},{k},{n}) product {round}"));
                }
            }
        }
    }

    #[test]
    fn in_place_b_reads_nothing_past_its_operand() {
        // `B` is the head of a longer buffer whose tail is NaN: a kernel that
        // read past row k-1 (the last row's right edge, n % NR != 0) would
        // either panic on the slice bound or poison the output.
        for (m, k, n) in [(9, 17, 10), (16, 40, 37), (33, 70, 41), (8, 300, 23)] {
            let a = randvec(m * k, 21);
            let mut buf = randvec(k * n, 22);
            buf.extend([f32::NAN; 64]);
            let got = gemm_blocked(&a, &buf[..k * n], m, k, n);
            assert!(got.iter().all(|v| v.is_finite()), "({m},{k},{n}) read past B");
            assert_bitwise(&got, &fma_reference(&a, &buf, m, k, n), "in-place B");
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
        // The same through the blocked kernel: a full in-place column block
        // (column 3), the zero-padded right-edge tile (column 17, n % NR != 0)
        // and, with B stored transposed, the packed panels.
        let (m, k, n) = (9, 4, 20);
        let a = vec![0.0f32; m * k];
        let mut b = vec![1.0f32; k * n];
        b[2 * n + 3] = f32::INFINITY;
        b[n + 17] = f32::NAN;
        let bt = transpose(&b, k, n);
        for c in
            [gemm_blocked(&a, &b, m, k, n), gemm_nt(&a, &bt, m, k, n), rows_product(&a, &bt, m, k, n, true)]
        {
            for i in 0..m {
                for j in 0..n {
                    let v = c[i * n + j];
                    assert_eq!(v.is_nan(), j == 3 || j == 17, "row {i} col {j}: {v}");
                }
            }
        }
    }
}
