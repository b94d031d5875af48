//! The crate's one fork rule and its scratch-buffer discipline.
//!
//! Every parallel region in this crate (conv sample ranges, GEMM row ranges,
//! `bmm` batches) goes through [`for_each_range`]: a region forks only when
//! its multiply-adds clear [`FORK_MIN_MACS`], and then into a few contiguous
//! ranges per pool thread — never one task per item. A fork on the work-
//! stealing pool costs 20–40 µs of queueing, latch and wake-up traffic per
//! task; an inference-sized product (≤ 1.2 M multiply-adds, ~100 µs) cannot
//! win that back, a training-sized one (≥ 7 M) can.
//!
//! The split never changes results: callers cut along items whose outputs are
//! independent (samples, `MR`-row strips), so pool size and the fork decision
//! affect scheduling only, not which kernel or summation order an element sees.

use rayon::prelude::*;
use std::cell::Cell;
use std::thread::LocalKey;

/// Multiply-adds a region needs before forking pays. Measured on the 2-vCPU
/// reference box by timing `conv2d` at batch 8 with and without the fork over
/// a ladder of region sizes (see CHANGES.md, PR 21): the forked region loses
/// below ~1 M multiply-adds, breaks even between 1 M and 2 M, and wins above.
/// The benchmark's inference regions (≤ 1.2 M) and training regions (≥ 7 M)
/// sit on either side.
pub(crate) const FORK_MIN_MACS: usize = 2_000_000;

/// Contiguous ranges handed to the pool per thread: enough slack for a thief
/// to rebalance a descheduled vCPU, few enough that task overhead stays a
/// small share of the smallest forking region.
const RANGES_PER_THREAD: usize = 2;

/// Run `f(first_item, range)` over `items` cut into contiguous ranges of whole
/// `item_len`-element items (the last item may be short). `macs` is the whole
/// region's multiply-add count; below [`FORK_MIN_MACS`], with a single item,
/// or on a one-thread pool the region runs inline as one range.
pub(crate) fn for_each_range<T: Send>(
    items: &mut [T],
    item_len: usize,
    macs: usize,
    f: impl Fn(usize, &mut [T]) + Send + Sync,
) {
    let count = items.len().div_ceil(item_len.max(1));
    let threads = rayon::current_num_threads();
    if threads <= 1 || count <= 1 || macs < FORK_MIN_MACS {
        return f(0, items);
    }
    let per = count.div_ceil(RANGES_PER_THREAD * threads);
    items.par_chunks_mut(per * item_len).enumerate().for_each(|(i, range)| f(i * per, range));
}

/// A reusable thread-local `f32` buffer (packing panels, column buffers).
pub(crate) type Scratch = Cell<Vec<f32>>;

/// Run `f` on the thread's scratch buffer grown to at least `len` floats.
/// Contents are stale: `f` must write every slot it reads.
///
/// The `Vec` is *taken out* of the cell for the duration of `f` and put back
/// afterwards, so nothing is borrowed while `f` runs. `f` may fork, and a
/// thread waiting in `rayon::join` runs other callers' queued jobs — a
/// re-entrant call on this thread then finds the cell empty and simply
/// allocates its own buffer instead of tripping a `RefCell` borrow.
pub(crate) fn with_scratch<R>(
    cell: &'static LocalKey<Scratch>,
    len: usize,
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    let mut buf = cell.with(Cell::take);
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    let out = f(&mut buf[..len]);
    cell.with(|c| c.set(buf));
    out
}
