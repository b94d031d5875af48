//! Peak heap of one weight-gradient call. At the training CNN's last stage
//! (x `[16, 64, 4, 4]`, three `[128, 64, 3, 3]` branches) the call may hold
//! its outputs, every sample's packed column and one row-range partial per
//! thread that runs a range, and nothing sized by the sample batches: one
//! reduction buffer per batch and branch would add 8 × 3 weights (+7 MiB).
//!
//! The counting allocator sees every thread of the process, so this file
//! holds exactly one test: nothing else may allocate while it measures.

use quadra_tensor::gemm::{MR, NR};
use quadra_tensor::{Conv2dParams, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// [`System`], counting live bytes and their high-water mark.
struct Counting;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    PEAK.fetch_max(LIVE.fetch_add(bytes, Relaxed) + bytes, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns `System`'s pointer; the
// counting beside it only updates two atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn stage4_weight_gradient_holds_no_per_batch_buffers() {
    let (n, c, side, oc, branches) = (16, 64, 4, 128, 3);
    let p = Conv2dParams::new(1, 1, 1);
    let mut rng = StdRng::seed_from_u64(4);
    let x = Tensor::randn(&[n, c, side, side], 0.0, 1.0, &mut rng);
    let gs: Vec<Tensor> =
        (0..branches).map(|_| Tensor::randn(&[n, oc, side, side], 0.0, 1.0, &mut rng)).collect();
    let refs: Vec<&Tensor> = gs.iter().collect();
    // Build the pool first: its threads and queues are not the call's.
    let threads = rayon::current_num_threads();

    const F32: usize = std::mem::size_of::<f32>();
    let (width, positions) = (c * 9, side * side);
    let outputs = branches * oc * width * F32;
    let column = n * positions * width.next_multiple_of(NR) * F32;
    // The fork rule cuts two ranges of whole MR-row strips per thread, and
    // the calling thread runs ranges too; a one-thread pool runs one range.
    let strips = branches * oc / MR;
    let (live_ranges, strips_per_range) =
        if threads == 1 { (1, strips) } else { (threads + 1, strips.div_ceil(2 * threads)) };
    let partials = live_ranges * strips_per_range * MR * width * F32;
    // Per thread: one sample's lowering, and the packed output-gradient rows.
    let scratch = (threads + 1) * (width * positions + strips_per_range * MR * positions) * F32;
    // 64 KiB for the row list, the pool's jobs and other bookkeeping.
    let bound = outputs + column + partials + scratch + (64 << 10);

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let grads = Tensor::conv2d_backward_weight_multi(&refs, &x, &[oc, c, 3, 3], p).expect("shapes");
    let peak = PEAK.load(Relaxed) - before;
    drop(grads);
    eprintln!(
        "{threads} threads: peak {peak} B (outputs {outputs}, column {column}, partials {partials}, scratch {scratch}; bound {bound})"
    );
    assert!(peak <= bound, "{threads} threads: the call peaked at {peak} B over its inputs, bound {bound} B");
}
