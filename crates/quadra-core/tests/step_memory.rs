//! Training-cache size and live-heap peak of one SGD step of the 4-stage
//! quadratic CNN at batch 16 (the repo benchmark's `train_quadra` model).
//!
//! Each layer keeps what its backward needs at its information size: f32
//! where a value is needed, one bit per element where only a sign or a
//! dropout draw is (ReLU, dropout), one byte per output where only a window
//! position is (max-pool). The closed form below states that per layer;
//! the heap bound holds a default step to it.
//!
//! The counting allocator sees every thread of the process, so this file
//! holds exactly one test: nothing else may allocate while it measures.

mod common;

use common::{cnn, sgd};
use quadra_core::build_model;
use quadra_nn::{CrossEntropyLoss, Layer, Loss, Optimizer, Sequential, Sgd};
use quadra_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

const BATCH: usize = 16;
/// `(in channels, out channels, side)` of the four quadratic stages; a
/// 2×2 max-pool follows each of the first three.
const STAGES: [(usize, usize, usize); 4] = [(3, 16, 32), (16, 32, 16), (32, 64, 8), (64, 128, 4)];

/// Bytes the CNN caches after a training forward at [`BATCH`].
fn closed_form(hybrid: bool) -> usize {
    const F32: usize = 4;
    let mut bytes = 0;
    for (i, &(c_in, c_out, side)) in STAGES.iter().enumerate() {
        let (x, z) = (BATCH * c_in * side * side, BATCH * c_out * side * side);
        // The quadratic layer: its input, and in default BP the two branch
        // outputs its product `(Wa·x) ∘ (Wb·x)` reads.
        bytes += x * F32 + if hybrid { 0 } else { 2 * z * F32 };
        // Batch-norm: x̂, and one inverse deviation per channel.
        bytes += z * F32 + c_out * F32;
        // ReLU: one bit per element.
        bytes += z.div_ceil(8);
        // Max-pool: one window offset byte per output.
        if i + 1 < STAGES.len() {
            bytes += z / 4;
        }
    }
    // The classifier's input, after global average pooling.
    bytes + BATCH * 128 * F32
}

fn step(model: &mut Sequential, optimizer: &mut Sgd, data: &mut StdRng) -> usize {
    let x = Tensor::randn(&[BATCH, 3, 32, 32], 0.0, 1.0, data);
    let labels: Vec<f32> = (0..BATCH).map(|_| data.gen_range(0..10) as f32).collect();
    let y = Tensor::from_vec(labels, &[BATCH]).expect("one label per sample");
    let logits = model.forward(&x, true);
    let cached = model.cached_bytes();
    let (_, grad) = CrossEntropyLoss::new().compute(&logits, &y);
    let _ = model.backward(&grad);
    let mut params = model.params_mut();
    optimizer.step(&mut params);
    optimizer.zero_grad(&mut params);
    cached
}

#[test]
fn cnn_step_caches_at_information_size() {
    // Build the pool first: its threads and queues are not the step's.
    let threads = rayon::current_num_threads();
    let mut data = StdRng::seed_from_u64(3);
    for hybrid in [false, true] {
        let mut model = build_model(&cnn(), &mut StdRng::seed_from_u64(11));
        model.set_memory_saving(hybrid);
        let cached = step(&mut model, &mut Sgd::new(sgd()), &mut data);
        assert_eq!(cached, closed_form(hybrid), "hybrid BP: {hybrid}");
    }

    let mut model = build_model(&cnn(), &mut StdRng::seed_from_u64(11));
    let mut optimizer = Sgd::new(sgd());
    // The first step allocates the momentum buffers; measure the second.
    let _ = step(&mut model, &mut optimizer, &mut data);
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    let _ = step(&mut model, &mut optimizer, &mut data);
    let peak = PEAK.load(Relaxed);
    const MIB: f64 = (1 << 20) as f64;
    eprintln!("{threads} threads: live-heap peak of a default step {:.2} MiB", peak as f64 / MIB);
    // Parameters, gradients and momentum (3.4 MiB), the caches (6.4 MiB)
    // and the backward's transients, plus each extra thread's conv scratch.
    // With f32 masks and `usize` argmax the step peaked 2.5 MiB higher
    // (15.4 / 15.8 / 16.7 MiB on 1 / 2 / 4 threads; now 12.9 / 13.3 / 14.3).
    let bound = (14 << 20) + (threads - 1) * (512 << 10);
    assert!(
        peak <= bound,
        "{threads} threads: a default step peaked at {peak} B of live heap, bound {bound} B"
    );
}
