//! Regression: kernel scratch buffers must survive re-entrancy.
//!
//! A thread waiting in `rayon::join` executes *other* callers' queued jobs.
//! When the blocked GEMM held its thread-local packing buffer through a
//! `RefCell` borrow across its row-block fork, a second convolution stolen
//! onto the waiting thread asked for the same buffer and panicked with
//! `RefCell already borrowed` — inside a serve worker that is an errored
//! reply, on a benchmark thread a lost result. The rule since: no borrow, lock
//! or thread-local guard is live across a call that can reach `join`.

use quadra_tensor::{Conv2dParams, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPool;
use std::sync::Arc;

const ROUNDS: usize = 150;

/// Loop three kernels on three threads sharing one pool: the two
/// convolutions of the original report (a batch-1 conv whose single product
/// used to fork over row blocks while holding the packing buffer, and a
/// batch-8 conv that forks over samples), plus a matmul that holds its packed
/// `B` panel across a row-range fork today. Panics if any iteration panicked
/// or drifted from that thread's first result.
fn hammer(install: Option<Arc<ThreadPool>>) {
    let p = Conv2dParams::new(1, 1, 1);
    let mut rng = StdRng::seed_from_u64(5);
    let big = (
        Tensor::randn(&[1, 64, 32, 32], 0.0, 1.0, &mut rng),
        Tensor::randn(&[64, 64, 3, 3], 0.0, 0.1, &mut rng),
    );
    let batch = (
        Tensor::randn(&[8, 16, 16, 16], 0.0, 1.0, &mut rng),
        Tensor::randn(&[16, 16, 3, 3], 0.0, 0.1, &mut rng),
    );
    let mats =
        (Tensor::randn(&[256, 256], 0.0, 1.0, &mut rng), Tensor::randn(&[256, 256], 0.0, 1.0, &mut rng));

    let jobs: Vec<Box<dyn Fn() -> Tensor + Send>> = vec![
        Box::new(move || big.0.conv2d(&big.1, None, p).expect("conv shapes")),
        Box::new(move || batch.0.conv2d(&batch.1, None, p).expect("conv shapes")),
        Box::new(move || mats.0.matmul(&mats.1).expect("matmul shapes")),
    ];
    let handles: Vec<_> = jobs
        .into_iter()
        .map(|job| {
            let pool = install.clone();
            std::thread::spawn(move || {
                let run = || {
                    let first = job();
                    for round in 0..ROUNDS {
                        assert_eq!(
                            job().as_slice(),
                            first.as_slice(),
                            "round {round} differs from the first"
                        );
                    }
                };
                match &pool {
                    Some(pool) => pool.install(run),
                    None => run(),
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("a kernel panicked while another caller's job ran on its thread");
    }
}

#[test]
fn concurrent_kernels_on_the_global_pool() {
    hammer(None);
}

#[test]
fn concurrent_kernels_on_an_installed_pool() {
    // The global pool is sized from the host; a one-core runner would never
    // fork, so repeat on a pool that always can.
    hammer(Some(Arc::new(ThreadPool::new(4))));
}
