//! Property-based tests of the blocked GEMM kernels against the naive
//! triple-loop reference: random shapes including edge sizes 0/1 and sizes
//! that are not multiples of the MR×NR tile, plus the transpose-free
//! `nt`/`tn` variants against transpose-then-gemm, and bitwise agreement of
//! the in-place and packed `B` layouts on every pool size.

use proptest::prelude::*;
use quadra_tensor::gemm::{gemm, gemm_blocked, gemm_naive, gemm_nt, gemm_tn};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rayon::ThreadPool;

fn randvec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
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

fn assert_close(fast: &[f32], slow: &[f32], tol: f32) {
    assert_eq!(fast.len(), slow.len());
    for (i, (x, y)) in fast.iter().zip(slow.iter()).enumerate() {
        assert!((x - y).abs() <= tol, "index {}: {} vs {}", i, x, y);
    }
}

/// Dimension strategy biased toward tile boundaries: 0, 1, multiples of 8 and
/// their neighbours, and sizes past 128 (129, 300); 300 also exceeds one
/// KC = 256 k-panel when drawn for `k`.
fn dim() -> impl Strategy<Value = usize> {
    proptest::sample::select(vec![0usize, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 24, 31, 33, 40, 65, 70, 129, 300])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked GEMM ≡ naive reference for random shapes and data.
    #[test]
    fn blocked_matches_naive((m, k, n) in (dim(), dim(), dim()), seed in 0u64..1_000_000) {
        let a = randvec(m * k, seed);
        let b = randvec(k * n, seed ^ 0xdead_beef);
        let slow = gemm_naive(&a, &b, m, k, n);
        let tol = 1e-4 * (k.max(1) as f32);
        assert_close(&gemm_blocked(&a, &b, m, k, n), &slow, tol);
        // The public entry point (row-parallel for large products) must agree
        // as well.
        assert_close(&gemm(&a, &b, m, k, n), &slow, tol);
    }

    /// `gemm_nt` ≡ transpose B then gemm.
    #[test]
    fn nt_matches_transpose_then_gemm((m, k, n) in (dim(), dim(), dim()), seed in 0u64..1_000_000) {
        let a = randvec(m * k, seed.wrapping_add(1));
        let bt = randvec(n * k, seed.wrapping_add(2)); // stored [n, k]
        let b = transpose(&bt, n, k);
        let slow = gemm_naive(&a, &b, m, k, n);
        let tol = 1e-4 * (k.max(1) as f32);
        assert_close(&gemm_nt(&a, &bt, m, k, n), &slow, tol);
    }

    /// `gemm_tn` ≡ transpose A then gemm.
    #[test]
    fn tn_matches_transpose_then_gemm((m, k, n) in (dim(), dim(), dim()), seed in 0u64..1_000_000) {
        let at = randvec(k * m, seed.wrapping_add(3)); // stored [k, m]
        let a = transpose(&at, k, m);
        let b = randvec(k * n, seed.wrapping_add(4));
        let slow = gemm_naive(&a, &b, m, k, n);
        let tol = 1e-4 * (k.max(1) as f32);
        assert_close(&gemm_tn(&at, &b, m, k, n), &slow, tol);
    }
}

/// Thread counts the parallel tests sweep: degenerate, smallest real pool,
/// and whatever the host offers.
fn pool_sizes() -> [usize; 3] {
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    [1, 2, avail]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The parallel dispatcher agrees with the naive reference regardless of
    /// how many work-stealing threads execute the row blocks.
    #[test]
    fn parallel_matches_naive_across_pool_sizes((m, k, n) in (dim(), dim(), dim()), seed in 0u64..1_000_000) {
        let a = randvec(m * k, seed ^ 0x5eed);
        let b = randvec(k * n, seed ^ 0xfeed);
        let slow = gemm_naive(&a, &b, m, k, n);
        let tol = 1e-4 * (k.max(1) as f32);
        for threads in pool_sizes() {
            let pool = ThreadPool::new(threads);
            let fast = pool.install(|| gemm(&a, &b, m, k, n));
            assert_close(&fast, &slow, tol);
        }
    }
}

/// Deterministic MR/NR/KC edge coverage through every pool size: shapes
/// straddle the 8×16 micro-tile, 128 rows, and the KC = 256
/// k-panel, and the larger ones clear the crate's fork constant (4 M
/// multiply-adds per k-panel) so their row ranges really run as stealable
/// pool tasks.
#[test]
fn parallel_gemm_tile_edges_across_thread_counts() {
    let shapes = [
        (7usize, 9usize, 8usize), // under one MR×NR tile, stays inline
        (129, 256, 128),          // one row past a whole MR strip, exactly one KC panel
        (136, 257, 128),          // whole MR strips, one past KC (second panel inline)
        (300, 70, 201),           // several row ranges, ragged NR edge
        (256, 300, 70),           // k spans two KC panels, ragged NR edge
    ];
    for threads in pool_sizes() {
        let pool = ThreadPool::new(threads);
        for &(m, k, n) in &shapes {
            let a = randvec(m * k, (m * 31 + k * 7 + n) as u64);
            let b = randvec(k * n, (m + k * 13 + n * 3) as u64);
            let slow = gemm_naive(&a, &b, m, k, n);
            let tol = 1e-4 * (k as f32);
            let fast = pool.install(|| gemm(&a, &b, m, k, n));
            assert_close(&fast, &slow, tol);
        }
    }
}

/// A row-major `B` is read in place and a stored-transposed one is packed;
/// both feed the same micro-kernel in the same order, so `gemm` and `gemm_nt`
/// agree to the bit with each other on every pool size, and every pool size
/// agrees to the bit with a one-thread pool. The shapes straddle the 16-wide
/// tile edge and the larger ones clear the fork constant.
#[test]
fn b_layouts_agree_bitwise_across_thread_counts() {
    let shapes = [
        (7usize, 9usize, 8usize), // under one tile: all of B is the padded edge
        (16, 27, 1024),           // conv stem shape, whole 16-wide blocks
        (129, 256, 128),
        (136, 257, 134), // second KC panel, ragged right edge
        (300, 70, 201),
        (256, 300, 73),
    ];
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for &(m, k, n) in &shapes {
        let a = randvec(m * k, (m * 17 + k * 5 + n) as u64);
        let b = randvec(k * n, (m + k * 11 + n * 7) as u64);
        let bt = transpose(&b, k, n);
        let single = bits(&ThreadPool::new(1).install(|| gemm(&a, &b, m, k, n)));
        for threads in pool_sizes() {
            let pool = ThreadPool::new(threads);
            let (in_place, packed) = pool.install(|| (gemm(&a, &b, m, k, n), gemm_nt(&a, &bt, m, k, n)));
            assert!(bits(&in_place) == single, "({m},{k},{n}) in-place B on {threads} threads");
            assert!(bits(&packed) == single, "({m},{k},{n}) packed B on {threads} threads");
        }
    }
}
