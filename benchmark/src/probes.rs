//! Layer probes of the traced run: calibration loops, kernel and model
//! timings taken by calling each crate's public functions directly. They do
//! not depend on the workload, so a per-layer figure means the same thing in
//! every traced run. Shapes are those of the benchmark's own models.

use crate::fixtures::{
    build_calibrated, flops_per_sample, mobilenet_config, quadra_resnet20_config, resnet20_config_w8,
    FLEET_IMAGE,
};
use crate::report::{put, LayerMetrics};
use crate::stats;
use quadra_core::{NeuronType, QuadraticConv2d};
use quadra_nn::{Conv2d, Layer};
use quadra_tensor::gemm::{gemm, gemm_blocked, gemm_naive};
use quadra_tensor::{im2col, Conv2dParams, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seconds per call of `f`: the best of three batches, each long enough
/// (`at_least`) for the clock to resolve it.
fn seconds_per_call(at_least: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let calls = ((at_least.as_secs_f64() / once).ceil() as usize).clamp(1, 1_000_000);
    (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

const PROBE: Duration = Duration::from_millis(20);

/// Single-thread fused-multiply-add rate of the benchmark's own loop: twelve
/// independent 8-lane accumulator chains, enough to cover FMA latency.
fn peak_gflops() -> f64 {
    const CHAINS: usize = 12;
    const LANES: usize = 8;
    const STEPS: usize = 200_000;
    let mut acc = [[0.5f32; LANES]; CHAINS];
    let (mul, add) = (black_box([0.999_9f32; LANES]), black_box([1e-4f32; LANES]));
    let secs = seconds_per_call(PROBE, || {
        for _ in 0..STEPS {
            for chain in acc.iter_mut() {
                for l in 0..LANES {
                    chain[l] = chain[l].mul_add(mul[l], add[l]);
                }
            }
        }
        black_box(&mut acc);
    });
    (STEPS * CHAINS * LANES * 2) as f64 / secs / 1e9
}

/// Single-thread STREAM-triad rate over arrays far larger than the caches.
/// Counts the three streams the loop names (no write-allocate traffic).
fn triad_gbytes_per_s() -> f64 {
    const N: usize = 8 << 20;
    let (b, c) = (vec![1.0f32; N], vec![2.0f32; N]);
    let mut a = vec![0.0f32; N];
    let secs = seconds_per_call(Duration::from_millis(60), || {
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + 3.0 * *c;
        }
        black_box(&mut a);
    });
    (3 * N * 4) as f64 / secs / 1e9
}

/// `(m, k, n)` of the products the benchmark's models perform per sample:
/// the four stages of the training CNN, ResNet-20's stem / stage convs, and
/// the MLP's two layers at batch 8.
const GEMM_SHAPES: [(usize, usize, usize); 10] = [
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
];

fn randn(shape: &[usize], rng: &mut StdRng) -> Tensor {
    Tensor::randn(shape, 0.0, 1.0, rng)
}

fn tensor_probes(layer: &mut LayerMetrics, notes: &mut Vec<String>, rng: &mut StdRng) {
    let peak = peak_gflops();
    let triad = triad_gbytes_per_s();
    layer.insert("tensor.calib.peak_gflops", peak);
    layer.insert("tensor.calib.triad_gbytes_per_s", triad);

    let threads = rayon::current_num_threads();
    let mut dispatch_gflops = Vec::new();
    let mut worst: Option<(f64, (usize, usize, usize))> = None;
    for shape @ (m, k, n) in GEMM_SHAPES {
        let (a, b) = (randn(&[m, k], rng), randn(&[k, n], rng));
        let (a, b) = (a.as_slice(), b.as_slice());
        let naive = seconds_per_call(PROBE, || drop(black_box(gemm_naive(a, b, m, k, n))));
        let blocked = seconds_per_call(PROBE, || drop(black_box(gemm_blocked(a, b, m, k, n))));
        let dispatched = seconds_per_call(PROBE, || drop(black_box(gemm(a, b, m, k, n))));
        dispatch_gflops.push((2 * m * k * n) as f64 / dispatched / 1e9);
        if worst.is_none_or(|(ratio, _)| naive / blocked < ratio) {
            worst = Some((naive / blocked, shape));
        }
        if shape == (128, 576, 16) {
            // The one probe shape the dispatcher runs row-parallel.
            layer.insert("tensor.gemm.parallel_speedup", blocked / dispatched);
        }
    }
    if let Some(p50) = stats::median(&dispatch_gflops) {
        layer.insert("tensor.gemm.gflops_p50", p50);
        // Base: the single-thread FMA rate above times the pool's threads.
        layer.insert("tensor.gemm.ceiling_share", p50 / (peak * threads as f64));
    }
    if let Some((ratio, (m, k, n))) = worst {
        layer.insert("tensor.gemm.blocked_vs_naive_min", ratio);
        notes.push(format!("tensor.gemm.blocked_vs_naive_min {ratio:.3} is at shape m={m} k={k} n={n} (naive time / blocked time)"));
    }

    // Training-CNN conv geometry at its batch size: (in, out, side).
    let stages = [(3usize, 16usize, 32usize), (16, 32, 16), (32, 64, 8), (64, 128, 4)];
    let params = Conv2dParams::new(1, 1, 1);
    let batch = crate::workloads::train::BATCH;
    let (mut fwd, mut bwd_in, mut bwd_w) = (0.0, 0.0, 0.0);
    for (cin, cout, side) in stages {
        let x = randn(&[batch, cin, side, side], rng);
        let w = randn(&[cout, cin, 3, 3], rng);
        let g = randn(&[batch, cout, side, side], rng);
        // A quadratic layer runs each product once per weight branch.
        fwd += 3.0 * seconds_per_call(PROBE, || drop(black_box(x.conv2d(&w, None, params))));
        bwd_in += 3.0
            * seconds_per_call(PROBE, || {
                drop(black_box(Tensor::conv2d_backward_input(&g, &w, x.shape(), params)))
            });
        bwd_w += 3.0
            * seconds_per_call(PROBE, || {
                drop(black_box(Tensor::conv2d_backward_weight(&g, &x, w.shape(), params)))
            });
        if cin == 16 {
            let secs = seconds_per_call(PROBE, || drop(black_box(im2col(&x, 3, 3, params))));
            let bytes = 4 * (x.numel() + batch * cin * 9 * side * side);
            let rate = bytes as f64 / secs / 1e9;
            layer.insert("tensor.im2col.gbytes_per_s", rate);
            layer.insert("tensor.im2col.ceiling_share", rate / triad);
        }
    }
    layer.insert("tensor.conv2d.fwd_ms_per_op", fwd * 1e3);
    layer.insert("tensor.conv2d.bwd_input_ms_per_op", bwd_in * 1e3);
    layer.insert("tensor.conv2d.bwd_weight_ms_per_op", bwd_w * 1e3);
}

fn rayon_probes(layer: &mut LayerMetrics) {
    layer.insert("rayon.threads", rayon::current_num_threads() as f64);
    let us: Vec<f64> = (0..2000)
        .map(|i| {
            let t = Instant::now();
            black_box(rayon::join(|| black_box(i), || black_box(i + 1)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    put(layer, "rayon.join_us_p50", stats::median(&us));
}

fn model_probes(layer: &mut LayerMetrics, rng: &mut StdRng) {
    let probes = [
        (
            mobilenet_config(),
            [
                "models.mobilenet.samples_per_s_b1",
                "models.mobilenet.samples_per_s_b8",
                "models.mobilenet.batch_speedup",
                "models.mobilenet.flops_per_sample",
            ],
        ),
        (
            resnet20_config_w8(),
            [
                "models.resnet20.samples_per_s_b1",
                "models.resnet20.samples_per_s_b8",
                "models.resnet20.batch_speedup",
                "models.resnet20.flops_per_sample",
            ],
        ),
        (
            quadra_resnet20_config(),
            [
                "models.quadra_resnet20.samples_per_s_b1",
                "models.quadra_resnet20.samples_per_s_b8",
                "models.quadra_resnet20.batch_speedup",
                "models.quadra_resnet20.flops_per_sample",
            ],
        ),
    ];
    for (config, [b1, b8, speedup, flops]) in probes {
        let mut model = build_calibrated(&config);
        let mut rate = |batch: usize| {
            let x = randn(&[batch, 3, FLEET_IMAGE, FLEET_IMAGE], rng);
            let secs = seconds_per_call(Duration::from_millis(120), || {
                black_box(model.forward(&x, false));
                model.clear_cache();
            });
            batch as f64 / secs
        };
        let (r1, r8) = (rate(1), rate(8));
        layer.insert(b1, r1);
        layer.insert(b8, r8);
        layer.insert(speedup, r8 / r1);
        // Computed from shapes, two operations per multiply-accumulate.
        layer.insert(flops, flops_per_sample(&config));
    }
}

/// The paper's cost claim at one geometry: a quadratic convolution against a
/// first-order one, eval-mode forward, stage 2 of the training CNN.
fn qconv_probes(layer: &mut LayerMetrics, rng: &mut StdRng) {
    let x = randn(&[crate::workloads::train::BATCH, 16, 16, 16], rng);
    let mut quadratic = QuadraticConv2d::conv3x3(NeuronType::Ours, 16, 32, rng);
    let mut first_order = Conv2d::new(16, 32, 3, 1, 1, 1, false, rng);
    let eval_seconds = |l: &mut dyn Layer| {
        seconds_per_call(PROBE, || {
            black_box(l.forward(&x, false));
            l.clear_cache();
        })
    };
    let (q, f) = (eval_seconds(&mut quadratic), eval_seconds(&mut first_order));
    layer.insert("core.qconv.fwd_eval_ms", q * 1e3);
    layer.insert("core.qconv.vs_first_order_ratio", q / f);
}

/// Run every probe, adding its metrics to `layer`.
pub fn run(layer: &mut LayerMetrics, notes: &mut Vec<String>) {
    let mut rng = StdRng::seed_from_u64(crate::fixtures::MODEL_SEED);
    tensor_probes(layer, notes, &mut rng);
    rayon_probes(layer);
    model_probes(layer, &mut rng);
    qconv_probes(layer, &mut rng);
}
