//! `train_quadra`: closed loop, one thread. Two identically seeded trainers
//! of a 4-stage quadratic CNN step on the same mini-batches — even ops step
//! the default-BP trainer, odd ops the hybrid-BP trainer.
//!
//! Why: the paper's core — quadratic conv forward and backward, hybrid-BP
//! recompute, optimiser — does all the work in quadra-tensor / quadra-nn /
//! quadra-core and none in serve or gateway, and it uses the kernels the way
//! inference never does (training-mode caches, `gemm_tn` / `gemm_nt`,
//! `col2im`), so a forward-only kernel win that costs backward shows here.

use super::{closed_loop, forward_spanned, repeat_setup, validity_metrics, Plan, Run, Workload};
use crate::fixtures::{train_cnn_config, MODEL_SEED};
use crate::report::{put, Outcome};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use quadra_autograd::{check_close, numeric_gradient};
use quadra_core::{build_model, NeuronType, QuadraticConv2d};
use quadra_data::{synth_cifar10, ShapeImageDataset};
use quadra_nn::{CrossEntropyLoss, Layer, Loss, Optimizer, Sequential, Sgd, SgdConfig};
use quadra_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::time::Instant;

/// Mini-batch size.
pub const BATCH: usize = 16;
/// Images generated per run; mini-batches are drawn from them with replacement.
const DATASET: usize = 512;
/// The loss criterion is judged only once each trainer has stepped this often.
const MIN_STEPS_FOR_LOSS_CHECK: usize = 60;
/// Largest tolerated step-wise relative loss gap between the two trainers.
const LOSS_GAP_TOL: f64 = 1e-4;
/// Largest tolerated gradient error, relative to the largest gradient entry.
const GRADCHECK_TOL: f64 = 2e-2;

const MODES: [&str; 2] = ["default", "hybrid"];

struct TrainerState {
    model: Sequential,
    optimizer: Sgd,
    losses: Vec<f32>,
    cached_bytes: usize,
}

struct Setup {
    data: ShapeImageDataset,
    trainers: [TrainerState; 2],
    generate_s: f64,
    build_model_s: f64,
}

fn setup(seed: u64) -> Setup {
    let t = Instant::now();
    let data = synth_cifar10(DATASET, seed);
    let generate_s = t.elapsed().as_secs_f64();
    let config = train_cnn_config();
    let sgd = SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4, nesterov: false };
    let mut build_model_s = 0.0;
    let trainers = [false, true].map(|hybrid| {
        let t = Instant::now();
        let mut model = build_model(&config, &mut StdRng::seed_from_u64(MODEL_SEED));
        build_model_s = t.elapsed().as_secs_f64();
        model.set_memory_saving(hybrid);
        TrainerState { model, optimizer: Sgd::new(sgd), losses: Vec::new(), cached_bytes: 0 }
    });
    Setup { data, trainers, generate_s, build_model_s }
}

fn backward_spanned(
    model: &mut Sequential,
    grad: &Tensor,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    op_id: u64,
) {
    if !tracer.enabled() {
        let _ = model.backward(grad);
        return;
    }
    let mut cur = grad.clone();
    for layer in model.layers_mut().iter_mut().rev() {
        let span = tracer.open(layer.layer_type(), "bwd", parent, op_id);
        cur = layer.backward(&cur);
        tracer.close(span);
    }
}

/// One training step: forward, loss, backward, optimiser. Returns the loss.
fn step(
    t: &mut TrainerState,
    x: &Tensor,
    y: &Tensor,
    mode: &'static str,
    tracer: &mut Tracer,
    op_id: u64,
) -> f32 {
    let loss_fn = CrossEntropyLoss::new();
    let op = tracer.open("train.step", mode, None, op_id);
    let fwd = tracer.open("forward", "", op, op_id);
    let logits = forward_spanned(&mut t.model, x, true, tracer, fwd, op_id);
    tracer.close(fwd);
    t.cached_bytes = t.model.cached_bytes();
    let span = tracer.open("loss", "", op, op_id);
    let (loss, grad) = loss_fn.compute(&logits, y);
    tracer.close(span);
    let bwd = tracer.open("backward", "", op, op_id);
    backward_spanned(&mut t.model, &grad, tracer, bwd, op_id);
    tracer.close(bwd);
    let span = tracer.open("optim.step", "", op, op_id);
    let mut params = t.model.params_mut();
    t.optimizer.step(&mut params);
    t.optimizer.zero_grad(&mut params);
    drop(params);
    tracer.close(span);
    tracer.close(op);
    loss
}

/// Compare the hand-written gradients of the paper's quadratic convolution
/// against central finite differences, with respect to the input and to the
/// first weight branch. Returns the largest error relative to the largest
/// gradient entry.
fn gradcheck(hybrid: bool) -> f64 {
    let mut rng = StdRng::seed_from_u64(44);
    let mut layer = QuadraticConv2d::new(NeuronType::Ours, 2, 3, 3, 1, 1, 1, &mut rng);
    layer.set_memory_saving(hybrid);
    let x = Tensor::randn(&[2, 2, 5, 5], 0.0, 1.0, &mut rng);
    let y = layer.forward(&x, true);
    let probe = Tensor::randn(y.shape(), 0.0, 1.0, &mut rng);
    let grad_x = layer.backward(&probe);
    let grad_w = layer.params()[0].grad.clone();
    let w0 = layer.params()[0].value.clone();

    let layer = RefCell::new(layer);
    let scalar = |x: &Tensor| -> f32 {
        let mut l = layer.borrow_mut();
        let out = l.forward(x, true);
        l.clear_cache();
        out.mul(&probe).expect("shape").as_slice().iter().sum()
    };
    let relative = |analytic: &Tensor, numeric: &Tensor| {
        let scale = analytic.as_slice().iter().fold(1e-6f32, |m, v| m.max(v.abs()));
        f64::from(check_close(analytic, numeric).max_abs_err / scale)
    };
    let err_x = relative(&grad_x, &numeric_gradient(scalar, &x, 1e-2));
    let wrt_weight = |w: &Tensor| -> f32 {
        layer.borrow_mut().params_mut()[0].value = w.clone();
        scalar(&x)
    };
    let err_w = relative(&grad_w, &numeric_gradient(wrt_weight, &w0, 1e-2));
    err_x.max(err_w)
}

/// Run the workload.
pub fn run(seed: u64, plan: &Plan) -> Run {
    let (mut s, setup_s) = repeat_setup(plan.setup_repeats, || setup(seed));
    let mut tracer = plan.tracer();
    let mut batch_rng = StdRng::seed_from_u64(seed ^ 0x5eed_ba7c);
    let mut batch = (Tensor::zeros(&[1]), Tensor::zeros(&[1]));
    let mut select_ms = Vec::new();
    let mut max_gap = 0.0f64;

    let looped = closed_loop(plan, &mut tracer, |index, tracer| {
        let which = (index % 2) as usize;
        if which == 0 {
            // Both trainers step on this mini-batch; selecting it is not part of the op.
            let t = Instant::now();
            let rows: Vec<usize> = (0..BATCH).map(|_| batch_rng.gen_range(0..DATASET)).collect();
            batch = (
                s.data.images.select_rows(&rows).expect("rows in range"),
                s.data.labels.select_rows(&rows).expect("rows in range"),
            );
            select_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let t = Instant::now();
        let loss = step(&mut s.trainers[which], &batch.0, &batch.1, MODES[which], tracer, index);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        s.trainers[which].losses.push(loss);
        if which == 1 {
            let d = f64::from(*s.trainers[0].losses.last().expect("default stepped first"));
            max_gap = max_gap.max((d - f64::from(loss)).abs() / d.abs().max(1e-12));
        }
        ms
    });

    let limit = Workload::TrainQuadra.limit_ms();
    let mut o = Outcome {
        attempted: looped.op_ms.len() as u64,
        failed: 0,
        correct: true,
        within_limit: looped.op_ms.iter().filter(|&&ms| ms <= limit).count() as u64,
        work_units: (looped.op_ms.len() * BATCH) as u64,
        elapsed_s: looped.elapsed_s,
        setup_s,
        op_ms: looped.op_ms,
        ..Outcome::default()
    };

    // Correctness.
    for (t, mode) in s.trainers.iter().zip(MODES) {
        o.require(t.losses.iter().all(|l| l.is_finite()), || {
            format!("{mode} trainer produced a non-finite loss")
        });
        if t.losses.len() >= MIN_STEPS_FOR_LOSS_CHECK {
            let first = f64::from(t.losses[0]);
            let tail: Vec<f64> = t.losses[t.losses.len() - 8..].iter().map(|&l| f64::from(l)).collect();
            let last = stats::mean(&tail).expect("eight losses");
            o.require(last < 0.25 * first, || {
                format!(
                    "{mode} trainer did not learn: loss {first:.4} -> {last:.4} over {} steps",
                    t.losses.len()
                )
            });
        } else {
            o.notes.push(format!(
                "{mode} trainer stepped {} times; the loss criterion needs {MIN_STEPS_FOR_LOSS_CHECK} and was not judged",
                t.losses.len()
            ));
        }
    }
    o.require(max_gap <= LOSS_GAP_TOL, || {
        format!("default and hybrid losses diverged: max relative gap {max_gap:e}")
    });
    let (cached_d, cached_h) = (s.trainers[0].cached_bytes, s.trainers[1].cached_bytes);
    o.require(cached_h < cached_d, || {
        format!("hybrid caches {cached_h} B, not less than default {cached_d} B")
    });
    let t = Instant::now();
    let grad_err = gradcheck(false).max(gradcheck(true));
    let gradcheck_s = t.elapsed().as_secs_f64();
    o.require(grad_err <= GRADCHECK_TOL, || {
        format!("QuadraticConv2d gradient error {grad_err:e} exceeds {GRADCHECK_TOL}")
    });

    if let Some(cost) = looped.window_cost {
        let layer = &mut o.layer;
        validity_metrics(layer, cost, o.op_ms.len(), &o.op_ms, &looped.reference_ms);
        // Share of a step the forward / loss / backward / optimiser spans cover.
        let totals = tracer.totals();
        let (step_total, step_self) = MODES.iter().fold((0u64, 0u64), |acc, mode| {
            let t = totals.get(&("train.step", *mode)).copied().unwrap_or_default();
            (acc.0 + t.total_ns, acc.1 + t.self_ns)
        });
        if step_total > 0 {
            layer.insert("trace.stage_sum_share", 1.0 - step_self as f64 / step_total as f64);
        }
        let per_op_p50 = |name: &str, phase: &str, parity: Option<u64>| {
            stats::median(&tracer.per_op_ms(|sp| {
                sp.name == name && sp.phase == phase && parity.is_none_or(|p| sp.op_id % 2 == p)
            }))
        };
        for (ty, fwd, bwd) in [
            ("batchnorm2d", "nn.batchnorm2d.fwd_ms", "nn.batchnorm2d.bwd_ms"),
            ("relu", "nn.relu.fwd_ms", "nn.relu.bwd_ms"),
            ("maxpool2d", "nn.maxpool2d.fwd_ms", "nn.maxpool2d.bwd_ms"),
            ("global_avg_pool", "nn.global_avg_pool.fwd_ms", "nn.global_avg_pool.bwd_ms"),
            ("linear", "nn.linear.fwd_ms", "nn.linear.bwd_ms"),
        ] {
            put(layer, fwd, per_op_p50(ty, "fwd", None));
            put(layer, bwd, per_op_p50(ty, "bwd", None));
        }
        put(layer, "nn.loss.ms", per_op_p50("loss", "", None));
        put(layer, "nn.optim.step_ms", per_op_p50("optim.step", "", None));
        for (parity, fwd, bwd, step_name) in [
            (0, "core.qconv.fwd_ms.default", "core.qconv.bwd_ms.default", "core.step_ms_p50.default"),
            (1, "core.qconv.fwd_ms.hybrid", "core.qconv.bwd_ms.hybrid", "core.step_ms_p50.hybrid"),
        ] {
            put(layer, fwd, per_op_p50("quadratic_conv2d", "fwd", Some(parity)));
            put(layer, bwd, per_op_p50("quadratic_conv2d", "bwd", Some(parity)));
            let ms: Vec<f64> = o
                .op_ms
                .iter()
                .enumerate()
                .filter(|(i, _)| (looped.first_window_op + *i as u64) % 2 == parity)
                .map(|(_, &ms)| ms)
                .collect();
            put(layer, step_name, stats::median(&ms));
        }
        let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
        layer.insert("core.cached_mib.default", mib(cached_d));
        layer.insert("core.cached_mib.hybrid", mib(cached_h));
        layer.insert("core.hybrid.memory_saving_share", 1.0 - cached_h as f64 / cached_d.max(1) as f64);
        if let (Some(&d), Some(&h)) =
            (layer.get("core.step_ms_p50.default"), layer.get("core.step_ms_p50.hybrid"))
        {
            layer.insert("core.hybrid.time_overhead_share", h / d - 1.0);
        }
        layer.insert("core.hybrid.loss_gap", max_gap);
        layer.insert("core.build_model_s", s.build_model_s);
        layer.insert("data.generate_s", s.generate_s);
        put(layer, "data.batch_select_ms", stats::median(&select_ms));
        layer.insert("autograd.gradcheck_max_rel_err", grad_err);
        layer.insert("autograd.gradcheck_s", gradcheck_s);
        // Computed from shapes: a step is one forward and two backward products.
        let config = train_cnn_config();
        layer.insert("tensor.flops_per_op", 3.0 * crate::fixtures::flops_per_sample(&config) * BATCH as f64);
        layer.insert("tensor.bytes_per_op", 3.0 * crate::fixtures::bytes_per_forward(&config, BATCH));
    }
    Run { outcome: o, tracer }
}
