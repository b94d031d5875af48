//! `infer_fleet_b8`: closed loop, one thread, no serving stack. An op is one
//! round of eval-mode batch-8 forwards called directly on the models:
//! 12 x MobileNetV1, 4 x ResNet-20, 1 x quadratic ResNet-20 — 136 samples,
//! roughly a third of the time in each architecture.
//!
//! Why: the pure compute ceiling of the served models (depth-wise / grouped,
//! point-wise and quadratic paths). Anything in quadra-serve or
//! quadra-gateway must leave it unchanged, and `serve_fleet_closed` divided
//! by this is the serving stack's overhead.

use super::{closed_loop, forward_spanned, repeat_setup, validity_metrics, Plan, Run, Workload};
use crate::fixtures::{
    build_calibrated, bytes_per_forward, checked_pool, flops_per_sample, mobilenet_config, outputs_match,
    quadra_resnet20_config, resnet20_config_w8, FLEET_IMAGE,
};
use crate::report::{put, Outcome};
use crate::stats;
use quadra_nn::{Layer, Sequential};
use quadra_tensor::Tensor;
use std::time::Instant;

/// Samples per forward.
pub const BATCH: usize = 8;
/// Forwards per round, by architecture: MobileNet, ResNet-20, quadratic ResNet-20.
pub const ROUND: [usize; 3] = [12, 4, 1];

/// One forward of a round.
struct Slot {
    /// Which model takes it.
    model: usize,
    /// The batch-8 input.
    batch: Tensor,
    /// The batch-1 output of each of its samples.
    singles: Vec<Tensor>,
}

struct Setup {
    models: [Sequential; 3],
    slots: Vec<Slot>,
}

fn setup(seed: u64) -> Setup {
    let mut models =
        [mobilenet_config(), resnet20_config_w8(), quadra_resnet20_config()].map(|c| build_calibrated(&c));
    let mut slots = Vec::with_capacity(ROUND.iter().sum());
    for (m, &forwards) in ROUND.iter().enumerate() {
        let pool = checked_pool(
            seed.wrapping_add(m as u64),
            forwards * BATCH,
            &[1, 3, FLEET_IMAGE, FLEET_IMAGE],
            &mut models[m],
        );
        for (inputs, outputs) in pool.inputs.chunks(BATCH).zip(pool.outputs.chunks(BATCH)) {
            let rows: Vec<&Tensor> = inputs.iter().collect();
            let batch = Tensor::concat(&rows, 0).expect("samples share a shape");
            slots.push(Slot { model: m, batch, singles: outputs.to_vec() });
        }
    }
    Setup { models, slots }
}

/// Run the workload.
pub fn run(seed: u64, plan: &Plan) -> Run {
    let (mut s, setup_s) = repeat_setup(plan.setup_repeats, || setup(seed));
    let mut tracer = plan.tracer();
    let samples_per_round = s.slots.len() * BATCH;
    let mut first_round: Option<Vec<Tensor>> = None;
    let mut rounds_differing = 0u64;

    let looped = closed_loop(plan, &mut tracer, |index, tracer| {
        let t = Instant::now();
        let op = tracer.open("infer.round", "", None, index);
        let mut outputs = Vec::with_capacity(s.slots.len());
        for slot in &s.slots {
            let span = tracer.open("model.forward", "", op, index);
            outputs.push(forward_spanned(&mut s.models[slot.model], &slot.batch, false, tracer, span, index));
            s.models[slot.model].clear_cache();
            tracer.close(span);
        }
        tracer.close(op);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        // Every round sees the same inputs, so every round must repeat the first.
        match &first_round {
            None => first_round = Some(outputs),
            Some(first) => {
                if first.iter().zip(&outputs).any(|(a, b)| a.as_slice() != b.as_slice()) {
                    rounds_differing += 1;
                }
            }
        }
        ms
    });

    let limit = Workload::InferFleetB8.limit_ms();
    let mut o = Outcome {
        attempted: looped.op_ms.len() as u64,
        failed: 0,
        correct: true,
        within_limit: looped.op_ms.iter().filter(|&&ms| ms <= limit).count() as u64,
        work_units: (looped.op_ms.len() * samples_per_round) as u64,
        elapsed_s: looped.elapsed_s,
        setup_s,
        op_ms: looped.op_ms,
        ..Outcome::default()
    };

    // Correctness.
    o.require(rounds_differing == 0, || format!("{rounds_differing} rounds differed from the first round"));
    let first = first_round.expect("at least one round ran");
    for (slot, batched) in s.slots.iter().zip(&first) {
        let m = slot.model;
        let degenerate = batched.as_slice().iter().all(|v| v.abs() < 1e-6);
        o.require(!batched.has_non_finite() && !degenerate, || {
            format!("model {m} output is non-finite or all zero")
        });
        for (i, single) in slot.singles.iter().enumerate() {
            let row = batched.narrow(0, i, 1).expect("row");
            o.require(outputs_match(&row, single), || {
                format!("model {m}: batch-8 row {i} differs from batch-1")
            });
        }
    }

    if let Some(cost) = looped.window_cost {
        let layer = &mut o.layer;
        validity_metrics(layer, cost, o.op_ms.len(), &o.op_ms, &looped.reference_ms);
        let totals = tracer.totals();
        if let Some(t) = totals.get(&("infer.round", "")).filter(|t| t.total_ns > 0) {
            // Share of a round the per-layer spans cover (model.forward spans nest them).
            let forward_self = totals.get(&("model.forward", "")).map_or(0, |f| f.self_ns);
            layer
                .insert("trace.stage_sum_share", 1.0 - (t.self_ns + forward_self) as f64 / t.total_ns as f64);
        }
        for (ty, name) in [("conv2d", "nn.conv2d.fwd_ms"), ("residual", "nn.residual.fwd_ms")] {
            put(layer, name, stats::median(&tracer.per_op_ms(|sp| sp.name == ty && sp.phase == "fwd")));
        }
        let configs = [mobilenet_config(), resnet20_config_w8(), quadra_resnet20_config()];
        let per_round = |f: &dyn Fn(&quadra_core::ModelConfig) -> f64| -> f64 {
            configs.iter().zip(ROUND).map(|(c, n)| f(c) * n as f64).sum()
        };
        layer.insert("tensor.flops_per_op", per_round(&|c| flops_per_sample(c) * BATCH as f64));
        layer.insert("tensor.bytes_per_op", per_round(&|c| bytes_per_forward(c, BATCH)));
    }
    Run { outcome: o, tracer }
}
