//! The four workloads. Each sets up its inputs from the seed, warms up,
//! measures one window, checks its outputs and returns an [`Outcome`].

pub mod gateway;
pub mod infer;
pub mod serve;
pub mod train;

use crate::report::Outcome;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use quadra_nn::{Layer, Sequential};
use quadra_tensor::Tensor;
use std::time::{Duration, Instant};

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Quadratic-CNN training steps, default and hybrid back-propagation.
    TrainQuadra,
    /// Direct batch-8 forwards of the served models.
    InferFleetB8,
    /// Closed-loop requests through the in-process router.
    ServeFleetClosed,
    /// Open-loop Poisson requests over TCP through the gateway.
    GatewayOpenMlp,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] =
        [Workload::TrainQuadra, Workload::InferFleetB8, Workload::ServeFleetClosed, Workload::GatewayOpenMlp];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainQuadra => "train_quadra",
            Workload::InferFleetB8 => "infer_fleet_b8",
            Workload::ServeFleetClosed => "serve_fleet_closed",
            Workload::GatewayOpenMlp => "gateway_open_mlp",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed per-op latency limit behind `slo_share`, in milliseconds:
    /// two to three times the 95th percentile of a healthy run on the
    /// reference box for the closed loops, so `slo_share` reads ~1.0 until
    /// something breaks and a slow quarter of an hour on a shared machine
    /// does not move it. The open loop's limit is ten times its p95: the
    /// box's vCPUs are descheduled for 25-60 ms several times a window, and
    /// every request due in such a gap is late by up to the gap; a limit near
    /// the body of the distribution would measure the host, not the gateway.
    pub fn limit_ms(self) -> f64 {
        match self {
            Workload::TrainQuadra => 150.0,
            Workload::InferFleetB8 => 100.0,
            Workload::ServeFleetClosed => 150.0,
            Workload::GatewayOpenMlp => 10.0,
        }
    }

    /// Set up, warm up, measure and check this workload.
    pub fn run(self, seed: u64, plan: &Plan) -> Run {
        match self {
            Workload::TrainQuadra => train::run(seed, plan),
            Workload::InferFleetB8 => infer::run(seed, plan),
            Workload::ServeFleetClosed => serve::run(seed, plan),
            Workload::GatewayOpenMlp => gateway::run(seed, plan),
        }
    }
}

/// How long each phase of a run lasts and whether the window is traced.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Warm-up before anything is recorded: caches filled, EWMAs settled,
    /// lazily built replicas built.
    pub warmup: Duration,
    /// Untraced ops run half before and half after a traced window, so that
    /// drift over the run cancels; their median op time is the base of
    /// `trace.overhead_share`. Zero in untraced runs.
    pub reference: Duration,
    /// The measured window.
    pub window: Duration,
    /// Record spans, count allocations and derive per-layer metrics.
    pub traced: bool,
    /// The most times set-up is performed; `setup_s` is the median (see
    /// [`repeat_setup`]).
    pub setup_repeats: usize,
}

impl Plan {
    /// The span buffer of a run: recording in a traced plan, off otherwise.
    pub fn tracer(&self) -> Tracer {
        if self.traced {
            Tracer::on(Instant::now())
        } else {
            Tracer::off()
        }
    }
}

/// The outcome of a run, and its spans when it was traced.
pub struct Run {
    /// Counts, op times and per-layer metrics of the measured window.
    pub outcome: Outcome,
    /// The spans of the measured window.
    pub tracer: Tracer,
}

/// Set-ups are repeated at least this often (when the plan allows), and
/// until they have taken this long in total: a millisecond set-up needs many
/// repeats for a steady median, a half-second one is steady after three.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(1);

/// Perform `setup` up to `max_repeats` times, dropping all but the last
/// product, and return that product with the median set-up time in seconds.
pub fn repeat_setup<T>(max_repeats: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while times.len() < max_repeats.max(1)
        && (times.len() < SETUP_MIN_REPEATS || started.elapsed() < SETUP_MIN_TOTAL)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times).expect("at least one set-up"))
}

/// The phases a closed single-thread loop passes through.
pub struct ClosedLoop {
    /// Op times of the untraced reference slice, in milliseconds.
    pub reference_ms: Vec<f64>,
    /// Op times of the measured window, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Index of the first op of the measured window.
    pub first_window_op: u64,
    /// Length of the measured window: first op start to last op end.
    pub elapsed_s: f64,
    /// Process CPU and allocations over the measured window (traced only).
    pub window_cost: Option<WindowCost>,
}

/// Process-wide cost of a traced window.
#[derive(Debug, Clone, Copy)]
pub struct WindowCost {
    /// User + system CPU microseconds.
    pub cpu_us: u64,
    /// Allocation calls.
    pub alloc_calls: u64,
    /// Bytes requested from the allocator.
    pub alloc_bytes: u64,
}

/// Bracket a traced window: CPU clock and allocation counters.
pub struct CostMeter {
    cpu_before: u64,
}

impl CostMeter {
    /// Start metering (turns the counting allocator on).
    pub fn start() -> CostMeter {
        crate::alloc::start_counting();
        CostMeter { cpu_before: crate::machine::process_cpu_us().unwrap_or(0) }
    }

    /// Stop metering.
    pub fn finish(self) -> WindowCost {
        let counts = crate::alloc::stop_counting();
        let cpu_after = crate::machine::process_cpu_us().unwrap_or(self.cpu_before);
        WindowCost {
            cpu_us: cpu_after.saturating_sub(self.cpu_before),
            alloc_calls: counts.calls,
            alloc_bytes: counts.bytes,
        }
    }
}

/// Drive `op` from one thread: warm-up, then the measured window, bracketed
/// in traced plans by the two halves of the untraced reference slice. `op(index, tracer)` runs one op and
/// returns its time in milliseconds; the tracer it is handed records only
/// during a traced window. Every op started inside a phase is finished and
/// counted in it.
pub fn closed_loop(
    plan: &Plan,
    tracer: &mut Tracer,
    mut op: impl FnMut(u64, &mut Tracer) -> f64,
) -> ClosedLoop {
    let mut off = Tracer::off();
    let mut index = 0u64;
    let mut phase = |length: Duration, tracer: &mut Tracer, index: &mut u64| {
        let mut times = Vec::new();
        let start = Instant::now();
        while start.elapsed() < length {
            times.push(op(*index, tracer));
            *index += 1;
        }
        (times, start.elapsed().as_secs_f64())
    };
    let _ = phase(plan.warmup, &mut off, &mut index);
    let (mut reference_ms, _) = phase(plan.reference / 2, &mut off, &mut index);
    let first_window_op = index;
    let meter = plan.traced.then(CostMeter::start);
    let (op_ms, elapsed_s) = phase(plan.window, tracer, &mut index);
    let window_cost = meter.map(CostMeter::finish);
    reference_ms.extend(phase(plan.reference / 2, &mut off, &mut index).0);
    ClosedLoop { reference_ms, op_ms, first_window_op, elapsed_s, window_cost }
}

/// Forward through `model`, one top-level layer at a time under a span each
/// when tracing; a plain `forward` otherwise.
pub fn forward_spanned(
    model: &mut Sequential,
    x: &Tensor,
    train: bool,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    op_id: u64,
) -> Tensor {
    if !tracer.enabled() {
        return model.forward(x, train);
    }
    let mut cur = x.clone();
    for layer in model.layers_mut().iter_mut() {
        let span = tracer.open(layer.layer_type(), "fwd", parent, op_id);
        cur = layer.forward(&cur, train);
        tracer.close(span);
    }
    cur
}

/// The run-validity metrics every workload derives the same way from its
/// traced window: CPU and allocations per op, and tracing overhead against
/// the untraced reference slice.
pub fn validity_metrics(
    layer: &mut crate::report::LayerMetrics,
    cost: WindowCost,
    ops: usize,
    traced_ms: &[f64],
    reference_ms: &[f64],
) {
    let ops = ops.max(1) as f64;
    layer.insert("proc.cpu_us_per_op", cost.cpu_us as f64 / ops);
    layer.insert("alloc.count_per_op", cost.alloc_calls as f64 / ops);
    layer.insert("alloc.mib_per_op", cost.alloc_bytes as f64 / ops / (1024.0 * 1024.0));
    if let (Some(traced), Some(reference)) = (stats::median(traced_ms), stats::median(reference_ms)) {
        layer.insert("trace.overhead_share", traced / reference - 1.0);
    }
}
