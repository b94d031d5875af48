//! `serve_fleet_closed`: closed loop through the in-process `Router`, with
//! endpoints `first` (ResNet-20) and `quad` (quadratic ResNet-20) at equal
//! weight. Two client threads, one per endpoint, each keep 16 single-sample
//! requests outstanding through `RouterClient::send` / `ResponseHandle::wait`.
//! An op is one request, from `send` to the response in hand.
//!
//! Why: saturates admission, batch formation, the DRR ledger and the worker
//! pool with real compute behind them — the paper's first-order against
//! quadratic comparison, served side by side. With about 3:1 request counts
//! `op_ms_p50` sits inside the `first` mode and `op_ms_p95` inside the `quad`
//! mode, so both are stable; per-endpoint figures are layer metrics.

use super::{repeat_setup, validity_metrics, CostMeter, Plan, Run, WindowCost, Workload};
use crate::fixtures::{
    build_calibrated, checked_pool, outputs_match, pinned_serve_config, quadra_resnet20_config,
    replica_factory, resnet20_config_w8, Pool, FLEET_IMAGE, POOL_SIZE,
};
use crate::report::{put, LayerMetrics, Outcome};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use quadra_nn::StateDict;
use quadra_serve::{Request, ResponseHandle, Router, RouterClient, RouterMetrics, ServeError};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Endpoint names; `first` is ResNet-20, `quad` its quadratic conversion.
pub const ENDPOINTS: [&str; 2] = ["first", "quad"];
/// Requests each client keeps outstanding.
const OUTSTANDING: usize = 16;
/// How often the traced run samples the queue-depth gauge.
const GAUGE_PERIOD: Duration = Duration::from_millis(100);

struct Setup {
    router: Router,
    pools: Vec<Pool>,
    start_s: f64,
}

fn setup(seed: u64) -> Setup {
    let configs = [resnet20_config_w8(), quadra_resnet20_config()];
    let mut builder = Router::builder();
    let mut pools = Vec::new();
    for (e, (name, config)) in ENDPOINTS.iter().zip(configs).enumerate() {
        let mut model = build_calibrated(&config);
        let sample = [1, 3, FLEET_IMAGE, FLEET_IMAGE];
        pools.push(checked_pool(seed.wrapping_add(e as u64), POOL_SIZE, &sample, &mut model));
        let state = Arc::new(StateDict::from_layer(&model));
        builder = builder.endpoint(name, pinned_serve_config(), replica_factory(config, state));
    }
    let t = Instant::now();
    let router = builder.start().expect("router starts");
    let start_s = t.elapsed().as_secs_f64();
    // Replicas are built on their worker threads after `start` returns; the
    // first reply of each endpoint is the moment it can serve.
    let client = router.client();
    for (name, pool) in ENDPOINTS.iter().zip(&pools) {
        let _ = client.infer(name, pool.inputs[0].clone()).expect("endpoint answers its first request");
    }
    Setup { router, pools, start_s }
}

/// When each phase of the run starts, shared by every thread: warm-up, half
/// the untraced reference slice, the window, the other half.
#[derive(Clone, Copy)]
struct Phases {
    reference_start: Instant,
    window_start: Instant,
    window_end: Instant,
    end: Instant,
}

impl Phases {
    fn starting_now(plan: &Plan) -> Phases {
        let reference_start = Instant::now() + plan.warmup;
        let window_start = reference_start + plan.reference / 2;
        let window_end = window_start + plan.window;
        Phases { reference_start, window_start, window_end, end: window_end + plan.reference / 2 }
    }

    fn at(&self, t: Instant) -> Phase {
        if t < self.reference_start {
            Phase::Warmup
        } else if t < self.window_start || t >= self.window_end {
            Phase::Reference
        } else {
            Phase::Window
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Warmup,
    Reference,
    Window,
}

/// One answered request of the measured window.
struct Sample {
    op_ms: f64,
    submit_us: f64,
    queue_wait_ms: f64,
    execute_ms: f64,
    delivery_ms: f64,
}

#[derive(Default)]
struct ClientReport {
    window: Vec<Sample>,
    reference_op_ms: Vec<f64>,
    /// Requests handed to `send`, all phases.
    sent: u64,
    /// Requests answered with an output, all phases.
    answered: u64,
    window_attempted: u64,
    shed: u64,
    expired: u64,
    cancelled: u64,
    errored: u64,
    /// Replies whose output, id or model did not match what was sent.
    mismatched: u64,
    /// When the last request of the window was answered.
    last_completion: Option<Instant>,
}

struct InFlight {
    handle: ResponseHandle,
    send_start: Instant,
    send_end: Instant,
    slot: usize,
    phase: Phase,
}

fn client_loop(
    name: &'static str,
    client: RouterClient,
    pool: &Pool,
    phases: Phases,
    mut tracer: Tracer,
) -> (ClientReport, Tracer) {
    let mut r = ClientReport::default();
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(OUTSTANDING);
    let mut next_slot = 0usize;
    loop {
        while in_flight.len() < OUTSTANDING {
            let send_start = Instant::now();
            if send_start >= phases.end {
                break;
            }
            let phase = phases.at(send_start);
            let slot = next_slot % pool.inputs.len();
            next_slot += 1;
            r.sent += 1;
            if phase == Phase::Window {
                r.window_attempted += 1;
            }
            match client.send(name, Request::new(pool.inputs[slot].clone())) {
                Ok(handle) => in_flight.push_back(InFlight {
                    handle,
                    send_start,
                    send_end: Instant::now(),
                    slot,
                    phase,
                }),
                Err(ServeError::Overloaded { .. }) => r.shed += 1,
                Err(_) => r.errored += 1,
            }
        }
        let Some(f) = in_flight.pop_front() else { break };
        let id = f.handle.id();
        let wait_start = Instant::now();
        let result = f.handle.wait();
        let done = Instant::now();
        if f.phase == Phase::Window {
            r.last_completion = Some(done);
        }
        match result {
            Ok(response) => {
                r.answered += 1;
                if response.id != id
                    || response.model != name
                    || !outputs_match(&response.output, &pool.outputs[f.slot])
                {
                    r.mismatched += 1;
                }
                let op = done - f.send_start;
                match f.phase {
                    Phase::Warmup => {}
                    Phase::Reference => r.reference_op_ms.push(op.as_secs_f64() * 1e3),
                    Phase::Window => {
                        let span = tracer.record("serve.op", name, f.send_start, done, None, id);
                        tracer.record("serve.send", "", f.send_start, f.send_end, span, id);
                        tracer.record("serve.wait", "", wait_start, done, span, id);
                        r.window.push(Sample {
                            op_ms: op.as_secs_f64() * 1e3,
                            submit_us: (f.send_end - f.send_start).as_secs_f64() * 1e6,
                            queue_wait_ms: response.queue_wait.as_secs_f64() * 1e3,
                            execute_ms: response.latency.saturating_sub(response.queue_wait).as_secs_f64()
                                * 1e3,
                            delivery_ms: op.saturating_sub(response.latency).as_secs_f64() * 1e3,
                        });
                    }
                }
            }
            Err(ServeError::DeadlineExceeded) => r.expired += 1,
            Err(ServeError::Cancelled) => r.cancelled += 1,
            Err(_) => r.errored += 1,
        }
    }
    (r, tracer)
}

/// What the main thread gathers while the clients run a traced window.
#[derive(Default)]
struct Gauges {
    at_window_start: Option<RouterMetrics>,
    at_window_end: Option<RouterMetrics>,
    queue_depth: Vec<f64>,
    snapshot_ms: Vec<f64>,
}

/// While the clients run: nothing in an untraced run; in a traced run, meter
/// the window's CPU and allocations and sample the engine's gauges.
fn watch_window(router: &Router, phases: Phases, traced: bool) -> (Gauges, Option<WindowCost>) {
    let mut g = Gauges::default();
    if !traced {
        return (g, None);
    }
    std::thread::sleep(phases.window_start.saturating_duration_since(Instant::now()));
    let meter = CostMeter::start();
    g.at_window_start = Some(router.metrics());
    while Instant::now() + GAUGE_PERIOD < phases.window_end {
        std::thread::sleep(GAUGE_PERIOD);
        let t = Instant::now();
        let m = router.metrics();
        g.snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        g.queue_depth.push(m.models.iter().map(|m| m.queued_samples as f64).sum());
    }
    std::thread::sleep(phases.window_end.saturating_duration_since(Instant::now()));
    g.at_window_end = Some(router.metrics());
    (g, Some(meter.finish()))
}

/// Run the workload.
pub fn run(seed: u64, plan: &Plan) -> Run {
    let (s, setup_s) = repeat_setup(plan.setup_repeats, || setup(seed));
    let mut tracer = plan.tracer();
    let phases = Phases::starting_now(plan);

    let (reports, gauges, cost) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ENDPOINTS.len())
            .map(|e| {
                let (client, thread_tracer) = (s.router.client(), tracer.sibling());
                let pool = &s.pools[e];
                scope.spawn(move || client_loop(ENDPOINTS[e], client, pool, phases, thread_tracer))
            })
            .collect();
        let (gauges, cost) = watch_window(&s.router, phases, plan.traced);
        let reports: Vec<ClientReport> = handles
            .into_iter()
            .map(|h| {
                let (report, thread_tracer) = h.join().expect("client thread does not panic");
                tracer.absorb(thread_tracer);
                report
            })
            .collect();
        (reports, gauges, cost)
    });

    let shutdown_start = Instant::now();
    let final_metrics = s.router.shutdown();
    let shutdown_s = shutdown_start.elapsed().as_secs_f64();

    let limit = Workload::ServeFleetClosed.limit_ms();
    let op_ms: Vec<f64> = reports.iter().flat_map(|r| r.window.iter().map(|x| x.op_ms)).collect();
    let attempted: u64 = reports.iter().map(|r| r.window_attempted).sum();
    let last = reports.iter().filter_map(|r| r.last_completion).max().unwrap_or(phases.window_end);
    let mut o = Outcome {
        attempted,
        failed: attempted - op_ms.len() as u64,
        correct: true,
        within_limit: op_ms.iter().filter(|&&ms| ms <= limit).count() as u64,
        work_units: op_ms.len() as u64,
        elapsed_s: last.saturating_duration_since(phases.window_start).as_secs_f64(),
        setup_s,
        op_ms,
        ..Outcome::default()
    };

    // Correctness: every reply matched its input, every request is accounted
    // for, and the engine's own count agrees with the clients'.
    let sum = |f: fn(&ClientReport) -> u64| reports.iter().map(f).sum::<u64>();
    let (sent, answered) = (sum(|r| r.sent), sum(|r| r.answered));
    let (shed, errored) = (sum(|r| r.shed), sum(|r| r.errored));
    let (expired, cancelled) = (sum(|r| r.expired), sum(|r| r.cancelled));
    let mismatched = sum(|r| r.mismatched);
    o.require(mismatched == 0, || {
        format!("{mismatched} replies did not match the direct forward of their input")
    });
    o.require(sent == answered + shed + errored + expired + cancelled, || {
        format!("sent {sent} != answered {answered} + shed {shed} + errored {errored} + expired {expired} + cancelled {cancelled}")
    });
    // Set-up sent one readiness request per endpoint on top of the clients'.
    let engine_completed = final_metrics.total_completed_requests();
    o.require(engine_completed == answered + ENDPOINTS.len() as u64, || {
        format!(
            "RouterMetrics completed {engine_completed}, clients were answered {answered} (+{} set-up)",
            ENDPOINTS.len()
        )
    });

    if let Some(cost) = cost {
        let reference: Vec<f64> = reports.iter().flat_map(|r| r.reference_op_ms.iter().copied()).collect();
        validity_metrics(&mut o.layer, cost, o.op_ms.len(), &o.op_ms, &reference);
        layer_metrics(&mut o.layer, &reports, &gauges, &final_metrics, o.elapsed_s);
        let layer = &mut o.layer;
        layer.insert("serve.shed", shed as f64);
        layer.insert("serve.expired", expired as f64);
        layer.insert("serve.cancelled", cancelled as f64);
        layer.insert("serve.errored", errored as f64);
        layer.insert("serve.start_s", s.start_s);
        layer.insert("serve.shutdown_s", shutdown_s);
        // Computed from shapes, per request, weighted by what was served.
        let configs = [resnet20_config_w8(), quadra_resnet20_config()];
        let served: Vec<f64> = reports.iter().map(|r| r.window.len() as f64).collect();
        let total = served.iter().sum::<f64>().max(1.0);
        let weighted = |f: &dyn Fn(&quadra_core::ModelConfig) -> f64| -> f64 {
            configs.iter().zip(&served).map(|(c, n)| f(c) * n / total).sum()
        };
        layer.insert("tensor.flops_per_op", weighted(&|c| crate::fixtures::flops_per_sample(c)));
        layer.insert("tensor.bytes_per_op", weighted(&|c| crate::fixtures::bytes_per_forward(c, 1)));
    }
    Run { outcome: o, tracer }
}

fn layer_metrics(
    layer: &mut LayerMetrics,
    reports: &[ClientReport],
    gauges: &Gauges,
    final_metrics: &RouterMetrics,
    elapsed_s: f64,
) {
    let all =
        |f: fn(&Sample) -> f64| -> Vec<f64> { reports.iter().flat_map(|r| r.window.iter().map(f)).collect() };
    let p50 = |f: fn(&Sample) -> f64| stats::median(&all(f));
    put(layer, "serve.submit_us_p50", p50(|s| s.submit_us));
    put(layer, "serve.queue_wait_ms_p50", p50(|s| s.queue_wait_ms));
    put(layer, "serve.queue_wait_ms_p95", Summary::of(&all(|s| s.queue_wait_ms)).and_then(|s| s.p95));
    put(layer, "serve.execute_ms_p50", p50(|s| s.execute_ms));
    put(layer, "serve.delivery_ms_p50", p50(|s| s.delivery_ms));
    put(layer, "serve.op_ms_p99", Summary::of(&all(|s| s.op_ms)).and_then(|s| s.p99));
    for (r, throughput, p95) in [
        (&reports[0], "serve.first.throughput_per_s", "serve.first.op_ms_p95"),
        (&reports[1], "serve.quad.throughput_per_s", "serve.quad.op_ms_p95"),
    ] {
        layer.insert(throughput, r.window.len() as f64 / elapsed_s);
        let ms: Vec<f64> = r.window.iter().map(|s| s.op_ms).collect();
        put(layer, p95, Summary::of(&ms).and_then(|s| s.p95));
    }
    // submit + queue wait + execute + delivery over op, summed over all ops.
    let stage_sum: f64 = reports
        .iter()
        .flat_map(|r| r.window.iter())
        .map(|s| s.submit_us / 1e3 + s.queue_wait_ms + s.execute_ms + s.delivery_ms)
        .sum();
    let op_sum: f64 = all(|s| s.op_ms).iter().sum();
    if op_sum > 0.0 {
        layer.insert("trace.stage_sum_share", stage_sum / op_sum);
    }
    if let (Some(a), Some(b)) = (&gauges.at_window_start, &gauges.at_window_end) {
        let delta = |f: fn(&quadra_serve::ServeMetrics) -> u64| -> f64 {
            (b.models.iter().map(f).sum::<u64>() - a.models.iter().map(f).sum::<u64>()) as f64
        };
        let (batches, samples) = (delta(|m| m.batches), delta(|m| m.completed_samples));
        layer.insert("serve.batches", batches);
        if batches > 0.0 {
            let mean = samples / batches;
            layer.insert("serve.batch_samples_mean", mean);
            layer.insert("serve.batch_fill_share", mean / pinned_serve_config().policy.max_batch_size as f64);
        }
        put(layer, "serve.wait_budget_ms", b.get(ENDPOINTS[0]).map(|m| m.wait_budget_ms));
    }
    put(layer, "serve.service_share_first", final_metrics.service_share(ENDPOINTS[0]));
    put(layer, "serve.queue_depth_mean", stats::mean(&gauges.queue_depth));
    put(layer, "serve.metrics_snapshot_ms", stats::median(&gauges.snapshot_ms));
}
