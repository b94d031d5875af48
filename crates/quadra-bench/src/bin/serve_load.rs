//! Serving load tests over `quadra-serve`.
//!
//! Four parts:
//!
//! 1. **Closed-loop sweep** (as in PR 3): concurrent clients drive a
//!    single-model server over the MobileNetV1 and ResNet-20 backbones for a
//!    sweep of worker-pool / batch-policy settings — the value of dynamic
//!    batching.
//! 2. **Overload scenario**: a mixed MobileNetV1 + ResNet-20 router fleet
//!    under *open-loop* offered load at 2× its measured capacity, with
//!    bounded admission (load shedding) versus the unbounded baseline. With
//!    shedding, the p95 latency of admitted requests stays near the
//!    uncontended p95; without it, latency grows with the backlog for as long
//!    as the overload lasts. Since the worker-pull scheduler the pipeline
//!    holds only the executing batch (no batch formed ahead), so the
//!    admitted-request floor sojourn is roughly halved versus the PR-4
//!    batcher-thread numbers.
//! 3. **Deadline scenario**: the same overload with per-request deadlines —
//!    requests whose deadline passes while they queue are shed at dispatch
//!    with `DeadlineExceeded` instead of being served late.
//! 4. **Fairness scenario**: a MobileNet flood next to a driven ResNet, both
//!    saturating, on the deficit-round-robin fleet scheduler: each model's
//!    service share tracks its weight, and ResNet's effective capacity stays
//!    within ~20% of its fair share of its solo capacity.
//!
//! Results are printed as tables and written machine-readably to
//! `BENCH_serve.json` (override the path with `QUADRA_BENCH_JSON`), so the
//! perf trajectory is tracked across PRs.
//!
//! Regenerate with `cargo run -p quadra-bench --release --bin serve_load`
//! (set `QUADRA_SCALE=full` for the larger settings). Set
//! `QUADRA_SCALING_CHECK=1` to exit non-zero when adding workers loses
//! throughput along the fixed-batch 1→2→4 series — the CI scaling smoke.

use quadra_bench::{print_table, scale, Scale};
use quadra_core::{build_model, ModelConfig};
use quadra_models::{mobilenet_v1_config, resnet20_config};
use quadra_serve::{AdmissionPolicy, BatchPolicy, Priority, Request, Router, ServeConfig, ServeError};
use quadra_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency summary in milliseconds: `(p50, p95, max)`.
#[derive(serde::Serialize, Debug, Clone, Copy)]
struct LatencyMs(f64, f64, f64);

/// One titled report section — exercises the vendored serde derive's generic
/// structs on a real consumer.
#[derive(serde::Serialize, Debug)]
struct Section<T> {
    title: String,
    records: Vec<T>,
}

#[derive(serde::Serialize, Debug)]
struct ClosedLoopRecord {
    model: String,
    workers: usize,
    max_batch: usize,
    requests: u64,
    throughput_rps: f64,
    latency_ms: LatencyMs,
    mean_batch: f64,
}

#[derive(serde::Serialize, Debug)]
struct OverloadRecord {
    model: String,
    /// `uncontended` (0.5× capacity, bounded), `shed` (2×, bounded),
    /// `deadline` (2×, bounded, per-request deadlines) or `unbounded`
    /// (2×, no queue cap).
    mode: String,
    offered_rps: f64,
    completed: u64,
    shed: u64,
    /// Requests admitted but shed at dispatch because their deadline passed
    /// while they queued (0 outside the `deadline` mode).
    deadline_expired: u64,
    /// The per-request deadline of the `deadline` mode, if any.
    deadline_ms: Option<f64>,
    throughput_rps: f64,
    admitted_latency_ms: LatencyMs,
    /// p95 of the interactive class alone (the class the priority queue
    /// protects from batch-class backlog).
    interactive_p95_ms: f64,
    /// Interactive p95 over the first and second half of the run: flat when
    /// admission is bounded, growing when the queue is unbounded.
    p95_first_half_ms: f64,
    p95_second_half_ms: f64,
}

#[derive(serde::Serialize, Debug)]
struct FairnessRecord {
    model: String,
    weight: u32,
    completed: u64,
    shed: u64,
    /// Mean coalesced batch size and per-batch wall time during the
    /// contended run (batching efficiency shifts under throttling, which is
    /// why throughput shares and service-time shares differ).
    mean_batch: f64,
    ms_per_batch: f64,
    solo_ms_per_batch: f64,
    throughput_rps: f64,
    /// This model's fraction of the fleet's worker service time during the
    /// contended run.
    service_share: f64,
    /// `weight / Σ weights` — where the scheduler should steer the share.
    fair_share: f64,
    /// Closed-loop capacity with the rest of the fleet idle.
    solo_rps: f64,
    /// `throughput_rps / (solo_rps × fair_share)`: 1.0 = the model gets
    /// exactly its fair share of its own solo capacity under contention.
    vs_fair_capacity: f64,
}

#[derive(serde::Serialize, Debug)]
struct ServeReport {
    scale: String,
    closed_loop: Section<ClosedLoopRecord>,
    overload: Section<OverloadRecord>,
    fairness: Section<FairnessRecord>,
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * q).round() as usize;
    sorted_ms[idx]
}

fn latency_summary(ms: &mut [f64]) -> LatencyMs {
    ms.sort_by(f64::total_cmp);
    LatencyMs(percentile(ms, 0.50), percentile(ms, 0.95), ms.last().copied().unwrap_or(0.0))
}

/// One closed-loop run: `clients` threads each serve `requests_per_client`
/// single-sample requests back to back, then the server reports its metrics.
fn closed_loop(
    config: &ModelConfig,
    workers: usize,
    max_batch: usize,
    clients: usize,
    requests_per_client: usize,
) -> quadra_serve::ServeMetrics {
    let (channels, image) = (config.input_channels, config.image_size);
    let model_config = config.clone();
    const MODEL: &str = "model";
    let router = Router::builder()
        .endpoint(
            MODEL,
            ServeConfig {
                workers,
                policy: BatchPolicy {
                    max_batch_size: max_batch,
                    max_wait: Duration::from_millis(1),
                    ..BatchPolicy::default()
                },
                ..ServeConfig::default()
            },
            move || Box::new(build_model(&model_config, &mut StdRng::seed_from_u64(11))),
        )
        .start()
        .expect("router starts");

    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let client = router.client();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + c as u64);
                let x = Tensor::randn(&[1, channels, image, image], 0.0, 1.0, &mut rng);
                for _ in 0..requests_per_client {
                    let response = client.infer(MODEL, x.clone()).expect("request served");
                    assert_eq!(response.output.shape()[0], 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    router.shutdown().models.remove(0)
}

/// Endpoint description of the overload fleet. Batch size, shed-queue depth
/// and fair-share weight are per model: the light model batches wide for
/// throughput, the heavy model batches narrow so an admitted request's
/// sojourn (the executing batch plus the queue) stays short.
struct FleetModel {
    name: &'static str,
    config: ModelConfig,
    max_batch: usize,
    shed_queue: usize,
    weight: u32,
}

fn fleet(models: &[FleetModel], workers: usize, bounded: bool) -> Router {
    let mut builder = Router::builder();
    for m in models {
        let config = m.config.clone();
        builder = builder.endpoint(
            m.name,
            ServeConfig {
                workers,
                policy: BatchPolicy {
                    max_batch_size: m.max_batch,
                    max_wait: Duration::from_millis(2),
                    ..BatchPolicy::default()
                },
                admission: AdmissionPolicy {
                    queue_capacity: if bounded { Some(m.shed_queue) } else { None },
                    ..AdmissionPolicy::default()
                },
                weight: m.weight,
            },
            move || Box::new(build_model(&config, &mut StdRng::seed_from_u64(11))),
        );
    }
    builder.start().expect("fleet starts")
}

/// Closed-loop saturation of every fleet model at once: per-model capacity
/// (req/s) under shared CPU, which the overload runs then multiply.
fn measure_capacity(
    models: &[FleetModel],
    workers: usize,
    clients_per_model: usize,
    requests_per_client: usize,
) -> Vec<f64> {
    let router = fleet(models, workers, false);
    let handles: Vec<_> = models
        .iter()
        .map(|m| {
            let (name, channels, image) = (m.name, m.config.input_channels, m.config.image_size);
            let clients: Vec<_> = (0..clients_per_model)
                .map(|c| {
                    let client = router.client();
                    std::thread::spawn(move || {
                        let mut rng = StdRng::seed_from_u64(7 + c as u64);
                        let x = Tensor::randn(&[1, channels, image, image], 0.0, 1.0, &mut rng);
                        for _ in 0..requests_per_client {
                            let _ = client.infer(name, x.clone()).expect("request served");
                        }
                    })
                })
                .collect();
            std::thread::spawn(move || {
                let started = Instant::now();
                for c in clients {
                    c.join().unwrap();
                }
                (clients_per_model * requests_per_client) as f64 / started.elapsed().as_secs_f64()
            })
        })
        .collect();
    let capacities = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let _ = router.shutdown();
    capacities
}

/// Per-model open-loop outcome: `(completed, shed, deadline_expired,
/// (latency_ms, was_interactive) in submission order)`.
type OpenLoopOutcome = (u64, u64, u64, Vec<(f64, bool)>);

/// Open-loop drive of one fleet: per model, `generators` threads submit
/// single-sample requests at a fixed offered rate (3:1 interactive:batch
/// class mix, optionally with a per-request deadline), then wait for every
/// admitted response.
fn open_loop(
    router: &Router,
    models: &[FleetModel],
    offered_rps: &[f64],
    totals: &[usize],
    generators: usize,
    deadline: Option<Duration>,
) -> Vec<OpenLoopOutcome> {
    let handles: Vec<Vec<_>> = models
        .iter()
        .zip(offered_rps.iter().zip(totals))
        .map(|(m, (&offered, &total))| {
            (0..generators)
                .map(|g| {
                    let client = router.client();
                    let (name, channels, image) = (m.name, m.config.input_channels, m.config.image_size);
                    let per_gen = total / generators;
                    std::thread::spawn(move || {
                        let mut rng = StdRng::seed_from_u64(900 + g as u64);
                        let x = Tensor::randn(&[1, channels, image, image], 0.0, 1.0, &mut rng);
                        let period = Duration::from_secs_f64(generators as f64 / offered);
                        // Stagger generators across one period.
                        let mut next = Instant::now() + period.mul_f64(g as f64 / generators as f64);
                        let mut shed = 0u64;
                        let mut expired = 0u64;
                        let mut pending = Vec::with_capacity(per_gen);
                        for k in 0..per_gen {
                            let now = Instant::now();
                            if next > now {
                                std::thread::sleep(next - now);
                            }
                            next += period;
                            let priority = if k % 4 == 3 { Priority::Batch } else { Priority::Interactive };
                            let mut request = Request::new(x.clone()).priority(priority);
                            if let Some(d) = deadline {
                                request = request.deadline(d);
                            }
                            match client.send(name, request) {
                                Ok(handle) => pending.push((k, handle)),
                                Err(ServeError::Overloaded { .. }) => shed += 1,
                                Err(e) => panic!("submit failed: {e}"),
                            }
                        }
                        let mut latencies = Vec::with_capacity(pending.len());
                        for (k, handle) in pending {
                            match handle.wait() {
                                Ok(response) => {
                                    let interactive = response.priority == Priority::Interactive;
                                    latencies.push((k, (response.latency.as_secs_f64() * 1e3, interactive)));
                                }
                                Err(ServeError::DeadlineExceeded) => expired += 1,
                                Err(e) => panic!("admitted request failed: {e}"),
                            }
                        }
                        (shed, expired, latencies)
                    })
                })
                .collect()
        })
        .collect();

    handles
        .into_iter()
        .map(|model_handles| {
            let mut shed = 0u64;
            let mut expired = 0u64;
            let mut indexed: Vec<(usize, (f64, bool))> = Vec::new();
            for h in model_handles {
                let (s, e, lats) = h.join().unwrap();
                shed += s;
                expired += e;
                indexed.extend(lats);
            }
            indexed.sort_by_key(|&(k, _)| k);
            let latencies: Vec<(f64, bool)> = indexed.into_iter().map(|(_, v)| v).collect();
            (latencies.len() as u64, shed, expired, latencies)
        })
        .collect()
}

#[allow(clippy::too_many_arguments)] // a bench harness, not an API surface
fn overload_scenario(
    models: &[FleetModel],
    mode: &str,
    bounded: bool,
    offered_rps: &[f64],
    run_secs: f64,
    workers: usize,
    generators: usize,
    deadline: Option<Duration>,
) -> Vec<OverloadRecord> {
    let router = fleet(models, workers, bounded);
    // Same wall-clock run length per model: request counts scale with rate.
    let totals: Vec<usize> =
        offered_rps.iter().map(|r| ((r * run_secs) as usize).max(generators * 8)).collect();
    let started = Instant::now();
    let outcomes = open_loop(&router, models, offered_rps, &totals, generators, deadline);
    let run_elapsed = started.elapsed().as_secs_f64();
    let metrics = router.shutdown();
    models
        .iter()
        .zip(offered_rps)
        .zip(outcomes)
        .map(|((m, &offered), (completed, shed, expired, latencies))| {
            let snapshot = metrics.get(m.name).expect("endpoint metrics");
            assert_eq!(shed, snapshot.shed_requests, "client-side and server-side shed counts agree");
            assert_eq!(
                expired, snapshot.deadline_missed_requests,
                "client-side and server-side deadline-miss counts agree"
            );
            // Drop the warm-up head (first 15% of admitted responses: replica
            // construction, first-touch caches) so every mode's percentiles
            // describe the steady state.
            let latencies: Vec<(f64, bool)> = latencies[latencies.len() * 15 / 100..].to_vec();
            // The growth comparison is per half of the run, interactive class
            // only: under strict priority the unbounded baseline starves the
            // batch class wholesale, which would smear the halves.
            let ordered_interactive: Vec<f64> =
                latencies.iter().filter(|&&(_, int)| int).map(|&(ms, _)| ms).collect();
            let half = ordered_interactive.len() / 2;
            let mut first: Vec<f64> = ordered_interactive[..half].to_vec();
            let mut second: Vec<f64> = ordered_interactive[half..].to_vec();
            first.sort_by(f64::total_cmp);
            second.sort_by(f64::total_cmp);
            let mut interactive = ordered_interactive.clone();
            interactive.sort_by(f64::total_cmp);
            let mut all: Vec<f64> = latencies.iter().map(|&(ms, _)| ms).collect();
            OverloadRecord {
                model: m.name.to_string(),
                mode: mode.to_string(),
                offered_rps: offered,
                completed,
                shed,
                deadline_expired: expired,
                deadline_ms: deadline.map(|d| d.as_secs_f64() * 1e3),
                throughput_rps: completed as f64 / run_elapsed,
                admitted_latency_ms: latency_summary(&mut all),
                interactive_p95_ms: percentile(&interactive, 0.95),
                p95_first_half_ms: percentile(&first, 0.95),
                p95_second_half_ms: percentile(&second, 0.95),
            }
        })
        .collect()
}

/// Closed-loop drive of selected fleet models for a fixed wall-clock window:
/// `clients` threads per driven model submit back to back until the window
/// closes. Returns per driven model `(completed, shed)`.
fn drive_for(router: &Router, driven: &[&FleetModel], clients: usize, window: Duration) -> Vec<(u64, u64)> {
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<Vec<_>> = driven
        .iter()
        .map(|m| {
            (0..clients)
                .map(|c| {
                    let client = router.client();
                    let stop = Arc::clone(&stop);
                    let (name, channels, image) = (m.name, m.config.input_channels, m.config.image_size);
                    std::thread::spawn(move || {
                        let mut rng = StdRng::seed_from_u64(400 + c as u64);
                        let x = Tensor::randn(&[1, channels, image, image], 0.0, 1.0, &mut rng);
                        let (mut completed, mut shed) = (0u64, 0u64);
                        while !stop.load(Ordering::Relaxed) {
                            match client.infer(name, x.clone()) {
                                Ok(_) => completed += 1,
                                Err(ServeError::Overloaded { retry_after }) => {
                                    shed += 1;
                                    std::thread::sleep(retry_after.min(Duration::from_millis(5)));
                                }
                                Err(e) => panic!("drive failed: {e}"),
                            }
                        }
                        (completed, shed)
                    })
                })
                .collect()
        })
        .collect();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    handles
        .into_iter()
        .map(|model_handles| {
            model_handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold((0, 0), |(c, s), (c2, s2)| (c + c2, s + s2))
        })
        .collect()
}

/// Fairness scenario: measure each model's solo closed-loop capacity inside
/// the fleet (the other endpoint idle — the scheduler is work-conserving, so
/// solo throughput is uncontended), then saturate both at once and check
/// each model's throughput against its fair share of its solo capacity.
fn fairness_scenario(models: &[FleetModel], clients: usize, run_secs: f64) -> Vec<FairnessRecord> {
    let window = Duration::from_secs_f64(run_secs);
    let total_weight: u32 = models.iter().map(|m| m.weight).sum();

    // Solo capacities: one fresh fleet per phase so metrics don't blend.
    let mut solo_rps = Vec::new();
    let mut solo_ms_per_batch = Vec::new();
    for m in models {
        let router = fleet(models, 1, true);
        let outcome = drive_for(&router, &[m], clients, window);
        let metrics = router.shutdown();
        let snap = metrics.get(m.name).expect("endpoint metrics");
        solo_rps.push(outcome[0].0 as f64 / run_secs);
        solo_ms_per_batch.push(snap.service_time_ms / (snap.batches.max(1) as f64));
    }

    // Contended run: every model saturated by its own closed-loop clients.
    let router = fleet(models, 1, true);
    let driven: Vec<&FleetModel> = models.iter().collect();
    let outcomes = drive_for(&router, &driven, clients, window);
    let metrics = router.shutdown();

    models
        .iter()
        .zip(solo_rps.into_iter().zip(solo_ms_per_batch))
        .zip(outcomes)
        .map(|((m, (solo, solo_batch_ms)), (completed, shed))| {
            let fair_share = m.weight as f64 / total_weight as f64;
            let throughput = completed as f64 / run_secs;
            let snap = metrics.get(m.name).expect("endpoint metrics");
            FairnessRecord {
                model: m.name.to_string(),
                weight: m.weight,
                completed,
                shed,
                mean_batch: snap.mean_batch_size,
                ms_per_batch: snap.service_time_ms / (snap.batches.max(1) as f64),
                solo_ms_per_batch: solo_batch_ms,
                throughput_rps: throughput,
                service_share: metrics.service_share(m.name).unwrap_or(0.0),
                fair_share,
                solo_rps: solo,
                vs_fair_capacity: if solo > 0.0 { throughput / (solo * fair_share) } else { 0.0 },
            }
        })
        .collect()
}

fn main() {
    let (requests_per_client, clients, image, run_secs) = match scale() {
        Scale::Full => (256usize, 8usize, 32usize, 4.0f64),
        Scale::Quick => (48, 8, 16, 1.2),
    };
    let models: Vec<(&str, ModelConfig)> = vec![
        ("MobileNetV1 (0.25x, 5 DW pairs)", mobilenet_v1_config(5, 0.25, 3, image, 10)),
        ("ResNet-20 (width 8)", resnet20_config(8, 10, image)),
    ];
    // (workers, max_batch): no batching baseline, batching on one worker,
    // then scaling the replica pool at a fixed batch cap (1→2→4 workers at
    // max_batch 8 is the monotonicity series the scaling check reads), plus
    // a wide-batch point.
    let sweep = [(1usize, 1usize), (1, 8), (2, 8), (4, 8), (4, 16)];

    let mut closed_records = Vec::new();
    for (name, config) in &models {
        let mut rows = Vec::new();
        let mut occupancies = Vec::new();
        for &(workers, max_batch) in &sweep {
            let metrics = closed_loop(config, workers, max_batch, clients, requests_per_client);
            rows.push(vec![
                format!("{}", workers),
                format!("{}", max_batch),
                format!("{}", metrics.completed_requests),
                format!("{:.0}", metrics.throughput_rps),
                format!("{:.2}", metrics.p50_latency_ms),
                format!("{:.2}", metrics.p95_latency_ms),
                format!("{:.2}", metrics.mean_batch_size),
            ]);
            closed_records.push(ClosedLoopRecord {
                model: name.to_string(),
                workers,
                max_batch,
                requests: metrics.completed_requests,
                throughput_rps: metrics.throughput_rps,
                latency_ms: LatencyMs(metrics.p50_latency_ms, metrics.p95_latency_ms, metrics.max_latency_ms),
                mean_batch: metrics.mean_batch_size,
            });
            occupancies.push((workers, max_batch, metrics));
        }
        print_table(
            &format!("Serving load test — {} ({} closed-loop clients)", name, clients),
            &["workers", "max batch", "requests", "req/s", "p50 ms", "p95 ms", "mean batch"],
            &rows,
        );
        if let Some((workers, max_batch, metrics)) =
            occupancies.iter().max_by(|a, b| a.2.throughput_rps.total_cmp(&b.2.throughput_rps))
        {
            println!(
                "best: {} workers × max batch {} — batch occupancy:\n{}",
                workers,
                max_batch,
                metrics.occupancy_ascii(32)
            );
        }
    }

    // ---- Overload scenario: mixed fleet, offered load at 2× capacity. ----
    let fleet_models = vec![
        FleetModel {
            name: "mobilenet",
            config: mobilenet_v1_config(5, 0.25, 3, image, 10),
            max_batch: 8,
            shed_queue: 8,
            weight: 1,
        },
        FleetModel {
            name: "resnet",
            config: resnet20_config(8, 10, image),
            max_batch: 4,
            shed_queue: 4,
            weight: 1,
        },
    ];
    let workers = 1;
    let generators = 4;
    let closed_capacity = measure_capacity(&fleet_models, workers, clients, requests_per_client);
    println!(
        "\nclosed-loop fleet capacity: mobilenet {:.0} req/s, resnet {:.0} req/s",
        closed_capacity[0], closed_capacity[1]
    );
    // Both models share the CPU, so each model's *effective* capacity under
    // the mixed open-loop drive is below its closed-loop number. Calibrate
    // with a saturating probe run and express the scenarios as multiples of
    // the effective capacity — "2× capacity" then means what it says for
    // every model of the fleet.
    let probe_load: Vec<f64> = closed_capacity.iter().map(|c| (c * 2.0).max(32.0)).collect();
    let probe =
        overload_scenario(&fleet_models, "probe", true, &probe_load, run_secs, workers, generators, None);
    let capacity: Vec<f64> = probe.iter().map(|r| r.throughput_rps.max(8.0)).collect();
    println!(
        "effective capacity under mixed overload: mobilenet {:.0} req/s, resnet {:.0} req/s",
        capacity[0], capacity[1]
    );
    let half_load: Vec<f64> = capacity.iter().map(|c| (c * 0.5).max(8.0)).collect();
    let double_load: Vec<f64> = capacity.iter().map(|c| (c * 2.0).max(32.0)).collect();
    let mut overload = Vec::new();
    overload.extend(overload_scenario(
        &fleet_models,
        "uncontended",
        true,
        &half_load,
        run_secs,
        workers,
        generators,
        None,
    ));
    overload.extend(overload_scenario(
        &fleet_models,
        "shed",
        true,
        &double_load,
        run_secs,
        workers,
        generators,
        None,
    ));
    // Deadline mode: the same 2× overload, but every request gives up after
    // 6× the probe's uncontended p50 — late answers are shed at dispatch, so
    // the served requests' tail stays near the deadline instead of the queue
    // drain time.
    let deadline = Duration::from_secs_f64(
        (probe.iter().map(|r| r.admitted_latency_ms.0).fold(f64::MIN, f64::max) * 6.0 / 1e3).max(0.02),
    );
    overload.extend(overload_scenario(
        &fleet_models,
        "deadline",
        true,
        &double_load,
        run_secs,
        workers,
        generators,
        Some(deadline),
    ));
    overload.extend(overload_scenario(
        &fleet_models,
        "unbounded",
        false,
        &double_load,
        run_secs,
        workers,
        generators,
        None,
    ));

    let rows: Vec<Vec<String>> = overload
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.mode.clone(),
                format!("{:.0}", r.offered_rps),
                format!("{}", r.completed),
                format!("{}", r.shed),
                format!("{}", r.deadline_expired),
                format!("{:.2}", r.admitted_latency_ms.0),
                format!("{:.2}", r.admitted_latency_ms.1),
                format!("{:.2}", r.interactive_p95_ms),
                format!("{:.2}", r.p95_first_half_ms),
                format!("{:.2}", r.p95_second_half_ms),
            ]
        })
        .collect();
    print_table(
        "Overload — mixed MobileNetV1 + ResNet-20 fleet (open loop)",
        &[
            "model",
            "mode",
            "offered/s",
            "done",
            "shed",
            "expired",
            "p50 ms",
            "p95 ms",
            "int p95 ms",
            "p95 1st half",
            "p95 2nd half",
        ],
        &rows,
    );
    println!(
        "bounded admission keeps the admitted-request p95 near the uncontended p95 under 2× load\n\
         (and the worker-pull scheduler halves the floor sojourn vs the PR-4 batcher thread);\n\
         the unbounded baseline's p95 keeps growing for as long as the overload lasts."
    );

    // ---- Fairness scenario: MobileNet flood next to a driven ResNet. ----
    let fairness = fairness_scenario(&fleet_models, clients.min(4), run_secs);
    let rows: Vec<Vec<String>> = fairness
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                format!("{}", r.weight),
                format!("{}", r.completed),
                format!("{:.0}", r.solo_rps),
                format!("{:.0}", r.throughput_rps),
                format!("{:.2}", r.mean_batch),
                format!("{:.2}/{:.2}", r.ms_per_batch, r.solo_ms_per_batch),
                format!("{:.2}", r.fair_share),
                format!("{:.2}", r.service_share),
                format!("{:.2}", r.vs_fair_capacity),
            ]
        })
        .collect();
    print_table(
        "Fairness — both models saturated on the DRR fleet scheduler",
        &[
            "model",
            "weight",
            "done",
            "solo req/s",
            "req/s",
            "mean batch",
            "ms/batch (vs solo)",
            "fair share",
            "svc share",
            "vs fair cap",
        ],
        &rows,
    );
    println!(
        "the deficit-round-robin gate bounds cross-model interference: a MobileNet flood can no\n\
         longer crowd ResNet off the CPU, and each model's effective capacity stays within ~20%\n\
         of its fair share of its solo capacity (`vs fair cap` ≈ 1). The gate is work-conserving:\n\
         time one model leaves idle (e.g. waiting to fill a batch) is used by the other."
    );

    let report = ServeReport {
        scale: format!("{:?}", scale()).to_lowercase(),
        closed_loop: Section { title: "closed-loop sweep".to_string(), records: closed_records },
        overload: Section { title: "open-loop overload".to_string(), records: overload },
        fairness: Section { title: "fair-share contention".to_string(), records: fairness },
    };
    let path = std::env::var("QUADRA_BENCH_JSON").unwrap_or_else(|_| "BENCH_serve.json".to_string());
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, text + "\n").expect("write bench report");
    println!("\nwrote {path}");

    // With QUADRA_SCALING_CHECK set, fail loudly when adding a worker *loses*
    // throughput — the regression this harness exists to catch. The report is
    // already on disk at this point so CI can archive it either way.
    if std::env::var("QUADRA_SCALING_CHECK").is_ok() && !scaling_check(&report.closed_loop.records) {
        std::process::exit(1);
    }
}

/// Verify worker scaling stayed monotone (with 5% noise tolerance) along the
/// fixed-batch series: for each model, throughput at 2 workers must be at
/// least 0.95× the 1-worker figure, and 4 workers at least 0.95× of 2.
/// Returns false (after printing the violations) when any step regresses.
fn scaling_check(records: &[ClosedLoopRecord]) -> bool {
    const TOLERANCE: f64 = 0.95;
    const SERIES_BATCH: usize = 8;
    let mut ok = true;
    let models: Vec<&str> = {
        let mut seen = Vec::new();
        for r in records {
            if !seen.contains(&r.model.as_str()) {
                seen.push(r.model.as_str());
            }
        }
        seen
    };
    println!("\nscaling check (throughput at max_batch {SERIES_BATCH}, tolerance {TOLERANCE}):");
    for model in models {
        let at = |workers: usize| {
            records
                .iter()
                .find(|r| r.model == model && r.workers == workers && r.max_batch == SERIES_BATCH)
                .map(|r| r.throughput_rps)
        };
        let (Some(w1), Some(w2), Some(w4)) = (at(1), at(2), at(4)) else {
            println!("  {model}: series incomplete, skipping");
            continue;
        };
        println!("  {model}: 1w {w1:.0} -> 2w {w2:.0} -> 4w {w4:.0} rps");
        if w2 < TOLERANCE * w1 {
            eprintln!("  SCALING REGRESSION: {model}: 2 workers ({w2:.0} rps) < {TOLERANCE} x 1 worker ({w1:.0} rps)");
            ok = false;
        }
        if w4 < TOLERANCE * w2 {
            eprintln!("  SCALING REGRESSION: {model}: 4 workers ({w4:.0} rps) < {TOLERANCE} x 2 workers ({w2:.0} rps)");
            ok = false;
        }
    }
    ok
}
