//! `gateway_open_mlp`: open loop. Seeded Poisson arrivals at 2000 req/s in
//! total over 2 TCP connections to an in-process `Gateway` serving
//! `mlp:64x32x10`. Each connection has one generator thread that sends every
//! request when it is due and one reader thread that blocks on the socket and
//! timestamps replies as they decode. An op is one request, timed **from its
//! due time** to its reply decoded; a reply not received one second after the
//! window closes is a failure. No sample is ever discarded.
//!
//! Why: the model is nearly free, so frame codec, event loop, completion
//! pump, admission and batch-formation wait are the whole latency — the
//! ROADMAP's open-loop anomaly lives here — while quadra-tensor does almost
//! nothing. It drives quadra-serve by arrival schedule rather than by
//! saturation, the other use of the same scheduler.

use super::{repeat_setup, validity_metrics, CostMeter, Plan, Run, Workload};
use crate::fixtures::{
    build_mlp, checked_pool, outputs_match, pinned_serve_config, Pool, MLP_WIDTHS, POOL_SIZE,
};
use crate::report::{put, LayerMetrics, Outcome};
use crate::schedule::poisson_offsets_ns;
use crate::stats::{self, Summary};
use quadra_gateway::{
    decode_frame, encode_frame, Frame, Gateway, GatewayConfig, RequestFrame, ResponseFrame,
};
use quadra_serve::{Priority, Router};
use quadra_tensor::Tensor;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Endpoint name.
const MODEL: &str = "mlp";
/// Offered load over all connections.
pub const RATE_PER_S: f64 = 2000.0;
/// TCP connections, one generator thread each.
pub const CONNECTIONS: usize = 2;
/// A reply not in hand this long after the window closes is a failure.
const UNANSWERED_AFTER: Duration = Duration::from_secs(1);
/// Frame-size cap, the gateway's default.
const MAX_FRAME: usize = 16 << 20;
/// Sequential round trips behind each closed-RTT figure.
const RTT_CALLS: usize = 400;

struct Setup {
    // Declared before the gateway so the sockets close before it drains.
    streams: Vec<TcpStream>,
    gateway: Gateway,
    pool: Pool,
    connect_ms: f64,
}

fn request_frame(correlation_id: u64, input: &Tensor) -> Frame {
    Frame::Request(RequestFrame {
        correlation_id,
        priority: Priority::Interactive,
        deadline_ms: 0,
        model: MODEL.to_string(),
        tag: None,
        input: input.clone(),
    })
}

/// Read frames off `stream` until one decodes; `Ok(None)` on a read timeout.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    filled: usize,
}

impl FrameReader {
    fn new(stream: TcpStream) -> FrameReader {
        FrameReader { stream, buf: vec![0u8; 64 * 1024], start: 0, filled: 0 }
    }

    /// The next complete frame already buffered, if any.
    fn buffered(&mut self) -> Result<Option<Frame>, String> {
        match decode_frame(&self.buf[self.start..self.filled], MAX_FRAME).map_err(|e| e.to_string())? {
            Some((frame, used)) => {
                self.start += used;
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }

    /// Read more bytes; `Ok(false)` when the read timed out.
    fn fill(&mut self) -> Result<bool, String> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.filled, 0);
            self.filled -= self.start;
            self.start = 0;
        }
        if self.filled == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        match self.stream.read(&mut self.buf[self.filled..]) {
            Ok(0) => Err("gateway closed the connection".to_string()),
            Ok(n) => {
                self.filled += n;
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e.to_string()),
        }
    }

    /// Block (up to the socket's read timeout, repeatedly) for the next frame.
    fn next(&mut self, give_up: Instant) -> Result<Option<Frame>, String> {
        loop {
            if let Some(frame) = self.buffered()? {
                return Ok(Some(frame));
            }
            if Instant::now() >= give_up {
                return Ok(None);
            }
            self.fill()?;
        }
    }
}

/// One request/response over an otherwise idle connection.
fn round_trip(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    id: u64,
    input: &Tensor,
) -> Result<ResponseFrame, String> {
    let mut wire = Vec::with_capacity(512);
    encode_frame(&request_frame(id, input), &mut wire).map_err(|e| e.to_string())?;
    stream.write_all(&wire).map_err(|e| e.to_string())?;
    match reader.next(Instant::now() + Duration::from_secs(5))? {
        Some(Frame::Response(r)) if r.correlation_id == id => Ok(r),
        other => Err(format!("expected the response to request {id}, got {other:?}")),
    }
}

fn setup(seed: u64) -> Setup {
    let pool = checked_pool(seed, POOL_SIZE, &[1, MLP_WIDTHS[0]], &mut build_mlp());
    let router = Router::builder()
        .endpoint(MODEL, pinned_serve_config(), || Box::new(build_mlp()))
        .start()
        .expect("router starts");
    let gateway = Gateway::start(GatewayConfig::default(), router).expect("gateway starts");
    let t = Instant::now();
    let streams: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| {
            let stream = TcpStream::connect(gateway.local_addr()).expect("gateway accepts");
            stream.set_nodelay(true).expect("TCP_NODELAY");
            stream
        })
        .collect();
    let connect_ms = t.elapsed().as_secs_f64() * 1e3 / CONNECTIONS as f64;
    // The first reply on each connection is the moment it can serve: the
    // event loop has accepted it and a replica is built.
    for (c, stream) in streams.iter().enumerate() {
        let mut reader = FrameReader::new(stream.try_clone().expect("socket clone"));
        let mut writer = stream.try_clone().expect("socket clone");
        round_trip(&mut writer, &mut reader, c as u64, &pool.inputs[0])
            .expect("connection answers its first request");
    }
    Setup { streams, gateway, pool, connect_ms }
}

/// What the reader saw for one request.
#[derive(Clone, Copy)]
enum Reply {
    Response { at: Instant, latency_us: u32, queue_wait_us: u32, matches: bool },
    Backpressure,
    Error,
}

struct ConnectionReport {
    /// Due time of every request, in schedule order.
    due: Vec<Instant>,
    /// When each request's `write_all` started and returned.
    sends: Vec<(Instant, Instant)>,
    replies: Vec<Option<Reply>>,
    duplicates: u64,
    problem: Option<String>,
}

fn send_loop(
    mut stream: TcpStream,
    pool: &[Tensor],
    due: &[Instant],
) -> (Vec<(Instant, Instant)>, Option<String>) {
    let mut sends = Vec::with_capacity(due.len());
    let mut wire = Vec::with_capacity(512);
    for (k, &due) in due.iter().enumerate() {
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let send_start = Instant::now();
        wire.clear();
        let sent = encode_frame(&request_frame(k as u64, &pool[k % pool.len()]), &mut wire)
            .map_err(|e| e.to_string())
            .and_then(|()| stream.write_all(&wire).map_err(|e| e.to_string()));
        if let Err(e) = sent {
            return (sends, Some(format!("send {k} failed: {e}")));
        }
        sends.push((send_start, Instant::now()));
    }
    (sends, None)
}

fn read_loop(
    stream: TcpStream,
    expected: &[Tensor],
    requests: usize,
    give_up: Instant,
) -> (Vec<Option<Reply>>, u64, Option<String>) {
    let mut reader = FrameReader::new(stream);
    let mut replies: Vec<Option<Reply>> = vec![None; requests];
    let (mut settled, mut duplicates) = (0usize, 0u64);
    while settled < requests {
        let frame = match reader.next(give_up) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => return (replies, duplicates, Some(e)),
        };
        let at = Instant::now();
        let (id, reply) = match frame {
            Frame::Response(r) => {
                let matches = expected
                    .get(r.correlation_id as usize % expected.len())
                    .is_some_and(|want| outputs_match(&r.output, want));
                let reply =
                    Reply::Response { at, latency_us: r.latency_us, queue_wait_us: r.queue_wait_us, matches };
                (r.correlation_id, reply)
            }
            Frame::Backpressure(b) => (b.correlation_id, Reply::Backpressure),
            Frame::Error(e) => (e.correlation_id, Reply::Error),
            Frame::GoAway | Frame::Request(_) => {
                return (replies, duplicates, Some("unexpected frame".to_string()))
            }
        };
        match replies.get_mut(id as usize) {
            Some(slot @ None) => {
                *slot = Some(reply);
                settled += 1;
            }
            _ => duplicates += 1,
        }
    }
    (replies, duplicates, None)
}

/// One answered request of the measured window.
struct Sample {
    op_ms: f64,
    late_ms: f64,
    send_us: f64,
    engine_ms: f64,
    queue_wait_ms: f64,
}

/// Run the workload.
pub fn run(seed: u64, plan: &Plan) -> Run {
    let (mut s, setup_s) = repeat_setup(plan.setup_repeats, || setup(seed));
    let mut tracer = plan.tracer();
    for stream in &s.streams {
        stream.set_read_timeout(Some(Duration::from_millis(50))).expect("read timeout");
    }
    // Requests beyond the generators' own: set-up's readiness round trips.
    let mut extra_requests = CONNECTIONS as u64;

    let horizon = plan.warmup + plan.reference + plan.window;
    let per_connection_rate = RATE_PER_S / CONNECTIONS as f64;
    // Leave the threads a moment to start before the first request is due.
    let t0 = Instant::now() + Duration::from_millis(20);
    // Warm-up, half the untraced reference slice, the window, the other half.
    let reference_start = t0 + plan.warmup;
    let window_start = reference_start + plan.reference / 2;
    let window_end = window_start + plan.window;
    let last_due = t0 + horizon;

    let (reports, cost) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let offsets = poisson_offsets_ns(
                    seed.wrapping_mul(CONNECTIONS as u64).wrapping_add(c as u64),
                    per_connection_rate,
                    horizon.as_secs_f64(),
                );
                let due: Vec<Instant> = offsets.iter().map(|&ns| t0 + Duration::from_nanos(ns)).collect();
                let writer = s.streams[c].try_clone().expect("socket clone");
                let reader = s.streams[c].try_clone().expect("socket clone");
                let (pool, expected) = (&s.pool.inputs, &s.pool.outputs);
                let requests = due.len();
                let reading =
                    scope.spawn(move || read_loop(reader, expected, requests, last_due + UNANSWERED_AFTER));
                scope.spawn(move || {
                    let (sends, send_problem) = send_loop(writer, pool, &due);
                    let (replies, duplicates, read_problem) = reading.join().expect("reader does not panic");
                    ConnectionReport {
                        due,
                        sends,
                        replies,
                        duplicates,
                        problem: send_problem.or(read_problem),
                    }
                })
            })
            .collect();
        std::thread::sleep(window_start.saturating_duration_since(Instant::now()));
        let meter = plan.traced.then(CostMeter::start);
        std::thread::sleep(window_end.saturating_duration_since(Instant::now()));
        let cost = meter.map(CostMeter::finish);
        let reports: Vec<ConnectionReport> =
            handles.into_iter().map(|h| h.join().expect("generator does not panic")).collect();
        (reports, cost)
    });

    // Fold every request of the window into the outcome; none is dropped.
    let limit = Workload::GatewayOpenMlp.limit_ms();
    let mut o = Outcome { correct: true, setup_s, ..Outcome::default() };
    // The measured window runs from its scheduled start to its last reply.
    let mut last_reply = window_start;
    let mut window: Vec<Sample> = Vec::new();
    let mut reference_ms: Vec<f64> = Vec::new();
    let (mut backpressure, mut errors, mut unanswered, mut mismatched, mut answered_all) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (c, r) in reports.iter().enumerate() {
        o.require(r.problem.is_none(), || {
            format!("connection {c}: {}", r.problem.clone().unwrap_or_default())
        });
        o.require(r.duplicates == 0, || {
            format!("connection {c}: {} ids answered twice or unknown", r.duplicates)
        });
        for (k, &due) in r.due.iter().enumerate() {
            let reply = r.replies[k];
            if matches!(reply, Some(Reply::Response { .. })) {
                answered_all += 1;
            }
            if due < reference_start {
                continue;
            }
            let in_window = due >= window_start && due < window_end;
            if in_window {
                o.attempted += 1;
            }
            match reply {
                Some(Reply::Response { at, latency_us, queue_wait_us, matches }) => {
                    let op_ms = at.saturating_duration_since(due).as_secs_f64() * 1e3;
                    if !matches {
                        mismatched += 1;
                    }
                    if !in_window {
                        reference_ms.push(op_ms);
                        continue;
                    }
                    last_reply = last_reply.max(at);
                    let (send_start, send_end) = r.sends[k];
                    let id = ((c as u64) << 32) | k as u64;
                    let span = tracer.record("gateway.op", "", due, at, None, id);
                    tracer.record("gen.late", "", due, send_start, span, id);
                    tracer.record("gateway.client_send", "", send_start, send_end, span, id);
                    window.push(Sample {
                        op_ms,
                        late_ms: send_start.saturating_duration_since(due).as_secs_f64() * 1e3,
                        send_us: (send_end - send_start).as_secs_f64() * 1e6,
                        engine_ms: f64::from(latency_us) / 1e3,
                        queue_wait_ms: f64::from(queue_wait_us) / 1e3,
                    });
                }
                Some(Reply::Backpressure) if in_window => backpressure += 1,
                Some(Reply::Error) if in_window => errors += 1,
                None if in_window => unanswered += 1,
                _ => {}
            }
        }
    }
    if let Some(worst) = window.iter().max_by(|a, b| a.op_ms.total_cmp(&b.op_ms)) {
        // A stall must be attributable even from an untraced run.
        o.notes.push(format!(
            "slowest op {:.3} ms: generator {:.3} ms late, send {:.1} us, engine {:.3} ms of which queue wait {:.3} ms",
            worst.op_ms, worst.late_ms, worst.send_us, worst.engine_ms, worst.queue_wait_ms
        ));
    }
    o.elapsed_s = (last_reply - window_start).as_secs_f64();
    o.op_ms = window.iter().map(|x| x.op_ms).collect();
    o.work_units = window.len() as u64;
    o.failed = o.attempted - o.work_units;
    o.within_limit = o.op_ms.iter().filter(|&&ms| ms <= limit).count() as u64;
    o.require(mismatched == 0, || {
        format!("{mismatched} replies did not match the direct forward of their input")
    });
    let (sent, answered) = (o.attempted, o.work_units);
    o.require(sent == answered + backpressure + errors + unanswered, || {
        format!("sent {sent} != answered {answered} + backpressure {backpressure} + errors {errors} + unanswered {unanswered}")
    });

    if let Some(cost) = cost {
        validity_metrics(&mut o.layer, cost, window.len(), &o.op_ms, &reference_ms);
        window_metrics(&mut o.layer, &window, cost.cpu_us);
        let layer = &mut o.layer;
        layer.insert("gateway.backpressure", backpressure as f64);
        layer.insert("gateway.errors", errors as f64);
        layer.insert("gateway.unanswered", unanswered as f64);
        layer.insert("gateway.connect_ms", s.connect_ms);
        // The idle gateway: process CPU over one second with the connections open.
        if let Some(before) = crate::machine::process_cpu_us() {
            std::thread::sleep(Duration::from_secs(1));
            let after = crate::machine::process_cpu_us().unwrap_or(before);
            layer.insert("gateway.idle_cpu_share", (after - before) as f64 / 1e6);
        }
        // One outstanding request at a time: over the socket, then through
        // `Gateway::client()`; the difference is the socket + pump floor.
        let mut reader = FrameReader::new(s.streams[0].try_clone().expect("socket clone"));
        let mut socket_ms = Vec::with_capacity(RTT_CALLS);
        for i in 0..RTT_CALLS {
            let t = Instant::now();
            let id = (1u64 << 40) + i as u64;
            match round_trip(&mut s.streams[0], &mut reader, id, &s.pool.inputs[i % POOL_SIZE]) {
                Ok(_) => socket_ms.push(t.elapsed().as_secs_f64() * 1e3),
                Err(e) => o.fail(format!("closed-loop round trip failed: {e}")),
            }
            extra_requests += 1;
        }
        let inproc = s.gateway.client();
        let mut inproc_ms = Vec::with_capacity(RTT_CALLS);
        for i in 0..RTT_CALLS {
            let t = Instant::now();
            if inproc.infer(MODEL, s.pool.inputs[i % POOL_SIZE].clone()).is_ok() {
                inproc_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            extra_requests += 1;
        }
        let layer = &mut o.layer;
        put(layer, "gateway.closed_rtt_ms_p50", stats::median(&socket_ms));
        put(layer, "gateway.inproc_rtt_ms_p50", stats::median(&inproc_ms));
        codec_metrics(layer, &s.pool.inputs[0], &s.pool.outputs[0]);
        // Computed from shapes: the MLP's two products, one row.
        let macs: usize = MLP_WIDTHS.windows(2).map(|w| w[0] * w[1]).sum();
        let values: usize = MLP_WIDTHS.windows(2).map(|w| w[0] + w[1] + w[0] * w[1] + w[1]).sum();
        layer.insert("tensor.flops_per_op", 2.0 * macs as f64);
        layer.insert("tensor.bytes_per_op", 4.0 * values as f64);
    }

    let Setup { streams, gateway, .. } = s;
    drop(streams);
    let drain_start = Instant::now();
    let final_metrics = gateway.shutdown();
    let drain_s = drain_start.elapsed().as_secs_f64();
    if plan.traced {
        o.layer.insert("gateway.drain_s", drain_s);
    }
    let engine_completed = final_metrics.total_completed_requests();
    o.require(engine_completed == answered_all + extra_requests, || {
        format!(
            "RouterMetrics completed {engine_completed}, clients were answered {}",
            answered_all + extra_requests
        )
    });
    Run { outcome: o, tracer }
}

fn window_metrics(layer: &mut LayerMetrics, window: &[Sample], cpu_us: u64) {
    let all = |f: fn(&Sample) -> f64| -> Vec<f64> { window.iter().map(f).collect() };
    let overhead = Summary::of(&all(|s| s.op_ms - s.engine_ms));
    put(layer, "gateway.overhead_ms_p50", overhead.as_ref().map(|s| s.p50));
    put(layer, "gateway.overhead_ms_p95", overhead.as_ref().and_then(|s| s.p95));
    put(layer, "gateway.engine_ms_p50", stats::median(&all(|s| s.engine_ms)));
    put(layer, "gateway.queue_wait_ms_p50", stats::median(&all(|s| s.queue_wait_ms)));
    put(layer, "gateway.client_send_us_p50", stats::median(&all(|s| s.send_us)));
    put(layer, "gateway.op_ms_p99", Summary::of(&all(|s| s.op_ms)).and_then(|s| s.p99));
    let late = Summary::of(&all(|s| s.late_ms));
    put(layer, "gen.late_ms_p50", late.as_ref().map(|s| s.p50));
    put(layer, "gen.late_ms_p99", late.as_ref().and_then(|s| s.p99));
    put(layer, "gen.late_ms_max", late.as_ref().map(|s| s.max));
    if !window.is_empty() {
        // Whole process: generator and reader threads included.
        layer.insert("gateway.cpu_us_per_req", cpu_us as f64 / window.len() as f64);
        // Client send + queue wait + execute + gateway overhead (op - engine), over op.
        let stage_sum: f64 =
            window.iter().map(|s| s.send_us / 1e3 + s.engine_ms + (s.op_ms - s.engine_ms)).sum();
        layer.insert("trace.stage_sum_share", stage_sum / window.iter().map(|s| s.op_ms).sum::<f64>());
    }
}

/// Encode and decode cost of the workload's own request and response frames.
fn codec_metrics(layer: &mut LayerMetrics, input: &Tensor, output: &Tensor) {
    const ROUNDS: usize = 20_000;
    let request = request_frame(7, input);
    let response = Frame::Response(ResponseFrame {
        correlation_id: 7,
        batch_id: 1,
        model_version: 0,
        batch_samples: 8,
        queue_wait_us: 100,
        latency_us: 200,
        tag: None,
        output: output.clone(),
    });
    let mut wire = Vec::with_capacity(1024);
    let t = Instant::now();
    for _ in 0..ROUNDS {
        wire.clear();
        encode_frame(std::hint::black_box(&request), &mut wire).expect("request encodes");
        encode_frame(std::hint::black_box(&response), &mut wire).expect("response encodes");
        std::hint::black_box(&wire);
    }
    layer.insert("gateway.frame.encode_ns", t.elapsed().as_nanos() as f64 / ROUNDS as f64);
    layer.insert("gateway.frame.bytes_per_req", wire.len() as f64);
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let (first, used) =
            decode_frame(std::hint::black_box(&wire), MAX_FRAME).expect("decodes").expect("complete");
        let second = decode_frame(&wire[used..], MAX_FRAME).expect("decodes");
        std::hint::black_box((first, second));
    }
    layer.insert("gateway.frame.decode_ns", t.elapsed().as_nanos() as f64 / ROUNDS as f64);
}
