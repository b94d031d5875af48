//! Orphan completions: requests whose connection closed before the engine
//! answered them.
//!
//! The event loop counts a request as outstanding from admission until its
//! completion is taken off the queue — whether or not anyone is left to
//! write the reply to. If a closed connection's completions were not
//! counted down, the drain below would sit out the whole `drain_timeout`.

use quadra_gateway::{decode_frame, encode_frame, Frame, Gateway, GatewayConfig, RequestFrame};
use quadra_nn::Layer;
use quadra_serve::{Priority, Router, ServeConfig};
use quadra_tensor::Tensor;
use std::io::{Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const MAX_FRAME: usize = 16 << 20;
const PIPELINED: u64 = 12;

/// An identity layer whose forward pass blocks until the test opens the gate.
struct Gated(Arc<(Mutex<bool>, Condvar)>);

impl Layer for Gated {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let (open, cv) = &*self.0;
        let mut open = open.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
        x.clone()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }

    fn layer_type(&self) -> &'static str {
        "gated_identity"
    }
}

#[test]
fn completions_for_a_closed_connection_still_count_down_the_drain() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let factory_gate = Arc::clone(&gate);
    let router = Router::builder()
        .endpoint("slow", ServeConfig { workers: 1, ..ServeConfig::default() }, move || {
            Box::new(Gated(Arc::clone(&factory_gate)))
        })
        .start()
        .expect("router starts");
    let config = GatewayConfig::default();
    let drain_timeout = config.drain_timeout;
    let gateway = Gateway::start(config, router).expect("gateway starts");

    // Pipeline the requests and end the stream with a frame only the gateway
    // may send: the loop admits every request, answers the violation, and
    // closes the connection — with all of them still held by the gate.
    let mut wire = Vec::new();
    for correlation_id in 0..PIPELINED {
        let request = Frame::Request(RequestFrame {
            correlation_id,
            priority: Priority::Interactive,
            deadline_ms: 0,
            model: "slow".to_string(),
            tag: None,
            input: Tensor::ones(&[1, 4]),
        });
        encode_frame(&request, &mut wire).unwrap();
    }
    encode_frame(&Frame::GoAway, &mut wire).unwrap();
    let mut raw = std::net::TcpStream::connect(gateway.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    raw.write_all(&wire).unwrap();

    // EOF is the synchronisation point: once it arrives the gateway has
    // dropped the connection, and nothing was answered before it did.
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("gateway closes the connection");
    let (frame, used) = decode_frame(&reply, MAX_FRAME).unwrap().expect("a complete frame");
    assert!(matches!(frame, Frame::Error(_)), "expected the protocol error, got {frame:?}");
    assert_eq!(used, reply.len(), "no request was answered before the close");
    drop(raw);

    // Let the engine settle the orphans, and drain.
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    let started = Instant::now();
    let metrics = gateway.shutdown();
    let drain = started.elapsed();

    assert_eq!(metrics.total_completed_requests(), PIPELINED, "every orphan was served by the engine");
    assert!(
        drain < drain_timeout / 2,
        "drain took {drain:?} of a {drain_timeout:?} budget: orphan completions were not counted down"
    );
}
