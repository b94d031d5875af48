//! Loopback integration: a real gateway on an ephemeral port, driven by a
//! real `TcpStream` client, checked **bitwise** against direct in-process
//! `RouterClient` submissions to the same router.
//!
//! Bitwise equality holds because batch composition never changes a
//! sample's result in this engine (GEMM accumulates over the feature axis
//! only; eval-mode BatchNorm uses running stats), and the wire format
//! transports raw f32 bit patterns.

use quadra_gateway::{Gateway, GatewayClient, GatewayConfig, Reply};
use quadra_nn::{Layer, Linear, Relu, Sequential};
use quadra_serve::{Priority, Request, Router, ServeConfig, ServeError};
use quadra_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const IN: usize = 6;
const OUT: usize = 3;
const MAX_FRAME: usize = 16 << 20;

fn start_gateway() -> Gateway {
    let router = Router::builder()
        .endpoint("mlp", ServeConfig { workers: 2, ..ServeConfig::default() }, || {
            let mut rng = StdRng::seed_from_u64(42);
            Box::new(Sequential::new(vec![
                Box::new(Linear::new(IN, 8, true, &mut rng)) as Box<dyn Layer>,
                Box::new(Relu::new()),
                Box::new(Linear::new(8, OUT, true, &mut rng)),
            ]))
        })
        .start()
        .expect("router starts");
    Gateway::start(GatewayConfig::default(), router).expect("gateway starts")
}

#[test]
fn gateway_responses_are_bitwise_equal_to_direct_router_calls() {
    let gateway = start_gateway();
    let direct = gateway.client();
    let mut tcp = GatewayClient::connect(gateway.local_addr(), MAX_FRAME).expect("client connects");

    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..20 {
        let samples = 1 + round % 3;
        let data: Vec<f32> = (0..samples * IN).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let x = Tensor::from_vec(data, &[samples, IN]).unwrap();

        let reply = tcp
            .call("mlp", x.clone(), Priority::Interactive, None, Some("loopback"))
            .expect("tcp call succeeds");
        let Reply::Response(frame) = reply else { panic!("round {round}: expected response, got {reply:?}") };

        let expected = direct
            .send("mlp", Request::new(x).tag("loopback"))
            .expect("direct send")
            .wait()
            .expect("direct response");

        assert_eq!(frame.output.shape(), expected.output.shape(), "round {round}: shape");
        let wire_bits: Vec<u32> = frame.output.as_slice().iter().map(|v| v.to_bits()).collect();
        let direct_bits: Vec<u32> = expected.output.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(wire_bits, direct_bits, "round {round}: socket-served output differs bitwise");
        assert_eq!(frame.tag.as_deref(), Some("loopback"), "tag echoes through the wire");
        assert_eq!(frame.model_version, expected.model_version);
        assert!(frame.batch_samples as usize >= samples);
    }
    let _ = gateway.shutdown();
}

#[test]
fn pipelined_requests_all_settle_with_matching_correlation_ids() {
    let gateway = start_gateway();
    let mut tcp = GatewayClient::connect(gateway.local_addr(), MAX_FRAME).expect("client connects");
    tcp.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    let x = Tensor::ones(&[1, IN]);
    let mut waiting: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for _ in 0..32 {
        let corr = tcp.send("mlp", x.clone(), Priority::Interactive, None, None).expect("send");
        assert!(waiting.insert(corr), "correlation ids must be unique");
    }
    while !waiting.is_empty() {
        let reply = tcp.recv().expect("reply arrives");
        let corr = reply.correlation_id().expect("per-request reply");
        assert!(waiting.remove(&corr), "unexpected or duplicate correlation id {corr}");
        match reply {
            Reply::Response(frame) => assert_eq!(frame.output.shape(), &[1, OUT]),
            Reply::Backpressure(_) => {} // shed under load: allowed, still settles the id
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let _ = gateway.shutdown();
}

#[test]
fn unknown_model_and_bad_input_map_to_typed_error_frames() {
    let gateway = start_gateway();
    let mut tcp = GatewayClient::connect(gateway.local_addr(), MAX_FRAME).expect("client connects");

    let reply =
        tcp.call("nonexistent", Tensor::ones(&[1, IN]), Priority::Batch, None, None).expect("call completes");
    let Reply::Error(frame) = reply else { panic!("expected error frame, got {reply:?}") };
    assert_eq!(frame.code, ServeError::UnknownModel(String::new()).code());
    match frame.to_serve_error() {
        Some(ServeError::UnknownModel(msg)) => assert!(msg.contains("nonexistent")),
        other => panic!("wrong reconstruction: {other:?}"),
    }

    // 1-D input: rejected by admission validation (sample axis required).
    let reply =
        tcp.call("mlp", Tensor::ones(&[IN]), Priority::Interactive, None, None).expect("call completes");
    let Reply::Error(frame) = reply else { panic!("expected error frame, got {reply:?}") };
    assert_eq!(frame.code, ServeError::BadInput(String::new()).code());
    let _ = gateway.shutdown();
}

#[test]
fn deadline_budget_travels_the_wire() {
    let gateway = start_gateway();
    let mut tcp = GatewayClient::connect(gateway.local_addr(), MAX_FRAME).expect("client connects");
    // A generous deadline must not interfere with a healthy request.
    let reply = tcp
        .call("mlp", Tensor::ones(&[1, IN]), Priority::Interactive, Some(Duration::from_secs(30)), None)
        .expect("call completes");
    assert!(matches!(reply, Reply::Response(_)), "got {reply:?}");
    let _ = gateway.shutdown();
}

#[test]
fn malformed_bytes_get_a_protocol_error_frame_then_disconnect() {
    use std::io::Write;
    let gateway = start_gateway();
    let addr = gateway.local_addr();

    // Garbage kind byte inside a well-formed length prefix.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let mut wire = Vec::new();
    wire.extend_from_slice(&2u32.to_le_bytes());
    wire.extend_from_slice(&[0xEE, 0xEE]);
    raw.write_all(&wire).unwrap();
    drop(raw);

    // Declared length beyond the server cap: rejected from the prefix alone.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    drop(raw);

    // The gateway survives both and keeps serving well-formed clients.
    let mut tcp = GatewayClient::connect(addr, MAX_FRAME).expect("client connects");
    let reply = tcp.call("mlp", Tensor::ones(&[1, IN]), Priority::Interactive, None, None).expect("call");
    assert!(matches!(reply, Reply::Response(_)));
    let _ = gateway.shutdown();
}

#[test]
fn protocol_error_reply_carries_code_zero() {
    use std::io::{Read, Write};
    let gateway = start_gateway();

    // A garbage kind byte inside a well-formed length prefix, and a
    // well-formed frame of a kind only the gateway may send (GoAway): both
    // are answered with the reserved protocol code and a message naming the
    // kind byte the peer actually sent.
    let garbage = [&2u32.to_le_bytes()[..], &[0xEE, 0xEE]].concat();
    let mut goaway = Vec::new();
    quadra_gateway::encode_frame(&quadra_gateway::Frame::GoAway, &mut goaway).unwrap();
    let goaway_kind = *goaway.last().unwrap();

    for (wire, kind) in [(garbage, 0xEE_u8), (goaway, goaway_kind)] {
        let mut raw = std::net::TcpStream::connect(gateway.local_addr()).unwrap();
        raw.write_all(&wire).unwrap();

        // Read whatever the gateway sends before closing; it must decode to
        // an error frame with the reserved protocol code.
        let mut buf = Vec::new();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut chunk = [0u8; 4096];
        loop {
            match raw.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) => break,
            }
        }
        let (frame, _) =
            quadra_gateway::decode_frame(&buf, MAX_FRAME).expect("reply decodes").expect("reply is complete");
        match frame {
            quadra_gateway::Frame::Error(e) => {
                assert_eq!(e.code, quadra_gateway::PROTOCOL_ERROR_CODE);
                assert_eq!(e.correlation_id, 0);
                assert!(
                    e.message.contains(&format!("kind {kind}")),
                    "message {:?} must name the kind byte {kind} the peer sent",
                    e.message
                );
            }
            other => panic!("expected protocol error frame, got {other:?}"),
        }
    }
    let _ = gateway.shutdown();
}
