//! The shipped `quadra-gateway` binary's supervision contract: it prints one
//! `quadra-gateway listening on ADDR` line on stdout once bound, serves until
//! stdin reaches EOF, then drains, reports what it served on stderr and exits
//! successfully. A malformed command line exits with status 2.

use quadra_gateway::{GatewayClient, Reply};
use quadra_serve::Priority;
use quadra_tensor::Tensor;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_quadra-gateway");
const REQUESTS: usize = 5;

/// Poll `child` until it exits, failing the test after `limit`.
fn wait_bounded(child: &mut Child, limit: Duration) -> ExitStatus {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("quadra-gateway did not exit within {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn binary_serves_until_stdin_closes_then_drains() {
    let mut child = Command::new(BIN)
        .args(["--listen", "127.0.0.1:0", "--endpoint", "mlp=mlp:64x32x10"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("gateway binary starts");

    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("quadra-gateway listening on ")
        .unwrap_or_else(|| panic!("unexpected first stdout line {line:?}"))
        .to_string();

    let mut client = GatewayClient::connect(addr.as_str(), 16 << 20).expect("client connects");
    for i in 0..REQUESTS {
        let reply = client.call("mlp", Tensor::full(&[1, 64], i as f32), Priority::Interactive, None, None);
        match reply.expect("call succeeds") {
            Reply::Response(frame) => assert_eq!(frame.output.shape(), &[1, 10]),
            other => panic!("request {i}: expected a response, got {other:?}"),
        }
    }
    drop(client);

    // Closing stdin is the shutdown signal.
    drop(child.stdin.take());
    let status = wait_bounded(&mut child, Duration::from_secs(20));
    assert!(status.success(), "gateway exited with {status}");

    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert!(
        stderr.contains(&format!("mlp served {REQUESTS} requests")),
        "stderr does not report {REQUESTS} served requests:\n{stderr}"
    );
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "stdout carries only the listening line, got {rest:?}");
}

#[test]
fn malformed_endpoint_spec_exits_with_status_2() {
    let mut child = Command::new(BIN)
        .args(["--listen", "127.0.0.1:0", "--endpoint", "mlp=mlp:64"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("gateway binary starts");
    let status = wait_bounded(&mut child, Duration::from_secs(20));
    assert_eq!(status.code(), Some(2), "gateway exited with {status}");
}
