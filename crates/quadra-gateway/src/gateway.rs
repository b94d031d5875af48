//! The [`Gateway`] lifecycle handle: start, observe, drain, shut down.

use crate::config::GatewayConfig;
use crate::event_loop;
use crate::sys::{Poller, Waker};
use quadra_serve::{Router, RouterClient, RouterMetrics};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running socket front-end serving a [`Router`] over TCP.
///
/// Starting a gateway takes ownership of the router: the gateway becomes the
/// router's lifecycle owner so the shutdown ordering below cannot be
/// violated by callers. In-process clients remain available through
/// [`Gateway::client`].
///
/// ## Shutdown ordering
///
/// [`Gateway::shutdown`] performs the two phases in the only safe order:
///
/// 1. **Gateway drain** — stop accepting, broadcast GoAway, answer late
///    requests with `ShuttingDown`, and flush every in-flight response to
///    its socket (bounded by [`GatewayConfig::drain_timeout`]).
/// 2. **Router shutdown** — only after the drain, so every response the
///    engine produced for an admitted request has reached (or been offered
///    to) its connection.
///
/// Shutting the router down first would settle in-flight handles with
/// `ShuttingDown` while the sockets are still open — clients would see
/// spurious failures for requests the engine had already finished. The
/// drain regression test pins phase 1 completing before phase 2 begins.
pub struct Gateway {
    addr: SocketAddr,
    client: RouterClient,
    router: Option<Router>,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Gateway {
    /// Bind `config.listen`, take ownership of `router`, and spawn the event
    /// loop — `gateway-loop`, the only thread a gateway owns. The router's
    /// workers push each completion to it and wake it; nothing polls.
    ///
    /// Fails fast on invalid config, bind errors, or when the OS refuses an
    /// epoll instance or eventfd.
    pub fn start(config: GatewayConfig, router: Router) -> io::Result<Gateway> {
        config.validate().map_err(|msg| io::Error::new(io::ErrorKind::InvalidInput, msg))?;
        let listener = TcpListener::bind(&config.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        let stop = Arc::new(AtomicBool::new(false));
        let client = router.client();

        let loop_client = client.clone();
        let loop_stop = Arc::clone(&stop);
        let loop_waker = Arc::clone(&waker);
        let thread = std::thread::Builder::new()
            .name("gateway-loop".into())
            .spawn(move || event_loop::run(config, listener, poller, loop_client, loop_stop, loop_waker))?;

        Ok(Gateway { addr, client, router: Some(router), stop, waker, thread: Some(thread) })
    }

    /// The bound address (resolves the ephemeral port of `"…:0"` listens).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// An in-process client to the same router the gateway serves — the
    /// loopback test uses this to compare socket-served responses against
    /// direct submissions, bitwise.
    pub fn client(&self) -> RouterClient {
        self.client.clone()
    }

    /// Drain the gateway, then shut the router down (see the type-level
    /// ordering contract). Returns the router's final metrics.
    pub fn shutdown(mut self) -> RouterMetrics {
        self.stop_loop();
        match self.router.take() {
            Some(router) => router.shutdown(),
            None => RouterMetrics { models: Vec::new() },
        }
    }

    /// Signal the event loop and join it (drain phase). Idempotent.
    fn stop_loop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.waker.notify();
        if let Some(thread) = self.thread.take() {
            match thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("quadra-gateway: event loop failed: {e}"),
                Err(_) => eprintln!("quadra-gateway: event loop panicked"),
            }
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        // A dropped gateway still drains: tests that panic mid-flight must
        // not leave the loop thread running against a dead router.
        self.stop_loop();
        if let Some(router) = self.router.take() {
            let _ = router.shutdown();
        }
    }
}
