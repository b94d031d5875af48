//! The event loop: the gateway's one thread, multiplexing every connection.
//!
//! Single-threaded readiness dispatch over the [`Poller`](crate::sys): the
//! listener, the waker fd, and every connection socket are registered under
//! integer tokens; each wait returns the ready set and the loop reads/writes
//! until `WouldBlock`. Inference never runs here — requests are forwarded to
//! [`RouterClient::send_to`] (a bounded-queue handoff); the engine thread
//! that settles one pushes the result onto the loop's [`CompletionQueue`]
//! and pokes the [`Waker`](crate::sys::Waker), and the loop takes the queue
//! after every wake. Its per-event work is bounded by codec throughput and
//! nothing ever polls for a result.
//!
//! ## Backpressure
//!
//! Two mechanisms compose:
//! * **Shed signalling**: a request shed with [`ServeError::Overloaded`] is
//!   answered with a backpressure frame carrying the engine's `retry_after`
//!   estimate — the client's cue to slow its open loop.
//! * **Read pausing**: once a connection's outbound buffer crosses
//!   [`GatewayConfig::write_high_water`], the loop drops the socket's
//!   readable interest (`EPOLLIN` unregistered). The client's
//!   submissions then pile up in kernel buffers and eventually block its own
//!   writes — flow control without gateway memory growth. Reads resume at
//!   [`GatewayConfig::write_low_water`]; the gap is flap hysteresis.
//!
//! ## Graceful drain
//!
//! On shutdown the loop (1) deregisters the listener, (2) broadcasts GoAway,
//! (3) answers any further requests with [`ServeError::ShuttingDown`] error
//! frames while continuing to flush in-flight responses, and (4) exits once
//! nothing is outstanding and every outbound buffer is empty — or the
//! [`GatewayConfig::drain_timeout`] expires. Every change to that condition
//! (a completion, flush progress, a close) arrives as a poller event, so the
//! drain is one wait bounded by the time left, not a poll. Only after the
//! loop exits may [`Router::shutdown`](quadra_serve::Router::shutdown) run;
//! see [`Gateway::shutdown`](crate::Gateway::shutdown) for the ordering
//! contract.

use crate::config::GatewayConfig;
use crate::conn::{ConnError, Connection};
use crate::frame::{
    error_frame, BackpressureFrame, ErrorFrame, Frame, FrameError, ResponseFrame, PROTOCOL_ERROR_CODE,
};
use crate::sys::{Event, Poller, Waker};
use quadra_serve::{CompletionQueue, Request, RouterClient, ServeError};
use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// One multiplexed connection and its registration state.
struct Conn {
    link: Connection<std::net::TcpStream>,
    fd: i32,
    /// Interests currently registered with the poller (avoids a syscall per
    /// event when nothing changed).
    interest_r: bool,
    interest_w: bool,
    /// Reads paused by the write-buffer high-water mark.
    reads_paused: bool,
    /// Peer sent EOF; no further requests will arrive.
    read_closed: bool,
    /// Requests forwarded to the engine whose completions have not yet been
    /// written back to this connection.
    open_requests: usize,
}

impl Conn {
    fn wants_read(&self) -> bool {
        !self.reads_paused && !self.read_closed
    }

    /// A connection is done when the peer stopped sending, nothing is in
    /// flight for it, and its outbound buffer is flushed.
    fn finished(&self) -> bool {
        self.read_closed && self.open_requests == 0 && !self.link.wants_write()
    }
}

/// The loop's side of the serving engine.
struct Engine {
    client: RouterClient,
    /// Where engine threads push settled requests (and then wake the loop).
    completions: Arc<CompletionQueue>,
    /// `(connection token, wire correlation id)` of every admitted and
    /// unanswered request, by completion key. Only the loop touches it: an
    /// entry is added on admit and removed when its completion is taken —
    /// even if the connection closed first — so its length is the drain
    /// condition's outstanding count.
    inflight: HashMap<u64, (u64, u64)>,
    next_key: u64,
}

/// Run the loop until `stop` is observed and the drain completes. Called on
/// the dedicated `gateway-loop` thread; returns only on fatal poller errors
/// or clean shutdown.
pub(crate) fn run(
    cfg: GatewayConfig,
    listener: TcpListener,
    mut poller: Poller,
    client: RouterClient,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
) -> io::Result<()> {
    let lfd = listener.as_raw_fd();
    poller.register(lfd, TOKEN_LISTENER, true, false)?;
    poller.register(waker.fd(), TOKEN_WAKER, true, false)?;

    let wake = Arc::clone(&waker);
    let mut engine = Engine {
        client,
        completions: CompletionQueue::new(move || wake.notify()),
        inflight: HashMap::with_capacity(1024),
        next_key: 0,
    };
    let mut conns: HashMap<u64, Conn> = HashMap::with_capacity(64);
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events: Vec<Event> = Vec::with_capacity(256);
    let mut draining = false;
    let mut drain_deadline = Instant::now();

    loop {
        events.clear();
        let timeout = draining.then(|| drain_deadline.saturating_duration_since(Instant::now()));
        poller.wait(timeout, &mut events)?;

        for i in 0..events.len() {
            let Some(ev) = events.get(i).copied() else { break };
            match ev.token {
                TOKEN_LISTENER => {
                    accept_ready(&cfg, &listener, &mut poller, &mut conns, &mut next_token, draining);
                }
                TOKEN_WAKER => waker.drain(),
                token => {
                    let keep = match conns.get_mut(&token) {
                        Some(conn) => {
                            on_conn_event(&cfg, &mut poller, &mut engine, conn, token, ev, draining)
                        }
                        None => true, // already closed this sweep
                    };
                    if !keep {
                        close_conn(&mut poller, &mut conns, token);
                    }
                }
            }
        }

        // After every wake, not only the waker's: a notify that raced
        // `Waker::drain` leaves no fd event behind, only its queue entry.
        deliver_completions(&cfg, &mut poller, &mut engine, &mut conns);

        if draining {
            let quiesced = engine.inflight.is_empty() && conns.values().all(|c| !c.link.wants_write());
            if quiesced || Instant::now() >= drain_deadline {
                break;
            }
        } else if stop.load(Ordering::Acquire) {
            draining = true;
            drain_deadline = Instant::now() + cfg.drain_timeout;
            let _ = poller.deregister(lfd);
            broadcast_goaway(&cfg, &mut poller, &mut conns);
            // Requests that reached a socket before the stop was seen may
            // postdate this iteration's poll. Judge quiescence only after
            // one more — made immediate by the loop's own waker — so they
            // are read and answered, not reset with the connection.
            waker.notify();
        }
    }
    // Returning drops the poller and every connection, which closes them.
    Ok(())
}

/// Accept until the listener would block. Connections above the cap (or
/// arriving mid-drain) are closed immediately by dropping the stream.
fn accept_ready(
    cfg: &GatewayConfig,
    listener: &TcpListener,
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    draining: bool,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if draining || conns.len() >= cfg.max_connections {
                    continue; // dropping the stream closes it
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Latency over throughput: frames are already coalesced.
                let _ = stream.set_nodelay(true);
                let fd = stream.as_raw_fd();
                let token = *next_token;
                *next_token += 1;
                if poller.register(fd, token, true, false).is_err() {
                    continue;
                }
                conns.insert(
                    token,
                    Conn {
                        link: Connection::new(stream, cfg.max_frame_bytes),
                        fd,
                        interest_r: true,
                        interest_w: false,
                        reads_paused: false,
                        read_closed: false,
                        open_requests: 0,
                    },
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break, // transient accept failure; the next event retries
        }
    }
}

/// Handle one readiness event for a connection. Returns `false` when the
/// connection must be torn down.
fn on_conn_event(
    cfg: &GatewayConfig,
    poller: &mut Poller,
    engine: &mut Engine,
    conn: &mut Conn,
    token: u64,
    ev: Event,
    draining: bool,
) -> bool {
    if ev.readable {
        match conn.link.on_readable() {
            Ok(outcome) => {
                if outcome.eof {
                    conn.read_closed = true;
                }
                for frame in outcome.frames {
                    if !handle_frame(engine, conn, token, frame, draining) {
                        // Protocol violation: the reply frame is already
                        // queued; push it out best-effort and close.
                        let _ = conn.link.on_writable();
                        return false;
                    }
                }
            }
            Err(ConnError::Protocol(violation)) => {
                send_protocol_error(conn, violation);
                return false;
            }
            Err(ConnError::Io(_)) => return false,
        }
    }
    if ev.writable && conn.link.on_writable().is_err() {
        return false;
    }
    if ev.closed && !ev.readable {
        return false;
    }
    if conn.finished() {
        return false;
    }
    update_watermark(cfg, conn);
    sync_interest(poller, conn, token);
    true
}

/// Dispatch one decoded frame. Returns `false` on protocol violations
/// (clients may only send requests).
fn handle_frame(engine: &mut Engine, conn: &mut Conn, token: u64, frame: Frame, draining: bool) -> bool {
    let rf = match frame {
        Frame::Request(rf) => rf,
        other => {
            send_protocol_error(conn, FrameError::UnknownKind(other.kind()));
            return false;
        }
    };
    if draining {
        let reply = Frame::Error(error_frame(rf.correlation_id, &ServeError::ShuttingDown));
        let _ = conn.link.queue_frame(&reply);
        return true;
    }
    let mut req = Request::new(rf.input).priority(rf.priority);
    if rf.deadline_ms > 0 {
        req = req.deadline(Duration::from_millis(u64::from(rf.deadline_ms)));
    }
    if let Some(tag) = rf.tag {
        req = req.tag(tag);
    }
    match engine.client.send_to(&rf.model, req, engine.next_key, &engine.completions) {
        Ok(()) => {
            conn.open_requests += 1;
            engine.inflight.insert(engine.next_key, (token, rf.correlation_id));
            engine.next_key += 1;
        }
        Err(ServeError::Overloaded { retry_after }) => {
            let reply = Frame::Backpressure(BackpressureFrame {
                correlation_id: rf.correlation_id,
                retry_after_ms: retry_after.as_millis().min(u128::from(u32::MAX)) as u32,
            });
            let _ = conn.link.queue_frame(&reply);
        }
        Err(err) => {
            let reply = Frame::Error(error_frame(rf.correlation_id, &err));
            let _ = conn.link.queue_frame(&reply);
        }
    }
    true
}

/// Queue a connection-level protocol-error frame and push it best-effort:
/// the caller closes the connection immediately after, so this is the last
/// thing the peer hears.
fn send_protocol_error(conn: &mut Conn, violation: FrameError) {
    let reply = Frame::Error(ErrorFrame {
        correlation_id: 0,
        code: PROTOCOL_ERROR_CODE,
        retry_after_ms: 0,
        // quadra-analyze: allow(hot_alloc:to-string, teardown path: runs once per misbehaving connection, never on served traffic)
        message: violation.to_string(),
    });
    let _ = conn.link.queue_frame(&reply);
    let _ = conn.link.on_writable();
}

/// Take what the engine settled since the last wake and write each result
/// back to its connection.
fn deliver_completions(
    cfg: &GatewayConfig,
    poller: &mut Poller,
    engine: &mut Engine,
    conns: &mut HashMap<u64, Conn>,
) {
    let completions = engine.completions.take();
    if completions.is_empty() {
        return;
    }
    let mut dead: Vec<u64> = Vec::with_capacity(2);
    for (key, result) in completions {
        let Some((token, correlation_id)) = engine.inflight.remove(&key) else { continue };
        let Some(conn) = conns.get_mut(&token) else {
            continue; // connection closed while the request was in flight
        };
        conn.open_requests = conn.open_requests.saturating_sub(1);
        let reply = match result {
            Ok(resp) => Frame::Response(ResponseFrame {
                correlation_id,
                batch_id: resp.batch_id,
                model_version: resp.model_version,
                batch_samples: resp.batch_samples.min(u32::MAX as usize) as u32,
                queue_wait_us: resp.queue_wait.as_micros().min(u128::from(u32::MAX)) as u32,
                latency_us: resp.latency.as_micros().min(u128::from(u32::MAX)) as u32,
                tag: resp.tag,
                output: resp.output,
            }),
            Err(ServeError::Overloaded { retry_after }) => Frame::Backpressure(BackpressureFrame {
                correlation_id,
                retry_after_ms: retry_after.as_millis().min(u128::from(u32::MAX)) as u32,
            }),
            Err(err) => Frame::Error(error_frame(correlation_id, &err)),
        };
        let queued = conn.link.queue_frame(&reply).is_ok();
        let flushed = conn.link.on_writable().is_ok();
        if !queued || !flushed || conn.finished() {
            dead.push(token);
            continue;
        }
        update_watermark(cfg, conn);
        sync_interest(poller, conn, token);
    }
    for token in dead {
        close_conn(poller, conns, token);
    }
}

/// Tell every connection the gateway is draining.
fn broadcast_goaway(cfg: &GatewayConfig, poller: &mut Poller, conns: &mut HashMap<u64, Conn>) {
    let mut dead: Vec<u64> = Vec::with_capacity(2);
    for (token, conn) in conns.iter_mut() {
        let queued = conn.link.queue_frame(&Frame::GoAway).is_ok();
        let flushed = conn.link.on_writable().is_ok();
        if !queued || !flushed {
            dead.push(*token);
            continue;
        }
        update_watermark(cfg, conn);
        sync_interest(poller, conn, *token);
    }
    for token in dead {
        close_conn(poller, conns, token);
    }
}

/// Flip the read-pause state across the configured watermarks.
fn update_watermark(cfg: &GatewayConfig, conn: &mut Conn) {
    let backlog = conn.link.pending_out();
    if !conn.reads_paused && backlog >= cfg.write_high_water {
        conn.reads_paused = true;
    } else if conn.reads_paused && backlog <= cfg.write_low_water {
        conn.reads_paused = false;
    }
}

/// Re-register the connection's poller interests if they changed.
fn sync_interest(poller: &mut Poller, conn: &mut Conn, token: u64) {
    let want_r = conn.wants_read();
    let want_w = conn.link.wants_write();
    let changed = want_r != conn.interest_r || want_w != conn.interest_w;
    if changed && poller.modify(conn.fd, token, want_r, want_w).is_ok() {
        conn.interest_r = want_r;
        conn.interest_w = want_w;
    }
}

/// Deregister and drop a connection (dropping the stream closes the fd).
fn close_conn(poller: &mut Poller, conns: &mut HashMap<u64, Conn>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        let _ = poller.deregister(conn.fd);
    }
}
