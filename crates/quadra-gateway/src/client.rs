//! A small blocking client for the gateway's wire protocol.
//!
//! This is the reference implementation of the client side — the gateway's
//! integration tests speak the protocol through it. Two usage styles:
//!
//! * [`GatewayClient::call`] — one request, block for its reply (simple
//!   request/response callers).
//! * [`GatewayClient::send`] + [`GatewayClient::recv`] — fire requests
//!   without waiting and drain replies separately, matching them by
//!   correlation id (pipelined / open-loop callers; this is what an honest
//!   tail-latency bench needs, since a closed loop would gate arrivals on
//!   completions).

use crate::frame::{
    decode_frame, encode_frame, Frame, FrameError, RequestFrame, ResponseFrame, FRAME_HEADER_BYTES,
};
use quadra_serve::Priority;
use quadra_tensor::Tensor;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure while talking to a gateway.
#[derive(Debug)]
pub enum GatewayError {
    /// The socket failed.
    Io(io::Error),
    /// The gateway sent bytes that do not decode (or a frame that makes no
    /// sense client-side).
    Protocol(FrameError),
    /// The gateway closed the connection.
    Disconnected,
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Io(e) => write!(f, "socket error: {e}"),
            GatewayError::Protocol(e) => write!(f, "protocol error: {e}"),
            GatewayError::Disconnected => write!(f, "gateway closed the connection"),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<io::Error> for GatewayError {
    fn from(e: io::Error) -> GatewayError {
        GatewayError::Io(e)
    }
}

impl From<FrameError> for GatewayError {
    fn from(e: FrameError) -> GatewayError {
        GatewayError::Protocol(e)
    }
}

/// What the gateway said about one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The inference completed; the frame carries the output split plus
    /// batch provenance.
    Response(ResponseFrame),
    /// The request failed with the typed error in the frame (decode with
    /// [`crate::frame::ErrorFrame::to_serve_error`]).
    Error(crate::frame::ErrorFrame),
    /// The request was shed under overload; retry after roughly the carried
    /// hint and slow down.
    Backpressure(crate::frame::BackpressureFrame),
    /// The gateway is draining; no further requests will be admitted on this
    /// connection.
    GoAway,
}

impl Reply {
    /// The correlation id this reply settles (`None` for GoAway, which is
    /// connection-level).
    pub fn correlation_id(&self) -> Option<u64> {
        match self {
            Reply::Response(r) => Some(r.correlation_id),
            Reply::Error(e) => Some(e.correlation_id),
            Reply::Backpressure(b) => Some(b.correlation_id),
            Reply::GoAway => None,
        }
    }
}

/// A blocking connection to a gateway.
pub struct GatewayClient {
    stream: TcpStream,
    buf: Vec<u8>,
    filled: usize,
    next_corr: u64,
    max_frame: usize,
}

impl GatewayClient {
    /// Connect to a gateway. `max_frame` must be at least the server's
    /// configured cap to decode the largest response it can send.
    pub fn connect(addr: impl ToSocketAddrs, max_frame: usize) -> io::Result<GatewayClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(GatewayClient { stream, buf: vec![0u8; 64 * 1024], filled: 0, next_corr: 1, max_frame })
    }

    /// Bound how long [`GatewayClient::recv`] may block on the socket.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Fire one request without waiting; returns its correlation id.
    pub fn send(
        &mut self,
        model: &str,
        input: Tensor,
        priority: Priority,
        deadline: Option<Duration>,
        tag: Option<&str>,
    ) -> Result<u64, GatewayError> {
        let correlation_id = self.next_corr;
        self.next_corr += 1;
        let rf = RequestFrame {
            correlation_id,
            priority,
            deadline_ms: deadline.map_or(0, |d| d.as_millis().min(u128::from(u32::MAX)) as u32),
            model: model.to_string(),
            tag: tag.map(str::to_string),
            input,
        };
        let mut wire = Vec::new();
        encode_frame(&Frame::Request(rf), &mut wire)?;
        self.stream.write_all(&wire)?;
        Ok(correlation_id)
    }

    /// Block until the next reply frame arrives.
    pub fn recv(&mut self) -> Result<Reply, GatewayError> {
        loop {
            if let Some((frame, consumed)) = decode_frame(&self.buf[..self.filled], self.max_frame)? {
                self.buf.copy_within(consumed..self.filled, 0);
                self.filled -= consumed;
                return match frame {
                    Frame::Response(r) => Ok(Reply::Response(r)),
                    Frame::Error(e) => Ok(Reply::Error(e)),
                    Frame::Backpressure(b) => Ok(Reply::Backpressure(b)),
                    Frame::GoAway => Ok(Reply::GoAway),
                    Frame::Request(_) => Err(GatewayError::Protocol(FrameError::UnknownKind(1))),
                };
            }
            if self.filled == self.buf.len() {
                // The partial frame is bigger than the buffer; grow to fit
                // the declared body.
                let needed = self.declared_total().unwrap_or(self.buf.len() * 2);
                self.buf.resize(needed.max(self.buf.len() * 2), 0);
            }
            let n = self.stream.read(&mut self.buf[self.filled..])?;
            if n == 0 {
                return Err(GatewayError::Disconnected);
            }
            self.filled += n;
        }
    }

    /// Total length of the frame currently heading the buffer, if the
    /// length prefix has arrived.
    fn declared_total(&self) -> Option<usize> {
        let header: [u8; 4] = self.buf.get(..FRAME_HEADER_BYTES)?.try_into().ok()?;
        Some(FRAME_HEADER_BYTES + u32::from_le_bytes(header) as usize)
    }

    /// Send one request and block for **its** reply, skipping replies to
    /// other in-flight correlation ids (they are dropped — use
    /// [`GatewayClient::send`]/[`GatewayClient::recv`] when pipelining).
    pub fn call(
        &mut self,
        model: &str,
        input: Tensor,
        priority: Priority,
        deadline: Option<Duration>,
        tag: Option<&str>,
    ) -> Result<Reply, GatewayError> {
        let correlation_id = self.send(model, input, priority, deadline, tag)?;
        loop {
            let reply = self.recv()?;
            match reply.correlation_id() {
                Some(id) if id == correlation_id => return Ok(reply),
                Some(_) => continue,
                None => return Ok(reply), // GoAway pre-empts the call
            }
        }
    }
}
