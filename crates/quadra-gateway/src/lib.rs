//! Event-driven TCP front-end for the `quadra-serve` inference engine.
//!
//! `quadra-serve` batches, fair-shares, and sheds load — in process. This
//! crate puts it on the network: a dependency-free epoll event loop
//! multiplexes thousands of non-blocking connections over a compact
//! length-prefixed binary protocol, mapping each request frame 1:1 onto
//! [`quadra_serve::Request`] / [`quadra_serve::RouterClient::send_to`] and
//! streaming [`quadra_serve::InferResponse`]s (or typed errors) back.
//!
//! Architecture — one thread of its own:
//!
//! * **`gateway-loop`** ([`event_loop`](crate::Gateway)) — readiness
//!   dispatch, codec, connection lifecycle, backpressure. Never blocks on
//!   inference and never polls for a result: the engine thread that settles
//!   a request pushes it onto the loop's [`quadra_serve::CompletionQueue`]
//!   and wakes the loop through an eventfd.
//! * The engine's own worker threads, owned by the [`quadra_serve::Router`]
//!   the gateway serves.
//!
//! Overload surfaces as *backpressure frames* (the engine's
//! [`quadra_serve::ServeError::Overloaded`] retry hint, per shed request)
//! plus *read pausing* at the per-connection write-buffer high-water mark,
//! so a slow or flooding client throttles itself instead of growing gateway
//! memory. Shutdown is a graceful drain with a deadline; see
//! [`Gateway::shutdown`] for the ordering contract with
//! [`quadra_serve::Router::shutdown`].
//!
//! The crate builds on 64-bit Linux only: the event loop calls `epoll` and
//! `eventfd` directly.
//!
//! ```no_run
//! use quadra_gateway::{Gateway, GatewayClient, GatewayConfig, Reply};
//! use quadra_serve::{Priority, Router, ServeConfig};
//! use quadra_tensor::Tensor;
//!
//! # fn model() -> Box<dyn quadra_nn::Layer> { unimplemented!() }
//! let router = Router::builder().endpoint("mlp", ServeConfig::default(), model).start()?;
//! let gateway = Gateway::start(GatewayConfig::default(), router)?;
//!
//! let mut client = GatewayClient::connect(gateway.local_addr(), 16 << 20)?;
//! let reply = client.call("mlp", Tensor::ones(&[1, 64]), Priority::Interactive, None, None)?;
//! if let Reply::Response(frame) = reply {
//!     println!("served by batch {}", frame.batch_id);
//! }
//! gateway.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("quadra-gateway requires 64-bit Linux: its event loop calls epoll and eventfd directly");

mod client;
mod config;
mod conn;
mod event_loop;
pub mod frame;
mod gateway;
mod sys;

pub use client::{GatewayClient, GatewayError, Reply};
pub use config::GatewayConfig;
pub use conn::{ConnError, Connection, ReadOutcome};
pub use frame::{
    decode_frame, encode_frame, error_frame, BackpressureFrame, ErrorFrame, Frame, FrameError, RequestFrame,
    ResponseFrame, FRAME_HEADER_BYTES, MAX_WIRE_NDIM, PROTOCOL_ERROR_CODE,
};
pub use gateway::Gateway;
