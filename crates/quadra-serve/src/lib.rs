//! # quadra-serve
//!
//! Batched inference serving for QuadraLib-rs: the subsystem that turns the
//! training library into a serving *system* — the throughput/latency side of
//! the MLSys story.
//!
//! ## Architecture
//!
//! Everything is plain threads (compatible with the vendored rayon; no async
//! runtime). The engine is a **[`Router`]** fronting N named model endpoints
//! behind one admission layer and one fleet scheduler, and the request
//! lifecycle — admission, priority, deadline, cancellation, scheduling — is
//! the core API:
//!
//! * Requests are built with the typed **[`Request`]** builder
//!   (`Request::new(input).priority(..).deadline(..).tag(..)`) and submitted
//!   with [`RouterClient::send`], which returns a **[`ResponseHandle`]**
//!   supporting `wait` / `wait_timeout` / `try_wait` / `cancel`. Responses
//!   carry per-request provenance: model, version, batch id, queue wait, and
//!   the echoed tag.
//! * **Admission** is bounded and priority-aware: each endpoint keeps one
//!   bounded queue per [`Priority`] class (`Interactive` seeds batches before
//!   `Batch`, tempered by an aging credit so the batch class is never fully
//!   starved). A full class queue sheds the request synchronously with
//!   [`ServeError::Overloaded`] — carrying a `retry_after` estimate derived
//!   from the live queue depth and measured batch-service time — instead of
//!   queueing forever.
//! * **Batch formation is worker-pull**: an idle worker pulls straight from
//!   the admission queue and coalesces a batch under the endpoint's
//!   [`BatchPolicy`] only at that moment — no standalone batcher thread, no
//!   batch formed ahead of execution, so an admitted request's floor sojourn
//!   under overload is one batch service time, not two. The wait budget is
//!   adaptive by default (EWMA inter-arrival × remaining fill, capped by
//!   2 × EWMA service time and `max_wait`). Only same-shape requests coalesce,
//!   so a served prediction never depends on which requests shared its
//!   batch. Cancelled and deadline-expired requests are shed at this dispatch
//!   moment with [`ServeError::Cancelled`] / [`ServeError::DeadlineExceeded`].
//! * **Weighted fair sharing**: endpoints contend for the worker CPU through
//!   a deficit-round-robin fleet scheduler — under contention each endpoint
//!   is granted batch service time proportional to [`ServeConfig::weight`],
//!   so a saturated light model cannot crowd out a heavy one. Uncontended
//!   endpoints are never throttled (work conservation).
//! * A per-endpoint **worker pool** of N model replicas, each owned by a
//!   dedicated worker thread, executes batches in eval mode. Replicas are
//!   built *on* their worker thread by a `Fn() -> Box<dyn Layer>` factory, so
//!   the [`Layer`](quadra_nn::Layer) trait needs no `Send` bound.
//! * **Checkpoint hot-reload** is per endpoint: a
//!   [`StateDict`](quadra_nn::StateDict) is validated, published, and
//!   atomically picked up by that endpoint's workers between batches —
//!   without disturbing any other endpoint. Responses carry the model version
//!   that produced them.
//! * **[`ServeMetrics`]** are per model (and shed counts per priority class):
//!   throughput, p50/p95/max latency over the endpoint's own window — never
//!   blended across a heterogeneous fleet — batch-occupancy histogram, queue
//!   depth, current wait budget, cancelled / deadline-missed counters and
//!   the fair-share service-time ledger.
//!   [`Router::metrics`] rolls the fleet up into [`RouterMetrics`]
//!   (including [`RouterMetrics::service_share`]).
//!
//! Event-driven front-ends (the `quadra-gateway` loop) use
//! [`RouterClient::send_to`] instead: the response is pushed onto a shared
//! [`CompletionQueue`] under a caller-chosen key and the queue's wake
//! function runs, so no thread has to poll handles.
//!
//! ## Example
//!
//! ```
//! use quadra_nn::{Layer, Linear, Relu, Sequential, StateDict};
//! use quadra_serve::{Priority, Request, Router, ServeConfig};
//! use quadra_tensor::Tensor;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use std::time::Duration;
//!
//! let model = |seed: u64| -> Box<dyn Layer> {
//!     let mut rng = StdRng::seed_from_u64(seed);
//!     Box::new(Sequential::new(vec![
//!         Box::new(Linear::new(4, 16, true, &mut rng)),
//!         Box::new(Relu::new()),
//!         Box::new(Linear::new(16, 3, true, &mut rng)),
//!     ]))
//! };
//! let router =
//!     Router::builder().endpoint("mlp", ServeConfig::default(), move || model(0)).start().unwrap();
//! let client = router.client();
//!
//! // Serve a batch of two 4-feature rows, with the full lifecycle API: a
//! // priority class, a deadline, and a tag echoed back in the response.
//! let handle = client
//!     .send(
//!         "mlp",
//!         Request::new(Tensor::ones(&[2, 4]))
//!             .priority(Priority::Interactive)
//!             .deadline(Duration::from_secs(5))
//!             .tag("doc-example"),
//!     )
//!     .unwrap();
//! let response = handle.wait().unwrap();
//! assert_eq!(response.output.shape(), &[2, 3]);
//! assert_eq!(response.model_version, 0);
//! assert_eq!(response.tag.as_deref(), Some("doc-example"));
//!
//! // Hot-reload different weights; later responses report the new version.
//! let mut rng = StdRng::seed_from_u64(1);
//! let retrained = Sequential::new(vec![
//!     Box::new(Linear::new(4, 16, true, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(16, 3, true, &mut rng)),
//! ]);
//! let version = router.reload("mlp", StateDict::from_layer(&retrained)).unwrap();
//! assert_eq!(version, 1);
//!
//! let metrics = router.shutdown();
//! assert_eq!(metrics.get("mlp").unwrap().completed_requests, 1);
//! ```
//!
//! For the multi-model form — several architectures, per-model policies,
//! priority classes, fair-share weights and load shedding — see [`Router`].

#![warn(missing_docs)]

mod admission;
mod clock;
mod endpoint;
mod metrics;
mod request;
mod scheduler;
mod server;
mod sync;
mod worker;

pub use metrics::{RouterMetrics, ServeMetrics};
pub use request::{
    AdmissionPolicy, BatchPolicy, Completion, CompletionQueue, InferResponse, Priority, Request,
    ResponseHandle, ServeConfig, ServeError,
};
pub use server::{Router, RouterBuilder, RouterClient};
