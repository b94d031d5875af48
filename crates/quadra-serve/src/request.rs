//! The request lifecycle API: the typed [`Request`] builder, the
//! [`ResponseHandle`] a submission returns, and the policy knobs that control
//! admission, batch formation, and fair sharing.

use crate::sync::lock_or_recover;
use quadra_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Scheduling class of a request inside a model's admission queue.
///
/// Admission keeps one bounded queue per class and the scheduler seeds batches
/// from [`Priority::Interactive`] first, so latency-sensitive traffic is never
/// starved by throughput-oriented [`Priority::Batch`] work. Each class sheds
/// independently when its queue fills. An aging credit
/// ([`AdmissionPolicy::batch_aging`]) guarantees the batch class a minimum
/// share under sustained interactive overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive traffic, always dequeued first (the default).
    #[default]
    Interactive,
    /// Throughput-oriented traffic that yields to interactive requests.
    Batch,
}

impl Priority {
    /// Number of priority classes.
    pub const COUNT: usize = 2;

    /// Stable index of the class (used by per-class metrics arrays).
    pub(crate) fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
        }
    }

    /// Human-readable class name.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

/// Errors surfaced to serving clients.
///
/// Every variant carries an **explicit, stable numeric discriminant** (the
/// `#[repr(u16)]` tag) because the gateway's binary wire protocol transmits
/// [`ServeError::code`] in error frames: adding a variant without a code
/// would silently renumber the wire encoding. New variants must append a new
/// discriminant, never renumber or reuse one; the round-trip test in this
/// module pins the mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
#[repr(u16)]
pub enum ServeError {
    /// The server is shutting down (or has shut down) and no longer accepts
    /// or answers requests.
    ShuttingDown = 1,
    /// The request input was rejected before it reached the admission queue.
    BadInput(String) = 2,
    /// The router has no endpoint registered under the requested model name.
    UnknownModel(String) = 3,
    /// The model's admission queue for the request's priority class is full;
    /// the request was shed instead of queueing unboundedly. `retry_after`
    /// estimates when the backlog will have drained.
    Overloaded {
        /// Estimated time until the queue has drained enough to admit again.
        retry_after: Duration,
    } = 4,
    /// The request's [`Request::deadline`] passed before a worker dispatched
    /// it; it was shed from the queue instead of wasting a batch slot on an
    /// answer nobody is waiting for.
    DeadlineExceeded = 5,
    /// The request was cancelled via [`ResponseHandle::cancel`] while it was
    /// still queued. A request that already rode into a batch completes
    /// normally — cancellation is a dispatch-time shed, never a mid-batch
    /// abort.
    Cancelled = 6,
    /// A checkpoint offered for hot-reload does not fit the served model.
    InvalidState(String) = 7,
    /// The model panicked while executing the batch containing this request.
    WorkerFailed(String) = 8,
    /// [`ResponseHandle::wait_timeout`] expired before the response arrived.
    Timeout = 9,
}

impl ServeError {
    /// The variant's stable numeric code — the `#[repr(u16)]` discriminant,
    /// transmitted verbatim in gateway error frames. Code 0 is reserved for
    /// protocol-level errors that are not `ServeError`s.
    #[must_use]
    pub fn code(&self) -> u16 {
        match self {
            ServeError::ShuttingDown => 1,
            ServeError::BadInput(_) => 2,
            ServeError::UnknownModel(_) => 3,
            ServeError::Overloaded { .. } => 4,
            ServeError::DeadlineExceeded => 5,
            ServeError::Cancelled => 6,
            ServeError::InvalidState(_) => 7,
            ServeError::WorkerFailed(_) => 8,
            ServeError::Timeout => 9,
        }
    }

    /// Reconstruct a variant from its wire code, re-attaching the payload
    /// fields a decoded error frame carries separately (`message` for the
    /// `String` variants, `retry_after` for [`ServeError::Overloaded`]).
    /// Returns `None` for codes this build does not know — forward
    /// compatibility is the caller's problem, not a panic.
    #[must_use]
    pub fn from_code(code: u16, message: &str, retry_after: Duration) -> Option<ServeError> {
        match code {
            1 => Some(ServeError::ShuttingDown),
            2 => Some(ServeError::BadInput(message.to_string())),
            3 => Some(ServeError::UnknownModel(message.to_string())),
            4 => Some(ServeError::Overloaded { retry_after }),
            5 => Some(ServeError::DeadlineExceeded),
            6 => Some(ServeError::Cancelled),
            7 => Some(ServeError::InvalidState(message.to_string())),
            8 => Some(ServeError::WorkerFailed(message.to_string())),
            9 => Some(ServeError::Timeout),
            _ => None,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::BadInput(m) => write!(f, "bad input: {}", m),
            ServeError::UnknownModel(m) => write!(f, "no endpoint serves model `{}`", m),
            ServeError::Overloaded { retry_after } => {
                write!(f, "overloaded: request shed, retry after {:.1} ms", retry_after.as_secs_f64() * 1e3)
            }
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded before dispatch; request shed"),
            ServeError::Cancelled => write!(f, "request cancelled while queued"),
            ServeError::InvalidState(m) => write!(f, "invalid checkpoint for hot-reload: {}", m),
            ServeError::WorkerFailed(m) => write!(f, "worker failed: {}", m),
            ServeError::Timeout => write!(f, "timed out waiting for response"),
        }
    }
}

impl std::error::Error for ServeError {}

/// When a worker closes a batch it is forming and executes it.
///
/// A batch is dispatched as soon as it holds `max_batch_size` samples or when
/// its wait budget expires, whichever comes first. The budget is `max_wait`
/// exactly when `adaptive_wait` is off; with `adaptive_wait` on (the default)
/// the scheduler picks the budget automatically from the model's measured
/// arrival rate and batch service time, using `max_wait` as the cap. A single
/// request carrying more than `max_batch_size` samples is not rejected — it
/// is dispatched immediately as an oversized batch of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Target number of *samples* (not requests) per coalesced batch.
    pub max_batch_size: usize,
    /// Upper bound on the time the first request of a batch waits for company
    /// (the exact wait when `adaptive_wait` is off).
    pub max_wait: Duration,
    /// Pick the wait budget automatically: wait roughly as long as the EWMA
    /// inter-arrival time says is needed to fill the batch, but never longer
    /// than twice the EWMA batch service time (past that point batching no
    /// longer amortises) nor `max_wait`, and never less than `max_wait / 16`
    /// (so bursts in flight still coalesce).
    pub adaptive_wait: bool,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_batch_size: 16, max_wait: Duration::from_millis(2), adaptive_wait: true }
    }
}

/// Admission-control policy of one model endpoint: how much work may queue
/// before further requests are shed with [`ServeError::Overloaded`], and how
/// strictly the [`Priority::Interactive`] class dominates the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Maximum queued **samples** per priority class. `None` restores the
    /// pre-router unbounded FIFO (useful only as an overload baseline: under
    /// sustained offered load above capacity an unbounded queue grows — and
    /// with it every request's latency — without bound).
    pub queue_capacity: Option<usize>,
    /// Aging credit for the [`Priority::Batch`] class: after this many
    /// consecutive interactive-seeded batches while batch-class work sat
    /// queued, the next batch is seeded from the batch class instead, so
    /// sustained interactive overload can never starve it completely (it is
    /// guaranteed at least `1 / (batch_aging + 1)` of dispatches). `0`
    /// restores strict priority (the batch class drains only in gaps).
    pub batch_aging: u32,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy { queue_capacity: Some(1024), batch_aging: 8 }
    }
}

/// Configuration of one model endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of model replicas, each on its own dedicated worker thread.
    pub workers: usize,
    /// Batch-formation policy.
    pub policy: BatchPolicy,
    /// Admission-control policy (bounded queues + load shedding + aging).
    pub admission: AdmissionPolicy,
    /// Fair-share weight of this endpoint in the fleet scheduler: under
    /// contention each endpoint is granted service time proportional to its
    /// weight (deficit round robin), so a saturated light model cannot crowd
    /// a heavy one off the CPU. Irrelevant for a single-endpoint server.
    pub weight: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            policy: BatchPolicy::default(),
            admission: AdmissionPolicy::default(),
            weight: 1,
        }
    }
}

impl ServeConfig {
    /// Validate the configuration at server start.
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::BadInput("need at least one worker".into()));
        }
        if self.policy.max_batch_size == 0 {
            return Err(ServeError::BadInput("max_batch_size must be at least 1".into()));
        }
        if self.admission.queue_capacity == Some(0) {
            return Err(ServeError::BadInput("queue_capacity must be at least 1 sample (or None)".into()));
        }
        if self.weight == 0 {
            return Err(ServeError::BadInput("fair-share weight must be at least 1".into()));
        }
        Ok(())
    }
}

/// How a [`Request`] deadline was specified (resolved to an [`Instant`] at
/// submission).
#[derive(Debug, Clone, Copy)]
enum DeadlineSpec {
    Within(Duration),
    At(Instant),
}

/// A typed inference request under construction: the input tensor plus the
/// lifecycle knobs — priority class, deadline, and a caller tag echoed back in
/// the response.
///
/// ```
/// # use quadra_nn::{Layer, Linear, Sequential};
/// # use quadra_serve::{Priority, Request, Router, ServeConfig};
/// # use quadra_tensor::Tensor;
/// # use rand::rngs::StdRng;
/// # use rand::SeedableRng;
/// # use std::time::Duration;
/// # let router = Router::builder()
/// #     .endpoint("classifier", ServeConfig::default(), || {
/// #         let mut rng = StdRng::seed_from_u64(0);
/// #         Box::new(Sequential::new(vec![Box::new(Linear::new(4, 3, true, &mut rng)) as Box<dyn Layer>]))
/// #     })
/// #     .start()
/// #     .unwrap();
/// # let client = router.client();
/// # let image = Tensor::ones(&[1, 4]);
/// let handle = client.send(
///     "classifier",
///     Request::new(image)
///         .priority(Priority::Interactive)
///         .deadline(Duration::from_secs(5))
///         .tag("user-42"),
/// )?;
/// let response = handle.wait()?;
/// assert_eq!(response.tag.as_deref(), Some("user-42"));
/// # Ok::<(), quadra_serve::ServeError>(())
/// ```
#[derive(Debug, Clone)]
#[must_use = "a request does nothing until it is sent"]
pub struct Request {
    pub(crate) input: Tensor,
    pub(crate) priority: Priority,
    deadline: Option<DeadlineSpec>,
    pub(crate) tag: Option<String>,
}

impl Request {
    /// Start building a request around `input`. Axis 0 is always the sample
    /// axis: submit `[n, features]` rows or `[n, C, H, W]` images; the
    /// response's output keeps the same leading axis. Defaults: priority
    /// [`Priority::Interactive`], no deadline, no tag.
    pub fn new(input: Tensor) -> Self {
        Request { input, priority: Priority::Interactive, deadline: None, tag: None }
    }

    /// Set the scheduling class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Give the request a deadline relative to its submission: if no worker
    /// has dispatched it `within` this duration of `send`, it is shed from
    /// the queue with [`ServeError::DeadlineExceeded`] instead of occupying a
    /// batch slot for an answer nobody is waiting for. Requests already in a
    /// batch always complete.
    pub fn deadline(mut self, within: Duration) -> Self {
        self.deadline = Some(DeadlineSpec::Within(within));
        self
    }

    /// Like [`Request::deadline`], but at an absolute instant.
    pub fn deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(DeadlineSpec::At(at));
        self
    }

    /// Attach an opaque caller tag, echoed back in
    /// [`InferResponse::tag`] — useful for correlating responses with
    /// upstream sessions without an external id map.
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = Some(tag.into());
        self
    }

    /// Resolve the deadline against the submission instant.
    pub(crate) fn resolve_deadline(&self, submitted_at: Instant) -> Option<Instant> {
        self.deadline.map(|d| match d {
            DeadlineSpec::Within(within) => submitted_at + within,
            DeadlineSpec::At(at) => at,
        })
    }
}

/// A completed inference, annotated with per-request provenance: which model
/// and version served it, the batch it rode in, and how long it queued.
#[derive(Debug, Clone)]
#[must_use = "the response carries the inference output"]
pub struct InferResponse {
    /// The id the submission returned for this request.
    pub id: u64,
    /// Name of the model endpoint that served the request.
    pub model: String,
    /// Priority class the request was admitted under.
    pub priority: Priority,
    /// The caller tag attached via [`Request::tag`], echoed back verbatim.
    pub tag: Option<String>,
    /// Model output rows for this request's samples: shape `[n, ...]` where
    /// `n` is the request's sample count.
    pub output: Tensor,
    /// Version of the model state that produced the output: 0 until the first
    /// hot-reload of the endpoint, incremented by each successful reload.
    pub model_version: u64,
    /// Fleet-unique id of the batch this request rode in: requests with equal
    /// `batch_id` were coalesced into one forward pass.
    pub batch_id: u64,
    /// Total samples in the coalesced batch this request rode in.
    pub batch_samples: usize,
    /// Time from submission until a worker pulled the request into a batch.
    pub queue_wait: Duration,
    /// Time from submission until the response was produced.
    pub latency: Duration,
}

/// Handle to a response that has not arrived yet, returned by
/// [`RouterClient::send`](crate::RouterClient::send).
///
/// The handle supports the full request lifecycle:
/// * [`wait`](ResponseHandle::wait) blocks until the response arrives,
/// * [`wait_timeout`](ResponseHandle::wait_timeout) blocks with a bound and
///   keeps the handle usable on [`ServeError::Timeout`],
/// * [`try_wait`](ResponseHandle::try_wait) polls without blocking,
/// * [`cancel`](ResponseHandle::cancel) asks the scheduler to shed the
///   request if it is still queued — a request already dispatched into a
///   batch completes normally and cancellation is a no-op.
#[derive(Debug)]
#[must_use = "dropping the handle abandons the request's response"]
pub struct ResponseHandle {
    pub(crate) id: u64,
    pub(crate) rx: mpsc::Receiver<Result<InferResponse, ServeError>>,
    pub(crate) cancelled: Arc<AtomicBool>,
}

impl ResponseHandle {
    /// The request id this handle waits for.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Ask the scheduler to shed the request if it is still queued; its
    /// response then arrives as [`ServeError::Cancelled`]. Best-effort and
    /// race-free by construction: a request that a worker already pulled into
    /// a batch completes normally, and cancelling after completion leaves the
    /// response intact — [`wait`](ResponseHandle::wait) still returns it.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Block until the response arrives.
    pub fn wait(self) -> Result<InferResponse, ServeError> {
        self.rx.recv().map_err(|_| ServeError::ShuttingDown)?
    }

    /// Block for at most `timeout`. On [`ServeError::Timeout`] the handle
    /// stays usable — the request is still in flight and a later
    /// `wait`/`try_wait`/`cancel` behaves normally. A success consumes the
    /// response: each settles exactly one `wait*` call.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<InferResponse, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::ShuttingDown),
        }
    }

    /// Poll for the response without blocking: `None` while the request is
    /// still in flight, `Some(result)` once it settled (the result is
    /// consumed — a later `wait` observes the server as shut down).
    pub fn try_wait(&mut self) -> Option<Result<InferResponse, ServeError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

/// A shared destination for pushed completions: the event-driven alternative
/// to holding one [`ResponseHandle`] per request.
///
/// Every request admitted through
/// [`RouterClient::send_to`](crate::RouterClient::send_to) settles by
/// appending exactly one [`Completion`] here and then calling the queue's
/// wake function, so a single-threaded consumer sleeps on its own readiness
/// primitive and [`take`](CompletionQueue::take)s after each wake. There is
/// no capacity to set: the queue never holds more than the
/// admitted-and-unanswered requests, which admission already bounds.
#[must_use = "a queue nothing is sent to receives nothing"]
pub struct CompletionQueue {
    items: Mutex<Vec<Completion>>,
    wake: Box<dyn Fn() + Send + Sync>,
}

/// The key its caller gave a request, and the serving engine's verdict.
pub type Completion = (u64, Result<InferResponse, ServeError>);

impl CompletionQueue {
    /// A queue that calls `wake` after every push. `wake` runs on the
    /// settling thread (usually a worker) with no lock held; it must not
    /// block or panic.
    pub fn new(wake: impl Fn() + Send + Sync + 'static) -> Arc<CompletionQueue> {
        Arc::new(CompletionQueue { items: Mutex::new(Vec::new()), wake: Box::new(wake) })
    }

    /// Take every completion pushed since the last call, in settle order.
    #[must_use]
    pub fn take(&self) -> Vec<Completion> {
        std::mem::take(&mut *lock_or_recover(&self.items))
    }
}

/// Where a request's result goes.
pub(crate) enum ReplyDest {
    /// The receiver inside the caller's [`ResponseHandle`].
    Channel(mpsc::Sender<Result<InferResponse, ServeError>>),
    /// A shared queue, under the caller's key.
    Queue(u64, Arc<CompletionQueue>),
}

/// The single-use reply slot of a [`PendingInfer`]: answered exactly once.
///
/// [`settle`](ReplySlot::settle) consumes the slot, so a request cannot be
/// answered twice; a slot dropped unanswered (router torn down with work
/// queued, a worker unwinding past its catch) answers
/// [`ServeError::ShuttingDown`] from its `Drop`, so every admitted request
/// reaches its destination no matter how it leaves the engine.
pub(crate) struct ReplySlot(Option<ReplyDest>);

impl ReplySlot {
    pub fn new(dest: ReplyDest) -> ReplySlot {
        ReplySlot(Some(dest))
    }

    /// Answer the request.
    pub fn settle(mut self, result: Result<InferResponse, ServeError>) {
        self.deliver(result);
    }

    /// Discard the slot without answering: admission refused the request, so
    /// its caller already holds the error.
    pub fn defuse(mut self) {
        self.0 = None;
    }

    fn deliver(&mut self, result: Result<InferResponse, ServeError>) {
        match self.0.take() {
            Some(ReplyDest::Channel(tx)) => {
                // quadra-analyze: allow(must_use, a dropped receiver means the client stopped waiting)
                let _ = tx.send(result);
            }
            Some(ReplyDest::Queue(key, queue)) => {
                // The guard is a temporary of the push statement: the wake,
                // which may take the consumer's locks, runs unlocked.
                lock_or_recover(&queue.items).push((key, result));
                (queue.wake)();
            }
            None => {}
        }
    }
}

impl Drop for ReplySlot {
    fn drop(&mut self) {
        self.deliver(Err(ServeError::ShuttingDown));
    }
}

/// A request travelling through the admission queue towards a worker.
pub(crate) struct PendingInfer {
    pub id: u64,
    pub input: Tensor,
    pub samples: usize,
    pub priority: Priority,
    pub tag: Option<String>,
    pub submitted_at: Instant,
    /// Shed the request at dispatch time once this instant has passed.
    pub deadline: Option<Instant>,
    /// Set by [`ResponseHandle::cancel`]; checked at dispatch time.
    pub cancelled: Arc<AtomicBool>,
    pub reply: ReplySlot,
}

impl PendingInfer {
    /// Why the request must be shed at dispatch time, if it must.
    pub fn dead_reason(&self, now: Instant) -> Option<ServeError> {
        if self.cancelled.load(Ordering::SeqCst) {
            return Some(ServeError::Cancelled);
        }
        match self.deadline {
            Some(deadline) if now > deadline => Some(ServeError::DeadlineExceeded),
            _ => None,
        }
    }
}

#[cfg(test)]
impl PendingInfer {
    /// A live request around `input` with no tag or deadline, answering at
    /// `dest` — the fixture of this crate's unit tests.
    pub fn for_test(input: Tensor, priority: Priority, dest: ReplyDest) -> PendingInfer {
        PendingInfer {
            id: 0,
            samples: input.shape()[0],
            input,
            priority,
            tag: None,
            submitted_at: Instant::now(),
            deadline: None,
            cancelled: Arc::new(AtomicBool::new(false)),
            reply: ReplySlot::new(dest),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_error_displays_every_variant() {
        let cases: Vec<(ServeError, &str)> = vec![
            (ServeError::ShuttingDown, "shutting down"),
            (ServeError::BadInput("x".into()), "bad input"),
            (ServeError::UnknownModel("resnet".into()), "`resnet`"),
            (ServeError::Overloaded { retry_after: Duration::from_millis(5) }, "retry after 5.0 ms"),
            (ServeError::DeadlineExceeded, "deadline"),
            (ServeError::Cancelled, "cancelled"),
            (ServeError::InvalidState("y".into()), "hot-reload"),
            (ServeError::WorkerFailed("z".into()), "worker failed"),
            (ServeError::Timeout, "timed out"),
        ];
        for (err, needle) in cases {
            let rendered = err.to_string();
            assert!(rendered.contains(needle), "{rendered:?} should contain {needle:?}");
        }
    }

    #[test]
    fn serve_error_codes_roundtrip_and_match_declared_discriminants() {
        let variants: Vec<ServeError> = vec![
            ServeError::ShuttingDown,
            ServeError::BadInput("bad".into()),
            ServeError::UnknownModel("resnet".into()),
            ServeError::Overloaded { retry_after: Duration::from_millis(5) },
            ServeError::DeadlineExceeded,
            ServeError::Cancelled,
            ServeError::InvalidState("shape".into()),
            ServeError::WorkerFailed("panic".into()),
            ServeError::Timeout,
        ];
        let mut seen = std::collections::HashSet::new();
        for err in &variants {
            let code = err.code();
            assert_ne!(code, 0, "code 0 is reserved for protocol errors");
            assert!(seen.insert(code), "duplicate wire code {code}");
            // `code()` must agree with the declared `#[repr(u16)]` discriminant:
            // for a repr(u16) enum the tag is the first u16 of the value
            // (RFC 2195 layout), so a mismatch between the literal in the enum
            // declaration and the `match` in `code()` fails here.
            let tag = unsafe { *(err as *const ServeError as *const u16) };
            assert_eq!(code, tag, "code() disagrees with declared discriminant for {err:?}");
            // Round-trip: the payload fields travel separately on the wire.
            let (message, retry_after) = match err {
                ServeError::BadInput(m)
                | ServeError::UnknownModel(m)
                | ServeError::InvalidState(m)
                | ServeError::WorkerFailed(m) => (m.as_str(), Duration::ZERO),
                ServeError::Overloaded { retry_after } => ("", *retry_after),
                _ => ("", Duration::ZERO),
            };
            let back =
                ServeError::from_code(code, message, retry_after).expect("every emitted code reconstructs");
            assert_eq!(&back, err, "round-trip changed the variant");
        }
        assert_eq!(seen.len(), variants.len(), "test must cover every variant exactly once");
        assert_eq!(ServeError::from_code(0, "", Duration::ZERO), None, "0 is reserved");
        assert_eq!(ServeError::from_code(u16::MAX, "", Duration::ZERO), None);
    }

    #[test]
    fn serve_error_threads_through_boxed_error_callers() {
        // anyhow-style propagation: `?` into a Box<dyn Error>.
        fn faulty() -> Result<(), ServeError> {
            Err(ServeError::Overloaded { retry_after: Duration::from_millis(1) })
        }
        fn caller() -> Result<(), Box<dyn std::error::Error>> {
            faulty()?;
            Ok(())
        }
        let err = caller().unwrap_err();
        assert!(err.to_string().contains("overloaded"));
    }

    #[test]
    fn config_validation_rejects_degenerate_settings() {
        assert!(ServeConfig { workers: 0, ..base() }.validate().is_err());
        let zero_batch =
            ServeConfig { policy: BatchPolicy { max_batch_size: 0, ..BatchPolicy::default() }, ..base() };
        assert!(zero_batch.validate().is_err());
        let zero_queue = ServeConfig {
            admission: AdmissionPolicy { queue_capacity: Some(0), ..AdmissionPolicy::default() },
            ..base()
        };
        assert!(zero_queue.validate().is_err());
        assert!(ServeConfig { weight: 0, ..base() }.validate().is_err());
        assert!(base().validate().is_ok());
        let unbounded = ServeConfig {
            admission: AdmissionPolicy { queue_capacity: None, ..AdmissionPolicy::default() },
            ..base()
        };
        assert!(unbounded.validate().is_ok());
    }

    fn base() -> ServeConfig {
        ServeConfig { workers: 2, ..ServeConfig::default() }
    }

    #[test]
    fn request_builder_accumulates_lifecycle_fields() {
        let submitted_at = Instant::now();
        let request = Request::new(Tensor::ones(&[1, 2]))
            .priority(Priority::Batch)
            .deadline(Duration::from_millis(10))
            .tag("session-7");
        assert_eq!(request.priority, Priority::Batch);
        assert_eq!(request.tag.as_deref(), Some("session-7"));
        let deadline = request.resolve_deadline(submitted_at).unwrap();
        assert_eq!(deadline, submitted_at + Duration::from_millis(10));

        let at = submitted_at + Duration::from_secs(1);
        let absolute = Request::new(Tensor::ones(&[1, 2])).deadline_at(at);
        assert_eq!(absolute.resolve_deadline(submitted_at), Some(at));
        assert_eq!(Request::new(Tensor::ones(&[1, 2])).resolve_deadline(submitted_at), None);
    }

    fn pending(dest: ReplyDest) -> PendingInfer {
        PendingInfer::for_test(Tensor::ones(&[1, 2]), Priority::Interactive, dest)
    }

    #[test]
    fn reply_slot_answers_exactly_once_on_both_variants() {
        let wakes = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&wakes);
        let queue = CompletionQueue::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        let queued = |key| ReplyDest::Queue(key, Arc::clone(&queue));
        let verdicts = || -> Vec<_> { queue.take().into_iter().map(|(k, r)| (k, r.unwrap_err())).collect() };

        // Dropped unanswered: both destinations hear ShuttingDown.
        let (tx, rx) = mpsc::channel();
        drop(pending(ReplyDest::Channel(tx)));
        assert_eq!(rx.try_recv().unwrap().unwrap_err(), ServeError::ShuttingDown);
        drop(pending(queued(7)));
        assert_eq!(verdicts(), vec![(7, ServeError::ShuttingDown)]);

        // Settled: the verdict arrives once; the drop that follows adds none.
        let (tx, rx) = mpsc::channel();
        pending(ReplyDest::Channel(tx)).reply.settle(Err(ServeError::Cancelled));
        assert_eq!(rx.try_recv().unwrap().unwrap_err(), ServeError::Cancelled);
        assert!(matches!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected)));
        pending(queued(8)).reply.settle(Err(ServeError::Cancelled));
        assert_eq!(verdicts(), vec![(8, ServeError::Cancelled)]);

        // Refused at admission: the caller already holds the error.
        pending(queued(9)).reply.defuse();
        assert!(queue.take().is_empty());
        assert_eq!(wakes.load(Ordering::SeqCst), 2, "one wake per push");
    }

    #[test]
    fn dead_reason_prefers_cancellation_and_respects_deadlines() {
        let now = Instant::now();
        let mut req = PendingInfer { submitted_at: now, ..pending(ReplyDest::Channel(mpsc::channel().0)) };
        assert_eq!(req.dead_reason(now), None);
        req.deadline = Some(now + Duration::from_millis(5));
        assert_eq!(req.dead_reason(now), None, "deadline in the future is live");
        assert_eq!(
            req.dead_reason(now + Duration::from_millis(6)),
            Some(ServeError::DeadlineExceeded),
            "expired deadline sheds"
        );
        req.cancelled.store(true, Ordering::SeqCst);
        assert_eq!(
            req.dead_reason(now),
            Some(ServeError::Cancelled),
            "cancellation dominates even before the deadline"
        );
    }
}
