//! The serving front-end: the multi-model [`Router`] (named endpoints, each
//! with its own admission queue, worker pool, and hot-reload version, all
//! sharing one fleet scheduler) and its cloneable [`RouterClient`].

use crate::endpoint::EndpointShared;
use crate::metrics::{RouterMetrics, ServeMetrics};
use crate::request::{
    CompletionQueue, InferResponse, ReplyDest, Request, ResponseHandle, ServeConfig, ServeError,
};
use crate::scheduler::FleetScheduler;
use crate::worker::{self, ModelFactory};
use quadra_nn::{Layer, StateDict};
use quadra_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

struct EndpointRuntime {
    shared: Arc<EndpointShared>,
    factory: Arc<ModelFactory>,
    workers: Vec<JoinHandle<()>>,
}

/// A multi-model routing engine: N named model endpoints behind one admission
/// layer and one fleet scheduler.
///
/// Each endpoint owns its own bounded priority admission queue, batch policy,
/// worker pool of model replicas, hot-reload version, and metrics hub — so
/// one model's backlog cannot delay another model's requests, hot-reloading
/// one endpoint never disturbs the rest of the fleet, and latency percentiles
/// are always per model. Batches are formed by **idle workers pulling from
/// the queue** (never ahead of execution), arbitrated across endpoints by
/// deficit-round-robin weighted fair sharing ([`ServeConfig::weight`]).
/// Requests are admitted or shed synchronously at submission
/// ([`ServeError::Overloaded`] carries a live `retry_after` estimate) and
/// lifecycle-aware afterwards: a queued request can be
/// [cancelled](ResponseHandle::cancel) or expire at its
/// [deadline](Request::deadline), in which case it is shed at dispatch time.
///
/// ```
/// use quadra_nn::{Layer, Linear, Sequential};
/// use quadra_serve::{Priority, Request, Router, ServeConfig};
/// use quadra_tensor::Tensor;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// fn mlp(inputs: usize, seed: u64) -> Box<dyn Layer> {
///     let mut rng = StdRng::seed_from_u64(seed);
///     Box::new(Sequential::new(vec![Box::new(Linear::new(inputs, 3, true, &mut rng)) as Box<dyn Layer>]))
/// }
///
/// let router = Router::builder()
///     .endpoint("narrow", ServeConfig::default(), || mlp(4, 0))
///     .endpoint("wide", ServeConfig::default(), || mlp(8, 1))
///     .start()
///     .unwrap();
/// let client = router.client();
/// let narrow = client.infer("narrow", Tensor::ones(&[1, 4])).unwrap();
/// assert_eq!(narrow.output.shape(), &[1, 3]);
/// let wide = client
///     .send("wide", Request::new(Tensor::ones(&[2, 8])).priority(Priority::Batch).tag("nightly"))
///     .unwrap()
///     .wait()
///     .unwrap();
/// assert_eq!(wide.model, "wide");
/// assert_eq!(wide.tag.as_deref(), Some("nightly"));
/// let metrics = router.shutdown();
/// assert_eq!(metrics.get("narrow").unwrap().completed_requests, 1);
/// ```
#[must_use = "dropping a Router without shutdown() leaks its worker threads"]
pub struct Router {
    endpoints: BTreeMap<String, EndpointRuntime>,
    client_map: Arc<BTreeMap<String, Arc<EndpointShared>>>,
    fleet: Arc<FleetScheduler>,
    next_id: Arc<AtomicU64>,
}

/// Accumulates named endpoints for [`RouterBuilder::start`].
#[derive(Default)]
#[must_use = "a builder does nothing until start() is called"]
pub struct RouterBuilder {
    endpoints: Vec<(String, ServeConfig, Arc<ModelFactory>)>,
}

impl RouterBuilder {
    /// Register a model endpoint. `factory` builds one replica of the model;
    /// it is called once per worker on the worker's own thread (plus once per
    /// [`Router::reload`] for validation), so replicas never cross threads.
    pub fn endpoint<F>(mut self, name: &str, config: ServeConfig, factory: F) -> Self
    where
        F: Fn() -> Box<dyn Layer> + Send + Sync + 'static,
    {
        self.endpoints.push((name.to_string(), config, Arc::new(factory)));
        self
    }

    /// Validate every endpoint configuration and spawn the engine.
    pub fn start(self) -> Result<Router, ServeError> {
        if self.endpoints.is_empty() {
            return Err(ServeError::BadInput("router needs at least one endpoint".into()));
        }
        let fleet = Arc::new(FleetScheduler::new());
        let mut runtimes = BTreeMap::new();
        for (name, config, factory) in self.endpoints {
            if name.is_empty() {
                return Err(ServeError::BadInput("endpoint name must not be empty".into()));
            }
            config.validate()?;
            if runtimes.contains_key(&name) {
                return Err(ServeError::BadInput(format!("duplicate endpoint name `{}`", name)));
            }
            let shared = Arc::new(EndpointShared::new(&name, config, Arc::clone(&fleet)));
            let workers = spawn_workers(&shared, &factory)?;
            runtimes.insert(name, EndpointRuntime { shared, factory, workers });
        }
        let client_map: BTreeMap<String, Arc<EndpointShared>> =
            runtimes.iter().map(|(name, rt)| (name.clone(), Arc::clone(&rt.shared))).collect();
        Ok(Router {
            endpoints: runtimes,
            client_map: Arc::new(client_map),
            fleet,
            next_id: Arc::new(AtomicU64::new(0)),
        })
    }
}

/// Spawn one endpoint's worker pool. Each worker pulls batches straight from
/// the admission queue through the scheduler the moment it goes idle — there
/// is no batcher thread and no batch ever waits formed-but-unexecuted.
fn spawn_workers(
    shared: &Arc<EndpointShared>,
    factory: &Arc<ModelFactory>,
) -> Result<Vec<JoinHandle<()>>, ServeError> {
    let mut workers = Vec::with_capacity(shared.config.workers);
    for i in 0..shared.config.workers {
        let factory = Arc::clone(factory);
        let worker_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("quadra-serve-worker-{}-{}", shared.name, i))
            .spawn(move || worker::run(factory, worker_shared))
            .map_err(|e| ServeError::BadInput(format!("cannot spawn worker thread: {e}")))?;
        workers.push(handle);
    }
    Ok(workers)
}

impl Router {
    /// Start declaring endpoints for a new router.
    pub fn builder() -> RouterBuilder {
        RouterBuilder::default()
    }

    /// A cheap cloneable handle for submitting requests to any endpoint.
    /// Clients stay valid until shutdown; submissions afterwards fail with
    /// [`ServeError::ShuttingDown`].
    pub fn client(&self) -> RouterClient {
        RouterClient { endpoints: Arc::clone(&self.client_map), next_id: Arc::clone(&self.next_id) }
    }

    /// The registered endpoint names, sorted.
    pub fn models(&self) -> Vec<String> {
        self.endpoints.keys().cloned().collect()
    }

    fn endpoint(&self, model: &str) -> Result<&EndpointRuntime, ServeError> {
        self.endpoints.get(model).ok_or_else(|| ServeError::UnknownModel(model.to_string()))
    }

    /// Swap in a new state for one endpoint between batches, leaving every
    /// other endpoint untouched.
    ///
    /// The checkpoint is validated against a freshly built replica first; an
    /// incompatible one is rejected without disturbing the serving state. On
    /// success the endpoint's new version number is returned and each of its
    /// workers picks the state up before its next batch — requests never
    /// observe a half-loaded model.
    pub fn reload(&self, model: &str, state: StateDict) -> Result<u64, ServeError> {
        let runtime = self.endpoint(model)?;
        let mut probe = (runtime.factory)();
        state.load_into(probe.as_mut()).map_err(ServeError::InvalidState)?;
        let version = runtime.shared.reload.publish(state);
        runtime.shared.metrics.record_reload();
        Ok(version)
    }

    /// The state version `model`'s workers currently serve from (0 until the
    /// endpoint's first [`Router::reload`]).
    pub fn version(&self, model: &str) -> Result<u64, ServeError> {
        Ok(self.endpoint(model)?.shared.reload.version())
    }

    /// A point-in-time snapshot of one endpoint's serving statistics.
    pub fn metrics_for(&self, model: &str) -> Result<ServeMetrics, ServeError> {
        Ok(self.endpoint(model)?.shared.snapshot())
    }

    /// Point-in-time snapshots of every endpoint, sorted by model name.
    pub fn metrics(&self) -> RouterMetrics {
        RouterMetrics { models: self.endpoints.values().map(|rt| rt.shared.snapshot()).collect() }
    }

    /// Stop accepting requests, drain every admitted request (each still
    /// receives its response — or its [`ServeError::Cancelled`] /
    /// [`ServeError::DeadlineExceeded`] shed if its lifecycle ended first),
    /// join all threads, and return the final per-model metrics snapshots.
    pub fn shutdown(mut self) -> RouterMetrics {
        self.shutdown_inner();
        self.metrics()
    }

    fn shutdown_inner(&mut self) {
        // Close every admission queue and lift the fair-share throttle first,
        // so all endpoints drain in parallel, then join their workers.
        for runtime in self.endpoints.values() {
            runtime.shared.queue.close();
            self.fleet.close_member(runtime.shared.member);
        }
        for runtime in self.endpoints.values_mut() {
            for handle in runtime.workers.drain(..) {
                // quadra-analyze: allow(must_use, a worker that panicked already answered its batch with WorkerFailed; the join result adds nothing)
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        if self.endpoints.values().any(|rt| !rt.workers.is_empty()) {
            self.shutdown_inner();
        }
    }
}

/// Client handle for submitting inference requests to a [`Router`].
#[derive(Clone)]
#[must_use = "a client handle that is never used submits nothing"]
pub struct RouterClient {
    endpoints: Arc<BTreeMap<String, Arc<EndpointShared>>>,
    next_id: Arc<AtomicU64>,
}

impl RouterClient {
    /// Submit a built [`Request`] to `model` and return the handle to its
    /// response — the primary entry point of the serving API.
    ///
    /// Axis 0 of the request input is always the sample axis: submit
    /// `[n, features]` rows or `[n, C, H, W]` images (`n` may exceed the
    /// endpoint's `max_batch_size`, forming an oversized batch of its own).
    /// The response's output has the same leading axis. A full admission
    /// queue sheds the request with [`ServeError::Overloaded`] instead of
    /// queueing it unboundedly; a queued request can still be
    /// [cancelled](ResponseHandle::cancel) or expire at its
    /// [deadline](Request::deadline).
    pub fn send(&self, model: &str, request: Request) -> Result<ResponseHandle, ServeError> {
        let (endpoint, id) = self.route(model)?;
        let (tx, rx) = mpsc::channel();
        let cancelled = endpoint.submit(id, request, ReplyDest::Channel(tx))?;
        Ok(ResponseHandle { id, rx, cancelled })
    }

    /// Like [`send`](RouterClient::send), but for event-driven callers: no
    /// handle is returned; the response is pushed onto `queue` as a
    /// [`Completion`](crate::Completion) under `key`, and the queue's wake
    /// function runs. A submission refused here (unknown model, bad input,
    /// shed, shutting down) returns its error and pushes nothing; an admitted
    /// one pushes exactly once, even if the router is torn down first.
    pub fn send_to(
        &self,
        model: &str,
        request: Request,
        key: u64,
        queue: &Arc<CompletionQueue>,
    ) -> Result<(), ServeError> {
        let (endpoint, id) = self.route(model)?;
        endpoint.submit(id, request, ReplyDest::Queue(key, Arc::clone(queue))).map(drop)
    }

    /// Submit at [`Priority::Interactive`](crate::Priority::Interactive) and
    /// block until the response arrives.
    pub fn infer(&self, model: &str, input: Tensor) -> Result<InferResponse, ServeError> {
        // quadra-analyze: allow(condvar:wait-not-in-loop, ResponseHandle::wait is a one-shot channel join, not a condvar wait)
        self.send(model, Request::new(input))?.wait()
    }

    /// The endpoint names this client can route to, sorted.
    pub fn models(&self) -> Vec<String> {
        self.endpoints.keys().cloned().collect()
    }

    /// Look `model` up and draw the next request id.
    fn route(&self, model: &str) -> Result<(&Arc<EndpointShared>, u64), ServeError> {
        let endpoint =
            self.endpoints.get(model).ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        // quadra-analyze: allow(atomics:relaxed-fetch, request ids are a monotonic counter; no memory is published through them)
        Ok((endpoint, self.next_id.fetch_add(1, Ordering::Relaxed)))
    }
}
