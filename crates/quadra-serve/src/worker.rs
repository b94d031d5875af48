//! Worker threads: each owns one replica of its endpoint's model, pulls
//! batches straight from the admission queue through the scheduler the moment
//! it goes idle, executes them in eval mode, splits outputs per request, and
//! applies hot-reloaded state between batches.

use crate::endpoint::EndpointShared;
use crate::request::{InferResponse, ReplySlot, ServeError};
use crate::scheduler::{self, assemble, Batch};
use crate::sync::lock_or_recover;
use quadra_nn::{Layer, StateDict};
use quadra_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Builds one model replica. Called on each worker thread, so the models
/// themselves never cross a thread boundary and the `Layer` trait needs no
/// `Send` bound.
pub(crate) type ModelFactory = dyn Fn() -> Box<dyn Layer> + Send + Sync;

/// The published checkpoint workers swap in between batches.
///
/// The fast path is a single atomic load per batch; only a version change
/// takes the lock. State dicts are validated against a throwaway replica
/// before being published, so applying them on a worker cannot fail.
pub(crate) struct ReloadSlot {
    version: AtomicU64,
    state: Mutex<Option<Arc<StateDict>>>,
}

impl ReloadSlot {
    pub fn new() -> Self {
        ReloadSlot { version: AtomicU64::new(0), state: Mutex::new(None) }
    }

    /// Current state version (0 = initial factory weights).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Publish a validated state dict, returning the new version.
    pub fn publish(&self, state: StateDict) -> u64 {
        let mut guard = lock_or_recover(&self.state);
        *guard = Some(Arc::new(state));
        self.version.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The latest (version, state) pair, read consistently.
    fn latest(&self) -> (u64, Option<Arc<StateDict>>) {
        let guard = lock_or_recover(&self.state);
        (self.version.load(Ordering::SeqCst), guard.clone())
    }

    /// Bring `model` up to the latest published state if `local` is stale.
    /// Returns the version the model now holds.
    pub fn apply_if_newer(&self, model: &mut dyn Layer, local: u64) -> u64 {
        if self.version.load(Ordering::SeqCst) == local {
            return local;
        }
        self.force_apply(model)
    }

    /// Unconditionally load the latest published state (used when a replica
    /// is first built or rebuilt after a panic). Returns its version.
    // quadra-analyze: allow(panic_path:expect, state dicts are validated against a throwaway replica before publish so load_into cannot fail here)
    pub fn force_apply(&self, model: &mut dyn Layer) -> u64 {
        let (version, state) = self.latest();
        if let Some(state) = state {
            state.load_into(model).expect("hot-reload state was validated at publish time");
        }
        version
    }
}

// quadra-analyze: allow(hot_alloc:to-string, cold path: runs only when a model forward panicked and the replica is being rebuilt)
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model panicked".to_string()
    }
}

/// The worker thread body: pull a batch (blocking until the endpoint has work
/// and the fair-share gate opens), execute it, settle the service-time books,
/// answer its requests, repeat until the queue is closed and drained.
pub(crate) fn run(factory: Arc<ModelFactory>, shared: Arc<EndpointShared>) {
    let mut model = factory();
    let mut version = shared.reload.force_apply(model.as_mut());
    // The guard settles the fair-share grant even if this thread unwinds
    // past `execute`'s catch (e.g. a poisoned lock): a leaked grant would
    // otherwise wedge the fleet's execution gate permanently.
    while let Some((batch, mut guard)) = scheduler::next_batch(&shared) {
        version = shared.reload.apply_if_newer(model.as_mut(), version);
        guard.start_execution();
        let (replies, outcome) = execute(model.as_mut(), batch, version, &shared);
        let actual_us = guard.finish();
        shared.metrics.record_service(actual_us);
        if outcome.is_ok() {
            // Feed the batch-cost EWMA from the same settled figure the DRR
            // books use, so estimates and charges can never drift apart.
            shared.record_batch_service(Duration::from_micros(actual_us));
        }
        // Answer only once the books are settled. A pushed completion reaches
        // its caller in microseconds, and the request that caller sends next
        // can seed a batch on an idle sibling worker at once: its wait budget
        // is capped by the service EWMA, which must already hold this batch's
        // cost or the new batch sits out the whole `max_wait`.
        for (slot, reply) in replies {
            slot.settle(reply);
        }
        if outcome.is_err() {
            // The replica's caches may be inconsistent after an unwound
            // forward; rebuild it from scratch and re-apply the latest state.
            model = factory();
            version = shared.reload.force_apply(model.as_mut());
        }
    }
}

/// A request's reply slot and the answer it is about to be given.
type Reply = (ReplySlot, Result<InferResponse, ServeError>);

/// Every rider of `batch` answered with `err`.
fn fail_all(batch: Batch, err: &ServeError) -> Vec<Reply> {
    batch.requests.into_iter().map(|request| (request.reply, Err(err.clone()))).collect()
}

/// Run one batch on `model` and prepare every rider's reply for the caller to
/// deliver. `Err` means the forward pass panicked: rebuild the replica.
fn execute(
    model: &mut dyn Layer,
    batch: Batch,
    version: u64,
    shared: &EndpointShared,
) -> (Vec<Reply>, Result<(), ()>) {
    let (input, counts) = match assemble(&batch.requests) {
        Ok(assembled) => assembled,
        Err(err) => {
            // A malformed batch is a dispatch bug, not a replica fault: answer
            // every rider with the error and keep the replica.
            shared.metrics.record_errors(batch.requests.len());
            return (fail_all(batch, &err), Ok(()));
        }
    };
    let batch_samples = batch.samples();
    match catch_unwind(AssertUnwindSafe(|| model.forward(&input, false))) {
        Ok(output) => {
            let done_at = Instant::now();
            // Phase 1: split the batch output into per-request row views and
            // collect latencies, borrowing the requests — responses are built
            // in phase 2, which consumes them, so tags move instead of
            // deep-copying.
            let mut latencies = Vec::with_capacity(batch.requests.len());
            let mut outcomes: Vec<Result<Tensor, ServeError>> = Vec::with_capacity(batch.requests.len());
            let mut split_errors = 0;
            let mut offset = 0;
            for (request, n) in batch.requests.iter().zip(counts) {
                let start = offset;
                offset += n;
                match output.narrow(0, start, n) {
                    Ok(rows) => {
                        latencies.push((done_at.duration_since(request.submitted_at), request.priority));
                        outcomes.push(Ok(rows));
                    }
                    Err(e) => {
                        split_errors += 1;
                        // quadra-analyze: allow(hot_alloc:format, split failure is a dispatch bug, not steady-state traffic)
                        let msg = format!("per-request split failed: {e}");
                        outcomes.push(Err(ServeError::WorkerFailed(msg)));
                    }
                }
            }
            shared.metrics.record_batch(batch_samples, &latencies);
            if split_errors > 0 {
                shared.metrics.record_errors(split_errors);
            }
            // Phase 2: consume the requests, moving each tag into its reply.
            let (batch_id, formed_at) = (batch.id, batch.formed_at);
            let mut replies = Vec::with_capacity(batch.requests.len());
            for (request, outcome) in batch.requests.into_iter().zip(outcomes) {
                let reply = outcome.map(|rows| InferResponse {
                    id: request.id,
                    model: shared.name.clone(),
                    priority: request.priority,
                    tag: request.tag,
                    output: rows,
                    model_version: version,
                    batch_id,
                    batch_samples,
                    queue_wait: formed_at.duration_since(request.submitted_at),
                    latency: done_at.duration_since(request.submitted_at),
                });
                replies.push((request.reply, reply));
            }
            (replies, Ok(()))
        }
        Err(payload) => {
            let message = panic_message(payload);
            shared.metrics.record_errors(batch.requests.len());
            (fail_all(batch, &ServeError::WorkerFailed(message)), Err(()))
        }
    }
}
