//! The worker-pull scheduler: batch formation at the moment a worker goes
//! idle, deficit-round-robin fair sharing across endpoints, and dispatch-time
//! shedding of cancelled and deadline-expired requests.
//!
//! This replaces the PR-3/PR-4 standalone batcher thread. The batcher formed
//! a batch *ahead* of the workers and handed it over a rendezvous channel, so
//! under overload an admitted request's floor sojourn was ~2 batch service
//! times (one batch executing, one already formed and waiting). Here an idle
//! worker pulls straight from its endpoint's admission queue and the batch
//! only exists once a worker is ready to run it — the pipeline holds exactly
//! the executing batch, and priority/cancellation/deadline decisions are made
//! at the last possible moment.

use crate::admission::{PopResult, TakeResult};
use crate::clock::{self, ChargeSession};
use crate::endpoint::EndpointShared;
use crate::request::{PendingInfer, ServeError};
use crate::sync::{lock_or_recover, wait_timeout_or_recover};
use quadra_tensor::Tensor;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service-time quantum one fair-share round grants per unit of endpoint
/// weight. Small enough that a throttled endpoint resumes within a few
/// milliseconds; large enough to cover several batches of a light model per
/// round.
const QUANTUM_US: i64 = 5_000;
/// Credit cap in rounds: an endpoint that was briefly uncontended cannot
/// hoard more than this many rounds of credit.
const DEFICIT_CAP_ROUNDS: i64 = 4;
/// Debt floor in rounds: one pathological batch (an oversized request) may
/// overdraw at most this far, bounding how long the endpoint is throttled.
const DEBT_FLOOR_ROUNDS: i64 = 8;
/// How often a waiting endpoint re-evaluates the fleet state (covers depth
/// changes that do not go through `settle`).
const ARBITRATION_TICK: Duration = Duration::from_millis(2);

/// A batch formed by an idle worker, on its way into the forward pass.
pub(crate) struct Batch {
    /// Fleet-unique batch id, echoed in every response's provenance.
    pub id: u64,
    pub requests: Vec<PendingInfer>,
    pub formed_at: Instant,
}

impl Batch {
    /// Total samples across the batch's requests.
    pub fn samples(&self) -> usize {
        self.requests.iter().map(|r| r.samples).sum()
    }
}

/// Which requests may share a batch: the batch axis is always axis 0 and the
/// trailing axes must match exactly, so a served prediction never depends on
/// which requests shared its batch.
pub(crate) fn compat_key(shape: &[usize]) -> Vec<usize> {
    let mut key = vec![shape.len()];
    if let Some((_, trailing)) = shape.split_first() {
        key.extend_from_slice(trailing);
    }
    key
}

/// Concatenate the requests' inputs along axis 0. Returns the batch tensor
/// and the per-request sample counts (in request order), or an error when the
/// batch is malformed (empty, or shapes that slipped past `compat_key`) — the
/// worker answers every rider with it instead of panicking mid-batch.
pub(crate) fn assemble(requests: &[PendingInfer]) -> Result<(Tensor, Vec<usize>), ServeError> {
    if requests.is_empty() {
        // quadra-analyze: allow(hot_alloc:to-string, error path: an empty batch is a dispatch bug, not steady-state traffic)
        return Err(ServeError::WorkerFailed("cannot assemble an empty batch".to_string()));
    }
    let counts: Vec<usize> = requests.iter().map(|r| r.samples).collect();
    let refs: Vec<&Tensor> = requests.iter().map(|r| &r.input).collect();
    let batch = Tensor::concat(&refs, 0)
        // quadra-analyze: allow(hot_alloc:format, error path: compat_key guarantees concat succeeds for admitted batches)
        .map_err(|e| ServeError::WorkerFailed(format!("batch assembly failed: {e}")))?;
    Ok((batch, counts))
}

/// What `FleetScheduler::acquire` decided, threaded through to `settle` so
/// the books balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Grant {
    member: usize,
    /// Microseconds debited from the member's deficit (0 for an uncontended
    /// free ride — idle CPU is never charged).
    debited_us: u64,
}

/// RAII wrapper around a [`Grant`]: guarantees `settle` runs exactly once,
/// even if the holding worker thread unwinds. A leaked grant would pin the
/// member's `in_service` marker forever, keeping a drained endpoint visible
/// as a contender and throttling its neighbours. With the guard, a panicking
/// worker only shrinks its own endpoint's pool (the pre-scheduler failure
/// mode).
pub(crate) struct GrantGuard {
    fleet: Arc<FleetScheduler>,
    grant: Option<Grant>,
    /// Opened just before the batch's forward pass; `None` at drop means the
    /// batch never executed and the whole debit is refunded. The session
    /// attributes CPU across every thread that executes the batch's tasks —
    /// including pool workers running stolen GEMM row-blocks — and excludes
    /// intervals this worker spends helping another endpoint's jobs while it
    /// waits. Both the open and the settle happen on the owning worker
    /// thread, which the session requires.
    charge: Option<ChargeSession>,
}

impl GrantGuard {
    fn new(fleet: Arc<FleetScheduler>, grant: Grant) -> Self {
        GrantGuard { fleet, grant: Some(grant), charge: None }
    }

    /// Mark the start of the granted batch's execution; service time is
    /// billed from here until settle.
    pub fn start_execution(&mut self) {
        self.charge = Some(clock::start_charge());
    }

    fn settle_now(&mut self) -> u64 {
        let Some(grant) = self.grant.take() else { return 0 };
        let actual_us = self.charge.take().map(ChargeSession::finish_us).unwrap_or(0);
        self.fleet.settle(grant, actual_us);
        actual_us
    }

    /// Settle the books and return the measured service time in µs.
    pub fn finish(mut self) -> u64 {
        self.settle_now()
    }
}

impl Drop for GrantGuard {
    fn drop(&mut self) {
        self.settle_now();
    }
}

struct MemberState {
    weight: i64,
    /// Remaining service credit in µs; negative = debt carried into the next
    /// round.
    deficit_us: i64,
    /// The member's own most recent cost estimate; used by *other* members to
    /// judge whether this member could still spend its credit ("solvent").
    last_est_us: i64,
    /// Workers of this member currently between `acquire` entry and `settle`
    /// (waiting for a grant or executing a granted batch). Keeps the member
    /// visible as a contender while its queue is momentarily drained into an
    /// in-flight batch.
    in_service: u32,
    /// Live queue depth, stored by the endpoint on every admit/pop without
    /// taking the fleet lock — the admission hot path must not serialize all
    /// endpoints on one mutex. Waiters observe changes at the latest on the
    /// next arbitration tick.
    queued_samples: Arc<AtomicUsize>,
    closed: bool,
}

impl MemberState {
    fn demands_service(&self) -> bool {
        !self.closed && (self.queued_samples.load(Ordering::Relaxed) > 0 || self.in_service > 0)
    }
}

struct FleetState {
    members: Vec<MemberState>,
}

/// Fleet-level deficit-round-robin arbiter: under contention, endpoints are
/// granted batch service time proportional to their configured weight.
///
/// The CPU the worker pools share is modelled as a single resource. Each
/// endpoint holds a deficit counter in microseconds of service time; a worker
/// about to execute a batch debits the endpoint's estimated batch cost, and
/// when every contending endpoint is out of credit a new round replenishes
/// each by `QUANTUM_US × weight`. The true cost is settled after execution.
/// Uncontended endpoints are never throttled or charged (work conservation):
/// fairness only constrains who runs *next* when more than one endpoint has
/// work waiting.
///
/// Grants may overlap without bound: the ledger bills **task-attributed CPU
/// time** (see `clock.rs`), so two batches timesharing a core each get
/// charged only for the cycles they actually computed — including cycles
/// pool workers burn on their stolen GEMM row-blocks, and excluding time the
/// grant-holding worker spends helping another endpoint's tasks. The earlier
/// wall-clock ledger needed an `available_parallelism` cap on concurrently
/// executing grants to stop descheduled time from inflating the books; that
/// cap (and its extra wait state) is gone.
pub(crate) struct FleetScheduler {
    state: Mutex<FleetState>,
    settled: Condvar,
    next_batch_id: AtomicU64,
}

impl FleetScheduler {
    pub fn new() -> Self {
        FleetScheduler {
            // Pre-size for a typical router: registration is cold, but the
            // members vec is cloned into every arbitration snapshot.
            state: Mutex::new(FleetState { members: Vec::with_capacity(8) }),
            settled: Condvar::new(),
            next_batch_id: AtomicU64::new(0),
        }
    }

    /// Register an endpoint; returns its member index. Called once per
    /// endpoint before any worker starts. `queued_samples` is the endpoint's
    /// live depth cell, updated lock-free on every admit/pop.
    pub fn register(&self, weight: u32, queued_samples: Arc<AtomicUsize>) -> usize {
        let mut st = lock_or_recover(&self.state);
        st.members.push(MemberState {
            weight: i64::from(weight.max(1)),
            deficit_us: 0,
            last_est_us: 1_000,
            in_service: 0,
            queued_samples,
            closed: false,
        });
        st.members.len() - 1
    }

    /// Fleet-unique id for the next batch.
    // quadra-analyze: allow(atomics:relaxed-fetch, batch ids are a monotonic counter; no memory is published through them)
    pub fn next_batch_id(&self) -> u64 {
        self.next_batch_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Nudge waiters in `acquire` to re-evaluate the fleet state (demand or
    /// depth changed). Lock-free on the caller's side: a waiter that misses
    /// the nudge re-checks on its next arbitration tick anyway, so this only
    /// tightens reaction latency — it carries no correctness weight.
    pub fn nudge(&self) {
        self.settled.notify_all();
    }

    /// Stop throttling `member`: shutdown drains must never wait for credit.
    // quadra-analyze: allow(panic_path:indexing, member indices come from register() and the members vec only grows)
    pub fn close_member(&self, member: usize) {
        let mut st = lock_or_recover(&self.state);
        st.members[member].closed = true;
        drop(st);
        self.settled.notify_all();
    }

    /// Block until `member` may execute a batch estimated at `est_us` µs of
    /// service time. Returns the grant to pass to [`FleetScheduler::settle`]
    /// after execution (always call it — it also releases the in-service
    /// marker).
    // quadra-analyze: allow(panic_path:indexing, member indices come from register() and the members vec only grows)
    pub fn acquire(&self, member: usize, est_us: u64) -> Grant {
        let est = (est_us.max(1)).min(i64::MAX as u64) as i64;
        let mut st = lock_or_recover(&self.state);
        st.members[member].last_est_us = est;
        st.members[member].in_service += 1;
        loop {
            if st.members[member].closed {
                return Grant { member, debited_us: 0 };
            }
            let contended = st.members.iter().enumerate().any(|(i, m)| i != member && m.demands_service());
            if !contended {
                // Alone on the fleet: run free. The idle CPU an uncontended
                // endpoint uses is not charged, so fairness starts from a
                // clean slate when contention appears.
                return Grant { member, debited_us: 0 };
            }
            if st.members[member].deficit_us >= est {
                // Solvent: spend and go. Overlap with other grants is fine —
                // the CPU-time ledger charges each only for its own cycles.
                st.members[member].deficit_us -= est;
                return Grant { member, debited_us: est as u64 };
            }
            // Out of credit. If every other contender is broke too, start a
            // new round; otherwise wait for a solvent contender to spend (or
            // for the fleet to change shape).
            let someone_solvent = st
                .members
                .iter()
                .enumerate()
                .any(|(i, m)| i != member && m.demands_service() && m.deficit_us >= m.last_est_us);
            if someone_solvent {
                let (guard, _timeout) = wait_timeout_or_recover(&self.settled, st, ARBITRATION_TICK);
                st = guard;
                continue;
            }
            for m in st.members.iter_mut() {
                if m.demands_service() {
                    // The cap must stay reachable even when one batch costs
                    // more than the nominal cap (a heavy model's forward):
                    // otherwise that endpoint could never afford a grant.
                    let cap = (DEFICIT_CAP_ROUNDS * QUANTUM_US * m.weight).max(2 * m.last_est_us);
                    m.deficit_us = (m.deficit_us + QUANTUM_US * m.weight).min(cap);
                } else {
                    // Idle members keep their debt but never hoard credit.
                    m.deficit_us = m.deficit_us.min(0);
                }
            }
        }
    }

    /// Balance the books after the granted batch ran for `actual_us` µs of
    /// CPU time (or was abandoned: `actual_us == 0` refunds the whole debit)
    /// and release the in-service marker.
    // quadra-analyze: allow(panic_path:indexing, grant.member came from register() and the members vec only grows)
    pub fn settle(&self, grant: Grant, actual_us: u64) {
        let mut st = lock_or_recover(&self.state);
        let m = &mut st.members[grant.member];
        m.in_service = m.in_service.saturating_sub(1);
        if grant.debited_us > 0 {
            let actual = actual_us.min(i64::MAX as u64) as i64;
            let adjusted = m.deficit_us + grant.debited_us as i64 - actual;
            m.deficit_us = adjusted.max(-DEBT_FLOOR_ROUNDS * QUANTUM_US * m.weight);
        }
        drop(st);
        self.settled.notify_all();
    }

    #[cfg(test)]
    fn deficit_us(&self, member: usize) -> i64 {
        self.state.lock().unwrap().members[member].deficit_us
    }
}

/// Reply to every request the dispatch decided to shed, keeping only the live
/// ones. Records the shed reason in the endpoint's metrics.
fn retain_live(requests: Vec<PendingInfer>, shared: &EndpointShared) -> Vec<PendingInfer> {
    let now = Instant::now();
    let mut live = Vec::with_capacity(requests.len());
    for request in requests {
        match request.dead_reason(now) {
            None => live.push(request),
            Some(reason) => {
                shared.metrics.record_dispatch_shed(request.priority, &reason);
                request.reply.settle(Err(reason));
            }
        }
    }
    live
}

/// Pull the next batch for an idle worker of `shared`'s endpoint: block for a
/// seed request, fill the batch under the wait budget, pass the fair-share
/// gate, top the batch off with anything that arrived while throttled, and
/// shed cancelled/deadline-expired requests at this final moment. Returns
/// `None` once the queue is closed and fully drained.
///
/// The fill wait deliberately happens *before* the fair-share grant: waiting
/// for company idles the CPU, and holding an execution grant through it would
/// block contending endpoints from using the core in the meantime.
///
/// Formation is serialized per endpoint via the admission queue's formation
/// token: one worker at a time seeds and fills, so extra idle workers can
/// never split a single arrival stream into fragment batches (the cause of
/// the old *negative* worker scaling). The token is released before
/// `acquire`, so the next worker forms the next batch while this one waits
/// for its grant and executes — worker parallelism overlaps execution, not
/// formation.
pub(crate) fn next_batch(shared: &EndpointShared) -> Option<(Batch, GrantGuard)> {
    let policy = shared.config.policy;
    loop {
        let forming = shared.queue.begin_formation();
        let first = match shared.queue.pop_blocking() {
            PopResult::Request(r) => r,
            PopResult::Closed => return None,
        };
        shared.fleet.nudge();
        // Shed dead seeds before spending any fair-share credit on them.
        let Some(first) = retain_live(vec![first], shared).pop() else { continue };

        let key = compat_key(first.input.shape());
        let mut samples = first.samples;
        // Batch assembly runs per batch on the hot path; size for the cap so
        // pushes below never reallocate.
        let mut requests = Vec::with_capacity(policy.max_batch_size);
        requests.push(first);
        if samples < policy.max_batch_size {
            let deadline = Instant::now() + shared.wait_budget(samples);
            while samples < policy.max_batch_size {
                match shared.queue.take_compatible(&key, policy.max_batch_size - samples, deadline) {
                    TakeResult::Taken(reqs) => {
                        for r in reqs {
                            samples += r.samples;
                            requests.push(r);
                        }
                    }
                    TakeResult::TimedOut | TakeResult::Closed => break,
                }
            }
            shared.fleet.nudge();
        }
        // Formation is done; let the next worker start forming while we wait
        // at the fair-share gate and execute.
        drop(forming);

        let grant = shared.fleet.acquire(shared.member, shared.estimated_batch_us());
        let guard = GrantGuard::new(Arc::clone(&shared.fleet), grant);
        // The gate may have throttled us for a while: top the batch off with
        // whatever compatible work arrived in the meantime (without waiting).
        if samples < policy.max_batch_size {
            if let TakeResult::Taken(reqs) =
                shared.queue.take_compatible(&key, policy.max_batch_size - samples, Instant::now())
            {
                requests.extend(reqs);
            }
            shared.fleet.nudge();
        }

        // Requests may have been cancelled or expired while the batch filled.
        let live = retain_live(requests, shared);
        if live.is_empty() {
            // The whole batch died before dispatch: dropping the unexecuted
            // guard refunds the grant.
            drop(guard);
            continue;
        }
        let batch = Batch { id: shared.fleet.next_batch_id(), requests: live, formed_at: Instant::now() };
        return Some((batch, guard));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Priority, ServeError};
    use std::sync::{mpsc, Arc};

    fn pend(input: Tensor) -> (PendingInfer, mpsc::Receiver<Result<crate::InferResponse, ServeError>>) {
        let (tx, rx) = mpsc::channel();
        (PendingInfer::for_test(input, Priority::Interactive, crate::request::ReplyDest::Channel(tx)), rx)
    }

    #[test]
    fn compat_key_requires_exact_shapes_by_default() {
        // Mixed spatial sizes must not share a batch: padding would change
        // the served predictions.
        assert_ne!(compat_key(&[1, 3, 8, 8]), compat_key(&[2, 3, 16, 4]));
        assert_eq!(compat_key(&[1, 3, 8, 8]), compat_key(&[2, 3, 8, 8]));
        assert_eq!(compat_key(&[5, 10]), compat_key(&[1, 10]));
        assert_ne!(compat_key(&[5, 10]), compat_key(&[5, 11]));
        // A 2-d [n, 12] input must not pool with a 3-d [n, 3, 4] one.
        assert_ne!(compat_key(&[1, 12]), compat_key(&[1, 3, 4]));
    }

    #[test]
    fn assemble_concatenates_same_size_inputs() {
        let (a, _ra) = pend(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap());
        let (b, _rb) = pend(Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]).unwrap());
        let (batch, counts) = assemble(&[a, b]).unwrap();
        assert_eq!(batch.shape(), &[3, 2]);
        assert_eq!(counts, vec![1, 2]);
        assert_eq!(batch.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    /// Register a test member and return its index plus its depth cell (the
    /// handle an endpoint would update lock-free on admit/pop).
    fn member(fleet: &FleetScheduler, weight: u32) -> (usize, Arc<AtomicUsize>) {
        let depth = Arc::new(AtomicUsize::new(0));
        (fleet.register(weight, Arc::clone(&depth)), depth)
    }

    #[test]
    fn uncontended_member_rides_free() {
        let fleet = FleetScheduler::new();
        let (a, _da) = member(&fleet, 1);
        let (_b, _db) = member(&fleet, 1);
        // No other member has queued work: grant immediately, charge nothing.
        let grant = fleet.acquire(a, 2_000);
        assert_eq!(grant.debited_us, 0);
        assert_eq!(fleet.deficit_us(a), 0);
        fleet.settle(grant, 2_000);
        assert_eq!(fleet.deficit_us(a), 0, "free rides are never charged");
    }

    #[test]
    fn contended_rounds_grant_credit_proportional_to_weight() {
        let fleet = FleetScheduler::new();
        let (light, d_light) = member(&fleet, 1);
        let (heavy, d_heavy) = member(&fleet, 3);
        d_light.store(4, Ordering::Relaxed);
        d_heavy.store(4, Ordering::Relaxed);

        // Both broke → the acquire triggers a round: quantum × weight each.
        let grant = fleet.acquire(light, 1_000);
        assert_eq!(grant.debited_us, 1_000);
        assert_eq!(fleet.deficit_us(light), QUANTUM_US - 1_000);
        assert_eq!(fleet.deficit_us(heavy), 3 * QUANTUM_US);
        fleet.settle(grant, 1_000);

        // The heavy member spends from its larger share without a new round.
        let grant = fleet.acquire(heavy, 4_000);
        assert_eq!(grant.debited_us, 4_000);
        assert_eq!(fleet.deficit_us(heavy), 3 * QUANTUM_US - 4_000);
        fleet.settle(grant, 4_000);
    }

    #[test]
    fn settle_reconciles_estimate_with_actual_cost() {
        let fleet = FleetScheduler::new();
        let (a, d_a) = member(&fleet, 1);
        let (_b, d_b) = member(&fleet, 1);
        d_a.store(1, Ordering::Relaxed);
        d_b.store(1, Ordering::Relaxed);
        let grant = fleet.acquire(a, 1_000);
        let before = fleet.deficit_us(a);
        // The batch actually took 3 ms, not 1 ms: the extra 2 ms are charged.
        fleet.settle(grant, 3_000);
        assert_eq!(fleet.deficit_us(a), before + 1_000 - 3_000);

        // A refunded grant (batch died before dispatch) restores the balance.
        let grant = fleet.acquire(a, 1_000);
        let before = fleet.deficit_us(a);
        fleet.settle(grant, 0);
        assert_eq!(fleet.deficit_us(a), before + 1_000);
    }

    #[test]
    fn debt_is_floored_and_credit_capped() {
        let fleet = Arc::new(FleetScheduler::new());
        let (a, d_a) = member(&fleet, 1);
        let (b, d_b) = member(&fleet, 1);
        d_a.store(4, Ordering::Relaxed);
        d_b.store(4, Ordering::Relaxed);
        let grant = fleet.acquire(a, 1_000);
        // One pathological 10-second batch cannot bury the endpoint forever.
        fleet.settle(grant, 10_000_000);
        assert_eq!(fleet.deficit_us(a), -DEBT_FLOOR_ROUNDS * QUANTUM_US);

        // Both members spend under contention for a while (each drops its
        // demand when done, as a drained queue would): credit never exceeds
        // the cap, and the indebted member works its way back up.
        let spenders: Vec<_> = [(a, d_a), (b, d_b)]
            .into_iter()
            .map(|(idx, depth)| {
                let fleet = Arc::clone(&fleet);
                std::thread::spawn(move || {
                    for _ in 0..40 {
                        let grant = fleet.acquire(idx, 1_000);
                        fleet.settle(grant, 1_000);
                    }
                    depth.store(0, Ordering::Relaxed);
                })
            })
            .collect();
        for s in spenders {
            s.join().unwrap();
        }
        let cap = DEFICIT_CAP_ROUNDS * QUANTUM_US;
        assert!(fleet.deficit_us(a) <= cap, "deficit {} above cap", fleet.deficit_us(a));
        assert!(fleet.deficit_us(b) <= cap, "deficit {} above cap", fleet.deficit_us(b));
        assert!(fleet.deficit_us(a) > -DEBT_FLOOR_ROUNDS * QUANTUM_US, "debt recovered through rounds");
    }

    #[test]
    fn closed_member_is_never_throttled() {
        let fleet = FleetScheduler::new();
        let (a, _da) = member(&fleet, 1);
        let (_b, d_b) = member(&fleet, 1);
        d_b.store(8, Ordering::Relaxed);
        fleet.close_member(a);
        // Even with zero credit and a contending neighbour, a draining member
        // proceeds immediately.
        let grant = fleet.acquire(a, 1_000_000);
        assert_eq!(grant.debited_us, 0);
        fleet.settle(grant, 5);
    }

    #[test]
    fn waiting_member_proceeds_once_solvent_contender_spends() {
        let fleet = Arc::new(FleetScheduler::new());
        let (a, d_a) = member(&fleet, 1);
        let (b, d_b) = member(&fleet, 1);
        d_a.store(4, Ordering::Relaxed);
        d_b.store(4, Ordering::Relaxed);
        // `b` holds a round of credit, `a` holds none: `a` must block until
        // `b` has spent down to broke, then win the round that follows.
        fleet.state.lock().unwrap().members[b].deficit_us = 2 * QUANTUM_US;
        let spender = {
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || {
                let mut spent = 0u64;
                while fleet.deficit_us(b) >= 2_000 {
                    let grant = fleet.acquire(b, 2_000);
                    std::thread::sleep(Duration::from_micros(200));
                    fleet.settle(grant, 2_000);
                    spent += grant.debited_us;
                }
                spent
            })
        };
        let grant = fleet.acquire(a, 1_000);
        assert_eq!(grant.debited_us, 1_000, "the blocked member is granted from a fresh round");
        fleet.settle(grant, 1_000);
        let spent = spender.join().unwrap();
        assert!(spent >= 2 * QUANTUM_US as u64 - 2_000, "the solvent member spent its credit first");
    }
}
