//! The admission layer: one bounded queue per priority class per model.
//!
//! Clients admit requests synchronously — a full class queue rejects the
//! request immediately (the caller surfaces
//! [`ServeError::Overloaded`](crate::ServeError::Overloaded)) instead of
//! queueing forever — and idle workers drain the queues through the
//! scheduler, seeding batches interactive-first (tempered by the batch-class
//! aging credit) and picking shape-compatible requests without head-of-line
//! blocking across shapes.

use crate::request::{PendingInfer, Priority};
use crate::scheduler::compat_key;
use crate::sync::{lock_or_recover, wait_deadline_or_recover, wait_or_recover};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Why a request could not be admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitRejection {
    /// The queue for the request's priority class is at capacity.
    Full,
    /// The endpoint is shutting down.
    Closed,
}

/// Outcome of a blocking pop.
pub(crate) enum PopResult {
    /// The queued request chosen to seed the next batch.
    Request(PendingInfer),
    /// The queue is closed and fully drained.
    Closed,
}

/// Outcome of a compatible-take while a batch is open.
pub(crate) enum TakeResult {
    /// One or more shape-compatible requests, in class-then-EDF order
    /// (earliest deadline first within a class, FIFO among the undeadlined).
    Taken(Vec<PendingInfer>),
    /// Nothing compatible arrived before the deadline.
    TimedOut,
    /// The queue closed; flush the open batch and start draining.
    Closed,
}

struct QueueState {
    /// One FIFO per priority class, indexed by [`Priority::index`].
    classes: [VecDeque<PendingInfer>; Priority::COUNT],
    /// Queued samples per class (capacity is counted in samples).
    queued_samples: [usize; Priority::COUNT],
    /// Consecutive interactive-seeded pops while batch-class work waited;
    /// drives the aging credit.
    interactive_streak: u32,
    /// A worker currently holds this endpoint's batch-formation token (see
    /// [`AdmissionQueue::begin_formation`]).
    forming: bool,
    closed: bool,
}

/// A model endpoint's bounded two-class admission queue.
pub(crate) struct AdmissionQueue {
    /// Per-class capacity in samples; `None` = unbounded (overload baseline).
    capacity: Option<usize>,
    /// Aging credit: seed from the batch class after this many consecutive
    /// interactive seeds while batch work waited (0 = strict priority).
    batch_aging: u32,
    /// Mirror of the total queued samples, refreshed under the state lock on
    /// every mutation — shared with the fleet scheduler so depth reads never
    /// take the queue lock.
    depth_cell: Arc<AtomicUsize>,
    state: Mutex<QueueState>,
    arrived: Condvar,
    /// Signals release of the batch-formation token. Deliberately separate
    /// from `arrived`: `try_admit` posts one notification per arrival, and if
    /// token waiters shared the condvar they could consume it — the waiter
    /// re-checks `forming` and sleeps again while the token *holder*, filling
    /// a batch in `take_compatible`, sleeps out its whole wait budget. That
    /// stolen-wakeup tax grew with the worker count and showed up as negative
    /// scaling on a single core.
    formation: Condvar,
}

impl AdmissionQueue {
    pub fn new(capacity: Option<usize>, batch_aging: u32, depth_cell: Arc<AtomicUsize>) -> Self {
        AdmissionQueue {
            capacity,
            batch_aging,
            depth_cell,
            state: Mutex::new(QueueState {
                classes: [VecDeque::new(), VecDeque::new()],
                queued_samples: [0; Priority::COUNT],
                interactive_streak: 0,
                forming: false,
                closed: false,
            }),
            arrived: Condvar::new(),
            formation: Condvar::new(),
        }
    }

    /// Refresh the lock-free depth mirror; call after every mutation, while
    /// still holding the state lock.
    fn sync_depth(&self, st: &QueueState) {
        self.depth_cell.store(st.queued_samples.iter().sum(), Ordering::Relaxed);
    }

    /// Total samples currently queued across both classes (lock-free).
    pub fn depth(&self) -> usize {
        self.depth_cell.load(Ordering::Relaxed)
    }

    /// Queued samples ahead of a newly admitted request of `priority`: the
    /// interactive class only waits behind its own backlog, the batch class
    /// waits behind everything (interactive drains first).
    // quadra-analyze: allow(panic_path:indexing, class arrays are Priority::COUNT-sized and indexed via Priority::index())
    pub fn class_backlog(&self, priority: Priority) -> usize {
        let st = lock_or_recover(&self.state);
        match priority {
            Priority::Interactive => st.queued_samples[Priority::Interactive.index()],
            Priority::Batch => st.queued_samples.iter().sum(),
        }
    }

    /// Admit `req`, or reject it without queueing. A request larger than the
    /// whole capacity is still admitted when its class queue is empty —
    /// otherwise it could never be served at all (it then occupies the queue
    /// alone, exactly like an oversized batch occupies a worker alone).
    ///
    /// A rejected request is never answered through its reply slot: the
    /// caller hears the rejection here, synchronously.
    // quadra-analyze: allow(panic_path:indexing, class arrays are Priority::COUNT-sized and indexed via Priority::index())
    pub fn try_admit(&self, req: PendingInfer) -> Result<(), AdmitRejection> {
        let mut st = lock_or_recover(&self.state);
        if st.closed {
            req.reply.defuse();
            return Err(AdmitRejection::Closed);
        }
        let class = req.priority.index();
        if let Some(cap) = self.capacity {
            let queued = st.queued_samples[class];
            if queued > 0 && queued + req.samples > cap {
                req.reply.defuse();
                return Err(AdmitRejection::Full);
            }
        }
        st.queued_samples[class] += req.samples;
        st.classes[class].push_back(req);
        self.sync_depth(&st);
        drop(st);
        self.arrived.notify_one();
        Ok(())
    }

    /// Mark the queue closed and wake every waiter. Already-queued requests
    /// remain poppable so workers can drain them into final batches.
    pub fn close(&self) {
        lock_or_recover(&self.state).closed = true;
        self.arrived.notify_all();
        self.formation.notify_all();
    }

    /// Acquire this endpoint's **batch-formation token**, blocking while
    /// another worker holds it. Exactly one worker per endpoint seeds and
    /// fills a batch at a time; without the token, idle workers race for
    /// seeds and split one arrival stream into fragments (4 workers turned a
    /// steady mean batch of 8 into ~3 on a saturated single core, and
    /// per-batch overhead made scaling *negative*). The token covers only
    /// formation — the holder releases it before the fair-share gate, so the
    /// next worker forms the next batch while this one waits for its grant
    /// and executes. Liveness: the holder is always bounded — `pop_blocking`
    /// returns on close, and the fill wait is deadline-bounded — so the token
    /// always comes back.
    pub fn begin_formation(&self) -> FormationGuard<'_> {
        let mut st = lock_or_recover(&self.state);
        while st.forming {
            st = wait_or_recover(&self.formation, st);
        }
        st.forming = true;
        FormationGuard { queue: self }
    }

    /// The class order for the next seed pop: interactive first, unless the
    /// aging credit fires (batch-class work waited through `batch_aging`
    /// consecutive interactive seeds).
    // quadra-analyze: allow(panic_path:indexing, class arrays are Priority::COUNT-sized and indexed via Priority::index())
    fn seed_order(&self, st: &QueueState) -> [usize; Priority::COUNT] {
        let batch = Priority::Batch.index();
        if self.batch_aging > 0 && st.interactive_streak >= self.batch_aging && !st.classes[batch].is_empty()
        {
            [batch, Priority::Interactive.index()]
        } else {
            [Priority::Interactive.index(), batch]
        }
    }

    /// Block until a request is available or the queue is closed *and* empty.
    /// Interactive seeds first, except when the batch class's aging credit
    /// fires; the streak bookkeeping lives here, under the queue lock.
    // quadra-analyze: allow(panic_path:indexing, class arrays are Priority::COUNT-sized and indexed via Priority::index())
    pub fn pop_blocking(&self) -> PopResult {
        let mut st = lock_or_recover(&self.state);
        loop {
            let order = self.seed_order(&st);
            for class in order {
                if let Some(req) = st.classes[class].pop_front() {
                    st.queued_samples[class] -= req.samples;
                    self.sync_depth(&st);
                    if class == Priority::Interactive.index() {
                        if st.classes[Priority::Batch.index()].is_empty() {
                            // No batch-class work waited: nothing is aging.
                            st.interactive_streak = 0;
                        } else {
                            st.interactive_streak = st.interactive_streak.saturating_add(1);
                        }
                    } else {
                        st.interactive_streak = 0;
                    }
                    return PopResult::Request(req);
                }
            }
            if st.closed {
                return PopResult::Closed;
            }
            st = wait_or_recover(&self.arrived, st);
        }
    }

    /// Remove queued requests compatible with `key` (interactive class first,
    /// earliest deadline first within a class — EDF — with FIFO ordering the
    /// deadline-less tail and breaking deadline ties) totalling at most
    /// `max_samples`. Blocks until at least one is found, the `deadline`
    /// passes, or the queue closes.
    ///
    /// Incompatible requests are left in place — they seed the *next* batch —
    /// and compatible requests too large for the remaining sample budget are
    /// skipped (they stay queued in order).
    // quadra-analyze: allow(panic_path:indexing, class arrays are Priority::COUNT-sized; queue indices come from the 0..len candidate scan)
    pub fn take_compatible(&self, key: &[usize], max_samples: usize, deadline: Instant) -> TakeResult {
        let mut st = lock_or_recover(&self.state);
        loop {
            // Requests carry ≥1 sample each, so `max_samples` bounds the take.
            let mut taken = Vec::with_capacity(max_samples.min(16));
            let mut budget = max_samples;
            for class in 0..Priority::COUNT {
                let queue = &mut st.classes[class];
                // EDF slack ordering: a tight-deadline request rides the
                // batch that is leaving *now* instead of waiting out the
                // FIFO prefix ahead of it.
                let mut order: Vec<usize> =
                    (0..queue.len()).filter(|&i| compat_key(queue[i].input.shape()) == key).collect();
                order.sort_by_key(|&i| (queue[i].deadline.is_none(), queue[i].deadline, i));
                let mut chosen = Vec::with_capacity(order.len());
                for &i in &order {
                    if queue[i].samples <= budget {
                        budget -= queue[i].samples;
                        chosen.push(i);
                        if budget == 0 {
                            break;
                        }
                    }
                }
                // Extract by descending index so earlier removals don't
                // shift later ones, remembering each request's EDF rank so
                // the take order can be restored without re-searching.
                let mut desc: Vec<(usize, usize)> =
                    chosen.iter().copied().enumerate().map(|(rank, i)| (i, rank)).collect();
                desc.sort_unstable_by_key(|&(i, _)| std::cmp::Reverse(i));
                let mut extracted: Vec<(usize, PendingInfer)> = Vec::with_capacity(desc.len());
                let mut removed_samples = 0;
                for (i, rank) in desc {
                    if let Some(req) = queue.remove(i) {
                        removed_samples += req.samples;
                        extracted.push((rank, req));
                    }
                }
                extracted.sort_unstable_by_key(|&(rank, _)| rank);
                taken.extend(extracted.into_iter().map(|(_, req)| req));
                st.queued_samples[class] -= removed_samples;
                if budget == 0 {
                    break;
                }
            }
            if !taken.is_empty() {
                self.sync_depth(&st);
                return TakeResult::Taken(taken);
            }
            if st.closed {
                return TakeResult::Closed;
            }
            if Instant::now() >= deadline {
                return TakeResult::TimedOut;
            }
            let (guard, timed_out) = wait_deadline_or_recover(&self.arrived, st, deadline);
            st = guard;
            if timed_out && st.classes.iter().all(|q| q.is_empty()) {
                return TakeResult::TimedOut;
            }
        }
    }
}

/// Holds an endpoint's batch-formation token; dropping it releases the token
/// and wakes exactly one worker waiting in
/// [`AdmissionQueue::begin_formation`] (its dedicated `formation` condvar —
/// request arrivals never wake token waiters, and token releases never wake
/// the filler).
pub(crate) struct FormationGuard<'a> {
    queue: &'a AdmissionQueue,
}

impl Drop for FormationGuard<'_> {
    fn drop(&mut self) {
        lock_or_recover(&self.queue.state).forming = false;
        self.queue.formation.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ReplyDest;
    use quadra_tensor::Tensor;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    fn req(samples: usize, priority: Priority) -> PendingInfer {
        PendingInfer::for_test(Tensor::zeros(&[samples, 2]), priority, ReplyDest::Channel(mpsc::channel().0))
    }

    fn pop_priority(q: &AdmissionQueue) -> Priority {
        match q.pop_blocking() {
            PopResult::Request(r) => r.priority,
            PopResult::Closed => panic!("queue not closed"),
        }
    }

    #[test]
    fn bounded_class_queue_rejects_when_full() {
        let q = AdmissionQueue::new(Some(3), 0, Arc::new(AtomicUsize::new(0)));
        q.try_admit(req(2, Priority::Interactive)).unwrap();
        q.try_admit(req(1, Priority::Interactive)).unwrap();
        let err = q.try_admit(req(1, Priority::Interactive)).unwrap_err();
        assert_eq!(err, AdmitRejection::Full);
        // The other class has its own budget.
        q.try_admit(req(3, Priority::Batch)).unwrap();
        assert_eq!(q.depth(), 6);
    }

    #[test]
    fn oversized_request_admitted_only_into_empty_class() {
        let q = AdmissionQueue::new(Some(2), 0, Arc::new(AtomicUsize::new(0)));
        q.try_admit(req(5, Priority::Interactive)).unwrap();
        let err = q.try_admit(req(5, Priority::Interactive)).unwrap_err();
        assert_eq!(err, AdmitRejection::Full);
    }

    #[test]
    fn pop_prefers_interactive() {
        let q = AdmissionQueue::new(None, 0, Arc::new(AtomicUsize::new(0)));
        q.try_admit(req(1, Priority::Batch)).unwrap();
        q.try_admit(req(1, Priority::Interactive)).unwrap();
        assert_eq!(pop_priority(&q), Priority::Interactive);
        assert_eq!(pop_priority(&q), Priority::Batch);
    }

    #[test]
    fn class_backlog_is_interactive_only_for_interactive() {
        let q = AdmissionQueue::new(None, 0, Arc::new(AtomicUsize::new(0)));
        q.try_admit(req(2, Priority::Interactive)).unwrap();
        q.try_admit(req(3, Priority::Batch)).unwrap();
        assert_eq!(q.class_backlog(Priority::Interactive), 2, "interactive only waits behind its class");
        assert_eq!(q.class_backlog(Priority::Batch), 5, "batch class waits behind everything");
    }

    #[test]
    fn aging_credit_seeds_batch_class_after_streak() {
        // Aging every 2 interactive seeds: I, I, then the batch class's turn.
        let q = AdmissionQueue::new(None, 2, Arc::new(AtomicUsize::new(0)));
        q.try_admit(req(1, Priority::Batch)).unwrap();
        for _ in 0..4 {
            q.try_admit(req(1, Priority::Interactive)).unwrap();
        }
        assert_eq!(pop_priority(&q), Priority::Interactive);
        assert_eq!(pop_priority(&q), Priority::Interactive);
        assert_eq!(pop_priority(&q), Priority::Batch, "aging credit fires after the streak");
        assert_eq!(pop_priority(&q), Priority::Interactive, "strict priority resumes after the aged seed");
        assert_eq!(pop_priority(&q), Priority::Interactive);
    }

    #[test]
    fn interactive_streak_resets_when_no_batch_work_waits() {
        let q = AdmissionQueue::new(None, 2, Arc::new(AtomicUsize::new(0)));
        // Interactive pops with an empty batch queue never age anything.
        for _ in 0..5 {
            q.try_admit(req(1, Priority::Interactive)).unwrap();
            assert_eq!(pop_priority(&q), Priority::Interactive);
        }
        // Batch work arrives now: the streak starts from zero.
        q.try_admit(req(1, Priority::Batch)).unwrap();
        q.try_admit(req(1, Priority::Interactive)).unwrap();
        q.try_admit(req(1, Priority::Interactive)).unwrap();
        q.try_admit(req(1, Priority::Interactive)).unwrap();
        assert_eq!(pop_priority(&q), Priority::Interactive);
        assert_eq!(pop_priority(&q), Priority::Interactive);
        assert_eq!(pop_priority(&q), Priority::Batch);
    }

    #[test]
    fn zero_aging_restores_strict_priority() {
        let q = AdmissionQueue::new(None, 0, Arc::new(AtomicUsize::new(0)));
        q.try_admit(req(1, Priority::Batch)).unwrap();
        for _ in 0..16 {
            q.try_admit(req(1, Priority::Interactive)).unwrap();
        }
        for _ in 0..16 {
            assert_eq!(pop_priority(&q), Priority::Interactive, "strict priority never ages");
        }
        assert_eq!(pop_priority(&q), Priority::Batch);
    }

    #[test]
    fn take_compatible_skips_other_shapes_and_respects_budget() {
        let q = AdmissionQueue::new(None, 0, Arc::new(AtomicUsize::new(0)));
        q.try_admit(req(2, Priority::Batch)).unwrap(); // [2, 2] — compatible
        q.try_admit(PendingInfer {
            id: 1,
            input: Tensor::zeros(&[1, 3]),
            samples: 1,
            ..req(1, Priority::Interactive)
        })
        .unwrap(); // [1, 3] — different trailing shape, must stay queued
        q.try_admit(req(4, Priority::Interactive)).unwrap(); // too big for budget 3

        let key = compat_key(&[1, 2]);
        match q.take_compatible(&key, 3, Instant::now()) {
            TakeResult::Taken(reqs) => {
                assert_eq!(reqs.len(), 1);
                assert_eq!(reqs[0].samples, 2);
            }
            _ => panic!("expected a take"),
        }
        assert_eq!(q.depth(), 5, "incompatible and over-budget requests stay queued");
    }

    fn req_with(id: u64, samples: usize, priority: Priority, deadline: Option<Instant>) -> PendingInfer {
        let mut r = req(samples, priority);
        r.id = id;
        r.deadline = deadline;
        r
    }

    #[test]
    fn take_compatible_orders_by_deadline_slack() {
        let q = AdmissionQueue::new(None, 0, Arc::new(AtomicUsize::new(0)));
        let now = Instant::now();
        // FIFO arrival: two undeadlined requests, then a tight deadline, then
        // a loose one. EDF must take tight, loose, then the FIFO tail.
        q.try_admit(req_with(1, 1, Priority::Interactive, None)).unwrap();
        q.try_admit(req_with(2, 1, Priority::Interactive, None)).unwrap();
        q.try_admit(req_with(3, 1, Priority::Interactive, Some(now + Duration::from_millis(5)))).unwrap();
        q.try_admit(req_with(4, 1, Priority::Interactive, Some(now + Duration::from_secs(60)))).unwrap();

        let key = compat_key(&[1, 2]);
        match q.take_compatible(&key, 8, now) {
            TakeResult::Taken(reqs) => {
                let ids: Vec<u64> = reqs.iter().map(|r| r.id).collect();
                assert_eq!(ids, vec![3, 4, 1, 2], "deadlines first (tightest leading), then FIFO");
            }
            _ => panic!("expected a take"),
        }
    }

    #[test]
    fn edf_take_respects_budget_without_losing_order() {
        let q = AdmissionQueue::new(None, 0, Arc::new(AtomicUsize::new(0)));
        let now = Instant::now();
        // The deadlined request is behind a FIFO prefix that would exhaust
        // the budget on its own; EDF must still take it first.
        q.try_admit(req_with(1, 2, Priority::Interactive, None)).unwrap();
        q.try_admit(req_with(2, 2, Priority::Interactive, None)).unwrap();
        q.try_admit(req_with(3, 1, Priority::Interactive, Some(now + Duration::from_millis(1)))).unwrap();

        let key = compat_key(&[1, 2]);
        match q.take_compatible(&key, 3, now) {
            TakeResult::Taken(reqs) => {
                let ids: Vec<u64> = reqs.iter().map(|r| r.id).collect();
                assert_eq!(ids, vec![3, 1], "the deadlined request jumps the FIFO prefix");
            }
            _ => panic!("expected a take"),
        }
        assert_eq!(q.depth(), 2, "the over-budget FIFO request stays queued");
    }

    #[test]
    fn edf_keeps_interactive_class_ahead_of_batch() {
        let q = AdmissionQueue::new(None, 0, Arc::new(AtomicUsize::new(0)));
        let now = Instant::now();
        // A batch-class request with a tight deadline must not leapfrog the
        // interactive class: EDF reorders only *within* a class.
        q.try_admit(req_with(1, 1, Priority::Batch, Some(now + Duration::from_millis(1)))).unwrap();
        q.try_admit(req_with(2, 1, Priority::Interactive, None)).unwrap();

        let key = compat_key(&[1, 2]);
        match q.take_compatible(&key, 8, now) {
            TakeResult::Taken(reqs) => {
                let ids: Vec<u64> = reqs.iter().map(|r| r.id).collect();
                assert_eq!(ids, vec![2, 1], "class order dominates deadline order");
            }
            _ => panic!("expected a take"),
        }
    }

    #[test]
    fn formation_token_is_exclusive_and_released_on_drop() {
        let q = Arc::new(AdmissionQueue::new(None, 0, Arc::new(AtomicUsize::new(0))));
        let guard = q.begin_formation();
        // A second former must block until the first guard drops.
        let contender = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let _guard = q.begin_formation();
                Instant::now()
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        let released_at = Instant::now();
        drop(guard);
        let acquired_at = contender.join().unwrap();
        assert!(acquired_at >= released_at, "the contender acquired the token before it was released");
        // And the token is free again afterwards.
        drop(q.begin_formation());
    }

    #[test]
    fn close_wakes_formation_waiters_once_holder_releases() {
        // A closed queue still hands the token out sequentially: each drain
        // worker takes it, sees Closed from pop_blocking, and releases it.
        let q = Arc::new(AdmissionQueue::new(None, 0, Arc::new(AtomicUsize::new(0))));
        q.close();
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let guard = q.begin_formation();
                    let closed = matches!(q.pop_blocking(), PopResult::Closed);
                    drop(guard);
                    closed
                })
            })
            .collect();
        for w in workers {
            assert!(w.join().unwrap(), "every drain worker observed Closed");
        }
    }

    #[test]
    fn close_rejects_admission_but_drains_queued() {
        let q = AdmissionQueue::new(None, 0, Arc::new(AtomicUsize::new(0)));
        q.try_admit(req(1, Priority::Interactive)).unwrap();
        q.close();
        let err = q.try_admit(req(1, Priority::Interactive)).unwrap_err();
        assert_eq!(err, AdmitRejection::Closed);
        assert!(matches!(q.pop_blocking(), PopResult::Request(_)));
        assert!(matches!(q.pop_blocking(), PopResult::Closed));
        let key = compat_key(&[1, 2]);
        assert!(matches!(
            q.take_compatible(&key, 8, Instant::now() + Duration::from_secs(5)),
            TakeResult::Closed
        ));
    }
}
