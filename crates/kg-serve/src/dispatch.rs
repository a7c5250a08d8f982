//! The dispatcher: one event loop that cuts row blocks off the queues, fans
//! each out to the persistent worker crew, and stitches and answers what
//! comes back (the policy it implements is described once, in the
//! [crate docs](crate)).
//!
//! Owns: when a block may be cut ([`CutRule::cut`] — linger, shutdown and
//! poisoning, nowhere else), the pipeline (cut and launch the next block
//! before answering the landed one), the pipeline-occupancy counters,
//! per-query isolation of model panics, and the one infrastructure-failure
//! path ([`Dispatcher::abort`]). Pinned by `tests/serve_equivalence.rs`
//! (bit-identity under every configuration), `tests/lifecycle.rs`
//! (settle-once, isolation, shutdown), the root `tests/contracts.rs` (one
//! `score_shard` call per worker and block) and the `cut` unit test below.

use crate::admission::ServeError;
use crate::engine::Shared;
use crate::queue::{Batch, Class, QueueState, Queued, Request};
use crate::stats::StatCells;
use crate::ticket::Reply;
use kg_core::{EntityId, RelationId};
use kg_eval::engine::Direction;
use kg_eval::ranking::{filtered_rank, top_k_into};
use kg_models::{BatchScorer, BatchScratch, LinkPredictor};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One scoring assignment for a worker: the block's queries — its
/// `n_tails` tail rows, then its head rows — and the reusable output
/// buffer.
struct Job {
    queries: Arc<Vec<(usize, usize)>>,
    n_tails: usize,
    out: Vec<f32>,
}

/// A worker's answer: its filled buffer, or `None` if the model panicked
/// (the dispatcher then rescores the block per query to find the culprit).
struct WorkerDone {
    worker: usize,
    out: Option<Vec<f32>>,
}

/// Render a caught panic payload for ticket failure messages.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Worker-crew thread: score every [`Job`] that arrives against this
/// worker's entity `shard` — both directions of the block in one
/// `score_shard` call — catching panics so a failing model override
/// reaches the dispatcher as a flagged result instead of a dead thread.
/// Exits when the dispatcher drops the job channel.
fn worker_loop(
    shared: &Shared,
    idx: usize,
    shard: Range<usize>,
    jobs: &Receiver<Job>,
    done: &Sender<WorkerDone>,
) {
    let mut scratch = BatchScratch::with_policy(shared.policy);
    while let Ok(job) = jobs.recv() {
        let mut out = job.out;
        let scored = catch_unwind(AssertUnwindSafe(|| {
            let (tails, heads) = job.queries.split_at(job.n_tails);
            out.resize(job.queries.len() * shard.len(), 0.0);
            shared.model.score_shard(tails, heads, shard.clone(), &mut out, &mut scratch);
        }));
        let out = scored.is_ok().then_some(out);
        if done.send(WorkerDone { worker: idx, out }).is_err() {
            return; // dispatcher gone: engine is shutting down
        }
    }
}

/// The persistent worker crew as the dispatcher holds it.
struct Crew {
    senders: Vec<Sender<Job>>,
    done: Receiver<WorkerDone>,
    /// *Two* compact output buffers per worker, round-tripped through the
    /// job channel — the double buffer that lets block N+1 score while
    /// block N's results are still being stitched.
    pool: Vec<Vec<Vec<f32>>>,
}

/// One cut row block: its batch (tail rows first), how many shard results
/// are still outstanding, whether any worker reported a model panic, and
/// the landed shard buffers aligned with the plan.
struct Inflight {
    batch: Batch,
    /// Cut time — with the answer time, one `block_nanos` sample for the
    /// `retry_after` service-time estimate.
    cut_at: Instant,
    /// Zero between the cut (under the queue lock) and the launch (after
    /// it); never zero again until the block has fully landed.
    outstanding: usize,
    model_panic: bool,
    results: Vec<Option<Vec<f32>>>,
}

/// The block-cutting knobs, fixed at `build()`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CutRule {
    pub(crate) block: usize,
    pub(crate) linger: Duration,
    pub(crate) deadline: Option<Duration>,
}

/// What [`CutRule::cut`] grants the dispatcher.
enum Cut {
    /// A block to launch, tail rows first — empty if every request of the
    /// cut had expired.
    Block(Batch),
    /// Nothing yet: the under-filled block stays inside its linger window
    /// for this much longer.
    Linger(Duration),
    /// Nothing until the queues change.
    Nothing,
}

impl CutRule {
    /// The one scheduling rule: may a row block be cut right now?
    ///
    /// Never on a shut-down or poisoned engine. A block takes up to
    /// `block` requests in arrival order across both row queues. An
    /// under-filled block waits out its linger window, anchored to the
    /// oldest row request and capped by the expiry deadline (lingering
    /// past it would only expire the request).
    fn cut(&self, q: &mut QueueState, stats: &StatCells) -> Cut {
        if q.shutdown || q.poisoned.is_some() {
            return Cut::Nothing;
        }
        let Some(oldest) = q.oldest(&Class::ROWS) else { return Cut::Nothing };
        if !self.linger.is_zero() && q.backlog(oldest) < self.block {
            let budget = self.deadline.map_or(self.linger, |d| self.linger.min(d));
            let waited =
                q.queue(oldest).front().expect("the oldest class has a front").arrived.elapsed();
            if let Some(left) = budget.checked_sub(waited).filter(|left| !left.is_zero()) {
                return Cut::Linger(left);
            }
        }
        Cut::Block(q.pop_block(&Class::ROWS, self.block, self.deadline, stats))
    }
}

/// The dispatcher thread's state: the crew and its shard plan, the one
/// block in flight, the one block that has landed but is not answered yet,
/// and the answering scratch.
struct Dispatcher {
    shared: Arc<Shared>,
    crew: Crew,
    /// Worker `w` scores shard `plan[w]` of every block.
    plan: Vec<Range<usize>>,
    inflight: Option<Inflight>,
    /// Answering waits one turn of the loop so the next block is cut and
    /// launched first: the crew scores block N+1 while this thread
    /// converts block N.
    landed: Option<Inflight>,
    /// Stitched full-width block and top-k selection scratch.
    stitched: Vec<f32>,
    topk: Vec<(usize, f32)>,
}

/// Spawn the worker crew — worker `w` on shard `plan[w]` — and the
/// dispatcher thread over it.
pub(crate) fn spawn(
    shared: &Arc<Shared>,
    plan: Vec<Range<usize>>,
) -> (JoinHandle<()>, Vec<JoinHandle<()>>) {
    let (done_tx, done) = channel();
    let mut senders = Vec::with_capacity(plan.len());
    let mut workers = Vec::with_capacity(plan.len());
    for (idx, shard) in plan.iter().cloned().enumerate() {
        let (job_tx, jobs) = channel();
        senders.push(job_tx);
        let (shared, done_tx) = (Arc::clone(shared), done_tx.clone());
        workers.push(
            std::thread::Builder::new()
                .name(format!("kg-serve-worker-{idx}"))
                .spawn(move || worker_loop(&shared, idx, shard, &jobs, &done_tx))
                .expect("spawn kg-serve worker"),
        );
    }
    let pool = plan.iter().map(|_| vec![Vec::new(), Vec::new()]).collect();
    let mut dispatcher = Dispatcher {
        shared: Arc::clone(shared),
        crew: Crew { senders, done, pool },
        plan,
        inflight: None,
        landed: None,
        stitched: Vec::new(),
        topk: Vec::new(),
    };
    let handle = std::thread::Builder::new()
        .name("kg-serve-dispatcher".to_string())
        .spawn(move || {
            // An unexpected dispatcher panic still fails outstanding
            // tickets instead of stranding their clients. Returning drops
            // the job channels, which stops the workers.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| dispatcher.run())) {
                dispatcher.abort(&format!("dispatcher panicked: {}", panic_message(payload)));
            }
        })
        .expect("spawn kg-serve dispatcher");
    (handle, workers)
}

impl Dispatcher {
    /// The event loop. Each turn: take work under the queue lock (sleeping
    /// there while there is none), launch it, answer what is ready, then
    /// take one worker result. Returns on shutdown, once nothing is in
    /// flight, having failed whatever was still queued.
    fn run(&mut self) {
        let shared = Arc::clone(&self.shared);
        let stats = &*shared.stats;
        loop {
            let mut q = shared.queue.lock().expect("serve queue lock");
            let scores = loop {
                let mut nap = None;
                if self.inflight.is_none() {
                    match shared.rule.cut(&mut q, stats) {
                        // The whole cut expired: the queues moved, so ask
                        // again.
                        Cut::Block(batch) if batch.is_empty() => continue,
                        Cut::Block(batch) => {
                            stats.record_block(batch.len());
                            self.inflight = Some(Inflight {
                                batch,
                                cut_at: Instant::now(),
                                outstanding: 0,
                                model_panic: false,
                                results: Vec::new(),
                            });
                        }
                        Cut::Linger(left) => nap = Some(left),
                        Cut::Nothing => {}
                    }
                }
                // Triple scores need no crew: one bounded batch per turn,
                // so they are never held by a lingering or long-draining
                // row block, and a score flood never holds a landed one.
                let scores =
                    q.pop_block(&[Class::Score], shared.rule.block, shared.rule.deadline, stats);
                if !scores.is_empty() || self.landed.is_some() || self.inflight.is_some() {
                    break scores;
                }
                if q.shutdown {
                    return q.drain_fail("engine shut down with the query still pending", stats);
                }
                q = match nap {
                    Some(left) => {
                        shared.queue_cv.wait_timeout(q, left).expect("serve queue wait").0
                    }
                    None => shared.queue_cv.wait(q).expect("serve queue wait"),
                };
            };
            drop(q);

            // Launch before answering: the crew scores the new block while
            // this thread stitches and ranks the landed one.
            let mut crew_alive = true;
            if self.inflight.as_ref().is_some_and(|block| block.outstanding == 0) {
                crew_alive = self.launch();
            }
            if let Some(block) = self.landed.take() {
                let refilled = self.inflight.is_some();
                let counter = if refilled { &stats.blocks_overlapped } else { &stats.crew_idle };
                counter.fetch_add(1, Relaxed);
                self.answer_block(block);
            }
            answer_scores(&shared, scores);
            if crew_alive && self.inflight.is_some() {
                crew_alive = self.take_result();
            }
            if !crew_alive {
                self.abort("worker crew hung up");
            }
        }
    }

    /// Fan the freshly cut block out to every worker, one free buffer each
    /// from the pool. `false` if a worker has hung up.
    fn launch(&mut self) -> bool {
        let block = self.inflight.as_mut().expect("launching a cut block");
        let queries: Arc<Vec<_>> =
            Arc::new(block.batch.iter().map(|item| item.request.query()).collect());
        let n_tails = block
            .batch
            .partition_point(|item| item.request.class() == Class::Row(Direction::Tails));
        block.results = vec![None; self.plan.len()];
        for (sender, pool) in self.crew.senders.iter().zip(&mut self.crew.pool) {
            let out = pool.pop().expect("free worker buffer in pool");
            if sender.send(Job { queries: Arc::clone(&queries), n_tails, out }).is_err() {
                return false;
            }
            block.outstanding += 1;
        }
        true
    }

    /// Take one worker result, counting a lead-idle transition if that
    /// means blocking with nothing left to answer; a block whose last shard
    /// landed moves to `landed`. `false` if the crew has hung up.
    fn take_result(&mut self) -> bool {
        let msg = match self.crew.done.try_recv() {
            Ok(msg) => Ok(msg),
            Err(TryRecvError::Empty) => {
                self.shared.stats.lead_idle.fetch_add(1, Relaxed);
                self.crew.done.recv().map_err(drop)
            }
            Err(TryRecvError::Disconnected) => Err(()),
        };
        let Ok(WorkerDone { worker, out }) = msg else { return false };
        let block = self.inflight.as_mut().expect("a result belongs to a launched block");
        block.outstanding -= 1;
        match out {
            Some(buf) => block.results[worker] = Some(buf),
            None => block.model_panic = true,
        }
        if block.outstanding == 0 {
            self.landed = self.inflight.take();
        }
        true
    }

    /// Stitch a landed block and answer its tickets — row `i` answers batch
    /// item `i` — or isolate a model panic through the per-query reference
    /// path, returning the shard buffers to the pool: a slot that lost its
    /// buffer to a panicking worker gets a fresh one, keeping every worker
    /// two deep.
    fn answer_block(&mut self, block: Inflight) {
        let shared = &*self.shared;
        let n = shared.n_entities;
        if !block.model_panic {
            stitch(&self.plan, &block.results, block.batch.len(), n, &mut self.stitched);
        }
        for (pool, slot) in self.crew.pool.iter_mut().zip(block.results) {
            pool.push(slot.unwrap_or_default());
        }
        if block.model_panic {
            return answer_isolating(shared, block.batch);
        }
        // One cut→answered service-time sample for the retry_after hint.
        let service = u64::try_from(block.cut_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared.stats.block_nanos.fetch_add(service, Relaxed);
        // Count before fulfilling: the ticket lock orders this store before
        // any client that has seen its answer can read the stats.
        shared.stats.queries_served.fetch_add(block.batch.len() as u64, Relaxed);
        for (row, item) in self.stitched.chunks_exact(n).zip(block.batch) {
            shared.stats.record_settle(item.request.class(), item.arrived);
            item.ticket.fulfill(answer(shared, &item.request, row, &mut self.topk));
        }
    }

    /// The one infrastructure-failure path (worker crew hung up, dispatcher
    /// panicked): fail every block the dispatcher still holds, then poison
    /// the engine so queued and future requests fail with `why` too.
    fn abort(&mut self, why: &str) {
        for block in self.inflight.take().into_iter().chain(self.landed.take()) {
            // Counted before failing, so a client that saw its failure
            // also sees it in the stats.
            self.shared.stats.queries_failed.fetch_add(block.batch.len() as u64, Relaxed);
            for item in block.batch {
                self.shared.stats.record_settle(item.request.class(), item.arrived);
                item.ticket.fail(ServeError::failed(why));
            }
        }
        let mut q = self.shared.queue.lock().expect("serve queue lock");
        q.poison(why, &self.shared.stats);
    }
}

/// Settle one request from its guarded computation: the reply, or — the
/// model panicked on this request alone — a failure carrying the model's
/// original message.
fn settle(shared: &Shared, item: Queued, outcome: std::thread::Result<Reply>) {
    shared.stats.record_settle(item.request.class(), item.arrived);
    match outcome {
        Ok(reply) => {
            shared.stats.queries_served.fetch_add(1, Relaxed);
            item.ticket.fulfill(reply);
        }
        Err(payload) => {
            shared.stats.queries_failed.fetch_add(1, Relaxed);
            let why = format!("model panicked: {}", panic_message(payload));
            item.ticket.fail(ServeError::failed(why));
        }
    }
}

/// Answer a batch of triple-score requests inline — O(dim) each, no row to
/// shard. A panicking `score_triple` fails its own ticket only.
fn answer_scores(shared: &Shared, batch: Batch) {
    for item in batch {
        let Request::Score { h, r, t } = item.request else {
            unreachable!("score batch holds score requests")
        };
        let score = catch_unwind(AssertUnwindSafe(|| shared.model.score_triple(h, r, t)));
        settle(shared, item, score.map(Reply::Score));
    }
}

/// A worker panicked while scoring this block: isolate the failure by
/// rescoring each request alone through the per-query reference path
/// (bit-identical to the batched path by the [`kg_models::BatchScorer`]
/// contract), each in its own direction. Only requests whose own query
/// panics fail, and every other request is answered; the engine stays
/// healthy.
fn answer_isolating(shared: &Shared, batch: Batch) {
    let mut row = vec![0.0f32; shared.n_entities];
    let mut topk = Vec::new();
    for item in batch {
        let reply = catch_unwind(AssertUnwindSafe(|| {
            let (first, second) = item.request.query();
            match item.request.class() {
                Class::Row(Direction::Tails) => shared.model.score_tails(first, second, &mut row),
                Class::Row(Direction::Heads) => shared.model.score_heads(first, second, &mut row),
                Class::Score => unreachable!("score requests never reach the row path"),
            }
            answer(shared, &item.request, &row, &mut topk)
        }));
        settle(shared, item, reply);
    }
}

/// Copy each worker's compact shard block back into full-width score rows.
/// Every shard is a column range and a bit-identical slice of the reference
/// row, so `full` ends up exactly as the per-query path would have written
/// it. `results` is the landed block's buffers, aligned with `plan`.
fn stitch(
    plan: &[Range<usize>],
    results: &[Option<Vec<f32>>],
    block_len: usize,
    n_entities: usize,
    full: &mut Vec<f32>,
) {
    full.resize(block_len * n_entities, 0.0);
    for (range, buf) in plan.iter().zip(results) {
        let buf = buf.as_ref().expect("worker buffer returned");
        let width = range.len();
        for q in 0..block_len {
            full[q * n_entities + range.start..q * n_entities + range.end]
                .copy_from_slice(&buf[q * width..(q + 1) * width]);
        }
    }
}

/// Answer one row request from its stitched full-width score row with the
/// shared per-query primitives. `topk` is the caller's reusable selection
/// scratch ([`top_k_into`] grows it to `n_entities` pairs once, then
/// steady-state top-k answers allocate only the `k`-entry reply itself).
fn answer(shared: &Shared, request: &Request, row: &[f32], topk: &mut Vec<(usize, f32)>) -> Reply {
    match *request {
        Request::Rank { dir: Direction::Tails, h, r, t } => {
            let known = shared.filter.tails(EntityId(h as u32), RelationId(r as u32));
            Reply::Rank(filtered_rank(row, t, known))
        }
        Request::Rank { dir: Direction::Heads, h, r, t } => {
            let known = shared.filter.heads(RelationId(r as u32), EntityId(t as u32));
            Reply::Rank(filtered_rank(row, h, known))
        }
        Request::TopK { k, .. } => {
            top_k_into(row, k, topk);
            Reply::TopK(topk.clone())
        }
        Request::Score { .. } => unreachable!("score requests never reach the row path"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::TicketInner;

    const HOUR: Duration = Duration::from_secs(3600);
    const TAILS: Direction = Direction::Tails;
    const HEADS: Direction = Direction::Heads;

    fn rule(linger: Duration, deadline: Option<Duration>) -> CutRule {
        CutRule { block: 4, linger, deadline }
    }

    /// A queue holding one rank request per entry of `arrivals`, in that
    /// order; request `i` targets entity `i`.
    fn queued(arrivals: &[Direction], stats: &StatCells) -> QueueState {
        let mut q = QueueState::default();
        for (i, &dir) in arrivals.iter().enumerate() {
            q.push(Request::Rank { dir, h: 0, r: 0, t: i }, None, TicketInner::new(), stats);
        }
        q
    }

    /// The `(direction, target)` of every request of a granted block.
    fn block(cut: Cut) -> Option<Vec<(Direction, usize)>> {
        match cut {
            Cut::Block(batch) => Some(
                batch
                    .iter()
                    .map(|item| match item.request {
                        Request::Rank { dir, t, .. } => (dir, t),
                        _ => unreachable!("the tests queue rank requests"),
                    })
                    .collect(),
            ),
            Cut::Linger(_) | Cut::Nothing => None,
        }
    }

    /// The whole policy over hand-built queue states, one clause a case.
    #[test]
    fn cut_is_the_whole_scheduling_policy() {
        let stats = StatCells::default();
        let eager = rule(Duration::ZERO, None);

        // An under-filled block lingers, anchored to its oldest request…
        let mut q = queued(&[TAILS, TAILS], &stats);
        let cut = rule(HOUR, None).cut(&mut q, &stats);
        assert!(matches!(cut, Cut::Linger(left) if left <= HOUR && left > HOUR / 2));
        // …a full one is cut at once, and only `block` requests of it…
        let mut q = queued(&[TAILS; 5], &stats);
        assert_eq!(block(rule(HOUR, None).cut(&mut q, &stats)).map(|b| b.len()), Some(4));
        assert_eq!(q.queue(Class::Row(TAILS)).len, 1);
        // …and a deadline shorter than the linger budget caps the wait.
        let (mut q, limit) = (queued(&[TAILS, TAILS], &stats), Duration::from_secs(60));
        let cut = rule(HOUR, Some(limit)).cut(&mut q, &stats);
        assert!(matches!(cut, Cut::Linger(left) if left <= limit));

        // A block fills from both directions: two tails and two heads are a
        // full block, cut at once.
        let mut q = queued(&[TAILS, HEADS, TAILS, HEADS], &stats);
        assert_eq!(block(rule(HOUR, None).cut(&mut q, &stats)).map(|b| b.len()), Some(4));

        // It takes requests in arrival order across the two row queues and
        // orders them tail rows first, arrival order within a direction:
        // the four oldest of H0 T1 H2 T3 H4 T5 are cut, H4 and T5 wait.
        let mut q = queued(&[HEADS, TAILS, HEADS, TAILS, HEADS, TAILS], &stats);
        assert_eq!(
            block(eager.cut(&mut q, &stats)),
            Some(vec![(TAILS, 1), (TAILS, 3), (HEADS, 0), (HEADS, 2)])
        );
        assert_eq!(block(eager.cut(&mut q, &stats)), Some(vec![(TAILS, 5), (HEADS, 4)]));
        assert!(matches!(eager.cut(&mut q, &stats), Cut::Nothing));

        // Nothing is cut once the engine is shut down or poisoned.
        let mut q = queued(&[TAILS, HEADS], &stats);
        q.poisoned = Some("worker crew hung up".to_string());
        assert!(matches!(eager.cut(&mut q, &stats), Cut::Nothing));
        (q.poisoned, q.shutdown) = (None, true);
        assert!(matches!(eager.cut(&mut q, &stats), Cut::Nothing));
    }
}
