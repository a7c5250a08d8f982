//! The dispatcher: one event loop over *lanes* that cuts row blocks off the
//! queues, fans them out to the persistent worker crew, and stitches and
//! answers what comes back (the policy it implements is described once, in
//! the [crate docs](crate)).
//!
//! Owns: when a block may be cut ([`CutRule::cut`] — linger, the
//! full-crew / split-crew layout choice, shutdown and poisoning, nowhere
//! else), the lane pipeline (refill a lane before answering its landed
//! block), the pipeline-occupancy counters, per-query isolation of model
//! panics, and the one infrastructure-failure path ([`Dispatcher::abort`]).
//! Pinned by `tests/serve_equivalence.rs` (bit-identity under every
//! layout), `tests/lifecycle.rs` (settle-once, isolation, shutdown) and the
//! `cut` unit test below.

use crate::admission::ServeError;
use crate::engine::Shared;
use crate::queue::{Batch, Class, QueueState, Queued, Request};
use crate::stats::StatCells;
use crate::ticket::Reply;
use kg_core::{EntityId, RelationId};
use kg_eval::engine::{split_plan, Direction};
use kg_eval::ranking::{filtered_rank, top_k_into};
use kg_models::{BatchScorer, BatchScratch, LinkPredictor};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One scoring assignment for a worker: the block's queries, the entity
/// shard to score them against — per job, because sub-crew layouts differ
/// from the full-crew layout — the lane the result routes back to, and the
/// reusable output buffer.
struct Job {
    dir: Direction,
    queries: Arc<Vec<(usize, usize)>>,
    shard: Range<usize>,
    lane: usize,
    out: Vec<f32>,
}

/// A worker's answer: its filled buffer, or `None` if the model panicked
/// (the dispatcher then rescores the block per query to find the culprit).
struct WorkerDone {
    worker: usize,
    lane: usize,
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

/// Worker-crew thread: score whatever [`Job`]s arrive against the shard
/// each job carries (full-crew and sub-crew lanes share the workers),
/// catching panics so a failing model override reaches the dispatcher as
/// a flagged result instead of a dead thread. Exits when the dispatcher
/// drops the job channel.
fn worker_loop(shared: &Shared, idx: usize, jobs: &Receiver<Job>, done: &Sender<WorkerDone>) {
    let mut scratch = BatchScratch::with_policy(shared.policy);
    while let Ok(job) = jobs.recv() {
        let mut out = job.out;
        let scored = catch_unwind(AssertUnwindSafe(|| {
            let queries = &job.queries[..];
            out.resize(queries.len() * job.shard.len(), 0.0);
            // One direction per serving block: the other side stays empty.
            let (tails, heads) = match job.dir {
                Direction::Tails => (queries, &[][..]),
                Direction::Heads => (&[][..], queries),
            };
            shared.model.score_shard(tails, heads, job.shard, &mut out, &mut scratch);
        }));
        let out = scored.is_ok().then_some(out);
        if done.send(WorkerDone { worker: idx, lane: job.lane, out }).is_err() {
            return; // dispatcher gone: engine is shutting down
        }
    }
}

/// The persistent worker crew as the dispatcher holds it.
struct Crew {
    senders: Vec<Sender<Job>>,
    done: Receiver<WorkerDone>,
    /// *Two* compact output buffers per worker, round-tripped through the
    /// job channel — the double buffer that lets a lane's block N+1 score
    /// while block N's results are still being stitched.
    pool: Vec<Vec<Vec<f32>>>,
}

/// One row block cut for a lane: its batch, how many shard results are
/// still outstanding, whether any worker reported a model panic, and the
/// landed shard buffers aligned with the lane's plan.
struct Inflight {
    dir: Direction,
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

/// A slice of the crew that scores one block at a time.
struct Lane {
    /// The direction a sub-crew lane drains; `None` for the full-crew
    /// lane, which cuts the oldest row class.
    dir: Option<Direction>,
    /// This lane's shard plan: shard `i` runs on worker `base + i`.
    plan: Vec<Range<usize>>,
    base: usize,
    inflight: Option<Inflight>,
    /// Stitched full-width block and top-k selection scratch, per lane so
    /// a landed block never waits on another lane's buffers.
    stitched: Vec<f32>,
    topk: Vec<(usize, f32)>,
}

impl Lane {
    fn new(dir: Option<Direction>, plan: Vec<Range<usize>>, base: usize) -> Lane {
        Lane { dir, plan, base, inflight: None, stitched: Vec::new(), topk: Vec::new() }
    }
}

/// The block-cutting knobs, fixed at `build()`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CutRule {
    pub(crate) block: usize,
    pub(crate) linger: Duration,
    pub(crate) deadline: Option<Duration>,
    /// Whether the crew has the two workers a split needs.
    pub(crate) can_split: bool,
}

/// What [`CutRule::cut`] grants a lane.
enum Cut {
    /// A block to launch — empty if every request of the cut had expired.
    Block(Direction, Batch),
    /// Nothing yet: the lane's under-filled block stays inside its linger
    /// window for this much longer.
    Linger(Duration),
    /// Nothing until the queues (or the other lanes) change.
    Nothing,
}

impl CutRule {
    /// The one scheduling rule: may `lane` cut a row block right now?
    ///
    /// Never on a shut-down or poisoned engine. The full-crew lane
    /// (`None`) cuts the oldest row class, but yields when a split is due
    /// (both directions queued on a crew that can split) so the sub-crew
    /// lanes take over. A sub-crew lane cuts its own direction only while
    /// the work is genuinely dual — its sibling in flight or the opposite
    /// direction queued — so a backlog that outlives the other direction
    /// goes back to the full crew. Either way an under-filled block waits
    /// out its linger window, anchored to the oldest request and capped by
    /// the expiry deadline (lingering past it would only expire the
    /// request).
    fn cut(
        &self,
        q: &mut QueueState,
        stats: &StatCells,
        lane: Option<Direction>,
        sibling_busy: bool,
    ) -> Cut {
        if q.shutdown || q.poisoned.is_some() {
            return Cut::Nothing;
        }
        let queued = |dir| q.queue(Class::Row(dir)).len > 0;
        let dir = match lane {
            None if self.can_split && queued(Direction::Tails) && queued(Direction::Heads) => None,
            None => q.oldest_row(),
            Some(dir) => (queued(dir) && (sibling_busy || queued(dir.opposite()))).then_some(dir),
        };
        let Some(dir) = dir else { return Cut::Nothing };
        let queue = q.queue(Class::Row(dir));
        if !self.linger.is_zero() && queue.len < self.block {
            let budget = self.deadline.map_or(self.linger, |d| self.linger.min(d));
            let waited = queue.front().expect("a non-empty queue has a front").arrived.elapsed();
            if let Some(left) = budget.checked_sub(waited).filter(|left| !left.is_zero()) {
                return Cut::Linger(left);
            }
        }
        Cut::Block(dir, q.pop_block(Class::Row(dir), self.block, self.deadline, stats))
    }
}

/// The dispatcher thread's state: the crew, the lanes over it, and the one
/// block that has landed but is not answered yet.
struct Dispatcher {
    shared: Arc<Shared>,
    crew: Crew,
    /// `[full crew]`, then — when the crew has two or more workers —
    /// `[tails sub-crew, heads sub-crew]` over the same workers
    /// ([`split_plan`]'s layout). A lane may only launch while the lanes it
    /// shares workers with have nothing in flight.
    lanes: Vec<Lane>,
    /// Answering waits one turn of the loop so the block's lane is
    /// refilled first: the crew scores block N+1 while this thread
    /// converts block N.
    landed: Option<(usize, Inflight)>,
}

/// Spawn the worker crew for `plan` (the full-crew shard plan) and the
/// dispatcher thread over it.
pub(crate) fn spawn(
    shared: &Arc<Shared>,
    plan: Vec<Range<usize>>,
) -> (JoinHandle<()>, Vec<JoinHandle<()>>) {
    let n_workers = plan.len();
    let (done_tx, done) = channel();
    let mut senders = Vec::with_capacity(n_workers);
    let mut workers = Vec::with_capacity(n_workers);
    for idx in 0..n_workers {
        let (job_tx, jobs) = channel();
        senders.push(job_tx);
        let (shared, done_tx) = (Arc::clone(shared), done_tx.clone());
        workers.push(
            std::thread::Builder::new()
                .name(format!("kg-serve-worker-{idx}"))
                .spawn(move || worker_loop(&shared, idx, &jobs, &done_tx))
                .expect("spawn kg-serve worker"),
        );
    }
    let mut lanes = vec![Lane::new(None, plan, 0)];
    if shared.rule.can_split {
        let (tails, heads) = split_plan(shared.n_entities, n_workers);
        lanes.push(Lane::new(Some(Direction::Tails), tails, 0));
        lanes.push(Lane::new(Some(Direction::Heads), heads, n_workers / 2));
    }
    let pool = (0..n_workers).map(|_| vec![Vec::new(), Vec::new()]).collect();
    let mut dispatcher = Dispatcher {
        shared: Arc::clone(shared),
        crew: Crew { senders, done, pool },
        lanes,
        landed: None,
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
            let scores = 'pass: loop {
                let mut nap: Option<Duration> = None;
                for i in 0..self.lanes.len() {
                    if self.lanes[i].inflight.is_some() || self.workers_busy(i) {
                        continue;
                    }
                    let sibling_busy = i > 0 && self.lanes[3 - i].inflight.is_some();
                    match shared.rule.cut(&mut q, stats, self.lanes[i].dir, sibling_busy) {
                        // The whole cut expired: the queues moved under the
                        // lanes already asked, so ask them all again.
                        Cut::Block(_, batch) if batch.is_empty() => continue 'pass,
                        Cut::Block(dir, batch) => {
                            stats.record_block(batch.len(), i > 0);
                            self.lanes[i].inflight = Some(Inflight {
                                dir,
                                batch,
                                cut_at: Instant::now(),
                                outstanding: 0,
                                model_panic: false,
                                results: Vec::new(),
                            });
                        }
                        Cut::Linger(left) => nap = Some(nap.map_or(left, |n| n.min(left))),
                        Cut::Nothing => {}
                    }
                }
                // Triple scores need no crew: one bounded batch per turn,
                // so they are never held by a lingering or long-draining
                // row block, and a score flood never holds a landed one.
                let scores =
                    q.pop_block(Class::Score, shared.rule.block, shared.rule.deadline, stats);
                if !scores.is_empty() || self.landed.is_some() || self.in_flight() {
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

            // Launch before answering: the crew scores the new blocks
            // while this thread stitches and ranks the landed one.
            let mut crew_alive = true;
            for i in 0..self.lanes.len() {
                if self.lanes[i].inflight.as_ref().is_some_and(|block| block.outstanding == 0) {
                    crew_alive &= self.launch(i);
                }
            }
            if let Some((i, block)) = self.landed.take() {
                let refilled = self.lanes[i].inflight.is_some();
                let counter = if refilled { &stats.blocks_overlapped } else { &stats.crew_idle };
                counter.fetch_add(1, Relaxed);
                self.answer_block(i, block);
            }
            answer_scores(&shared, scores);
            if crew_alive && self.in_flight() {
                crew_alive = self.take_result();
            }
            if !crew_alive {
                self.abort("worker crew hung up");
            }
        }
    }

    fn in_flight(&self) -> bool {
        self.lanes.iter().any(|lane| lane.inflight.is_some())
    }

    /// Whether a lane that shares lane `i`'s workers has a block in
    /// flight: the full-crew lane shares with both sub-crew lanes.
    fn workers_busy(&self, i: usize) -> bool {
        match i {
            0 => self.lanes[1..].iter().any(|lane| lane.inflight.is_some()),
            _ => self.lanes[0].inflight.is_some(),
        }
    }

    /// Fan lane `i`'s freshly cut block out to its workers, one free
    /// buffer each from the pool. `false` if a worker has hung up.
    fn launch(&mut self, i: usize) -> bool {
        let lane = &mut self.lanes[i];
        let block = lane.inflight.as_mut().expect("launching a cut block");
        let queries: Arc<Vec<_>> =
            Arc::new(block.batch.iter().map(|item| item.request.query()).collect());
        block.results = vec![None; lane.plan.len()];
        for (w, shard) in (lane.base..).zip(&lane.plan) {
            let job = Job {
                dir: block.dir,
                queries: Arc::clone(&queries),
                shard: shard.clone(),
                lane: i,
                out: self.crew.pool[w].pop().expect("free worker buffer in pool"),
            };
            if self.crew.senders[w].send(job).is_err() {
                return false;
            }
            block.outstanding += 1;
        }
        true
    }

    /// Take one worker result and route it to its lane, counting a
    /// lead-idle transition if that means blocking with nothing left to
    /// answer; a block whose last shard landed moves to `landed`. `false`
    /// if the crew has hung up.
    fn take_result(&mut self) -> bool {
        let msg = match self.crew.done.try_recv() {
            Ok(msg) => Ok(msg),
            Err(TryRecvError::Empty) => {
                self.shared.stats.lead_idle.fetch_add(1, Relaxed);
                self.crew.done.recv().map_err(drop)
            }
            Err(TryRecvError::Disconnected) => Err(()),
        };
        let Ok(WorkerDone { worker, lane, out }) = msg else { return false };
        let base = self.lanes[lane].base;
        let block =
            self.lanes[lane].inflight.as_mut().expect("a result belongs to a launched block");
        block.outstanding -= 1;
        match out {
            Some(buf) => block.results[worker - base] = Some(buf),
            None => block.model_panic = true,
        }
        if block.outstanding == 0 {
            self.landed = self.lanes[lane].inflight.take().map(|block| (lane, block));
        }
        true
    }

    /// Stitch lane `i`'s landed block and answer its tickets (or isolate a
    /// model panic through the per-query reference path), returning the
    /// shard buffers to the pool — a slot that lost its buffer to a
    /// panicking worker gets a fresh one, keeping every worker two deep.
    fn answer_block(&mut self, i: usize, block: Inflight) {
        let (shared, lane) = (&*self.shared, &mut self.lanes[i]);
        let n = shared.n_entities;
        if !block.model_panic {
            stitch(&lane.plan, &block.results, block.batch.len(), n, &mut lane.stitched);
        }
        for (w, slot) in (lane.base..).zip(block.results) {
            self.crew.pool[w].push(slot.unwrap_or_default());
        }
        if block.model_panic {
            return answer_isolating(shared, block.dir, block.batch);
        }
        // One cut→answered service-time sample for the retry_after hint.
        let service = u64::try_from(block.cut_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared.stats.block_nanos.fetch_add(service, Relaxed);
        // Count before fulfilling: the ticket lock orders this store before
        // any client that has seen its answer can read the stats.
        shared.stats.queries_served.fetch_add(block.batch.len() as u64, Relaxed);
        for (row, item) in lane.stitched.chunks_exact(n).zip(block.batch) {
            shared.stats.record_settle(Class::Row(block.dir), item.arrived);
            item.ticket.fulfill(answer(shared, &item.request, row, &mut lane.topk));
        }
    }

    /// The one infrastructure-failure path (worker crew hung up, dispatcher
    /// panicked): fail every block the dispatcher still holds, then poison
    /// the engine so queued and future requests fail with `why` too.
    fn abort(&mut self, why: &str) {
        let held = self.lanes.iter_mut().filter_map(|lane| lane.inflight.take());
        for block in held.chain(self.landed.take().map(|(_, block)| block)) {
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
/// contract). Only requests whose own query panics fail, and every other
/// request is answered; the engine stays healthy.
fn answer_isolating(shared: &Shared, dir: Direction, batch: Batch) {
    let mut row = vec![0.0f32; shared.n_entities];
    let mut topk = Vec::new();
    for item in batch {
        let reply = catch_unwind(AssertUnwindSafe(|| {
            let (first, second) = item.request.query();
            match dir {
                Direction::Tails => shared.model.score_tails(first, second, &mut row),
                Direction::Heads => shared.model.score_heads(first, second, &mut row),
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

    fn rule(linger: Duration, deadline: Option<Duration>, can_split: bool) -> CutRule {
        CutRule { block: 4, linger, deadline, can_split }
    }

    /// A queue holding `tails` tail and `heads` head rank requests, tails
    /// first.
    fn queued(tails: usize, heads: usize, stats: &StatCells) -> QueueState {
        let mut q = QueueState::default();
        for (dir, n) in [(Direction::Tails, tails), (Direction::Heads, heads)] {
            for _ in 0..n {
                q.push(Request::Rank { dir, h: 0, r: 0, t: 1 }, None, TicketInner::new(), stats);
            }
        }
        q
    }

    /// `Some((direction, fill))` of a granted block.
    fn block(cut: Cut) -> Option<(Direction, usize)> {
        match cut {
            Cut::Block(dir, batch) => Some((dir, batch.len())),
            Cut::Linger(_) | Cut::Nothing => None,
        }
    }

    /// The whole policy over hand-built queue states, one clause a case.
    #[test]
    fn cut_is_the_whole_scheduling_policy() {
        let stats = StatCells::default();
        let (tails, heads) = (Direction::Tails, Direction::Heads);
        let eager = rule(Duration::ZERO, None, true);

        // An under-filled block lingers, anchored to its oldest request…
        let mut q = queued(2, 0, &stats);
        let cut = rule(HOUR, None, false).cut(&mut q, &stats, None, false);
        assert!(matches!(cut, Cut::Linger(left) if left <= HOUR && left > HOUR / 2));
        // …a full one is cut at once, and only `block` requests of it…
        let mut q = queued(5, 0, &stats);
        assert_eq!(
            block(rule(HOUR, None, false).cut(&mut q, &stats, None, false)),
            Some((tails, 4))
        );
        assert_eq!(q.queue(Class::Row(tails)).len, 1);
        // …and a deadline shorter than the linger budget caps the wait.
        let (mut q, limit) = (queued(2, 0, &stats), Duration::from_secs(60));
        let cut = rule(HOUR, Some(limit), false).cut(&mut q, &stats, None, false);
        assert!(matches!(cut, Cut::Linger(left) if left <= limit));

        // The full-crew lane cuts the oldest row class — unless a split is
        // due on a crew that can split, when it yields to the sub-crews.
        let mut q = queued(1, 3, &stats);
        assert_eq!(
            block(rule(Duration::ZERO, None, false).cut(&mut q, &stats, None, false)),
            Some((tails, 1))
        );
        let mut q = queued(1, 3, &stats);
        assert!(matches!(eager.cut(&mut q, &stats, None, false), Cut::Nothing));
        assert_eq!(block(eager.cut(&mut q, &stats, Some(heads), false)), Some((heads, 3)));
        // The tails lane still cuts: heads are now in flight beside it.
        assert_eq!(block(eager.cut(&mut q, &stats, Some(tails), true)), Some((tails, 1)));

        // A sub-crew lane whose opposite direction ran dry hands its
        // backlog back to the full crew.
        let mut q = queued(3, 0, &stats);
        assert!(matches!(eager.cut(&mut q, &stats, Some(tails), false), Cut::Nothing));
        assert!(matches!(eager.cut(&mut q, &stats, Some(heads), true), Cut::Nothing));
        assert_eq!(block(eager.cut(&mut q, &stats, None, false)), Some((tails, 3)));

        // Nothing is cut once the engine is shut down or poisoned.
        let mut q = queued(4, 4, &stats);
        q.poisoned = Some("worker crew hung up".to_string());
        for lane in [None, Some(tails), Some(heads)] {
            assert!(matches!(eager.cut(&mut q, &stats, lane, true), Cut::Nothing));
        }
        (q.poisoned, q.shutdown) = (None, true);
        assert!(matches!(eager.cut(&mut q, &stats, None, false), Cut::Nothing));
    }
}
