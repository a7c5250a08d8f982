//! The dispatcher: one event loop that cuts row blocks off the queues, fans
//! each out to the persistent worker crew — every worker scores the block
//! against its entity shard one tile at a time and answers each row there
//! — and settles the block's tickets from the workers' summed rank counts
//! and merged top-k lists (the policy it implements is described once, in
//! the [crate docs](crate)).
//!
//! Owns: when a block may be cut ([`CutRule::cut`] — linger, shutdown and
//! poisoning, nowhere else), the pipeline (cut and launch the next block
//! before answering the landed one), the pipeline-occupancy counters,
//! per-query isolation of model panics, and the one infrastructure-failure
//! path ([`Dispatcher::abort`]). Pinned by `tests/serve_equivalence.rs`
//! (bit-identity under every configuration), `tests/lifecycle.rs`
//! (settle-once, isolation, shutdown), the root `tests/contracts.rs` (the
//! `score_shard` calls of each worker and block, the top-k merge across
//! tiles and shards) and the `cut` unit test below.

use crate::admission::{RequestClass, ServeError};
use crate::engine::Shared;
use crate::queue::{Batch, QueueState, Queued, Request};
use crate::stats::StatCells;
use crate::ticket::Reply;
use kg_eval::ranking::{
    filtered_rank, merge_top_k, rank_from_counts, top_k_into, RowAnswers, RowJob, TileRanker,
};
use kg_models::{BatchScorer, BatchScratch};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A cut row block as the workers see it: its queries — `n_tails` tail
/// rows, then head rows — and the request each row answers.
struct Rows {
    queries: Vec<(usize, usize)>,
    n_tails: usize,
    requests: Vec<Request>,
}

/// One assignment for a worker: the block, and answer buffers to fill.
struct Job {
    rows: Arc<Rows>,
    answers: RowAnswers,
}

/// A worker's answers for its shard — the buffers come back either way —
/// and whether the model panicked (the dispatcher then rescores the block
/// per query to find the culprit).
struct WorkerDone {
    answers: RowAnswers,
    panicked: bool,
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

/// Worker-crew thread: answer every [`Job`] that arrives over this
/// worker's entity `shard` with the offline ranker's tile loop
/// ([`TileRanker::answer_rows`]: both directions of the block in one
/// `score_tiles` call that scores one tile at a time, each row counted or
/// top-k'd while its tile is hot), catching panics so a failing model override reaches the
/// dispatcher as a flagged result instead of a dead thread. Exits when the
/// dispatcher drops the job channel.
fn worker_loop(
    shared: &Shared,
    shard: Range<usize>,
    jobs: &Receiver<Job>,
    done: &Sender<WorkerDone>,
) {
    let mut ranker = TileRanker::new(shared.policy);
    while let Ok(Job { rows, mut answers }) = jobs.recv() {
        let scored = catch_unwind(AssertUnwindSafe(|| {
            let (tails, heads) = rows.queries.split_at(rows.n_tails);
            let job = |i: usize| rows.requests[i].row_job(&shared.filter);
            ranker.answer_rows(&*shared.model, tails, heads, job, shard.clone(), &mut answers);
        }));
        if done.send(WorkerDone { answers, panicked: scored.is_err() }).is_err() {
            return; // dispatcher gone: engine is shutting down
        }
    }
}

/// The persistent worker crew as the dispatcher holds it.
struct Crew {
    senders: Vec<Sender<Job>>,
    done: Receiver<WorkerDone>,
}

/// One cut row block: its batch (tail rows first), how many workers'
/// answers are still outstanding, whether any worker reported a model
/// panic, and the answers landed so far.
struct Inflight {
    batch: Batch,
    /// Cut time — with the answer time, one `block_nanos` sample for the
    /// `retry_after` service-time estimate.
    cut_at: Instant,
    /// Zero between the cut (under the queue lock) and the launch (after
    /// it); never zero again until the block has fully landed.
    outstanding: usize,
    model_panic: bool,
    /// The workers' answers, in landing order (any order sums and merges
    /// alike).
    results: Vec<RowAnswers>,
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
    /// `block` requests off the row queue, round-robin across its client
    /// lanes. An under-filled block waits out its linger window, anchored
    /// to the oldest row request and capped by the expiry deadline
    /// (lingering past it would only expire the request).
    fn cut(&self, q: &mut QueueState, stats: &StatCells) -> Cut {
        if q.shutdown || q.poisoned.is_some() {
            return Cut::Nothing;
        }
        let rows = q.rows();
        let Some(oldest) = rows.oldest() else { return Cut::Nothing };
        if !self.linger.is_zero() && rows.len < self.block {
            let budget = self.deadline.map_or(self.linger, |d| self.linger.min(d));
            let left = budget.saturating_sub(oldest.elapsed());
            if !left.is_zero() {
                return Cut::Linger(left);
            }
        }
        Cut::Block(q.pop_rows(self.block, self.deadline, stats))
    }
}

/// The dispatcher thread's state: the crew, the one block in flight, the
/// one block that has landed but is not answered yet, and the answer
/// buffers no worker holds.
struct Dispatcher {
    shared: Arc<Shared>,
    crew: Crew,
    inflight: Option<Inflight>,
    /// Answering waits one turn of the loop so the next block is cut and
    /// launched first: the crew scores block N+1 while this thread
    /// answers block N.
    landed: Option<Inflight>,
    /// A block's answer buffers come back here once it is answered, and the
    /// next launch lends them out again: two blocks' worth in steady state,
    /// no allocation.
    spare: Vec<RowAnswers>,
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
                .spawn(move || worker_loop(&shared, shard, &jobs, &done_tx))
                .expect("spawn kg-serve worker"),
        );
    }
    let mut dispatcher = Dispatcher {
        shared: Arc::clone(shared),
        crew: Crew { senders, done },
        inflight: None,
        landed: None,
        spare: Vec::new(),
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
                let scores = q.pop_scores(shared.rule.block, shared.rule.deadline, stats);
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
            // this thread answers the landed one.
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

    /// Fan the freshly cut block out to every worker, each with a set of
    /// spare answer buffers. `false` if a worker has hung up.
    fn launch(&mut self) -> bool {
        let block = self.inflight.as_mut().expect("launching a cut block");
        let requests: Vec<Request> = block.batch.iter().map(|item| item.request).collect();
        let rows = Arc::new(Rows {
            queries: requests.iter().map(Request::query).collect(),
            n_tails: requests.partition_point(|r| r.class() == RequestClass::Tails),
            requests,
        });
        for sender in &self.crew.senders {
            let answers = self.spare.pop().unwrap_or_default();
            if sender.send(Job { rows: Arc::clone(&rows), answers }).is_err() {
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
        let Ok(WorkerDone { answers, panicked }) = msg else { return false };
        let block = self.inflight.as_mut().expect("a result belongs to a launched block");
        block.outstanding -= 1;
        block.model_panic |= panicked;
        block.results.push(answers);
        if block.outstanding == 0 {
            self.landed = self.inflight.take();
        }
        true
    }

    /// Answer a landed block's tickets from its workers' answers — row `i`
    /// answers batch item `i`: a rank from its counts summed over the
    /// shards, a top-k from the shards' lists merged — or isolate a model
    /// panic through the per-query path. The answer buffers go back to the
    /// spares either way.
    fn answer_block(&mut self, block: Inflight) {
        let shared = &*self.shared;
        let Inflight { batch, cut_at, model_panic, results, .. } = block;
        if model_panic {
            answer_isolating(shared, batch);
        } else {
            // One cut→answered service-time sample for the retry_after hint.
            let service = u64::try_from(cut_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
            shared.stats.block_nanos.fetch_add(service, Relaxed);
            // Count before fulfilling: the ticket lock orders this store
            // before any client that has seen its answer can read the stats.
            shared.stats.queries_served.fetch_add(batch.len() as u64, Relaxed);
            for (row, item) in batch.into_iter().enumerate() {
                let reply = match item.request {
                    Request::Rank { .. } => {
                        Reply::Rank(rank_from_counts(results.iter().map(|a| a.counts[row])))
                    }
                    Request::TopK { k, .. } => {
                        Reply::TopK(merge_top_k(results.iter().map(|a| &a.top[row][..]), k))
                    }
                    Request::Score { .. } => {
                        unreachable!("score requests never reach the row path")
                    }
                };
                shared.stats.record_settle(item.request.class(), item.arrived);
                item.ticket.fulfill(reply);
            }
        }
        self.spare.extend(results);
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
/// rescoring each request alone — a one-row `score_shard` over the whole
/// table under the engine's policy, whose scores equal the block's by the
/// shard contract — and answering it from that row with the per-query
/// primitives. Only requests whose own query panics fail, and every other
/// request is answered; the engine stays healthy.
fn answer_isolating(shared: &Shared, batch: Batch) {
    let mut scratch = BatchScratch::with_policy(shared.policy);
    let (mut row, mut topk) = (vec![0.0f32; shared.n_entities], Vec::new());
    for item in batch {
        let reply = catch_unwind(AssertUnwindSafe(|| {
            let query = [item.request.query()];
            let tail = item.request.class() == RequestClass::Tails;
            let (tails, heads) = query.split_at(usize::from(tail));
            let all = 0..shared.n_entities;
            shared.model.score_shard(tails, heads, all, &mut row, &mut scratch);
            match item.request.row_job(&shared.filter) {
                RowJob::Rank { target, known } => Reply::Rank(filtered_rank(&row, target, known)),
                RowJob::TopK(k) => {
                    top_k_into(&row, k, &mut topk);
                    Reply::TopK(topk.clone())
                }
            }
        }));
        settle(shared, item, reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::TicketInner;
    use kg_eval::engine::Direction;

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
        assert_eq!(q.rows().len, 1);
        // …and a deadline shorter than the linger budget caps the wait.
        let (mut q, limit) = (queued(&[TAILS, TAILS], &stats), Duration::from_secs(60));
        let cut = rule(HOUR, Some(limit)).cut(&mut q, &stats);
        assert!(matches!(cut, Cut::Linger(left) if left <= limit));

        // A block fills from both directions: two tails and two heads are a
        // full block, cut at once.
        let mut q = queued(&[TAILS, HEADS, TAILS, HEADS], &stats);
        assert_eq!(block(rule(HOUR, None).cut(&mut q, &stats)).map(|b| b.len()), Some(4));

        // It takes requests in arrival order off the one row queue and
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
