//! What is queued: the request vocabulary, the two client-laned queues —
//! triple scores, and row queries of both directions — and the three ways
//! a request leaves them without an answer: expiry at block cut, shutdown
//! drain, poisoning.
//!
//! Owns: round-robin dequeue across client lanes (each lane in arrival
//! order), deadline expiry inside [`LaneQueue::pop_block`], the per-class
//! counts the caps read, and the per-request depth accounting. Pinned by
//! `tests/admission.rs` (caps, expiry, fairness across directions) and
//! `tests/lifecycle.rs` (depths return to zero).

use crate::admission::{RequestClass, ServeError};
use crate::stats::StatCells;
use crate::ticket::TicketInner;
use kg_core::{EntityId, FilterIndex, RelationId};
use kg_eval::engine::Direction;
use kg_eval::ranking::RowJob;
use std::collections::VecDeque;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One queued request.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Request {
    /// Plausibility of a single triple (`score_triple` semantics).
    Score { h: usize, r: usize, t: usize },
    /// Filtered rank of the target (`t` for tails, `h` for heads) in the
    /// direction's score row.
    Rank { dir: Direction, h: usize, r: usize, t: usize },
    /// The `k` best completions of entity `e` under relation `r` in the
    /// given direction.
    TopK { dir: Direction, e: usize, r: usize, k: usize },
}

impl Request {
    pub(crate) fn class(&self) -> RequestClass {
        match self {
            Request::Score { .. } => RequestClass::Score,
            Request::Rank { dir: Direction::Tails, .. }
            | Request::TopK { dir: Direction::Tails, .. } => RequestClass::Tails,
            Request::Rank { dir: Direction::Heads, .. }
            | Request::TopK { dir: Direction::Heads, .. } => RequestClass::Heads,
        }
    }

    /// The `(entity, relation)` or `(relation, entity)` pair handed to the
    /// batch scorer for row requests.
    pub(crate) fn query(&self) -> (usize, usize) {
        match *self {
            Request::Rank { dir: Direction::Tails, h: e, r, .. }
            | Request::TopK { dir: Direction::Tails, e, r, .. } => (e, r),
            Request::Rank { dir: Direction::Heads, r, t: e, .. }
            | Request::TopK { dir: Direction::Heads, e, r, .. } => (r, e),
            Request::Score { .. } => unreachable!("score requests carry no row query"),
        }
    }

    /// What a row request asks of its score row: the filtered rank of its
    /// target among the candidates `filter` does not know as completions,
    /// or its `k` best entities.
    pub(crate) fn row_job<'f>(&self, filter: &'f FilterIndex) -> RowJob<'f> {
        let id = |e: usize| EntityId(e as u32);
        match *self {
            Request::Rank { dir: Direction::Tails, h, r, t } => {
                RowJob::Rank { target: t, known: filter.tails(id(h), RelationId(r as u32)) }
            }
            Request::Rank { dir: Direction::Heads, h, r, t } => {
                RowJob::Rank { target: h, known: filter.heads(RelationId(r as u32), id(t)) }
            }
            Request::TopK { k, .. } => RowJob::TopK(k),
            Request::Score { .. } => unreachable!("score requests carry no row query"),
        }
    }
}

/// One request waiting in a queue.
#[derive(Debug)]
pub(crate) struct Queued {
    /// Arrival time — the linger/deadline anchor and the latency
    /// histogram's start mark. Taken under the queue lock, so arrival
    /// times are in push order.
    pub(crate) arrived: Instant,
    /// The client key this request was submitted under
    /// ([`crate::KgEngine::client`]), `None` for anonymous submissions.
    client: Option<u64>,
    pub(crate) request: Request,
    pub(crate) ticket: Arc<TicketInner>,
}

/// A batch cut off a queue, ready for dispatch. Entries keep their queue
/// metadata so the settle path can record submit→settle latency.
pub(crate) type Batch = Vec<Queued>;

/// One client's FIFO run inside a [`LaneQueue`].
#[derive(Debug)]
struct ClientLane {
    key: Option<u64>,
    q: VecDeque<Queued>,
}

/// A queue laned by client: a ring of per-client FIFO lanes.
///
/// Anonymous submissions share the single `None` lane, so without client
/// keys the queue is a plain FIFO deque at O(1) cost. With keys in play,
/// [`LaneQueue::pop_rr`] takes one request from the front lane and
/// rotates it to the back: block cuts round-robin across clients while
/// each client's own requests stay strictly FIFO, so one greedy client can
/// fill the queue but cannot monopolise the blocks cut from it.
#[derive(Debug, Default)]
pub(crate) struct LaneQueue {
    lanes: VecDeque<ClientLane>,
    pub(crate) len: usize,
}

impl LaneQueue {
    fn push(&mut self, item: Queued) {
        self.len += 1;
        match self.lanes.iter_mut().find(|lane| lane.key == item.client) {
            Some(lane) => lane.q.push_back(item),
            None => {
                self.lanes.push_back(ClientLane { key: item.client, q: VecDeque::from([item]) })
            }
        }
    }

    /// When the queue's oldest request arrived (the earliest arrival
    /// across the lane fronts) — the linger anchor.
    pub(crate) fn oldest(&self) -> Option<Instant> {
        self.lanes.iter().filter_map(|lane| lane.q.front()).map(|item| item.arrived).min()
    }

    /// Pop one request round-robin: the front lane's front request, the
    /// lane rotating to the back (and evaporating once empty).
    fn pop_rr(&mut self) -> Option<Queued> {
        let mut lane = self.lanes.pop_front()?;
        let item = lane.q.pop_front().expect("queue lanes are never empty");
        if !lane.q.is_empty() {
            self.lanes.push_back(lane);
        }
        self.len -= 1;
        Some(item)
    }

    /// Cut up to `max` *live* requests, round-robin across the client
    /// lanes, keeping `queued` (the per-class counts) in step. Requests
    /// already past the engine's deadline are expired right here — settled
    /// with [`ServeError::Expired`], counted, latency-recorded — and never
    /// occupy a block slot, so an overloaded queue sheds its stale backlog
    /// at block-cut speed instead of wasting crew time scoring answers
    /// nobody is waiting for.
    fn pop_block(
        &mut self,
        queued: &mut [usize; 3],
        max: usize,
        deadline: Option<Duration>,
        stats: &StatCells,
    ) -> Batch {
        let now = Instant::now();
        let mut batch = Batch::with_capacity(max.min(self.len));
        let mut mixed_clients = false;
        while batch.len() < max {
            let Some(item) = self.pop_rr() else { break };
            let class = item.request.class();
            queued[class.index()] -= 1;
            stats.depth(class).fetch_sub(1, Relaxed);
            let waited = now.saturating_duration_since(item.arrived);
            if let Some(deadline) = deadline.filter(|d| waited > *d) {
                stats.queries_expired.fetch_add(1, Relaxed);
                stats.record_settle(class, item.arrived);
                item.ticket.fail(ServeError::Expired { class, waited, deadline });
                continue;
            }
            mixed_clients |= batch.first().is_some_and(|first| first.client != item.client);
            batch.push(item);
        }
        if mixed_clients {
            stats.fair_cuts.fetch_add(1, Relaxed);
        }
        batch
    }

    /// Empty the queue, yielding every request in lane order.
    fn drain_all(&mut self) -> impl Iterator<Item = Queued> {
        self.len = 0;
        std::mem::take(&mut self.lanes).into_iter().flat_map(|lane| lane.q)
    }
}

/// Queue shared between clients, dispatcher and `Drop`.
///
/// Two [`LaneQueue`]s: triple scores, and row queries of both directions.
/// A row block is cut off the one row queue round-robin across its client
/// lanes — each lane in arrival order whatever the direction mix — at
/// O(1) per request (plus a lane scan bounded by the number of distinct
/// client keys).
#[derive(Debug, Default)]
pub(crate) struct QueueState {
    scores: LaneQueue,
    rows: LaneQueue,
    /// Requests queued per class, in [`RequestClass::ALL`] order — what
    /// the per-class caps apply to.
    queued: [usize; 3],
    pub(crate) shutdown: bool,
    /// Set on an infrastructure failure (worker crew hung up, dispatcher
    /// panicked): every in-flight, pending and future request fails with
    /// this message. Model panics do *not* poison — they are isolated to
    /// the offending request.
    pub(crate) poisoned: Option<String>,
}

impl QueueState {
    /// The row queue: row queries of both directions.
    pub(crate) fn rows(&self) -> &LaneQueue {
        &self.rows
    }

    /// How many `class` requests are queued — what its cap applies to.
    pub(crate) fn queued(&self, class: RequestClass) -> usize {
        self.queued[class.index()]
    }

    pub(crate) fn push(
        &mut self,
        request: Request,
        client: Option<u64>,
        ticket: Arc<TicketInner>,
        stats: &StatCells,
    ) {
        let class = request.class();
        let item = Queued { arrived: Instant::now(), client, request, ticket };
        match class {
            RequestClass::Score => self.scores.push(item),
            RequestClass::Tails | RequestClass::Heads => self.rows.push(item),
        }
        self.queued[class.index()] += 1;
        stats.depth(class).fetch_add(1, Relaxed);
    }

    /// How many queued requests a new `class` request would share blocks
    /// with — and so, in arrival order, wait behind: the score queue for a
    /// triple score, the row queue for a row query.
    pub(crate) fn backlog(&self, class: RequestClass) -> usize {
        match class {
            RequestClass::Score => self.scores.len,
            RequestClass::Tails | RequestClass::Heads => self.rows.len,
        }
    }

    /// Cut a batch of up to `max` live triple scores
    /// ([`LaneQueue::pop_block`]).
    pub(crate) fn pop_scores(
        &mut self,
        max: usize,
        deadline: Option<Duration>,
        stats: &StatCells,
    ) -> Batch {
        self.scores.pop_block(&mut self.queued, max, deadline, stats)
    }

    /// Cut a row block of up to `max` live row queries
    /// ([`LaneQueue::pop_block`]) and order it like an offline ranking
    /// block — tail rows before head rows, the cut order within each.
    pub(crate) fn pop_rows(
        &mut self,
        max: usize,
        deadline: Option<Duration>,
        stats: &StatCells,
    ) -> Batch {
        let mut batch = self.rows.pop_block(&mut self.queued, max, deadline, stats);
        batch.sort_by_key(|item| item.request.class().index());
        batch
    }

    /// Fail every queued request with `why`, emptying the queues. Counts
    /// and depths are decremented per request — never zeroed wholesale —
    /// so a depth counter leak anywhere else shows up as a non-zero final
    /// depth instead of being papered over here.
    pub(crate) fn drain_fail(&mut self, why: &str, stats: &StatCells) {
        for q in self.scores.drain_all().chain(self.rows.drain_all()) {
            let class = q.request.class();
            self.queued[class.index()] -= 1;
            stats.queries_failed.fetch_add(1, Relaxed);
            stats.depth(class).fetch_sub(1, Relaxed);
            stats.record_settle(class, q.arrived);
            q.ticket.fail(ServeError::failed(why));
        }
    }

    /// Permanently fail the engine: every pending and future request gets
    /// `why` (future ones the first cause recorded). Reserved for
    /// infrastructure failures (hung-up crew, dispatcher panic) — model
    /// panics are isolated per request instead.
    pub(crate) fn poison(&mut self, why: &str, stats: &StatCells) {
        self.poisoned.get_or_insert_with(|| why.to_string());
        self.drain_fail(why, stats);
    }
}
