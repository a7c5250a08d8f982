//! What is queued: the request vocabulary, the per-class client-lane
//! queues, and the three ways a request leaves them without an answer —
//! expiry at block cut, shutdown drain, poisoning.
//!
//! Owns: arrival order ([`Queued::seq`]), round-robin dequeue across client
//! lanes, deadline expiry inside [`QueueState::pop_block`], and the
//! per-request depth accounting. Pinned by `tests/admission.rs` (caps,
//! expiry, fairness) and `tests/lifecycle.rs` (depths return to zero).

use crate::admission::{RequestClass, ServeError};
use crate::stats::StatCells;
use crate::ticket::TicketInner;
use kg_eval::engine::Direction;
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

/// Which queue a request waits in: triple scores, tail row queries or
/// head row queries. Triple scores batch together; row queries of both
/// directions share one GEMM block, cut from [`Class::ROWS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    Score,
    Row(Direction),
}

impl Class {
    const ALL: [Class; 3] =
        [Class::Score, Class::Row(Direction::Tails), Class::Row(Direction::Heads)];

    /// The two row classes — what one row block is cut from.
    pub(crate) const ROWS: [Class; 2] =
        [Class::Row(Direction::Tails), Class::Row(Direction::Heads)];

    /// The public name of this class — the vocabulary admission errors and
    /// stats speak.
    pub(crate) fn public(self) -> RequestClass {
        RequestClass::ALL[self.index()]
    }

    /// Index into per-class arrays (caps, depths, histograms) — the
    /// [`RequestClass::ALL`] order.
    pub(crate) fn index(self) -> usize {
        match self {
            Class::Score => 0,
            Class::Row(Direction::Tails) => 1,
            Class::Row(Direction::Heads) => 2,
        }
    }
}

impl RequestClass {
    /// Index of this class in [`RequestClass::ALL`].
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl Request {
    pub(crate) fn class(&self) -> Class {
        match self {
            Request::Score { .. } => Class::Score,
            Request::Rank { dir, .. } | Request::TopK { dir, .. } => Class::Row(*dir),
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
}

/// One request waiting in a class queue.
#[derive(Debug)]
pub(crate) struct Queued {
    /// Global arrival sequence number — the arrival-order key across
    /// class queues.
    seq: u64,
    /// Arrival time — the linger/deadline anchor and the latency
    /// histogram's start mark.
    pub(crate) arrived: Instant,
    /// The client key this request was submitted under
    /// ([`crate::KgEngine::client`]), `None` for anonymous submissions.
    client: Option<u64>,
    pub(crate) request: Request,
    pub(crate) ticket: Arc<TicketInner>,
}

/// A batch cut off a class queue, ready for dispatch. Entries keep their
/// queue metadata so the settle path can record submit→settle latency.
pub(crate) type Batch = Vec<Queued>;

/// One client's FIFO run inside a [`ClassQueue`].
#[derive(Debug)]
struct ClientLane {
    key: Option<u64>,
    q: VecDeque<Queued>,
}

/// One class's queue: a ring of per-client FIFO lanes.
///
/// Anonymous submissions share the single `None` lane, so without client
/// keys the queue is a plain FIFO deque at O(1) cost. With keys in play,
/// [`ClassQueue::pop_rr`] takes one request from the front lane and
/// rotates it to the back: block cuts round-robin across clients while
/// each client's own requests stay strictly FIFO, so one greedy client can
/// fill the queue but cannot monopolise the blocks cut from it.
#[derive(Debug, Default)]
pub(crate) struct ClassQueue {
    lanes: VecDeque<ClientLane>,
    pub(crate) len: usize,
}

impl ClassQueue {
    fn push(&mut self, item: Queued) {
        self.len += 1;
        match self.lanes.iter_mut().find(|lane| lane.key == item.client) {
            Some(lane) => lane.q.push_back(item),
            None => {
                self.lanes.push_back(ClientLane { key: item.client, q: VecDeque::from([item]) })
            }
        }
    }

    /// The queue's globally oldest request (minimum arrival sequence
    /// across the lane fronts) — the cross-class arrival-order and linger
    /// anchor.
    pub(crate) fn front(&self) -> Option<&Queued> {
        self.lanes.iter().filter_map(|lane| lane.q.front()).min_by_key(|q| q.seq)
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

    /// Empty the queue, yielding every request in lane order.
    fn drain_all(&mut self) -> impl Iterator<Item = Queued> {
        self.len = 0;
        std::mem::take(&mut self.lanes).into_iter().flat_map(|lane| lane.q)
    }
}

/// Queue shared between clients, dispatcher and `Drop`.
///
/// Requests live in one [`ClassQueue`] per [`Class`], tagged with a global
/// arrival sequence number: a row block takes each next request from the
/// row class whose oldest request arrived first, round-robin across that
/// class's client lanes — O(1) per request (plus a lane scan bounded by
/// the number of distinct client keys), whatever the class mix.
#[derive(Debug, Default)]
pub(crate) struct QueueState {
    queues: [ClassQueue; 3],
    next_seq: u64,
    pub(crate) shutdown: bool,
    /// Set on an infrastructure failure (worker crew hung up, dispatcher
    /// panicked): every in-flight, pending and future request fails with
    /// this message. Model panics do *not* poison — they are isolated to
    /// the offending request.
    pub(crate) poisoned: Option<String>,
}

impl QueueState {
    pub(crate) fn queue(&self, class: Class) -> &ClassQueue {
        &self.queues[class.index()]
    }

    pub(crate) fn push(
        &mut self,
        request: Request,
        client: Option<u64>,
        ticket: Arc<TicketInner>,
        stats: &StatCells,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let class = request.class();
        let item = Queued { seq, arrived: Instant::now(), client, request, ticket };
        self.queues[class.index()].push(item);
        stats.depth(class).fetch_add(1, Relaxed);
    }

    /// How many queued requests a new `class` request would share blocks
    /// with — and so, in arrival order, wait behind: its own queue for a
    /// triple score, both row queues for a row query.
    pub(crate) fn backlog(&self, class: Class) -> usize {
        match class {
            Class::Score => self.queue(class).len,
            Class::Row(_) => Class::ROWS.iter().map(|&row| self.queue(row).len).sum(),
        }
    }

    /// Of `classes`, the one whose front request arrived first.
    pub(crate) fn oldest(&self, classes: &[Class]) -> Option<Class> {
        classes
            .iter()
            .filter_map(|&class| self.queue(class).front().map(|item| (item.seq, class)))
            .min_by_key(|(seq, _)| *seq)
            .map(|(_, class)| class)
    }

    /// Cut up to `max` *live* requests off the `classes` queues in arrival
    /// order across them — each next request from the class whose front
    /// arrived first, round-robin across that class's client lanes — and
    /// order the batch by class (tail rows before head rows), keeping the
    /// cut order within each class. Requests already past the engine's
    /// deadline are expired right here — settled with
    /// [`ServeError::Expired`], counted, latency-recorded — and never
    /// occupy a block slot, so an overloaded queue sheds its stale backlog
    /// at block-cut speed instead of wasting crew time scoring answers
    /// nobody is waiting for.
    pub(crate) fn pop_block(
        &mut self,
        classes: &[Class],
        max: usize,
        deadline: Option<Duration>,
        stats: &StatCells,
    ) -> Batch {
        let now = Instant::now();
        let mut batch =
            Batch::with_capacity(max.min(classes.iter().map(|&c| self.queue(c).len).sum()));
        let mut mixed_clients = false;
        while batch.len() < max {
            let Some(class) = self.oldest(classes) else { break };
            let item = self.queues[class.index()].pop_rr().expect("the oldest class has a front");
            stats.depth(class).fetch_sub(1, Relaxed);
            let waited = now.saturating_duration_since(item.arrived);
            if let Some(deadline) = deadline.filter(|d| waited > *d) {
                stats.queries_expired.fetch_add(1, Relaxed);
                stats.record_settle(class, item.arrived);
                item.ticket.fail(ServeError::Expired { class: class.public(), waited, deadline });
                continue;
            }
            mixed_clients |= batch.first().is_some_and(|first| first.client != item.client);
            batch.push(item);
        }
        if mixed_clients {
            stats.fair_cuts.fetch_add(1, Relaxed);
        }
        batch.sort_by_key(|item| item.request.class().index());
        batch
    }

    /// Fail every queued request with `why`, emptying the queues. Depths
    /// are decremented per request — never zeroed wholesale — so a counter
    /// leak anywhere else shows up as a non-zero final depth instead of
    /// being papered over here.
    pub(crate) fn drain_fail(&mut self, why: &str, stats: &StatCells) {
        for class in Class::ALL {
            for q in self.queues[class.index()].drain_all() {
                stats.queries_failed.fetch_add(1, Relaxed);
                stats.depth(class).fetch_sub(1, Relaxed);
                stats.record_settle(class, q.arrived);
                q.ticket.fail(ServeError::failed(why));
            }
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
