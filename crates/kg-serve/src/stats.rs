//! The scheduler's lock-free counters and the [`EngineStats`] snapshot
//! read from them.
//!
//! Owns: what each counter means and the settle-accounting identity
//! (`queries_served + queries_failed + queries_expired` = admitted requests
//! = histogram samples), pinned by `tests/admission.rs` and the
//! shutdown-race test of `tests/lifecycle.rs`; the `retry_after` pricing of
//! [`crate::SubmitError::Shed`].

use crate::admission::{bucket_index, LatencyHistogram, RequestClass, LATENCY_BUCKETS};
use kg_models::KernelPolicy;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lock-free histogram cells backing one class's [`LatencyHistogram`].
#[derive(Debug, Default)]
struct HistCells([AtomicU64; LATENCY_BUCKETS]);

impl HistCells {
    fn snapshot(&self) -> LatencyHistogram {
        LatencyHistogram { buckets: std::array::from_fn(|i| self.0[i].load(Relaxed)) }
    }
}

/// Lock-free scheduler counters (all `Relaxed` — each counter is exact,
/// but a snapshot may straddle an in-flight block).
#[derive(Debug, Default)]
pub(crate) struct StatCells {
    pub(crate) queries_served: AtomicU64,
    pub(crate) queries_failed: AtomicU64,
    pub(crate) queries_shed: AtomicU64,
    pub(crate) queries_expired: AtomicU64,
    pub(crate) fair_cuts: AtomicU64,
    blocks_cut: AtomicU64,
    block_fill: AtomicU64,
    /// Total wall-clock nanoseconds from block dispatch to block answered,
    /// summed over all row blocks — with `blocks_cut`, the mean block
    /// service time the shed path's `retry_after` hint is derived from.
    pub(crate) block_nanos: AtomicU64,
    pub(crate) blocks_overlapped: AtomicU64,
    pub(crate) lead_idle: AtomicU64,
    pub(crate) crew_idle: AtomicU64,
    /// Per-class queue depths and latency histograms, indexed by
    /// [`RequestClass::index`].
    depth: [AtomicU64; 3],
    hist: [HistCells; 3],
}

impl StatCells {
    pub(crate) fn depth(&self, class: RequestClass) -> &AtomicU64 {
        &self.depth[class.index()]
    }

    /// Record one settled request's submit→settle latency. Called at every
    /// settle site — answered, expired, failed — so each class's histogram
    /// count equals its admitted-and-settled request count.
    pub(crate) fn record_settle(&self, class: RequestClass, arrived: Instant) {
        let nanos = u64::try_from(arrived.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.hist[class.index()].0[bucket_index(nanos)].fetch_add(1, Relaxed);
    }

    /// Record a row block handed to the worker crew.
    pub(crate) fn record_block(&self, fill: usize) {
        self.blocks_cut.fetch_add(1, Relaxed);
        self.block_fill.fetch_add(fill as u64, Relaxed);
    }

    /// The shed path's backoff hint: the `backlog` a new request would sit
    /// behind ([`crate::queue::QueueState::backlog`]), priced at the recent
    /// mean block service time (100 µs before the first block answers),
    /// clamped to a sane retry window.
    pub(crate) fn retry_hint(&self, backlog: usize, block: usize) -> Duration {
        let per_block = self
            .block_nanos
            .load(Relaxed)
            .checked_div(self.blocks_cut.load(Relaxed))
            .map_or(100_000, |mean| mean.max(1));
        let backlog_blocks = (backlog / block.max(1)) as u64 + 1;
        Duration::from_nanos(
            (per_block.saturating_mul(backlog_blocks)).clamp(10_000, 1_000_000_000),
        )
    }

    /// Materialise a lock-free [`EngineStats`] snapshot from the live cells.
    pub(crate) fn snapshot(&self, policy: KernelPolicy) -> EngineStats {
        let blocks_cut = self.blocks_cut.load(Relaxed);
        let block_fill = self.block_fill.load(Relaxed);
        EngineStats {
            queries_served: self.queries_served.load(Relaxed),
            queries_failed: self.queries_failed.load(Relaxed),
            queries_shed: self.queries_shed.load(Relaxed),
            queries_expired: self.queries_expired.load(Relaxed),
            fair_cuts: self.fair_cuts.load(Relaxed),
            blocks_cut,
            mean_block_fill: if blocks_cut == 0 {
                0.0
            } else {
                block_fill as f64 / blocks_cut as f64
            },
            blocks_overlapped: self.blocks_overlapped.load(Relaxed),
            lead_idle: self.lead_idle.load(Relaxed),
            crew_idle: self.crew_idle.load(Relaxed),
            depth_score: self.depth[0].load(Relaxed),
            depth_tails: self.depth[1].load(Relaxed),
            depth_heads: self.depth[2].load(Relaxed),
            latency_score: self.hist[0].snapshot(),
            latency_tails: self.hist[1].snapshot(),
            latency_heads: self.hist[2].snapshot(),
            policy,
        }
    }
}

/// A lock-free snapshot of the scheduler's counters — see
/// [`crate::KgEngine::stats`].
///
/// Counters are monotone except the queue depths, which track the live
/// queues. Reading a snapshot never takes the queue lock, so it can be
/// polled from a metrics thread at any rate; individual counters are exact
/// but one snapshot may straddle an in-flight block (e.g. `blocks_cut`
/// already incremented, `queries_served` not yet).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStats {
    /// Requests answered successfully since the engine started.
    pub queries_served: u64,
    /// Requests failed (model panic, shutdown, poisoning, rejected push).
    /// Deadline expiries are *not* counted here — see `queries_expired`.
    pub queries_failed: u64,
    /// Submissions refused at the door because their class was at
    /// its [`crate::KgEngineBuilder::max_queued`] cap — never enqueued, no
    /// ticket created ([`crate::SubmitError::Shed`]).
    pub queries_shed: u64,
    /// Admitted requests dropped unscored because they outwaited the
    /// engine's [`crate::KgEngineBuilder::deadline`]
    /// ([`crate::ServeError::Expired`]).
    pub queries_expired: u64,
    /// Block cuts that mixed requests from two or more distinct client
    /// keys — how often the round-robin fair dequeue actually interleaved
    /// clients (always zero without client keys).
    pub fair_cuts: u64,
    /// Row blocks dispatched to the crew (triple-score batches are
    /// answered inline and not counted here).
    pub blocks_cut: u64,
    /// Mean queries per dispatched row block — how full the batching queue
    /// manages to cut blocks (the GEMM-locality measure a linger budget
    /// improves). Zero before the first block.
    pub mean_block_fill: f64,
    /// Row blocks dispatched to the crew *before* the previously scored
    /// block was answered — how often the dispatch pipeline actually
    /// overlapped scoring with settling the previous block's tickets.
    pub blocks_overlapped: u64,
    /// Times the dispatcher (the pipeline's lead) transitioned to waiting
    /// on the crew with nothing left to answer. A high rate relative to
    /// `blocks_cut` means scoring is the bottleneck — the healthy state.
    pub lead_idle: u64,
    /// Times the crew finished a block with no follow-up block dispatched,
    /// leaving it idle until more work queued. A high rate under
    /// saturating row traffic means answering (summing counts, merging
    /// top-k lists, settling tickets) or the queue lock is the bottleneck.
    pub crew_idle: u64,
    /// Triple-score requests currently queued.
    pub depth_score: u64,
    /// Tail row queries currently queued.
    pub depth_tails: u64,
    /// Head row queries currently queued.
    pub depth_heads: u64,
    /// Submit→settle latency of every settled triple-score request
    /// (answered, expired or failed).
    pub latency_score: LatencyHistogram,
    /// Submit→settle latency of every settled tail row query.
    pub latency_tails: LatencyHistogram,
    /// Submit→settle latency of every settled head row query.
    pub latency_heads: LatencyHistogram,
    /// The [`KernelPolicy`] every worker scores under, as the engine was
    /// built (see [`crate::KgEngineBuilder::policy`]).
    pub policy: KernelPolicy,
}

/// An engine-independent [`EngineStats`] reader — see
/// [`crate::KgEngine::stats_probe`].
#[derive(Clone)]
pub struct StatsProbe {
    pub(crate) cells: Arc<StatCells>,
    pub(crate) policy: KernelPolicy,
}

impl StatsProbe {
    /// The same lock-free snapshot [`crate::KgEngine::stats`] returns,
    /// valid before and after the engine is dropped.
    pub fn stats(&self) -> EngineStats {
        self.cells.snapshot(self.policy)
    }
}
