//! `kg-serve` — online link-prediction serving over the sharded scoring
//! engine, behind a latency-aware batching dispatcher.
//!
//! The offline pipeline (training, evaluation, AutoSF search) reaches the
//! batched GEMM/shard seam through bulk entry points; this crate is the
//! **request-level** surface: a [`KgEngine`] accepts single queries —
//! `score(h, r, t)`, `rank_tail` / `rank_head`, `top_k_tails` /
//! `top_k_heads` — from any number of client threads, transparently
//! accumulates them into the same 64-row blocks the offline engine uses,
//! and dispatches each block across a persistent worker crew via the one
//! model primitive, [`kg_models::BatchScorer::score_shard`]. Batching buys
//! back the GEMM and cache locality the per-query path gives up, while
//! every response stays **bit-identical** to the per-query
//! [`kg_models::LinkPredictor`] reference — whatever the batch composition,
//! arrival order, thread count or scheduler configuration.
//!
//! # Architecture
//!
//! Submissions land in two queues: triple scores, and row queries of both
//! directions. A dispatcher thread cuts blocks of up to `block` row
//! queries off the row queue and hands each to a **persistent
//! worker crew** laid out by the same [`kg_eval::engine::plan_shards`] the
//! offline parallel ranker uses: the entity table cut into even contiguous
//! shards, one per worker (row-restricted GEMM for factorising models,
//! each shard cache-resident in its worker). A serving block looks like an
//! offline ranking block — tail rows, then head rows — and every worker
//! runs the offline ranker's tile loop over its shard
//! ([`kg_eval::ranking::TileRanker`]): one pass over the shard for both
//! directions, scored one cache-sized entity tile at a time, and
//! each row answered while its tile is hot — a rank row's filtered
//! `(greater, equal)` counts, a top-k row's best `k` inside the shard. The
//! dispatcher sums each rank row's counts over the workers
//! ([`kg_eval::ranking::rank_from_counts`]) and merges each top-k row's
//! lists ([`kg_eval::ranking::merge_top_k`]); no full score row is ever
//! built. Answers travel in small reusable buffers (zero steady-state
//! allocation). Triple scores need no crew and are answered inline by the
//! dispatcher.
//!
//! # Scheduling policy
//!
//! The dispatcher is one event loop with one block in flight on the whole
//! crew, and one rule decides when it may cut the next:
//!
//! * **One row queue.** Tail and head queries wait in one queue, so a row
//!   block takes its requests in arrival order whatever their direction:
//!   neither direction starves, and a head that arrives after a tail
//!   backlog waits behind it. Arrival order decides which requests share a
//!   GEMM block but never their answers. Triple scores are answered a bounded batch per turn of
//!   the loop, before the dispatcher sleeps and between crew events, so
//!   they wait on no row block.
//! * **Linger** ([`KgEngineBuilder::linger`], default zero): an
//!   under-filled row block may wait a bounded time — anchored to its
//!   oldest request's arrival, capped by the expiry deadline — for
//!   co-batchable queries of either direction, trading microseconds of
//!   latency for full-block GEMM locality. A block that fills is cut at
//!   once.
//! * **Pipelined dispatch.** The moment block `N` has landed, the crew is
//!   handed block `N+1` (when the rule above grants one) *before* `N` is
//!   answered, so the crew scores while the dispatcher sums `N`'s counts,
//!   merges its top-k lists and settles its tickets; two blocks' answer
//!   buffers circulate.
//!
//! [`KgEngine::stats`] returns a lock-free [`EngineStats`] snapshot
//! (queries served, blocks cut, mean block fill, queue depths,
//! shed/expired/fairness counters, per-class submit→settle
//! [`LatencyHistogram`]s, plus pipeline occupancy: `blocks_overlapped`,
//! `lead_idle`, `crew_idle`) for operators and benchmarks;
//! [`KgEngine::stats_probe`] detaches a reader that outlives the engine.
//!
//! # Overload behaviour
//!
//! The engine bounds both queue memory and queueing delay instead of
//! degrading without limit:
//!
//! * **Bounded admission.** Every request class has a cap on its queued
//!   requests ([`KgEngineBuilder::max_queued`], default
//!   [`KgEngineBuilder::DEFAULT_MAX_QUEUED`]). A `submit_*` call for a
//!   class at its cap returns [`SubmitError::Shed`] on the caller's thread
//!   — nothing is enqueued, no ticket exists. The error's `retry_after` is
//!   a backoff *hint*: the engine's estimate (from the observed mean block
//!   service time and the queued requests that share its blocks — the
//!   whole row queue for a row query) of how long the backlog ahead of a
//!   new request needs to drain. Resubmitting after `retry_after` may
//!   still shed — other clients race for the freed slots — but honouring
//!   it keeps rejected clients from hot-looping on a saturated engine.
//! * **Deadline shedding.** With [`KgEngineBuilder::deadline`] set, a
//!   request that has already waited longer than the deadline when the
//!   dispatcher cuts its block is dropped *before* scoring and its ticket
//!   fails with [`ServeError::Expired`] (`wait_result` returns it;
//!   `wait()` panics). Stale backlog becomes fast typed failures, so
//!   admitted-and-answered latency stays bounded at roughly the deadline
//!   plus one block's service time even at sustained overload.
//! * **Fair dequeue.** Submissions through [`KgEngine::client`] get
//!   per-client FIFO lanes in each queue and block cuts round-robin across
//!   them, so one flooding client cannot monopolise the blocks cut from a
//!   full queue — in either direction, since tail and head queries share
//!   the row queue's lanes. Submissions made without a client handle share
//!   one lane and stay strictly FIFO.
//!
//! Every admitted request settles exactly once — answered, expired, or
//! failed — and each settle records into its class's latency histogram:
//! `queries_served + queries_failed + queries_expired` equals the number
//! of admitted requests, and the histograms' counts match. Shed requests
//! were never admitted and appear only in `queries_shed`. Admission sits
//! entirely above block cutting, so answered responses remain
//! bit-identical to the per-query reference whatever the caps, deadline
//! or fairness configuration.
//!
//! # Bit-identity
//!
//! Tile and shard blocks, and a rank row's one-entity threshold call, are
//! bit-identical column slices of the full-table per-query output — the
//! [`kg_models::BatchScorer`] contract — so every score a worker counts or
//! keeps equals what [`kg_models::LinkPredictor::score_tails`] /
//! `score_heads` would have written, byte for byte, regardless of batch
//! composition, direction mix, arrival order, thread count, block size or
//! linger budget. Rank counts are integers, so their sum over tiles and
//! workers is [`kg_eval::ranking::filtered_rank`]'s count over the whole
//! row; [`kg_eval::ranking::top_k`]'s order is total, so merging the
//! shards' lists gives its answer over the whole row. Under
//! [`kg_models::KernelPolicy::Exact`] every response is therefore
//! **bit-identical to the sequential reference**
//! (`tests/serve_equivalence.rs` pins this for every shipped model family
//! and every option).
//!
//! # Failure semantics
//!
//! Malformed requests are rejected **at submit time**, on the caller's
//! thread: entity ids are checked against the model's table, relation ids
//! against the bound the engine learns from the graph
//! ([`KgEngine::builder`]) or from the model itself
//! ([`kg_models::LinkPredictor::n_relations`]) — a bad id panics the caller
//! instead of a worker.
//!
//! A panic *inside* a model's scoring code (a model that cannot declare
//! its bounds, or a genuinely fallible override) is caught by the worker
//! and **isolated to the offending request**: the dispatcher rescores the
//! affected block one query at a time — a one-row `score_shard` over the
//! whole table under the engine's policy, the same bits the block would
//! have given — fails only the requests whose own query panics, and
//! answers the rest. Only infrastructure failures (the worker
//! crew hanging up, the dispatcher itself panicking) poison the engine,
//! failing in-flight, pending and future requests with the original cause;
//! requests never hang. Dropping the engine signals shutdown, fails
//! still-pending tickets and joins the crew.
//!
//! ```
//! use kg_core::{Dataset, Triple};
//! use kg_models::{blm::classics, BlmModel, Embeddings};
//! use kg_serve::KgEngine;
//!
//! // A (toy) trained model plus the graph whose positives filter ranking.
//! let mut rng = kg_linalg::SeededRng::new(42);
//! let model = BlmModel::new(classics::simple(), Embeddings::init(50, 3, 16, &mut rng));
//! let graph = Dataset::with_vocab("toy", 50, 3, vec![Triple::new(0, 0, 1)], vec![], vec![]);
//!
//! let engine = KgEngine::builder(model, &graph).threads(2).block(64).build();
//! let score = engine.score(0, 0, 1);
//! let rank = engine.rank_tail(0, 0, 1);
//! let best = engine.top_k_tails(0, 0, 5);
//! assert!(score.is_finite() && rank >= 1.0 && best.len() == 5);
//! assert_eq!(engine.stats().queries_served, 3);
//! ```

mod admission;
mod dispatch;
mod engine;
mod queue;
mod stats;
mod ticket;

pub use admission::{LatencyHistogram, RequestClass, ServeError, SubmitError, LATENCY_BUCKETS};
pub use engine::{ClientHandle, KgEngine, KgEngineBuilder};
pub use stats::{EngineStats, StatsProbe};
pub use ticket::{RankTicket, ScoreTicket, TopKTicket};
