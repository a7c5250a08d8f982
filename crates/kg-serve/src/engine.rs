//! The [`KgEngine`] facade: builder, submit-time validation and admission,
//! and the engine's lifetime (spawn in `build()`, shutdown and join in
//! `Drop`).
//!
//! Owns: the seven builder options and their defaults, which ids are
//! rejected on the caller's thread, and shedding at the door against the
//! per-class caps. Everything after a request is queued belongs to
//! [`crate::dispatch`]. Pinned by the doctests below, `tests/admission.rs`
//! (shedding) and `tests/lifecycle.rs` (validation, drop).

use crate::admission::{RequestClass, ServeError, SubmitError};
use crate::dispatch::{self, CutRule};
use crate::queue::{QueueState, Request};
use crate::stats::{EngineStats, StatCells, StatsProbe};
use crate::ticket::{RankTicket, ScoreTicket, TicketInner, TopKTicket};
use kg_core::{Dataset, FilterIndex};
use kg_eval::engine::{plan_shards, Direction::Heads, Direction::Tails, BLOCK};
use kg_models::{BatchScorer, KernelPolicy};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The model type the engine serves: any [`BatchScorer`] behind a shared
/// pointer, so one set of trained parameters backs every worker thread.
type SharedModel = Arc<dyn BatchScorer + Send + Sync>;

/// State shared by the engine handle, the dispatcher, the workers and
/// submitters.
pub(crate) struct Shared {
    pub(crate) model: SharedModel,
    pub(crate) filter: FilterIndex,
    pub(crate) n_entities: usize,
    /// Relation vocabulary bound when known ([`KgEngine::builder`] takes it
    /// from the graph, [`KgEngine::with_filter`] from the model's own
    /// [`kg_models::LinkPredictor::n_relations`];
    /// [`KgEngineBuilder::relations`] overrides explicitly). `None` skips
    /// submit-time relation checks — a bad relation id then panics inside
    /// the model and fails that request.
    n_relations: Option<usize>,
    /// Block size, linger budget and expiry deadline — what the
    /// dispatcher's cut rule reads.
    pub(crate) rule: CutRule,
    /// Per-class queue caps in [`RequestClass::ALL`] order — submissions
    /// of a class at its cap are shed at the door.
    max_queued: [usize; 3],
    /// Kernel policy every worker's scratch is built with — fixed for the
    /// engine's lifetime (see [`KgEngineBuilder::policy`]).
    pub(crate) policy: KernelPolicy,
    pub(crate) queue: Mutex<QueueState>,
    pub(crate) queue_cv: Condvar,
    pub(crate) stats: Arc<StatCells>,
}

/// Builder for [`KgEngine`] — see [`KgEngine::builder`].
///
/// ```
/// use kg_models::{blm::classics, BlmModel, Embeddings};
/// let mut rng = kg_linalg::SeededRng::new(2);
/// let model = BlmModel::new(classics::simple(), Embeddings::init(16, 2, 8, &mut rng));
/// let engine = kg_serve::KgEngine::with_filter(model, Default::default())
///     .threads(2)
///     .block(8)
///     .build();
/// assert_eq!(engine.n_entities(), 16);
/// ```
#[must_use = "the builder does nothing until build() is called"]
pub struct KgEngineBuilder {
    model: SharedModel,
    filter: FilterIndex,
    n_relations: Option<usize>,
    threads: usize,
    block: usize,
    linger: Duration,
    max_queued: [usize; 3],
    deadline: Option<Duration>,
    policy: KernelPolicy,
}

impl KgEngineBuilder {
    /// Default per-class queue cap: 64 full blocks of backlog per class.
    /// Deep enough that no sane closed-loop workload ever sheds, shallow
    /// enough that a runaway open-loop client bounds queue memory and
    /// queueing delay instead of growing both forever.
    pub const DEFAULT_MAX_QUEUED: usize = 4096;

    /// Size of the persistent worker crew (default 1). Each worker gets one
    /// even entity shard and scores every query of a block against it. The
    /// crew is clamped to the entity count — a worker per entity is the
    /// most the layout can use, so `threads(1_000)` over a 12-entity model
    /// builds a 12-worker crew instead of parking 988 threads on
    /// permanently empty shards.
    ///
    /// ```
    /// # use kg_models::{blm::classics, BlmModel, Embeddings};
    /// # let mut rng = kg_linalg::SeededRng::new(3);
    /// # let model = BlmModel::new(classics::simple(), Embeddings::init(10, 2, 8, &mut rng));
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default()).threads(4).build();
    /// assert_eq!(engine.threads(), 4);
    /// ```
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Maximum queries batched into one scoring block (default
    /// [`kg_eval::engine::BLOCK`] = 64, the same block size offline ranking
    /// uses). `block(1)` disables batching — every request is its own
    /// dispatch, the "one-at-a-time" baseline the microbenchmark compares
    /// against.
    ///
    /// ```
    /// # use kg_models::{blm::classics, BlmModel, Embeddings};
    /// # let mut rng = kg_linalg::SeededRng::new(4);
    /// # let model = BlmModel::new(classics::simple(), Embeddings::init(10, 2, 8, &mut rng));
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default()).block(1).build();
    /// assert_eq!(engine.block(), 1);
    /// ```
    pub fn block(mut self, queries: usize) -> Self {
        self.block = queries;
        self
    }

    /// Let a partially filled row block wait up to `budget` for
    /// co-batchable queries before it is cut (default zero: cut as soon as
    /// the crew is free, the latency-first behaviour). The window is
    /// anchored to the block's *oldest* request, so no query is ever
    /// delayed more than `budget` by lingering; a block that fills to
    /// [`KgEngineBuilder::block`] is cut immediately. Microseconds of
    /// added latency buy full-block GEMM locality on trickling traffic.
    /// The budget delays row blocks only: triple-score requests need no
    /// crew and are answered while a row block lingers.
    ///
    /// ```
    /// # use kg_models::{blm::classics, BlmModel, Embeddings};
    /// # use std::time::Duration;
    /// # let mut rng = kg_linalg::SeededRng::new(21);
    /// # let model = BlmModel::new(classics::simple(), Embeddings::init(10, 2, 8, &mut rng));
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default())
    ///     .linger(Duration::from_micros(200))
    ///     .build();
    /// assert_eq!(engine.rank_tail(0, 0, 1), engine.rank_tail(0, 0, 1)); // answers unchanged
    /// ```
    pub fn linger(mut self, budget: Duration) -> Self {
        self.linger = budget;
        self
    }

    /// Pick the [`KernelPolicy`] every worker scores under, fixed for the
    /// engine's lifetime (default: `Exact`, whose answers are bit-identical
    /// to the scalar reference). The chosen policy is recorded in
    /// [`EngineStats::policy`].
    ///
    /// ```
    /// # use kg_models::{blm::classics, BlmModel, Embeddings, KernelPolicy};
    /// # let mut rng = kg_linalg::SeededRng::new(41);
    /// # let model = BlmModel::new(classics::simple(), Embeddings::init(10, 2, 8, &mut rng));
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default())
    ///     .policy(KernelPolicy::Exact)
    ///     .build();
    /// assert_eq!(engine.stats().policy, KernelPolicy::Exact);
    /// ```
    pub fn policy(mut self, policy: KernelPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Declare the relation vocabulary size so out-of-range relation ids
    /// are rejected at submission, on the caller's thread, instead of
    /// panicking inside a worker. Rarely needed explicitly:
    /// [`KgEngine::builder`] sets this from the graph, and
    /// [`KgEngine::with_filter`] already derives it from the model's own
    /// [`kg_models::LinkPredictor::n_relations`] — this override exists for
    /// models that cannot report a bound (it is then the caller's only way
    /// to get submit-time validation).
    ///
    /// ```
    /// # use kg_models::{blm::classics, BlmModel, Embeddings};
    /// # let mut rng = kg_linalg::SeededRng::new(8);
    /// # let model = BlmModel::new(classics::simple(), Embeddings::init(10, 2, 8, &mut rng));
    /// let engine =
    ///     kg_serve::KgEngine::with_filter(model, Default::default()).relations(2).build();
    /// let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
    ///     engine.score(0, 9, 1)
    /// }));
    /// assert!(bad.is_err()); // rejected at submit — the engine stays up
    /// assert!(engine.score(0, 1, 1).is_finite());
    /// ```
    pub fn relations(mut self, n: usize) -> Self {
        self.n_relations = Some(n);
        self
    }

    /// Cap the queued requests of `class` at `n` (default
    /// [`KgEngineBuilder::DEFAULT_MAX_QUEUED`] per class; tail and head
    /// queries share one row queue, each direction under its own cap). A
    /// `submit_*` call for a class at its cap returns
    /// [`crate::SubmitError::Shed`] on the caller's thread — nothing is
    /// enqueued, so queue memory and worst-case queueing delay stay bounded
    /// however fast clients push.
    /// Use `usize::MAX` to restore the old unbounded behaviour.
    ///
    /// # Panics
    /// Panics if `n` is zero — a cap of zero would shed every request.
    ///
    /// ```
    /// # use kg_models::{blm::classics, BlmModel, Embeddings};
    /// # use kg_serve::RequestClass;
    /// # let mut rng = kg_linalg::SeededRng::new(31);
    /// # let model = BlmModel::new(classics::simple(), Embeddings::init(10, 2, 8, &mut rng));
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default())
    ///     .max_queued(RequestClass::Tails, 256)
    ///     .build();
    /// assert!(engine.submit_rank_tail(0, 0, 1).is_ok()); // far below the cap
    /// ```
    pub fn max_queued(mut self, class: RequestClass, n: usize) -> Self {
        assert!(n > 0, "a queue cap of zero would shed every {class} request");
        self.max_queued[class.index()] = n;
        self
    }

    /// Expire requests still queued after `limit` (default: no deadline).
    /// The dispatcher drops expired requests when it cuts their block —
    /// *before* any crew time is spent scoring them — failing the ticket
    /// with [`crate::ServeError::Expired`]. Under overload this converts
    /// stale backlog into fast typed failures instead of late answers:
    /// clients that have stopped waiting no longer consume the crew.
    ///
    /// ```
    /// # use kg_models::{blm::classics, BlmModel, Embeddings};
    /// # use std::time::Duration;
    /// # let mut rng = kg_linalg::SeededRng::new(32);
    /// # let model = BlmModel::new(classics::simple(), Embeddings::init(10, 2, 8, &mut rng));
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default())
    ///     .deadline(Duration::from_secs(5))
    ///     .build();
    /// // An idle engine answers far inside a generous deadline.
    /// assert!(engine.rank_tail(0, 0, 1) >= 1.0);
    /// ```
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Spawn the dispatcher and worker crew and return the ready engine.
    ///
    /// # Panics
    /// Panics if `threads` or `block` is zero.
    ///
    /// ```
    /// # use kg_models::{blm::classics, BlmModel, Embeddings};
    /// # let mut rng = kg_linalg::SeededRng::new(5);
    /// # let model = BlmModel::new(classics::distmult(), Embeddings::init(10, 2, 8, &mut rng));
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default()).build();
    /// let _ = engine.score(0, 0, 1);
    /// ```
    pub fn build(self) -> KgEngine {
        assert!(self.threads > 0, "KgEngine needs at least one worker thread");
        assert!(self.block > 0, "KgEngine needs a block size of at least one query");
        // The crew's plan is the shard plan the offline parallel ranker
        // would pick — one worker per shard, and at most one shard per
        // entity, which clamps the crew: beyond that every extra worker
        // would hold a width-0 shard and park forever doing nothing.
        let plan = plan_shards(self.model.n_entities(), self.threads);
        let shared = Arc::new(Shared {
            n_entities: self.model.n_entities(),
            model: self.model,
            filter: self.filter,
            n_relations: self.n_relations,
            rule: CutRule { block: self.block, linger: self.linger, deadline: self.deadline },
            max_queued: self.max_queued,
            policy: self.policy,
            queue: Mutex::new(QueueState::default()),
            queue_cv: Condvar::new(),
            stats: Arc::default(),
        });
        let (dispatcher, workers) = dispatch::spawn(&shared, plan);
        KgEngine { shared, dispatcher: Some(dispatcher), workers }
    }
}

/// An online link-prediction engine: request-level scoring, ranking and
/// top-k over a shared model, with single queries transparently batched
/// into GEMM blocks and sharded across a persistent worker crew by a
/// latency-aware dispatcher (see the [crate docs](crate) for the
/// scheduling policy).
///
/// Construct via [`KgEngine::builder`] (filtered ranking against a
/// [`Dataset`]'s known positives) or [`KgEngine::with_filter`] (explicit —
/// possibly empty — [`FilterIndex`]). All request methods are `&self` and
/// thread-safe: share the engine behind an [`Arc`] (or scoped-thread
/// reference) and submit from as many client threads as you like.
///
/// ```
/// use kg_core::{Dataset, Triple};
/// use kg_models::{blm::classics, BlmModel, Embeddings, KernelPolicy, LinkPredictor};
///
/// let mut rng = kg_linalg::SeededRng::new(11);
/// let model = BlmModel::new(classics::complex(), Embeddings::init(30, 2, 8, &mut rng));
/// let graph = Dataset::with_vocab("toy", 30, 2, vec![Triple::new(0, 0, 1)], vec![], vec![]);
///
/// // Under the exact kernel tier the engine answers exactly — bit for
/// // bit — what the per-query reference would.
/// let mut row = vec![0.0f32; 30];
/// model.score_tails(4, 1, &mut row);
/// let reference = kg_eval::top_k(&row, 5);
///
/// let engine = kg_serve::KgEngine::builder(model, &graph)
///     .threads(2)
///     .block(16)
///     .policy(KernelPolicy::Exact)
///     .build();
/// assert_eq!(engine.top_k_tails(4, 1, 5), reference);
/// ```
pub struct KgEngine {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl KgEngine {
    /// Start building an engine that serves `model` with filtered ranking
    /// against every known positive of `graph` (train + valid + test — the
    /// standard filtered-evaluation convention). The graph also supplies
    /// the relation vocabulary bound for submit-time validation.
    ///
    /// `model` is anything implementing [`BatchScorer`] — a concrete model,
    /// or an already-shared `Arc<dyn BatchScorer + Send + Sync>` (the
    /// pointer forwarding impls in `kg-models` keep its GEMM overrides).
    ///
    /// ```
    /// use kg_core::{Dataset, Triple};
    /// use kg_models::{blm::classics, BlmModel, Embeddings};
    /// let mut rng = kg_linalg::SeededRng::new(12);
    /// let model = BlmModel::new(classics::simple(), Embeddings::init(20, 2, 8, &mut rng));
    /// let graph = Dataset::with_vocab("toy", 20, 2, vec![Triple::new(0, 0, 1)], vec![], vec![]);
    /// let engine = kg_serve::KgEngine::builder(model, &graph).build();
    /// // (0, 0, 1) is a known positive, so it is excluded when ranking
    /// // other tails for (0, 0, ·).
    /// assert!(engine.rank_tail(0, 0, 2) >= 1.0);
    /// ```
    pub fn builder<M: BatchScorer + Send + Sync + 'static>(
        model: M,
        graph: &Dataset,
    ) -> KgEngineBuilder {
        KgEngine::with_filter(model, FilterIndex::from_dataset(graph)).relations(graph.n_relations)
    }

    /// Start building an engine with an explicit filter index (use
    /// `FilterIndex::default()` for unfiltered ranking). The relation
    /// vocabulary bound is derived from the model's own
    /// [`kg_models::LinkPredictor::n_relations`] when it reports one, so an
    /// out-of-range relation id is rejected at submit time instead of
    /// panicking a worker — [`KgEngineBuilder::relations`] overrides it.
    ///
    /// ```
    /// use kg_models::{blm::classics, BlmModel, Embeddings};
    /// let mut rng = kg_linalg::SeededRng::new(13);
    /// let model = BlmModel::new(classics::analogy(), Embeddings::init(20, 2, 8, &mut rng));
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default()).build();
    /// assert!(engine.rank_tail(0, 0, 3) >= 1.0);
    /// ```
    pub fn with_filter<M: BatchScorer + Send + Sync + 'static>(
        model: M,
        filter: FilterIndex,
    ) -> KgEngineBuilder {
        let n_relations = model.n_relations();
        KgEngineBuilder {
            model: Arc::new(model),
            filter,
            n_relations,
            threads: 1,
            block: BLOCK,
            linger: Duration::ZERO,
            max_queued: [KgEngineBuilder::DEFAULT_MAX_QUEUED; 3],
            deadline: None,
            policy: KernelPolicy::Exact,
        }
    }

    /// Number of entities the served model ranks over.
    ///
    /// ```
    /// # use kg_models::{blm::classics, BlmModel, Embeddings};
    /// # let mut rng = kg_linalg::SeededRng::new(14);
    /// # let model = BlmModel::new(classics::simple(), Embeddings::init(20, 2, 8, &mut rng));
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default()).build();
    /// assert_eq!(engine.n_entities(), 20);
    /// ```
    pub fn n_entities(&self) -> usize {
        self.shared.n_entities
    }

    /// Size of the worker crew this engine runs (after clamping to the
    /// entity count — see [`KgEngineBuilder::threads`]).
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Maximum queries per scoring block this engine was built with.
    pub fn block(&self) -> usize {
        self.shared.rule.block
    }

    /// A lock-free snapshot of the scheduler counters — see
    /// [`EngineStats`]. Never blocks submitters or the dispatcher.
    ///
    /// ```
    /// # use kg_models::{blm::classics, BlmModel, Embeddings};
    /// # let mut rng = kg_linalg::SeededRng::new(23);
    /// # let model = BlmModel::new(classics::simple(), Embeddings::init(10, 2, 8, &mut rng));
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default()).build();
    /// let _ = engine.rank_tail(0, 0, 1);
    /// let stats = engine.stats();
    /// assert_eq!(stats.queries_served, 1);
    /// assert_eq!(stats.blocks_cut, 1);
    /// assert_eq!(stats.mean_block_fill, 1.0);
    /// ```
    pub fn stats(&self) -> EngineStats {
        self.shared.stats.snapshot(self.shared.policy)
    }

    /// A detachable stats reader: the probe holds its own reference to the
    /// engine's counters, so metrics threads — and shutdown tests — can
    /// keep snapshotting after the engine itself is dropped (the final
    /// snapshot shows the drained queues: all depths zero, every admitted
    /// request settled).
    ///
    /// ```
    /// # use kg_models::{blm::classics, BlmModel, Embeddings};
    /// # let mut rng = kg_linalg::SeededRng::new(35);
    /// # let model = BlmModel::new(classics::simple(), Embeddings::init(10, 2, 8, &mut rng));
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default()).build();
    /// let probe = engine.stats_probe();
    /// let _ = engine.rank_tail(0, 0, 1);
    /// drop(engine);
    /// let last = probe.stats();
    /// assert_eq!(last.queries_served, 1);
    /// assert_eq!((last.depth_score, last.depth_tails, last.depth_heads), (0, 0, 0));
    /// ```
    pub fn stats_probe(&self) -> StatsProbe {
        StatsProbe { cells: Arc::clone(&self.shared.stats), policy: self.shared.policy }
    }

    /// Plausibility score of one triple — bit-identical to
    /// [`kg_models::LinkPredictor::score_triple`] on the served model.
    /// Blocking shorthand for [`KgEngine::submit_score`]` + wait`.
    ///
    /// ```
    /// use kg_models::{blm::classics, BlmModel, Embeddings, LinkPredictor};
    /// let mut rng = kg_linalg::SeededRng::new(15);
    /// let model = BlmModel::new(classics::distmult(), Embeddings::init(20, 2, 8, &mut rng));
    /// let reference = model.score_triple(2, 1, 9);
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default()).build();
    /// assert_eq!(engine.score(2, 1, 9), reference);
    /// ```
    pub fn score(&self, h: usize, r: usize, t: usize) -> f32 {
        self.submit_score(h, r, t).unwrap_or_else(|e| panic!("kg-serve: {e}")).wait()
    }

    /// Filtered rank of tail `t` among all completions of `(h, r, ·)` —
    /// ties count half, known positives other than `t` are excluded.
    /// Bit-identical to scoring the row with
    /// [`kg_models::LinkPredictor::score_tails`] and calling
    /// [`kg_eval::ranking::filtered_rank`] — an exact-tier guarantee
    /// (see [`KgEngineBuilder::policy`]).
    ///
    /// ```
    /// use kg_models::{blm::classics, BlmModel, Embeddings, KernelPolicy, LinkPredictor};
    /// let mut rng = kg_linalg::SeededRng::new(16);
    /// let model = BlmModel::new(classics::complex(), Embeddings::init(20, 2, 8, &mut rng));
    /// let mut row = vec![0.0f32; 20];
    /// model.score_tails(3, 0, &mut row);
    /// let reference = kg_eval::filtered_rank(&row, 8, &[]);
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default())
    ///     .policy(KernelPolicy::Exact)
    ///     .build();
    /// assert_eq!(engine.rank_tail(3, 0, 8), reference);
    /// ```
    pub fn rank_tail(&self, h: usize, r: usize, t: usize) -> f64 {
        self.submit_rank_tail(h, r, t).unwrap_or_else(|e| panic!("kg-serve: {e}")).wait()
    }

    /// Filtered rank of head `h` among all completions of `(·, r, t)` — the
    /// head-direction counterpart of [`KgEngine::rank_tail`].
    ///
    /// ```
    /// use kg_models::{blm::classics, BlmModel, Embeddings, KernelPolicy, LinkPredictor};
    /// let mut rng = kg_linalg::SeededRng::new(17);
    /// let model = BlmModel::new(classics::simple(), Embeddings::init(20, 2, 8, &mut rng));
    /// let mut row = vec![0.0f32; 20];
    /// model.score_heads(0, 9, &mut row);
    /// let reference = kg_eval::filtered_rank(&row, 4, &[]);
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default())
    ///     .policy(KernelPolicy::Exact)
    ///     .build();
    /// assert_eq!(engine.rank_head(4, 0, 9), reference);
    /// ```
    pub fn rank_head(&self, h: usize, r: usize, t: usize) -> f64 {
        self.submit_rank_head(h, r, t).unwrap_or_else(|e| panic!("kg-serve: {e}")).wait()
    }

    /// The `k` best tail completions of `(h, r, ·)` as `(entity, score)`
    /// pairs, deterministically ordered (score descending, ties by entity
    /// id ascending — [`kg_eval::ranking::top_k`] on the unfiltered row;
    /// matching the per-query row bitwise is an exact-tier guarantee, see
    /// [`KgEngineBuilder::policy`]).
    ///
    /// ```
    /// use kg_models::{blm::classics, BlmModel, Embeddings, KernelPolicy, LinkPredictor};
    /// let mut rng = kg_linalg::SeededRng::new(18);
    /// let model = BlmModel::new(classics::analogy(), Embeddings::init(20, 2, 8, &mut rng));
    /// let mut row = vec![0.0f32; 20];
    /// model.score_tails(1, 1, &mut row);
    /// let reference = kg_eval::top_k(&row, 4);
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default())
    ///     .policy(KernelPolicy::Exact)
    ///     .build();
    /// assert_eq!(engine.top_k_tails(1, 1, 4), reference);
    /// ```
    pub fn top_k_tails(&self, h: usize, r: usize, k: usize) -> Vec<(usize, f32)> {
        self.submit_top_k_tails(h, r, k).unwrap_or_else(|e| panic!("kg-serve: {e}")).wait()
    }

    /// The `k` best head completions of `(·, r, t)` — the head-direction
    /// counterpart of [`KgEngine::top_k_tails`].
    ///
    /// ```
    /// use kg_models::{blm::classics, BlmModel, Embeddings, KernelPolicy, LinkPredictor};
    /// let mut rng = kg_linalg::SeededRng::new(19);
    /// let model = BlmModel::new(classics::distmult(), Embeddings::init(20, 2, 8, &mut rng));
    /// let mut row = vec![0.0f32; 20];
    /// model.score_heads(1, 6, &mut row);
    /// let reference = kg_eval::top_k(&row, 2);
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default())
    ///     .policy(KernelPolicy::Exact)
    ///     .build();
    /// assert_eq!(engine.top_k_heads(1, 6, 2), reference);
    /// ```
    pub fn top_k_heads(&self, r: usize, t: usize, k: usize) -> Vec<(usize, f32)> {
        self.submit_top_k_heads(r, t, k).unwrap_or_else(|e| panic!("kg-serve: {e}")).wait()
    }

    /// Enqueue a triple-score request without blocking; see
    /// [`KgEngine::score`] and [`ScoreTicket`]. Sheds (instead of
    /// enqueueing) when the score queue is at its cap — see
    /// [`KgEngineBuilder::max_queued`].
    pub fn submit_score(&self, h: usize, r: usize, t: usize) -> Result<ScoreTicket, SubmitError> {
        self.submit(None, Request::Score { h, r, t }).map(|inner| ScoreTicket { inner })
    }

    /// Enqueue a tail-rank request without blocking; see
    /// [`KgEngine::rank_tail`], [`RankTicket`] and
    /// [`KgEngineBuilder::max_queued`].
    pub fn submit_rank_tail(
        &self,
        h: usize,
        r: usize,
        t: usize,
    ) -> Result<RankTicket, SubmitError> {
        self.submit(None, Request::Rank { dir: Tails, h, r, t }).map(|inner| RankTicket { inner })
    }

    /// Enqueue a head-rank request without blocking; see
    /// [`KgEngine::rank_head`], [`RankTicket`] and
    /// [`KgEngineBuilder::max_queued`].
    pub fn submit_rank_head(
        &self,
        h: usize,
        r: usize,
        t: usize,
    ) -> Result<RankTicket, SubmitError> {
        self.submit(None, Request::Rank { dir: Heads, h, r, t }).map(|inner| RankTicket { inner })
    }

    /// Enqueue a tail top-k request without blocking; see
    /// [`KgEngine::top_k_tails`], [`TopKTicket`] and
    /// [`KgEngineBuilder::max_queued`].
    pub fn submit_top_k_tails(
        &self,
        h: usize,
        r: usize,
        k: usize,
    ) -> Result<TopKTicket, SubmitError> {
        self.submit(None, Request::TopK { dir: Tails, e: h, r, k })
            .map(|inner| TopKTicket { inner })
    }

    /// Enqueue a head top-k request without blocking; see
    /// [`KgEngine::top_k_heads`], [`TopKTicket`] and
    /// [`KgEngineBuilder::max_queued`].
    pub fn submit_top_k_heads(
        &self,
        r: usize,
        t: usize,
        k: usize,
    ) -> Result<TopKTicket, SubmitError> {
        self.submit(None, Request::TopK { dir: Heads, e: t, r, k })
            .map(|inner| TopKTicket { inner })
    }

    /// A handle that tags every submission with `key`, giving this client
    /// its own FIFO lane in each queue (scores, rows of both directions):
    /// block cuts round-robin across client lanes, so one client flooding
    /// a queue cannot starve the others out of the blocks cut from it
    /// (submissions made without a handle share one anonymous lane and stay
    /// strictly FIFO). Handles are cheap (`Copy`-sized borrow), answers are
    /// bit-identical to anonymous submission, and a client's own requests
    /// always settle in their submission order.
    ///
    /// ```
    /// # use kg_models::{blm::classics, BlmModel, Embeddings};
    /// # let mut rng = kg_linalg::SeededRng::new(34);
    /// # let model = BlmModel::new(classics::simple(), Embeddings::init(10, 2, 8, &mut rng));
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default()).build();
    /// let alice = engine.client(1);
    /// let bob = engine.client(2);
    /// let a = alice.submit_rank_tail(0, 0, 1).expect("admitted");
    /// let b = bob.submit_rank_tail(0, 0, 1).expect("admitted");
    /// assert_eq!(a.wait(), b.wait()); // same query, same answer
    /// ```
    pub fn client(&self, key: u64) -> ClientHandle<'_> {
        ClientHandle { engine: self, key }
    }

    fn check_entity(&self, e: usize) {
        assert!(
            e < self.shared.n_entities,
            "entity id {e} out of range for a {}-entity model",
            self.shared.n_entities
        );
    }

    /// Reject an out-of-range relation id on the caller's thread when the
    /// vocabulary bound is known — one malformed request must not panic a
    /// worker, and clients learn about their bad input at the submit site.
    fn check_relation(&self, r: usize) {
        if let Some(n) = self.shared.n_relations {
            assert!(r < n, "relation id {r} out of range for a {n}-relation graph");
        }
    }

    /// Validate a request's ids on the caller's thread, then admit it — or
    /// shed it at the door. On a poisoned or shut-down engine the ticket
    /// is admitted and failed immediately (so `wait()` propagates the
    /// failure rather than hanging); on a class at its queue cap nothing
    /// is enqueued and the caller gets [`SubmitError::Shed`] with a backoff
    /// hint before any engine resource was committed.
    fn submit(
        &self,
        client: Option<u64>,
        request: Request,
    ) -> Result<Arc<TicketInner>, SubmitError> {
        match request {
            Request::Score { h, r, t } | Request::Rank { h, r, t, .. } => {
                self.check_entity(h);
                self.check_entity(t);
                self.check_relation(r);
            }
            Request::TopK { e, r, .. } => {
                self.check_entity(e);
                self.check_relation(r);
            }
        }
        let stats = &self.shared.stats;
        let class = request.class();
        let ticket = TicketInner::new();
        let mut q = self.shared.queue.lock().expect("serve queue lock");
        let dead = match &q.poisoned {
            Some(why) => Some(why.as_str()),
            None => q.shutdown.then_some("engine shut down with the query still pending"),
        };
        if let Some(why) = dead {
            stats.queries_failed.fetch_add(1, Relaxed);
            stats.record_settle(class, Instant::now());
            ticket.fail(ServeError::failed(why));
            return Ok(ticket);
        }
        let depth = q.queued(class);
        if depth >= self.shared.max_queued[class.index()] {
            stats.queries_shed.fetch_add(1, Relaxed);
            // The cap is per class, but a row query waits behind the whole
            // row queue, which holds both directions.
            let retry_after = stats.retry_hint(q.backlog(class), self.shared.rule.block);
            return Err(SubmitError::Shed { class, depth, retry_after });
        }
        q.push(request, client, Arc::clone(&ticket), stats);
        self.shared.queue_cv.notify_one();
        Ok(ticket)
    }
}

/// A per-client submission handle — see [`KgEngine::client`]. Each method
/// mirrors the engine's matching `submit_*`, tagging the request with this
/// handle's key so fair dequeue can round-robin across clients.
#[derive(Clone, Copy)]
pub struct ClientHandle<'a> {
    engine: &'a KgEngine,
    key: u64,
}

impl ClientHandle<'_> {
    /// Keyed [`KgEngine::submit_score`].
    pub fn submit_score(&self, h: usize, r: usize, t: usize) -> Result<ScoreTicket, SubmitError> {
        self.engine
            .submit(Some(self.key), Request::Score { h, r, t })
            .map(|inner| ScoreTicket { inner })
    }

    /// Keyed [`KgEngine::submit_rank_tail`].
    pub fn submit_rank_tail(
        &self,
        h: usize,
        r: usize,
        t: usize,
    ) -> Result<RankTicket, SubmitError> {
        self.engine
            .submit(Some(self.key), Request::Rank { dir: Tails, h, r, t })
            .map(|inner| RankTicket { inner })
    }

    /// Keyed [`KgEngine::submit_rank_head`].
    pub fn submit_rank_head(
        &self,
        h: usize,
        r: usize,
        t: usize,
    ) -> Result<RankTicket, SubmitError> {
        self.engine
            .submit(Some(self.key), Request::Rank { dir: Heads, h, r, t })
            .map(|inner| RankTicket { inner })
    }

    /// Keyed [`KgEngine::submit_top_k_tails`].
    pub fn submit_top_k_tails(
        &self,
        h: usize,
        r: usize,
        k: usize,
    ) -> Result<TopKTicket, SubmitError> {
        self.engine
            .submit(Some(self.key), Request::TopK { dir: Tails, e: h, r, k })
            .map(|inner| TopKTicket { inner })
    }

    /// Keyed [`KgEngine::submit_top_k_heads`].
    pub fn submit_top_k_heads(
        &self,
        r: usize,
        t: usize,
        k: usize,
    ) -> Result<TopKTicket, SubmitError> {
        self.engine
            .submit(Some(self.key), Request::TopK { dir: Heads, e: t, r, k })
            .map(|inner| TopKTicket { inner })
    }
}

impl Drop for KgEngine {
    /// Signal shutdown, fail still-pending requests, and join the
    /// dispatcher and every worker — never blocks on queued work and never
    /// leaks a thread, even after the engine was poisoned.
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("serve queue lock");
            q.shutdown = true;
            self.shared.queue_cv.notify_all();
        }
        if let Some(dispatcher) = self.dispatcher.take() {
            // The dispatcher fails leftover tickets and closes the job
            // channels, which in turn stops the workers.
            let _ = dispatcher.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_models::{BatchScratch, LinkPredictor};
    use std::ops::Range;
    use std::sync::atomic::AtomicUsize;

    /// A scorer the test can hold shut: every `score_shard` call counts
    /// itself in `entered`, waits while `open` is false, then takes 2 ms —
    /// so each answered block has a measurable service time.
    struct Gate {
        entered: AtomicUsize,
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl Gate {
        fn set(&self, open: bool) {
            *self.open.lock().unwrap() = open;
            self.cv.notify_all();
        }
    }

    /// Opens the gate when dropped — also while a failed assertion
    /// unwinds, so dropping the engine never waits on a held crew.
    struct Opens<'a>(&'a Gate);

    impl Drop for Opens<'_> {
        fn drop(&mut self) {
            self.0.set(true);
        }
    }

    impl LinkPredictor for Gate {
        fn n_entities(&self) -> usize {
            8
        }
        fn score_triple(&self, _: usize, _: usize, _: usize) -> f32 {
            0.0
        }
        fn score_tails(&self, _: usize, _: usize, out: &mut [f32]) {
            out.fill(0.0);
        }
        fn score_heads(&self, _: usize, _: usize, out: &mut [f32]) {
            out.fill(0.0);
        }
    }

    impl BatchScorer for Gate {
        fn score_shard(
            &self,
            _: &[(usize, usize)],
            _: &[(usize, usize)],
            _: Range<usize>,
            out: &mut [f32],
            _: &mut BatchScratch,
        ) {
            self.entered.fetch_add(1, Relaxed);
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.cv.wait(open).unwrap();
            }
            std::thread::sleep(Duration::from_millis(2));
            out.fill(0.0);
        }
    }

    /// **Regression pin (retry hint of a row query):** tail and head
    /// queries share one row queue, so a shed tail request waits behind
    /// queued heads too, and its `retry_after` must price them. It used to
    /// price the queued tails alone: the hint behind 20 queued heads
    /// equalled the hint behind none. `Shed.depth` still reports the
    /// queued tails, which is what the cap applies to.
    #[test]
    fn shed_tail_hint_prices_the_head_backlog() {
        let gate = Arc::new(Gate {
            entered: AtomicUsize::new(0),
            open: Mutex::new(true),
            cv: Condvar::new(),
        });
        let engine = KgEngine::with_filter(Arc::clone(&gate), FilterIndex::default())
            .block(1)
            .max_queued(RequestClass::Tails, 1)
            .build();
        // One answered block: the mean service time is now ≥ 2 ms.
        assert!(engine.rank_tail(0, 0, 1) >= 1.0);
        // Hold the next block in the crew, so nothing more is cut.
        let _open_on_exit = Opens(&gate);
        gate.set(false);
        let held = engine.submit_rank_tail(1, 0, 2).expect("admitted");
        while gate.entered.load(Relaxed) < 2 {
            std::thread::yield_now();
        }
        let queued = engine.submit_rank_tail(2, 0, 3).expect("admitted");
        let shed = |engine: &KgEngine| match engine.submit_rank_tail(3, 0, 4) {
            Err(SubmitError::Shed { class, depth, retry_after }) => {
                assert_eq!((class, depth), (RequestClass::Tails, 1));
                retry_after
            }
            Ok(_) => panic!("a tail queue at its cap must shed"),
        };
        let alone = shed(&engine);
        let heads: Vec<_> =
            (0..20).map(|e| engine.submit_rank_head(e % 8, 0, 5).expect("admitted")).collect();
        let behind_heads = shed(&engine);
        assert!(
            behind_heads >= alone * 5,
            "20 queued heads must price into the hint: {alone:?} alone, {behind_heads:?} behind them"
        );
        gate.set(true);
        for ticket in [held, queued].into_iter().chain(heads) {
            assert!(ticket.wait() >= 1.0);
        }
    }
}
