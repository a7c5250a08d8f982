//! Filtered link-prediction ranking (Sec. V-B), batched.
//!
//! For each test triple `(h, r, t)` the model scores `(h, r, e)` for every
//! entity `e` and we compute the rank of `t` — and symmetrically the rank
//! of `h` over `(e, r, t)` — in the **filtered** setting: candidates that
//! form a *different* known positive are excluded from the count. Ties
//! count half (the unbiased convention), so constant scorers get the random
//! expectation instead of a free rank 1.
//!
//! NaN scores follow the [`top_k`] order: a NaN target ranks below every
//! real candidate and ties with the other NaN candidates, so a diverged
//! model scores no better than a constant one.
//!
//! Triples are ranked in blocks of 32 — 64 score rows, every triple's tail
//! query, then every triple's head query — and a block is scored and
//! counted **one entity tile at a time**:
//!
//! 1. *thresholds* — each row's target score comes from a one-row,
//!    one-entity [`kg_models::BatchScorer::score_shard`] call on the
//!    target's column, bit-identical to that column of any wider call (the
//!    shard contract); a range of one tile reads the targets it holds from
//!    the tile instead;
//! 2. *tiles* — for each [`engine::TILE`]-entity slice of the table, one
//!    `score_shard` call scores all 64 rows into a `64 × TILE` tile (one
//!    GEMM for factorising models), and each row's filtered `(greater,
//!    equal)` counts are added with the branchless
//!    [`kg_linalg::vecops::count_cmp`] sweep while the tile is still in the
//!    cache.
//!
//! That loop is [`TileRanker`], and kg-serve's workers run it too, over
//! their shards: there a row may also ask for its best `k` entities, kept
//! per range while each tile is hot and merged across ranges by
//! [`merge_top_k`].
//!
//! Counts are integers, so the sum over disjoint tiles is the full row's
//! count, and the rank is the one [`filtered_rank`] computes from the whole
//! row. Metrics are accumulated in the original per-triple order (tail
//! query then head query, triple by triple), and the block kernels are
//! bit-identical per element to the per-query kernels, so [`evaluate_with`]
//! reproduces the sequential reference [`evaluate_sequential`] **bit for
//! bit** — the equivalence suite in `tests/batch_equivalence.rs` pins this
//! down for every shipped model.
//!
//! **Parallelism shards the entity table, not the triple list.** Every
//! batched evaluator runs one loop per contiguous entity shard — the whole
//! table is the one shard of the one-thread evaluators — that ranks every
//! block over its shard and keeps the rows' integer counts, and
//! [`evaluate_parallel_with`] runs its shards as one [`crew::fan_out`], one
//! thread a shard, with nothing exchanged until the end. There each row's
//! counts are summed over the shards and folded into the metrics in the
//! sequential order. Integer counts over disjoint shards are
//! order-independent, so the ranks — and therefore the metrics — are
//! **bit-identical to [`evaluate_sequential`]** for *any* shard layout and
//! thread count (`tests/shard_equivalence.rs` pins this down). Every model
//! is split the same way: a model without a shard override takes the staged
//! default `score_shard`, which is correct but costs a full-table pass per
//! call.
//!
//! **Kernel policy.** Every batched evaluator takes the
//! [`kg_models::KernelPolicy`] its workers carry into their scoring
//! scratch. `Fast` is an alias of `Exact` — the same fused kernel — so
//! every bit-identity claim above holds under either. Nothing here reads
//! the environment: the policy is whatever the caller passes.

use crate::crew;
use crate::engine;
use kg_core::{EntityId, FilterIndex, Triple};
use kg_linalg::vecops;
use kg_models::{BatchScorer, BatchScratch, KernelPolicy, LinkPredictor};
use serde::{Deserialize, Serialize};
use std::ops::Range;

pub use crate::engine::shard_bounds;

/// Triples ranked per scoring block: `2 · EVAL_BLOCK` = [`engine::BLOCK`]
/// score rows — every triple's tail query, then every triple's head query —
/// so both directions share one pass over the entity table, one 64-row
/// GEMM per tile for factorising models.
const EVAL_BLOCK: usize = engine::BLOCK / 2;

/// Aggregate ranking metrics over a triple set (head + tail queries).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankMetrics {
    /// Mean reciprocal rank.
    pub mrr: f64,
    /// Mean rank.
    pub mr: f64,
    /// Fraction with rank ≤ 1.
    pub hits1: f64,
    /// Fraction with rank ≤ 3.
    pub hits3: f64,
    /// Fraction with rank ≤ 10.
    pub hits10: f64,
    /// Number of ranked queries (2 per triple).
    pub n_queries: usize,
}

impl RankMetrics {
    /// The all-zero metrics ([`RankMetrics::accumulate`]'s starting point).
    pub fn zero() -> Self {
        RankMetrics { mrr: 0.0, mr: 0.0, hits1: 0.0, hits3: 0.0, hits10: 0.0, n_queries: 0 }
    }

    /// Fold one query's rank into the (un-normalised) partial sums. Every
    /// consumer — the offline evaluators here and callers folding
    /// `kg-serve` rank responses — must use this same fold so aggregate
    /// metrics stay bit-identical across surfaces.
    pub fn accumulate(&mut self, rank: f64) {
        self.mrr += 1.0 / rank;
        self.mr += rank;
        if rank <= 1.0 {
            self.hits1 += 1.0;
        }
        if rank <= 3.0 {
            self.hits3 += 1.0;
        }
        if rank <= 10.0 {
            self.hits10 += 1.0;
        }
        self.n_queries += 1;
    }

    /// Divide the partial sums by the query count (no-op on zero queries):
    /// the final step after the last [`RankMetrics::accumulate`].
    pub fn normalised(mut self) -> RankMetrics {
        let n = self.n_queries.max(1) as f64;
        self.mrr /= n;
        self.mr /= n;
        self.hits1 /= n;
        self.hits3 /= n;
        self.hits10 /= n;
        self
    }

    /// Render as a compact `MRR/H@1/H@10` cell.
    pub fn cell(&self) -> String {
        format!("{:.3}/{:.1}/{:.1}", self.mrr, self.hits1 * 100.0, self.hits10 * 100.0)
    }
}

/// One entity shard's (or tile's) contribution to a filtered rank:
/// branchless `(greater, equal)` counts of the shard-local score `row` (covering
/// entities `shard_start .. shard_start + row.len()`) against the target's
/// score, minus the contributions of candidates excluded by the filtered
/// protocol — the target itself and every other known positive — that fall
/// inside this shard.
///
/// The bulk sweep is [`vecops::count_cmp`]; exclusions are then subtracted,
/// which gives identical integer counts to filtering inside the sweep (the
/// completion list is duplicate-free) without a hash probe per entity.
///
/// A NaN target ranks the way [`top_k`] orders NaN: below every real score
/// (`-∞` included) and tied with the other NaN candidates. Its `greater`
/// count is the shard's non-NaN candidates and its `equal` count the
/// shard's other NaN candidates — one `count_cmp` sweep against `-∞`, where
/// every real score compares `>` or `==` and NaN neither. A real target
/// never counts a NaN candidate.
///
/// Counts are integers, so summing this function over any disjoint shard
/// partition of the entity table yields exactly the full-table counts: the
/// seam that makes sharded parallel ranking bit-identical to the
/// sequential reference.
fn shard_filtered_counts(
    row: &[f32],
    shard_start: usize,
    threshold: f32,
    target: usize,
    known_others: &[EntityId],
) -> (i64, i64) {
    let shard = shard_start..shard_start + row.len();
    let nan = threshold.is_nan();
    let (mut better, mut ties) = if nan {
        let (gt, eq) = vecops::count_cmp(row, f32::NEG_INFINITY);
        ((gt + eq) as i64, (row.len() - gt - eq) as i64)
    } else {
        let (gt, eq) = vecops::count_cmp(row, threshold);
        (gt as i64, eq as i64)
    };
    // The target's own score was counted as a tie either way.
    if shard.contains(&target) {
        ties -= 1;
    }
    for &e in known_others {
        let e = e.idx();
        if e == target || !shard.contains(&e) {
            continue;
        }
        let s = row[e - shard_start];
        let (b, t) = if nan { (!s.is_nan(), s.is_nan()) } else { (s > threshold, s == threshold) };
        better -= b as i64;
        ties -= t as i64;
    }
    (better, ties)
}

/// The filtered rank from one row's per-range `(greater, equal)` counts —
/// one entry per disjoint entity range, in any order. Their sums give
/// `rank = 1 + #better + #ties/2`, ties counting half (the unbiased
/// convention), so constant scorers get the random expectation. Counts are
/// integers, so any partition of the table gives [`filtered_rank`]'s rank:
/// the batched evaluators fold their shards' counts with this, and kg-serve
/// its workers' [`RowAnswers::counts`].
pub fn rank_from_counts(ranges: impl IntoIterator<Item = (i64, i64)>) -> f64 {
    let (better, ties) = ranges.into_iter().fold((0, 0), |sum, c| (sum.0 + c.0, sum.1 + c.1));
    1.0 + better as f64 + ties as f64 / 2.0
}

/// Rank of the target given raw scores in the filtered setting, over
/// candidates that are neither the target nor another known positive
/// (`known_others`, the filter index's completion list for this query — it
/// may include the target itself). The single-shard view of the engine's
/// `shard_filtered_counts`, `rank = 1 + #better + #ties/2` with ties
/// counting half (the unbiased convention). A NaN target score ranks below
/// every real candidate and ties with the other NaN candidates — the
/// [`top_k`] order — so a diverged model scores no better than a constant
/// one.
///
/// This is the per-query primitive of [`evaluate_sequential`] (and of
/// kg-serve's per-request rescore when it isolates a model panic); the
/// batched evaluators and kg-serve's workers sum the same per-shard counts
/// over entity tiles ([`TileRanker`]), so every surface produces
/// bit-identical ranks from identical score rows.
///
/// ```
/// let scores = [0.5, 2.0, 1.0, 0.25];
/// // target entity 2 is beaten by entity 1 only → rank 2; filtering 1 out
/// // as a known positive lifts the target to rank 1.
/// assert_eq!(kg_eval::ranking::filtered_rank(&scores, 2, &[]), 2.0);
/// assert_eq!(kg_eval::ranking::filtered_rank(&scores, 2, &[kg_core::EntityId(1)]), 1.0);
/// ```
///
/// # Panics
/// Panics — with an explicit message, before any indexing — if
/// `target >= scores.len()`; in particular an **empty score table** is
/// always rejected this way (there is no entity to rank, so no rank
/// exists), instead of surfacing as an unhelpful slice-index panic from
/// deep inside the count sweep.
pub fn filtered_rank(scores: &[f32], target: usize, known_others: &[EntityId]) -> f64 {
    assert!(
        target < scores.len(),
        "filtered_rank: target entity {target} out of range for a {}-entity score table",
        scores.len()
    );
    rank_from_counts([shard_filtered_counts(scores, 0, scores[target], target, known_others)])
}

/// The `k` best-scoring entities, deterministically ordered: score
/// descending, ties broken by entity id ascending, NaN scores ranking
/// strictly below every real score — `-∞` included — and tying only with
/// each other. Returns `(entity, score)` pairs; fewer than `k` only when
/// the table is smaller than `k`.
///
/// The order `kg-serve`'s `top_k_tails` / `top_k_heads` answer in: each
/// worker keeps its shard's best `k` in this order ([`TileRanker`]) and
/// [`merge_top_k`] merges the shards' lists, so a served answer is
/// bit-identical to this helper over a [`LinkPredictor`] score row.
///
/// ```
/// let scores = [1.0, 3.0, 3.0, f32::NAN, 2.0];
/// // 3.0 ties broken by id; NaN sorts last.
/// assert_eq!(kg_eval::ranking::top_k(&scores, 3), vec![(1, 3.0), (2, 3.0), (4, 2.0)]);
/// assert_eq!(kg_eval::ranking::top_k(&scores, 0), vec![]);
/// ```
pub fn top_k(scores: &[f32], k: usize) -> Vec<(usize, f32)> {
    let mut entries = Vec::new();
    top_k_into(scores, k, &mut entries);
    entries
}

/// The deterministic [`top_k`] order: score descending, ties broken by
/// entity id ascending. NaN sorts strictly below every real score (`-∞`
/// included) and NaNs tie only with each other, so even all-NaN tables
/// order deterministically by the id tiebreak. A total order over distinct
/// entities — the one ordering definition of every top-k surface.
fn top_k_cmp(a: &(usize, f32), b: &(usize, f32)) -> std::cmp::Ordering {
    match (a.1.is_nan(), b.1.is_nan()) {
        (false, false) => {
            b.1.partial_cmp(&a.1).expect("non-NaN scores compare").then(a.0.cmp(&b.0))
        }
        (true, true) => a.0.cmp(&b.0),
        (a_nan, _) => {
            if a_nan {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Less
            }
        }
    }
}

/// [`top_k`] into a caller-owned buffer: `entries` is cleared, used as the
/// selection scratch (it grows to `scores.len()` pairs while selecting)
/// and left holding exactly the top-`k` result, in the same deterministic
/// order as [`top_k`]. Reusing one buffer across calls makes repeated
/// selections allocation-free; kg-serve's dispatcher calls it only when it
/// rescores a block's requests one full row at a time to isolate a model
/// panic.
pub fn top_k_into(scores: &[f32], k: usize, entries: &mut Vec<(usize, f32)>) {
    entries.clear();
    keep_top_k(entries, k, 0, scores);
}

/// Merge top-`k` lists of disjoint entity ranges — each a range's best `k`
/// in [`top_k`]'s order, the lists in any order — into the whole table's
/// top `k`. The order is total over distinct entities, so the result is
/// exactly [`top_k`] over the full row: kg-serve merges its workers'
/// [`RowAnswers::top`] lists with this.
pub fn merge_top_k<'a>(
    lists: impl IntoIterator<Item = &'a [(usize, f32)]>,
    k: usize,
) -> Vec<(usize, f32)> {
    let mut merged: Vec<(usize, f32)> = lists.into_iter().flatten().copied().collect();
    merged.sort_unstable_by(top_k_cmp);
    merged.truncate(k);
    merged
}

/// Fold one tile of a top-`k` row — the scores of entities `start ..
/// start + row.len()` — into `kept`, the row's best `k` so far in
/// [`top_k`]'s order. Once `kept` is full only entries that beat its last
/// one enter, so a tile costs one comparison an entity.
fn keep_top_k(kept: &mut Vec<(usize, f32)>, k: usize, start: usize, row: &[f32]) {
    if k == 0 {
        return;
    }
    let before = kept.len();
    let bar = kept.get(k - 1).copied();
    let entries = row.iter().copied().enumerate().map(|(e, s)| (start + e, s));
    kept.extend(entries.filter(|entry| bar.is_none_or(|bar| top_k_cmp(entry, &bar).is_lt())));
    if kept.len() == before {
        return;
    }
    if kept.len() > k {
        kept.select_nth_unstable_by(k - 1, top_k_cmp);
        kept.truncate(k);
    }
    kept.sort_unstable_by(top_k_cmp);
}

/// Reject, before anything is scored, a triple whose head or tail is not a
/// row of the model's `n_entities`-entity table — the one entity check of
/// every batched evaluator, at any thread count.
fn assert_entities_in_table(triples: &[Triple], n_entities: usize) {
    assert!(
        triples.iter().all(|t| t.h.idx() < n_entities && t.t.idx() < n_entities),
        "triple references an entity outside the model's table"
    );
}

/// Score row `i` of a block's `2 · block.len()` rows — the tail query of
/// triple `i`, or for `i ≥ block.len()` the head query of triple
/// `i − block.len()`: the entity it ranks and the filter's known
/// completions of its query.
fn row_target<'f>(block: &[Triple], i: usize, filter: &'f FilterIndex) -> (usize, &'f [EntityId]) {
    match block.get(i) {
        Some(tr) => (tr.t.idx(), filter.tails(tr.h, tr.r)),
        None => {
            let tr = block[i - block.len()];
            (tr.h.idx(), filter.heads(tr.r, tr.t))
        }
    }
}

/// What one score row of a block asks of [`TileRanker::answer_rows`].
#[derive(Debug, Clone, Copy)]
pub enum RowJob<'f> {
    /// The filtered `(greater, equal)` counts of entity `target` against
    /// the row, leaving out the query's `known` completions (the filter
    /// index's list — it may include the target).
    Rank { target: usize, known: &'f [EntityId] },
    /// The row's best `k` entities, in [`top_k`]'s order.
    TopK(usize),
}

/// One entity range's answers for a block's rows, row `i` at index `i`:
/// what [`TileRanker::answer_rows`] fills and a caller folds over disjoint
/// ranges ([`rank_from_counts`], [`merge_top_k`]). Reused across blocks,
/// its buffers keep their capacity.
#[derive(Debug, Default)]
pub struct RowAnswers {
    /// Each rank row's filtered `(greater, equal)` counts over the range
    /// (`(0, 0)` for a top-k row).
    pub counts: Vec<(i64, i64)>,
    /// Each top-k row's best entities inside the range — at most `k`, in
    /// [`top_k`]'s order (empty for a rank row). May be longer than the
    /// block: entries past its last row are stale.
    pub top: Vec<Vec<(usize, f32)>>,
}

/// The one tile loop of filtered ranking: it scores a block of rows over an
/// entity range one [`engine::TILE`] at a time and answers every row while
/// its tile is in the cache (see the module docs). The offline evaluators
/// run it with every row a rank row, over each of their entity shards;
/// every kg-serve worker runs it over its shard with rank and top-k rows. Its buffers are reused, so the steady-state loop is
/// allocation-free.
pub struct TileRanker {
    scratch: BatchScratch,
    /// Each row's target score (NaN for a top-k row, which has none).
    thresholds: Vec<f32>,
    /// Row-major `rows × width` score tile, `width ≤` [`engine::TILE`].
    tile: Vec<f32>,
}

impl TileRanker {
    /// Empty buffers scoring under `policy`; the score tile grows to the
    /// largest block's `rows × TILE` once.
    pub fn new(policy: KernelPolicy) -> Self {
        TileRanker {
            scratch: BatchScratch::with_policy(policy),
            thresholds: Vec::with_capacity(engine::BLOCK),
            tile: Vec::new(),
        }
    }

    /// Answer every row of a block — its `tails` rows, then its `heads`
    /// rows, row `i` asking `job(i)` — over the entities `range`, into
    /// `out`. Each rank row's threshold is its target's score from a
    /// one-row, one-entity [`BatchScorer::score_shard`] call (tail rows,
    /// then head rows), so the target need not lie in `range` — unless
    /// `range` is one tile that holds the target: that tile is scored
    /// before it is counted, and the threshold is read from it. Then one
    /// `score_shard` call per tile carries every row; while the tile is hot
    /// each rank row adds its counts and each top-k row folds the tile into
    /// its range-local list. A tile column, a one-entity call and a
    /// full-table column are the same bits (the shard contract, and `Fast`
    /// layout invariance), counts over disjoint ranges sum to the whole
    /// table's, and range-local lists merge into its top `k`. An empty
    /// `range` answers zero counts and empty lists without a scorer call.
    pub fn answer_rows<'f, M: BatchScorer + ?Sized>(
        &mut self,
        model: &M,
        tails: &[(usize, usize)],
        heads: &[(usize, usize)],
        job: impl Fn(usize) -> RowJob<'f>,
        range: Range<usize>,
        out: &mut RowAnswers,
    ) {
        let rows = tails.len() + heads.len();
        out.counts.clear();
        out.counts.resize(rows, (0, 0));
        if out.top.len() < rows {
            out.top.resize_with(rows, Vec::new);
        }
        out.top[..rows].iter_mut().for_each(Vec::clear);
        if range.is_empty() {
            return;
        }
        // A range of one tile is scored whole before anything is counted,
        // so a target inside it reads its threshold from the tile.
        let in_tile = |target: usize| range.len() <= engine::TILE && range.contains(&target);
        self.thresholds.clear();
        for i in 0..rows {
            let threshold = match job(i) {
                RowJob::Rank { target, .. } if !in_tile(target) => {
                    let (t, h) = match i.checked_sub(tails.len()) {
                        None => (&tails[i..=i], &[][..]),
                        Some(j) => (&[][..], &heads[j..=j]),
                    };
                    let mut score = [0.0f32];
                    model.score_shard(t, h, target..target + 1, &mut score, &mut self.scratch);
                    score[0]
                }
                _ => f32::NAN,
            };
            self.thresholds.push(threshold);
        }
        for start in range.clone().step_by(engine::TILE) {
            let tile = start..(start + engine::TILE).min(range.end);
            let width = tile.len();
            if self.tile.len() < rows * width {
                self.tile.resize(rows * width, 0.0);
            }
            let scores = &mut self.tile[..rows * width];
            model.score_shard(tails, heads, tile, scores, &mut self.scratch);
            for (i, row) in scores.chunks_exact(width).enumerate() {
                match job(i) {
                    RowJob::Rank { target, known } => {
                        let threshold =
                            if in_tile(target) { row[target - start] } else { self.thresholds[i] };
                        let (better, ties) =
                            shard_filtered_counts(row, start, threshold, target, known);
                        out.counts[i].0 += better;
                        out.counts[i].1 += ties;
                    }
                    RowJob::TopK(k) => keep_top_k(&mut out.top[i], k, start, row),
                }
            }
        }
    }
}

/// One entity shard's share of a batched evaluation: the filtered
/// `(greater, equal)` counts of every score row of `triples` over the
/// entities `shard`, block by block — each block's tail rows (one `(h, r)`
/// query a triple), then its head rows (one `(r, t)` query a triple), every
/// row a rank row of [`TileRanker::answer_rows`] — `2 · triples.len()`
/// entries. The one loop of every batched evaluator; its buffers are
/// reused across blocks, and it rejects a triple whose head or tail lies
/// outside the model's table before anything is scored.
fn shard_counts<M: BatchScorer + ?Sized>(
    policy: KernelPolicy,
    model: &M,
    triples: &[Triple],
    filter: &FilterIndex,
    shard: Range<usize>,
) -> Vec<(i64, i64)> {
    assert_entities_in_table(triples, model.n_entities());
    let mut tiles = TileRanker::new(policy);
    let (mut tails, mut heads) = (Vec::with_capacity(EVAL_BLOCK), Vec::with_capacity(EVAL_BLOCK));
    let mut answers = RowAnswers::default();
    let mut counts = Vec::with_capacity(2 * triples.len());
    for block in triples.chunks(EVAL_BLOCK) {
        tails.clear();
        tails.extend(block.iter().map(|tr| (tr.h.idx(), tr.r.idx())));
        heads.clear();
        heads.extend(block.iter().map(|tr| (tr.r.idx(), tr.t.idx())));
        let job = |i| {
            let (target, known) = row_target(block, i, filter);
            RowJob::Rank { target, known }
        };
        tiles.answer_rows(model, &tails, &heads, job, shard.clone(), &mut answers);
        counts.extend_from_slice(&answers.counts);
    }
    counts
}

/// Rank `triples` from the [`shard_counts`] of shards partitioning the
/// table — each row's counts summed over the shards by
/// [`rank_from_counts`] — and feed every rank to `sink` in the sequential
/// reference's order: triple by triple, its tail rank, then its head rank.
fn fold_shards(triples: &[Triple], shards: &[Vec<(i64, i64)>], mut sink: impl FnMut(&Triple, f64)) {
    let rank = |row: usize| rank_from_counts(shards.iter().map(|counts| counts[row]));
    for (b, block) in triples.chunks(EVAL_BLOCK).enumerate() {
        let first = b * engine::BLOCK;
        for (i, tr) in block.iter().enumerate() {
            sink(tr, rank(first + i));
            sink(tr, rank(first + block.len() + i));
        }
    }
}

/// The metrics of `triples` from its shards' counts ([`fold_shards`]).
fn shard_metrics(triples: &[Triple], shards: &[Vec<(i64, i64)>]) -> RankMetrics {
    let mut metrics = RankMetrics::zero();
    fold_shards(triples, shards, |_, rank| metrics.accumulate(rank));
    metrics.normalised()
}

/// Evaluate over `triples` with the batched scoring engine (single
/// thread, the whole table one shard): it reproduces
/// [`evaluate_sequential`] bit for bit under either policy (see the module
/// docs).
///
/// # Panics
/// Panics up front if any triple references an entity `≥ n_entities`.
pub fn evaluate_with(
    policy: KernelPolicy,
    model: &dyn BatchScorer,
    triples: &[Triple],
    filter: &FilterIndex,
) -> RankMetrics {
    let counts = shard_counts(policy, model, triples, filter, 0..model.n_entities());
    shard_metrics(triples, &[counts])
}

/// Per-query reference implementation: scores one query at a time through
/// the [`LinkPredictor`] adapter. Kept as the semantic baseline the batched
/// path must reproduce bit for bit (see `tests/batch_equivalence.rs`), and
/// as the microbenchmark's "before" side.
pub fn evaluate_sequential(
    model: &dyn LinkPredictor,
    triples: &[Triple],
    filter: &FilterIndex,
) -> RankMetrics {
    let mut metrics = RankMetrics::zero();
    let mut scores = vec![0.0f32; model.n_entities()];
    for tr in triples {
        let (h, r, t) = (tr.h, tr.r, tr.t);
        model.score_tails(h.idx(), r.idx(), &mut scores);
        let rank = filtered_rank(&scores, t.idx(), filter.tails(h, r));
        metrics.accumulate(rank);
        model.score_heads(r.idx(), t.idx(), &mut scores);
        let rank = filtered_rank(&scores, h.idx(), filter.heads(r, t));
        metrics.accumulate(rank);
    }
    metrics.normalised()
}

/// Evaluate with a per-relation breakdown (used by case-study analysis à la
/// Sec. V-B2: which relation patterns a scoring function handles well).
/// Returns normalised metrics per relation id; relations with no test
/// triples get zeroed metrics.
///
/// # Panics
/// Panics up front if any triple's relation id is `≥ n_relations`, or if
/// any triple references an entity `≥ n_entities`.
pub fn evaluate_per_relation_with(
    policy: KernelPolicy,
    model: &dyn BatchScorer,
    triples: &[Triple],
    filter: &FilterIndex,
    n_relations: usize,
) -> Vec<RankMetrics> {
    assert!(
        triples.iter().all(|t| t.r.idx() < n_relations),
        "triple references a relation outside `n_relations`"
    );
    let counts = shard_counts(policy, model, triples, filter, 0..model.n_entities());
    let mut per: Vec<RankMetrics> = vec![RankMetrics::zero(); n_relations];
    fold_shards(triples, &[counts], |tr, rank| per[tr.r.idx()].accumulate(rank));
    per.into_iter().map(|m| if m.n_queries > 0 { m.normalised() } else { m }).collect()
}

/// Evaluate on `n_threads` threads: the entity table split into (at most
/// `n_entities`) even contiguous shards, one thread a shard
/// ([`engine::plan_shards`], shared with `kg-serve`) — see
/// [`evaluate_parallel_sharded_with`]. Every shard is scored under the same
/// `policy`. Counts are integers, so thread count and shard layout never
/// change the metrics, which under `Exact` equal [`evaluate_sequential`]'s
/// exactly.
pub fn evaluate_parallel_with<M: BatchScorer + Sync>(
    policy: KernelPolicy,
    model: &M,
    triples: &[Triple],
    filter: &FilterIndex,
    n_threads: usize,
) -> RankMetrics {
    assert!(n_threads > 0, "need at least one thread");
    rank_shards(policy, model, triples, filter, &engine::plan_shards(model.n_entities(), n_threads))
}

/// Evaluate with one thread per entity shard, shards given by the explicit
/// cut points `bounds` (`bounds[w]..bounds[w+1]` is shard `w`):
/// non-decreasing, starting at 0, ending at `n_entities`. Zero-width shards
/// are legal — they score nothing and contribute identity counts. Every
/// shard is scored under the same `policy`.
///
/// Each thread ranks every block over its own shard — the block's target
/// scores from one-entity calls, its shard one [`engine::TILE`] at a time,
/// each tile's filtered `(greater, equal)` counts taken while it is
/// cache-hot: the tiled count the one-thread evaluators run over the whole
/// table — and keeps its rows' counts. No thread waits for another until
/// all are joined; then each row's counts are summed over the shards into
/// its rank, and the ranks are folded into the metrics in the sequential
/// order (tail then head, triple by triple). A panicking shard is re-raised
/// with its own payload once the other shards have finished their blocks.
///
/// **Bit-identity (`Exact`).** A shard's score elements are bit-identical to the
/// corresponding columns of the full-table path (the [`BatchScorer`] shard
/// contract), and per-shard counts are integers, so their sum is
/// order-independent and every rank equals the sequential reference's rank
/// exactly. The result is bit-identical to [`evaluate_sequential`] for any
/// `bounds`.
///
/// # Panics
/// Panics if `bounds` is not a partition of `0..n_entities` as described,
/// or, up front, if any triple references an entity `≥ n_entities`.
pub fn evaluate_parallel_sharded_with<M: BatchScorer + Sync>(
    policy: KernelPolicy,
    model: &M,
    triples: &[Triple],
    filter: &FilterIndex,
    bounds: &[usize],
) -> RankMetrics {
    let n = model.n_entities();
    assert!(bounds.len() >= 2, "need at least one shard");
    assert_eq!(bounds[0], 0, "shard bounds must start at entity 0");
    assert_eq!(*bounds.last().unwrap(), n, "shard bounds must end at n_entities");
    assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "shard bounds must be non-decreasing");
    let shards: Vec<Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
    rank_shards(policy, model, triples, filter, &shards)
}

/// What both parallel evaluators run: [`shard_counts`] for every entity
/// shard in `shards` (a partition of the table), one [`crew::fan_out`]
/// item and thread a shard, then [`shard_metrics`].
fn rank_shards<M: BatchScorer + Sync>(
    policy: KernelPolicy,
    model: &M,
    triples: &[Triple],
    filter: &FilterIndex,
    shards: &[Range<usize>],
) -> RankMetrics {
    let counts = crew::fan_out(shards.len(), shards.len(), |s| {
        shard_counts(policy, model, triples, filter, shards[s].clone())
    });
    shard_metrics(triples, &counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An oracle that scores entity `t` highest for every `(h, r)` query by
    /// looking up a fixed mapping.
    struct Oracle {
        n: usize,
        target: usize,
    }

    impl LinkPredictor for Oracle {
        fn n_entities(&self) -> usize {
            self.n
        }
        fn score_triple(&self, _h: usize, _r: usize, t: usize) -> f32 {
            if t == self.target {
                1.0
            } else {
                0.0
            }
        }
        fn score_tails(&self, _h: usize, _r: usize, out: &mut [f32]) {
            for (e, o) in out.iter_mut().enumerate() {
                *o = if e == self.target { 1.0 } else { 0.0 };
            }
        }
        fn score_heads(&self, _r: usize, _t: usize, out: &mut [f32]) {
            for (e, o) in out.iter_mut().enumerate() {
                *o = if e == self.target { 1.0 } else { 0.0 };
            }
        }
    }

    impl kg_models::BatchScorer for Oracle {}

    #[test]
    fn perfect_tail_prediction_gets_rank_one() {
        let m = Oracle { n: 10, target: 3 };
        let triples = vec![Triple::new(0, 0, 3)];
        let filter = FilterIndex::build(&triples);
        let r = evaluate_with(KernelPolicy::Exact, &m, &triples, &filter);
        // tail query: rank 1. head query: the true head 0 scores 0, entity 3
        // scores 1 (1 better), the other 8 tie at 0 → rank = 1 + 1 + 8/2 = 6
        assert_eq!(r.n_queries, 2);
        assert!((r.mrr - (1.0 + 1.0 / 6.0) / 2.0).abs() < 1e-9, "mrr {}", r.mrr);
    }

    #[test]
    fn filtering_excludes_other_positives() {
        // entity 1 scores higher than true target 3, but (0,0,1) is a known
        // positive → filtered out → rank stays 1.
        struct TwoPeaks;
        impl LinkPredictor for TwoPeaks {
            fn n_entities(&self) -> usize {
                5
            }
            fn score_triple(&self, _: usize, _: usize, t: usize) -> f32 {
                [0.0, 2.0, 0.0, 1.0, 0.0][t]
            }
            fn score_tails(&self, _: usize, _: usize, out: &mut [f32]) {
                out.copy_from_slice(&[0.0, 2.0, 0.0, 1.0, 0.0]);
            }
            fn score_heads(&self, _: usize, _: usize, out: &mut [f32]) {
                out.copy_from_slice(&[0.0, 2.0, 0.0, 1.0, 0.0]);
            }
        }
        impl kg_models::BatchScorer for TwoPeaks {}
        let known = vec![Triple::new(0, 0, 1), Triple::new(0, 0, 3)];
        let filter = FilterIndex::build(&known);
        let r = evaluate_with(KernelPolicy::Exact, &TwoPeaks, &[Triple::new(0, 0, 3)], &filter);
        // tail rank of 3: entity 1 filtered → rank 1
        // head rank of 0: head filtering only removes (e,0,3) positives, so
        // entities 1 (score 2) and 3 (score 1) rank above, {2,4} tie at 0
        // → rank = 1 + 2 + 2/2 = 4
        let expect = (1.0 + 1.0 / 4.0) / 2.0;
        assert!((r.mrr - expect).abs() < 1e-9, "mrr {} expect {expect}", r.mrr);
    }

    #[test]
    fn constant_scorer_gets_random_expectation() {
        struct Flat;
        impl LinkPredictor for Flat {
            fn n_entities(&self) -> usize {
                11
            }
            fn score_triple(&self, _: usize, _: usize, _: usize) -> f32 {
                0.5
            }
            fn score_tails(&self, _: usize, _: usize, out: &mut [f32]) {
                out.fill(0.5);
            }
            fn score_heads(&self, _: usize, _: usize, out: &mut [f32]) {
                out.fill(0.5);
            }
        }
        impl kg_models::BatchScorer for Flat {}
        let triples = vec![Triple::new(0, 0, 1)];
        let filter = FilterIndex::build(&triples);
        let r = evaluate_with(KernelPolicy::Exact, &Flat, &triples, &filter);
        // 10 non-target candidates all tied → rank = 1 + 5 = 6 (the mean
        // rank of a uniformly random ordering over 11 entities)
        assert!((r.mr - 6.0).abs() < 1e-9, "mr {}", r.mr);
    }

    #[test]
    fn parallel_matches_sequential() {
        let m = Oracle { n: 20, target: 7 };
        let triples: Vec<Triple> = (0..12).map(|i| Triple::new(i, 0, 7)).collect();
        let filter = FilterIndex::build(&triples);
        let seq = evaluate_with(KernelPolicy::Exact, &m, &triples, &filter);
        for threads in [1, 2, 3, 7] {
            let par = evaluate_parallel_with(KernelPolicy::Exact, &m, &triples, &filter, threads);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_entities_is_capped_and_exact() {
        // 8 requested workers over a 5-entity table: the even split must cap
        // at 5 single-entity shards and stay bit-identical.
        let m = Oracle { n: 5, target: 2 };
        let triples: Vec<Triple> = (0..9).map(|i| Triple::new(i % 5, 0, 2)).collect();
        let filter = FilterIndex::build(&triples);
        let seq = evaluate_sequential(&m, &triples, &filter);
        for threads in [6, 8, 64] {
            assert_eq!(
                evaluate_parallel_with(KernelPolicy::Exact, &m, &triples, &filter, threads),
                seq,
                "t={threads}"
            );
        }
    }

    #[test]
    fn zero_width_shards_contribute_identity_counts() {
        let m = Oracle { n: 10, target: 3 };
        let triples: Vec<Triple> = (0..7).map(|i| Triple::new(i, 0, 3)).collect();
        let filter = FilterIndex::build(&triples);
        let seq = evaluate_sequential(&m, &triples, &filter);
        // width-0 shards at the front, middle and back of the table
        for bounds in
            [vec![0, 0, 10], vec![0, 4, 4, 4, 10], vec![0, 10, 10], vec![0, 0, 0, 10, 10, 10]]
        {
            assert_eq!(
                evaluate_parallel_sharded_with(KernelPolicy::Exact, &m, &triples, &filter, &bounds),
                seq,
                "bounds {bounds:?}"
            );
        }
    }

    #[test]
    fn ragged_final_shard_is_exact() {
        // 10 entities over 3 workers: even bounds [0, 3, 6, 10] leave a
        // wider final shard; a hand-rolled [0, 7, 9, 10] leaves a 1-wide one.
        let m = Oracle { n: 10, target: 6 };
        let triples: Vec<Triple> = (0..5).map(|i| Triple::new(i, 0, 6)).collect();
        let filter = FilterIndex::build(&triples);
        let seq = evaluate_sequential(&m, &triples, &filter);
        assert_eq!(shard_bounds(10, 3), vec![0, 3, 6, 10]);
        assert_eq!(evaluate_parallel_with(KernelPolicy::Exact, &m, &triples, &filter, 3), seq);
        assert_eq!(
            evaluate_parallel_sharded_with(
                KernelPolicy::Exact,
                &m,
                &triples,
                &filter,
                &[0, 7, 9, 10]
            ),
            seq
        );
    }

    #[test]
    fn top_k_orders_by_score_then_id() {
        let scores = [0.5, 2.0, 0.5, 3.0, 2.0];
        assert_eq!(top_k(&scores, 3), vec![(3, 3.0), (1, 2.0), (4, 2.0)]);
        // k beyond the table returns the whole ordering.
        assert_eq!(top_k(&scores, 99), vec![(3, 3.0), (1, 2.0), (4, 2.0), (0, 0.5), (2, 0.5)]);
        assert_eq!(top_k(&scores, 0), vec![]);
        assert_eq!(top_k(&[], 4), vec![]);
    }

    #[test]
    fn top_k_all_ties_falls_back_to_entity_ids() {
        // The constant-scorer case: ordering must be exactly id-ascending,
        // whatever k is — the determinism the serving API contracts on.
        let scores = [0.25f32; 9];
        for k in [1usize, 4, 9] {
            let got = top_k(&scores, k);
            assert_eq!(got.len(), k);
            assert!(got.iter().enumerate().all(|(i, &(e, s))| e == i && s == 0.25), "{got:?}");
        }
    }

    #[test]
    fn filtered_rank_rejects_empty_table_with_explicit_message() {
        // An empty score table must fail the documented early bound check,
        // not an anonymous `scores[target]` index panic.
        let err = std::panic::catch_unwind(|| filtered_rank(&[], 0, &[]))
            .expect_err("empty table must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("target entity 0 out of range for a 0-entity score table"),
            "unexpected panic message: {msg}"
        );
    }

    #[test]
    #[should_panic(expected = "target entity 7 out of range for a 3-entity score table")]
    fn filtered_rank_rejects_out_of_range_target() {
        filtered_rank(&[1.0, 2.0, 3.0], 7, &[]);
    }

    /// Rank `[(0, 0, 1), triple]` with a 10-entity ComplEx model on
    /// `threads` workers.
    fn rank_with_entity(triple: Triple, threads: usize) {
        use kg_models::{blm::classics, BlmModel, Embeddings};
        let model = BlmModel::new(
            classics::complex(),
            Embeddings::init(10, 2, 8, &mut kg_linalg::SeededRng::new(3)),
        );
        let triples = [Triple::new(0, 0, 1), triple];
        let filter = FilterIndex::build(&triples);
        evaluate_parallel_with(KernelPolicy::Exact, &model, &triples, &filter, threads);
    }

    #[test]
    #[should_panic(expected = "triple references an entity outside the model's table")]
    fn out_of_range_head_is_rejected_on_one_thread() {
        rank_with_entity(Triple::new(10, 1, 4), 1);
    }

    #[test]
    #[should_panic(expected = "triple references an entity outside the model's table")]
    fn out_of_range_tail_is_rejected_on_one_thread() {
        rank_with_entity(Triple::new(4, 1, 10), 1);
    }

    #[test]
    #[should_panic(expected = "triple references an entity outside the model's table")]
    fn out_of_range_head_is_rejected_on_three_threads() {
        rank_with_entity(Triple::new(10, 1, 4), 3);
    }

    #[test]
    #[should_panic(expected = "triple references an entity outside the model's table")]
    fn out_of_range_tail_is_rejected_on_three_threads() {
        rank_with_entity(Triple::new(4, 1, 10), 3);
    }

    #[test]
    fn nan_target_ranks_below_every_real_score_and_ties_with_nans() {
        let nan = f32::NAN;
        assert_eq!(filtered_rank(&[nan, 1.0, 2.0], 0, &[]), 3.0);
        assert_eq!(filtered_rank(&[nan, nan, 1.0], 0, &[]), 2.5);
        assert_eq!(filtered_rank(&[nan, f32::NEG_INFINITY], 0, &[]), 2.0);
        // Known positives leave the count whether they are NaN or real:
        // entity 1 (NaN) and entity 2 (real) go, entity 3 (NaN) stays tied.
        let known = [EntityId(1), EntityId(2), EntityId(0)];
        assert_eq!(filtered_rank(&[nan, nan, 1.0, nan], 0, &known), 1.5);
        // A real target never counts a NaN candidate.
        assert_eq!(filtered_rank(&[1.0, nan, 2.0, nan], 0, &[]), 2.0);
        // Per-shard counts still sum to the full-table counts.
        let row = [nan, 3.0, nan, nan, -1.0, nan, 0.5];
        let full = shard_filtered_counts(&row, 0, nan, 3, &known);
        let (a, b) = (
            shard_filtered_counts(&row[..3], 0, nan, 3, &known),
            shard_filtered_counts(&row[3..], 3, nan, 3, &known),
        );
        assert_eq!(full, (a.0 + b.0, a.1 + b.1));
        assert_eq!(full, (2, 1));
    }

    #[test]
    fn all_nan_model_ranks_like_a_constant_scorer() {
        use kg_models::{blm::classics, BlmModel, Embeddings};
        let mut model = BlmModel::new(
            classics::complex(),
            Embeddings::init(11, 2, 8, &mut kg_linalg::SeededRng::new(5)),
        );
        model.emb.ent.as_mut_slice().fill(f32::NAN);
        struct Flat;
        impl LinkPredictor for Flat {
            fn n_entities(&self) -> usize {
                11
            }
            fn score_triple(&self, _: usize, _: usize, _: usize) -> f32 {
                0.5
            }
            fn score_tails(&self, _: usize, _: usize, out: &mut [f32]) {
                out.fill(0.5);
            }
            fn score_heads(&self, _: usize, _: usize, out: &mut [f32]) {
                out.fill(0.5);
            }
        }
        impl kg_models::BatchScorer for Flat {}
        let triples: Vec<Triple> =
            (0..40).map(|i| Triple::new(i % 11, i % 2, i * 3 % 11)).collect();
        let filter = FilterIndex::build(&triples);
        let constant = evaluate_with(KernelPolicy::Exact, &Flat, &triples, &filter);
        assert!(constant.mrr < 0.5, "constant scorer MRR {}", constant.mrr);
        assert_eq!(evaluate_with(KernelPolicy::Exact, &model, &triples, &filter), constant);
        assert_eq!(evaluate_sequential(&model, &triples, &filter), constant);
        assert_eq!(
            evaluate_parallel_sharded_with(
                KernelPolicy::Exact,
                &model,
                &triples,
                &filter,
                &[0, 4, 4, 11]
            ),
            constant
        );
    }

    #[test]
    fn top_k_into_reuses_buffer_and_matches_allocating_wrapper() {
        let scores = [0.5f32, 2.0, 0.5, 3.0, 2.0];
        let mut buf: Vec<(usize, f32)> = Vec::new();
        for k in [0usize, 1, 3, 5, 99] {
            top_k_into(&scores, k, &mut buf);
            assert_eq!(buf, top_k(&scores, k), "k={k}");
        }
        // Stale contents from a previous (larger) result never leak.
        top_k_into(&scores, 4, &mut buf);
        top_k_into(&scores, 1, &mut buf);
        assert_eq!(buf, vec![(3, 3.0)]);
        top_k_into(&[], 7, &mut buf);
        assert!(buf.is_empty());
        // The scratch grows once and is then reused, never reallocated.
        top_k_into(&scores, 2, &mut buf);
        let cap = buf.capacity();
        for _ in 0..3 {
            top_k_into(&scores, 2, &mut buf);
            assert_eq!(buf.capacity(), cap, "steady-state calls must not reallocate");
        }
    }

    #[test]
    fn top_k_on_empty_table_is_empty_for_any_k() {
        // The graceful counterpart: top-k over no entities is no entities,
        // never a panic — pinned so the serving facade can rely on it.
        for k in [0usize, 1, 64] {
            assert_eq!(top_k(&[], k), vec![]);
        }
    }

    #[test]
    fn top_k_sorts_nan_last() {
        let scores = [f32::NAN, 1.0, f32::NAN, -7.0];
        assert_eq!(top_k(&scores, 2), vec![(1, 1.0), (3, -7.0)]);
        // NaNs tie with each other below every real score, ids break the tie.
        let got = top_k(&scores, 4);
        assert_eq!(got[2].0, 0);
        assert_eq!(got[3].0, 2);
        // …strictly below: a real -∞ still beats a NaN.
        assert_eq!(top_k(&[f32::NAN, f32::NEG_INFINITY], 1), vec![(1, f32::NEG_INFINITY)]);
    }

    /// A model that panics when scoring a specific head entity — stands in
    /// for any fallible scorer override.
    struct Grenade {
        n: usize,
        trip_on: usize,
    }

    impl LinkPredictor for Grenade {
        fn n_entities(&self) -> usize {
            self.n
        }
        fn score_triple(&self, _: usize, _: usize, _: usize) -> f32 {
            0.0
        }
        fn score_tails(&self, h: usize, _: usize, out: &mut [f32]) {
            assert!(h != self.trip_on, "grenade tripped");
            out.fill(0.0);
        }
        fn score_heads(&self, _: usize, _: usize, out: &mut [f32]) {
            out.fill(0.0);
        }
    }

    impl kg_models::BatchScorer for Grenade {}

    /// A shard override that panics only when its shard holds entity
    /// `trip_on`, so exactly one worker of an entity-shard crew trips.
    struct ShardGrenade {
        n: usize,
        trip_on: usize,
    }

    impl LinkPredictor for ShardGrenade {
        fn n_entities(&self) -> usize {
            self.n
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

    impl kg_models::BatchScorer for ShardGrenade {
        fn score_shard(
            &self,
            _: &[(usize, usize)],
            _: &[(usize, usize)],
            shard: Range<usize>,
            out: &mut [f32],
            _: &mut BatchScratch,
        ) {
            assert!(!shard.contains(&self.trip_on), "grenade tripped");
            out.fill(0.0);
        }
    }

    #[test]
    #[should_panic(expected = "grenade tripped")]
    fn single_worker_panic_propagates_instead_of_deadlocking() {
        let m = ShardGrenade { n: 10, trip_on: 5 };
        let triples: Vec<Triple> = (0..8).map(|i| Triple::new(i, 0, 3)).collect();
        let filter = FilterIndex::build(&triples);
        // Four workers hold 0..2, 2..5, 5..7 and 7..10: only the third one
        // panics, and its panic must come back from the join — no hang.
        assert_eq!(engine::plan_shards(10, 4)[2], 5..7);
        evaluate_parallel_with(KernelPolicy::Exact, &m, &triples, &filter, 4);
    }

    #[test]
    #[should_panic(expected = "grenade tripped")]
    fn every_worker_panicking_propagates_instead_of_deadlocking() {
        let m = Grenade { n: 10, trip_on: 2 };
        let triples: Vec<Triple> = (0..8).map(|i| Triple::new(i, 0, 3)).collect();
        let filter = FilterIndex::build(&triples);
        // The default shard path funnels into score_tails, so every worker
        // trips at the same step — still no deadlock.
        evaluate_parallel_sharded_with(KernelPolicy::Exact, &m, &triples, &filter, &[0, 4, 7, 10]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_shard_bounds_are_rejected() {
        let m = Oracle { n: 10, target: 3 };
        let triples = vec![Triple::new(0, 0, 3)];
        let filter = FilterIndex::build(&triples);
        evaluate_parallel_sharded_with(KernelPolicy::Exact, &m, &triples, &filter, &[0, 6, 4, 10]);
    }

    #[test]
    fn batched_evaluate_is_bit_identical_to_reference_across_blocks() {
        // Enough triples to span several EVAL_BLOCK boundaries, incl. a
        // ragged final block.
        let m = Oracle { n: 31, target: 9 };
        let triples: Vec<Triple> =
            (0..(super::EVAL_BLOCK as u32 * 2 + 17)).map(|i| Triple::new(i % 31, 0, 9)).collect();
        let filter = FilterIndex::build(&triples);
        let batched = evaluate_with(KernelPolicy::Exact, &m, &triples, &filter);
        let reference = evaluate_sequential(&m, &triples, &filter);
        assert_eq!(batched, reference);
    }

    #[test]
    fn empty_triples_are_safe() {
        let m = Oracle { n: 4, target: 0 };
        let filter = FilterIndex::default();
        let r = evaluate_with(KernelPolicy::Exact, &m, &[], &filter);
        assert_eq!(r.n_queries, 0);
        assert_eq!(r.mrr, 0.0);
        let rp = evaluate_parallel_with(KernelPolicy::Exact, &m, &[], &filter, 4);
        assert_eq!(rp.n_queries, 0);
    }

    #[test]
    fn per_relation_breakdown_partitions_queries() {
        let m = Oracle { n: 10, target: 3 };
        let triples = vec![Triple::new(0, 0, 3), Triple::new(1, 1, 3), Triple::new(2, 1, 3)];
        let filter = FilterIndex::build(&triples);
        let per = evaluate_per_relation_with(KernelPolicy::Exact, &m, &triples, &filter, 3);
        assert_eq!(per.len(), 3);
        assert_eq!(per[0].n_queries, 2);
        assert_eq!(per[1].n_queries, 4);
        assert_eq!(per[2].n_queries, 0);
        // aggregate matches the flat evaluation on per-query counts
        let total: usize = per.iter().map(|m| m.n_queries).sum();
        assert_eq!(total, evaluate_with(KernelPolicy::Exact, &m, &triples, &filter).n_queries);
    }

    #[test]
    #[should_panic(expected = "triple references a relation outside `n_relations`")]
    fn per_relation_rejects_an_undersized_relation_count() {
        let m = Oracle { n: 10, target: 3 };
        let triples = vec![Triple::new(0, 0, 3), Triple::new(1, 2, 3)];
        let filter = FilterIndex::build(&triples);
        evaluate_per_relation_with(KernelPolicy::Exact, &m, &triples, &filter, 2);
    }

    #[test]
    fn metrics_cell_formats() {
        let mut m = RankMetrics::zero();
        m.accumulate(1.0);
        m.accumulate(2.0);
        let n = m.normalised();
        assert_eq!(n.n_queries, 2);
        assert!(n.cell().contains('/'));
        assert!((n.mrr - 0.75).abs() < 1e-9);
        assert!((n.hits1 - 0.5).abs() < 1e-9);
    }
}
