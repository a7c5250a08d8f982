//! The batched scoring engine's model-side interface.
//!
//! Filtered ranking and the multi-class loss both score *many* `(entity,
//! relation)` queries against the entity table. [`BatchScorer`] lets a
//! model answer a whole block of queries at once. Its one primitive is
//! [`BatchScorer::score_shard`]: a **mixed-direction** block — tail queries
//! `(h, r)` followed by head queries `(r, t)` — scored against a contiguous
//! row range of the entity table and written as a compact
//! `(tails + heads) × shard_width` block, tail rows first. The full-table,
//! one-direction forms ([`BatchScorer::score_tails_batch`] /
//! [`BatchScorer::score_heads_batch`]) are that call with the shard
//! `0..n_entities` and one side empty — provided methods, not a second path.
//! [`BatchScorer::score_tiles`] scores one block over an entity range one
//! tile at a time, handing each tile to a sink; by default it is one
//! `score_shard` call per tile, and the GEMM models override it to build
//! the block's query rows once for all its tiles.
//!
//! * models that factor as `score(q, e) = ⟨query_vector, e⟩` (the BLM family
//!   via [`crate::BlockSpec::tail_query`] / [`crate::BlockSpec::head_query`],
//!   the Gen-Approx MLP via its two query networks) override it with one
//!   query block for both directions and one cache-blocked, row-restricted
//!   GEMM ([`kg_linalg::gemm::gemm_nt_rows_with`]) — so a block of
//!   tail and head queries streams the entity table once;
//! * the translational models override it with their per-direction distance
//!   loops, restricted to the shard's rows and run back to back;
//! * the rule model grounds each row's rules once per shard and keeps only
//!   the groundings that land inside it;
//! * anything else (test scorers) inherits the default per-row loop — full
//!   rows written straight into the output when the shard is the whole
//!   table, staged through a scratch row with the shard's columns copied
//!   out otherwise — so every [`LinkPredictor`] can sit behind the same
//!   evaluation pipeline and correctness never depends on a model opting
//!   in. Staged shards cost a full scoring pass each: correct, just slower
//!   under a multi-worker crew.
//!
//! Every scorer shards by entity: the parallel ranking engine in `kg-eval`
//! and the `kg-serve` worker crew hand each worker one contiguous entity
//! range, so the threads cooperate on a single query block instead of each
//! re-streaming the whole table.
//!
//! The engine guarantees **bit-identical scores** to the per-query path:
//! overrides must produce, for every row and every shard, exactly the bytes
//! [`LinkPredictor::score_tails`] / [`LinkPredictor::score_heads`] would
//! have written for those entity columns, wherever the row sits in the
//! block. `kg-eval`'s equivalence suites enforce this for every shipped
//! model.

use crate::predictor::LinkPredictor;
use kg_linalg::gemm::gemm_nt_rows_with;
use kg_linalg::{KernelPolicy, Mat};
use std::ops::Range;

/// Reusable buffers for batched scoring — create once per worker and feed to
/// every block call so the steady-state loop performs no allocation.
///
/// The scratch also carries the worker's [`KernelPolicy`]: the GEMM
/// overrides read [`BatchScratch::policy`] and forward it to the
/// `*_with` kernel entry points, so the policy rides the existing
/// scratch parameter through the object-safe [`BatchScorer`] trait
/// without changing any method signature.
#[derive(Debug)]
pub struct BatchScratch {
    queries: Vec<f32>,
    score_row: Vec<f32>,
    /// The score tile [`BatchScorer::score_tiles`] writes and hands to its
    /// sink.
    tile: Vec<f32>,
    policy: KernelPolicy,
}

impl BatchScratch {
    /// Fresh, empty scratch (buffers grow on first use) under an explicit
    /// [`KernelPolicy`].
    pub fn with_policy(policy: KernelPolicy) -> Self {
        BatchScratch { queries: Vec::new(), score_row: Vec::new(), tile: Vec::new(), policy }
    }

    /// The kernel policy block-scoring overrides must apply to their GEMMs.
    pub fn policy(&self) -> KernelPolicy {
        self.policy
    }

    /// A full-table score row of length `n`, reusing the allocation — the
    /// staging buffer for the default (non-factorising) shard path. Contents
    /// are unspecified; callers overwrite before reading.
    pub fn score_row(&mut self, n: usize) -> &mut [f32] {
        grown(&mut self.score_row, n)
    }
}

/// The first `len` elements of `buf`, growing it (never shrinking) first.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Block-scoring extension of [`LinkPredictor`] — the seam between models
/// and the batched ranking/training engine.
pub trait BatchScorer: LinkPredictor {
    /// Score every entity as a tail for each `(head, relation)` query,
    /// writing query `i`'s scores to `out[i·n .. (i+1)·n]` — the full-table,
    /// tails-only call of [`BatchScorer::score_shard`], which is the method
    /// to override.
    ///
    /// # Panics
    /// Panics if `out.len() != queries.len() * n_entities`.
    fn score_tails_batch(
        &self,
        queries: &[(usize, usize)],
        out: &mut [f32],
        scratch: &mut BatchScratch,
    ) {
        self.score_shard(queries, &[], 0..self.n_entities(), out, scratch);
    }

    /// Score every entity as a head for each `(relation, tail)` query,
    /// writing query `i`'s scores to `out[i·n .. (i+1)·n]` — the full-table,
    /// heads-only call of [`BatchScorer::score_shard`].
    ///
    /// # Panics
    /// Panics if `out.len() != queries.len() * n_entities`.
    fn score_heads_batch(
        &self,
        queries: &[(usize, usize)],
        out: &mut [f32],
        scratch: &mut BatchScratch,
    ) {
        self.score_shard(&[], queries, 0..self.n_entities(), out, scratch);
    }

    /// Score only the entity rows `shard` for a mixed-direction block: the
    /// `(head, relation)` queries in `tails`, then the `(relation, tail)`
    /// queries in `heads`. Row `i` of the compact output is
    /// `out[i·w .. (i+1)·w]` with `w = shard.len()` — the tail rows first,
    /// then the head rows — and holds the scores of entities
    /// `shard.start .. shard.end`.
    ///
    /// Every element must be bit-identical to the corresponding entry of
    /// [`LinkPredictor::score_tails`]' (or `score_heads`') row — sharding
    /// and mixing may only restrict *which* scores are produced, never
    /// change their value. The default scores per query: full rows straight
    /// into `out` when the shard covers the whole table, otherwise staged
    /// through [`BatchScratch::score_row`] with the shard's columns copied
    /// out; an empty output (a width-0 shard or no rows) scores nothing.
    /// Factorising models override with one query block and one
    /// row-restricted GEMM ([`kg_linalg::gemm::gemm_nt_rows_with`])
    /// for both directions.
    ///
    /// # Panics
    /// Panics if `shard` is decreasing or exceeds `n_entities`, or if
    /// `out.len() != (tails.len() + heads.len()) * shard.len()`.
    fn score_shard(
        &self,
        tails: &[(usize, usize)],
        heads: &[(usize, usize)],
        shard: Range<usize>,
        out: &mut [f32],
        scratch: &mut BatchScratch,
    ) {
        let n = self.n_entities();
        let width = checked_shard_width(&shard, n, tails.len() + heads.len(), out.len());
        if out.is_empty() {
            return;
        }
        let rows = tails
            .iter()
            .map(|&(h, r)| (h, r, true))
            .chain(heads.iter().map(|&(r, t)| (r, t, false)));
        let score = |(a, b, tail): (usize, usize, bool), row: &mut [f32]| {
            if tail {
                self.score_tails(a, b, row)
            } else {
                self.score_heads(a, b, row)
            }
        };
        if width == n {
            for (i, query) in rows.enumerate() {
                score(query, &mut out[i * n..(i + 1) * n]);
            }
            return;
        }
        let row = scratch.score_row(n);
        for (i, query) in rows.enumerate() {
            score(query, row);
            out[i * width..(i + 1) * width].copy_from_slice(&row[shard.clone()]);
        }
    }

    /// Score a mixed-direction block over the entities `range` one tile at
    /// a time: `width`-entity tiles from `range.start` on, the last one
    /// ragged, in order, each scored into a compact `rows × tile.len()`
    /// block laid out as [`BatchScorer::score_shard`]'s output and handed to
    /// `sink(tile, scores)` before the next tile is scored — so a caller
    /// can count each tile while it is still in the cache.
    ///
    /// Every score is the bits `score_shard` gives for the same rows and
    /// entities (the shard contract). The default makes one `score_shard`
    /// call per tile into [`BatchScratch`]'s score tile; the GEMM models
    /// override it to build the block's query rows once and run one
    /// row-restricted GEMM per tile. An empty `range` scores nothing.
    ///
    /// # Panics
    /// Panics if `range` is decreasing or exceeds `n_entities`, or if
    /// `width` is zero.
    fn score_tiles(
        &self,
        tails: &[(usize, usize)],
        heads: &[(usize, usize)],
        range: Range<usize>,
        width: usize,
        scratch: &mut BatchScratch,
        sink: &mut dyn FnMut(Range<usize>, &[f32]),
    ) {
        let rows = tails.len() + heads.len();
        let mut tile = std::mem::take(&mut scratch.tile);
        for cols in tiles(range, width, self.n_entities()) {
            let scores = grown(&mut tile, rows * cols.len());
            self.score_shard(tails, heads, cols.clone(), scores, scratch);
            sink(cols, scores);
        }
        scratch.tile = tile;
    }
}

/// Forward [`BatchScorer`] — including every overridden batch, shard and
/// tile fast path — through a pointer type, so a shared `Arc<dyn
/// BatchScorer + Send + Sync>` keeps a model's GEMM overrides when the
/// ranking engine or the `kg-serve` worker crew calls through the trait
/// object.
macro_rules! forward_batch_scorer {
    ($ptr:ty) => {
        impl<T: BatchScorer + ?Sized> BatchScorer for $ptr {
            fn score_tails_batch(
                &self,
                queries: &[(usize, usize)],
                out: &mut [f32],
                scratch: &mut BatchScratch,
            ) {
                (**self).score_tails_batch(queries, out, scratch)
            }
            fn score_heads_batch(
                &self,
                queries: &[(usize, usize)],
                out: &mut [f32],
                scratch: &mut BatchScratch,
            ) {
                (**self).score_heads_batch(queries, out, scratch)
            }
            fn score_shard(
                &self,
                tails: &[(usize, usize)],
                heads: &[(usize, usize)],
                shard: Range<usize>,
                out: &mut [f32],
                scratch: &mut BatchScratch,
            ) {
                (**self).score_shard(tails, heads, shard, out, scratch)
            }
            fn score_tiles(
                &self,
                tails: &[(usize, usize)],
                heads: &[(usize, usize)],
                range: Range<usize>,
                width: usize,
                scratch: &mut BatchScratch,
                sink: &mut dyn FnMut(Range<usize>, &[f32]),
            ) {
                (**self).score_tiles(tails, heads, range, width, scratch, sink)
            }
        }
    };
}

forward_batch_scorer!(&T);
forward_batch_scorer!(Box<T>);
forward_batch_scorer!(std::sync::Arc<T>);

/// [`BatchScorer::score_shard`] for a model that scores `⟨query row,
/// entity row⟩` against `table`: `fill` writes the block's `rows ×
/// table.cols()` query rows, then one row-restricted GEMM scores the shard.
pub(crate) fn gemm_shard(
    table: &Mat,
    rows: usize,
    shard: Range<usize>,
    out: &mut [f32],
    scratch: &mut BatchScratch,
    fill: impl FnOnce(&mut [f32]),
) {
    checked_shard_width(&shard, table.rows(), rows, out.len());
    let q = grown(&mut scratch.queries, rows * table.cols());
    fill(q);
    gemm_nt_rows_with(scratch.policy, q, rows, table.cols(), table, shard, out);
}

/// [`BatchScorer::score_tiles`] for the models of [`gemm_shard`]: `fill`
/// writes the query rows once for the whole range, then one row-restricted
/// GEMM per tile.
pub(crate) fn gemm_tiles(
    table: &Mat,
    rows: usize,
    range: Range<usize>,
    width: usize,
    scratch: &mut BatchScratch,
    fill: impl FnOnce(&mut [f32]),
    sink: &mut dyn FnMut(Range<usize>, &[f32]),
) {
    let q = grown(&mut scratch.queries, rows * table.cols());
    let tile = grown(&mut scratch.tile, rows * width.min(range.len()));
    let tiles = tiles(range, width, table.rows());
    fill(q);
    for cols in tiles {
        let scores = &mut tile[..rows * cols.len()];
        gemm_nt_rows_with(scratch.policy, q, rows, table.cols(), table, cols.clone(), scores);
        sink(cols, scores);
    }
}

/// The tiles of `range`: `width`-entity ranges from `range.start` on, the
/// last one ragged — the cut [`BatchScorer::score_tiles`] scores in.
///
/// # Panics
/// Panics if `range` is decreasing or exceeds `n_entities`, or if `width`
/// is zero.
pub(crate) fn tiles(
    range: Range<usize>,
    width: usize,
    n_entities: usize,
) -> impl Iterator<Item = Range<usize>> {
    assert!(
        range.start <= range.end && range.end <= n_entities,
        "score_tiles: range {range:?} out of bounds for {n_entities} entities"
    );
    assert!(width > 0, "score_tiles: zero tile width");
    let end = range.end;
    range.step_by(width).map(move |start| start..(start + width).min(end))
}

/// Validate a [`BatchScorer::score_shard`] request against the table size
/// and output length; returns the shard width. Shared by the default shard
/// path and the overrides so every implementation rejects the same misuse.
pub fn checked_shard_width(
    shard: &Range<usize>,
    n_entities: usize,
    n_queries: usize,
    out_len: usize,
) -> usize {
    assert!(
        shard.start <= shard.end && shard.end <= n_entities,
        "score_shard: shard {shard:?} out of bounds for {n_entities} entities"
    );
    let width = shard.len();
    assert_eq!(out_len, n_queries * width, "score_shard: out length mismatch");
    width
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::{BatchScorer, BatchScratch, KernelPolicy};
    use std::ops::Range;

    /// Check a model's batch path reproduces its per-query path bit for bit,
    /// for both directions and a mildly ragged block shape, under
    /// [`KernelPolicy::Exact`].
    pub fn assert_batch_matches_per_query(
        m: &dyn BatchScorer,
        tail_queries: &[(usize, usize)],
        head_queries: &[(usize, usize)],
    ) {
        let n = m.n_entities();
        let mut scratch = BatchScratch::with_policy(KernelPolicy::Exact);
        let mut block = vec![0.0f32; tail_queries.len() * n];
        m.score_tails_batch(tail_queries, &mut block, &mut scratch);
        let mut row = vec![0.0f32; n];
        for (i, &(h, r)) in tail_queries.iter().enumerate() {
            m.score_tails(h, r, &mut row);
            assert_eq!(&block[i * n..(i + 1) * n], row.as_slice(), "tail query {i}");
        }
        let mut block = vec![0.0f32; head_queries.len() * n];
        m.score_heads_batch(head_queries, &mut block, &mut scratch);
        for (i, &(r, t)) in head_queries.iter().enumerate() {
            m.score_heads(r, t, &mut row);
            assert_eq!(&block[i * n..(i + 1) * n], row.as_slice(), "head query {i}");
        }
        assert_shards_match_per_query(m, tail_queries, head_queries);
    }

    /// Check [`BatchScorer::score_shard`] reproduces the per-query columns
    /// bit for bit for tails-only, heads-only, mixed and ragged mixed
    /// (5 + 3) blocks, across a set of awkward shard splits: full table,
    /// width 0, width 1, unroll-unaligned interior shards and a ragged final
    /// shard — and that [`BatchScorer::score_tiles`] over each shard, in
    /// tiles of 1, 3 and the whole table, hands out its tiles in order with
    /// the same bits.
    pub fn assert_shards_match_per_query(
        m: &dyn BatchScorer,
        tail_queries: &[(usize, usize)],
        head_queries: &[(usize, usize)],
    ) {
        let n = m.n_entities();
        let mut scratch = BatchScratch::with_policy(KernelPolicy::Exact);
        let mut row = vec![0.0f32; n];
        let cycle = |qs: &[(usize, usize)], len| -> Vec<(usize, usize)> {
            qs.iter().copied().cycle().take(len).collect()
        };
        let (tails5, heads3) = (cycle(tail_queries, 5), cycle(head_queries, 3));
        let none: &[(usize, usize)] = &[];
        let blocks = [
            (tail_queries, none),
            (none, head_queries),
            (tail_queries, head_queries),
            (&tails5[..], &heads3[..]),
        ];
        let cut_a = 1.min(n);
        let cut_b = (n / 3).max(cut_a);
        let cut_c = n.saturating_sub(1).max(cut_b);
        let bounds = [0, cut_a, cut_a, cut_b, cut_c, n];
        let shards = bounds.windows(2).map(|w| w[0]..w[1]).chain(std::iter::once(0..n));
        for shard in shards {
            let width = shard.len();
            for &(tails, heads) in &blocks {
                let mut block = vec![f32::NAN; (tails.len() + heads.len()) * width];
                m.score_shard(tails, heads, shard.clone(), &mut block, &mut scratch);
                let expected = tails
                    .iter()
                    .map(|&(h, r)| (h, r, true))
                    .chain(heads.iter().map(|&(r, t)| (r, t, false)));
                for (i, (a, b, tail)) in expected.enumerate() {
                    if tail {
                        m.score_tails(a, b, &mut row);
                    } else {
                        m.score_heads(a, b, &mut row);
                    }
                    assert_eq!(
                        &block[i * width..(i + 1) * width],
                        &row[shard.clone()],
                        "row {i} (tail: {tail}) of a {} + {} block, shard {shard:?}",
                        tails.len(),
                        heads.len()
                    );
                }
                let rows = tails.len() + heads.len();
                for tile_width in [1, 3, n.max(1)] {
                    let mut seen = Vec::new();
                    let mut tiled = vec![f32::NAN; rows * width];
                    let mut sink = |cols: Range<usize>, scores: &[f32]| {
                        for (i, scores) in scores.chunks_exact(cols.len()).enumerate() {
                            let at = i * width + cols.start - shard.start;
                            tiled[at..at + cols.len()].copy_from_slice(scores);
                        }
                        seen.push(cols);
                    };
                    m.score_tiles(tails, heads, shard.clone(), tile_width, &mut scratch, &mut sink);
                    let expect: Vec<_> = super::tiles(shard.clone(), tile_width, n).collect();
                    assert_eq!(seen, expect, "tiles of {tile_width} over {shard:?}");
                    assert_eq!(tiled, block, "tiles of {tile_width} over {shard:?}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scorer whose per-query path must never run.
    struct Unscorable;

    impl LinkPredictor for Unscorable {
        fn n_entities(&self) -> usize {
            5
        }
        fn score_triple(&self, _: usize, _: usize, _: usize) -> f32 {
            unreachable!("scored a triple")
        }
        fn score_tails(&self, _: usize, _: usize, _: &mut [f32]) {
            unreachable!("scored a tail row")
        }
        fn score_heads(&self, _: usize, _: usize, _: &mut [f32]) {
            unreachable!("scored a head row")
        }
    }

    impl BatchScorer for Unscorable {}

    /// A scorer whose tile override marks every tile it hands out, and
    /// whose shard path (the default tile loop's) must never run.
    struct MarkedTiles;

    impl LinkPredictor for MarkedTiles {
        fn n_entities(&self) -> usize {
            5
        }
        fn score_triple(&self, _: usize, _: usize, _: usize) -> f32 {
            unreachable!("scored a triple")
        }
        fn score_tails(&self, _: usize, _: usize, _: &mut [f32]) {
            unreachable!("scored a tail row")
        }
        fn score_heads(&self, _: usize, _: usize, _: &mut [f32]) {
            unreachable!("scored a head row")
        }
    }

    impl BatchScorer for MarkedTiles {
        fn score_shard(
            &self,
            _: &[(usize, usize)],
            _: &[(usize, usize)],
            _: Range<usize>,
            _: &mut [f32],
            _: &mut BatchScratch,
        ) {
            unreachable!("the default tile loop ran")
        }
        fn score_tiles(
            &self,
            tails: &[(usize, usize)],
            heads: &[(usize, usize)],
            range: Range<usize>,
            width: usize,
            _: &mut BatchScratch,
            sink: &mut dyn FnMut(Range<usize>, &[f32]),
        ) {
            for cols in tiles(range, width, self.n_entities()) {
                let marks = vec![cols.start as f32; (tails.len() + heads.len()) * cols.len()];
                sink(cols, &marks);
            }
        }
    }

    /// The tiles `scorer` hands out for one tail and one head row over
    /// `0..5` in tiles of 2, with each tile's first score.
    fn tile_marks<S: BatchScorer + ?Sized>(scorer: &S) -> Vec<(Range<usize>, f32)> {
        let mut scratch = BatchScratch::with_policy(KernelPolicy::Exact);
        let mut seen = Vec::new();
        let mut sink = |cols: Range<usize>, scores: &[f32]| {
            assert_eq!(scores.len(), 2 * cols.len());
            seen.push((cols, scores[0]));
        };
        scorer.score_tiles(&[(0, 0)], &[(0, 1)], 0..5, 2, &mut scratch, &mut sink);
        seen
    }

    /// `forward_batch_scorer!` forwards `score_tiles`: an override survives
    /// a reference, a box and a shared trait object, instead of falling
    /// back to the default per-tile `score_shard` loop.
    #[test]
    fn tile_override_survives_every_pointer_type() {
        let expect = vec![(0..2, 0.0), (2..4, 2.0), (4..5, 4.0)];
        assert_eq!(tile_marks(&MarkedTiles), expect);
        assert_eq!(tile_marks(&&MarkedTiles), expect);
        assert_eq!(tile_marks(&Box::new(MarkedTiles)), expect);
        let shared: std::sync::Arc<dyn BatchScorer + Send + Sync> =
            std::sync::Arc::new(MarkedTiles);
        assert_eq!(tile_marks(&shared), expect);
    }

    /// The staged default scores nothing for an empty output: a width-0
    /// shard (every worker past the entity count, or a degenerate cut) and
    /// an empty block never reach the per-query path.
    #[test]
    fn default_shard_path_scores_nothing_for_an_empty_output() {
        let mut scratch = BatchScratch::with_policy(KernelPolicy::Exact);
        Unscorable.score_shard(&[(0, 0)], &[(1, 2)], 2..2, &mut [], &mut scratch);
        Unscorable.score_shard(&[], &[], 0..5, &mut [], &mut scratch);
    }
}
