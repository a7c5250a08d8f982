//! The shared shard/block scoring engine.
//!
//! Both consumers of the batched scoring seam — offline filtered ranking
//! ([`crate::ranking`]) and the online serving facade (`kg-serve`) — do the
//! same thing at their core: take a block of `(entity, relation)` queries,
//! cut the entity table into one contiguous shard per worker, and have
//! every worker score the whole block against its shard through the one
//! [`kg_models::BatchScorer`] primitive, `score_shard`. This module owns
//! that shared logic so the two stay one engine:
//!
//! * [`BLOCK`] — the common block size: 64 score rows per scoring call;
//! * [`TILE`] — the entity width a block is scored and answered in, by
//!   the offline ranker and by every `kg-serve` worker, so a block's
//!   scores never leave the cache;
//! * [`shard_bounds`] — even entity-shard cut points;
//! * [`plan_shards`] — the ranges between them, one shard per thread of a
//!   parallel ranker, a `kg-serve` crew or the training crew's entity half.
//!
//! Everything here preserves the engine's **bit-identity contract**: shard
//! scores are bit-identical column slices of the full-table per-query
//! output, and per-shard rank counts are integers whose sum is
//! order-independent, so how a block is split across workers never shows
//! in the results.

use std::ops::Range;

/// Score rows per block — one pass over the entity table (one GEMM per
/// [`TILE`] for factorising models), large enough to amortise each
/// streaming pass over the entity table across many queries. Offline
/// ranking fills it with 32 triples' tail and head queries and scores them
/// one [`TILE`] of entities at a time; it is also the `kg-serve` batching
/// queue's default block size (tail and head queries in arrival order,
/// whole rows).
pub const BLOCK: usize = 64;

/// Entities per scoring tile of the ranking tile loop, offline and served
/// ([`crate::ranking::TileRanker`]): a block is scored and counted one tile
/// of the entity table at a time, so the count sweep reads
/// scores the GEMM has just written instead of a `BLOCK × n_entities`
/// block streamed back from memory. At [`BLOCK`] rows a score tile is
/// 64 × 2048 × 4 B = 512 KiB, and the table rows it is computed from are
/// another 512 KiB at d = 64: together they fit in a per-core L2 (2 MiB on
/// the 2-vCPU Xeon host it was tuned on) with room for the query block. On
/// that host 1024- and 4096-entity tiles ranked the 100k-entity
/// `rank_full` workload ≈ 1 % slower than 2048, and all three ≈ 12 %
/// faster than whole rows.
pub const TILE: usize = 2048;

/// Which direction a query block scores: tail queries `(h, r, ·)` or head
/// queries `(·, r, t)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Score every entity as a tail completion of `(head, relation)`.
    Tails,
    /// Score every entity as a head completion of `(relation, tail)`.
    Heads,
}

/// Even entity-shard boundaries for `n_shards` workers over an
/// `n_entities`-row table: `n_shards + 1` non-decreasing cut points with
/// `bounds[w] = ⌊w · n / s⌋`, so shard widths differ by at most one row and
/// the final shard absorbs the raggedness.
pub fn shard_bounds(n_entities: usize, n_shards: usize) -> Vec<usize> {
    assert!(n_shards > 0, "need at least one shard");
    (0..=n_shards).map(|w| w * n_entities / n_shards).collect()
}

/// Split an entity table across `n_workers` threads, the way the parallel
/// evaluators, `kg-serve` and the training crew do: the `n_entities`-row
/// table cut into even contiguous shards between [`shard_bounds`] (at most
/// one per entity, at least one), each thread working its own shard.
///
/// A shard's score columns are bit-identical to the same columns of a
/// single full-table pass, whatever the split — the
/// [`kg_models::BatchScorer`] shard contract.
pub fn plan_shards(n_entities: usize, n_workers: usize) -> Vec<Range<usize>> {
    assert!(n_workers > 0, "need at least one worker");
    let bounds = shard_bounds(n_entities, n_workers.min(n_entities).max(1));
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_models::{BatchScorer, BatchScratch, KernelPolicy, LinkPredictor};

    struct Ramp {
        n: usize,
    }

    impl LinkPredictor for Ramp {
        fn n_entities(&self) -> usize {
            self.n
        }
        fn score_triple(&self, h: usize, _r: usize, t: usize) -> f32 {
            (h * self.n + t) as f32
        }
        fn score_tails(&self, h: usize, r: usize, out: &mut [f32]) {
            for (e, o) in out.iter_mut().enumerate() {
                *o = self.score_triple(h, r, e);
            }
        }
        fn score_heads(&self, r: usize, t: usize, out: &mut [f32]) {
            for (e, o) in out.iter_mut().enumerate() {
                *o = self.score_triple(e, r, t);
            }
        }
    }

    impl BatchScorer for Ramp {}

    #[test]
    fn plan_cuts_even_entity_shards() {
        assert_eq!(plan_shards(10, 3), vec![0..3, 3..6, 6..10]);
        // More workers than entities: capped at one single-entity shard each.
        assert_eq!(plan_shards(10, 64).len(), 10);
        // An empty table still gets one (empty) shard.
        assert_eq!(plan_shards(0, 4), vec![0..0]);
    }

    #[test]
    fn shards_reassemble_the_full_block_bit_for_bit() {
        let model = Ramp { n: 11 };
        let (tails, heads) = ([(0usize, 0usize), (4, 0), (7, 0)], [(0usize, 2usize), (0, 9)]);
        let rows = tails.len() + heads.len();
        let mut scratch = BatchScratch::with_policy(KernelPolicy::Exact);
        let mut reference = vec![0.0f32; rows * model.n];
        let (tail_ref, head_ref) = reference.split_at_mut(tails.len() * model.n);
        model.score_tails_batch(&tails, tail_ref, &mut scratch);
        model.score_heads_batch(&heads, head_ref, &mut scratch);

        let mut stitched = vec![0.0f32; rows * model.n];
        for range in plan_shards(model.n, 4) {
            let width = range.len();
            let mut out = vec![0.0f32; rows * width];
            model.score_shard(&tails, &heads, range.clone(), &mut out, &mut scratch);
            for q in 0..rows {
                stitched[q * model.n + range.start..q * model.n + range.end]
                    .copy_from_slice(&out[q * width..(q + 1) * width]);
            }
        }
        assert_eq!(stitched, reference);
    }

    #[test]
    fn shard_bounds_partition_evenly() {
        for (n, s) in [(10, 3), (5, 8), (64, 64), (1, 1), (0, 4), (100, 7)] {
            let b = shard_bounds(n, s);
            assert_eq!(b.len(), s + 1);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), n);
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
            let widths: Vec<usize> = b.windows(2).map(|w| w[1] - w[0]).collect();
            let (lo, hi) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
            assert!(hi - lo <= 1, "uneven split for n={n} s={s}: {widths:?}");
        }
    }
}
