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
//! * [`TILE`] — the entity width the offline ranker scores and counts a
//!   block in, so a block's scores never leave the cache;
//! * [`shard_bounds`] / [`entity_shard_grid`] — even entity-shard cut
//!   points and the ranges between them;
//! * [`plan_shards`] — one shard per worker of a crew;
//! * [`PipelineSlots`] — the double-buffered per-worker count slots behind
//!   the pipelined cooperative ranker: two parity lanes ping-pong so the
//!   crew scores and counts block `N+1` while the lead worker still
//!   converts block `N`'s merged counts to ranks.
//!
//! Everything here preserves the engine's **bit-identity contract**: shard
//! scores are bit-identical column slices of the full-table per-query
//! output, and per-shard rank counts are integers whose merge is
//! associative, so how a block is split across workers — or which pipeline
//! stage it is in — never shows in the results.

use std::ops::Range;
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

/// Score rows per block — one pass over the entity table (one GEMM per
/// [`TILE`] for factorising models), large enough to amortise each
/// streaming pass over the entity table across many queries. Offline
/// ranking fills it with 32 triples' tail and head queries and scores them
/// one [`TILE`] of entities at a time; it is also the `kg-serve` batching
/// queue's default block size (tail and head queries in arrival order,
/// whole rows).
pub const BLOCK: usize = 64;

/// Entities per scoring tile of the offline ranker: a block is scored and
/// counted one tile of the entity table at a time, so the count sweep reads
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

/// Split one query block's work across `n_workers` workers, the way the
/// parallel ranking engine does: the `n_entities`-row table cut into even
/// contiguous shards (at most one per entity, at least one), each worker
/// scoring every query of the block against its shard and owning those
/// score columns.
///
/// Stitching every worker's columns back together is bit-identical to a
/// single full-table pass, whatever the split — the
/// [`kg_models::BatchScorer`] shard contract.
pub fn plan_shards(n_entities: usize, n_workers: usize) -> Vec<Range<usize>> {
    assert!(n_workers > 0, "need at least one worker");
    entity_shard_grid(n_entities, n_workers.min(n_entities).max(1))
}

/// A fixed entity-shard grid: `n_shards` contiguous ranges partitioning
/// `0..n_entities` via [`shard_bounds`].
///
/// The shared planner behind both cooperative engines. Ranking
/// ([`plan_shards`]) sizes the grid to the crew (one shard per worker);
/// the training crew decouples the two — a *fixed* grid whose shards are
/// dealt round-robin to however many workers exist, so per-shard gradient
/// partials (and their fixed ascending-order merge) are identical for any
/// thread count.
pub fn entity_shard_grid(n_entities: usize, n_shards: usize) -> Vec<Range<usize>> {
    shard_bounds(n_entities, n_shards).windows(2).map(|w| w[0]..w[1]).collect()
}

/// One parity lane of [`PipelineSlots`]: every worker's counts for a single
/// in-flight pipeline step — one block's [`BLOCK`] score rows, tail rows
/// and head rows alike.
struct LaneSlots {
    /// Per-worker `greater` counts, laid out `worker * BLOCK + row` so a
    /// worker's [`BLOCK`] slots are contiguous — one plain store per row
    /// instead of a contended per-row `fetch_add`.
    better: Vec<AtomicI64>,
    /// Per-worker `equal` counts, same layout as `better`.
    ties: Vec<AtomicI64>,
}

/// Double-buffered shared state of the pipelined cooperative ranking
/// engine: **two parity lanes** of *per-worker* `(greater, equal)` count
/// slots.
///
/// The engine runs one step per block — its tail and head rows together —
/// and assigns step `s` the lane `s % 2`. In step `s` each worker scores
/// and counts every row against its entity shard (computing the rows'
/// target scores itself) and stores its counts into its own slots of lane
/// `s % 2`, while the lead worker also converts the *previous* step's lane
/// (parity `1 - s % 2`) into ranks; then the crew crosses **one** barrier.
/// No worker ever waits on rank conversion.
///
/// All cells use `Relaxed` atomics: the engine's barrier is the only
/// synchronisation. The ping-pong is safe because a lane written in step
/// `s` is read by the lead only in step `s + 1`, after the barrier that
/// closed step `s`, and rewritten only in step `s + 2`, after the barrier
/// that closed step `s + 1` — which the lead reaches only after finishing
/// the read. Counts are integers and their merge is a plain sum over worker
/// slots, so the rank of every row is bit-identical to the sequential
/// reference no matter how the pipeline stages interleave.
pub struct PipelineSlots {
    n_workers: usize,
    lanes: [LaneSlots; 2],
}

impl PipelineSlots {
    /// Allocate both lanes for an `n_workers`-strong crew. All slots start
    /// zeroed; every row a step reads is written during that same step.
    pub fn new(n_workers: usize) -> Self {
        assert!(n_workers > 0, "need at least one worker");
        let lane = || LaneSlots {
            better: (0..n_workers * BLOCK).map(|_| AtomicI64::new(0)).collect(),
            ties: (0..n_workers * BLOCK).map(|_| AtomicI64::new(0)).collect(),
        };
        PipelineSlots { n_workers, lanes: [lane(), lane()] }
    }

    /// Store `worker`'s `(greater, equal)` contribution for query `row`
    /// into `parity`'s lane. Plain stores into worker-owned slots — the
    /// single-merge replacement for the old per-row `fetch_add`s.
    pub fn store_counts(&self, parity: usize, worker: usize, row: usize, better: i64, ties: i64) {
        let lane = &self.lanes[parity];
        lane.better[worker * BLOCK + row].store(better, Relaxed);
        lane.ties[worker * BLOCK + row].store(ties, Relaxed);
    }

    /// Sum every worker's `(greater, equal)` contribution for query `row`
    /// in `parity`'s lane — the lead worker's merge, valid from the barrier
    /// *after* the step that wrote the lane until the barrier of the step
    /// that rewrites it.
    pub fn merged_counts(&self, parity: usize, row: usize) -> (i64, i64) {
        let lane = &self.lanes[parity];
        let mut counts = (0i64, 0i64);
        for w in 0..self.n_workers {
            counts.0 += lane.better[w * BLOCK + row].load(Relaxed);
            counts.1 += lane.ties[w * BLOCK + row].load(Relaxed);
        }
        counts
    }
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
    fn pipeline_slots_merge_per_worker_counts_and_keep_lanes_apart() {
        let slots = PipelineSlots::new(3);
        // Lane 0: three workers contribute to row 5; lane 1 stays untouched.
        slots.store_counts(0, 0, 5, 2, 1);
        slots.store_counts(0, 1, 5, 0, 4);
        slots.store_counts(0, 2, 5, 7, 0);
        assert_eq!(slots.merged_counts(0, 5), (9, 5));
        assert_eq!(slots.merged_counts(1, 5), (0, 0));
        // Overwriting a worker's slot replaces (not accumulates) its share.
        slots.store_counts(0, 2, 5, 1, 1);
        assert_eq!(slots.merged_counts(0, 5), (3, 6));
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
