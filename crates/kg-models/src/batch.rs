//! The batched scoring engine's model-side interface.
//!
//! Filtered ranking and the multi-class loss both score *many* `(entity,
//! relation)` queries against the entity table. [`BatchScorer`] lets a
//! model answer a whole block of queries at once. Its primitives are the
//! **entity-shard** methods ([`BatchScorer::score_tails_shard`] /
//! [`BatchScorer::score_heads_shard`]): the query block scored against a
//! contiguous row range of the entity table, written as a compact
//! `queries × shard_width` block. The full-table forms
//! ([`BatchScorer::score_tails_batch`] / [`BatchScorer::score_heads_batch`])
//! are the shard `0..n_entities` — provided methods, not a second path.
//!
//! * models that factor as `score(q, e) = ⟨query_vector, e⟩` (the BLM family
//!   via [`crate::BlockSpec::tail_query`], the Gen-Approx MLP via its query
//!   network) override the shard methods with one cache-blocked,
//!   row-restricted GEMM ([`kg_linalg::gemm::gemm_nt_rows_slice_with`]) per
//!   block;
//! * models that don't factor (rule models, test scorers) inherit the
//!   default per-row loop — full rows written straight into the output when
//!   the shard is the whole table, staged through a scratch row with the
//!   shard's columns copied out otherwise — so every [`LinkPredictor`] can
//!   sit behind the same evaluation pipeline and correctness never depends
//!   on a model opting in.
//!
//! The sharded parallel ranking engine in `kg-eval` hands each worker thread
//! one shard, so the threads cooperate on a single query block instead of
//! each re-streaming the whole table.
//!
//! The engine guarantees **bit-identical scores** to the per-query path:
//! overrides must produce, for every row and every shard, exactly the bytes
//! [`LinkPredictor::score_tails`] / [`LinkPredictor::score_heads`] would
//! have written for those entity columns. `kg-eval`'s equivalence suites
//! enforce this for every shipped model.

use crate::predictor::LinkPredictor;
use kg_linalg::KernelPolicy;
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
    policy: KernelPolicy,
}

impl BatchScratch {
    /// Fresh, empty scratch (buffers grow on first use) under an explicit
    /// [`KernelPolicy`].
    pub fn with_policy(policy: KernelPolicy) -> Self {
        BatchScratch { queries: Vec::new(), score_row: Vec::new(), policy }
    }

    /// The kernel policy block-scoring overrides must apply to their GEMMs.
    pub fn policy(&self) -> KernelPolicy {
        self.policy
    }

    /// A row-major `rows × dim` query block, reusing the allocation. The
    /// contents are unspecified (possibly stale from an earlier block) —
    /// callers overwrite every row they score.
    pub fn query_block(&mut self, rows: usize, dim: usize) -> &mut [f32] {
        let len = rows * dim;
        if self.queries.len() < len {
            self.queries.resize(len, 0.0);
        }
        &mut self.queries[..len]
    }

    /// A full-table score row of length `n`, reusing the allocation — the
    /// staging buffer for the default (non-factorising) shard path. Contents
    /// are unspecified; callers overwrite before reading.
    pub fn score_row(&mut self, n: usize) -> &mut [f32] {
        if self.score_row.len() < n {
            self.score_row.resize(n, 0.0);
        }
        &mut self.score_row[..n]
    }
}

/// Block-scoring extension of [`LinkPredictor`] — the seam between models
/// and the batched ranking/training engine.
pub trait BatchScorer: LinkPredictor {
    /// Whether this model's shard scoring does work proportional to the
    /// shard width (a row-restricted GEMM, as in the BLM/NNM overrides) —
    /// `false` means the default shard path, which stages *full-table* rows
    /// and copies the shard's columns out: correct, but every shard costs a
    /// whole scoring pass. The parallel ranking engine consults this to
    /// split work by entity shard (native) or by query rows (staged), so
    /// non-factorising models parallelise without redundant scoring.
    fn native_shard_scoring(&self) -> bool {
        false
    }

    /// Score every entity as a tail for each `(head, relation)` query,
    /// writing query `i`'s scores to `out[i·n .. (i+1)·n]` — the full-table
    /// shard of [`BatchScorer::score_tails_shard`], which is the method to
    /// override.
    ///
    /// # Panics
    /// Panics if `out.len() != queries.len() * n_entities`.
    fn score_tails_batch(
        &self,
        queries: &[(usize, usize)],
        out: &mut [f32],
        scratch: &mut BatchScratch,
    ) {
        self.score_tails_shard(queries, 0..self.n_entities(), out, scratch);
    }

    /// Score every entity as a head for each `(relation, tail)` query,
    /// writing query `i`'s scores to `out[i·n .. (i+1)·n]` — the full-table
    /// shard of [`BatchScorer::score_heads_shard`], which is the method to
    /// override.
    ///
    /// # Panics
    /// Panics if `out.len() != queries.len() * n_entities`.
    fn score_heads_batch(
        &self,
        queries: &[(usize, usize)],
        out: &mut [f32],
        scratch: &mut BatchScratch,
    ) {
        self.score_heads_shard(queries, 0..self.n_entities(), out, scratch);
    }

    /// Score only the entity rows `shard` as tails for each `(head,
    /// relation)` query, writing the compact shard-local block
    /// `out[i·w + (e − shard.start)]` with `w = shard.len()`.
    ///
    /// Every element must be bit-identical to the corresponding entry of
    /// [`LinkPredictor::score_tails`]' row — sharding may only restrict
    /// *which* scores are produced, never change their value. The default
    /// scores per query: full rows straight into `out` when the shard
    /// covers the whole table, otherwise staged through
    /// [`BatchScratch::score_row`] with the shard's columns copied out.
    /// Factorising models override with a row-restricted GEMM
    /// ([`kg_linalg::gemm::gemm_nt_rows_slice_with`]).
    ///
    /// # Panics
    /// Panics if `shard` is decreasing or exceeds `n_entities`, or if
    /// `out.len() != queries.len() * shard.len()`.
    fn score_tails_shard(
        &self,
        queries: &[(usize, usize)],
        shard: Range<usize>,
        out: &mut [f32],
        scratch: &mut BatchScratch,
    ) {
        let score = |h, r, row: &mut [f32]| self.score_tails(h, r, row);
        stage_shard(self.n_entities(), queries, shard, out, scratch, "score_tails_shard", score);
    }

    /// Score only the entity rows `shard` as heads for each `(relation,
    /// tail)` query — the head-direction counterpart of
    /// [`BatchScorer::score_tails_shard`], with the same layout, the same
    /// bit-identity contract and the same per-query default.
    ///
    /// # Panics
    /// Panics if `shard` is decreasing or exceeds `n_entities`, or if
    /// `out.len() != queries.len() * shard.len()`.
    fn score_heads_shard(
        &self,
        queries: &[(usize, usize)],
        shard: Range<usize>,
        out: &mut [f32],
        scratch: &mut BatchScratch,
    ) {
        let score = |r, t, row: &mut [f32]| self.score_heads(r, t, row);
        stage_shard(self.n_entities(), queries, shard, out, scratch, "score_heads_shard", score);
    }
}

/// The default shard path of both directions: one per-query `score_row`
/// call per query, written directly into `out` when the shard is the full
/// table and staged through the scratch row (shard columns copied out)
/// otherwise.
fn stage_shard(
    n: usize,
    queries: &[(usize, usize)],
    shard: Range<usize>,
    out: &mut [f32],
    scratch: &mut BatchScratch,
    ctx: &str,
    score_row: impl Fn(usize, usize, &mut [f32]),
) {
    let width = checked_shard_width(&shard, n, queries.len(), out.len(), ctx);
    if width == n {
        for (i, &(a, b)) in queries.iter().enumerate() {
            score_row(a, b, &mut out[i * n..(i + 1) * n]);
        }
        return;
    }
    let row = scratch.score_row(n);
    for (i, &(a, b)) in queries.iter().enumerate() {
        score_row(a, b, row);
        out[i * width..(i + 1) * width].copy_from_slice(&row[shard.clone()]);
    }
}

/// Forward [`BatchScorer`] — including every overridden batch/shard fast
/// path and the [`BatchScorer::native_shard_scoring`] capability flag —
/// through a pointer type, so a shared `Arc<dyn BatchScorer + Send + Sync>`
/// keeps a model's GEMM overrides when the ranking engine or the `kg-serve`
/// worker crew calls through the trait object.
macro_rules! forward_batch_scorer {
    ($ptr:ty) => {
        impl<T: BatchScorer + ?Sized> BatchScorer for $ptr {
            fn native_shard_scoring(&self) -> bool {
                (**self).native_shard_scoring()
            }
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
            fn score_tails_shard(
                &self,
                queries: &[(usize, usize)],
                shard: Range<usize>,
                out: &mut [f32],
                scratch: &mut BatchScratch,
            ) {
                (**self).score_tails_shard(queries, shard, out, scratch)
            }
            fn score_heads_shard(
                &self,
                queries: &[(usize, usize)],
                shard: Range<usize>,
                out: &mut [f32],
                scratch: &mut BatchScratch,
            ) {
                (**self).score_heads_shard(queries, shard, out, scratch)
            }
        }
    };
}

forward_batch_scorer!(&T);
forward_batch_scorer!(Box<T>);
forward_batch_scorer!(std::sync::Arc<T>);

/// Validate a shard request against the table size and output length;
/// returns the shard width. Shared by the default shard paths and the
/// factorising overrides so every implementation rejects the same misuse.
pub fn checked_shard_width(
    shard: &Range<usize>,
    n_entities: usize,
    n_queries: usize,
    out_len: usize,
    ctx: &str,
) -> usize {
    assert!(
        shard.start <= shard.end && shard.end <= n_entities,
        "{ctx}: shard {shard:?} out of bounds for {n_entities} entities"
    );
    let width = shard.len();
    assert_eq!(out_len, n_queries * width, "{ctx}: out length mismatch");
    width
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::{BatchScorer, BatchScratch, KernelPolicy};

    /// Check a model's batch path reproduces its per-query path bit for bit,
    /// for both directions and a mildly ragged block shape. The scratch is
    /// pinned to [`KernelPolicy::Exact`] — bit-identity is the exact tier's
    /// contract, so these assertions must hold even when the environment
    /// (e.g. the fast-tier CI job) defaults the policy to `Fast`.
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

    /// Check the shard paths reproduce the per-query columns bit for bit
    /// across a set of awkward shard splits: full table, width 0, width 1,
    /// unroll-unaligned interior shards and a ragged final shard.
    pub fn assert_shards_match_per_query(
        m: &dyn BatchScorer,
        tail_queries: &[(usize, usize)],
        head_queries: &[(usize, usize)],
    ) {
        let n = m.n_entities();
        let mut scratch = BatchScratch::with_policy(KernelPolicy::Exact);
        let mut row = vec![0.0f32; n];
        let cut_a = 1.min(n);
        let cut_b = (n / 3).max(cut_a);
        let cut_c = n.saturating_sub(1).max(cut_b);
        let bounds = [0, cut_a, cut_a, cut_b, cut_c, n];
        for w in bounds.windows(2) {
            let shard = w[0]..w[1];
            let width = shard.len();
            let mut block = vec![0.0f32; tail_queries.len() * width];
            m.score_tails_shard(tail_queries, shard.clone(), &mut block, &mut scratch);
            for (i, &(h, r)) in tail_queries.iter().enumerate() {
                m.score_tails(h, r, &mut row);
                assert_eq!(
                    &block[i * width..(i + 1) * width],
                    &row[shard.clone()],
                    "tail query {i}, shard {shard:?}"
                );
            }
            let mut block = vec![0.0f32; head_queries.len() * width];
            m.score_heads_shard(head_queries, shard.clone(), &mut block, &mut scratch);
            for (i, &(r, t)) in head_queries.iter().enumerate() {
                m.score_heads(r, t, &mut row);
                assert_eq!(
                    &block[i * width..(i + 1) * width],
                    &row[shard.clone()],
                    "head query {i}, shard {shard:?}"
                );
            }
        }
    }
}
