//! A [`BlockSpec`] bound to trained embeddings.

use super::spec::BlockSpec;
use crate::batch::{gemm_shard, gemm_tiles, BatchScorer, BatchScratch};
use crate::embeddings::Embeddings;
use crate::predictor::LinkPredictor;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::ops::Range;

thread_local! {
    /// Per-thread query buffer backing the per-query [`LinkPredictor`]
    /// adapter, so steady-state ranking loops that call `score_tails` /
    /// `score_heads` one query at a time perform zero allocations.
    static QUERY_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a zeroed thread-local query vector of length `dim`.
fn with_query_scratch<R>(dim: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    QUERY_SCRATCH.with(|buf| {
        let mut buf = buf.borrow_mut();
        if buf.len() < dim {
            buf.resize(dim, 0.0);
        }
        f(&mut buf[..dim])
    })
}

/// Structure + parameters: the deployable bilinear model.
///
/// Serialisable (structure and embeddings together), so trained models can
/// be checkpointed and served without retraining.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlmModel {
    /// The scoring-function structure.
    pub spec: BlockSpec,
    /// Trained embeddings.
    pub emb: Embeddings,
}

impl BlmModel {
    /// Bind a structure to embeddings.
    pub fn new(spec: BlockSpec, emb: Embeddings) -> Self {
        BlmModel { spec, emb }
    }
}

impl LinkPredictor for BlmModel {
    fn n_entities(&self) -> usize {
        self.emb.n_entities()
    }

    fn n_relations(&self) -> Option<usize> {
        Some(self.emb.n_relations())
    }

    fn score_triple(&self, h: usize, r: usize, t: usize) -> f32 {
        self.spec.score(
            self.emb.ent.row(h),
            self.emb.rel.row(r),
            self.emb.ent.row(t),
            self.emb.dsub(),
        )
    }

    fn score_tails(&self, h: usize, r: usize, out: &mut [f32]) {
        with_query_scratch(self.emb.dim(), |q| {
            self.spec.tail_query(self.emb.ent.row(h), self.emb.rel.row(r), q, self.emb.dsub());
            self.emb.ent.gemv(q, out);
        });
    }

    fn score_heads(&self, r: usize, t: usize, out: &mut [f32]) {
        with_query_scratch(self.emb.dim(), |p| {
            self.spec.head_query(self.emb.ent.row(t), self.emb.rel.row(r), p, self.emb.dsub());
            self.emb.ent.gemv(p, out);
        });
    }
}

impl BlmModel {
    /// Write a block's query rows into `q` (`rows × dim`): one
    /// [`BlockSpec::tail_query`] per `(h, r)` in `tails`, then one
    /// [`BlockSpec::head_query`] per `(r, t)` in `heads`.
    fn fill_queries(&self, tails: &[(usize, usize)], heads: &[(usize, usize)], q: &mut [f32]) {
        let (dim, ent, rel, dsub) = (self.emb.dim(), &self.emb.ent, &self.emb.rel, self.emb.dsub());
        let mut rows = q.chunks_exact_mut(dim);
        for (&(h, r), q) in tails.iter().zip(&mut rows) {
            self.spec.tail_query(ent.row(h), rel.row(r), q, dsub);
        }
        for (&(r, t), q) in heads.iter().zip(&mut rows) {
            self.spec.head_query(ent.row(t), rel.row(r), q, dsub);
        }
    }
}

impl BatchScorer for BlmModel {
    /// One query row per tail and per head query plus a single
    /// cache-blocked, row-restricted GEMM: both directions' rows share one
    /// pass over the shard worker's slice of the entity table — the fast
    /// path the per-query adapter above funnels into one query at a time.
    fn score_shard(
        &self,
        tails: &[(usize, usize)],
        heads: &[(usize, usize)],
        shard: Range<usize>,
        out: &mut [f32],
        scratch: &mut BatchScratch,
    ) {
        let (ent, rows) = (&self.emb.ent, tails.len() + heads.len());
        gemm_shard(ent, rows, shard, out, scratch, |q| self.fill_queries(tails, heads, q));
    }

    /// The query rows built once for the whole range, then one
    /// row-restricted GEMM per tile.
    fn score_tiles(
        &self,
        tails: &[(usize, usize)],
        heads: &[(usize, usize)],
        range: Range<usize>,
        width: usize,
        scratch: &mut BatchScratch,
        sink: &mut dyn FnMut(Range<usize>, &[f32]),
    ) {
        let (ent, rows) = (&self.emb.ent, tails.len() + heads.len());
        let fill = |q: &mut [f32]| self.fill_queries(tails, heads, q);
        gemm_tiles(ent, rows, range, width, scratch, fill, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blm::classics;
    use crate::predictor::test_support::assert_consistent_scoring;
    use kg_linalg::SeededRng;

    fn model(spec: BlockSpec) -> BlmModel {
        let mut rng = SeededRng::new(21);
        BlmModel::new(spec, Embeddings::init(12, 3, 16, &mut rng))
    }

    #[test]
    fn ranking_paths_agree_for_all_classics() {
        for (name, spec) in classics::all() {
            let m = model(spec);
            for (h, r, t) in [(0, 0, 1), (5, 2, 7), (11, 1, 0)] {
                assert_consistent_scoring(&m, h, r, t);
            }
            let _ = name;
        }
    }

    #[test]
    fn distmult_model_scores_symmetrically() {
        let m = model(classics::distmult());
        for (h, r, t) in [(0, 0, 1), (3, 2, 9)] {
            let a = m.score_triple(h, r, t);
            let b = m.score_triple(t, r, h);
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn batched_scores_match_per_query_bit_for_bit() {
        use crate::batch::test_support::assert_batch_matches_per_query;
        for (_, spec) in classics::all() {
            let m = model(spec);
            assert_batch_matches_per_query(
                &m,
                &[(0, 0), (5, 2), (11, 1), (3, 0), (7, 2)],
                &[(0, 1), (2, 5), (1, 11)],
            );
        }
    }

    #[test]
    fn score_buffers_sized_by_entities() {
        let m = model(classics::simple());
        assert_eq!(m.n_entities(), 12);
        let mut out = vec![0.0f32; 12];
        m.score_tails(0, 0, &mut out);
        assert!(out.iter().any(|&v| v != 0.0));
    }
}
