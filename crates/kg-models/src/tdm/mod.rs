//! Translational-distance models (Sec. II-A): TransE, TransH, RotatE.
//!
//! TDMs interpret a relation as a translation (or rotation) in embedding
//! space and score by negative distance. They are provably less expressive
//! than BLMs (Wang et al. 2017, cited as \[41\]) and serve as the baseline
//! family in Tab. IV. Each model is self-contained: its own parameters,
//! margin-based negative-sampling training (the loss family these models
//! were published with) and a [`crate::LinkPredictor`] implementation.
//! None of them factor as `⟨q, e⟩`, so they cannot reuse the BLM trainer.

pub mod rotate;
pub mod transe;
pub mod transh;

pub use rotate::RotatE;
pub use transe::TransE;
pub use transh::TransH;

use kg_core::Triple;
use kg_linalg::SeededRng;
use serde::{Deserialize, Serialize};

// Distance scores don't factor as `⟨query, entity⟩`, so no TDM gets a GEMM
// shortcut — but every TDM scores shards natively: each score depends only
// on its own entity row, so a distance-restricted loop over shard rows does
// work proportional to the shard width. TransE/TransH share
// `score_shard_per_entity`; RotatE's paired-lane `(re, im)` shard kernel
// lives in `rotate.rs`.

/// [`crate::BatchScorer::score_shard`] for a model whose score of `(h, r, t)`
/// is `score(h, r, t)`, computed per entity: the tail rows score
/// `(h, r, e)`, then the head rows `(e, r, t)`, for the shard's entities
/// `e` alone — each the same call the per-query row makes for that entity.
pub(crate) fn score_shard_per_entity(
    n_entities: usize,
    tails: &[(usize, usize)],
    heads: &[(usize, usize)],
    shard: std::ops::Range<usize>,
    out: &mut [f32],
    score: impl Fn(usize, usize, usize) -> f32,
) {
    let rows = tails.len() + heads.len();
    let width = crate::batch::checked_shard_width(&shard, n_entities, rows, out.len());
    let (tail_out, head_out) = out.split_at_mut(tails.len() * width);
    for (i, &(h, r)) in tails.iter().enumerate() {
        let out_row = &mut tail_out[i * width..(i + 1) * width];
        for (o, e) in out_row.iter_mut().zip(shard.clone()) {
            *o = score(h, r, e);
        }
    }
    for (i, &(r, t)) in heads.iter().enumerate() {
        let out_row = &mut head_out[i * width..(i + 1) * width];
        for (o, e) in out_row.iter_mut().zip(shard.clone()) {
            *o = score(e, r, t);
        }
    }
}

/// Shared training configuration for the TDM family.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TdmConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Ranking margin γ.
    pub margin: f32,
    /// Negative samples per positive.
    pub n_negatives: usize,
}

impl Default for TdmConfig {
    fn default() -> Self {
        TdmConfig { dim: 32, epochs: 50, lr: 0.05, margin: 2.0, n_negatives: 4 }
    }
}

/// Corrupt one side of a triple uniformly (the classic negative sampler of
/// Alg. 1 step 5): returns the corrupted triple.
pub(crate) fn corrupt(t: Triple, n_entities: usize, rng: &mut SeededRng) -> Triple {
    let e = rng.below(n_entities) as u32;
    if rng.coin() {
        Triple::new(e, t.r.0, t.t.0)
    } else {
        Triple::new(t.h.0, t.r.0, e)
    }
}

/// L2-normalise every row of a matrix in place (TransE's per-epoch entity
/// normalisation).
pub(crate) fn normalise_rows(m: &mut kg_linalg::Mat) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let n = kg_linalg::vecops::norm2(row);
        if n > 1e-9 {
            kg_linalg::vecops::scale(1.0 / n, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_changes_exactly_one_side() {
        let mut rng = SeededRng::new(1);
        let pos = Triple::new(3, 1, 7);
        for _ in 0..50 {
            let neg = corrupt(pos, 20, &mut rng);
            assert_eq!(neg.r, pos.r);
            assert!(neg.h == pos.h || neg.t == pos.t, "both sides corrupted");
        }
    }

    /// The TDM family rides the default per-row batch loop with native
    /// shard overrides (TransE/TransH distance-restricted loops, RotatE's
    /// paired-lane kernel) — check each model reproduces the per-query
    /// rows (and their shard columns) bit for bit.
    #[test]
    fn default_batch_and_shard_paths_match_per_query() {
        use crate::batch::test_support::assert_batch_matches_per_query;
        let mut rng = SeededRng::new(31);
        let cfg = TdmConfig { dim: 8, ..Default::default() };
        let tails = [(0, 0), (5, 1), (9, 0)];
        let heads = [(1, 3), (0, 9)];
        let transe = TransE::init(10, 2, cfg, &mut rng);
        assert_batch_matches_per_query(&transe, &tails, &heads);
        let transh = TransH::init(10, 2, cfg, &mut rng);
        assert_batch_matches_per_query(&transh, &tails, &heads);
        let rotate = RotatE::init(10, 2, cfg, &mut rng);
        assert_batch_matches_per_query(&rotate, &tails, &heads);
    }

    #[test]
    fn normalise_rows_unit_norm() {
        let mut m = kg_linalg::Mat::from_vec(2, 2, vec![3.0, 4.0, 0.0, 2.0]);
        normalise_rows(&mut m);
        assert!((kg_linalg::vecops::norm2(m.row(0)) - 1.0).abs() < 1e-6);
        assert!((kg_linalg::vecops::norm2(m.row(1)) - 1.0).abs() < 1e-6);
    }
}
