//! The neural-network scoring baseline ("Gen-Approx", Fig. 6 / Appendix D).
//!
//! Two MLPs: `NN1` combines `(h, r)` into a query vector scored against
//! tail embeddings, `NN2` combines `(t, r)` for the head direction — so
//! ranking stays one GEMV per query, as in the appendix ("to ensure quick
//! training and testing"). Both networks share the 128-64-64 shape at
//! `d = 64` (here `[2d, d, d]`) and are trained jointly with the same
//! multi-class loss as the BLMs.
//!
//! The paper's point, which Fig. 6 reproduces: this general approximator is
//! *too* flexible for KGE — with no domain-specific constraint it overfits
//! and loses to the bilinear search space.

use crate::batch::{gemm_shard, gemm_tiles, BatchScorer, BatchScratch};
use crate::embeddings::Embeddings;
use crate::predictor::LinkPredictor;
use kg_core::Triple;
use kg_linalg::{Activation, Adagrad, Mlp, Optimizer, SeededRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Training configuration for [`GenApprox`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NnmConfig {
    /// Embedding dimension `d` (must be a multiple of 4 to share the
    /// [`Embeddings`] type; the MLP itself has no such constraint).
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adagrad learning rate.
    pub lr: f32,
    /// L2 penalty on embeddings and weights.
    pub l2: f32,
}

impl Default for NnmConfig {
    fn default() -> Self {
        NnmConfig { dim: 32, epochs: 30, lr: 0.1, l2: 1e-4 }
    }
}

/// The Gen-Approx model: entity/relation embeddings + two query networks.
pub struct GenApprox {
    emb: Embeddings,
    nn_tail: Mlp,
    nn_head: Mlp,
    cfg: NnmConfig,
    opt_emb: Adagrad,
    opt_tail: Adagrad,
    opt_head: Adagrad,
}

impl GenApprox {
    /// Initialise model and optimizers.
    pub fn init(
        n_entities: usize,
        n_relations: usize,
        cfg: NnmConfig,
        rng: &mut SeededRng,
    ) -> Self {
        let emb = Embeddings::init(n_entities, n_relations, cfg.dim, rng);
        let sizes = [2 * cfg.dim, cfg.dim, cfg.dim];
        let nn_tail = Mlp::new(&sizes, Activation::Relu, Activation::Identity, rng);
        let nn_head = Mlp::new(&sizes, Activation::Relu, Activation::Identity, rng);
        let opt_emb = Adagrad::new(emb.n_params(), cfg.lr, 1.0);
        let opt_tail = Adagrad::new(nn_tail.param_count(), cfg.lr, 1.0);
        let opt_head = Adagrad::new(nn_head.param_count(), cfg.lr, 1.0);
        GenApprox { emb, nn_tail, nn_head, cfg, opt_emb, opt_tail, opt_head }
    }

    fn concat(a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut v = Vec::with_capacity(a.len() + b.len());
        v.extend_from_slice(a);
        v.extend_from_slice(b);
        v
    }

    /// One full-softmax step in one direction. Returns the cross-entropy.
    ///
    /// `ent_idx` is the conditioning entity (head for tail-prediction),
    /// `target` the entity to rank first.
    fn direction_step(&mut self, tail_dir: bool, ent_idx: usize, r: usize, target: usize) -> f32 {
        let d = self.cfg.dim;
        let n_ent = self.emb.n_entities();
        let x = Self::concat(self.emb.ent.row(ent_idx), self.emb.rel.row(r));
        let net = if tail_dir { &self.nn_tail } else { &self.nn_head };
        let cache = net.forward_cached(&x);
        let v = cache.output().to_vec();
        let mut scores = vec![0.0f32; n_ent];
        self.emb.ent.gemv(&v, &mut scores);
        let _ = kg_linalg::vecops::softmax_inplace(&mut scores);
        let ce = -(scores[target].max(1e-12)).ln();
        // dL/dscores = p - onehot
        scores[target] -= 1.0;
        // dL/dv = entᵀ (p - onehot)
        let mut dv = vec![0.0f32; d];
        self.emb.ent.gemv_t(&scores, &mut dv);
        // dL/dE = (p - onehot) vᵀ  (+ L2 on the target row)
        // applied row-wise through Adagrad below.
        let mut grads = net.zero_grads();
        let dx = net.backward(&cache, &dv, &mut grads);
        // update the network
        let net_opt = if tail_dir { &mut self.opt_tail } else { &mut self.opt_head };
        let net_mut = if tail_dir { &mut self.nn_tail } else { &mut self.nn_head };
        net_mut.apply_grads(&grads, net_opt, self.cfg.l2);
        // update embeddings: conditioning entity + relation from dx, all
        // entities from the softmax outer product.
        let l2 = self.cfg.l2;
        let ent_cols = self.emb.ent.cols();
        {
            // candidate entities: grad row e = scores[e] * v (rank-1)
            let mut grow = vec![0.0f32; d];
            for e in 0..n_ent {
                let p = scores[e];
                if p.abs() < 1e-9 && e != ent_idx {
                    continue;
                }
                for i in 0..d {
                    grow[i] = p * v[i] + l2 * self.emb.ent.get(e, i);
                }
                if e == ent_idx {
                    kg_linalg::vecops::axpy(1.0, &dx[..d], &mut grow);
                }
                let offset = e * ent_cols;
                self.opt_emb.update(offset, self.emb.ent.row_mut(e), &grow);
            }
        }
        {
            let mut grow = vec![0.0f32; d];
            grow.copy_from_slice(&dx[d..]);
            for i in 0..d {
                grow[i] += l2 * self.emb.rel.get(r, i);
            }
            let offset = self.emb.ent.rows() * ent_cols + r * self.emb.rel.cols();
            self.opt_emb.update(offset, self.emb.rel.row_mut(r), &grow);
        }
        ce
    }

    /// Train on `triples`; returns per-epoch mean cross-entropies.
    pub fn train(&mut self, triples: &[Triple], rng: &mut SeededRng) -> Vec<f32> {
        let mut order: Vec<usize> = (0..triples.len()).collect();
        let mut out = Vec::with_capacity(self.cfg.epochs);
        for _ in 0..self.cfg.epochs {
            rng.shuffle(&mut order);
            let mut total = 0.0f32;
            for &i in &order {
                let tr = triples[i];
                total += self.direction_step(true, tr.h.idx(), tr.r.idx(), tr.t.idx());
                total += self.direction_step(false, tr.t.idx(), tr.r.idx(), tr.h.idx());
            }
            out.push(total / (2.0 * triples.len().max(1) as f32));
        }
        out
    }
}

impl LinkPredictor for GenApprox {
    fn n_entities(&self) -> usize {
        self.emb.n_entities()
    }

    fn n_relations(&self) -> Option<usize> {
        Some(self.emb.n_relations())
    }

    /// Symmetrised score: the model is direction-specific by construction
    /// (two networks), so the triple score averages both directions.
    fn score_triple(&self, h: usize, r: usize, t: usize) -> f32 {
        let x1 = Self::concat(self.emb.ent.row(h), self.emb.rel.row(r));
        let v1 = self.nn_tail.forward(&x1);
        let x2 = Self::concat(self.emb.ent.row(t), self.emb.rel.row(r));
        let v2 = self.nn_head.forward(&x2);
        0.5 * (kg_linalg::vecops::dot(&v1, self.emb.ent.row(t))
            + kg_linalg::vecops::dot(&v2, self.emb.ent.row(h)))
    }

    fn score_tails(&self, h: usize, r: usize, out: &mut [f32]) {
        let x = Self::concat(self.emb.ent.row(h), self.emb.rel.row(r));
        let v = self.nn_tail.forward(&x);
        self.emb.ent.gemv(&v, out);
    }

    fn score_heads(&self, r: usize, t: usize, out: &mut [f32]) {
        let x = Self::concat(self.emb.ent.row(t), self.emb.rel.row(r));
        let v = self.nn_head.forward(&x);
        self.emb.ent.gemv(&v, out);
    }
}

impl GenApprox {
    /// Write a block's query rows into `q` (`rows × dim`): one forward pass
    /// per query — the tail network on `(h, r)` for each of `tails`, then
    /// the head network on `(t, r)` for each of `heads`.
    fn fill_queries(&self, tails: &[(usize, usize)], heads: &[(usize, usize)], q: &mut [f32]) {
        let inputs = tails
            .iter()
            .map(|&(h, r)| (&self.nn_tail, h, r))
            .chain(heads.iter().map(|&(r, t)| (&self.nn_head, t, r)));
        for (q, (net, ent, rel)) in q.chunks_exact_mut(self.cfg.dim).zip(inputs) {
            let x = Self::concat(self.emb.ent.row(ent), self.emb.rel.row(rel));
            q.copy_from_slice(&net.forward(&x));
        }
    }
}

impl BatchScorer for GenApprox {
    /// The query networks factor scoring as `⟨NN(e, r), candidate⟩`, so a
    /// block runs one forward pass per query and a single GEMM for both
    /// directions, row-restricted to the worker's shard. Every shard call
    /// re-runs the forward passes; the dominant cost, the GEMM, scales with
    /// the shard.
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

    /// The forward passes run once for the whole range, then one
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

    fn toy_triples() -> Vec<Triple> {
        // a small deterministic pattern: i → i+1 mod 10
        (0..10).map(|i| Triple::new(i, 0, (i + 1) % 10)).collect()
    }

    #[test]
    fn training_reduces_cross_entropy() {
        let mut rng = SeededRng::new(71);
        let cfg = NnmConfig { dim: 16, epochs: 25, lr: 0.1, l2: 1e-5 };
        let mut m = GenApprox::init(10, 1, cfg, &mut rng);
        let losses = m.train(&toy_triples(), &mut rng);
        assert!(
            losses.last().unwrap() < &losses[0],
            "CE did not decrease: {} -> {}",
            losses[0],
            losses.last().unwrap()
        );
    }

    #[test]
    fn memorises_small_pattern() {
        let mut rng = SeededRng::new(72);
        let cfg = NnmConfig { dim: 16, epochs: 60, lr: 0.2, l2: 0.0 };
        let mut m = GenApprox::init(10, 1, cfg, &mut rng);
        m.train(&toy_triples(), &mut rng);
        // true tail should be at or near the top
        let mut scores = vec![0.0f32; 10];
        m.score_tails(3, 0, &mut scores);
        let true_score = scores[4];
        let better = scores.iter().filter(|&&s| s > true_score).count();
        assert!(better <= 2, "true tail ranked {}", better + 1);
    }

    #[test]
    fn batched_and_sharded_scores_match_per_query_bit_for_bit() {
        use crate::batch::test_support::assert_batch_matches_per_query;
        let mut rng = SeededRng::new(74);
        let m = GenApprox::init(11, 2, NnmConfig { dim: 8, ..Default::default() }, &mut rng);
        assert_batch_matches_per_query(&m, &[(0, 0), (5, 1), (10, 0), (3, 1)], &[(0, 1), (1, 10)]);
    }

    #[test]
    fn ranking_buffers_fit() {
        let mut rng = SeededRng::new(73);
        let m = GenApprox::init(7, 2, NnmConfig { dim: 8, ..Default::default() }, &mut rng);
        let mut out = vec![0.0f32; 7];
        m.score_tails(0, 1, &mut out);
        m.score_heads(1, 6, &mut out);
        let s = m.score_triple(0, 0, 1);
        assert!(s.is_finite());
    }
}
