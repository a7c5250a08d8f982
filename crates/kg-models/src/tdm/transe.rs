//! TransE (Bordes et al. 2013): `f(h, r, t) = -‖h + r - t‖₁`.

use super::{corrupt, normalise_rows, score_shard_per_entity, TdmConfig};
use crate::batch::{BatchScorer, BatchScratch};
use crate::predictor::LinkPredictor;
use kg_core::Triple;
use kg_linalg::{Mat, SeededRng};

/// TransE model with L1 distance and margin-ranking training.
#[derive(Debug, Clone)]
pub struct TransE {
    ent: Mat,
    rel: Mat,
    cfg: TdmConfig,
}

impl TransE {
    /// Initialise with Xavier-uniform embeddings, entities normalised.
    pub fn init(
        n_entities: usize,
        n_relations: usize,
        cfg: TdmConfig,
        rng: &mut SeededRng,
    ) -> Self {
        let mut ent = Mat::zeros(n_entities, cfg.dim);
        let mut rel = Mat::zeros(n_relations, cfg.dim);
        rng.xavier_uniform(cfg.dim, ent.as_mut_slice());
        rng.xavier_uniform(cfg.dim, rel.as_mut_slice());
        normalise_rows(&mut ent);
        TransE { ent, rel, cfg }
    }

    fn distance(&self, h: usize, r: usize, t: usize) -> f32 {
        let (hv, rv, tv) = (self.ent.row(h), self.rel.row(r), self.ent.row(t));
        let mut d = 0.0f32;
        for i in 0..self.cfg.dim {
            d += (hv[i] + rv[i] - tv[i]).abs();
        }
        d
    }

    /// One margin-ranking SGD step on (pos, neg); returns the hinge loss.
    fn step(&mut self, pos: Triple, neg: Triple) -> f32 {
        let loss = self.cfg.margin + self.distance(pos.h.idx(), pos.r.idx(), pos.t.idx())
            - self.distance(neg.h.idx(), neg.r.idx(), neg.t.idx());
        if loss <= 0.0 {
            return 0.0;
        }
        let lr = self.cfg.lr;
        let dim = self.cfg.dim;
        // d‖v‖₁/dv = sign(v); positive distance is minimised, negative maximised.
        for (triple, dir) in [(pos, 1.0f32), (neg, -1.0f32)] {
            let (hi, ri, ti) = (triple.h.idx(), triple.r.idx(), triple.t.idx());
            for i in 0..dim {
                let g = dir
                    * (self.ent.get(hi, i) + self.rel.get(ri, i) - self.ent.get(ti, i)).signum();
                let step = lr * g;
                // gradient descent on the hinge: subtract
                self.ent.set(hi, i, self.ent.get(hi, i) - step);
                self.rel.set(ri, i, self.rel.get(ri, i) - step);
                self.ent.set(ti, i, self.ent.get(ti, i) + step);
            }
        }
        loss
    }

    /// Train on `triples` (Alg. 1 with margin loss); returns per-epoch mean
    /// hinge losses.
    pub fn train(&mut self, triples: &[Triple], rng: &mut SeededRng) -> Vec<f32> {
        let mut order: Vec<usize> = (0..triples.len()).collect();
        let mut losses = Vec::with_capacity(self.cfg.epochs);
        for _ in 0..self.cfg.epochs {
            rng.shuffle(&mut order);
            let mut total = 0.0f32;
            let mut count = 0usize;
            for &i in &order {
                let pos = triples[i];
                for _ in 0..self.cfg.n_negatives {
                    let neg = corrupt(pos, self.ent.rows(), rng);
                    total += self.step(pos, neg);
                    count += 1;
                }
            }
            normalise_rows(&mut self.ent);
            losses.push(if count > 0 { total / count as f32 } else { 0.0 });
        }
        losses
    }
}

impl LinkPredictor for TransE {
    fn n_entities(&self) -> usize {
        self.ent.rows()
    }

    fn n_relations(&self) -> Option<usize> {
        Some(self.rel.rows())
    }

    fn score_triple(&self, h: usize, r: usize, t: usize) -> f32 {
        -self.distance(h, r, t)
    }

    fn score_tails(&self, h: usize, r: usize, out: &mut [f32]) {
        for (e, o) in out.iter_mut().enumerate() {
            *o = -self.distance(h, r, e);
        }
    }

    fn score_heads(&self, r: usize, t: usize, out: &mut [f32]) {
        for (e, o) in out.iter_mut().enumerate() {
            *o = -self.distance(e, r, t);
        }
    }
}

/// The distance doesn't factor as `⟨query, entity⟩`, so there is no GEMM —
/// but each score depends only on its own entity row, so restricting the
/// distance loop to the shard's rows does work proportional to the shard
/// width and is bit-identical to the full-table columns by construction.
impl BatchScorer for TransE {
    fn score_shard(
        &self,
        tails: &[(usize, usize)],
        heads: &[(usize, usize)],
        shard: std::ops::Range<usize>,
        out: &mut [f32],
        _: &mut BatchScratch,
    ) {
        let score = |h, r, t| -self.distance(h, r, t);
        score_shard_per_entity(self.n_entities(), tails, heads, shard, out, score);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_support::assert_consistent_scoring;

    fn chain_triples(n: u32) -> Vec<Triple> {
        (0..n - 1).map(|i| Triple::new(i, 0, i + 1)).collect()
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = SeededRng::new(33);
        let triples = chain_triples(20);
        let cfg = TdmConfig { dim: 16, epochs: 30, lr: 0.05, margin: 1.0, n_negatives: 2 };
        let mut m = TransE::init(20, 1, cfg, &mut rng);
        let losses = m.train(&triples, &mut rng);
        let early: f32 = losses[..5].iter().sum::<f32>() / 5.0;
        let late: f32 = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(late < early, "loss did not decrease: {early} -> {late}");
    }

    #[test]
    fn trained_model_ranks_true_tail_above_random() {
        let mut rng = SeededRng::new(34);
        let triples = chain_triples(30);
        let cfg = TdmConfig { dim: 16, epochs: 60, lr: 0.05, margin: 1.0, n_negatives: 4 };
        let mut m = TransE::init(30, 1, cfg, &mut rng);
        m.train(&triples, &mut rng);
        // true tail of (4, 0, ?) is 5; it should beat the median entity
        let mut scores = vec![0.0f32; 30];
        m.score_tails(4, 0, &mut scores);
        let true_score = scores[5];
        let better = scores.iter().filter(|&&s| s > true_score).count();
        assert!(better < 15, "true tail ranked {better}/30");
    }

    #[test]
    fn scoring_paths_consistent() {
        let mut rng = SeededRng::new(35);
        let m = TransE::init(10, 2, TdmConfig::default(), &mut rng);
        assert_consistent_scoring(&m, 1, 0, 2);
        assert_consistent_scoring(&m, 9, 1, 0);
    }

    #[test]
    fn translation_structure_is_respected() {
        // If h + r == t exactly, the distance is 0 (best possible score).
        let mut rng = SeededRng::new(36);
        let mut m = TransE::init(3, 1, TdmConfig { dim: 4, ..TdmConfig::default() }, &mut rng);
        for i in 0..4 {
            m.ent.set(0, i, 0.1 * i as f32);
            m.rel.set(0, i, 0.05);
            m.ent.set(1, i, 0.1 * i as f32 + 0.05);
        }
        assert!(m.score_triple(0, 0, 1).abs() < 1e-6);
        assert!(m.score_triple(1, 0, 0) < -1e-3);
    }
}
