//! TransH (Wang et al. 2014): translation on relation-specific hyperplanes,
//! `f(h, r, t) = -‖h_⊥ + d_r - t_⊥‖₂²` with `v_⊥ = v - (w_rᵀv) w_r`.
//!
//! Projecting onto a per-relation hyperplane lets one entity hold different
//! roles under different relations, which plain TransE cannot model for
//! 1-to-N / N-to-1 relations.

use super::{corrupt, normalise_rows, score_shard_per_entity, TdmConfig};
use crate::batch::{BatchScorer, BatchScratch};
use crate::predictor::LinkPredictor;
use kg_core::Triple;
use kg_linalg::{Mat, SeededRng};

/// TransH model.
#[derive(Debug, Clone)]
pub struct TransH {
    ent: Mat,
    /// Translation vectors `d_r`.
    rel: Mat,
    /// Hyperplane normals `w_r` (kept unit-norm).
    norm: Mat,
    cfg: TdmConfig,
}

impl TransH {
    /// Initialise with Xavier-uniform parameters; normals normalised.
    pub fn init(
        n_entities: usize,
        n_relations: usize,
        cfg: TdmConfig,
        rng: &mut SeededRng,
    ) -> Self {
        let mut ent = Mat::zeros(n_entities, cfg.dim);
        let mut rel = Mat::zeros(n_relations, cfg.dim);
        let mut norm = Mat::zeros(n_relations, cfg.dim);
        rng.xavier_uniform(cfg.dim, ent.as_mut_slice());
        rng.xavier_uniform(cfg.dim, rel.as_mut_slice());
        rng.xavier_uniform(cfg.dim, norm.as_mut_slice());
        normalise_rows(&mut ent);
        normalise_rows(&mut norm);
        TransH { ent, rel, norm, cfg }
    }

    /// The residual vector `h_⊥ + d_r - t_⊥`.
    fn residual(&self, h: usize, r: usize, t: usize, out: &mut [f32]) {
        let (hv, rv, tv, wv) =
            (self.ent.row(h), self.rel.row(r), self.ent.row(t), self.norm.row(r));
        let wh = kg_linalg::vecops::dot(wv, hv);
        let wt = kg_linalg::vecops::dot(wv, tv);
        for i in 0..self.cfg.dim {
            let hp = hv[i] - wh * wv[i];
            let tp = tv[i] - wt * wv[i];
            out[i] = hp + rv[i] - tp;
        }
    }

    fn distance_sq(&self, h: usize, r: usize, t: usize) -> f32 {
        let mut res = vec![0.0f32; self.cfg.dim];
        self.residual(h, r, t, &mut res);
        kg_linalg::vecops::norm2_sq(&res)
    }

    /// Gradient step for one triple with direction `dir` (+1 positive,
    /// -1 negative) on the hinge.
    fn grad_step(&mut self, tr: Triple, dir: f32) {
        let dim = self.cfg.dim;
        let (hi, ri, ti) = (tr.h.idx(), tr.r.idx(), tr.t.idx());
        let mut res = vec![0.0f32; dim];
        self.residual(hi, ri, ti, &mut res);
        let lr = self.cfg.lr;
        let wv: Vec<f32> = self.norm.row(ri).to_vec();
        let hv: Vec<f32> = self.ent.row(hi).to_vec();
        let tv: Vec<f32> = self.ent.row(ti).to_vec();
        let wh = kg_linalg::vecops::dot(&wv, &hv);
        let wt = kg_linalg::vecops::dot(&wv, &tv);
        let wres = kg_linalg::vecops::dot(&wv, &res);
        // d(‖res‖²)/dv = 2 res · d(res)/dv; dir folds the hinge sign.
        for i in 0..dim {
            let g = 2.0 * dir * res[i];
            // dres/dh_i = δ - w_i w  (projection Jacobian)
            self.ent.set(hi, i, self.ent.get(hi, i) - lr * (g - 2.0 * dir * wres * wv[i]));
            self.rel.set(ri, i, self.rel.get(ri, i) - lr * g);
            self.ent.set(ti, i, self.ent.get(ti, i) + lr * (g - 2.0 * dir * wres * wv[i]));
            // dres/dw = -(wᵀh) δh... full term: -(w·res)(h - t) - ((h-t)·w) res
            let dwi = -2.0 * dir * (wres * (hv[i] - tv[i]) + (wh - wt) * res[i]);
            self.norm.set(ri, i, self.norm.get(ri, i) - lr * dwi);
        }
    }

    /// Train with margin ranking loss; returns per-epoch mean hinge losses.
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
                    let loss = self.cfg.margin
                        + self.distance_sq(pos.h.idx(), pos.r.idx(), pos.t.idx())
                        - self.distance_sq(neg.h.idx(), neg.r.idx(), neg.t.idx());
                    if loss > 0.0 {
                        self.grad_step(pos, 1.0);
                        self.grad_step(neg, -1.0);
                        total += loss;
                    }
                    count += 1;
                }
            }
            normalise_rows(&mut self.ent);
            normalise_rows(&mut self.norm);
            losses.push(if count > 0 { total / count as f32 } else { 0.0 });
        }
        losses
    }
}

impl LinkPredictor for TransH {
    fn n_entities(&self) -> usize {
        self.ent.rows()
    }

    fn n_relations(&self) -> Option<usize> {
        Some(self.rel.rows())
    }

    fn score_triple(&self, h: usize, r: usize, t: usize) -> f32 {
        -self.distance_sq(h, r, t)
    }

    fn score_tails(&self, h: usize, r: usize, out: &mut [f32]) {
        for (e, o) in out.iter_mut().enumerate() {
            *o = -self.distance_sq(h, r, e);
        }
    }

    fn score_heads(&self, r: usize, t: usize, out: &mut [f32]) {
        for (e, o) in out.iter_mut().enumerate() {
            *o = -self.distance_sq(e, r, t);
        }
    }
}

/// Same shard story as TransE: the hyperplane distance doesn't factor, but
/// each score depends only on its own entity row, so the shard override
/// restricts the distance loop to the shard's rows — work proportional to
/// the shard width, bit-identical to the full-table columns by
/// construction.
impl BatchScorer for TransH {
    fn score_shard(
        &self,
        tails: &[(usize, usize)],
        heads: &[(usize, usize)],
        shard: std::ops::Range<usize>,
        out: &mut [f32],
        _: &mut BatchScratch,
    ) {
        let score = |h, r, t| -self.distance_sq(h, r, t);
        score_shard_per_entity(self.n_entities(), tails, heads, shard, out, score);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_support::assert_consistent_scoring;

    #[test]
    fn training_reduces_loss() {
        let mut rng = SeededRng::new(44);
        let triples: Vec<Triple> = (0..25).map(|i| Triple::new(i, 0, (i + 1) % 26)).collect();
        let cfg = TdmConfig { dim: 16, epochs: 30, lr: 0.02, margin: 1.0, n_negatives: 2 };
        let mut m = TransH::init(26, 1, cfg, &mut rng);
        let losses = m.train(&triples, &mut rng);
        let early: f32 = losses[..5].iter().sum::<f32>() / 5.0;
        let late: f32 = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(late < early, "loss did not decrease: {early} -> {late}");
    }

    #[test]
    fn scoring_paths_consistent() {
        let mut rng = SeededRng::new(45);
        let m = TransH::init(8, 2, TdmConfig::default(), &mut rng);
        assert_consistent_scoring(&m, 0, 1, 3);
        assert_consistent_scoring(&m, 7, 0, 7);
    }

    #[test]
    fn projection_grad_matches_finite_differences() {
        let mut rng = SeededRng::new(46);
        let cfg = TdmConfig { dim: 6, epochs: 1, lr: 0.0, margin: 0.0, n_negatives: 1 };
        let m = TransH::init(4, 1, cfg, &mut rng);
        // numeric sanity: distance is invariant to moving h along w
        let w: Vec<f32> = m.norm.row(0).to_vec();
        let base = m.distance_sq(0, 0, 1);
        let mut shifted = m.clone();
        for i in 0..6 {
            let v = shifted.ent.get(0, i);
            shifted.ent.set(0, i, v + 0.3 * w[i]);
        }
        let moved = shifted.distance_sq(0, 0, 1);
        assert!((base - moved).abs() < 1e-3, "{base} vs {moved}");
    }
}
