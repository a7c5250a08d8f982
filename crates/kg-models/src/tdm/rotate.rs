//! RotatE (Sun et al. 2019): relations as rotations in complex space,
//! `f(h, r, t) = -‖h ∘ r - t‖₂` with `|r_i| = 1` (each relation coordinate is
//! a unit complex number `e^{iθ}` parameterised by its phase).
//!
//! Rotations compose and invert, so RotatE models symmetric (θ = π),
//! anti-symmetric, inverse and compositional relations — the strongest TDM
//! in Tab. IV.

use super::{corrupt, TdmConfig};
use crate::batch::{checked_shard_width, BatchScorer, BatchScratch};
use crate::predictor::LinkPredictor;
use kg_core::Triple;
use kg_linalg::{Mat, SeededRng};

/// RotatE model: complex entity embeddings (`dim/2` complex coordinates
/// stored `[re..., im...]`) and per-relation phase vectors.
#[derive(Debug, Clone)]
pub struct RotatE {
    /// `n_entities × dim` (first half real parts, second half imaginary).
    ent: Mat,
    /// `n_relations × dim/2` phases θ.
    phase: Mat,
    cfg: TdmConfig,
}

impl RotatE {
    /// Initialise; `cfg.dim` must be even.
    pub fn init(
        n_entities: usize,
        n_relations: usize,
        cfg: TdmConfig,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(cfg.dim.is_multiple_of(2), "RotatE needs an even dimension");
        let mut ent = Mat::zeros(n_entities, cfg.dim);
        rng.xavier_uniform(cfg.dim, ent.as_mut_slice());
        let mut phase = Mat::zeros(n_relations, cfg.dim / 2);
        for v in phase.as_mut_slice() {
            *v = rng.uniform_range(-std::f64::consts::PI, std::f64::consts::PI) as f32;
        }
        RotatE { ent, phase, cfg }
    }

    /// Residual `h ∘ r - t` into `(re, im)` halves of `out`.
    fn residual(&self, h: usize, r: usize, t: usize, out: &mut [f32]) {
        let half = self.cfg.dim / 2;
        let hv = self.ent.row(h);
        let tv = self.ent.row(t);
        let ph = self.phase.row(r);
        for i in 0..half {
            let (c, s) = (ph[i].cos(), ph[i].sin());
            let (hre, him) = (hv[i], hv[half + i]);
            out[i] = hre * c - him * s - tv[i];
            out[half + i] = hre * s + him * c - tv[half + i];
        }
    }

    fn distance(&self, h: usize, r: usize, t: usize) -> f32 {
        let mut res = vec![0.0f32; self.cfg.dim];
        self.residual(h, r, t, &mut res);
        kg_linalg::vecops::norm2(&res)
    }

    /// Gradient step on one triple; `dir` is +1 for positives (minimise
    /// distance) and -1 for negatives.
    fn grad_step(&mut self, tr: Triple, dir: f32) {
        let half = self.cfg.dim / 2;
        let (hi, ri, ti) = (tr.h.idx(), tr.r.idx(), tr.t.idx());
        let mut res = vec![0.0f32; self.cfg.dim];
        self.residual(hi, ri, ti, &mut res);
        let d = kg_linalg::vecops::norm2(&res).max(1e-6);
        let scale = dir * self.cfg.lr / d; // d‖res‖/dres = res / ‖res‖
        for i in 0..half {
            let ph = self.phase.get(ri, i);
            let (c, s) = (ph.cos(), ph.sin());
            let (hre, him) = (self.ent.get(hi, i), self.ent.get(hi, half + i));
            let (gre, gim) = (res[i], res[half + i]);
            // dres_re/dh_re = cos, dres_re/dh_im = -sin, dres_im/dh_re = sin, dres_im/dh_im = cos
            let dh_re = gre * c + gim * s;
            let dh_im = -gre * s + gim * c;
            self.ent.set(hi, i, hre - scale * dh_re);
            self.ent.set(hi, half + i, him - scale * dh_im);
            // dres/dt = -I
            self.ent.set(ti, i, self.ent.get(ti, i) + scale * gre);
            self.ent.set(ti, half + i, self.ent.get(ti, half + i) + scale * gim);
            // dres_re/dθ = -h_re sin - h_im cos ; dres_im/dθ = h_re cos - h_im sin
            let dtheta = gre * (-hre * s - him * c) + gim * (hre * c - him * s);
            self.phase.set(ri, i, ph - scale * dtheta);
        }
    }

    /// Train with the margin loss `max(0, γ + d(pos) - d(neg))`; returns
    /// per-epoch mean hinge losses.
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
                        + self.distance(pos.h.idx(), pos.r.idx(), pos.t.idx())
                        - self.distance(neg.h.idx(), neg.r.idx(), neg.t.idx());
                    if loss > 0.0 {
                        self.grad_step(pos, 1.0);
                        self.grad_step(neg, -1.0);
                        total += loss;
                    }
                    count += 1;
                }
            }
            losses.push(if count > 0 { total / count as f32 } else { 0.0 });
        }
        losses
    }
}

impl LinkPredictor for RotatE {
    fn n_entities(&self) -> usize {
        self.ent.rows()
    }

    fn n_relations(&self) -> Option<usize> {
        Some(self.phase.rows())
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

/// The rotation doesn't factor as `⟨query, entity⟩`, so batch scoring rides
/// the default per-row loop — but shards *are* native, via paired `(re, im)`
/// lanes. Tail queries rotate the head **once** per query (`h ∘ r` is
/// entity-independent) and then stream only the shard's tail rows through
/// the residual-subtract-and-norm loop; head queries hoist the per-phase
/// `cos`/`sin` pair and rotate each shard entity in paired lanes. Both
/// restrict work to the shard width while performing, per entity, exactly
/// the floating-point operations of the private `RotatE::distance` in the
/// same order
/// (`cos`/`sin` are deterministic, so hoisting them re-uses the identical
/// values), so shard columns are bit-identical to the full-table rows.
impl BatchScorer for RotatE {
    fn score_shard(
        &self,
        tails: &[(usize, usize)],
        heads: &[(usize, usize)],
        shard: std::ops::Range<usize>,
        out: &mut [f32],
        _: &mut BatchScratch,
    ) {
        let n = self.n_entities();
        let width = checked_shard_width(&shard, n, tails.len() + heads.len(), out.len());
        let (tail_out, head_out) = out.split_at_mut(tails.len() * width);
        let half = self.cfg.dim / 2;
        let mut rot = vec![0.0f32; self.cfg.dim];
        let mut res = vec![0.0f32; self.cfg.dim];
        for (i, &(h, r)) in tails.iter().enumerate() {
            // Rotate the head once per query: rot = h ∘ r.
            let hv = self.ent.row(h);
            let ph = self.phase.row(r);
            for j in 0..half {
                let (c, s) = (ph[j].cos(), ph[j].sin());
                let (hre, him) = (hv[j], hv[half + j]);
                rot[j] = hre * c - him * s;
                rot[half + j] = hre * s + him * c;
            }
            let out_row = &mut tail_out[i * width..(i + 1) * width];
            for (o, e) in out_row.iter_mut().zip(shard.clone()) {
                let tv = self.ent.row(e);
                // `(hre·c − him·s) − tv[j]`: the same op order as
                // `residual`, with the rotation reused across the shard.
                for j in 0..self.cfg.dim {
                    res[j] = rot[j] - tv[j];
                }
                *o = -kg_linalg::vecops::norm2(&res);
            }
        }
        let (mut cos, mut sin) = (vec![0.0f32; half], vec![0.0f32; half]);
        for (i, &(r, t)) in heads.iter().enumerate() {
            // The head varies per entity, so hoist only the phase pair.
            let ph = self.phase.row(r);
            for j in 0..half {
                cos[j] = ph[j].cos();
                sin[j] = ph[j].sin();
            }
            let tv = self.ent.row(t);
            let out_row = &mut head_out[i * width..(i + 1) * width];
            for (o, e) in out_row.iter_mut().zip(shard.clone()) {
                let ev = self.ent.row(e);
                for j in 0..half {
                    let (hre, him) = (ev[j], ev[half + j]);
                    res[j] = hre * cos[j] - him * sin[j] - tv[j];
                    res[half + j] = hre * sin[j] + him * cos[j] - tv[half + j];
                }
                *o = -kg_linalg::vecops::norm2(&res);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_support::assert_consistent_scoring;

    #[test]
    fn rotation_preserves_norm() {
        let mut rng = SeededRng::new(55);
        let m = RotatE::init(4, 1, TdmConfig { dim: 8, ..TdmConfig::default() }, &mut rng);
        // ‖h ∘ r‖ = ‖h‖ since |r_i| = 1 ⇒ residual to t=0-vector has norm ‖h‖
        let mut res = vec![0.0f32; 8];
        let mut zeroed = m.clone();
        for i in 0..8 {
            zeroed.ent.set(1, i, 0.0);
        }
        zeroed.residual(0, 0, 1, &mut res);
        let rotated_norm = kg_linalg::vecops::norm2(&res);
        let h_norm = kg_linalg::vecops::norm2(m.ent.row(0));
        assert!((rotated_norm - h_norm).abs() < 1e-4);
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = SeededRng::new(56);
        // a symmetric relation: pairs in both directions — RotatE can model
        // it with θ = π
        let mut triples = Vec::new();
        for i in 0..12u32 {
            triples.push(Triple::new(2 * i, 0, 2 * i + 1));
            triples.push(Triple::new(2 * i + 1, 0, 2 * i));
        }
        let cfg = TdmConfig { dim: 16, epochs: 40, lr: 0.05, margin: 3.0, n_negatives: 2 };
        let mut m = RotatE::init(24, 1, cfg, &mut rng);
        let losses = m.train(&triples, &mut rng);
        let early: f32 = losses[..5].iter().sum::<f32>() / 5.0;
        let late: f32 = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(late < early, "loss did not decrease: {early} -> {late}");
    }

    #[test]
    fn scoring_paths_consistent() {
        let mut rng = SeededRng::new(57);
        let m = RotatE::init(9, 2, TdmConfig { dim: 8, ..TdmConfig::default() }, &mut rng);
        assert_consistent_scoring(&m, 2, 0, 5);
        assert_consistent_scoring(&m, 8, 1, 1);
    }

    /// The paired-lane shard kernel must be bit-identical to the per-query
    /// reference: hoisting the rotation (tails) and the `cos`/`sin` pair
    /// (heads) reuses identical values, never reorders an operation.
    #[test]
    fn native_shard_kernel_matches_per_query_bit_for_bit() {
        use crate::batch::test_support::{
            assert_batch_matches_per_query, assert_shards_match_per_query,
        };
        let mut rng = SeededRng::new(59);
        let m = RotatE::init(13, 2, TdmConfig { dim: 8, ..TdmConfig::default() }, &mut rng);
        let tails = [(0, 0), (5, 1), (12, 0)];
        let heads = [(1, 3), (0, 12), (1, 0)];
        assert_batch_matches_per_query(&m, &tails, &heads);
        assert_shards_match_per_query(&m, &tails, &heads);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SeededRng::new(58);
        let cfg = TdmConfig { dim: 4, epochs: 1, lr: 1.0, margin: 0.0, n_negatives: 1 };
        let m = RotatE::init(3, 1, cfg, &mut rng);
        // numeric check of d(distance)/d(phase[0])
        let eps = 1e-3f32;
        let mut mp = m.clone();
        mp.phase.set(0, 0, m.phase.get(0, 0) + eps);
        let mut mm = m.clone();
        mm.phase.set(0, 0, m.phase.get(0, 0) - eps);
        let num = (mp.distance(0, 0, 1) - mm.distance(0, 0, 1)) / (2.0 * eps);
        // analytic: replicate the grad_step formula
        let half = 2;
        let mut res = vec![0.0f32; 4];
        m.residual(0, 0, 1, &mut res);
        let d = kg_linalg::vecops::norm2(&res);
        let ph = m.phase.get(0, 0);
        let (c, s) = (ph.cos(), ph.sin());
        let (hre, him) = (m.ent.get(0, 0), m.ent.get(0, half));
        let dtheta = (res[0] * (-hre * s - him * c) + res[half] * (hre * c - him * s)) / d;
        assert!((num - dtheta).abs() < 1e-2, "fd {num} vs analytic {dtheta}");
    }
}
