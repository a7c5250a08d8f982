//! Triplet classification (Sec. V-C / Tab. VI).
//!
//! Decide whether a given `(h, r, t)` holds: positive iff its score exceeds
//! the relation-specific threshold `σ_r`, tuned to maximise validation
//! accuracy. The benchmark datasets ship fixed negative triples; our
//! generated datasets don't, so [`make_negatives`] corrupts one side of
//! each positive and rejects corruptions that hit known positives — the
//! construction the original task (Socher et al.) used.

use kg_core::{FilterIndex, Triple};
use kg_linalg::SeededRng;
use kg_models::LinkPredictor;
use serde::{Deserialize, Serialize};

/// Per-relation decision thresholds with a global fallback.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Thresholds {
    per_relation: Vec<Option<f32>>,
    global: f32,
}

impl Thresholds {
    /// The threshold used for relation `r`.
    pub fn for_relation(&self, r: usize) -> f32 {
        self.per_relation.get(r).copied().flatten().unwrap_or(self.global)
    }
}

/// Generate one negative per positive by corrupting head or tail, avoiding
/// known positives (filtered corruption).
pub fn make_negatives(
    positives: &[Triple],
    filter: &FilterIndex,
    n_entities: usize,
    rng: &mut SeededRng,
) -> Vec<Triple> {
    positives
        .iter()
        .map(|&tr| {
            for _ in 0..64 {
                let e = rng.below(n_entities) as u32;
                let neg = if rng.coin() {
                    Triple::new(e, tr.r.0, tr.t.0)
                } else {
                    Triple::new(tr.h.0, tr.r.0, e)
                };
                if !filter.known(neg.h, neg.r, neg.t) && !neg.is_loop() {
                    return neg;
                }
            }
            // pathological fallback: give up on filtering
            Triple::new(tr.t.0, tr.r.0, tr.h.0)
        })
        .collect()
}

/// Scores for a triple set under a model.
fn score_all(model: &dyn LinkPredictor, triples: &[Triple]) -> Vec<f32> {
    triples.iter().map(|t| model.score_triple(t.h.idx(), t.r.idx(), t.t.idx())).collect()
}

/// Find the threshold maximising accuracy over (score, label) pairs when
/// `score >= threshold` is called positive. Cuts fall only between distinct
/// consecutive scores — a cut `c` with `a < c <= b`, the midpoint unless it
/// rounds onto `a` — or strictly above the maximum, so the accuracy the
/// sweep counts is the one the threshold realises, whatever the input order.
fn best_threshold(mut pairs: Vec<(f32, bool)>) -> f32 {
    assert!(!pairs.is_empty(), "cannot tune a threshold on no data");
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total_pos: usize = pairs.iter().filter(|p| p.1).count();
    // Sweep: classify "≥ cut" as positive. Start below the minimum.
    let mut best_acc = total_pos; // everything predicted positive
    let mut best_cut = pairs[0].0 - 1.0;
    let mut pos_below = 0usize;
    let mut neg_below = 0usize;
    for i in 0..pairs.len() {
        if pairs[i].1 {
            pos_below += 1;
        } else {
            neg_below += 1;
        }
        // cut above pairs[i]; no cut separates it from an equal score
        let (a, next) = (pairs[i].0, pairs.get(i + 1).map(|p| p.0));
        if next == Some(a) {
            continue;
        }
        let correct = neg_below + (total_pos - pos_below);
        if correct > best_acc {
            best_acc = correct;
            let cut = next.map_or(a + 1.0, |b| (a + b) / 2.0);
            best_cut = if a < cut && next.is_none_or(|b| cut <= b) {
                cut
            } else {
                next.unwrap_or(a.next_up())
            };
        }
    }
    best_cut
}

/// Tune per-relation thresholds on validation positives/negatives.
pub fn tune_thresholds(
    model: &dyn LinkPredictor,
    valid_pos: &[Triple],
    valid_neg: &[Triple],
    n_relations: usize,
) -> Thresholds {
    let pos_scores = score_all(model, valid_pos);
    let neg_scores = score_all(model, valid_neg);
    let mut by_rel: Vec<Vec<(f32, bool)>> = vec![Vec::new(); n_relations];
    let mut all: Vec<(f32, bool)> = Vec::with_capacity(pos_scores.len() + neg_scores.len());
    for (t, &s) in valid_pos.iter().zip(&pos_scores) {
        by_rel[t.r.idx()].push((s, true));
        all.push((s, true));
    }
    for (t, &s) in valid_neg.iter().zip(&neg_scores) {
        by_rel[t.r.idx()].push((s, false));
        all.push((s, false));
    }
    let global = if all.is_empty() { 0.0 } else { best_threshold(all) };
    let per_relation = by_rel
        .into_iter()
        .map(|pairs| {
            // need both classes to tune meaningfully
            let has_pos = pairs.iter().any(|p| p.1);
            let has_neg = pairs.iter().any(|p| !p.1);
            if has_pos && has_neg {
                Some(best_threshold(pairs))
            } else {
                None
            }
        })
        .collect();
    Thresholds { per_relation, global }
}

/// Classification accuracy on test positives/negatives under thresholds.
pub fn accuracy(
    model: &dyn LinkPredictor,
    test_pos: &[Triple],
    test_neg: &[Triple],
    thresholds: &Thresholds,
) -> f64 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for t in test_pos {
        let s = model.score_triple(t.h.idx(), t.r.idx(), t.t.idx());
        if s >= thresholds.for_relation(t.r.idx()) {
            correct += 1;
        }
        total += 1;
    }
    for t in test_neg {
        let s = model.score_triple(t.h.idx(), t.r.idx(), t.t.idx());
        if s < thresholds.for_relation(t.r.idx()) {
            correct += 1;
        }
        total += 1;
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Model that scores a triple by whether it's in a golden set.
    struct Golden {
        set: std::collections::HashSet<(usize, usize, usize)>,
        n: usize,
    }

    impl LinkPredictor for Golden {
        fn n_entities(&self) -> usize {
            self.n
        }
        fn score_triple(&self, h: usize, r: usize, t: usize) -> f32 {
            if self.set.contains(&(h, r, t)) {
                1.0
            } else {
                -1.0
            }
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

    fn golden(pos: &[Triple]) -> Golden {
        Golden { set: pos.iter().map(|t| (t.h.idx(), t.r.idx(), t.t.idx())).collect(), n: 20 }
    }

    #[test]
    fn perfect_model_achieves_perfect_accuracy() {
        let pos: Vec<Triple> = (0..10).map(|i| Triple::new(i, i % 2, (i + 1) % 20)).collect();
        let m = golden(&pos);
        let mut rng = SeededRng::new(1);
        let filter = FilterIndex::build(&pos);
        let neg = make_negatives(&pos, &filter, 20, &mut rng);
        let th = tune_thresholds(&m, &pos, &neg, 2);
        assert_eq!(accuracy(&m, &pos, &neg, &th), 1.0);
    }

    #[test]
    fn negatives_avoid_known_positives() {
        let pos: Vec<Triple> = (0..15).map(|i| Triple::new(i, 0, (i + 1) % 16)).collect();
        let filter = FilterIndex::build(&pos);
        let mut rng = SeededRng::new(2);
        let neg = make_negatives(&pos, &filter, 16, &mut rng);
        assert_eq!(neg.len(), pos.len());
        for n in &neg {
            assert!(!filter.known(n.h, n.r, n.t), "negative {n} is a known positive");
        }
    }

    #[test]
    fn per_relation_thresholds_beat_global_when_scales_differ() {
        // relation 0 separates at 0; relation 1 separates at 10 — one global
        // threshold cannot satisfy both.
        struct TwoScales;
        impl LinkPredictor for TwoScales {
            fn n_entities(&self) -> usize {
                8
            }
            fn score_triple(&self, h: usize, r: usize, _t: usize) -> f32 {
                // heads 0..4 are "positive-looking"
                let base = if h < 4 { 1.0 } else { -1.0 };
                if r == 0 {
                    base
                } else {
                    10.0 + base
                }
            }
            fn score_tails(&self, h: usize, r: usize, out: &mut [f32]) {
                for (e, o) in out.iter_mut().enumerate() {
                    let _ = e;
                    *o = self.score_triple(h, r, 0);
                }
            }
            fn score_heads(&self, r: usize, t: usize, out: &mut [f32]) {
                for (e, o) in out.iter_mut().enumerate() {
                    *o = self.score_triple(e, r, t);
                }
            }
        }
        let pos: Vec<Triple> =
            (0..4).flat_map(|h| [Triple::new(h, 0, 5), Triple::new(h, 1, 5)]).collect();
        let neg: Vec<Triple> =
            (4..8).flat_map(|h| [Triple::new(h, 0, 5), Triple::new(h, 1, 5)]).collect();
        let th = tune_thresholds(&TwoScales, &pos, &neg, 2);
        assert_eq!(accuracy(&TwoScales, &pos, &neg, &th), 1.0);
        assert!(th.for_relation(0) < 5.0);
        assert!(th.for_relation(1) > 5.0);
    }

    #[test]
    fn unseen_relation_uses_global_threshold() {
        let pos = vec![Triple::new(0, 0, 1)];
        let neg = vec![Triple::new(2, 0, 3)];
        let m = golden(&pos);
        let th = tune_thresholds(&m, &pos, &neg, 5);
        // relation 4 never observed → global fallback
        assert_eq!(th.for_relation(4), th.global);
    }

    #[test]
    fn threshold_sweep_handles_all_negative_best() {
        // scores: positives low, negatives high → best is to flip... the
        // sweep can only pick "≥ cut = positive", so best accuracy puts the
        // cut above everything (all predicted negative) or below; verify no
        // panic and a sane threshold.
        let pairs = vec![(0.0f32, true), (1.0, false), (2.0, false)];
        let cut = best_threshold(pairs);
        assert!(cut.is_finite());
    }

    /// How many of `pairs` the threshold `cut` classifies correctly.
    fn realised(pairs: &[(f32, bool)], cut: f32) -> usize {
        pairs.iter().filter(|&&(s, positive)| (s >= cut) == positive).count()
    }

    #[test]
    fn tied_scores_get_one_cut_in_either_order() {
        // No cut separates the two 1.0 scores: the best realisable is 2/3
        // (everything positive), not the 3/3 a cut between them promises.
        let tie = [(1.0f32, false), (1.0, true), (2.0, true)];
        let swapped = [tie[1], tie[0], tie[2]];
        let (cut, cut_swapped) = (best_threshold(tie.to_vec()), best_threshold(swapped.to_vec()));
        assert_eq!(cut, cut_swapped);
        assert_eq!(realised(&tie, cut), 2);
        assert!(cut <= 1.0, "cut {cut}");
    }

    #[test]
    fn adjacent_scores_are_separated() {
        // The midpoint of two adjacent floats rounds onto the lower one.
        let pairs = [(1.0f32, false), (1.0f32.next_up(), true)];
        assert_eq!(realised(&pairs, best_threshold(pairs.to_vec())), 2);
        // `max + 1` is the maximum itself once the float spacing exceeds 1.
        let huge = [(2.0e8f32, false), (3.0e8, false)];
        assert_eq!(realised(&huge, best_threshold(huge.to_vec())), 2);
    }

    #[test]
    fn tuned_threshold_realises_the_best_accuracy() {
        // Every cut `s >= c` can realise is some score, or above them all.
        let scores = [0.5f32, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0];
        for mask in 0u32..1 << scores.len() {
            let pairs: Vec<(f32, bool)> =
                scores.iter().enumerate().map(|(i, &s)| (s, mask >> i & 1 == 1)).collect();
            let best = scores.iter().map(|&c| realised(&pairs, c)).max().unwrap();
            let best = best.max(realised(&pairs, f32::INFINITY));
            for order in [pairs.clone(), pairs.iter().rev().copied().collect()] {
                assert_eq!(realised(&pairs, best_threshold(order)), best, "{pairs:?}");
            }
        }
    }

    #[test]
    fn empty_test_set_gives_zero() {
        let pos = vec![Triple::new(0, 0, 1)];
        let m = golden(&pos);
        let th = tune_thresholds(&m, &pos, &[Triple::new(1, 0, 0)], 1);
        assert_eq!(accuracy(&m, &[], &[], &th), 0.0);
    }
}
