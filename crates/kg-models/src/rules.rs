//! A simplified anytime bottom-up rule learner, standing in for AnyBURL
//! (Meilicke et al. 2019 — the rule-based row of Tab. IV).
//!
//! We mine the three Horn-rule shapes that explain most of AnyBURL's
//! benchmark performance:
//!
//! * equivalence  `r(X, Y) ← r₂(X, Y)`
//! * inversion    `r(X, Y) ← r₂(Y, X)`
//! * composition  `r(X, Y) ← r₁(X, Z) ∧ r₂(Z, Y)`
//!
//! each scored by its Laplace-smoothed confidence
//! `support / (body_count + pc)`. Prediction aggregates by maximum rule
//! confidence (AnyBURL's max-aggregation). The full AnyBURL system also
//! samples longer paths and constant-bound rules under an anytime budget;
//! this stand-in does neither.

use crate::batch::{checked_shard_width, BatchScorer, BatchScratch};
use crate::predictor::LinkPredictor;
use kg_core::fxhash::FxHashSet;
use kg_core::{EntityId, FilterIndex, RelationId, Triple};
use serde::{Deserialize, Serialize};

/// The body shape of a mined rule for head relation `r`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RuleBody {
    /// `r(X,Y) ← other(X,Y)`
    Equivalence(RelationId),
    /// `r(X,Y) ← other(Y,X)`
    Inversion(RelationId),
    /// `r(X,Y) ← first(X,Z) ∧ second(Z,Y)`
    Composition(RelationId, RelationId),
}

/// A mined rule with its confidence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// Head relation the rule predicts.
    pub head: RelationId,
    /// Body shape.
    pub body: RuleBody,
    /// Laplace-smoothed confidence in (0, 1].
    pub confidence: f32,
    /// Number of body groundings that are known positives.
    pub support: usize,
}

/// Mining hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RuleConfig {
    /// Minimum support to keep a rule.
    pub min_support: usize,
    /// Minimum confidence to keep a rule.
    pub min_confidence: f32,
    /// Laplace pseudo-count in the confidence denominator.
    pub pseudo_count: f32,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig { min_support: 3, min_confidence: 0.1, pseudo_count: 5.0 }
    }
}

/// A trained rule model: the mined rules plus the training-graph index used
/// to ground them at prediction time.
pub struct RuleModel {
    rules_by_head: Vec<Vec<Rule>>,
    index: FilterIndex,
    n_entities: usize,
}

impl RuleModel {
    /// Mine rules from the training triples.
    pub fn learn(
        triples: &[Triple],
        n_entities: usize,
        n_relations: usize,
        cfg: RuleConfig,
    ) -> Self {
        let index = FilterIndex::build(triples);
        // per-relation pair sets
        let mut pairs: Vec<Vec<(EntityId, EntityId)>> = vec![Vec::new(); n_relations];
        for t in triples {
            pairs[t.r.idx()].push((t.h, t.t));
        }
        let pair_sets: Vec<FxHashSet<(EntityId, EntityId)>> =
            pairs.iter().map(|ps| ps.iter().copied().collect()).collect();

        let mut rules_by_head: Vec<Vec<Rule>> = vec![Vec::new(); n_relations];
        let conf = |support: usize, body: usize| support as f32 / (body as f32 + cfg.pseudo_count);

        // Equivalence and inversion: one pass per (body, head) pair.
        for body_rel in 0..n_relations {
            let body_pairs = &pairs[body_rel];
            if body_pairs.is_empty() {
                continue;
            }
            let mut eq_support = vec![0usize; n_relations];
            let mut inv_support = vec![0usize; n_relations];
            for &(x, y) in body_pairs {
                for head in 0..n_relations {
                    if head != body_rel && pair_sets[head].contains(&(x, y)) {
                        eq_support[head] += 1;
                    }
                    if head != body_rel && pair_sets[head].contains(&(y, x)) {
                        inv_support[head] += 1;
                    }
                }
            }
            for head in 0..n_relations {
                let body_n = body_pairs.len();
                for (support, mk) in [
                    (eq_support[head], RuleBody::Equivalence(RelationId(body_rel as u32))),
                    (inv_support[head], RuleBody::Inversion(RelationId(body_rel as u32))),
                ] {
                    let c = conf(support, body_n);
                    if support >= cfg.min_support && c >= cfg.min_confidence {
                        rules_by_head[head].push(Rule {
                            head: RelationId(head as u32),
                            body: mk,
                            confidence: c,
                            support,
                        });
                    }
                }
            }
        }

        // Composition: ground r1 ∘ r2 joins and count which heads they hit.
        for r1 in 0..n_relations {
            if pairs[r1].is_empty() {
                continue;
            }
            for r2 in 0..n_relations {
                if pairs[r2].is_empty() {
                    continue;
                }
                let mut body_count = 0usize;
                let mut support = vec![0usize; n_relations];
                let mut seen: FxHashSet<(EntityId, EntityId)> = FxHashSet::default();
                for &(x, z) in &pairs[r1] {
                    for &y in index.tails(z, RelationId(r2 as u32)) {
                        if x == y || !seen.insert((x, y)) {
                            continue;
                        }
                        body_count += 1;
                        for head in 0..n_relations {
                            if pair_sets[head].contains(&(x, y)) {
                                support[head] += 1;
                            }
                        }
                    }
                }
                if body_count == 0 {
                    continue;
                }
                for head in 0..n_relations {
                    // skip trivial self-explanations
                    if head == r1 && head == r2 {
                        continue;
                    }
                    let c = conf(support[head], body_count);
                    if support[head] >= cfg.min_support && c >= cfg.min_confidence {
                        rules_by_head[head].push(Rule {
                            head: RelationId(head as u32),
                            body: RuleBody::Composition(
                                RelationId(r1 as u32),
                                RelationId(r2 as u32),
                            ),
                            confidence: c,
                            support: support[head],
                        });
                    }
                }
            }
        }

        for rules in &mut rules_by_head {
            rules.sort_by(|a, b| b.confidence.total_cmp(&a.confidence));
        }
        RuleModel { rules_by_head, index, n_entities }
    }

    /// All rules mined for head relation `r`, best first.
    pub fn rules_for(&self, r: RelationId) -> &[Rule] {
        &self.rules_by_head[r.idx()]
    }

    /// Total number of rules.
    pub fn n_rules(&self) -> usize {
        self.rules_by_head.iter().map(Vec::len).sum()
    }

    /// Max-aggregate candidate tails of `(h, r, ?)` into `out`, whose first
    /// element is entity `start` (adding each candidate's best rule
    /// confidence); groundings outside `start .. start + out.len()` are
    /// skipped.
    fn apply_tail_rules(&self, h: EntityId, r: RelationId, start: usize, out: &mut [f32]) {
        for rule in &self.rules_by_head[r.idx()] {
            let mut ground = |ys: &[EntityId]| max_into(out, start, ys, rule.confidence);
            match rule.body {
                RuleBody::Equivalence(b) => ground(self.index.tails(h, b)),
                RuleBody::Inversion(b) => ground(self.index.heads(b, h)),
                RuleBody::Composition(b1, b2) => {
                    for &z in self.index.tails(h, b1) {
                        ground(self.index.tails(z, b2));
                    }
                }
            }
        }
    }

    /// Max-aggregate candidate heads of `(?, r, t)` into `out`, whose first
    /// element is entity `start`.
    fn apply_head_rules(&self, r: RelationId, t: EntityId, start: usize, out: &mut [f32]) {
        for rule in &self.rules_by_head[r.idx()] {
            let mut ground = |xs: &[EntityId]| max_into(out, start, xs, rule.confidence);
            match rule.body {
                RuleBody::Equivalence(b) => ground(self.index.heads(b, t)),
                RuleBody::Inversion(b) => ground(self.index.tails(t, b)),
                RuleBody::Composition(b1, b2) => {
                    for &z in self.index.heads(b2, t) {
                        ground(self.index.heads(b1, z));
                    }
                }
            }
        }
    }
}

/// Raise each candidate of `es` that falls inside `out` — whose first
/// element is entity `start` — to at least confidence `c`.
fn max_into(out: &mut [f32], start: usize, es: &[EntityId], c: f32) {
    for e in es {
        if let Some(o) = e.idx().checked_sub(start).and_then(|i| out.get_mut(i)) {
            *o = o.max(c);
        }
    }
}

impl LinkPredictor for RuleModel {
    fn n_entities(&self) -> usize {
        self.n_entities
    }

    fn n_relations(&self) -> Option<usize> {
        Some(self.rules_by_head.len())
    }

    fn score_triple(&self, h: usize, r: usize, t: usize) -> f32 {
        let mut out = [0.0f32];
        self.apply_tail_rules(EntityId(h as u32), RelationId(r as u32), t, &mut out);
        out[0]
    }

    fn score_tails(&self, h: usize, r: usize, out: &mut [f32]) {
        kg_linalg::vecops::zero(out);
        self.apply_tail_rules(EntityId(h as u32), RelationId(r as u32), 0, out);
    }

    fn score_heads(&self, r: usize, t: usize, out: &mut [f32]) {
        kg_linalg::vecops::zero(out);
        self.apply_head_rules(RelationId(r as u32), EntityId(t as u32), 0, out);
    }
}

/// Rule scores come from index lookups, not dot products: a shard grounds
/// each row's rules once and keeps the groundings inside it. Max-aggregation
/// of non-negative confidences starting from `0.0` does not depend on
/// order, so every shard's bytes equal that slice of the full row.
impl BatchScorer for RuleModel {
    fn score_shard(
        &self,
        tails: &[(usize, usize)],
        heads: &[(usize, usize)],
        shard: std::ops::Range<usize>,
        out: &mut [f32],
        _: &mut BatchScratch,
    ) {
        let width =
            checked_shard_width(&shard, self.n_entities, tails.len() + heads.len(), out.len());
        kg_linalg::vecops::zero(out);
        if width == 0 {
            return;
        }
        let (tail_out, head_out) = out.split_at_mut(tails.len() * width);
        for (&(h, r), row) in tails.iter().zip(tail_out.chunks_exact_mut(width)) {
            self.apply_tail_rules(EntityId(h as u32), RelationId(r as u32), shard.start, row);
        }
        for (&(r, t), row) in heads.iter().zip(head_out.chunks_exact_mut(width)) {
            self.apply_head_rules(RelationId(r as u32), EntityId(t as u32), shard.start, row);
        }
    }
}

/// Helper: lookup a rule by body shape.
pub fn find_rule(rules: &[Rule], body: RuleBody) -> Option<&Rule> {
    rules.iter().find(|r| r.body == body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// r0: i -> i+50; r1 mirrors r0.
    fn inverse_data() -> Vec<Triple> {
        let mut ts = Vec::new();
        for i in 0..20u32 {
            ts.push(Triple::new(i, 0, i + 50));
            ts.push(Triple::new(i + 50, 1, i));
        }
        ts
    }

    #[test]
    fn mines_inversion_rule() {
        let m = RuleModel::learn(&inverse_data(), 80, 2, RuleConfig::default());
        let r = find_rule(m.rules_for(RelationId(0)), RuleBody::Inversion(RelationId(1)))
            .expect("inversion rule for r0 ← r1 reversed");
        assert!(r.confidence > 0.7, "confidence {}", r.confidence);
        assert_eq!(r.support, 20);
    }

    #[test]
    fn inversion_rule_predicts_held_out_tail() {
        // train on everything except (19, r0, 69); its mirror IS in train.
        let mut train = inverse_data();
        train.retain(|t| *t != Triple::new(19, 0, 69));
        let m = RuleModel::learn(&train, 80, 2, RuleConfig::default());
        let mut scores = vec![0.0f32; 80];
        m.score_tails(19, 0, &mut scores);
        let best =
            scores.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap();
        assert_eq!(best, 69, "rule should recover the mirrored edge");
    }

    #[test]
    fn mines_composition_rule() {
        // r0: a→b (i → i+30), r1: b→c (i+30 → i+60), r2 = r0∘r1 direct edges
        let mut ts = Vec::new();
        for i in 0..15u32 {
            ts.push(Triple::new(i, 0, i + 30));
            ts.push(Triple::new(i + 30, 1, i + 60));
            ts.push(Triple::new(i, 2, i + 60));
        }
        let m = RuleModel::learn(&ts, 90, 3, RuleConfig::default());
        let r = find_rule(
            m.rules_for(RelationId(2)),
            RuleBody::Composition(RelationId(0), RelationId(1)),
        )
        .expect("composition rule");
        assert!(r.confidence > 0.6);
    }

    #[test]
    fn head_scoring_mirrors_tail_scoring() {
        let m = RuleModel::learn(&inverse_data(), 80, 2, RuleConfig::default());
        let mut heads = vec![0.0f32; 80];
        m.score_heads(0, 55, &mut heads);
        // (5, r0, 55) should be recoverable from (55, r1, 5)
        assert!(heads[5] > 0.5, "head score {}", heads[5]);
    }

    #[test]
    fn no_rules_for_random_noise() {
        let mut rng = kg_linalg::SeededRng::new(9);
        let ts: Vec<Triple> =
            (0..60).map(|_| Triple::new(rng.below(40) as u32, 0, rng.below(40) as u32)).collect();
        let m = RuleModel::learn(&ts, 40, 1, RuleConfig::default());
        // a single random relation admits no (non-trivial) high-confidence rules
        for r in m.rules_for(RelationId(0)) {
            assert!(r.confidence < 0.5, "suspiciously confident rule {:?} on noise", r);
        }
    }

    #[test]
    fn score_triple_uses_rules() {
        let m = RuleModel::learn(&inverse_data(), 80, 2, RuleConfig::default());
        assert!(m.score_triple(3, 0, 53) > 0.5);
        assert!(m.score_triple(3, 0, 54) < 0.5);
    }

    /// `score_triple` grounds on the one-entity shard `t..t+1` — it must
    /// equal the full row's entry, bit for bit, for every triple.
    #[test]
    fn score_triple_equals_the_full_row_entry() {
        let m = RuleModel::learn(&inverse_data(), 80, 2, RuleConfig::default());
        let mut row = vec![0.0f32; 80];
        for h in 0..80 {
            for r in 0..2 {
                m.score_tails(h, r, &mut row);
                for (t, &expected) in row.iter().enumerate() {
                    assert_eq!(
                        m.score_triple(h, r, t).to_bits(),
                        expected.to_bits(),
                        "({h}, {r}, {t})"
                    );
                }
            }
        }
    }

    /// The shard override grounds each row once per shard — batch and shard
    /// blocks (mixed, ragged, six splits) must equal its per-query rows.
    #[test]
    fn batched_scores_match_per_query_bit_for_bit() {
        use crate::batch::test_support::assert_batch_matches_per_query;
        let m = RuleModel::learn(&inverse_data(), 80, 2, RuleConfig::default());
        assert_batch_matches_per_query(
            &m,
            &[(19, 0), (3, 0), (55, 1), (0, 1), (79, 0)],
            &[(0, 55), (1, 5), (0, 69)],
        );
    }
}
