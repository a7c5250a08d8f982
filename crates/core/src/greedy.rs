//! The progressive greedy search — Alg. 2.
//!
//! Starting from the complete filtered f4 space, each stage `b = 6, 8, …, B`
//! generates `N` candidates by extending random top-`K1` parents from stage
//! `b-2` with two random multiplicative terms (Eq. 7), pushes them through
//! the filter (C2 + invariance dedup), keeps the `K2` most promising
//! according to the predictor, trains those in parallel and records their
//! validation MRR. The predictor refits on all records after every stage.
//!
//! The `use_filter` / `use_predictor` switches implement the ablations of
//! Fig. 7 (and plain "Greedy" when both are off); `feature` switches SRF
//! vs one-hot for Fig. 8.

use crate::filter::{satisfies_c2, DedupFilter};
use crate::invariance::OrbitKey;
use crate::predictor::{FeatureKind, PerformancePredictor};
use crate::search::SearchDriver;
use crate::space::{enumerate_b4, extend_two};
use kg_linalg::SeededRng;
use kg_models::BlockSpec;
use serde::{Deserialize, Serialize};

/// Meta hyper-parameters of Alg. 2.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GreedyConfig {
    /// Largest structure size `B` (inclusive; stages run b = 6, 8, …, B).
    pub b_max: usize,
    /// Candidates generated per stage (`N`, paper default 256).
    pub n_candidates: usize,
    /// Parents sampled from the top of the previous stage (`K1`, paper 8).
    pub k1: usize,
    /// Candidates trained per stage (`K2`, paper 8).
    pub k2: usize,
    /// Training batches per stage: the paper iterates steps 2-11 in an
    /// inner loop (e.g. 32 × 8 models); we run `rounds` rounds of
    /// N-generate / K2-train per stage.
    pub rounds: usize,
    /// Predictor feature encoding.
    pub feature: FeatureKind,
    /// Apply the C2 + invariance filter (Fig. 7 ablation).
    pub use_filter: bool,
    /// Use the predictor to pick the K2 (Fig. 7 ablation; random when off).
    pub use_predictor: bool,
    /// RNG seed for candidate generation.
    pub seed: u64,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig {
            b_max: 8,
            n_candidates: 64,
            k1: 8,
            k2: 8,
            rounds: 2,
            feature: FeatureKind::Srf,
            use_filter: true,
            use_predictor: true,
            seed: 0,
        }
    }
}

/// Wall-clock accounting of one greedy stage round (Tab. VII rows).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StageTiming {
    /// Structure size `b` of this stage.
    pub b: usize,
    /// Seconds in candidate generation + filtering (Alg. 2 steps 2-6).
    pub filter_secs: f64,
    /// Seconds in predictor ranking + refit (steps 7, 10-11).
    pub predictor_secs: f64,
    /// Seconds training + evaluating the selected candidates (steps 8-9).
    pub train_eval_secs: f64,
}

/// Result of a greedy run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GreedyOutcome {
    /// The best structure found (by validation MRR).
    pub best_spec: BlockSpec,
    /// Its validation MRR.
    pub best_mrr: f64,
    /// Per-stage timing rows.
    pub timings: Vec<StageTiming>,
}

/// The progressive greedy searcher.
pub struct GreedySearch {
    cfg: GreedyConfig,
    predictor: PerformancePredictor,
}

impl GreedySearch {
    /// Create with the given meta hyper-parameters.
    pub fn new(cfg: GreedyConfig) -> Self {
        assert!(cfg.b_max >= 4 && cfg.b_max.is_multiple_of(2), "B must be an even number ≥ 4");
        assert!(cfg.k1 > 0 && cfg.k2 > 0 && cfg.n_candidates >= cfg.k2, "bad K1/K2/N");
        let predictor = PerformancePredictor::new(cfg.feature, cfg.seed ^ 0x51F0);
        GreedySearch { cfg, predictor }
    }

    /// Run Alg. 2 against a driver. The driver's trace accumulates every
    /// trained structure, so any-time curves come for free.
    pub fn run(&mut self, driver: &mut SearchDriver<'_>) -> GreedyOutcome {
        let cfg = self.cfg;
        let mut rng = SeededRng::new(cfg.seed ^ 0xA5A5_5A5A_1234_8765);
        let mut timings = Vec::new();

        // Stage b=4: the filtered space is tiny — evaluate it completely
        // (the paper makes the same exception, Sec. IV-B1).
        let t0 = std::time::Instant::now();
        let b4 = enumerate_b4();
        let keys4: Vec<OrbitKey> = b4.iter().map(OrbitKey::of).collect();
        let filter_secs = t0.elapsed().as_secs_f64();
        let t0 = std::time::Instant::now();
        let scores4 = driver.evaluate_keyed(&b4, &keys4);
        timings.push(StageTiming {
            b: 4,
            filter_secs,
            predictor_secs: 0.0,
            train_eval_secs: t0.elapsed().as_secs_f64(),
        });
        // per-stage record of (spec, mrr)
        let mut tiers: Vec<Vec<(BlockSpec, f64)>> =
            vec![b4.iter().cloned().zip(scores4.iter().copied()).collect()];
        let mut all_records: Vec<(BlockSpec, f64)> = tiers[0].clone();
        let mut dedup = DedupFilter::new();
        if cfg.use_filter {
            for &key in &keys4 {
                dedup.insert(key);
            }
        }

        let mut b = 6;
        while b <= cfg.b_max {
            let mut stage = StageTiming { b, ..Default::default() };
            let mut stage_records: Vec<(BlockSpec, f64)> = Vec::new();
            for _round in 0..cfg.rounds {
                // ---- steps 2-6: generate N candidates through the filter
                let t0 = std::time::Instant::now();
                let parents = &tiers[(b - 4) / 2 - 1];
                let mut sorted_parents: Vec<&(BlockSpec, f64)> = parents.iter().collect();
                sorted_parents.sort_by(|a, b| b.1.total_cmp(&a.1));
                let top = &sorted_parents[..cfg.k1.min(sorted_parents.len())];
                let mut candidates: Vec<BlockSpec> = Vec::with_capacity(cfg.n_candidates);
                // each candidate's orbit key, computed once, here
                let mut keys: Vec<OrbitKey> = Vec::with_capacity(cfg.n_candidates);
                let mut attempts = 0usize;
                let max_attempts = cfg.n_candidates * 400;
                while candidates.len() < cfg.n_candidates && attempts < max_attempts {
                    attempts += 1;
                    let parent = &top[rng.below(top.len())].0;
                    let Some(child) = extend_two(parent, &mut rng) else { continue };
                    let key = if cfg.use_filter {
                        // the cheap reject first: most children fail (C2)
                        if !satisfies_c2(&child) {
                            continue;
                        }
                        let key = OrbitKey::of(&child);
                        if driver.seen(key) || !dedup.insert(key) {
                            continue;
                        }
                        key
                    } else {
                        // no-filter ablation: only structural validity and
                        // exact-duplicate suppression within this batch
                        // (the key is for the driver's cache)
                        if !satisfies_c2_weakly(&child) || candidates.contains(&child) {
                            continue;
                        }
                        OrbitKey::of(&child)
                    };
                    candidates.push(child);
                    keys.push(key);
                }
                stage.filter_secs += t0.elapsed().as_secs_f64();
                if candidates.is_empty() {
                    break;
                }

                // ---- step 7: predictor picks K2
                let t0 = std::time::Instant::now();
                let mut picks: Vec<usize> = if cfg.use_predictor {
                    self.predictor.rank(&candidates)
                } else {
                    rng.sample_distinct(candidates.len(), cfg.k2.min(candidates.len()))
                };
                picks.truncate(cfg.k2);
                let chosen: Vec<BlockSpec> = picks.iter().map(|&i| candidates[i].clone()).collect();
                let chosen_keys: Vec<OrbitKey> = picks.iter().map(|&i| keys[i]).collect();
                stage.predictor_secs += t0.elapsed().as_secs_f64();

                // ---- steps 8-9: train + evaluate
                let t0 = std::time::Instant::now();
                let scores = driver.evaluate_keyed(&chosen, &chosen_keys);
                stage.train_eval_secs += t0.elapsed().as_secs_f64();

                // ---- steps 10-11: record + refit predictor
                let t0 = std::time::Instant::now();
                for (spec, mrr) in chosen.into_iter().zip(scores) {
                    stage_records.push((spec.clone(), mrr));
                    all_records.push((spec, mrr));
                }
                if cfg.use_predictor {
                    self.predictor.fit(&all_records);
                }
                stage.predictor_secs += t0.elapsed().as_secs_f64();
            }
            if stage_records.is_empty() {
                // nothing could be generated at this size; stop growing
                timings.push(stage);
                break;
            }
            tiers.push(stage_records);
            timings.push(stage);
            b += 2;
        }

        let best = driver.best().expect("at least the f4 space was evaluated");
        GreedyOutcome { best_spec: best.spec.clone(), best_mrr: best.mrr, timings }
    }
}

/// The weakened admission used by the no-filter ablation: blocks must not
/// leave unused embedding components (training would silently waste
/// capacity and the comparison would be vacuous), but duplicate rows and
/// invariance equivalence go unchecked.
fn satisfies_c2_weakly(spec: &BlockSpec) -> bool {
    let m = spec.substitute_matrix();
    for i in 0..4 {
        if (0..4).all(|j| m[i][j] == 0) || (0..4).all(|j| m[j][i] == 0) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_datagen::{preset, Preset, Scale};
    use kg_train::TrainConfig;

    fn tiny_cfg() -> (TrainConfig, GreedyConfig) {
        (
            TrainConfig { dim: 16, epochs: 6, batch_size: 256, ..Default::default() },
            GreedyConfig {
                b_max: 6,
                n_candidates: 12,
                k1: 4,
                k2: 4,
                rounds: 1,
                ..Default::default()
            },
        )
    }

    #[test]
    fn greedy_runs_and_improves_over_worst_f4() {
        let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 7);
        let (tcfg, gcfg) = tiny_cfg();
        let mut driver = SearchDriver::new(&ds, tcfg, 2);
        let mut search = GreedySearch::new(gcfg);
        let outcome = search.run(&mut driver);
        assert!(outcome.best_mrr > 0.0);
        // evaluated the 5 f4 structures plus one round of K2 at b=6
        assert!(driver.models_trained() >= 5 + 4, "{} models", driver.models_trained());
        let worst_f4 =
            driver.trace.records.iter().take(5).map(|r| r.mrr).fold(f64::INFINITY, f64::min);
        assert!(outcome.best_mrr >= worst_f4);
        assert_eq!(outcome.best_spec.n_blocks() % 2, 0);
    }

    #[test]
    fn timings_cover_all_stages() {
        let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 8);
        let (tcfg, gcfg) = tiny_cfg();
        let mut driver = SearchDriver::new(&ds, tcfg, 2);
        let outcome = GreedySearch::new(gcfg).run(&mut driver);
        let bs: Vec<usize> = outcome.timings.iter().map(|t| t.b).collect();
        assert_eq!(bs, vec![4, 6]);
        assert!(outcome.timings[1].train_eval_secs > 0.0);
    }

    #[test]
    fn ablations_run() {
        let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 9);
        let (tcfg, mut gcfg) = tiny_cfg();
        gcfg.use_filter = false;
        gcfg.use_predictor = false;
        let mut driver = SearchDriver::new(&ds, tcfg, 2);
        let outcome = GreedySearch::new(gcfg).run(&mut driver);
        assert!(outcome.best_mrr > 0.0);
    }

    #[test]
    #[should_panic(expected = "B must be an even number")]
    fn odd_b_rejected() {
        let (_, mut gcfg) = tiny_cfg();
        gcfg.b_max = 7;
        GreedySearch::new(gcfg);
    }
}
