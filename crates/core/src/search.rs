//! Structure evaluation: the inner level of the bi-level AutoSF objective
//! (Definition 1). A [`SearchDriver`] takes candidate structures a batch
//! at a time and fans the uncached ones out over its threads, one
//! candidate an item: the thread that picks a candidate up trains it on
//! `S_tra`, ranks it on `S_val` (filtered MRR, the search signal), stamps
//! the moment it finished and drops the model. Results are cached per
//! orbit and traced for the any-time curves of Fig. 6-9.

use crate::invariance::OrbitKey;
use kg_core::fxhash::FxHashMap;
use kg_core::{Dataset, FilterIndex};
use kg_eval::crew::fan_out;
use kg_eval::ranking::evaluate_with;
use kg_linalg::KernelPolicy;
use kg_models::BlockSpec;
use kg_train::parallel::candidate_cfg;
use kg_train::{TrainConfig, Trainer};
use serde::{Deserialize, Serialize};

/// One evaluated structure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchRecord {
    /// The structure.
    pub spec: BlockSpec,
    /// Filtered validation MRR (the search signal).
    pub mrr: f64,
    /// How many models had been trained when this one finished (1-based).
    pub model_index: usize,
    /// Seconds since the driver was created when this candidate's
    /// validation ranking finished; not monotone within a batch at
    /// `n_threads > 1`, `model_index` is the order.
    pub seconds: f64,
}

/// The evaluation history of one search run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SearchTrace {
    /// Records in evaluation order.
    pub records: Vec<SearchRecord>,
}

impl SearchTrace {
    /// Best record so far.
    pub fn best(&self) -> Option<&SearchRecord> {
        self.records.iter().max_by(|a, b| a.mrr.total_cmp(&b.mrr))
    }

    /// "Best MRR vs models trained" curve (Fig. 6-9 presentation).
    pub fn best_so_far_curve(&self, label: &str) -> kg_eval::Curve {
        let mut c = kg_eval::Curve::new(label);
        for r in &self.records {
            c.push(r.model_index as f64, r.mrr);
        }
        c.running_best()
    }
}

/// Trains and scores candidate structures against one dataset.
pub struct SearchDriver<'a> {
    ds: &'a Dataset,
    cfg: TrainConfig,
    n_threads: usize,
    /// Kernel policy of every candidate's training and validation
    /// ranking: the environment's default, resolved once at construction,
    /// unless [`SearchDriver::policy`] pins one.
    policy: KernelPolicy,
    /// Filter over train+valid (test stays unseen during the search).
    filter: FilterIndex,
    /// Orbit → MRR. Equivalent structures train once (the cache backs the
    /// filter's "avoid training equivalents" promise even when the search
    /// is run without the filter).
    cache: FxHashMap<OrbitKey, f64>,
    /// Evaluation history.
    pub trace: SearchTrace,
    models_trained: usize,
    start: std::time::Instant,
}

impl<'a> SearchDriver<'a> {
    /// Create a driver; the filter index covers train+valid.
    pub fn new(ds: &'a Dataset, cfg: TrainConfig, n_threads: usize) -> Self {
        let mut filter = FilterIndex::build(&ds.train);
        for t in &ds.valid {
            filter.insert(*t);
        }
        SearchDriver {
            ds,
            cfg,
            n_threads,
            policy: KernelPolicy::default_from_env(),
            filter,
            cache: FxHashMap::default(),
            trace: SearchTrace::default(),
            models_trained: 0,
            start: std::time::Instant::now(),
        }
    }

    /// Pin the kernel policy every candidate trains and is ranked under,
    /// instead of the environment's default.
    pub fn policy(mut self, policy: KernelPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The dataset under search.
    pub fn dataset(&self) -> &Dataset {
        self.ds
    }

    /// Training configuration used for every candidate.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Models actually trained so far (cache hits excluded).
    pub fn models_trained(&self) -> usize {
        self.models_trained
    }

    /// Seconds since creation.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Best record so far.
    pub fn best(&self) -> Option<&SearchRecord> {
        self.trace.best()
    }

    /// Evaluate a batch of structures; returns their validation MRRs in
    /// order. Uncached structures are trained and ranked in parallel, one
    /// candidate per thread.
    pub fn evaluate_batch(&mut self, specs: &[BlockSpec]) -> Vec<f64> {
        let keys: Vec<OrbitKey> = specs.iter().map(OrbitKey::of).collect();
        self.evaluate_keyed(specs, &keys)
    }

    /// [`SearchDriver::evaluate_batch`] for a caller that already holds
    /// each structure's orbit key.
    pub(crate) fn evaluate_keyed(&mut self, specs: &[BlockSpec], keys: &[OrbitKey]) -> Vec<f64> {
        debug_assert_eq!(specs.len(), keys.len());
        let mut todo: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let cached = self.cache.contains_key(key);
            // avoid training the same orbit twice within one batch
            if !cached && !todo.iter().any(|&j| keys[j] == *key) {
                todo.push(i);
            }
        }
        // Candidate `i` of this batch trains with seed `seed_base + i`.
        let seed_base = self.cfg.seed.wrapping_add(self.models_trained as u64 * 7919);
        let cfg = self.cfg.with_seed(seed_base);
        let (ds, policy, filter, start) = (self.ds, self.policy, &self.filter, self.start);
        // Ranked by the thread that trained it: integer rank counts, so
        // the MRR is the one any thread layout gives under `Exact`, and
        // under `Fast` it does not depend on `n_threads` either.
        let finished = fan_out(self.n_threads, todo.len(), |i| {
            let trainer = Trainer::new(candidate_cfg(&cfg, i)).policy(policy);
            let model = trainer.train(&specs[todo[i]], ds);
            let mrr = evaluate_with(policy, &model, &ds.valid, filter).mrr;
            (mrr, start.elapsed().as_secs_f64())
        });
        for (&i, (mrr, seconds)) in todo.iter().zip(finished) {
            self.models_trained += 1;
            self.cache.insert(keys[i], mrr);
            self.trace.records.push(SearchRecord {
                spec: specs[i].clone(),
                mrr,
                model_index: self.models_trained,
                seconds,
            });
        }
        keys.iter().map(|k| self.cache[k]).collect()
    }

    /// Evaluate one structure (convenience wrapper).
    pub fn evaluate(&mut self, spec: &BlockSpec) -> f64 {
        self.evaluate_batch(std::slice::from_ref(spec))[0]
    }

    /// Was this orbit evaluated before? (Used by search algorithms to skip
    /// known structures without paying for training.)
    pub fn seen(&self, key: OrbitKey) -> bool {
        self.cache.contains_key(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_datagen::{preset, Preset, Scale};
    use kg_models::blm::classics;

    fn tiny_driver(ds: &Dataset) -> SearchDriver<'_> {
        let cfg = TrainConfig { dim: 16, epochs: 8, batch_size: 128, ..Default::default() };
        SearchDriver::new(ds, cfg, 2)
    }

    #[test]
    fn evaluate_produces_finite_mrr_and_traces() {
        let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 3);
        let mut driver = tiny_driver(&ds);
        let mrr = driver.evaluate(&classics::simple());
        assert!(mrr.is_finite() && mrr > 0.0 && mrr <= 1.0);
        assert_eq!(driver.models_trained(), 1);
        assert_eq!(driver.trace.records.len(), 1);
        assert_eq!(driver.best().unwrap().model_index, 1);
    }

    #[test]
    fn cache_avoids_retraining_equivalents() {
        let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 3);
        let mut driver = tiny_driver(&ds);
        let a = driver.evaluate(&classics::simple());
        // an equivalent permutation of SimplE: cache hit, no new training
        let t = crate::invariance::Transform {
            ent_perm: [2, 3, 0, 1],
            rel_perm: [1, 0, 3, 2],
            flips: [true, false, true, false],
        };
        let b = driver.evaluate(&t.apply(&classics::simple()));
        assert_eq!(a, b);
        assert_eq!(driver.models_trained(), 1, "equivalent retrained");
    }

    #[test]
    fn batch_evaluation_matches_requested_order() {
        let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 4);
        let mut driver = tiny_driver(&ds);
        let specs = vec![classics::distmult(), classics::simple(), classics::distmult()];
        let out = driver.evaluate_batch(&specs);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[2], "same spec same score");
        assert_eq!(driver.models_trained(), 2, "duplicate trained once");
    }

    #[test]
    fn curve_is_monotone() {
        let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 5);
        let mut driver = tiny_driver(&ds);
        driver.evaluate_batch(&[classics::distmult(), classics::simple(), classics::complex()]);
        let curve = driver.trace.best_so_far_curve("test");
        let ys: Vec<f64> = curve.points.iter().map(|p| p.y).collect();
        for w in ys.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }
}
