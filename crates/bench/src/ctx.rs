//! The experiment context: scale-dependent configurations, dataset
//! construction, the AutoSF search wrapper and its on-disk result cache.

use autosf::{GreedyConfig, GreedySearch, SearchDriver, SearchTrace};
use kg_core::Dataset;
use kg_datagen::{preset, Preset, Scale};
use kg_models::BlockSpec;
use kg_train::TrainConfig;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Scale-aware experiment context shared by all binaries.
pub struct ExpCtx {
    /// Dataset/search scale.
    pub scale: Scale,
    /// Base seed (fixed so every binary is reproducible).
    pub seed: u64,
    /// Worker threads for training/evaluation.
    pub threads: usize,
    /// Output directory for JSON artefacts.
    pub out_dir: PathBuf,
}

/// A searched structure with its provenance, cached to disk. The cache is
/// reused only by a search with the same `seed`, `greedy` and `train`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchedSf {
    /// Dataset the structure was searched on.
    pub dataset: String,
    /// The structure.
    pub spec: BlockSpec,
    /// Validation MRR at search time.
    pub valid_mrr: f64,
    /// Models trained during the search.
    pub models_trained: usize,
    /// Search wall-clock seconds.
    pub seconds: f64,
    /// Base seed of the context the dataset was generated from.
    pub seed: u64,
    /// Greedy configuration of the search, its derived seed included.
    pub greedy: GreedyConfig,
    /// Training configuration of every candidate.
    pub train: TrainConfig,
}

impl Default for ExpCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl ExpCtx {
    /// Build from the environment (`SCALE`, `THREADS`).
    pub fn new() -> Self {
        let scale = Scale::from_env();
        let threads = std::env::var("THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4));
        let out_dir = PathBuf::from("target/experiments");
        std::fs::create_dir_all(&out_dir).expect("create experiment output dir");
        ExpCtx { scale, seed: 2020, threads, out_dir }
    }

    /// Human-readable scale tag for file names.
    pub fn scale_tag(&self) -> &'static str {
        match self.scale {
            Scale::Tiny => "tiny",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// The dataset for a preset at this scale (deterministic).
    pub fn dataset(&self, p: Preset) -> Dataset {
        preset(p, self.scale, self.seed)
    }

    /// Training configuration used during the *search* (the paper searches
    /// at a reduced dimension, Sec. V-A2). Batch sizes are small because
    /// the generated datasets are small — the Adagrad step count, not the
    /// epoch count, is what converges the multi-class loss.
    pub fn search_train_cfg(&self) -> TrainConfig {
        match self.scale {
            Scale::Tiny => TrainConfig {
                dim: 32,
                epochs: 35,
                lr: 0.3,
                l2: 1e-5,
                batch_size: 32,
                ..Default::default()
            },
            Scale::Quick => TrainConfig {
                dim: 32,
                epochs: 30,
                lr: 0.3,
                l2: 1e-5,
                batch_size: 64,
                ..Default::default()
            },
            Scale::Full => TrainConfig {
                dim: 64,
                epochs: 50,
                lr: 0.3,
                l2: 1e-5,
                batch_size: 128,
                ..Default::default()
            },
        }
    }

    /// Training configuration for *final* models (the paper retrains the
    /// searched structure at a larger dimension).
    pub fn final_train_cfg(&self) -> TrainConfig {
        let base = self.search_train_cfg();
        match self.scale {
            Scale::Tiny => TrainConfig { dim: 64, epochs: 60, batch_size: 32, ..base },
            Scale::Quick => TrainConfig { dim: 64, epochs: 100, batch_size: 32, ..base },
            Scale::Full => TrainConfig { dim: 128, epochs: 150, batch_size: 64, ..base },
        }
    }

    /// Greedy meta hyper-parameters at this scale (paper: N=256, K1=K2=8).
    pub fn greedy_cfg(&self) -> GreedyConfig {
        match self.scale {
            Scale::Tiny => GreedyConfig {
                b_max: 8,
                n_candidates: 24,
                k1: 4,
                k2: 6,
                rounds: 2,
                ..Default::default()
            },
            Scale::Quick => GreedyConfig {
                b_max: 8,
                n_candidates: 64,
                k1: 8,
                k2: 8,
                rounds: 2,
                ..Default::default()
            },
            Scale::Full => GreedyConfig {
                b_max: 10,
                n_candidates: 256,
                k1: 8,
                k2: 8,
                rounds: 4,
                ..Default::default()
            },
        }
    }

    /// Model budget for the search-comparison figures (Fig. 6-9).
    pub fn search_budget(&self) -> usize {
        match self.scale {
            Scale::Tiny => 16,
            Scale::Quick => 40,
            Scale::Full => 128,
        }
    }

    /// Run (or load from cache) the AutoSF search on a preset. Returns the
    /// cached structure and the trace when freshly searched.
    pub fn search_best(&self, p: Preset) -> (SearchedSf, Option<SearchTrace>) {
        let cache = self.out_dir.join(format!("searched_{}_{}.json", p.name(), self.scale_tag()));
        // independent exploration per dataset (searches are separate runs
        // in the paper): derive the search seed from the dataset name
        let name_salt: u64 = p
            .name()
            .bytes()
            .fold(0xCBF2_9CE4_8422_2325, |acc, b| (acc ^ b as u64).wrapping_mul(0x1000_0000_01B3));
        let greedy = GreedyConfig { seed: self.seed ^ name_salt, ..self.greedy_cfg() };
        let train = self.search_train_cfg();
        if let Some(sf) = self.cached_search(&cache, &greedy, &train) {
            return (sf, None);
        }
        let ds = self.dataset(p);
        let mut driver = SearchDriver::new(&ds, train, self.threads);
        let outcome = GreedySearch::new(greedy).run(&mut driver);
        let sf = SearchedSf {
            dataset: ds.name.clone(),
            spec: outcome.best_spec,
            valid_mrr: outcome.best_mrr,
            models_trained: driver.models_trained(),
            seconds: driver.elapsed(),
            seed: self.seed,
            greedy,
            train,
        };
        let _ = std::fs::write(&cache, serde_json::to_string_pretty(&sf).expect("serialise"));
        (sf, Some(driver.trace.clone()))
    }

    /// The search cached at `path`, if it parses and was run with this
    /// context's seed and the given configurations.
    fn cached_search(
        &self,
        path: &Path,
        greedy: &GreedyConfig,
        train: &TrainConfig,
    ) -> Option<SearchedSf> {
        let sf: SearchedSf = serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()?;
        (sf.seed == self.seed && sf.greedy == *greedy && sf.train == *train).then_some(sf)
    }

    /// Write a JSON artefact next to the printed table.
    pub fn write_json<T: Serialize>(&self, name: &str, value: &T) {
        let path = self.out_dir.join(format!("{}_{}.json", name, self.scale_tag()));
        match serde_json::to_string_pretty(value) {
            Ok(text) => {
                if let Err(e) = std::fs::write(&path, text) {
                    eprintln!("warning: could not write {}: {e}", path.display());
                } else {
                    eprintln!("(wrote {})", path.display());
                }
            }
            Err(e) => eprintln!("warning: could not serialise {name}: {e}"),
        }
    }

    /// Banner every binary prints first.
    pub fn banner(&self, what: &str) {
        println!(
            "== {} ==  scale={} threads={} seed={}",
            what,
            self.scale_tag(),
            self.threads,
            self.seed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache written under another seed, greedy or training
    /// configuration is not reused; one written under the same is.
    #[test]
    fn search_cache_is_reused_only_under_its_own_configuration() {
        let out_dir = std::env::temp_dir().join(format!("bench-ctx-{}", std::process::id()));
        std::fs::create_dir_all(&out_dir).unwrap();
        let ctx = ExpCtx { scale: Scale::Tiny, seed: 2020, threads: 1, out_dir };
        let (greedy, train) = (ctx.greedy_cfg(), ctx.search_train_cfg());
        let path = ctx.out_dir.join("searched.json");
        let write = |seed: u64, greedy: GreedyConfig, train: TrainConfig| {
            let sf = SearchedSf {
                dataset: "d".into(),
                spec: kg_models::blm::classics::simple(),
                valid_mrr: 0.5,
                models_trained: 3,
                seconds: 1.0,
                seed,
                greedy,
                train,
            };
            std::fs::write(&path, serde_json::to_string_pretty(&sf).unwrap()).unwrap();
        };

        write(ctx.seed, greedy, train);
        assert!(ctx.cached_search(&path, &greedy, &train).is_some(), "same configuration");
        write(ctx.seed + 1, greedy, train);
        assert!(ctx.cached_search(&path, &greedy, &train).is_none(), "another seed");
        write(ctx.seed, GreedyConfig { k2: greedy.k2 + 1, ..greedy }, train);
        assert!(ctx.cached_search(&path, &greedy, &train).is_none(), "another greedy config");
        write(ctx.seed, greedy, TrainConfig { lr: train.lr * 2.0, ..train });
        assert!(ctx.cached_search(&path, &greedy, &train).is_none(), "another train config");
        std::fs::write(&path, r#"{"dataset": "d"}"#).unwrap();
        assert!(ctx.cached_search(&path, &greedy, &train).is_none(), "a cache without provenance");
        std::fs::remove_dir_all(&ctx.out_dir).unwrap();
    }
}
