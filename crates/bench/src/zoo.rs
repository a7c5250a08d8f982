//! The baseline model zoo: everything Tab. IV compares, trained and
//! evaluated behind one interface.

use kg_core::{Dataset, FilterIndex};
use kg_eval::ranking::{evaluate_parallel_with, RankMetrics};
use kg_linalg::{KernelPolicy, SeededRng};
use kg_models::blm::classics;
use kg_models::nnm::{GenApprox, NnmConfig};
use kg_models::rules::{RuleConfig, RuleModel};
use kg_models::tdm::{RotatE, TdmConfig, TransE, TransH};
use kg_models::{BatchScorer, BlockSpec};
use kg_train::{TrainConfig, Trainer};

/// Which baseline family a zoo entry belongs to (Tab. IV's "type" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Translational-distance models.
    Tdm,
    /// Neural-network models.
    Nnm,
    /// Bilinear models.
    Blm,
    /// Rule learners.
    Rules,
    /// The searched structure.
    AutoSf,
}

/// One Tab. IV row: name, family, metrics.
pub struct ZooResult {
    /// Model name as printed.
    pub name: String,
    /// Baseline family.
    pub family: Family,
    /// Test metrics.
    pub metrics: RankMetrics,
}

fn tdm_cfg(train_cfg: &TrainConfig) -> TdmConfig {
    TdmConfig {
        dim: train_cfg.dim,
        epochs: train_cfg.epochs,
        lr: 0.05,
        margin: 2.0,
        n_negatives: 4,
    }
}

/// Train and evaluate one BLM structure; returns test metrics.
pub fn eval_blm(
    spec: &BlockSpec,
    ds: &Dataset,
    cfg: &TrainConfig,
    filter: &FilterIndex,
    threads: usize,
) -> RankMetrics {
    let model = Trainer::new(*cfg).train(spec, ds);
    evaluate_parallel_with(KernelPolicy::Exact, &model, &ds.test, filter, threads)
}

/// Run the whole baseline zoo on a dataset (the Tab. IV column for it).
///
/// `include_expensive` adds the TDM/NNM/rule baselines; the BLM four and
/// the searched structure are always included.
pub fn run_zoo(
    ds: &Dataset,
    cfg: &TrainConfig,
    searched: Option<&BlockSpec>,
    threads: usize,
    include_expensive: bool,
) -> Vec<ZooResult> {
    let filter = FilterIndex::from_dataset(ds);
    let mut out = Vec::new();

    if include_expensive {
        let mut rng = SeededRng::new(404);
        let tcfg = tdm_cfg(cfg);

        let mut transe = TransE::init(ds.n_entities, ds.n_relations, tcfg, &mut rng);
        transe.train(&ds.train, &mut rng);
        out.push(ZooResult {
            name: "TransE".into(),
            family: Family::Tdm,
            metrics: eval_seq(&transe, ds, &filter, threads),
        });

        let mut transh = TransH::init(ds.n_entities, ds.n_relations, tcfg, &mut rng);
        transh.train(&ds.train, &mut rng);
        out.push(ZooResult {
            name: "TransH".into(),
            family: Family::Tdm,
            metrics: eval_seq(&transh, ds, &filter, threads),
        });

        let mut rotate = RotatE::init(ds.n_entities, ds.n_relations, tcfg, &mut rng);
        rotate.train(&ds.train, &mut rng);
        out.push(ZooResult {
            name: "RotatE".into(),
            family: Family::Tdm,
            metrics: eval_seq(&rotate, ds, &filter, threads),
        });

        let ncfg =
            NnmConfig { dim: cfg.dim.min(32), epochs: (cfg.epochs / 2).max(5), lr: 0.1, l2: 1e-4 };
        let mut nnm = GenApprox::init(ds.n_entities, ds.n_relations, ncfg, &mut rng);
        nnm.train(&ds.train, &mut rng);
        out.push(ZooResult {
            name: "MLP (Gen-Approx)".into(),
            family: Family::Nnm,
            metrics: eval_seq(&nnm, ds, &filter, threads),
        });

        let rules =
            RuleModel::learn(&ds.train, ds.n_entities, ds.n_relations, RuleConfig::default());
        out.push(ZooResult {
            name: "AnyBURL-lite".into(),
            family: Family::Rules,
            metrics: eval_seq(&rules, ds, &filter, threads),
        });
    }

    for (name, spec) in classics::all() {
        out.push(ZooResult {
            name: name.into(),
            family: Family::Blm,
            metrics: eval_blm(&spec, ds, cfg, &filter, threads),
        });
    }

    if let Some(spec) = searched {
        out.push(ZooResult {
            name: "AutoSF".into(),
            family: Family::AutoSf,
            metrics: eval_blm(spec, ds, cfg, &filter, threads),
        });
    }
    out
}

fn eval_seq<M: BatchScorer + Sync>(
    model: &M,
    ds: &Dataset,
    filter: &FilterIndex,
    threads: usize,
) -> RankMetrics {
    evaluate_parallel_with(KernelPolicy::Exact, model, &ds.test, filter, threads)
}

/// Print zoo results as a Tab. IV-style block.
pub fn print_zoo(dataset: &str, results: &[ZooResult]) {
    println!("\n--- {dataset} ---");
    println!("{:<18} {:>7} {:>7} {:>7}", "model", "MRR", "H@1", "H@10");
    for r in results {
        println!(
            "{:<18} {:>7.3} {:>6.1}% {:>6.1}%",
            r.name,
            r.metrics.mrr,
            r.metrics.hits1 * 100.0,
            r.metrics.hits10 * 100.0
        );
    }
}
