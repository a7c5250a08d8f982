//! Run the AutoSF progressive greedy search on a synthetic KG and compare
//! the discovered scoring function against the human-designed baselines.
//!
//! ```sh
//! cargo run --release --example search_scoring_function
//! ```

use autosf::filter::satisfies_c2;
use autosf::{GreedyConfig, GreedySearch, SearchDriver};
use kg_core::FilterIndex;
use kg_datagen::{preset, Preset, Scale};
use kg_eval::ranking::evaluate_parallel_with;
use kg_linalg::KernelPolicy;
use kg_models::blm::classics;
use kg_train::{TrainConfig, Trainer};

fn main() {
    let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 7);
    println!("dataset: {} (|E|={}, |R|={})", ds.name, ds.n_entities, ds.n_relations);

    let tcfg = TrainConfig { dim: 32, epochs: 15, lr: 0.3, l2: 1e-4, ..Default::default() };
    let gcfg =
        GreedyConfig { b_max: 8, n_candidates: 32, k1: 4, k2: 6, rounds: 2, ..Default::default() };

    // Search: train candidates on S_tra, select by validation MRR.
    let mut driver = SearchDriver::new(&ds, tcfg, 4);
    let outcome = GreedySearch::new(gcfg).run(&mut driver);
    assert!(satisfies_c2(&outcome.best_spec), "the filter admits only C2 structures");
    println!(
        "\nsearch done: {} models trained in {:.1}s",
        driver.models_trained(),
        driver.elapsed()
    );
    println!("best validation MRR: {:.3}", outcome.best_mrr);
    println!("\nsearched scoring function (Fig. 5 style):");
    print!("{}", outcome.best_spec.render());
    println!("formula: {}", outcome.best_spec.formula());

    // Final comparison on the *test* split, never touched by the search.
    let filter = FilterIndex::from_dataset(&ds);
    println!("\n{:<12} {:>8} {:>8} {:>8}", "model", "MRR", "H@1", "H@10");
    for (name, spec) in classics::all().into_iter().chain([("AutoSF", outcome.best_spec.clone())]) {
        let model = Trainer::new(tcfg).train(&spec, &ds);
        let m = evaluate_parallel_with(KernelPolicy::Exact, &model, &ds.test, &filter, 4);
        println!(
            "{:<12} {:>8.3} {:>7.1}% {:>7.1}%",
            name,
            m.mrr,
            m.hits1 * 100.0,
            m.hits10 * 100.0
        );
    }
}
