//! Cross-dataset transfer of searched scoring functions (the Tab. V
//! experiment in miniature): a structure searched on dataset A is trained
//! from scratch on dataset B — the paper's point is that searched SFs are
//! KG-dependent, so the diagonal should win.
//!
//! ```sh
//! cargo run --release --example transfer
//! ```

use autosf::{GreedyConfig, GreedySearch, SearchDriver};
use kg_core::FilterIndex;
use kg_datagen::{preset, Preset, Scale};
use kg_eval::ranking::evaluate_parallel_with;
use kg_linalg::KernelPolicy;
use kg_models::BlockSpec;
use kg_train::{TrainConfig, Trainer};

fn main() {
    // Two datasets with very different relation censuses.
    let sources = [Preset::Wn18rrLike, Preset::Fb15k237Like];
    let tcfg = TrainConfig { dim: 32, epochs: 12, lr: 0.3, l2: 1e-4, ..Default::default() };
    let gcfg =
        GreedyConfig { b_max: 6, n_candidates: 24, k1: 4, k2: 4, rounds: 2, ..Default::default() };

    let datasets: Vec<_> = sources.iter().map(|&p| preset(p, Scale::Tiny, 3)).collect();

    // Search a structure per dataset.
    let mut found: Vec<(String, BlockSpec)> = Vec::new();
    for ds in &datasets {
        let mut driver = SearchDriver::new(ds, tcfg, 4);
        let outcome = GreedySearch::new(gcfg).run(&mut driver);
        println!(
            "searched on {}: val MRR {:.3}, {}",
            ds.name,
            outcome.best_mrr,
            outcome.best_spec.formula()
        );
        found.push((ds.name.clone(), outcome.best_spec));
    }

    // Cross matrix: train each found structure on each dataset, test MRR.
    println!(
        "\n{:<16} {:>14} {:>14}",
        "searched-on \\ eval-on", datasets[0].name, datasets[1].name
    );
    for (src_name, spec) in &found {
        print!("{:<22}", src_name);
        for ds in &datasets {
            let model = Trainer::new(tcfg).train(spec, ds);
            let filter = FilterIndex::from_dataset(ds);
            let m = evaluate_parallel_with(
                KernelPolicy::default_from_env(),
                &model,
                &ds.test,
                &filter,
                4,
            );
            print!(" {:>13.3}", m.mrr);
        }
        println!();
    }
    println!("\n(the diagonal — structures evaluated where they were searched — should lead)");
}
