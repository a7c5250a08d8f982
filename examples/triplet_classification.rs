//! Triplet classification (the yes/no question-answering task of
//! Sec. V-C): train two bilinear models, tune per-relation thresholds on
//! validation, and compare test accuracy.
//!
//! ```sh
//! cargo run --release --example triplet_classification
//! ```

use kg_core::FilterIndex;
use kg_datagen::{preset, Preset, Scale};
use kg_eval::classification::{accuracy, make_negatives, tune_thresholds};
use kg_linalg::SeededRng;
use kg_models::blm::classics;
use kg_train::{TrainConfig, Trainer};

fn main() {
    let ds = preset(Preset::Fb15k237Like, Scale::Tiny, 5);
    println!("dataset: {} (|E|={}, |R|={})", ds.name, ds.n_entities, ds.n_relations);

    // The generated dataset has no fixed negative triples; construct them
    // the way the original task did — filtered corruption.
    let filter = FilterIndex::from_dataset(&ds);
    let mut rng = SeededRng::new(99);
    let valid_neg = make_negatives(&ds.valid, &filter, ds.n_entities, &mut rng);
    let test_neg = make_negatives(&ds.test, &filter, ds.n_entities, &mut rng);

    let cfg = TrainConfig { dim: 32, epochs: 25, lr: 0.3, l2: 1e-4, ..Default::default() };
    println!("\n{:<12} {:>10}", "model", "accuracy");
    for (name, spec) in classics::all() {
        let model = Trainer::new(cfg).train(&spec, &ds);
        let thresholds = tune_thresholds(&model, &ds.valid, &valid_neg, ds.n_relations);
        let acc = accuracy(&model, &ds.test, &test_neg, &thresholds);
        println!("{:<12} {:>9.1}%", name, acc * 100.0);
    }
    println!(
        "\nthresholds are per-relation (σ_r), tuned on validation accuracy,\n\
         with a global fallback for relations unseen in validation."
    );
}
