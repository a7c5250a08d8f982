//! Table VI: triplet classification accuracy on the FB15k-like,
//! WN18RR-like and FB15k237-like datasets — human BLMs vs the searched
//! structure, per-relation thresholds tuned on validation.

use bench::ExpCtx;
use kg_core::FilterIndex;
use kg_datagen::Preset;
use kg_eval::classification::{accuracy, make_negatives, tune_thresholds};
use kg_linalg::SeededRng;
use kg_models::blm::classics;
use kg_train::Trainer;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    dataset: String,
    model: String,
    accuracy: f64,
}

fn main() {
    let ctx = ExpCtx::new();
    ctx.banner("Table VI — triplet classification");
    let presets = [Preset::Fb15kLike, Preset::Wn18rrLike, Preset::Fb15k237Like];
    let cfg = ctx.final_train_cfg();
    let mut rows = Vec::new();

    for p in presets {
        let ds = ctx.dataset(p);
        let (sf, _) = ctx.search_best(p);
        let filter = FilterIndex::from_dataset(&ds);
        let mut rng = SeededRng::new(ctx.seed ^ 0xC1A5);
        let valid_neg = make_negatives(&ds.valid, &filter, ds.n_entities, &mut rng);
        let test_neg = make_negatives(&ds.test, &filter, ds.n_entities, &mut rng);

        println!("\n--- {} ---", ds.name);
        println!("{:<12} {:>10}", "model", "accuracy");
        let specs = classics::all()
            .into_iter()
            .map(|(n, s)| (n.to_string(), s))
            .chain([("AutoSF".to_string(), sf.spec.clone())]);
        for (name, spec) in specs {
            let model = Trainer::new(cfg).train(&spec, &ds);
            let th = tune_thresholds(&model, &ds.valid, &valid_neg, ds.n_relations);
            let acc = accuracy(&model, &ds.test, &test_neg, &th);
            println!("{:<12} {:>9.1}%", name, acc * 100.0);
            rows.push(Row { dataset: ds.name.clone(), model: name, accuracy: acc });
        }
    }
    ctx.write_json("table6", &rows);
    println!("\nreproduction target (paper Tab. VI): AutoSF ≥ every human BLM per dataset.");
}
