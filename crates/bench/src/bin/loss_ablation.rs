//! Extra ablation (beyond the paper, justified by Sec. II-A's loss
//! discussion): multi-class full-softmax loss vs negative-sampling logistic
//! loss for the same structures on the same data.

use bench::ExpCtx;
use kg_core::FilterIndex;
use kg_datagen::Preset;
use kg_eval::ranking::evaluate_parallel_with;
use kg_linalg::KernelPolicy;
use kg_models::blm::classics;
use kg_train::{LossKind, TrainConfig, Trainer};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    dataset: String,
    model: String,
    loss: String,
    mrr: f64,
}

fn main() {
    let ctx = ExpCtx::new();
    ctx.banner("Loss ablation — multi-class vs negative sampling");
    let mut rows = Vec::new();
    for p in [Preset::Wn18rrLike, Preset::Fb15k237Like] {
        let ds = ctx.dataset(p);
        let filter = FilterIndex::from_dataset(&ds);
        println!("\n--- {} ---", ds.name);
        println!("{:<12} {:>14} {:>14}", "model", "multi-class", "neg-sampling");
        for (name, spec) in classics::all() {
            let base = ctx.final_train_cfg();
            let mc_cfg = TrainConfig { loss: LossKind::MultiClass, ..base };
            let ns_cfg = TrainConfig { loss: LossKind::NegSampling { m: 8 }, lr: 0.1, ..base };
            let test_metrics = |cfg: TrainConfig| {
                let model = Trainer::new(cfg).train(&spec, &ds);
                let policy = KernelPolicy::default_from_env();
                evaluate_parallel_with(policy, &model, &ds.test, &filter, ctx.threads)
            };
            let (mc, ns) = (test_metrics(mc_cfg), test_metrics(ns_cfg));
            println!("{:<12} {:>14.3} {:>14.3}", name, mc.mrr, ns.mrr);
            rows.push(Row {
                dataset: ds.name.clone(),
                model: name.into(),
                loss: "multi-class".into(),
                mrr: mc.mrr,
            });
            rows.push(Row {
                dataset: ds.name.clone(),
                model: name.into(),
                loss: "neg-sampling".into(),
                mrr: ns.mrr,
            });
        }
    }
    ctx.write_json("loss_ablation", &rows);
    println!("\nexpectation (Lacroix et al., adopted in Sec. II-A): multi-class ≥ neg-sampling.");
}
