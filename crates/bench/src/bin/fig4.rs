//! Figure 4: learning curves — test MRR vs training wall-clock for the
//! four human-designed BLMs and the searched structure, per dataset.

use bench::ExpCtx;
use kg_core::FilterIndex;
use kg_datagen::Preset;
use kg_eval::ranking::evaluate_parallel_with;
use kg_eval::Curve;
use kg_linalg::KernelPolicy;
use kg_models::blm::classics;
use kg_train::Trainer;
use std::time::Instant;

fn main() {
    let ctx = ExpCtx::new();
    ctx.banner("Figure 4 — learning curves (test MRR vs seconds)");
    let cfg = ctx.final_train_cfg();
    // evaluate every `stride` epochs to keep curve capture cheap
    let stride = (cfg.epochs / 8).max(1);

    let mut all_curves: Vec<Curve> = Vec::new();
    for p in Preset::ALL {
        let ds = ctx.dataset(p);
        let (sf, _) = ctx.search_best(p);
        let filter = FilterIndex::from_dataset(&ds);
        println!("\n--- {} ---", ds.name);
        let entries = classics::all()
            .into_iter()
            .map(|(n, s)| (n.to_string(), s))
            .chain([("AutoSF".to_string(), sf.spec.clone())]);
        for (name, spec) in entries {
            let mut curve = Curve::new(format!("{}/{}", ds.name, name));
            // The x-axis is training time only: the evaluations between
            // epochs are not on the clock.
            let mut run = Trainer::new(cfg).start(&spec, &ds);
            let mut train_s = 0.0;
            for epoch in 0..cfg.epochs {
                let t0 = Instant::now();
                run.epoch();
                train_s += t0.elapsed().as_secs_f64();
                if epoch.is_multiple_of(stride) || epoch + 1 == cfg.epochs {
                    let m = evaluate_parallel_with(
                        KernelPolicy::default_from_env(),
                        run.model(),
                        &ds.test,
                        &filter,
                        ctx.threads,
                    );
                    curve.push(train_s, m.mrr);
                }
            }
            println!(
                "{:<12} final test MRR {:.3} after {:.1}s",
                name,
                curve.final_y(),
                curve.points.last().map(|p| p.x).unwrap_or(0.0)
            );
            print!("{}", curve.to_text());
            all_curves.push(curve);
        }
    }
    ctx.write_json("fig4_curves", &all_curves);
    println!(
        "\nreproduction target (paper Fig. 4): the searched SF reaches the\n\
         highest final MRR and converges at least as fast as the baselines."
    );
}
