//! Figure 6: AutoSF vs other AutoML approaches at an equal training-budget
//! — random search, TPE ("Bayes") over f6 structures, the general
//! approximator (Gen-Approx MLP), and AutoSF itself. Curves are best
//! validation MRR vs models trained.

use autosf::baselines::{bayes_search, random_search};
use autosf::{GreedyConfig, GreedySearch, SearchDriver};
use bench::ExpCtx;
use kg_core::FilterIndex;
use kg_datagen::Preset;
use kg_eval::ranking::evaluate_parallel_with;
use kg_eval::Curve;
use kg_linalg::{KernelPolicy, SeededRng};
use kg_models::nnm::{GenApprox, NnmConfig};

fn main() {
    let ctx = ExpCtx::new();
    ctx.banner("Figure 6 — AutoSF vs random / Bayes / Gen-Approx");
    let budget = ctx.search_budget();
    let mut curves: Vec<Curve> = Vec::new();

    for p in [Preset::Wn18rrLike, Preset::Fb15k237Like] {
        let ds = ctx.dataset(p);
        println!("\n--- {} (budget {} models) ---", ds.name, budget);

        // AutoSF (greedy + filter + predictor)
        let mut driver = SearchDriver::new(&ds, ctx.search_train_cfg(), ctx.threads);
        let gcfg = GreedyConfig { seed: ctx.seed, ..ctx.greedy_cfg() };
        GreedySearch::new(gcfg).run(&mut driver);
        let autosf_curve = driver.trace.best_so_far_curve(&format!("{}/AutoSF", ds.name));
        println!(
            "AutoSF   best {:.3} ({} models)",
            autosf_curve.final_y(),
            driver.models_trained()
        );

        // Random search over f6
        let mut driver = SearchDriver::new(&ds, ctx.search_train_cfg(), ctx.threads);
        random_search(&mut driver, 6, budget, ctx.seed);
        let rand_curve = driver.trace.best_so_far_curve(&format!("{}/Random", ds.name));
        println!("Random   best {:.3}", rand_curve.final_y());

        // Bayes (TPE) over f6
        let mut driver = SearchDriver::new(&ds, ctx.search_train_cfg(), ctx.threads);
        bayes_search(&mut driver, 6, budget, ctx.seed);
        let bayes_curve = driver.trace.best_so_far_curve(&format!("{}/Bayes", ds.name));
        println!("Bayes    best {:.3}", bayes_curve.final_y());

        // Gen-Approx: one MLP model trained once (a flat reference line)
        let mut rng = SeededRng::new(ctx.seed);
        let scfg = ctx.search_train_cfg();
        let ncfg = NnmConfig { dim: scfg.dim, epochs: scfg.epochs, lr: 0.1, l2: 1e-4 };
        let mut nnm = GenApprox::init(ds.n_entities, ds.n_relations, ncfg, &mut rng);
        nnm.train(&ds.train, &mut rng);
        let mut filter = FilterIndex::build(&ds.train);
        for t in &ds.valid {
            filter.insert(*t);
        }
        let nnm_mrr =
            evaluate_parallel_with(KernelPolicy::Exact, &nnm, &ds.valid, &filter, ctx.threads).mrr;
        let mut nnm_curve = Curve::new(format!("{}/Gen-Approx", ds.name));
        nnm_curve.push(1.0, nnm_mrr);
        nnm_curve.push(budget as f64, nnm_mrr);
        println!("Gen-Approx val MRR {:.3} (single model)", nnm_mrr);

        for c in [autosf_curve, rand_curve, bayes_curve, nnm_curve] {
            print!("{}", c.to_text());
            curves.push(c);
        }
    }
    ctx.write_json("fig6_curves", &curves);
    println!(
        "\nreproduction target (paper Fig. 6): Gen-Approx ≪ BLM searches;\n\
         Bayes ≥ random; AutoSF has the best any-time curve."
    );
}
