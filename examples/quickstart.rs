//! Quickstart: generate a synthetic KG, train a SimplE-structured bilinear
//! model, and serve filtered link prediction through the [`KgEngine`]
//! facade.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use kg_core::DatasetStats;
use kg_datagen::{preset, Preset, Scale};
use kg_eval::RankMetrics;
use kg_models::blm::classics;
use kg_serve::KgEngine;
use kg_train::{TrainConfig, Trainer};

fn main() {
    // 1. A WN18RR-like knowledge graph (seeded — fully reproducible).
    let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 42);
    println!("{}", DatasetStats::header());
    println!("{}", DatasetStats::of(&ds).row());

    // 2. Train SimplE (one of the human-designed scoring functions the
    //    AutoSF search space unifies) with the multi-class loss + Adagrad.
    let cfg = TrainConfig { dim: 32, epochs: 25, lr: 0.3, l2: 1e-4, ..Default::default() };
    println!("\ntraining SimplE: d={} epochs={} lr={}", cfg.dim, cfg.epochs, cfg.lr);
    let model = Trainer::new(cfg).train(&classics::simple(), &ds);

    // 3. Serve the trained model: the engine batches incoming single
    //    queries into GEMM blocks and shards them across 4 workers, with
    //    answers bit-identical to the per-query reference.
    let engine = KgEngine::builder(model, &ds).threads(4).block(64).build();

    // Filtered link prediction on the test split, one request per query —
    // submit everything up front, then fold the ranks into the metrics.
    let tickets: Vec<_> = ds
        .test
        .iter()
        .map(|tr| {
            (
                engine.submit_rank_tail(tr.h.idx(), tr.r.idx(), tr.t.idx()).expect("admitted"),
                engine.submit_rank_head(tr.h.idx(), tr.r.idx(), tr.t.idx()).expect("admitted"),
            )
        })
        .collect();
    let mut metrics = RankMetrics::zero();
    for (tail, head) in tickets {
        metrics.accumulate(tail.wait());
        metrics.accumulate(head.wait());
    }
    let metrics = metrics.normalised();
    assert_eq!(metrics.n_queries, 2 * ds.test.len(), "every submitted query is answered");
    println!(
        "\ntest: MRR {:.3}  MR {:.1}  Hits@1 {:.1}%  Hits@10 {:.1}%  ({} queries)",
        metrics.mrr,
        metrics.mr,
        metrics.hits1 * 100.0,
        metrics.hits10 * 100.0,
        metrics.n_queries,
    );

    // 4. Request-level serving: complete one test query.
    let tr = ds.test[0];
    println!(
        "\ntop-5 tails for (h={}, r={}): {:?}",
        tr.h.idx(),
        tr.r.idx(),
        engine.top_k_tails(tr.h.idx(), tr.r.idx(), 5)
    );

    // 5. The structure we just trained, drawn the way the paper draws g(r).
    println!("\nSimplE as a unified block matrix (Fig. 1d):");
    print!("{}", classics::simple().render());
    println!("formula: {}", classics::simple().formula());
}
