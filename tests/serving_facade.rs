//! Cross-crate integration for the serving facade: a model trained by
//! `kg-train` on a `kg-datagen` graph, served by `kg-serve`, must answer
//! request-level queries **bit-identically** to the offline evaluation
//! stack — the whole point of routing both through one shard/block engine.

use kg_core::FilterIndex;
use kg_datagen::{preset, Preset, Scale};
use kg_eval::ranking::{evaluate_parallel_with, filtered_rank, top_k, RankMetrics};
use kg_models::blm::classics;
use kg_models::{KernelPolicy, LinkPredictor};
use kg_serve::KgEngine;
use kg_train::{TrainConfig, Trainer};
use std::sync::Arc;

fn trained() -> (kg_models::BlmModel, kg_core::Dataset) {
    let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 31);
    let cfg = TrainConfig {
        dim: 16,
        epochs: 12,
        lr: 0.3,
        l2: 1e-4,
        batch_size: 256,
        ..Default::default()
    };
    (Trainer::new(cfg).train(&classics::simple(), &ds), ds)
}

#[test]
fn served_ranks_reproduce_offline_evaluation_bit_for_bit() {
    let (model, ds) = trained();
    let filter = FilterIndex::from_dataset(&ds);
    let offline = evaluate_parallel_with(KernelPolicy::Exact, &model, &ds.test, &filter, 4);

    let model = Arc::new(model);
    // Run the whole thing with and without a linger budget: the mixed
    // tail/head submission below is cut into blocks holding both
    // directions on the 4-worker crew, and neither how the blocks mix nor
    // the budget may move a single bit of the folded metrics.
    for linger_us in [0u64, 150] {
        let engine = KgEngine::builder(Arc::clone(&model), &ds)
            .threads(4)
            .block(64)
            .linger(std::time::Duration::from_micros(linger_us))
            .policy(KernelPolicy::Exact)
            .build();

        // Submit every test query up front (the batching queue groups them
        // into blocks), then fold the answered ranks exactly the way the
        // offline evaluator folds its own — same order, same f64
        // operations.
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
        let mut served = RankMetrics::zero();
        for (tail, head) in tickets {
            served.accumulate(tail.wait());
            served.accumulate(head.wait());
        }
        assert_eq!(
            served.normalised(),
            offline,
            "served metrics diverged from offline evaluation (linger={linger_us}µs)"
        );
        // The scheduler accounted for every query and left nothing queued.
        let stats = engine.stats();
        assert_eq!(stats.queries_served, 2 * ds.test.len() as u64);
        assert_eq!(stats.queries_failed, 0);
        assert_eq!(stats.depth_tails + stats.depth_heads + stats.depth_score, 0);
    }
}

#[test]
fn served_answers_match_per_query_reference_on_a_trained_model() {
    let (model, ds) = trained();
    let filter = FilterIndex::from_dataset(&ds);
    let model = Arc::new(model);
    let engine = KgEngine::builder(Arc::clone(&model), &ds)
        .threads(3)
        .block(16)
        .policy(KernelPolicy::Exact)
        .build();

    let mut row = vec![0.0f32; model.n_entities()];
    for tr in ds.test.iter().take(20) {
        let (h, r, t) = (tr.h.idx(), tr.r.idx(), tr.t.idx());
        assert_eq!(engine.score(h, r, t), model.score_triple(h, r, t));

        model.score_tails(h, r, &mut row);
        assert_eq!(engine.rank_tail(h, r, t), filtered_rank(&row, t, filter.tails(tr.h, tr.r)));
        assert_eq!(engine.top_k_tails(h, r, 10), top_k(&row, 10));

        model.score_heads(r, t, &mut row);
        assert_eq!(engine.rank_head(h, r, t), filtered_rank(&row, h, filter.heads(tr.r, tr.t)));
        assert_eq!(engine.top_k_heads(r, t, 10), top_k(&row, 10));
    }
}
