//! Cross-crate integration: dataset generation → training → evaluation →
//! classification, plus determinism end to end.

use kg_core::{DatasetStats, FilterIndex};
use kg_datagen::{preset, Preset, Scale};
use kg_eval::classification::{accuracy, make_negatives, tune_thresholds};
use kg_eval::ranking::evaluate_parallel_with;
use kg_linalg::{KernelPolicy, SeededRng};
use kg_models::blm::classics;
use kg_train::{TrainConfig, Trainer};

fn quick_cfg() -> TrainConfig {
    TrainConfig { dim: 16, epochs: 12, lr: 0.3, l2: 1e-4, batch_size: 256, ..Default::default() }
}

#[test]
fn full_pipeline_beats_random_ranking() {
    let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 11);
    let model = Trainer::new(quick_cfg()).train(&classics::simple(), &ds);
    let filter = FilterIndex::from_dataset(&ds);
    let m = evaluate_parallel_with(KernelPolicy::Exact, &model, &ds.test, &filter, 4);
    // random ranking gives MRR ≈ Σ 1/r / n ≈ ln(n)/n ≈ 0.03 at 250 entities
    assert!(m.mrr > 0.10, "trained MRR {:.3} barely above random", m.mrr);
    assert!(m.hits10 > 0.15, "hits@10 {:.3}", m.hits10);
}

#[test]
fn classification_pipeline_beats_coin_flip() {
    let ds = preset(Preset::Fb15k237Like, Scale::Tiny, 12);
    // Classification needs a better-converged model than the ranking smoke
    // tests; 12 epochs leaves it near chance on marginal RNG streams.
    let model = Trainer::new(TrainConfig { epochs: 40, dim: 32, ..quick_cfg() })
        .train(&classics::complex(), &ds);
    let filter = FilterIndex::from_dataset(&ds);
    let mut rng = SeededRng::new(1);
    let valid_neg = make_negatives(&ds.valid, &filter, ds.n_entities, &mut rng);
    let test_neg = make_negatives(&ds.test, &filter, ds.n_entities, &mut rng);
    let th = tune_thresholds(&model, &ds.valid, &valid_neg, ds.n_relations);
    let acc = accuracy(&model, &ds.test, &test_neg, &th);
    assert!(acc > 0.6, "accuracy {acc:.3} too close to chance");
}

#[test]
fn everything_is_deterministic_end_to_end() {
    let run = || {
        let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 13);
        let model = Trainer::new(quick_cfg()).train(&classics::distmult(), &ds);
        let filter = FilterIndex::from_dataset(&ds);
        evaluate_parallel_with(KernelPolicy::Exact, &model, &ds.test, &filter, 3).mrr
    };
    assert_eq!(run(), run());
}

#[test]
fn census_stays_stable_across_scales() {
    for scale in [Scale::Tiny, Scale::Quick] {
        let s = DatasetStats::of(&preset(Preset::Wn18Like, scale, 5));
        assert_eq!(
            (s.n_symmetric, s.n_anti_symmetric, s.n_inverse, s.n_general),
            (4, 7, 7, 0),
            "census broke at {scale:?}"
        );
    }
}
