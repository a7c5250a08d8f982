//! Tier-1's view of the shared crew (`kg_eval::crew`): the crate-level
//! equivalence suites only run under `--workspace`, so the fastest case of
//! each contract the crew carries runs here, at the root — parallel ranking
//! and crewed training are bit-identical to their sequential forms, and a
//! panic in either comes back with its own message instead of hanging.

use kg_core::{Dataset, FilterIndex, Triple};
use kg_eval::ranking::{
    evaluate_parallel_sharded_with, evaluate_parallel_with, evaluate_sequential,
};
use kg_models::blm::classics;
use kg_models::{BatchScorer, BlmModel, KernelPolicy, LinkPredictor};
use kg_train::{TrainConfig, Trainer};

const N_ENTITIES: u32 = 30;

/// A ring plus mirrored pairs over 30 entities; batch 36 over 60 triples
/// gives a mid-batch step, a ragged flush step and two batches per epoch.
fn toy_dataset() -> Dataset {
    let mut train = Vec::new();
    for i in 0..N_ENTITIES {
        train.push(Triple::new(i, 0, (i + 1) % N_ENTITIES));
    }
    for i in 0..N_ENTITIES / 2 {
        train.push(Triple::new(i, 1, i + N_ENTITIES / 2));
        train.push(Triple::new(i + N_ENTITIES / 2, 1, i));
    }
    Dataset::new("toy", train, vec![Triple::new(0, 0, 1)], vec![Triple::new(1, 0, 2)])
}

fn cfg() -> TrainConfig {
    TrainConfig { dim: 8, epochs: 3, batch_size: 36, ..TrainConfig::default() }
}

fn bits(m: &BlmModel) -> Vec<u32> {
    m.emb.ent.as_slice().iter().chain(m.emb.rel.as_slice()).map(|v| v.to_bits()).collect()
}

#[test]
fn crewed_training_is_byte_identical_across_thread_counts() {
    let ds = toy_dataset();
    for policy in [KernelPolicy::Exact, KernelPolicy::Fast] {
        let seq = Trainer::new(cfg()).policy(policy).train(&classics::complex(), &ds);
        for threads in [1, 3] {
            let crew = Trainer::new(cfg())
                .threads(threads)
                .policy(policy)
                .train(&classics::complex(), &ds);
            assert_eq!(bits(&seq), bits(&crew), "{policy:?} crew({threads}) != sequential");
        }
    }
}

#[test]
fn parallel_ranking_equals_the_sequential_reference() {
    let ds = toy_dataset();
    let model = Trainer::new(cfg()).train(&classics::complex(), &ds);
    let filter = FilterIndex::build(&ds.train);
    assert_eq!(
        evaluate_parallel_with(KernelPolicy::Exact, &model, &ds.train, &filter, 3),
        evaluate_sequential(&model, &ds.train, &filter)
    );
}

#[test]
#[should_panic(expected = "train crew grenade tripped")]
fn training_worker_panic_is_reraised_not_deadlocked() {
    Trainer::new(cfg())
        .threads(3)
        .inject_panic_at(2, 1)
        .train(&classics::complex(), &toy_dataset());
}

/// Panics when scoring tails for head entity 7.
struct Grenade;

impl LinkPredictor for Grenade {
    fn n_entities(&self) -> usize {
        N_ENTITIES as usize
    }
    fn score_triple(&self, _: usize, _: usize, _: usize) -> f32 {
        0.0
    }
    fn score_tails(&self, h: usize, _: usize, out: &mut [f32]) {
        assert!(h != 7, "grenade tripped");
        out.fill(0.0);
    }
    fn score_heads(&self, _: usize, _: usize, out: &mut [f32]) {
        out.fill(0.0);
    }
}

impl BatchScorer for Grenade {}

#[test]
#[should_panic(expected = "grenade tripped")]
fn ranking_worker_panic_is_reraised_not_deadlocked() {
    let ds = toy_dataset();
    let filter = FilterIndex::build(&ds.train);
    // Explicit bounds force entity-shard mode.
    evaluate_parallel_sharded_with(
        KernelPolicy::Exact,
        &Grenade,
        &ds.train,
        &filter,
        &[0, 10, 20, 30],
    );
}
