//! Equivalence suite for the cooperative sharded training engine.
//!
//! The contract under test (see `kg_train::crew`):
//!
//! * **Thread-count independence** — at a fixed shard grid, the crew's
//!   trained embeddings are byte-identical for any crew size, including
//!   oversubscribed crews (8 threads on however few cores CI has). The
//!   grid, not the thread count, decides where f32 sums reassociate.
//! * **Sequential closeness** — the crew differs from the sequential
//!   trainer only by that reassociation, so trained embeddings agree
//!   within FP noise; and with the trivial one-shard grid the merged
//!   query-side gradient is the full-table kernel's result bit for bit.
//! * **Poison, not deadlock** — a worker panic mid-epoch tags the step,
//!   unwinds the whole crew through its barriers and re-raises on the
//!   caller; no hang, whichever participant trips.

use kg_core::{Dataset, Triple};
use kg_linalg::KernelPolicy;
use kg_models::blm::classics;
use kg_models::BlmModel;
use kg_train::{ControlFlow, TrainConfig, Trainer};

/// Deterministic ring + symmetric pairs; two relations, 20 entities.
fn toy_dataset() -> Dataset {
    let mut train = Vec::new();
    for i in 0..20u32 {
        train.push(Triple::new(i, 0, (i + 1) % 20));
    }
    for i in 0..10u32 {
        train.push(Triple::new(i, 1, i + 10));
        train.push(Triple::new(i + 10, 1, i));
    }
    Dataset {
        name: "toy".into(),
        n_entities: 20,
        n_relations: 2,
        train,
        valid: vec![Triple::new(0, 0, 1)],
        test: vec![Triple::new(1, 0, 2)],
    }
}

/// Small but structurally busy: batch 36 over 40 triples gives two
/// batches per epoch (params republish mid-epoch), and the first batch
/// splits into a 32-triple block plus a ragged 4-triple flush block — so
/// every epoch exercises the mid-batch pipeline overlap (the lead reduces
/// step `s` while the crew scores step `s + 1`) as well as the
/// batch-boundary flush.
fn quick_cfg() -> TrainConfig {
    TrainConfig { dim: 16, epochs: 4, batch_size: 36, ..TrainConfig::default() }
}

fn assert_models_identical(a: &BlmModel, b: &BlmModel, what: &str) {
    let bits = |m: &BlmModel| {
        m.emb
            .ent
            .as_slice()
            .iter()
            .chain(m.emb.rel.as_slice().iter())
            .map(|v| v.to_bits())
            .collect::<Vec<u32>>()
    };
    assert_eq!(bits(a), bits(b), "{what}");
}

fn max_rel_err(a: &BlmModel, b: &BlmModel) -> f32 {
    a.emb
        .ent
        .as_slice()
        .iter()
        .chain(a.emb.rel.as_slice().iter())
        .zip(b.emb.ent.as_slice().iter().chain(b.emb.rel.as_slice().iter()))
        .map(|(&x, &y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0))
        .fold(0.0f32, f32::max)
}

/// The headline guarantee: every shipped model family, several shard
/// grids (including one shard per entity and a grid coarser than the
/// crew), crews from solo to oversubscribed — all byte-identical to the
/// single-thread crew at the same grid. At 12 threads the 4-triple flush
/// block's 8 query rows leave four participants (the lead among them)
/// without a row, and the 5-shard grid leaves seven without a shard.
#[test]
fn crew_is_thread_count_independent_across_families_and_grids() {
    let ds = toy_dataset();
    let cfg = quick_cfg();
    for (name, spec) in classics::all() {
        for shards in [1, 5, 16, 33] {
            let solo = Trainer::new(cfg).threads(1).shards(shards).train(&spec, &ds);
            for threads in [2, 3, 4, 8, 12] {
                let crew = Trainer::new(cfg).threads(threads).shards(shards).train(&spec, &ds);
                assert_models_identical(
                    &solo,
                    &crew,
                    &format!("{name}: crew({threads}) diverged from crew(1) at {shards} shards"),
                );
            }
        }
    }
}

/// The crew and the sequential trainer share seed, init, shuffle and step
/// rule; they differ only where the crew's owner-split backward
/// reassociates f32 additions. Trained embeddings must agree within FP
/// noise on every family.
#[test]
fn crew_tracks_sequential_trainer_within_fp_noise() {
    let ds = toy_dataset();
    let cfg = quick_cfg();
    for (name, spec) in classics::all() {
        let seq = kg_train::Trainer::new(cfg).train(&spec, &ds);
        let crew = Trainer::new(cfg).threads(4).policy(KernelPolicy::Exact).train(&spec, &ds);
        let err = max_rel_err(&seq, &crew);
        assert!(err < 1e-3, "{name}: crew drifted {err:e} from the sequential trainer");
    }
}

/// Training still learns through the crew: the epoch losses it reports
/// decrease, and match the solo crew's exactly (the loss is summed from
/// bit-identical per-block cross-entropies in a fixed order).
#[test]
fn crew_loss_decreases_and_is_thread_count_independent() {
    let ds = toy_dataset();
    let cfg = TrainConfig { epochs: 10, ..quick_cfg() };
    let spec = classics::complex();
    let losses = |threads: usize| {
        let mut seen = Vec::new();
        Trainer::new(cfg).threads(threads).train_with_callback(
            &spec,
            &ds,
            |_m: &BlmModel, info: kg_train::EpochInfo| {
                seen.push(info.loss);
                ControlFlow::Continue
            },
        );
        seen
    };
    let solo = losses(1);
    let crew = losses(4);
    assert_eq!(solo.len(), 10);
    let first = *solo.first().expect("losses recorded");
    let last = *solo.last().expect("losses recorded");
    assert!(last < first, "loss should decrease through the crew: first {first}, last {last}");
    let (a, b): (Vec<u32>, Vec<u32>) =
        (solo.iter().map(|v| v.to_bits()).collect(), crew.iter().map(|v| v.to_bits()).collect());
    assert_eq!(a, b, "reported epoch losses diverged between crew sizes");
}

/// The Fast tier contracts multiply-adds but keeps the crew's layout
/// determinism: thread counts still agree bit-for-bit, and the relaxed
/// result stays within the documented noise band of the exact one.
#[test]
fn fast_policy_crew_is_deterministic_and_close_to_exact() {
    let ds = toy_dataset();
    let cfg = quick_cfg();
    let spec = classics::simple();
    let fast1 = Trainer::new(cfg).threads(1).policy(KernelPolicy::Fast).train(&spec, &ds);
    let fast4 = Trainer::new(cfg).threads(4).policy(KernelPolicy::Fast).train(&spec, &ds);
    assert_models_identical(&fast1, &fast4, "Fast crew diverged across thread counts");
    let exact = Trainer::new(cfg).threads(4).policy(KernelPolicy::Exact).train(&spec, &ds);
    let err = max_rel_err(&exact, &fast4);
    assert!(err < 5e-2, "Fast-policy training drifted {err:e} from Exact");
}

/// An explicitly pinned Exact policy on the sequential engine reproduces
/// the knob-less `Trainer::new(cfg)` trajectory (what the free `train`
/// function was) byte for byte.
#[test]
fn pinned_exact_sequential_matches_default_policy() {
    let ds = toy_dataset();
    let cfg = quick_cfg();
    let spec = classics::distmult();
    let legacy = Trainer::new(cfg).train(&spec, &ds);
    let pinned = Trainer::new(cfg).policy(KernelPolicy::Exact).train(&spec, &ds);
    // Both resolve Exact unless the KG_* env knobs say otherwise; under
    // KG_KERNEL_POLICY=fast the knob-less trainer follows the environment,
    // so only compare when the environment is at its default.
    if KernelPolicy::default_from_env() == KernelPolicy::Exact {
        assert_models_identical(&legacy, &pinned, "pinned Exact drifted from the default policy");
    }
}

/// A worker panicking mid-epoch (step 4 of ~12, a spawned worker, not the
/// lead) poisons the step, unwinds the whole crew through its barriers
/// and re-raises on the calling thread — the test would hang instead of
/// pass if any participant were left at a barrier.
#[test]
#[should_panic(expected = "train crew grenade tripped")]
fn mid_epoch_worker_panic_unwinds_without_deadlock() {
    let ds = toy_dataset();
    let cfg = quick_cfg();
    let spec = classics::complex();
    Trainer::new(cfg).threads(4).inject_panic_at(4, 2).train(&spec, &ds);
}

/// Same protocol when the lead itself trips mid-epoch.
#[test]
#[should_panic(expected = "train crew grenade tripped")]
fn mid_epoch_lead_panic_unwinds_without_deadlock() {
    let ds = toy_dataset();
    let cfg = quick_cfg();
    let spec = classics::complex();
    Trainer::new(cfg).threads(4).inject_panic_at(3, 0).train(&spec, &ds);
}

/// Same protocol when the participant that trips owns no query row on that
/// step: step 1 is the 4-triple flush block, whose 8 rows a 12-thread crew
/// deals to all but participants 0, 3, 6 and 9.
#[test]
#[should_panic(expected = "train crew grenade tripped")]
fn rowless_participant_panic_unwinds_without_deadlock() {
    let ds = toy_dataset();
    let cfg = quick_cfg();
    let spec = classics::complex();
    Trainer::new(cfg).threads(12).inject_panic_at(1, 3).train(&spec, &ds);
}

/// A panicking epoch callback must also unwind the crew cleanly.
#[test]
#[should_panic(expected = "callback bailed")]
fn callback_panic_unwinds_without_deadlock() {
    let ds = toy_dataset();
    let cfg = quick_cfg();
    let spec = classics::complex();
    Trainer::new(cfg).threads(4).train_with_callback(
        &spec,
        &ds,
        |_m: &BlmModel, info: kg_train::EpochInfo| {
            assert!(info.epoch < 1, "callback bailed");
            ControlFlow::Continue
        },
    );
}
