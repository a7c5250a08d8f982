//! Equivalence suite for the cooperative training engine.
//!
//! The contract under test (see `kg_train::crew`):
//!
//! * **One trajectory** — the crew's trained embeddings and reported
//!   epoch losses are byte-identical to the sequential loop's for any crew
//!   size, including oversubscribed crews (12 threads on however few cores
//!   CI has), under either kernel policy.
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
/// every epoch exercises a mid-batch step as well as the batch-boundary
/// flush.
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

/// The headline guarantee: every shipped model family, crews from solo to
/// oversubscribed — all byte-identical to the sequential loop. At 12
/// threads the 4-triple flush block's 8 query rows leave four participants
/// (the lead among them) without a row, and the 20 entities give eight
/// participants no more than one entity.
#[test]
fn crew_is_thread_count_independent_across_families_and_grids() {
    let ds = toy_dataset();
    let cfg = quick_cfg();
    for (name, spec) in classics::all() {
        let seq = Trainer::new(cfg).train(&spec, &ds);
        for threads in [1, 2, 3, 4, 8, 12] {
            let crew = Trainer::new(cfg).threads(threads).train(&spec, &ds);
            assert_models_identical(
                &seq,
                &crew,
                &format!("{name}: crew({threads}) diverged from the sequential loop"),
            );
        }
    }
}

/// The crew and the sequential trainer share seed, init, shuffle, step
/// rule and the block's arithmetic: under a pinned `Exact` policy their
/// trained embeddings are the same bytes on every family.
#[test]
fn crew_tracks_sequential_trainer_within_fp_noise() {
    let ds = toy_dataset();
    let cfg = quick_cfg();
    for (name, spec) in classics::all() {
        let seq = Trainer::new(cfg).policy(KernelPolicy::Exact).train(&spec, &ds);
        let crew = Trainer::new(cfg).threads(4).policy(KernelPolicy::Exact).train(&spec, &ds);
        assert_models_identical(&seq, &crew, &format!("{name}: crew diverged from sequential"));
    }
}

/// Training still learns through the crew: the epoch losses it reports
/// decrease, and equal the sequential loop's and the solo crew's exactly
/// (the loss is summed from the same per-row cross-entropies in the same
/// order).
#[test]
fn crew_loss_decreases_and_is_thread_count_independent() {
    let ds = toy_dataset();
    let cfg = TrainConfig { epochs: 10, ..quick_cfg() };
    let spec = classics::complex();
    let losses = |threads: Option<usize>| {
        let mut seen = Vec::new();
        let trainer = Trainer::new(cfg);
        let trainer = match threads {
            Some(n) => trainer.threads(n),
            None => trainer,
        };
        trainer.train_with_callback(&spec, &ds, |_m: &BlmModel, info: kg_train::EpochInfo| {
            seen.push(info.loss.to_bits());
            ControlFlow::Continue
        });
        seen
    };
    let seq = losses(None);
    let solo = losses(Some(1));
    let crew = losses(Some(4));
    assert_eq!(solo.len(), 10);
    let (first, last) = (f32::from_bits(solo[0]), f32::from_bits(solo[9]));
    assert!(last < first, "loss should decrease through the crew: first {first}, last {last}");
    assert_eq!(solo, seq, "reported epoch losses diverged from the sequential loop");
    assert_eq!(solo, crew, "reported epoch losses diverged between crew sizes");
}

/// The Fast tier contracts multiply-adds but not the crew's split: the
/// `Fast` crew equals the `Fast` sequential loop bit for bit at every crew
/// size, and the relaxed result stays within the documented noise band of
/// the exact one.
#[test]
fn fast_policy_crew_is_deterministic_and_close_to_exact() {
    let ds = toy_dataset();
    let cfg = quick_cfg();
    let spec = classics::simple();
    let fast_seq = Trainer::new(cfg).policy(KernelPolicy::Fast).train(&spec, &ds);
    for threads in [1, 4] {
        let fast = Trainer::new(cfg).threads(threads).policy(KernelPolicy::Fast).train(&spec, &ds);
        assert_models_identical(
            &fast_seq,
            &fast,
            &format!("Fast crew({threads}) diverged from the Fast sequential loop"),
        );
    }
    let exact = Trainer::new(cfg).threads(4).policy(KernelPolicy::Exact).train(&spec, &ds);
    let err = max_rel_err(&exact, &fast_seq);
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
