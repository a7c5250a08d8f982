//! Parallel training of candidate structures.
//!
//! The paper trains "8 models in parallel" per greedy iteration
//! (Sec. V-A3); we fan candidates out over OS threads with
//! [`kg_eval::crew::fan_out`] (scoped, so the dataset is borrowed, not
//! cloned). Every candidate trains with its own deterministic seed, so the
//! result is independent of thread interleaving.

use crate::config::TrainConfig;
use crate::trainer::Trainer;
use kg_core::Dataset;
use kg_eval::crew::fan_out;
use kg_models::{BlmModel, BlockSpec};

/// Train every spec on `ds`, using up to `n_threads` threads (the caller
/// is one of them). Returns models in the same order as `specs`.
///
/// Candidate `i` trains with seed `cfg.seed + i`, matching what a
/// sequential loop would use — parallelism never changes results. A
/// candidate that panics (an invalid configuration, say) is re-raised with
/// its own message.
pub fn train_many(
    specs: &[BlockSpec],
    ds: &Dataset,
    cfg: &TrainConfig,
    n_threads: usize,
) -> Vec<BlmModel> {
    fan_out(n_threads, specs.len(), |i| Trainer::new(candidate_cfg(cfg, i)).train(&specs[i], ds))
}

/// Candidate `i`'s config: the shared one, reseeded to `cfg.seed + i`.
/// Public so that a caller fanning candidates out itself (the search
/// driver trains and ranks a candidate in one item) seeds them by the same
/// rule as [`train_many`].
pub fn candidate_cfg(cfg: &TrainConfig, i: usize) -> TrainConfig {
    cfg.with_seed(cfg.seed.wrapping_add(i as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::Triple;
    use kg_models::blm::classics;

    fn toy_dataset() -> Dataset {
        let train: Vec<Triple> = (0..20u32).map(|i| Triple::new(i, 0, (i + 1) % 20)).collect();
        Dataset::new("toy", train, vec![], vec![])
    }

    fn cfg() -> TrainConfig {
        TrainConfig { dim: 8, epochs: 3, batch_size: 8, ..Default::default() }
    }

    #[test]
    fn parallel_matches_sequential() {
        let ds = toy_dataset();
        let specs = vec![classics::distmult(), classics::complex(), classics::simple()];
        let par = train_many(&specs, &ds, &cfg(), 3);
        // sequential reference with the same per-candidate seeds
        for (i, spec) in specs.iter().enumerate() {
            let seq = Trainer::new(cfg().with_seed(cfg().seed + i as u64)).train(spec, &ds);
            assert_eq!(par[i].emb.ent, seq.emb.ent, "candidate {i} differs");
        }
    }

    #[test]
    fn order_is_preserved() {
        let ds = toy_dataset();
        let specs = vec![classics::distmult(), classics::simple()];
        let out = train_many(&specs, &ds, &cfg(), 2);
        assert_eq!(out[0].spec, specs[0]);
        assert_eq!(out[1].spec, specs[1]);
    }

    #[test]
    fn empty_input_is_fine() {
        let ds = toy_dataset();
        assert!(train_many(&[], &ds, &cfg(), 4).is_empty());
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let ds = toy_dataset();
        let out = train_many(&[classics::distmult()], &ds, &cfg(), 8);
        assert_eq!(out.len(), 1);
    }

    /// A failing candidate must surface with its own message, not as an
    /// opaque "training worker panicked" wrapper.
    #[test]
    #[should_panic(expected = "invalid training configuration")]
    fn candidate_panic_keeps_its_cause() {
        let ds = toy_dataset();
        let specs = vec![classics::distmult(), classics::complex(), classics::simple()];
        train_many(&specs, &ds, &TrainConfig { dim: 6, ..cfg() }, 2);
    }
}
