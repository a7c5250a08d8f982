//! Parallel training of candidate structures.
//!
//! The paper trains "8 models in parallel" per greedy iteration
//! (Sec. V-A3); we fan candidates out over OS threads with
//! [`kg_eval::crew::fan_out`] (scoped, so the dataset is borrowed, not
//! cloned). Every candidate trains with its own deterministic seed, so the
//! result is independent of thread interleaving.

use crate::config::TrainConfig;
use crate::trainer::{train, Trainer};
use kg_core::Dataset;
use kg_eval::crew::fan_out;
use kg_models::{BlmModel, BlockSpec};

/// Clamp a per-candidate crew size so `candidates × inner_threads` never
/// exceeds the machine's logical cores — nesting the sharded training
/// crew ([`Trainer::threads`]) inside the candidate fan-out must not
/// oversubscribe. Pure policy arithmetic; `cores` comes from
/// [`std::thread::available_parallelism`] in [`clamp_inner_threads`].
pub fn clamp_inner_threads_for(candidates: usize, inner_threads: usize, cores: usize) -> usize {
    inner_threads.max(1).min((cores / candidates.max(1)).max(1))
}

/// [`clamp_inner_threads_for`] against this machine's logical core count
/// (1 when it cannot be determined).
pub fn clamp_inner_threads(candidates: usize, inner_threads: usize) -> usize {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    clamp_inner_threads_for(candidates, inner_threads, cores)
}

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
    fan_out(n_threads, specs.len(), |i| train(&specs[i], ds, &candidate_cfg(cfg, i)))
}

/// [`train_many`] with each candidate itself training on a sharded crew
/// of `inner_threads` threads ([`Trainer::threads`]). The crew size is
/// clamped so concurrently-running candidates times their inner crews
/// never exceed the logical core count ([`clamp_inner_threads`]) —
/// requesting more inner threads than fit degrades gracefully instead of
/// oversubscribing. Results are independent of both thread knobs: the
/// outer fan-out fixes per-candidate seeds, the inner crew is
/// thread-count deterministic at its fixed shard grid.
pub fn train_many_crewed(
    specs: &[BlockSpec],
    ds: &Dataset,
    cfg: &TrainConfig,
    n_threads: usize,
    inner_threads: usize,
) -> Vec<BlmModel> {
    assert!(inner_threads > 0, "need at least one crew thread per candidate");
    let inner = clamp_inner_threads(n_threads.min(specs.len()), inner_threads);
    fan_out(n_threads, specs.len(), |i| {
        Trainer::new(candidate_cfg(cfg, i)).threads(inner).train(&specs[i], ds)
    })
}

/// Candidate `i`'s config: the shared one, reseeded.
fn candidate_cfg(cfg: &TrainConfig, i: usize) -> TrainConfig {
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
            let seq = train(spec, &ds, &cfg().with_seed(cfg().seed + i as u64));
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

    #[test]
    fn inner_thread_clamp_divides_the_cores() {
        // candidates × clamped ≤ cores, floored at one thread each
        assert_eq!(clamp_inner_threads_for(8, 4, 8), 1);
        assert_eq!(clamp_inner_threads_for(2, 4, 8), 4);
        assert_eq!(clamp_inner_threads_for(3, 4, 8), 2);
        assert_eq!(clamp_inner_threads_for(1, 16, 8), 8);
        // never above the request, never below one
        assert_eq!(clamp_inner_threads_for(2, 1, 8), 1);
        assert_eq!(clamp_inner_threads_for(16, 16, 1), 1);
        // degenerate inputs stay sane
        assert_eq!(clamp_inner_threads_for(0, 4, 8), 4);
        assert_eq!(clamp_inner_threads_for(4, 0, 8), 1);
        for candidates in 1..=10 {
            for inner in 1..=10 {
                for cores in 1..=12 {
                    let c = clamp_inner_threads_for(candidates, inner, cores);
                    assert!(c >= 1 && c <= inner.max(1));
                    assert!(c == 1 || candidates * c <= cores, "{candidates}×{c} > {cores}");
                }
            }
        }
    }

    #[test]
    fn crewed_fan_out_matches_plain_fan_out() {
        // The inner crew is thread-count deterministic, but it is a
        // different engine from the sequential trainer (fixed-grid f32
        // reassociation) — so compare the crewed fan-out against the same
        // crews driven directly, not against `train_many`.
        let ds = toy_dataset();
        let specs = vec![classics::distmult(), classics::complex()];
        let par = train_many_crewed(&specs, &ds, &cfg(), 2, 4);
        let inner = clamp_inner_threads(2, 4);
        for (i, spec) in specs.iter().enumerate() {
            let cfg_i = cfg().with_seed(cfg().seed + i as u64);
            let direct = Trainer::new(cfg_i).threads(inner).train(spec, &ds);
            assert_eq!(par[i].emb.ent, direct.emb.ent, "candidate {i} differs");
        }
    }
}
