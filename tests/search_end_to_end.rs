//! End-to-end AutoSF search: the discovered structure must be valid,
//! expressive where the data demands it, and at least as good as the f4
//! seeds it grew from.

use autosf::filter::satisfies_c2;
use autosf::{GreedyConfig, GreedySearch, SearchDriver};
use kg_datagen::{preset, Preset, Scale};
use kg_train::TrainConfig;

fn tcfg() -> TrainConfig {
    TrainConfig { dim: 16, epochs: 8, lr: 0.3, l2: 1e-4, batch_size: 256, ..Default::default() }
}

#[test]
fn search_output_is_valid_and_competitive() {
    let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 31);
    let mut driver = SearchDriver::new(&ds, tcfg(), 4);
    let gcfg =
        GreedyConfig { b_max: 6, n_candidates: 16, k1: 4, k2: 4, rounds: 2, ..Default::default() };
    let outcome = GreedySearch::new(gcfg).run(&mut driver);

    assert!(satisfies_c2(&outcome.best_spec), "search returned a C2-violating structure");
    assert!(outcome.best_mrr > 0.0 && outcome.best_mrr <= 1.0);

    // the best must be ≥ the mean of the f4 tier it grew from
    let f4_mean: f64 = driver.trace.records.iter().take(5).map(|r| r.mrr).sum::<f64>() / 5.0;
    assert!(
        outcome.best_mrr >= f4_mean,
        "best {:.3} below f4 mean {:.3}",
        outcome.best_mrr,
        f4_mean
    );
}

#[test]
fn search_trace_is_monotone_in_model_index() {
    let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 32);
    let mut driver = SearchDriver::new(&ds, tcfg(), 4);
    let gcfg =
        GreedyConfig { b_max: 6, n_candidates: 12, k1: 4, k2: 3, rounds: 1, ..Default::default() };
    GreedySearch::new(gcfg).run(&mut driver);
    let idx: Vec<usize> = driver.trace.records.iter().map(|r| r.model_index).collect();
    for w in idx.windows(2) {
        assert!(w[1] == w[0] + 1, "model indices must be consecutive: {idx:?}");
    }
}

#[test]
fn searches_with_different_seeds_can_differ_but_both_work() {
    let ds = preset(Preset::Fb15k237Like, Scale::Tiny, 33);
    let run = |seed: u64| {
        let mut driver = SearchDriver::new(&ds, tcfg(), 4);
        let gcfg = GreedyConfig {
            b_max: 6,
            n_candidates: 12,
            k1: 4,
            k2: 3,
            rounds: 1,
            seed,
            ..Default::default()
        };
        GreedySearch::new(gcfg).run(&mut driver).best_mrr
    };
    let a = run(1);
    let b = run(2);
    assert!(a > 0.0 && b > 0.0);
}

/// A candidate is trained and ranked by one thread with a seed fixed by its
/// place in the batch, so the thread count decides only who does the work.
#[test]
fn search_trace_is_identical_across_thread_counts() {
    let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 34);
    let run = |n_threads: usize| {
        let mut driver = SearchDriver::new(&ds, tcfg(), n_threads);
        let gcfg = GreedyConfig {
            b_max: 6,
            n_candidates: 12,
            k1: 4,
            k2: 4,
            rounds: 1,
            ..Default::default()
        };
        let outcome = GreedySearch::new(gcfg).run(&mut driver);
        let trace: Vec<_> =
            driver.trace.records.into_iter().map(|r| (r.spec, r.mrr, r.model_index)).collect();
        (trace, outcome.best_spec)
    };
    let one = run(1);
    assert!(one.0.len() > 5, "the search stopped at the f4 stage");
    assert_eq!(run(2), one, "2 threads");
    assert_eq!(run(4), one, "4 threads");
}
