//! Equivalence suite for entity-table-sharded parallel ranking: for **any**
//! model family, thread count and shard layout — including degenerate ones
//! — sharded [`evaluate_parallel_with`] / [`evaluate_parallel_sharded_with`]
//! must reproduce the per-query reference [`evaluate_sequential`]
//! **bit-identically** (same `RankMetrics` bytes, not approximately).
//!
//! This is the safety net every future scale-out PR inherits: shard scores
//! are bit-identical columns of the full-table path, and per-shard
//! `(greater, equal)` counts are integers whose merge is order-independent,
//! so nothing about scheduling, shard widths or thread counts may show in
//! the metrics. The properties below drive random models × random thread
//! counts × random (often degenerate) shard boundaries through that claim.

use kg_core::{FilterIndex, Triple};
use kg_eval::ranking::{
    evaluate_parallel_sharded_with, evaluate_parallel_with, evaluate_sequential, shard_bounds,
};
use kg_linalg::{KernelPolicy, SeededRng};
use kg_models::blm::classics;
use kg_models::nnm::{GenApprox, NnmConfig};
use kg_models::rules::{RuleConfig, RuleModel};
use kg_models::tdm::{RotatE, TdmConfig, TransE, TransH};
use kg_models::{BatchScorer, BlmModel, Embeddings, LinkPredictor};
use proptest::prelude::*;

const N_ENTITIES: usize = 40;
const N_RELATIONS: usize = 3;

/// A triple set long enough to cross the 64-triple evaluation-block
/// boundary (ragged final block included), with repeated `(h, r)` groups so
/// the filtered protocol actually excludes candidates.
fn triples(seed: u64) -> Vec<Triple> {
    let mut rng = SeededRng::new(seed);
    (0..90)
        .map(|i| {
            if i % 4 == 0 {
                Triple::new(2, 1, rng.below(N_ENTITIES) as u32)
            } else {
                Triple::new(
                    rng.below(N_ENTITIES) as u32,
                    rng.below(N_RELATIONS) as u32,
                    rng.below(N_ENTITIES) as u32,
                )
            }
        })
        .collect()
}

/// Turn random cut points into legal shard bounds: sorted, clamped by the
/// mandatory 0 and `N_ENTITIES` endpoints. Duplicates survive on purpose —
/// they are zero-width shards, one of the degenerate cases under test.
fn bounds_from_cuts(mut cuts: Vec<usize>) -> Vec<usize> {
    cuts.push(0);
    cuts.push(N_ENTITIES);
    cuts.sort_unstable();
    cuts
}

fn assert_sharded_equivalent(model: &(impl BatchScorer + Sync), name: &str, bounds: &[usize]) {
    let ts = triples(0xC0FFEE ^ name.len() as u64);
    let filter = FilterIndex::build(&ts);
    let reference = evaluate_sequential(model, &ts, &filter);
    let sharded = evaluate_parallel_sharded_with(KernelPolicy::Exact, model, &ts, &filter, bounds);
    assert_eq!(sharded, reference, "{name}: sharded ranking diverged at bounds {bounds:?}");
}

/// The all-ties degenerate case: every candidate scores the same, so every
/// rank is pure tie-counting — the easiest place for a sharded count merge
/// to drift by one.
struct Flat {
    n: usize,
}

impl LinkPredictor for Flat {
    fn n_entities(&self) -> usize {
        self.n
    }
    fn score_triple(&self, _: usize, _: usize, _: usize) -> f32 {
        0.125
    }
    fn score_tails(&self, _: usize, _: usize, out: &mut [f32]) {
        out.fill(0.125);
    }
    fn score_heads(&self, _: usize, _: usize, out: &mut [f32]) {
        out.fill(0.125);
    }
}

impl BatchScorer for Flat {}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Classic BLM specs (row-restricted GEMM override) across random
    /// thread counts: the public `evaluate_parallel_with` entry point. The
    /// range deliberately runs past the core count of typical CI runners —
    /// oversubscribed shard threads (threads > cores) get preempted
    /// mid-block, which is exactly the scheduling pressure that would
    /// surface an order-dependent count merge.
    #[test]
    fn blm_classics_any_thread_count(spec_idx in 0usize..4, n_threads in 1usize..=16) {
        let (name, spec) = classics::all().swap_remove(spec_idx);
        let mut rng = SeededRng::new(0xB1 + spec_idx as u64);
        let model = BlmModel::new(spec, Embeddings::init(N_ENTITIES, N_RELATIONS, 16, &mut rng));
        let ts = triples(0xB1);
        let filter = FilterIndex::build(&ts);
        prop_assert_eq!(
            evaluate_parallel_with(KernelPolicy::Exact, &model, &ts, &filter, n_threads),
            evaluate_sequential(&model, &ts, &filter),
            "{} diverged at {} threads", name, n_threads
        );
    }

    /// Random (frequently degenerate) shard boundaries for a BLM: width-0
    /// shards, single-entity shards, ragged tails — all bit-identical.
    #[test]
    fn blm_random_shard_boundaries(
        seed in 0u64..1_000,
        cuts in prop::collection::vec(0usize..=N_ENTITIES, 0..6),
    ) {
        let mut rng = SeededRng::new(seed);
        let model = BlmModel::new(
            classics::complex(),
            Embeddings::init(N_ENTITIES, N_RELATIONS, 16, &mut rng),
        );
        let bounds = bounds_from_cuts(cuts);
        assert_sharded_equivalent(&model, "ComplEx", &bounds);
    }

    /// The TDM family across its native shard paths: TransE and TransH
    /// restrict their distance loops to shard rows, RotatE's paired-lane
    /// `(re, im)` kernel hoists the rotation per query — same guarantee,
    /// different kernels.
    #[test]
    fn tdm_family_random_shards(
        family in 0usize..3,
        n_threads in 1usize..=16,
        cuts in prop::collection::vec(0usize..=N_ENTITIES, 0..4),
    ) {
        let mut rng = SeededRng::new(0x7D + family as u64);
        let cfg = TdmConfig { dim: 12, ..Default::default() };
        let bounds = bounds_from_cuts(cuts);
        match family {
            0 => {
                let m = TransE::init(N_ENTITIES, N_RELATIONS, cfg, &mut rng);
                assert_sharded_equivalent(&m, "TransE", &bounds);
                assert_sharded_equivalent(&m, "TransE", &shard_bounds(N_ENTITIES, n_threads));
            }
            1 => {
                let m = TransH::init(N_ENTITIES, N_RELATIONS, cfg, &mut rng);
                assert_sharded_equivalent(&m, "TransH", &bounds);
            }
            _ => {
                let m = RotatE::init(N_ENTITIES, N_RELATIONS, cfg, &mut rng);
                assert_sharded_equivalent(&m, "RotatE", &bounds);
            }
        }
    }

    /// Through the public entry point, the rule model's own shard override
    /// (each row's rules grounded once per entity shard) — bit-identical at
    /// every thread count, including oversubscribed crews (up to 16
    /// workers, more than most CI runners have cores).
    #[test]
    fn rule_model_entity_shards_any_thread_count(n_threads in 1usize..=16, seed in 0u64..1_000) {
        // RuleModel is the one shipped model that neither factorises nor
        // measures a distance: its shard scoring is index lookups.
        let ts = triples(seed);
        let m = RuleModel::learn(&ts, N_ENTITIES, N_RELATIONS, RuleConfig::default());
        let filter = FilterIndex::build(&ts);
        prop_assert_eq!(
            evaluate_parallel_with(KernelPolicy::Exact, &m, &ts, &filter, n_threads),
            evaluate_sequential(&m, &ts, &filter),
            "RuleModel query-split mode diverged at {} threads", n_threads
        );
    }

    /// The Gen-Approx MLP (query-network forward + row-restricted GEMM
    /// override) across random thread counts and shard splits.
    #[test]
    fn nnm_random_shards(
        seed in 0u64..1_000,
        cuts in prop::collection::vec(0usize..=N_ENTITIES, 0..4),
    ) {
        let mut rng = SeededRng::new(seed);
        let cfg = NnmConfig { dim: 16, epochs: 0, lr: 0.1, l2: 1e-4 };
        let m = GenApprox::init(N_ENTITIES, N_RELATIONS, cfg, &mut rng);
        assert_sharded_equivalent(&m, "GenApprox", &bounds_from_cuts(cuts));
    }

    /// The constant scorer: all ties, every rank decided purely by the
    /// merged tie counts (and the filter), at every thread count and split.
    #[test]
    fn constant_scorer_all_ties(
        n_threads in 1usize..=16,
        cuts in prop::collection::vec(0usize..=N_ENTITIES, 0..6),
    ) {
        let model = Flat { n: N_ENTITIES };
        let ts = triples(0xF1A7);
        let filter = FilterIndex::build(&ts);
        let reference = evaluate_sequential(&model, &ts, &filter);
        prop_assert_eq!(evaluate_parallel_with(KernelPolicy::Exact, &model, &ts, &filter, n_threads), reference);
        prop_assert_eq!(
            evaluate_parallel_sharded_with(KernelPolicy::Exact, &model, &ts, &filter, &bounds_from_cuts(cuts)),
            reference
        );
    }
}

/// More workers than entities: `evaluate_parallel_with` must cap the shard
/// count at the table size and stay exact (a one-entity table included).
#[test]
fn thread_counts_beyond_table_size_are_exact() {
    let mut rng = SeededRng::new(0x5CA1E);
    let model = BlmModel::new(classics::simple(), Embeddings::init(6, 2, 8, &mut rng));
    let ts: Vec<Triple> = (0..10u32).map(|i| Triple::new(i % 6, i % 2, i * 5 % 6)).collect();
    let filter = FilterIndex::build(&ts);
    let reference = evaluate_sequential(&model, &ts, &filter);
    for n_threads in [7, 8, 16, 64] {
        assert_eq!(
            evaluate_parallel_with(KernelPolicy::Exact, &model, &ts, &filter, n_threads),
            reference,
            "{n_threads} threads over a 6-entity table"
        );
    }
}

/// Every shard degenerate at once: all width-0 but one, plus the all-ties
/// scorer, crossing an evaluation-block boundary.
#[test]
fn fully_degenerate_bounds_on_all_ties() {
    let model = Flat { n: N_ENTITIES };
    let ts = triples(0xDE6E);
    let filter = FilterIndex::build(&ts);
    let reference = evaluate_sequential(&model, &ts, &filter);
    let degenerate: Vec<usize> = vec![0, 0, 0, N_ENTITIES, N_ENTITIES, N_ENTITIES];
    assert_eq!(
        evaluate_parallel_sharded_with(KernelPolicy::Exact, &model, &ts, &filter, &degenerate),
        reference
    );
    let singletons = shard_bounds(N_ENTITIES, N_ENTITIES);
    assert_eq!(
        evaluate_parallel_sharded_with(KernelPolicy::Exact, &model, &ts, &filter, &singletons),
        reference
    );
}

/// Panics when asked to score tails for head entity `trip_on` — placed so
/// the trip happens in the **second** 64-query evaluation block, after
/// every shard has ranked the first one.
struct LateGrenade {
    n: usize,
    trip_on: usize,
}

impl LinkPredictor for LateGrenade {
    fn n_entities(&self) -> usize {
        self.n
    }
    fn score_triple(&self, _: usize, _: usize, _: usize) -> f32 {
        0.0
    }
    fn score_tails(&self, h: usize, _: usize, out: &mut [f32]) {
        assert!(h != self.trip_on, "grenade tripped");
        out.fill(0.0);
    }
    fn score_heads(&self, _: usize, _: usize, out: &mut [f32]) {
        out.fill(0.0);
    }
}

impl BatchScorer for LateGrenade {}

/// 70 triples = one full 64-query block plus a ragged second block; only
/// index 68 carries the tripping head, so block 1 scores cleanly in both
/// directions before the shards hit the grenade mid-run.
fn late_grenade_triples(trip_on: u32) -> Vec<Triple> {
    let mut ts: Vec<Triple> = (0..70u32).map(|i| Triple::new(i % 10, 0, (i + 1) % 10)).collect();
    ts[68] = Triple::new(trip_on, 0, 3);
    ts
}

/// A model panic while scoring block 2 — with block 1's counts already
/// kept — must abort cleanly: no hang (the test would time out), original
/// payload re-thrown on join. Entity-shard mode: explicit bounds, every
/// shard stages full rows, so every shard thread trips at the same block.
#[test]
#[should_panic(expected = "grenade tripped")]
fn panic_in_second_block_aborts_pipeline_entity_mode() {
    let m = LateGrenade { n: 12, trip_on: 11 };
    let ts = late_grenade_triples(11);
    let filter = FilterIndex::build(&ts);
    evaluate_parallel_sharded_with(KernelPolicy::Exact, &m, &ts, &filter, &[0, 4, 8, 12]);
}

/// Same second-block grenade through the public entry point's even entity
/// shards: the staged default shard path scores every row in every shard,
/// so every shard thread trips at the same block, and the panic must come
/// back from the join instead of deadlocking.
#[test]
#[should_panic(expected = "grenade tripped")]
fn panic_in_second_block_aborts_pipeline_query_mode() {
    let m = LateGrenade { n: 12, trip_on: 11 };
    let ts = late_grenade_triples(11);
    let filter = FilterIndex::build(&ts);
    // Four workers over 12 entities: 0..3, 3..6, 6..9, 9..12.
    evaluate_parallel_with(KernelPolicy::Exact, &m, &ts, &filter, 4);
}
