//! The fastest case of each crate-level contract suite, so the root
//! `cargo test -q` (Tier-1) sees every contract once. The suites
//! themselves run under `cargo test --workspace`. Budget: under a second
//! in debug per contract — one tiny fixed input each; as training loops
//! one two-epoch run on eight triples, two three-epoch crew runs on forty
//! and two ten-model searches at two epochs a model. The one table wider
//! than 250 entities is the ranking-tile fixture, just past two tiles.

use autosf::invariance::OrbitKey;
use autosf::{GreedyConfig, GreedySearch, SearchDriver};
use kg_core::{Dataset, FilterIndex, Triple};
use kg_datagen::{preset, Preset, Scale};
use kg_eval::engine::{plan_shards, TILE};
use kg_eval::ranking::{
    evaluate_parallel_sharded_with, evaluate_parallel_with, evaluate_sequential, evaluate_with,
    filtered_rank, top_k, RankMetrics,
};
use kg_linalg::{gemm, vecops, KernelPolicy, Mat, SeededRng};
use kg_models::blm::classics;
use kg_models::{BatchScorer, BatchScratch, BlmModel, Embeddings, LinkPredictor};
use kg_serve::KgEngine;
use kg_train::loss::{
    multiclass_block, multiclass_block_reference, LossScratch, MulticlassScratch,
};
use kg_train::{TrainConfig, Trainer};
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A 40-entity ComplEx model and 90 triples over it — past one 64-triple
/// evaluation block, with a repeated `(2, 1)` group so the filter
/// excludes candidates — plus their filter.
fn ranking_fixture() -> (BlmModel, Vec<Triple>, FilterIndex) {
    let (n, n_rel) = (40, 3);
    let mut rng = SeededRng::new(21);
    let model = BlmModel::new(classics::complex(), Embeddings::init(n, n_rel, 16, &mut rng));
    let triples: Vec<Triple> = (0..90)
        .map(|i| {
            let h = if i % 4 == 0 { 2 } else { rng.below(n) as u32 };
            let r = if i % 4 == 0 { 1 } else { rng.below(n_rel) as u32 };
            Triple::new(h, r, rng.below(n) as u32)
        })
        .collect();
    let filter = FilterIndex::build(&triples);
    (model, triples, filter)
}

/// A ComplEx model (d 16) over `2 · TILE + 37` entities — two full ranking
/// tiles and a ragged third — with every fifth entity row NaN, and 90
/// triples: first every pair of tile edges (the first and last entity of
/// each tile) as head and tail, so targets and filtered known positives sit
/// on every edge, then random triples. Plus their filter.
fn tiled_fixture() -> (BlmModel, Vec<Triple>, FilterIndex) {
    let (n, n_rel) = (2 * TILE + 37, 3);
    let mut rng = SeededRng::new(27);
    let mut model = BlmModel::new(classics::complex(), Embeddings::init(n, n_rel, 16, &mut rng));
    for e in (0..n).step_by(5) {
        model.emb.ent.row_mut(e).fill(f32::NAN);
    }
    let edges = [TILE - 1, TILE, 2 * TILE - 1, 2 * TILE, n - 1, 0];
    let pairs = edges.iter().flat_map(|&h| edges.iter().map(move |&t| (h, t)));
    let mut triples: Vec<Triple> = pairs
        .enumerate()
        .map(|(i, (h, t))| Triple::new(h as u32, (i % n_rel) as u32, t as u32))
        .collect();
    while triples.len() < 90 {
        let (h, r, t) = (rng.below(n), rng.below(n_rel), rng.below(n));
        triples.push(Triple::new(h as u32, r as u32, t as u32));
    }
    let filter = FilterIndex::build(&triples);
    (model, triples, filter)
}

/// The bits of every metric, for bitwise comparisons.
fn metric_bits(m: RankMetrics) -> ([u64; 5], usize) {
    ([m.mrr, m.mr, m.hits1, m.hits3, m.hits10].map(f64::to_bits), m.n_queries)
}

/// Training trajectory (`kg-train/tests/block_trajectory.rs`): the batched
/// multi-class loss gives every gradient element the per-triple
/// reference's add sequence, byte for byte under `Exact`. One colliding
/// batch as two consecutive blocks into the same gradient tables: entity
/// `4` conditions three query rows, `(7, 0, 7)` has `h == t`, and the
/// first and last table rows are conditioning entities.
#[test]
fn multiclass_block_matches_the_per_triple_reference_bit_for_bit() {
    let (n, n_rel, dim) = (12, 2, 32);
    let spec = classics::complex();
    let emb = Embeddings::init(n, n_rel, dim, &mut SeededRng::new(16));
    let triples =
        [Triple::new(4, 0, 0), Triple::new(11, 1, 4), Triple::new(7, 0, 7), Triple::new(4, 1, 9)];

    let (mut d_ent_ref, mut d_rel_ref) = (Mat::zeros(n, dim), Mat::zeros(n_rel, dim));
    multiclass_block_reference(
        &spec,
        &triples,
        &emb.ent,
        &emb.rel,
        &mut d_ent_ref,
        &mut d_rel_ref,
        &mut LossScratch::new(n, dim),
    );

    let (mut d_ent, mut d_rel) = (Mat::zeros(n, dim), Mat::zeros(n_rel, dim));
    let mut scratch = MulticlassScratch::with_policy(n, dim, KernelPolicy::Exact);
    for block in [&triples[..3], &triples[3..]] {
        multiclass_block(&spec, block, &emb.ent, &emb.rel, &mut d_ent, &mut d_rel, &mut scratch);
    }

    let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(&d_ent), bits(&d_ent_ref), "entity gradients differ");
    assert_eq!(bits(&d_rel), bits(&d_rel_ref), "relation gradients differ");
}

/// Cross-process `Exact` trajectory (`kg-linalg/tests/exp.rs`): one
/// 32-triple block of the multi-class step — its entity and relation
/// gradients and the softmaxed score rows it trains on — hashed to a
/// literal. The step's every operation is defined in-tree, including the
/// softmax's exponential, so the literal holds on any host, under
/// `KG_FORCE_SCALAR=1` (scalar kernels, scalar `exp`) and under
/// `KG_KERNEL_POLICY=fast` (the block pins `Exact`): CI's three release
/// passes check across processes that the forced-scalar trajectory is the
/// dispatched one. The inputs avoid libm too — embeddings are
/// integer-derived, not Box–Muller draws — and the cross-entropy, which
/// calls libm `ln`, is left out. 70 entities leave a ragged tail for both
/// the 8-lane softmax and the 4-lane sum.
#[test]
fn exact_block_step_matches_its_golden_digest() {
    let (n, n_rel, dim) = (70, 3, 32);
    let table = |rows: usize, salt: usize| {
        let v = (0..rows * dim).map(|i| ((i * 37 + salt) % 41) as f32 / 16.0 - 1.25).collect();
        Mat::from_vec(rows, dim, v)
    };
    let (ent, rel) = (table(n, 3), table(n_rel, 11));
    let spec = classics::complex();
    let triples: Vec<Triple> = (0..32u32)
        .map(|i| Triple::new((i * 7) % n as u32, i % n_rel as u32, (i * 13 + 5) % n as u32))
        .collect();

    let (mut d_ent, mut d_rel) = (Mat::zeros(n, dim), Mat::zeros(n_rel, dim));
    let mut scratch = MulticlassScratch::with_policy(n, dim, KernelPolicy::Exact);
    multiclass_block(&spec, &triples, &ent, &rel, &mut d_ent, &mut d_rel, &mut scratch);
    // The block's probability rows, query by query: under `Exact` a `gemv`
    // row is the block's `gemm_nt` row byte for byte.
    let (mut q, mut row, mut probs) = (vec![0.0f32; dim], vec![0.0f32; n], Vec::new());
    for t in &triples {
        let (h, r, tail) = (t.h.idx(), t.r.idx(), t.t.idx());
        spec.tail_query(ent.row(h), rel.row(r), &mut q, dim / 4);
        ent.gemv(&q, &mut row);
        vecops::softmax_inplace(&mut row);
        probs.extend_from_slice(&row);
        spec.head_query(ent.row(tail), rel.row(r), &mut q, dim / 4);
        ent.gemv(&q, &mut row);
        vecops::softmax_inplace(&mut row);
        probs.extend_from_slice(&row);
    }

    // FNV-1a over the little-endian bytes of every float.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for v in d_ent.as_slice().iter().chain(d_rel.as_slice()).chain(&probs) {
        for b in v.to_bits().to_le_bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    // Re-baselined when the fused multiply-add chain became `Exact`.
    assert_eq!(digest, 0xf437_7401_8ee8_255d, "block digest {digest:#018x}");
}

/// Resumable training (`kg-train/src/trainer.rs`): a `TrainRun` of width
/// 1, 2 or 3, advanced epoch by epoch with its model read in between, ends
/// where one width-1 `train` call at that many epochs ends, byte for byte.
/// Eight triples over six entities, two batches an epoch.
#[test]
fn train_run_epochs_equal_one_train_call() {
    let train = (0..8u32).map(|i| Triple::new(i % 6, i % 2, (i + 1) % 6)).collect();
    let ds = Dataset::new("tiny", train, vec![], vec![]);
    let cfg = TrainConfig { dim: 8, epochs: 2, batch_size: 5, ..TrainConfig::default() };
    let bits = |m: &BlmModel| {
        m.emb
            .ent
            .as_slice()
            .iter()
            .chain(m.emb.rel.as_slice())
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    let once = bits(&Trainer::new(cfg).train(&classics::complex(), &ds));
    for threads in [1, 2, 3] {
        let mut run = Trainer::new(cfg).threads(threads).start(&classics::complex(), &ds);
        let mut seen = Vec::new();
        for _ in 0..cfg.epochs {
            run.epoch();
            seen.push(run.model().score_triple(0, 0, 1));
        }
        assert_ne!(seen[0], seen[1], "width {threads}: the run moved between epochs");
        assert_eq!(bits(&run.into_model()), once, "width {threads}");
    }
}

/// Crewed trajectory (`kg-train/tests/train_equivalence.rs`): a ComplEx
/// model trained under `Exact` by the sequential loop and by the crew at
/// one thread and at three, hashed to one literal. `train_equivalence`
/// compares the engines with each other; this pins the bytes they all
/// agree on, so a change that moved both together fails here. Batch 36
/// over 40 triples: every epoch has a mid-batch step, a ragged four-triple
/// flush step and a second batch. The trajectory is libm-free — `Embeddings::init` draws
/// Xavier-uniform (xoshiro uniform and `sqrt`), the softmax's exponential
/// is in-tree — and the reported loss, which calls `ln`, is not hashed.
#[test]
fn crewed_trajectory_matches_its_golden_digest() {
    let train = (0..40u32).map(|i| Triple::new(i % 20, i % 2, (i * 7 + 3) % 20)).collect();
    let ds = Dataset::new("tiny", train, vec![], vec![]);
    let cfg = TrainConfig { dim: 16, epochs: 3, batch_size: 36, ..TrainConfig::default() };
    for threads in [None, Some(1), Some(3)] {
        let trainer = Trainer::new(cfg).policy(KernelPolicy::Exact);
        let trainer = match threads {
            Some(n) => trainer.threads(n),
            None => trainer,
        };
        let model = trainer.train(&classics::complex(), &ds);
        // FNV-1a over the little-endian bytes of every float.
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for v in model.emb.ent.as_slice().iter().chain(model.emb.rel.as_slice()) {
            for b in v.to_bits().to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        // The sequential loop's, re-baselined when the fused multiply-add
        // chain became `Exact`.
        assert_eq!(digest, 0x473f_301d_a5db_805d, "threads {threads:?}: digest {digest:#018x}");
    }
}

/// The search (`crates/core/src/{greedy,search}.rs`): a tiny greedy search
/// under `Exact` — `Wn18rrLike` Tiny, d 16, stages 4 and 6, ten models —
/// folded into one FNV-1a digest over every trace record's orbit key, MRR
/// bits and model index, at one thread and at three. The search-level
/// sibling of the block and crewed digests: a change that moves any
/// candidate's training or validation ranking, or any decision of the
/// filter, the predictor or `SearchDriver`, moves the literal.
/// `SearchDriver::policy` pins `Exact` for every candidate's training and
/// ranking, so the literal holds under `KG_KERNEL_POLICY=fast` too.
#[test]
fn greedy_search_matches_its_golden_digest() {
    let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 35);
    let cfg = TrainConfig { dim: 16, epochs: 2, batch_size: 256, ..TrainConfig::default() };
    let gcfg =
        GreedyConfig { b_max: 6, n_candidates: 12, k1: 4, k2: 5, rounds: 1, ..Default::default() };
    for threads in [1, 3] {
        let mut driver = SearchDriver::new(&ds, cfg, threads).policy(KernelPolicy::Exact);
        GreedySearch::new(gcfg).run(&mut driver);
        // FNV-1a over the little-endian bytes of each record's fields.
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for rec in &driver.trace.records {
            let key = OrbitKey::of(&rec.spec).bits().to_le_bytes();
            let fields =
                [&key[..], &rec.mrr.to_bits().to_le_bytes(), &rec.model_index.to_le_bytes()];
            for b in fields.concat() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        // Computed before the ranking tile loop served kg-serve; it held
        // when the fused multiply-add chain became `Exact` (no candidate's
        // validation rank moved).
        assert_eq!(digest, 0xe0a1_ab9c_694c_0b60, "search({threads}) digest {digest:#018x}");
    }
}

/// `Exact` kernel bit-identity (`kg-linalg/tests/proptests.rs`): the
/// dispatched `gemm_nt` — the forward of every product path — equals the
/// scalar reference and the per-query `vecops::dot`, byte for byte. One
/// shape that leaves every remainder of the SIMD kernel: 7 query rows
/// (row groups of 2 and a last single), `k = 17` (two vectors and a scalar
/// column of the transpose), a shard `5..96` of 100 table rows — two full
/// 32-row tiles, then 27 = a 2-vector, a 1-vector and a 3-column scalar
/// tail — with a NaN, a `-0.0` and an infinity in the table.
#[test]
fn exact_gemm_nt_matches_the_scalar_reference_and_per_query_dots() {
    let (m, n, k, rows) = (7, 100, 17, 5..96);
    let mut rng = SeededRng::new(18);
    let (mut a, mut b) = (Mat::zeros(m, k), Mat::zeros(n, k));
    rng.fill_normal(1.0, a.as_mut_slice());
    rng.fill_normal(1.0, b.as_mut_slice());
    b.set(6, 0, f32::NAN);
    b.set(50, 9, -0.0);
    b.set(95, 16, f32::INFINITY);

    let width = rows.len();
    let mut dispatched = vec![1.0f32; m * width];
    gemm::gemm_nt_rows_with(
        KernelPolicy::Exact,
        a.as_slice(),
        m,
        k,
        &b,
        rows.clone(),
        &mut dispatched,
    );
    let mut scalar = vec![2.0f32; m * width];
    gemm::gemm_nt_rows_scalar(a.as_slice(), m, k, &b, rows.clone(), &mut scalar);
    let dots: Vec<f32> = (0..m)
        .flat_map(|i| rows.clone().map(move |j| (i, j)))
        .map(|(i, j)| vecops::dot(a.row(i), b.row(j)))
        .collect();

    let bits = kg_linalg::simd::canonical_bits;
    assert_eq!(bits(&dispatched), bits(&scalar), "dispatched gemm_nt differs from scalar");
    assert_eq!(bits(&scalar), bits(&dots), "gemm_nt differs from per-query dots");
}

/// Shard equivalence (`kg-eval/tests/shard_equivalence.rs`): the
/// entity-sharded parallel evaluator at an odd shard count — five shards,
/// one of them zero-width, none tile-aligned — equals the per-query
/// `evaluate_sequential` reference byte for byte.
#[test]
fn sharded_ranking_equals_the_sequential_reference_bytewise() {
    let (model, triples, filter) = ranking_fixture();
    let sharded = evaluate_parallel_sharded_with(
        KernelPolicy::Exact,
        &model,
        &triples,
        &filter,
        &[0, 9, 9, 22, 31, 40],
    );
    assert_eq!(metric_bits(sharded), metric_bits(evaluate_sequential(&model, &triples, &filter)));
}

/// Ranking tiles (`kg-eval/src/ranking.rs`): a block is scored and counted
/// one `TILE` of entities at a time. On the tiled fixture — a ragged last
/// tile, targets and known positives on every tile edge, NaN rows — the
/// tiled evaluator equals the per-query reference under `Exact`, and so
/// does the sharded one on bounds off every tile edge, whose wide shard is
/// two tiles of its own (`5..TILE + 5`, then a ragged one). Under `Fast`
/// the two layouts equal each other.
#[test]
fn tiled_ranking_is_exact_across_tile_boundaries() {
    let (model, triples, filter) = tiled_fixture();
    let bounds = [0, 5, 5, 2 * TILE + 1, model.n_entities()];
    let reference = metric_bits(evaluate_sequential(&model, &triples, &filter));
    let tiled = evaluate_with(KernelPolicy::Exact, &model, &triples, &filter);
    assert_eq!(metric_bits(tiled), reference);
    let sharded =
        evaluate_parallel_sharded_with(KernelPolicy::Exact, &model, &triples, &filter, &bounds);
    assert_eq!(metric_bits(sharded), reference);

    let fast = evaluate_with(KernelPolicy::Fast, &model, &triples, &filter);
    let fast_sharded =
        evaluate_parallel_sharded_with(KernelPolicy::Fast, &model, &triples, &filter, &bounds);
    assert_eq!(metric_bits(fast), metric_bits(fast_sharded));
}

/// A model wrapper that records the `(tails, heads, shard)` of every
/// `score_shard` call and otherwise forwards to the model it wraps.
struct CountingScorer {
    inner: BlmModel,
    calls: Mutex<Vec<(usize, usize, Range<usize>)>>,
}

impl LinkPredictor for CountingScorer {
    fn n_entities(&self) -> usize {
        self.inner.n_entities()
    }
    fn score_triple(&self, h: usize, r: usize, t: usize) -> f32 {
        self.inner.score_triple(h, r, t)
    }
    fn score_tails(&self, h: usize, r: usize, out: &mut [f32]) {
        self.inner.score_tails(h, r, out)
    }
    fn score_heads(&self, r: usize, t: usize, out: &mut [f32]) {
        self.inner.score_heads(r, t, out)
    }
}

impl BatchScorer for CountingScorer {
    fn score_shard(
        &self,
        tails: &[(usize, usize)],
        heads: &[(usize, usize)],
        shard: Range<usize>,
        out: &mut [f32],
        scratch: &mut BatchScratch,
    ) {
        self.calls.lock().unwrap().push((tails.len(), heads.len(), shard.clone()));
        self.inner.score_shard(tails, heads, shard, out, scratch)
    }
}

/// One table pass per ranking block, in entity tiles
/// (`kg-eval/src/ranking.rs`): a block is 32 triples = 64 score rows. First
/// come its `2 · len` thresholds, one-row, one-entity `score_shard` calls
/// on each row's target (tail rows, then head rows); then one call per
/// tile carries all `(len, len)` rows, over `0..TILE, TILE..2·TILE,
/// 2·TILE..n` in order, so every entity is scored once per row per block.
/// 1 / 32 / 33 / 65 triples are 1 / 1 / 2 / 3 blocks; the metrics equal
/// the per-query reference bitwise, and the three-worker cooperative
/// engine's equal them too.
#[test]
fn one_table_pass_per_block_in_entity_tiles() {
    let (model, triples, filter) = tiled_fixture();
    let n = model.n_entities();
    let counting = CountingScorer { inner: model, calls: Mutex::new(Vec::new()) };
    for len in [1, 32, 33, 65] {
        let ts = &triples[..len];
        let mut expect = Vec::new();
        for block in ts.chunks(32) {
            let rows = block.len();
            expect.extend(block.iter().map(|t| (1, 0, t.t.idx()..t.t.idx() + 1)));
            expect.extend(block.iter().map(|t| (0, 1, t.h.idx()..t.h.idx() + 1)));
            expect.extend([0..TILE, TILE..2 * TILE, 2 * TILE..n].map(|tile| (rows, rows, tile)));
        }
        counting.calls.lock().unwrap().clear();
        let batched = evaluate_with(KernelPolicy::Exact, &counting, ts, &filter);
        assert_eq!(*counting.calls.lock().unwrap(), expect, "{len} triples");
        let reference = metric_bits(evaluate_sequential(&counting.inner, ts, &filter));
        assert_eq!(metric_bits(batched), reference, "{len} triples");
        let parallel = evaluate_parallel_with(KernelPolicy::Exact, &counting, ts, &filter, 3);
        assert_eq!(metric_bits(parallel), reference, "{len} triples, 3 threads");
    }
}

/// Sharded ranking calls (`kg-eval/src/ranking.rs`), the parallel sibling
/// of `one_table_pass_per_block_in_entity_tiles`: every non-empty shard
/// ranks every block over its own entities — first one one-entity call per
/// rank row whose target the shard does not hold in its only tile (tail
/// rows, then head rows), then one `(len, len, tile)` call per `TILE` of
/// the shard. The shards run on their own threads, so the calls are
/// checked as one multiset. The bounds hold two zero-width shards, which
/// call the scorer not at all, a shard of two tiles, one of exactly one
/// tile and a ragged one. The metrics equal the per-query reference
/// bitwise.
#[test]
fn sharded_ranking_scores_each_shard_in_tiles() {
    let (model, triples, filter) = tiled_fixture();
    let n = model.n_entities();
    let bounds = [0, 0, TILE + 5, TILE + 5, 2 * TILE + 5, n];
    let counting = CountingScorer { inner: model, calls: Mutex::new(Vec::new()) };
    let ts = &triples[..65];
    let mut expect = Vec::new();
    for block in ts.chunks(32) {
        for shard in bounds.windows(2).map(|w| w[0]..w[1]).filter(|s| !s.is_empty()) {
            let by_call = |&e: &usize| shard.len() > TILE || !shard.contains(&e);
            let tails = block.iter().map(|t| t.t.idx()).filter(by_call).map(|e| (1, 0, e..e + 1));
            let heads = block.iter().map(|t| t.h.idx()).filter(by_call).map(|e| (0, 1, e..e + 1));
            let tiles = shard.clone().step_by(TILE).map(|s| s..(s + TILE).min(shard.end));
            let rows = block.len();
            expect.extend(tails.chain(heads).chain(tiles.map(|tile| (rows, rows, tile))));
        }
    }
    let sharded =
        evaluate_parallel_sharded_with(KernelPolicy::Exact, &counting, ts, &filter, &bounds);
    let key = |(t, h, s): &(usize, usize, Range<usize>)| (s.start, s.end, *t, *h);
    let mut calls = counting.calls.lock().unwrap().clone();
    calls.sort_by_key(key);
    expect.sort_by_key(key);
    assert_eq!(calls, expect);
    let reference = evaluate_sequential(&counting.inner, ts, &filter);
    assert_eq!(metric_bits(sharded), metric_bits(reference));
}

/// NaN targets (`kg-eval/src/ranking.rs`): with every fifth entity row NaN,
/// some targets score NaN and rank below every real candidate. The
/// sequential reference, the batched and the sharded evaluators and the
/// served ranks folded in the same order agree bitwise.
#[test]
fn nan_targets_rank_alike_on_every_surface() {
    let (mut model, triples, filter) = ranking_fixture();
    let n = model.n_entities();
    for e in (0..n).step_by(5) {
        model.emb.ent.row_mut(e).fill(f32::NAN);
    }
    assert!(triples.iter().any(|t| t.t.idx() % 5 == 0), "a NaN tail target");
    let reference = metric_bits(evaluate_sequential(&model, &triples, &filter));
    let batched = evaluate_with(KernelPolicy::Exact, &model, &triples, &filter);
    assert_eq!(metric_bits(batched), reference);
    let bounds = [0, 9, 9, 22, 31, 40];
    let sharded =
        evaluate_parallel_sharded_with(KernelPolicy::Exact, &model, &triples, &filter, &bounds);
    assert_eq!(metric_bits(sharded), reference);

    let engine =
        KgEngine::with_filter(model, filter).threads(2).policy(KernelPolicy::Exact).build();
    let mut served = RankMetrics::zero();
    for t in &triples {
        let (h, r, tail) = (t.h.idx(), t.r.idx(), t.t.idx());
        served.accumulate(engine.rank_tail(h, r, tail));
        served.accumulate(engine.rank_head(h, r, tail));
    }
    assert_eq!(metric_bits(served.normalised()), reference);
}

/// Serve equivalence (`kg-serve/tests/serve_equivalence.rs`): under `Exact`
/// the engine's `rank_tail` / `top_k_tails` equal `filtered_rank` / `top_k`
/// over the model's per-query `LinkPredictor` row, bit for bit, with the
/// engine's two workers sharding every block.
#[test]
fn served_ranks_and_top_k_equal_the_per_query_reference() {
    let (model, triples, filter) = ranking_fixture();
    let model = Arc::new(model);
    let engine = KgEngine::with_filter(Arc::clone(&model), filter.clone())
        .threads(2)
        .policy(KernelPolicy::Exact)
        .build();
    let mut row = vec![0.0f32; model.n_entities()];
    for t in &triples[..8] {
        let (h, r, tail) = (t.h.idx(), t.r.idx(), t.t.idx());
        model.score_tails(h, r, &mut row);
        let known = filter.tails(t.h, t.r);
        assert_eq!(
            engine.rank_tail(h, r, tail).to_bits(),
            filtered_rank(&row, tail, known).to_bits()
        );
        let bits = |top: Vec<(usize, f32)>| {
            top.into_iter().map(|(e, s)| (e, s.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(bits(engine.top_k_tails(h, r, 5)), bits(top_k(&row, 5)));
    }
}

/// One table pass per served block (`kg-serve/src/dispatch.rs`), the
/// serving sibling of `one_table_pass_per_block_in_entity_tiles`: six tail
/// and six head rank requests, submitted interleaved and held by a long
/// linger until they fill a 12-query block, reach each worker as the
/// offline ranker's tile loop over that worker's `plan_shards` shard.
/// First one one-entity threshold call per rank row whose target the
/// shard does not hold in its only tile — tail rows, then head rows —
/// then one call per `TILE` of the shard carrying all `(6, 6)` rows, so
/// every entity is scored once per row per block. One worker's calls are
/// checked in order, three workers' as one multiset (they interleave). A
/// tail-only backlog carries `(6, 0)`. On the 40-entity fixture at one and
/// three workers each shard is one tile; on the tiled fixture one worker
/// walks three tiles with every threshold by call. Every served rank
/// equals `filtered_rank` over the per-query `LinkPredictor` row, bit for
/// bit.
#[test]
fn served_blocks_score_both_directions_in_one_pass() {
    let cases = [
        (ranking_fixture(), &[(1, true), (3, true), (3, false)][..]),
        (tiled_fixture(), &[(1, true), (3, true)][..]),
    ];
    for ((model, triples, filter), cases) in cases {
        let n = model.n_entities();
        let counting = Arc::new(CountingScorer { inner: model, calls: Mutex::new(Vec::new()) });
        let mut row = vec![0.0f32; n];
        let ts = &triples[..6];
        for &(threads, heads) in cases {
            let engine = KgEngine::with_filter(Arc::clone(&counting), filter.clone())
                .threads(threads)
                .block(if heads { 12 } else { 6 })
                .linger(Duration::from_secs(60))
                .policy(KernelPolicy::Exact)
                .build();
            counting.calls.lock().unwrap().clear();
            let mut served = Vec::new();
            for t in ts {
                let (h, r, tail) = (t.h.idx(), t.r.idx(), t.t.idx());
                let ticket = engine.submit_rank_tail(h, r, tail).expect("admitted");
                counting.inner.score_tails(h, r, &mut row);
                served.push((ticket, filtered_rank(&row, tail, filter.tails(t.h, t.r))));
                if heads {
                    let ticket = engine.submit_rank_head(h, r, tail).expect("admitted");
                    counting.inner.score_heads(r, tail, &mut row);
                    served.push((ticket, filtered_rank(&row, h, filter.heads(t.r, t.t))));
                }
            }
            for (ticket, reference) in served {
                assert_eq!(ticket.wait().to_bits(), reference.to_bits());
            }
            let n_heads = if heads { 6 } else { 0 };
            let worker_calls = |shard: Range<usize>| {
                let by_call = |&e: &usize| shard.len() > TILE || !shard.contains(&e);
                let tails = ts.iter().map(|t| t.t.idx()).filter(by_call).map(|e| (1, 0, e..e + 1));
                let heads = ts[..n_heads].iter().map(|t| t.h.idx()).filter(by_call);
                let tiles = shard.clone().step_by(TILE).map(|s| s..(s + TILE).min(shard.end));
                let tiles = tiles.map(|tile| (6, n_heads, tile));
                tails.chain(heads.map(|e| (0, 1, e..e + 1))).chain(tiles).collect::<Vec<_>>()
            };
            let mut expect: Vec<_> =
                plan_shards(n, threads).into_iter().flat_map(worker_calls).collect();
            let mut calls = counting.calls.lock().unwrap().clone();
            if threads > 1 {
                let key = |(t, h, s): &(usize, usize, Range<usize>)| (s.start, s.end, *t, *h);
                calls.sort_by_key(key);
                expect.sort_by_key(key);
            }
            assert_eq!(calls, expect, "{n} entities, {threads} worker(s), heads queued: {heads}");
        }
    }
}

/// Served top-k (`kg-serve/src/dispatch.rs`, `kg-eval/src/ranking.rs`):
/// each worker keeps its shard's best `k` tile by tile and the dispatcher
/// merges the workers' lists, in `top_k`'s order. On the tiled fixture —
/// NaN rows, and one entity row copied, scaled by +50 and by −50, onto both
/// sides of every tile edge and of every three-worker shard edge, so equal
/// scores at the top of every row straddle them — every served list equals
/// `top_k` over the per-query `LinkPredictor` row, ids and score bits, for
/// `k` from 0 past the table size, tails and heads, at one worker and at
/// three.
#[test]
fn served_top_k_merges_shards_in_top_k_order() {
    let (mut model, triples, filter) = tiled_fixture();
    let n = model.n_entities();
    let edges: Vec<usize> = [TILE, 2 * TILE]
        .into_iter()
        .chain(plan_shards(n, 3)[1..].iter().map(|shard| shard.start))
        .collect();
    let copy: Vec<f32> = model.emb.ent.row(1).to_vec();
    for (scale, sides) in [(50.0, [1, 0]), (-50.0, [2, 1])] {
        for &edge in &edges {
            for e in [edge - sides[0], edge + sides[1]] {
                let row = model.emb.ent.row_mut(e);
                row.iter_mut().zip(&copy).for_each(|(x, &c)| *x = scale * c);
            }
        }
    }
    let model = Arc::new(model);
    let (t, mut row) = (triples[7], vec![0.0f32; n]);
    let (h, r, tail) = (t.h.idx(), t.r.idx(), t.t.idx());
    let ks = [0, 1, 7, TILE + 3, n, n + 5];
    let bits =
        |top: Vec<(usize, f32)>| top.into_iter().map(|(e, s)| (e, s.to_bits())).collect::<Vec<_>>();
    let mut reference = Vec::new();
    for tails in [true, false] {
        if tails {
            model.score_tails(h, r, &mut row);
        } else {
            model.score_heads(r, tail, &mut row);
        }
        reference.extend(ks.map(|k| bits(top_k(&row, k))));
    }
    for threads in [1, 3] {
        let engine = KgEngine::with_filter(Arc::clone(&model), filter.clone())
            .threads(threads)
            .policy(KernelPolicy::Exact)
            .build();
        // One request a block: each block's shards land in their own order.
        let tails = ks.map(|k| bits(engine.top_k_tails(h, r, k)));
        let served = tails.into_iter().chain(ks.map(|k| bits(engine.top_k_heads(r, tail, k))));
        for (i, (served, reference)) in served.zip(&reference).enumerate() {
            let (dir, k) = (if i < ks.len() { "tails" } else { "heads" }, ks[i % ks.len()]);
            assert_eq!(&served, reference, "{threads} worker(s), {dir}, k = {k}");
        }
    }
}

/// `Fast` layout invariance (`kg-linalg/tests/relaxed_fast.rs`): shard
/// blocks over a partition of the table — a zero-width shard, ragged and
/// tile-unaligned widths — concatenate to the full-table `Fast` call,
/// bit for bit.
#[test]
fn fast_shard_blocks_concatenate_to_the_full_table_call() {
    let (m, n, k) = (5, 100, 17);
    let mut rng = SeededRng::new(22);
    let (mut a, mut b) = (Mat::zeros(m, k), Mat::zeros(n, k));
    rng.fill_normal(1.0, a.as_mut_slice());
    rng.fill_normal(1.0, b.as_mut_slice());

    let mut full = vec![0.0f32; m * n];
    gemm::gemm_nt_with(KernelPolicy::Fast, a.as_slice(), m, k, &b, &mut full);
    let mut stitched = vec![f32::NAN; m * n];
    for w in [0, 5, 5, 37, 64, 100].windows(2) {
        let (j0, j1) = (w[0], w[1]);
        let mut shard = vec![f32::NAN; m * (j1 - j0)];
        gemm::gemm_nt_rows_with(KernelPolicy::Fast, a.as_slice(), m, k, &b, j0..j1, &mut shard);
        for i in 0..m {
            stitched[i * n + j0..i * n + j1].copy_from_slice(&shard[i * (j1 - j0)..][..j1 - j0]);
        }
    }
    let bits = kg_linalg::simd::canonical_bits;
    assert_eq!(bits(&stitched), bits(&full));
}
