//! Pins the object-safety contract of [`LinkPredictor`] / [`BatchScorer`]:
//! both traits stay usable as `dyn` objects, and the pointer forwarding
//! impls (`&T`, `Box<T>`, `Arc<T>`) satisfy the same generic bounds as
//! concrete models — including through `?Sized` targets, so a single
//! `Arc<dyn BatchScorer + Send + Sync>` can be shared across worker
//! threads. This is the seam `kg-serve`'s engine is built on; if it stops
//! compiling, the serving API breaks.

use kg_models::blm::classics;
use kg_models::{BatchScorer, BatchScratch, BlmModel, Embeddings, KernelPolicy, LinkPredictor};
use std::sync::Arc;

fn model() -> BlmModel {
    let mut rng = kg_linalg::SeededRng::new(7);
    BlmModel::new(classics::complex(), Embeddings::init(9, 2, 8, &mut rng))
}

/// A generic consumer with the same bounds as the batched ranking engine.
fn generic_batch<M: BatchScorer + Sync>(m: &M) -> Vec<f32> {
    let mut scratch = BatchScratch::with_policy(KernelPolicy::Exact);
    let mut out = vec![0.0f32; 2 * m.n_entities()];
    m.score_tails_batch(&[(0, 0), (3, 1)], &mut out, &mut scratch);
    out
}

/// A generic consumer with per-query (`LinkPredictor`) bounds only.
fn generic_per_query<M: LinkPredictor + ?Sized>(m: &M) -> Vec<f32> {
    let mut out = vec![0.0f32; m.n_entities()];
    m.score_tails(0, 0, &mut out);
    out
}

#[test]
fn arc_dyn_batch_scorer_forwards_overrides() {
    let concrete = model();
    let reference = generic_batch(&concrete);

    // The same model behind a shared trait object: every call — including
    // the overridden GEMM batch path — must forward bit-identically.
    let shared: Arc<dyn BatchScorer + Send + Sync> = Arc::new(model());
    let scores_dyn = generic_batch(&shared);
    assert_eq!(scores_dyn, reference, "Arc<dyn> batch scores diverged from concrete model");

    // The relation-vocabulary bound — what lets `kg-serve` reject a bad
    // relation id at submit time — must survive the trait object too.
    assert_eq!(concrete.n_relations(), Some(2));
    assert_eq!(shared.n_relations(), Some(2), "n_relations must forward through Arc<dyn>");

    // And the trait object still hands out bit-identical shard columns
    // (an Exact-tier guarantee, hence the pinned scratch).
    let mut scratch = BatchScratch::with_policy(KernelPolicy::Exact);
    let mut shard_out = vec![0.0f32; 2 * 3];
    shared.score_shard(&[(0, 0), (3, 1)], &[], 2..5, &mut shard_out, &mut scratch);
    assert_eq!(&shard_out[..3], &reference[2..5]);
    assert_eq!(&shard_out[3..], &reference[9 + 2..9 + 5]);
}

/// A model that overrides only the shard primitive — what every shipped
/// factorising model does since `score_*_batch` became provided methods —
/// and counts how often it runs.
struct ShardOnly {
    shard_calls: std::sync::atomic::AtomicUsize,
}

impl ShardOnly {
    const N: usize = 6;

    /// Both directions score `(a, b, e)` the same way, so a mixed block is
    /// its tail rows and head rows filled by one loop.
    fn score(a: usize, b: usize, e: usize) -> f32 {
        (a * 31 + b * 7 + e) as f32 * 0.5
    }
}

impl LinkPredictor for ShardOnly {
    fn n_entities(&self) -> usize {
        Self::N
    }
    fn score_triple(&self, h: usize, r: usize, t: usize) -> f32 {
        Self::score(h, r, t)
    }
    fn score_tails(&self, h: usize, r: usize, out: &mut [f32]) {
        out.iter_mut().enumerate().for_each(|(e, o)| *o = Self::score(h, r, e));
    }
    fn score_heads(&self, r: usize, t: usize, out: &mut [f32]) {
        out.iter_mut().enumerate().for_each(|(e, o)| *o = Self::score(r, t, e));
    }
}

impl BatchScorer for ShardOnly {
    fn score_shard(
        &self,
        tails: &[(usize, usize)],
        heads: &[(usize, usize)],
        shard: std::ops::Range<usize>,
        out: &mut [f32],
        _: &mut BatchScratch,
    ) {
        self.shard_calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        for (i, &(a, b)) in tails.iter().chain(heads).enumerate() {
            for (j, e) in shard.clone().enumerate() {
                out[i * shard.len() + j] = Self::score(a, b, e);
            }
        }
    }
}

#[test]
fn shard_only_override_answers_batch_calls_through_arc_dyn() {
    let model = Arc::new(ShardOnly { shard_calls: Default::default() });
    let shared: Arc<dyn BatchScorer + Send + Sync> = model.clone();
    let queries = [(0, 0), (3, 1), (5, 0)];
    let n = ShardOnly::N;
    let mut scratch = BatchScratch::with_policy(KernelPolicy::Exact);
    let mut tails = vec![0.0f32; queries.len() * n];
    shared.score_tails_batch(&queries, &mut tails, &mut scratch);
    let mut heads = vec![0.0f32; queries.len() * n];
    shared.score_heads_batch(&queries, &mut heads, &mut scratch);
    let mut row = vec![0.0f32; n];
    for (i, &(a, b)) in queries.iter().enumerate() {
        shared.score_tails(a, b, &mut row);
        assert_eq!(&tails[i * n..(i + 1) * n], row.as_slice(), "tail query {i}");
        shared.score_heads(a, b, &mut row);
        assert_eq!(&heads[i * n..(i + 1) * n], row.as_slice(), "head query {i}");
    }
    // A mixed block through the trait object: tail rows, then head rows.
    let mut mixed = vec![0.0f32; 2 * queries.len() * n];
    shared.score_shard(&queries, &queries, 0..n, &mut mixed, &mut scratch);
    assert_eq!(mixed, [tails, heads].concat());
    // Every call went through the model's own shard override (one call
    // each), not through the per-query default.
    assert_eq!(model.shard_calls.load(std::sync::atomic::Ordering::Relaxed), 3);
}

#[test]
fn every_pointer_flavor_satisfies_the_generic_bounds() {
    let concrete = model();
    let reference = generic_per_query(&concrete);

    let by_ref: &BlmModel = &concrete;
    assert_eq!(generic_per_query(&by_ref), reference);

    let boxed: Box<dyn BatchScorer + Send + Sync> = Box::new(model());
    assert_eq!(generic_per_query(&boxed), reference);
    assert_eq!(generic_batch(&boxed)[..9], reference[..]);

    let arc: Arc<dyn LinkPredictor + Send + Sync> = Arc::new(model());
    assert_eq!(generic_per_query(&arc), reference);

    // `?Sized` consumers accept the bare trait object too.
    let dyn_ref: &dyn LinkPredictor = &concrete;
    assert_eq!(generic_per_query(dyn_ref), reference);
}

#[test]
fn arc_clones_share_one_model() {
    let arc: Arc<dyn BatchScorer + Send + Sync> = Arc::new(model());
    let clone = Arc::clone(&arc);
    let a = std::thread::scope(|s| {
        let h = s.spawn(move || generic_batch(&clone));
        h.join().expect("scoring thread panicked")
    });
    assert_eq!(a, generic_batch(&arc), "clones of one Arc model diverged across threads");
}
