//! The fastest case of each crate-level contract suite, so the root
//! `cargo test -q` (Tier-1) sees every contract once. The suites
//! themselves run under `cargo test --workspace`. Budget: well under a
//! second in debug — one tiny fixed input per contract, no search, no
//! training loop.

use kg_core::Triple;
use kg_linalg::{gemm, vecops, KernelPolicy, Mat, SeededRng};
use kg_models::blm::classics;
use kg_models::Embeddings;
use kg_train::loss::{
    multiclass_block, multiclass_block_reference, LossScratch, MulticlassScratch,
};

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
    gemm::gemm_nt_rows_slice_with(
        KernelPolicy::Exact,
        a.as_slice(),
        m,
        k,
        b.as_slice(),
        n,
        rows.clone(),
        &mut dispatched,
    );
    let mut scalar = vec![2.0f32; m * width];
    gemm::gemm_nt_rows_slice_scalar(a.as_slice(), m, k, b.as_slice(), n, rows.clone(), &mut scalar);
    let dots: Vec<f32> = (0..m)
        .flat_map(|i| rows.clone().map(move |j| (i, j)))
        .map(|(i, j)| vecops::dot(a.row(i), b.row(j)))
        .collect();

    let bits = kg_linalg::simd::canonical_bits;
    assert_eq!(bits(&dispatched), bits(&scalar), "dispatched gemm_nt differs from scalar");
    assert_eq!(bits(&scalar), bits(&dots), "gemm_nt differs from per-query dots");
}
