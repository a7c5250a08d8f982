//! The fastest case of each crate-level contract suite, so the root
//! `cargo test -q` (Tier-1) sees every contract once. The suites
//! themselves run under `cargo test --workspace`. Budget: well under a
//! second in debug — one tiny fixed input per contract, no search, no
//! training loop.

use kg_core::Triple;
use kg_linalg::{KernelPolicy, Mat, SeededRng};
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
