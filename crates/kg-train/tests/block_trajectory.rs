//! The training-trajectory contract of the batched multi-class loss.
//!
//! [`multiclass_block`] owes every element of the entity and relation
//! gradients the add sequence of the per-triple reference
//! ([`multiclass_block_reference`]) — under `KernelPolicy::Exact`, byte
//! for byte. Its entity-gradient pass cuts the entity table around the
//! block's conditioning entities and splits the term range there, so the
//! blocks here are *built to collide*: entity ids come from a pool biased
//! towards `0`, `n − 1` and two fixed ids, which makes one entity condition
//! several rows, produces `h == t` triples and puts the first and last
//! table rows on the in-order path; block lengths cover a 1-triple block
//! and a full 32-triple block; and every case runs two consecutive blocks
//! into the same uncleared gradient tables (one 64-triple batch).
//!
//! Under `KG_FORCE_SCALAR=1` it pins the scalar fallback of the same
//! kernels.

use kg_core::Triple;
use kg_linalg::{KernelPolicy, Mat, SeededRng};
use kg_models::blm::classics;
use kg_models::Embeddings;
use kg_train::loss::{
    multiclass_block, multiclass_block_reference, LossScratch, MulticlassScratch, MULTICLASS_BLOCK,
};
use proptest::prelude::*;

fn raw_bits(m: &Mat) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Map a draw onto an entity id, half of the time onto one of four hot
/// ids (`0`, `n − 1`, `n / 2`, `1`) so blocks collide.
fn entity(draw: usize, n: usize) -> u32 {
    (match draw % 8 {
        0 => 0,
        1 => n - 1,
        2 => n / 2,
        3 => 1,
        _ => (draw / 8) % n,
    }) as u32
}

proptest! {
    #[test]
    fn multiclass_block_matches_per_triple_reference_on_colliding_blocks(
        n in prop::sample::select(vec![2usize, 9, 40, 67]),
        dim in prop::sample::select(vec![8usize, 12, 32, 40]),
        first in prop::sample::select(vec![1usize, 2, 7, 31, 32]),
        second in prop::sample::select(vec![0usize, 1, 5, 32]),
        family in 0usize..4,
        draws in prop::collection::vec(0usize..100_000, 192..=192),
        seed in 0u64..1_000,
    ) {
        let n_rel = 3;
        let (_, spec) = classics::all().swap_remove(family);
        let emb = Embeddings::init(n, n_rel, dim, &mut SeededRng::new(seed));
        let triples: Vec<Triple> = draws
            .chunks(3)
            .take(first + second)
            .map(|d| Triple::new(entity(d[0], n), (d[1] % n_rel) as u32, entity(d[2], n)))
            .collect();
        prop_assert!(first <= MULTICLASS_BLOCK && second <= MULTICLASS_BLOCK);

        let (mut d_ent_ref, mut d_rel_ref) = (Mat::zeros(n, dim), Mat::zeros(n_rel, dim));
        let ce_ref = multiclass_block_reference(
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
        let mut ce = 0.0f32;
        for block in [&triples[..first], &triples[first..]] {
            ce += multiclass_block(
                &spec, block, &emb.ent, &emb.rel, &mut d_ent, &mut d_rel, &mut scratch,
            );
        }

        prop_assert_eq!(raw_bits(&d_ent), raw_bits(&d_ent_ref), "entity gradients differ");
        prop_assert_eq!(raw_bits(&d_rel), raw_bits(&d_rel_ref), "relation gradients differ");
        // ce is summed in a different grouping (f32), so allow rounding.
        prop_assert!((ce - ce_ref).abs() <= 1e-4 * ce_ref.abs().max(1.0), "ce {} vs {}", ce, ce_ref);
    }
}
