//! Property-based tests for the search machinery: group laws,
//! canonicalization, SRF invariance (Proposition 2) and filter guarantees.

use autosf::filter::{satisfies_c2, DedupFilter};
use autosf::invariance::{canonical, equivalent, Transform, PERMS};
use autosf::space::random_spec;
use autosf::srf::srf;
use kg_linalg::SeededRng;
use kg_models::{Block, BlockSpec};
use proptest::prelude::*;

/// The exhaustive canonicaliser: the least sorted block list over all
/// 9,216 transforms, what `canonical` must keep returning.
fn reference(spec: &BlockSpec) -> Vec<Block> {
    Transform::all()
        .map(|t| {
            let mut blocks: Vec<Block> = spec.blocks().iter().map(|&b| t.apply_block(b)).collect();
            blocks.sort_unstable();
            blocks
        })
        .min()
        .expect("group is non-empty")
}

fn arb_transform() -> impl Strategy<Value = Transform> {
    (0usize..24, 0usize..24, prop::array::uniform4(prop::bool::ANY))
        .prop_map(|(e, r, flips)| Transform { ent_perm: PERMS[e], rel_perm: PERMS[r], flips })
}

/// A random C2-valid structure of size 4, 6 or 8.
fn arb_valid_spec() -> impl Strategy<Value = BlockSpec> {
    (0u64..10_000, prop::sample::select(vec![4usize, 6, 8])).prop_map(|(seed, b)| {
        let mut rng = SeededRng::new(seed);
        random_spec(b, &mut rng, 500).expect("a valid structure exists at any size")
    })
}

proptest! {
    /// Group law: composition then application equals sequential application.
    #[test]
    fn compose_is_group_operation(s in arb_valid_spec(), t1 in arb_transform(), t2 in arb_transform()) {
        let seq = t1.apply(&t2.apply(&s));
        let comp = t1.compose(&t2).apply(&s);
        prop_assert_eq!(seq, comp);
    }

    /// Group law: inverses cancel.
    #[test]
    fn inverse_cancels(s in arb_valid_spec(), t in arb_transform()) {
        prop_assert_eq!(t.inverse().apply(&t.apply(&s)), s.clone());
        prop_assert_eq!(t.apply(&t.inverse().apply(&s)), s);
    }

    /// Canonical form is constant on orbits.
    #[test]
    fn canonical_is_orbit_invariant(s in arb_valid_spec(), t in arb_transform()) {
        prop_assert_eq!(canonical(&t.apply(&s)), canonical(&s));
    }

    /// The 576-candidate key unpacks to the exhaustive minimum, wherever in
    /// the orbit the structure sits.
    #[test]
    fn canonical_matches_reference(s in arb_valid_spec(), t in arb_transform()) {
        let expected = BlockSpec::new(reference(&s));
        prop_assert_eq!(canonical(&s), expected.clone());
        prop_assert_eq!(canonical(&t.apply(&s)), expected);
    }

    /// Equivalence is reflexive and symmetric, and transformed structures
    /// are always equivalent to their source.
    #[test]
    fn equivalence_relation_properties(s in arb_valid_spec(), t in arb_transform()) {
        prop_assert!(equivalent(&s, &s));
        let ts = t.apply(&s);
        prop_assert!(equivalent(&s, &ts));
        prop_assert!(equivalent(&ts, &s));
    }

    /// Proposition 2(i): SRF is invariant under the invariance group.
    #[test]
    fn srf_invariant_under_group(s in arb_valid_spec(), t in arb_transform()) {
        prop_assert_eq!(srf(&t.apply(&s)), srf(&s));
    }

    /// C2 is invariant under the group (the filter's two halves agree).
    #[test]
    fn c2_invariant_under_group(s in arb_valid_spec(), t in arb_transform()) {
        prop_assert_eq!(satisfies_c2(&t.apply(&s)), satisfies_c2(&s));
    }

    /// The dedup filter accepts a structure once and rejects its whole
    /// orbit afterwards.
    #[test]
    fn dedup_rejects_orbit(s in arb_valid_spec(), t in arb_transform()) {
        let mut f = DedupFilter::new();
        prop_assert!(f.admit(&s));
        prop_assert!(!f.admit(&t.apply(&s)));
        prop_assert_eq!(f.len(), 1);
    }

    /// random_spec output always satisfies its contract.
    #[test]
    fn random_specs_valid(seed in 0u64..10_000, b in prop::sample::select(vec![4usize, 6, 8, 10])) {
        let mut rng = SeededRng::new(seed);
        let s = random_spec(b, &mut rng, 500).expect("valid structure");
        prop_assert_eq!(s.n_blocks(), b);
        prop_assert!(satisfies_c2(&s));
    }
}
