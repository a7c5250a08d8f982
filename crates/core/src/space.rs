//! The search space and candidate generators (Sec. III-B, Sec. IV-B).
//!
//! * [`enumerate_b4`] — the complete filtered f4 space: constraint (C2)
//!   forces the four blocks of a 4-block structure onto distinct rows,
//!   distinct columns and distinct relation components, i.e. a signed
//!   double permutation. 24 × 24 × 16 raw combinations collapse to a
//!   handful of orbits (the paper reports 5 good unique f4 candidates).
//! * [`extend_two`] — Alg. 2 step 4: append two random multiplicative
//!   terms to a parent structure (Eq. 7 applied twice; adding blocks in
//!   pairs avoids pure-diagonal growth).
//! * [`random_spec`] — uniform C2-valid structures for the random-search
//!   baseline.

use crate::filter::satisfies_c2;
use crate::invariance::{perm_index, Transform, PERMS};
use kg_linalg::SeededRng;
use kg_models::{Block, BlockSpec};

/// Enumerate all inequivalent f4 structures satisfying (C2): the first raw
/// signed double permutation of each orbit, in loop order (every signed
/// double permutation satisfies (C2), so there is nothing else to test).
///
/// The group maps signed double permutations to signed double
/// permutations, so an orbit is walked once, when its first member comes
/// up — 9,216 transforms of four blocks, marking where each lands in a
/// 9,216-bit map over `(col_perm, rel_perm, mask)` — and every later
/// member is skipped on its bit.
pub fn enumerate_b4() -> Vec<BlockSpec> {
    let mut walked = [0u64; 24 * 24 * 16 / 64];
    let mut out = Vec::new();
    let mut index = 0usize;
    for &col_perm in &PERMS {
        for &rel_perm in &PERMS {
            for mask in 0..16u8 {
                let known = walked[index / 64] >> (index % 64) & 1 == 1;
                index += 1;
                if known {
                    continue;
                }
                let blocks: [Block; 4] = std::array::from_fn(|i| Block {
                    hc: i as u8,
                    rc: rel_perm[i],
                    tc: col_perm[i],
                    sign: if mask & (1 << i) != 0 { -1 } else { 1 },
                });
                for t in Transform::all() {
                    // row `hc` of the image holds column `tc`, relation
                    // `rc`, and a set mask bit when negative
                    let (mut cols, mut rels, mut neg) = ([0u8; 4], [0u8; 4], 0usize);
                    for b in blocks.map(|b| t.apply_block(b)) {
                        cols[b.hc as usize] = b.tc;
                        rels[b.hc as usize] = b.rc;
                        neg |= usize::from(b.sign < 0) << b.hc;
                    }
                    let image = (perm_index(cols) * 24 + perm_index(rels)) * 16 + neg;
                    walked[image / 64] |= 1 << (image % 64);
                }
                out.push(BlockSpec::new(blocks.to_vec()));
            }
        }
    }
    out
}

/// One random block.
pub fn random_block(rng: &mut SeededRng) -> Block {
    Block {
        hc: rng.below(4) as u8,
        rc: rng.below(4) as u8,
        tc: rng.below(4) as u8,
        sign: rng.sign(),
    }
}

/// Alg. 2 step 4: `f_b ← f_{b-2} + s₁⟨h,r,t⟩ + s₂⟨h,r,t⟩` with random
/// indices. Returns `None` when a sampled cell is already occupied (the
/// caller just resamples).
pub fn extend_two(parent: &BlockSpec, rng: &mut SeededRng) -> Option<BlockSpec> {
    let first = parent.extended(random_block(rng))?;
    first.extended(random_block(rng))
}

/// A random structure with `b` blocks satisfying (C2); `None` when
/// `max_attempts` attempts all failed.
///
/// Sampling is seeded with a random signed double permutation (which
/// already satisfies (C2) at `b = 4` — a uniform 4-block placement passes
/// only ~0.2% of the time) and grown with `b - 4` random extra blocks,
/// retrying until the grown structure still satisfies (C2).
pub fn random_spec(b: usize, rng: &mut SeededRng, max_attempts: usize) -> Option<BlockSpec> {
    assert!((4..=16).contains(&b), "block count must be in 4..=16");
    for _ in 0..max_attempts {
        // random signed double permutation
        let col_perm = PERMS[rng.below(24)];
        let rel_perm = PERMS[rng.below(24)];
        let mut spec = BlockSpec::new(
            (0..4u8)
                .map(|i| Block {
                    hc: i,
                    rc: rel_perm[i as usize],
                    tc: col_perm[i as usize],
                    sign: rng.sign(),
                })
                .collect(),
        );
        let mut ok = true;
        for _ in 0..b - 4 {
            let mut placed = false;
            for _ in 0..32 {
                if let Some(next) = spec.extended(random_block(rng)) {
                    spec = next;
                    placed = true;
                    break;
                }
            }
            if !placed {
                ok = false;
                break;
            }
        }
        if ok && satisfies_c2(&spec) {
            return Some(spec);
        }
    }
    None
}

/// Total raw space size (the 9^16 of Sec. IV-C) as a printable string —
/// used in logs and docs; exceeds u64 so kept as f64.
pub fn raw_space_size() -> f64 {
    9f64.powi(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariance::equivalent;
    use kg_models::blm::classics;

    #[test]
    fn b4_space_is_small_and_valid() {
        let specs = enumerate_b4();
        // the paper reports 5 good unique candidates in f4
        assert_eq!(specs.len(), 5, "got {} f4 orbits", specs.len());
        for s in &specs {
            assert_eq!(s.n_blocks(), 4);
            assert!(satisfies_c2(s));
        }
        // pairwise inequivalent
        for i in 0..specs.len() {
            for j in i + 1..specs.len() {
                assert!(!equivalent(&specs[i], &specs[j]));
            }
        }
    }

    /// Every raw f4 structure against the exhaustive canonicaliser, and
    /// [`enumerate_b4`] against the dedup loop it replaced (admit the first
    /// raw representative of each orbit, in loop order).
    #[test]
    fn b4_matches_the_reference_dedup_loop_over_all_9216_raw_structures() {
        use crate::invariance::{canonical, tests::reference};
        let mut seen = std::collections::HashSet::new();
        let mut expected = Vec::new();
        for &col_perm in &PERMS {
            for &rel_perm in &PERMS {
                for mask in 0..16u8 {
                    let spec = BlockSpec::new(
                        (0..4u8)
                            .map(|i| Block {
                                hc: i,
                                rc: rel_perm[i as usize],
                                tc: col_perm[i as usize],
                                sign: if mask & (1 << i) != 0 { -1 } else { 1 },
                            })
                            .collect(),
                    );
                    let least = reference(&spec);
                    assert_eq!(canonical(&spec).blocks(), least, "{}", spec.formula());
                    if satisfies_c2(&spec) && seen.insert(least) {
                        expected.push(spec);
                    }
                }
            }
        }
        assert_eq!(enumerate_b4(), expected);
    }

    #[test]
    fn b4_contains_distmult_and_simple() {
        let specs = enumerate_b4();
        assert!(
            specs.iter().any(|s| equivalent(s, &classics::distmult())),
            "DistMult orbit missing from f4"
        );
        assert!(
            specs.iter().any(|s| equivalent(s, &classics::simple())),
            "SimplE orbit missing from f4"
        );
    }

    #[test]
    fn extend_two_adds_exactly_two_blocks() {
        let mut rng = SeededRng::new(81);
        let parent = classics::simple();
        let mut grown = 0;
        for _ in 0..50 {
            if let Some(child) = extend_two(&parent, &mut rng) {
                assert_eq!(child.n_blocks(), parent.n_blocks() + 2);
                grown += 1;
            }
        }
        assert!(grown > 10, "extension almost always failed");
    }

    #[test]
    fn random_spec_satisfies_c2() {
        let mut rng = SeededRng::new(82);
        for b in [4usize, 6, 8, 10] {
            let s = random_spec(b, &mut rng, 200).expect("a valid spec exists");
            assert_eq!(s.n_blocks(), b);
            assert!(satisfies_c2(&s));
        }
    }

    #[test]
    fn random_specs_are_diverse() {
        let mut rng = SeededRng::new(83);
        let a = random_spec(6, &mut rng, 200).unwrap();
        let b = random_spec(6, &mut rng, 200).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn raw_space_is_huge() {
        assert!(raw_space_size() > 1e15);
    }
}
