//! The invariance group of scoring-function structures (Sec. IV-A2).
//!
//! Three families of transforms leave a structure's trainable semantics
//! unchanged (Fig. 2d-f):
//!
//! 1. simultaneously permuting head and tail components (h and t share
//!    entity embeddings, so the permutation is applied to both `hc` and
//!    `tc`);
//! 2. permuting relation components;
//! 3. flipping the sign of any relation component (flips the sign of every
//!    block using it).
//!
//! That is `4! × 4! × 2⁴ = 9,216` transforms. [`canonical`] maps a
//! structure to the lexicographically-least member of its orbit, giving the
//! equality test the filter uses to avoid training equivalent structures.
//!
//! # Orbit keys
//!
//! The filter and the search cache do not store canonical block lists but
//! their packed form, [`OrbitKey`]: a `u128` holding the sorted canonical
//! blocks at 7 bits each — `hc:2 | rc:2 | tc:2 | (sign > 0):1`, the field
//! order of [`Block`]'s derived `Ord` — first block most significant, with
//! the block count above bit 112. Between keys of one size integer order
//! is therefore the lexicographic order of the block lists, and keys of
//! different sizes never collide (a `DedupFilter` holds b = 4, 6, 8, …
//! side by side).
//!
//! [`OrbitKey::of`] looks at 576 candidates, not 9,216, because **the flip
//! vector is forced** once the two permutations are fixed. A structure
//! holds one block per `(hc, tc)` cell, so after permuting no two blocks
//! agree on `(hc, rc, tc)`: the sorted order never consults a sign and is
//! the same under all 16 flip vectors. Walking that sorted list, a block
//! whose relation component has not occurred yet can be given sign −1 (the
//! smaller one) by choosing that component's flip, without touching any
//! earlier block, and a block whose component has occurred has no choice
//! left — so the least list under `(ent_perm, rel_perm)` gives every
//! relation component's *first* appearance sign −1, and the least of those
//! 24 × 24 lists is the least of the whole orbit. No heap is touched: the
//! blocks are sorted as bytes in a 16-byte array.
//!
//! [`canonical`] unpacks the key, so it returns exactly the block list the
//! exhaustive minimum over all 9,216 transforms returns; that exhaustive
//! form lives on in the tests as the reference (`tests::reference`, and
//! `tests/proptests.rs`).

use kg_models::{Block, BlockSpec};

/// All 24 permutations of `{0, 1, 2, 3}`.
pub const PERMS: [[u8; 4]; 24] = {
    let mut out = [[0u8; 4]; 24];
    let mut idx = 0;
    let mut a = 0u8;
    while a < 4 {
        let mut b = 0u8;
        while b < 4 {
            let mut c = 0u8;
            while c < 4 {
                let mut d = 0u8;
                while d < 4 {
                    if a != b && a != c && a != d && b != c && b != d && c != d {
                        out[idx] = [a, b, c, d];
                        idx += 1;
                    }
                    d += 1;
                }
                c += 1;
            }
            b += 1;
        }
        a += 1;
    }
    out
};

/// One group element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transform {
    /// Permutation applied to entity components (both `hc` and `tc`).
    pub ent_perm: [u8; 4],
    /// Permutation applied to relation components.
    pub rel_perm: [u8; 4],
    /// Sign flip per relation component (`true` = flip).
    pub flips: [bool; 4],
}

impl Transform {
    /// The identity transform.
    pub fn identity() -> Self {
        Transform { ent_perm: [0, 1, 2, 3], rel_perm: [0, 1, 2, 3], flips: [false; 4] }
    }

    /// Apply to one block.
    pub fn apply_block(&self, b: Block) -> Block {
        let sign = if self.flips[b.rc as usize] { -b.sign } else { b.sign };
        Block {
            hc: self.ent_perm[b.hc as usize],
            rc: self.rel_perm[b.rc as usize],
            tc: self.ent_perm[b.tc as usize],
            sign,
        }
    }

    /// Apply to a whole structure.
    pub fn apply(&self, spec: &BlockSpec) -> BlockSpec {
        BlockSpec::new(spec.blocks().iter().map(|&b| self.apply_block(b)).collect())
    }

    /// Group composition: `self ∘ other` (apply `other` first).
    pub fn compose(&self, other: &Transform) -> Transform {
        let mut ent_perm = [0u8; 4];
        let mut rel_perm = [0u8; 4];
        let mut flips = [false; 4];
        for i in 0..4 {
            ent_perm[i] = self.ent_perm[other.ent_perm[i] as usize];
            rel_perm[i] = self.rel_perm[other.rel_perm[i] as usize];
            // other maps component i to other.rel_perm[i], flipping by
            // other.flips[i]; self then flips by self.flips[target].
            flips[i] = other.flips[i] ^ self.flips[other.rel_perm[i] as usize];
        }
        Transform { ent_perm, rel_perm, flips }
    }

    /// Group inverse.
    pub fn inverse(&self) -> Transform {
        let mut ent_perm = [0u8; 4];
        let mut rel_perm = [0u8; 4];
        let mut flips = [false; 4];
        for i in 0..4 {
            ent_perm[self.ent_perm[i] as usize] = i as u8;
            rel_perm[self.rel_perm[i] as usize] = i as u8;
        }
        for i in 0..4 {
            flips[i] = self.flips[rel_perm[i] as usize];
        }
        Transform { ent_perm, rel_perm, flips }
    }

    /// Enumerate the whole group (9,216 elements).
    pub fn all() -> impl Iterator<Item = Transform> {
        PERMS.iter().flat_map(move |&ent_perm| {
            PERMS.iter().flat_map(move |&rel_perm| {
                (0..16u8).map(move |mask| Transform {
                    ent_perm,
                    rel_perm,
                    flips: [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0, mask & 8 != 0],
                })
            })
        })
    }
}

/// Lexicographic rank of a permutation of `{0, 1, 2, 3}`: its index in
/// [`PERMS`].
pub(crate) fn perm_index(p: [u8; 4]) -> usize {
    let below = |x: u8, seen: &[u8]| usize::from(x) - seen.iter().filter(|&&s| s < x).count();
    below(p[0], &[]) * 6 + below(p[1], &p[..1]) * 2 + below(p[2], &p[..2])
}

/// Bits per packed block: `hc:2 | rc:2 | tc:2 | (sign > 0):1`.
const CODE_BITS: usize = 7;
/// The block count sits above the 16 × 7 bits the largest structure fills.
const COUNT_SHIFT: usize = 16 * CODE_BITS;

/// A structure's orbit, as one integer: the canonical (lexicographically
/// least) block list of the orbit, packed as the module docs describe. Two
/// structures are equivalent iff their keys are equal; between keys of one
/// size, `Ord` is the lexicographic order of the canonical block lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OrbitKey(u128);

impl OrbitKey {
    /// The key of `spec`'s orbit: the least of the 24 × 24 forced-flip
    /// candidates (see the module docs). No allocation.
    pub fn of(spec: &BlockSpec) -> OrbitKey {
        let n = spec.n_blocks();
        let mut codes = [0u8; 16];
        let mut least = u128::MAX;
        for ent in &PERMS {
            for rel in &PERMS {
                for (code, b) in codes.iter_mut().zip(spec.blocks()) {
                    *code = ent[b.hc as usize] << 5
                        | rel[b.rc as usize] << 3
                        | ent[b.tc as usize] << 1
                        | u8::from(b.sign > 0);
                }
                // one block per cell: the upper six bits are distinct, the
                // sign bit never decides the order
                codes[..n].sort_unstable();
                let (mut decided, mut flips, mut packed) = (0u8, 0u8, 0u128);
                for &code in &codes[..n] {
                    let rc = code >> 3 & 3;
                    if decided >> rc & 1 == 0 {
                        // first appearance of this relation component:
                        // flip it iff that makes this block negative
                        decided |= 1 << rc;
                        flips |= (code & 1) << rc;
                    }
                    packed = packed << CODE_BITS | u128::from(code ^ (flips >> rc & 1));
                }
                least = least.min(packed);
            }
        }
        OrbitKey((n as u128) << COUNT_SHIFT | least)
    }

    /// The packed integer itself — the same on every host and run, so a
    /// trace digest can fold it in.
    pub fn bits(self) -> u128 {
        self.0
    }

    /// The canonical block list, sorted.
    fn blocks(self) -> Vec<Block> {
        let n = (self.0 >> COUNT_SHIFT) as usize;
        (0..n)
            .rev()
            .map(|i| {
                let code = (self.0 >> (i * CODE_BITS)) as u8;
                Block {
                    hc: code >> 5 & 3,
                    rc: code >> 3 & 3,
                    tc: code >> 1 & 3,
                    sign: if code & 1 == 1 { 1 } else { -1 },
                }
            })
            .collect()
    }
}

/// Canonical signature of a structure's orbit: the lexicographically-least
/// block list over all 9,216 transforms. Two structures are equivalent iff
/// their canonical forms are equal.
pub fn canonical(spec: &BlockSpec) -> BlockSpec {
    BlockSpec::new(OrbitKey::of(spec).blocks())
}

/// Are two structures in the same orbit?
pub fn equivalent(a: &BlockSpec, b: &BlockSpec) -> bool {
    if a.n_blocks() != b.n_blocks() {
        return false;
    }
    OrbitKey::of(a) == OrbitKey::of(b)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use kg_linalg::SeededRng;
    use kg_models::blm::classics;

    /// The exhaustive canonicaliser [`OrbitKey::of`] replaced: the least
    /// sorted block list over all 9,216 transforms.
    pub(crate) fn reference(spec: &BlockSpec) -> Vec<Block> {
        let mut best: Option<Vec<Block>> = None;
        let mut blocks = Vec::with_capacity(spec.n_blocks());
        for t in Transform::all() {
            blocks.clear();
            blocks.extend(spec.blocks().iter().map(|&b| t.apply_block(b)));
            blocks.sort_unstable();
            if best.as_ref().is_none_or(|cur| blocks < *cur) {
                best = Some(blocks.clone());
            }
        }
        best.expect("group is non-empty")
    }

    /// `n` blocks on distinct random cells: (C2) mostly fails at small `n`.
    fn random_structure(n: usize, rng: &mut SeededRng) -> BlockSpec {
        let cells = rng.sample_distinct(16, n);
        BlockSpec::new(
            cells
                .into_iter()
                .map(|c| Block::new((c / 4) as u8, rng.below(4) as u8, (c % 4) as u8, rng.sign()))
                .collect(),
        )
    }

    #[test]
    fn canonical_matches_reference_on_random_structures() {
        let mut rng = SeededRng::new(65);
        let (mut valid, mut invalid) = (0, 0);
        for i in 0..2_000 {
            let spec = random_structure(4 + i % 13, &mut rng);
            if crate::filter::satisfies_c2(&spec) {
                valid += 1;
            } else {
                invalid += 1;
            }
            assert_eq!(canonical(&spec).blocks(), reference(&spec), "{}", spec.formula());
        }
        // the search's own generator: (C2)-valid at every size it grows to
        for i in 0..200 {
            let spec = crate::space::random_spec(4 + 2 * (i % 4), &mut rng, 200).expect("valid");
            assert_eq!(canonical(&spec).blocks(), reference(&spec), "{}", spec.formula());
        }
        assert!(valid > 100 && invalid > 100, "{valid} valid, {invalid} invalid");
    }

    #[test]
    fn key_order_is_block_list_order() {
        let mut rng = SeededRng::new(66);
        for n in [4usize, 7, 16] {
            let specs: Vec<BlockSpec> = (0..40).map(|_| random_structure(n, &mut rng)).collect();
            for a in &specs {
                for b in &specs {
                    assert_eq!(
                        OrbitKey::of(a).cmp(&OrbitKey::of(b)),
                        canonical(a).blocks().cmp(canonical(b).blocks())
                    );
                }
            }
        }
    }

    #[test]
    fn perm_index_is_the_index_in_perms() {
        for (i, p) in PERMS.iter().enumerate() {
            assert_eq!(perm_index(*p), i);
        }
    }

    fn random_transform(rng: &mut SeededRng) -> Transform {
        Transform {
            ent_perm: PERMS[rng.below(24)],
            rel_perm: PERMS[rng.below(24)],
            flips: [rng.coin(), rng.coin(), rng.coin(), rng.coin()],
        }
    }

    #[test]
    fn perms_are_distinct_and_complete() {
        let mut set = std::collections::HashSet::new();
        for p in PERMS {
            assert!(set.insert(p));
            let mut sorted = p;
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3]);
        }
        assert_eq!(set.len(), 24);
    }

    #[test]
    fn group_size_is_9216() {
        assert_eq!(Transform::all().count(), 24 * 24 * 16);
    }

    #[test]
    fn identity_fixes_everything() {
        let id = Transform::identity();
        for (_, spec) in classics::all() {
            assert_eq!(id.apply(&spec), spec);
        }
    }

    #[test]
    fn inverse_undoes_apply() {
        let mut rng = SeededRng::new(61);
        let spec = classics::complex();
        for _ in 0..50 {
            let t = random_transform(&mut rng);
            let back = t.inverse().apply(&t.apply(&spec));
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn compose_matches_sequential_application() {
        let mut rng = SeededRng::new(62);
        let spec = classics::analogy();
        for _ in 0..50 {
            let t1 = random_transform(&mut rng);
            let t2 = random_transform(&mut rng);
            let seq = t1.apply(&t2.apply(&spec));
            let comp = t1.compose(&t2).apply(&spec);
            assert_eq!(seq, comp);
        }
    }

    #[test]
    fn canonical_is_orbit_invariant() {
        let mut rng = SeededRng::new(63);
        for (_, spec) in classics::all() {
            let c = canonical(&spec);
            for _ in 0..20 {
                let t = random_transform(&mut rng);
                assert_eq!(canonical(&t.apply(&spec)), c);
            }
        }
    }

    #[test]
    fn equivalent_detects_permuted_simple() {
        // Fig. 2d: permute entity components of SimplE
        let spec = classics::simple();
        let t = Transform { ent_perm: [0, 2, 1, 3], rel_perm: [0, 1, 2, 3], flips: [false; 4] };
        let permuted = t.apply(&spec);
        assert_ne!(permuted, spec, "the raw block lists differ");
        assert!(equivalent(&permuted, &spec), "but they are in the same orbit");
    }

    #[test]
    fn flip_signs_is_equivalent() {
        // Fig. 2f: flip the signs of r2 and r4
        let spec = classics::complex();
        let t = Transform {
            ent_perm: [0, 1, 2, 3],
            rel_perm: [0, 1, 2, 3],
            flips: [false, true, false, true],
        };
        assert!(equivalent(&t.apply(&spec), &spec));
    }

    #[test]
    fn different_classics_are_not_equivalent() {
        let models = classics::all();
        for i in 0..models.len() {
            for j in i + 1..models.len() {
                assert!(
                    !equivalent(&models[i].1, &models[j].1),
                    "{} ~ {}",
                    models[i].0,
                    models[j].0
                );
            }
        }
    }

    #[test]
    fn semantic_invariance_scores_match_after_transform() {
        // h>g1(r)t == h̄>g2(r̄)t̄ when embeddings are permuted/flipped
        // consistently (the training-equivalence argument of Sec. IV-A2).
        let mut rng = SeededRng::new(64);
        let spec = classics::analogy();
        let t = random_transform(&mut rng);
        let transformed = t.apply(&spec);
        let dsub = 3;
        let d = 4 * dsub;
        let mut h = vec![0.0f32; d];
        let mut r = vec![0.0f32; d];
        let mut tt = vec![0.0f32; d];
        rng.fill_normal(1.0, &mut h);
        rng.fill_normal(1.0, &mut r);
        rng.fill_normal(1.0, &mut tt);
        // build the transformed embeddings: component c of the new vector
        // is component c' of the old where perm[c'] = c; signs flip for
        // flipped relation components.
        // flips are indexed by the *old* relation component (the transform
        // flips block signs by `flips[old rc]`), so the compensating
        // embedding flip also keys on the old component index.
        let permute = |v: &[f32], perm: [u8; 4], flips: Option<[bool; 4]>| {
            let mut out = vec![0.0f32; d];
            for c_old in 0..4usize {
                let c_new = perm[c_old] as usize;
                for i in 0..dsub {
                    let mut val = v[c_old * dsub + i];
                    if let Some(f) = flips {
                        if f[c_old] {
                            val = -val;
                        }
                    }
                    out[c_new * dsub + i] = val;
                }
            }
            out
        };
        let h2 = permute(&h, t.ent_perm, None);
        let t2 = permute(&tt, t.ent_perm, None);
        let r2 = permute(&r, t.rel_perm, Some(t.flips));
        let s1 = spec.score(&h, &r, &tt, dsub);
        let s2 = transformed.score(&h2, &r2, &t2, dsub);
        assert!((s1 - s2).abs() < 1e-3, "scores diverge: {s1} vs {s2}");
    }
}
