//! The candidate filter (Sec. IV-B2): constraint (C2) plus invariance
//! deduplication.
//!
//! (C2) on the 4×4 substitute matrix:
//! * no zero rows or columns (otherwise some embedding dimensions are never
//!   optimised),
//! * all four relation components `r1..r4` appear,
//! * no repeated rows or columns (repeated rows make components
//!   indistinguishable — a degenerate structure).
//!
//! Deduplication: a [`DedupFilter`] keeps the [`OrbitKey`] of every
//! structure it has accepted and rejects newcomers whose orbit was already
//! seen — this is what cuts the f4 space from its 24 × 24 × 16 = 9,216 raw
//! signed double permutations to the five the paper reports. (C2) is a
//! handful of comparisons and the key a 576-candidate minimum, so callers
//! that hold both test (C2) first ([`DedupFilter::admit`] does).

use crate::invariance::OrbitKey;
use kg_core::fxhash::FxHashSet;
use kg_models::BlockSpec;

/// Does the structure satisfy constraint (C2)?
pub fn satisfies_c2(spec: &BlockSpec) -> bool {
    let m = spec.substitute_matrix();
    // no zero rows / columns
    for i in 0..4 {
        if (0..4).all(|j| m[i][j] == 0) {
            return false;
        }
        if (0..4).all(|j| m[j][i] == 0) {
            return false;
        }
    }
    // covers all four relation components
    let mut used = [false; 4];
    for b in spec.blocks() {
        used[b.rc as usize] = true;
    }
    if used.iter().any(|u| !u) {
        return false;
    }
    // no repeated rows / columns (as signed vectors)
    for i in 0..4 {
        for j in i + 1..4 {
            if m[i] == m[j] {
                return false;
            }
            if (0..4).all(|k| m[k][i] == m[k][j]) {
                return false;
            }
        }
    }
    true
}

/// A set of already-seen structure orbits.
#[derive(Debug, Default)]
pub struct DedupFilter {
    seen: FxHashSet<OrbitKey>,
}

impl DedupFilter {
    /// Empty filter.
    pub fn new() -> Self {
        DedupFilter::default()
    }

    /// Number of distinct orbits recorded.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Has this orbit been seen before?
    pub fn contains(&self, key: OrbitKey) -> bool {
        self.seen.contains(&key)
    }

    /// Record an orbit; returns `false` if it was already known.
    pub fn insert(&mut self, key: OrbitKey) -> bool {
        self.seen.insert(key)
    }

    /// The combined filter of Alg. 2 step 5: accept iff (C2) holds and the
    /// orbit is new; accepted structures are recorded.
    pub fn admit(&mut self, spec: &BlockSpec) -> bool {
        satisfies_c2(spec) && self.insert(OrbitKey::of(spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_models::blm::classics;
    use kg_models::Block;

    #[test]
    fn classics_satisfy_c2() {
        for (name, spec) in classics::all() {
            assert!(satisfies_c2(&spec), "{name} must satisfy C2");
        }
    }

    #[test]
    fn zero_row_fails_c2() {
        // all blocks in rows 0..3, row 3 of the matrix empty, col 3 empty
        let spec = BlockSpec::new(vec![
            Block::new(0, 0, 0, 1),
            Block::new(1, 1, 1, 1),
            Block::new(2, 2, 2, 1),
            Block::new(2, 3, 1, 1),
        ]);
        assert!(!satisfies_c2(&spec));
    }

    #[test]
    fn missing_relation_component_fails_c2() {
        // r4 never used
        let spec = BlockSpec::new(vec![
            Block::new(0, 0, 0, 1),
            Block::new(1, 1, 1, 1),
            Block::new(2, 2, 2, 1),
            Block::new(3, 0, 3, 1),
        ]);
        assert!(!satisfies_c2(&spec));
    }

    #[test]
    fn repeated_rows_fail_c2() {
        // rows 0 and 1 identical: same relation in the same columns
        let spec = BlockSpec::new(vec![
            Block::new(0, 0, 0, 1),
            Block::new(0, 1, 1, 1),
            Block::new(1, 0, 0, 1),
            Block::new(1, 1, 1, 1),
            Block::new(2, 2, 2, 1),
            Block::new(3, 3, 3, 1),
        ])
        // wait: cells (0,0) and (1,0) both exist; the rows as vectors are
        // [r1, r2, 0, 0] and [r1, r2, 0, 0] — identical.
        ;
        assert!(!satisfies_c2(&spec));
    }

    #[test]
    fn dedup_filter_rejects_equivalents() {
        let mut f = DedupFilter::new();
        let spec = classics::simple();
        assert!(f.admit(&spec));
        // an equivalent permutation of SimplE must be rejected
        let t = crate::invariance::Transform {
            ent_perm: [1, 0, 3, 2],
            rel_perm: [2, 3, 0, 1],
            flips: [true, false, false, true],
        };
        assert!(!f.admit(&t.apply(&spec)));
        assert_eq!(f.len(), 1);
    }

    /// Packed code 0 is block `(0, 0, 0, −1)`: appending it must change the
    /// key, or one filter could not hold b = 4, 6, 8 side by side.
    #[test]
    fn keys_of_different_sizes_never_collide() {
        let four = BlockSpec::new(vec![
            Block::new(0, 0, 1, -1),
            Block::new(1, 1, 0, -1),
            Block::new(2, 2, 3, -1),
            Block::new(3, 3, 2, -1),
        ]);
        let five = four.extended(Block::new(0, 0, 0, -1)).expect("cell (0, 0) is free");
        // `four` is its own canonical form and `five`'s is `(0,0,0,−1)` + `four`
        assert_eq!(crate::invariance::canonical(&four), four);
        assert_eq!(crate::invariance::canonical(&five), five);
        assert_ne!(OrbitKey::of(&four), OrbitKey::of(&five));
        let mut f = DedupFilter::new();
        assert!(f.insert(OrbitKey::of(&four)));
        assert!(f.insert(OrbitKey::of(&five)));
        assert!(f.contains(OrbitKey::of(&four)) && f.contains(OrbitKey::of(&five)));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn dedup_filter_accepts_distinct_structures() {
        let mut f = DedupFilter::new();
        for (name, spec) in classics::all() {
            assert!(f.admit(&spec), "{name} should be admitted");
        }
        assert_eq!(f.len(), 4);
    }

    #[test]
    fn admit_rejects_c2_violations_without_recording() {
        let mut f = DedupFilter::new();
        let bad = BlockSpec::new(vec![
            Block::new(0, 0, 0, 1),
            Block::new(1, 1, 1, 1),
            Block::new(2, 2, 2, 1),
            Block::new(3, 0, 3, 1),
        ]);
        assert!(!f.admit(&bad));
        assert!(f.is_empty());
    }
}
