//! The relaxed-equivalence gate for the `Fast` kernel tier.
//!
//! `KernelPolicy::Fast` deliberately breaks the bit-identity contract with
//! `Exact`: its kernels contract every multiply–add of an output's chain to
//! one FMA (one rounding instead of two; the chain's term order is kept —
//! contracted, not reassociated). This suite pins down exactly *how far*
//! the tier may drift from `Exact`, on the workload shape that matters
//! (query-block × entity-table scoring), and what it still guarantees:
//!
//! * **Per-score bound** — every fast score stays within a
//!   condition-aware absolute bound of the f64 reference, and within a
//!   per-score ULP bound of the exact f32 score wherever the dot product
//!   is well conditioned (no catastrophic cancellation). Raw ULP distance
//!   alone is meaningless under cancellation — the exact answer itself is
//!   then far from the true value — so the ULP gate applies only where
//!   `Σ|aᵢbᵢ| ≤ 4·|Σaᵢbᵢ|`.
//! * **Rank-inversion rate** — ranking by fast scores may only flip pairs
//!   whose exact score gap is inside the float-noise band, and such flips
//!   must stay rare (< 0.5 % of all pairs on random embeddings).
//! * **Shard accuracy** — the fast kernels hold the same noise-band
//!   bound over *any* row range, not just full tables.
//! * **Layout invariance** — a fast score is one FMA chain over its two
//!   operand rows, wherever its column falls in a register tile, a table
//!   tile or a shard and whichever query rows share its block. So shard
//!   blocks over any partition of the table concatenate to the full-table
//!   call, and a 64-row block equals 64 one-row calls, **bit for bit** —
//!   the stitching guarantee sharded ranking and serving rely on holds
//!   under `Fast` as it does under `Exact` (what `Fast` gives up is only
//!   equality with the per-query `gemv` reference).
//!
//! Without FMA on the host, `Fast` degrades to the exact AVX2 kernels and
//! this suite collapses to bit-identity checks — still worth running, so
//! nothing here is feature-gated.

use kg_linalg::rng::SeededRng;
use kg_linalg::simd::canonical_bits as bits;
use kg_linalg::{gemm, KernelPolicy, Mat};
use proptest::prelude::*;

const N_ENTITIES: usize = 256;
const N_QUERIES: usize = 8;
const DIM: usize = 64;

/// Map a float onto the integers so that ULP distance is a subtraction
/// (the usual monotone reinterpretation of the IEEE bit pattern).
fn ordered(x: f32) -> i64 {
    let i = x.to_bits() as i32;
    (if i < 0 { i32::MIN.wrapping_sub(i) } else { i }) as i64
}

fn ulp_dist(a: f32, b: f32) -> u64 {
    (ordered(a) - ordered(b)).unsigned_abs()
}

/// A query-block × entity-table scoring workload: `q` (queries × dim) and
/// `e` (entities × dim), plus exact and fast score blocks.
struct Workload {
    q: Mat,
    e: Mat,
    exact: Vec<f32>,
    fast: Vec<f32>,
}

fn workload(seed: u64) -> Workload {
    let mut rng = SeededRng::new(seed);
    let mut q = Mat::zeros(N_QUERIES, DIM);
    rng.fill_normal(1.0, q.as_mut_slice());
    let mut e = Mat::zeros(N_ENTITIES, DIM);
    rng.fill_normal(1.0, e.as_mut_slice());
    let mut exact = vec![0.0f32; N_QUERIES * N_ENTITIES];
    gemm::gemm_nt_with(KernelPolicy::Exact, q.as_slice(), N_QUERIES, DIM, &e, &mut exact);
    let mut fast = vec![0.0f32; N_QUERIES * N_ENTITIES];
    gemm::gemm_nt_with(KernelPolicy::Fast, q.as_slice(), N_QUERIES, DIM, &e, &mut fast);
    Workload { q, e, exact, fast }
}

/// f64 reference dot and accumulated term magnitude for score `(i, j)`.
fn reference(w: &Workload, i: usize, j: usize) -> (f64, f64) {
    let mut dot = 0.0f64;
    let mut mag = 0.0f64;
    for c in 0..DIM {
        let term = w.q.row(i)[c] as f64 * w.e.row(j)[c] as f64;
        dot += term;
        mag += term.abs();
    }
    (dot, mag)
}

/// The absolute noise band for one score: how far an f32 evaluation in
/// *any* order (exact or fast) may sit from the f64 answer.
fn noise(mag: f64) -> f64 {
    f32::EPSILON as f64 * (DIM as f64 + 8.0) * mag
}

#[test]
fn fast_scores_hold_per_score_bounds() {
    // Generous but meaningful: well-conditioned scores may drift at most
    // this many ULPs from exact; wrong math drifts millions.
    let ulp_bound = 8 * (DIM as u64 + 8);
    let degraded = KernelPolicy::Fast.resolve() == KernelPolicy::Exact.resolve();
    for seed in [11u64, 12, 13] {
        let w = workload(seed);
        for i in 0..N_QUERIES {
            for j in 0..N_ENTITIES {
                let (exact, fast) = (w.exact[i * N_ENTITIES + j], w.fast[i * N_ENTITIES + j]);
                if degraded {
                    assert_eq!(exact.to_bits(), fast.to_bits(), "no FMA: fast must equal exact");
                    continue;
                }
                let (dot, mag) = reference(&w, i, j);
                let err = (fast as f64 - dot).abs();
                assert!(
                    err <= noise(mag),
                    "fast score [{i},{j}] err {err:e} exceeds noise band {:e}",
                    noise(mag)
                );
                if mag <= 4.0 * dot.abs() {
                    let ulps = ulp_dist(exact, fast);
                    assert!(
                        ulps <= ulp_bound,
                        "well-conditioned score [{i},{j}] drifted {ulps} ULPs (bound {ulp_bound})"
                    );
                }
            }
        }
    }
}

#[test]
fn fast_rank_inversions_are_rare_and_noise_bounded() {
    let mut pairs = 0u64;
    let mut inversions = 0u64;
    for seed in [21u64, 22, 23] {
        let w = workload(seed);
        for i in 0..N_QUERIES {
            let exact_row = &w.exact[i * N_ENTITIES..(i + 1) * N_ENTITIES];
            let fast_row = &w.fast[i * N_ENTITIES..(i + 1) * N_ENTITIES];
            for a in 0..N_ENTITIES {
                for b in (a + 1)..N_ENTITIES {
                    pairs += 1;
                    let exact_gap = exact_row[a] - exact_row[b];
                    let fast_gap = fast_row[a] - fast_row[b];
                    if (exact_gap > 0.0) == (fast_gap > 0.0) || exact_gap == 0.0 {
                        continue;
                    }
                    inversions += 1;
                    // An inversion is only legitimate where the exact gap
                    // itself sits inside the combined noise band.
                    let (_, mag_a) = reference(&w, i, a);
                    let (_, mag_b) = reference(&w, i, b);
                    let band = 2.0 * noise(mag_a.max(mag_b));
                    assert!(
                        (exact_gap as f64).abs() <= band,
                        "rank inversion outside the noise band: query {i}, entities {a}/{b}, \
                         exact gap {exact_gap:e}, band {band:e}"
                    );
                }
            }
        }
    }
    let rate = inversions as f64 / pairs as f64;
    assert!(rate < 5e-3, "rank-inversion rate {rate:e} over {pairs} pairs is too high");
}

#[test]
fn fast_shard_rows_stay_within_noise_of_reference() {
    let w = workload(31);
    for (j0, j1) in [(0usize, N_ENTITIES), (1, 9), (7, 200), (128, 256), (250, 251)] {
        let width = j1 - j0;
        let mut shard = vec![0.0f32; N_QUERIES * width];
        gemm::gemm_nt_rows_slice_with(
            KernelPolicy::Fast,
            w.q.as_slice(),
            N_QUERIES,
            DIM,
            w.e.as_slice(),
            w.e.rows(),
            j0..j1,
            &mut shard,
        );
        for i in 0..N_QUERIES {
            for j in j0..j1 {
                let (dot, mag) = reference(&w, i, j);
                let err = (shard[i * width + (j - j0)] as f64 - dot).abs();
                assert!(
                    err <= noise(mag),
                    "fast shard {j0}..{j1} score [{i},{j}] err {err:e} exceeds noise {:e}",
                    noise(mag)
                );
            }
        }
    }
}

/// The softmax backward's two kernels under `Fast`: every output stays
/// inside the same condition-aware noise band of the f64 answer as the
/// scores above (one rounding per term, `terms + 8` of slack), over shapes
/// that cross the register tiles' column remainders, an odd row count and
/// — for `gemm_acc_t` — several table panels, the last one ragged. Without
/// FMA the tier degrades and must equal `Exact`.
#[test]
fn fast_backward_kernels_stay_within_noise_of_reference() {
    let degraded = KernelPolicy::Fast.resolve() == KernelPolicy::Exact.resolve();
    let mut rng = SeededRng::new(41);
    let band = |terms: usize, mag: f64| f32::EPSILON as f64 * (terms as f64 + 8.0) * mag;

    // gemm_acc_t: out[i][c] = Σ_r s[i][r] · b[r][c].
    for (m, n, k) in [(5usize, 300usize, 64usize), (2, 97, 44)] {
        let mut b = Mat::zeros(n, k);
        rng.fill_normal(1.0, b.as_mut_slice());
        let mut s = Mat::zeros(m, n);
        rng.fill_normal(1.0, s.as_mut_slice());
        let mut fast = vec![0.0f32; m * k];
        gemm::gemm_acc_t_with(KernelPolicy::Fast, s.as_slice(), m, &b, &mut fast);
        if degraded {
            let mut exact = vec![0.0f32; m * k];
            gemm::gemm_acc_t_with(KernelPolicy::Exact, s.as_slice(), m, &b, &mut exact);
            assert_eq!(fast, exact, "no FMA: fast gemm_acc_t must equal exact");
            continue;
        }
        for i in 0..m {
            for c in 0..k {
                let (mut dot, mut mag) = (0.0f64, 0.0f64);
                for r in 0..n {
                    let term = s.row(i)[r] as f64 * b.row(r)[c] as f64;
                    dot += term;
                    mag += term.abs();
                }
                let err = (fast[i * k + c] as f64 - dot).abs();
                assert!(
                    err <= band(n, mag),
                    "fast gemm_acc_t [{i},{c}] err {err:e} exceeds noise band ({m},{n},{k})"
                );
            }
        }
    }

    // rank_update: d[e] += Σ_k s[k][e] · q[k] on rows 1..n of d.
    for (m, n, dim) in [(64usize, 37usize, 32usize), (7, 10, 44)] {
        let mut s = Mat::zeros(m, n);
        rng.fill_normal(1.0, s.as_mut_slice());
        let mut q = Mat::zeros(m, dim);
        rng.fill_normal(1.0, q.as_mut_slice());
        let mut d0 = Mat::zeros(n, dim);
        rng.fill_normal(1.0, d0.as_mut_slice());
        let mut fast = d0.clone();
        gemm::rank_update_with(
            KernelPolicy::Fast,
            s.as_slice(),
            n,
            m,
            q.as_slice(),
            &mut fast,
            1..n,
        );
        assert_eq!(fast.row(0), d0.row(0), "rows outside the range must stay untouched");
        if degraded {
            let mut exact = d0.clone();
            gemm::rank_update_with(
                KernelPolicy::Exact,
                s.as_slice(),
                n,
                m,
                q.as_slice(),
                &mut exact,
                1..n,
            );
            assert_eq!(fast, exact, "no FMA: fast rank_update must equal exact");
            continue;
        }
        for e in 1..n {
            for c in 0..dim {
                let mut sum = d0.get(e, c) as f64;
                let mut mag = sum.abs();
                for k in 0..m {
                    let term = s.get(k, e) as f64 * q.get(k, c) as f64;
                    sum += term;
                    mag += term.abs();
                }
                let err = (fast.get(e, c) as f64 - sum).abs();
                assert!(
                    err <= band(m + 1, mag),
                    "fast rank_update [{e},{c}] err {err:e} exceeds noise band ({m},{n},{dim})"
                );
            }
        }
    }
}

/// `rows × cols` standard-normal floats from `seed`.
fn normal_mat(seed: u64, rows: usize, cols: usize) -> Mat {
    let mut m = Mat::zeros(rows, cols);
    SeededRng::new(seed).fill_normal(1.0, m.as_mut_slice());
    m
}

proptest! {
    /// Layout invariance (a): shard blocks over any partition of `0..n` —
    /// width-0, ragged and tile-unaligned shards included — concatenate to
    /// the full-table `Fast` call bit for bit.
    #[test]
    fn fast_shard_blocks_concatenate_to_the_full_table_call(
        seed in 0u64..1_000_000,
        m in prop::sample::select(vec![1usize, 2, 3, 4, 5, 7, 64]),
        k in prop::sample::select(vec![1usize, 7, 8, 17, 32, 64, 100]),
        n in 1usize..150,
        cuts in prop::collection::vec(0usize..1_000, 0..6),
    ) {
        let (a, b) = (normal_mat(seed, m, k), normal_mat(seed + 1, n, k));
        let mut full = vec![0.0f32; m * n];
        gemm::gemm_nt_with(KernelPolicy::Fast, a.as_slice(), m, k, &b, &mut full);
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).chain([0, n]).collect();
        bounds.sort_unstable();
        let mut stitched = vec![f32::NAN; m * n];
        for w in bounds.windows(2) {
            let (j0, j1) = (w[0], w[1]);
            let mut shard = vec![f32::NAN; m * (j1 - j0)];
            gemm::gemm_nt_rows_slice_with(
                KernelPolicy::Fast, a.as_slice(), m, k, b.as_slice(), n, j0..j1, &mut shard,
            );
            for i in 0..m {
                stitched[i * n + j0..i * n + j1]
                    .copy_from_slice(&shard[i * (j1 - j0)..(i + 1) * (j1 - j0)]);
            }
        }
        prop_assert_eq!(bits(&stitched), bits(&full), "partition {:?}", bounds);
    }

    /// Layout invariance (b): a full 64-row block equals its 64 rows scored
    /// one call at a time, bit for bit — a served answer does not depend on
    /// which other requests shared its block.
    #[test]
    fn fast_block_equals_its_rows_scored_one_at_a_time(
        seed in 0u64..1_000_000,
        k in prop::sample::select(vec![1usize, 7, 8, 17, 32, 64, 100]),
        n in 1usize..100,
    ) {
        let m = 64;
        let (a, b) = (normal_mat(seed, m, k), normal_mat(seed + 1, n, k));
        let mut block = vec![0.0f32; m * n];
        gemm::gemm_nt_with(KernelPolicy::Fast, a.as_slice(), m, k, &b, &mut block);
        let mut single = vec![0.0f32; n];
        for i in 0..m {
            gemm::gemm_nt_with(KernelPolicy::Fast, a.row(i), 1, k, &b, &mut single);
            prop_assert_eq!(bits(&single), bits(&block[i * n..(i + 1) * n]), "row {}", i);
        }
    }
}
