//! Property-based tests for the math substrate.

use kg_linalg::{vecops, KernelPolicy};
use proptest::prelude::*;

fn small_vec(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, n..=n)
}

proptest! {
    #[test]
    fn dot_is_commutative(a in small_vec(16), b in small_vec(16)) {
        let ab = vecops::dot(&a, &b);
        let ba = vecops::dot(&b, &a);
        prop_assert!((ab - ba).abs() <= 1e-3 * (1.0 + ab.abs()));
    }

    #[test]
    fn triple_dot_is_fully_symmetric(a in small_vec(8), b in small_vec(8), c in small_vec(8)) {
        let abc = vecops::triple_dot(&a, &b, &c);
        let bca = vecops::triple_dot(&b, &c, &a);
        let cab = vecops::triple_dot(&c, &a, &b);
        prop_assert!((abc - bca).abs() <= 1e-2 * (1.0 + abc.abs()));
        prop_assert!((abc - cab).abs() <= 1e-2 * (1.0 + abc.abs()));
    }

    #[test]
    fn softmax_is_a_distribution(mut x in small_vec(12)) {
        vecops::softmax_inplace(&mut x);
        let sum: f32 = x.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn softmax_is_shift_invariant(x in small_vec(8), shift in -50.0f32..50.0) {
        let mut a = x.clone();
        let mut b: Vec<f32> = x.iter().map(|v| v + shift).collect();
        vecops::softmax_inplace(&mut a);
        vecops::softmax_inplace(&mut b);
        for (p, q) in a.iter().zip(b.iter()) {
            prop_assert!((p - q).abs() < 1e-4);
        }
    }

    #[test]
    fn ranks_are_a_valid_assignment(x in small_vec(10)) {
        let r = vecops::ranks(&x);
        let sum: f32 = r.iter().sum();
        // ranks always sum to n(n+1)/2 regardless of ties
        prop_assert!((sum - 55.0).abs() < 1e-3);
        prop_assert!(r.iter().all(|&v| (1.0..=10.0).contains(&v)));
    }

    #[test]
    fn pearson_is_bounded(a in small_vec(12), b in small_vec(12)) {
        let rho = vecops::pearson(&a, &b);
        prop_assert!((-1.0001..=1.0001).contains(&rho));
    }

    /// The branchless rank-count sweep agrees with the naive branchy scalar
    /// loop on NaN-free inputs, whatever the slice length (lane raggedness
    /// included) and wherever the threshold falls.
    #[test]
    fn count_cmp_matches_naive_loop(
        scores in prop::collection::vec(-4.0f32..4.0, 0..50),
        threshold in -4.0f32..4.0,
    ) {
        let mut gt = 0usize;
        let mut eq = 0usize;
        for &s in &scores {
            if s > threshold {
                gt += 1;
            } else if s == threshold {
                eq += 1;
            }
        }
        prop_assert_eq!(vecops::count_cmp(&scores, threshold), (gt, eq));
    }

    /// Ties are counted exactly when the threshold is drawn from the slice
    /// itself (quantised scores force heavy tie groups).
    #[test]
    fn count_cmp_counts_exact_ties(
        raw in prop::collection::vec(-3i32..3, 1..40),
        pick in 0usize..1_000,
    ) {
        let scores: Vec<f32> = raw.iter().map(|&v| v as f32).collect();
        let threshold = scores[pick % scores.len()];
        let gt = scores.iter().filter(|&&s| s > threshold).count();
        let eq = scores.iter().filter(|&&s| s == threshold).count();
        prop_assert!(eq >= 1, "the picked threshold always ties with itself");
        prop_assert_eq!(vecops::count_cmp(&scores, threshold), (gt, eq));
    }

    /// Partial counts over any two-way split sum to the whole — the
    /// order-independence sharded rank merging relies on.
    #[test]
    fn count_cmp_is_additive_over_splits(
        scores in prop::collection::vec(-2.0f32..2.0, 0..40),
        split in 0usize..1_000,
        threshold in -2.0f32..2.0,
    ) {
        let split = split % (scores.len() + 1);
        let (a, b) = scores.split_at(split);
        let (ga, ea) = vecops::count_cmp(a, threshold);
        let (gb, eb) = vecops::count_cmp(b, threshold);
        prop_assert_eq!((ga + gb, ea + eb), vecops::count_cmp(&scores, threshold));
    }

    #[test]
    fn axpy_matches_reference(alpha in -10.0f32..10.0, x in small_vec(8), y0 in small_vec(8)) {
        let mut y = y0.clone();
        vecops::axpy(alpha, &x, &mut y);
        for i in 0..8 {
            prop_assert!((y[i] - (y0[i] + alpha * x[i])).abs() < 1e-2);
        }
    }
}

/// Cross-backend equivalence for the dispatched kernels: on an AVX2
/// machine these run SIMD against the scalar reference (and additionally
/// pit the explicit AVX2 kernels against scalar even when the
/// `KG_FORCE_SCALAR` knob pinned the dispatcher — so the forced-scalar CI
/// pass still cross-checks both backends); elsewhere they pin
/// scalar-vs-scalar stability. All comparisons are on raw bit patterns, so
/// NaN payloads and signed zeros count, and lengths/ranges are drawn to be
/// unaligned with every tile, unroll and lane width.
mod simd_props {
    use super::*;
    use kg_linalg::{gemm, simd, vecops, Mat};

    /// Codes `0..5` select NaN, ±0.0 and the infinities; any other code
    /// keeps the ordinary float `v`.
    fn payload((code, v): (u32, f32)) -> f32 {
        match code {
            0 => f32::NAN,
            1 => 0.0,
            2 => -0.0,
            3 => f32::INFINITY,
            4 => f32::NEG_INFINITY,
            _ => v,
        }
    }

    /// `f32` payloads including NaN, ±0.0 and the infinities.
    fn awkward(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
        prop::collection::vec((0u32..8, -100.0f32..100.0), n)
            .prop_map(|raw| raw.into_iter().map(payload).collect())
    }

    /// NaN-free payloads (±0.0 and infinities still included): on these
    /// the backends owe **raw** bit equality, invalid-op NaNs included.
    fn awkward_no_nan(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
        awkward(n).prop_map(|v| v.into_iter().map(|x| if x.is_nan() { 1.5 } else { x }).collect())
    }

    /// The shared cross-backend comparator: NaNs canonicalised, everything
    /// else raw — see [`simd::canonical_bits`] for the contract it encodes.
    fn bits(x: &[f32]) -> Vec<u32> {
        simd::canonical_bits(x)
    }

    /// Raw bit patterns, NaN payloads included — for NaN-free inputs.
    fn raw_bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Safe shims over the explicit AVX2 kernels: run the kernel and
    /// return `true` under runtime detection, `false` (untouched output)
    /// on CPUs and architectures without AVX2 — so the proptests compile
    /// and pass everywhere while exercising the explicit backend wherever
    /// it exists, even when `KG_FORCE_SCALAR` pinned the dispatcher.
    fn avx2_gemm_nt_rows(
        a: &[f32],
        m: usize,
        k: usize,
        b: &Mat,
        rows: std::ops::Range<usize>,
        out: &mut [f32],
    ) -> bool {
        #[cfg(target_arch = "x86_64")]
        if simd::avx2_available() {
            // SAFETY: guarded by runtime AVX2 detection.
            unsafe { simd::avx2::gemm_nt_rows_slice(a, m, k, b.as_slice(), b.rows(), rows, out) };
            return true;
        }
        let _ = (a, m, k, b, rows, out);
        false
    }

    fn avx2_gemm_acc_t(s: &[f32], m: usize, b: &Mat, out: &mut [f32]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if simd::avx2_available() {
            // SAFETY: guarded by runtime AVX2 detection.
            unsafe { simd::avx2::gemm_acc_t(s, m, b, out) };
            return true;
        }
        let _ = (s, m, b, out);
        false
    }

    fn avx2_rank_update(
        s: &[f32],
        stride: usize,
        m: usize,
        q: &[f32],
        d: &mut Mat,
        rows: std::ops::Range<usize>,
    ) -> bool {
        #[cfg(target_arch = "x86_64")]
        if simd::avx2_available() {
            // SAFETY: guarded by runtime AVX2 detection.
            unsafe { simd::avx2::rank_update(s, stride, m, q, d, rows) };
            return true;
        }
        let _ = (s, stride, m, q, d, rows);
        false
    }

    /// A fixed-size pool of mostly ordinary floats with NaN, ±0.0 and the
    /// infinities sprinkled in at ≈ 0.5 % — sparse enough that a 64-term
    /// sum still has finite outputs to compare, dense enough that every
    /// run poisons some. Shapes are drawn separately and filled from the
    /// pool by [`fill`], since a strategy cannot depend on another's value.
    fn sparse_awkward_pool() -> impl Strategy<Value = Vec<f32>> {
        prop::collection::vec((0u32..1024, -4.0f32..4.0), 509..510)
            .prop_map(|raw| raw.into_iter().map(payload).collect())
    }

    /// `len` floats read cyclically from `pool` (prime length) at `offset`.
    fn fill(pool: &[f32], offset: usize, len: usize) -> Vec<f32> {
        (0..len).map(|i| pool[(offset + i) % pool.len()]).collect()
    }

    fn avx2_count_cmp(scores: &[f32], threshold: f32) -> Option<(usize, usize)> {
        #[cfg(target_arch = "x86_64")]
        if simd::avx2_available() {
            // SAFETY: guarded by runtime AVX2 detection.
            return Some(unsafe { simd::avx2::count_cmp(scores, threshold) });
        }
        let _ = (scores, threshold);
        None
    }

    /// Query-row counts that leave every remainder of the register tiles'
    /// row groups (3 / 2 / 1 under `Fast`, 2 / 1 under `Exact`), up to a
    /// full block.
    const NT_M: [usize; 7] = [1, 2, 3, 4, 5, 7, 64];

    /// Inner dimensions below, at and between the transpose's 4-column
    /// step and the 8-lane vector, up to past the search dimension.
    const NT_K: [usize; 10] = [1, 7, 8, 9, 16, 17, 32, 40, 64, 100];

    /// Every element of the `m × rows.len()` block as the per-query
    /// reference computes it: `vecops::dot(a_i, b_j)`.
    fn dots(a: &[f32], m: usize, k: usize, b: &Mat, rows: std::ops::Range<usize>) -> Vec<f32> {
        let row = |i: usize| &a[i * k..(i + 1) * k];
        (0..m).flat_map(|i| rows.clone().map(move |j| vecops::dot(row(i), b.row(j)))).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Dispatched `gemm_nt` == explicit AVX2 == scalar == per-element
        /// `dot`, byte for byte, over every row-group remainder, the inner
        /// dimensions around the vector steps, table heights crossing every
        /// tile remainder `0..=31`, and NaN / ±0 / ∞ payloads.
        #[test]
        fn gemm_nt_backends_bit_identical(
            pool in sparse_awkward_pool(),
            m in prop::sample::select(NT_M.to_vec()),
            k in prop::sample::select(NT_K.to_vec()),
            n in 0usize..100,
        ) {
            let a = fill(&pool, 0, m * k);
            let b = Mat::from_vec(n, k, fill(&pool, 101, n * k));
            let mut scalar = vec![1.0f32; m * n];
            gemm::gemm_nt_rows_slice_scalar(&a, m, k, b.as_slice(), n, 0..n, &mut scalar);
            prop_assert_eq!(bits(&scalar), bits(&dots(&a, m, k, &b, 0..n)));
            let mut dispatched = vec![2.0f32; m * n];
            gemm::gemm_nt_with(KernelPolicy::Exact, &a, m, k, &b, &mut dispatched);
            prop_assert_eq!(bits(&dispatched), bits(&scalar));
            let mut explicit = vec![3.0f32; m * n];
            if avx2_gemm_nt_rows(&a, m, k, &b, 0..n, &mut explicit) {
                prop_assert_eq!(bits(&explicit), bits(&scalar));
            }
        }

        /// The same four-way identity on arbitrary (ragged, width-0,
        /// tile-unaligned) shard ranges: the range's start and width each
        /// cross every tile remainder.
        #[test]
        fn gemm_nt_rows_backends_bit_identical(
            pool in sparse_awkward_pool(),
            m in prop::sample::select(NT_M.to_vec()),
            k in prop::sample::select(NT_K.to_vec()),
            n in 1usize..100,
            lo in 0usize..1_000,
            hi in 0usize..1_000,
        ) {
            let a = fill(&pool, 0, m * k);
            let b = Mat::from_vec(n, k, fill(&pool, 101, n * k));
            let (lo, hi) = (lo % (n + 1), hi % (n + 1));
            let rows = lo.min(hi)..lo.max(hi);
            let width = rows.len();
            let mut scalar = vec![1.0f32; m * width];
            gemm::gemm_nt_rows_slice_scalar(&a, m, k, b.as_slice(), n, rows.clone(), &mut scalar);
            prop_assert_eq!(bits(&scalar), bits(&dots(&a, m, k, &b, rows.clone())));
            let mut dispatched = vec![2.0f32; m * width];
            gemm::gemm_nt_rows_slice_with(
                KernelPolicy::Exact, &a, m, k, b.as_slice(), n, rows.clone(), &mut dispatched,
            );
            prop_assert_eq!(bits(&dispatched), bits(&scalar));
            let mut explicit = vec![3.0f32; m * width];
            if avx2_gemm_nt_rows(&a, m, k, &b, rows, &mut explicit) {
                prop_assert_eq!(bits(&explicit), bits(&scalar));
            }
        }
    }

    proptest! {
        /// Dispatched `gemm_acc_t` == scalar on awkward coefficient blocks
        /// and lane-unaligned dimensions.
        #[test]
        fn gemm_acc_t_backends_bit_identical(
            s in awkward(4..40),
            b in awkward(0..300),
            m in 1usize..4,
        ) {
            let n = s.len() / m;
            prop_assume!(n > 0);
            let k = b.len() / n;
            prop_assume!(k > 0);
            let s = &s[..m * n];
            let b = Mat::from_vec(n, k, b[..n * k].to_vec());
            let mut dispatched = vec![0.0f32; m * k];
            gemm::gemm_acc_t_with(KernelPolicy::Exact, s, m, &b, &mut dispatched);
            let mut scalar = vec![0.0f32; m * k];
            gemm::gemm_acc_t_scalar(s, m, &b, &mut scalar);
            prop_assert_eq!(bits(&dispatched), bits(&scalar));
            let mut explicit = vec![0.0f32; m * k];
            if avx2_gemm_acc_t(s, m, &b, &mut explicit) {
                prop_assert_eq!(bits(&explicit), bits(&scalar));
            }
        }

        /// The register-blocked, panel-walking `gemm_acc_t` == the
        /// streaming scalar reference on shapes that cross every
        /// remainder: `n` not a multiple of the panel (16 KiB of table
        /// rows: 1024 / 341 / 113 / 64 / 40 / 20 rows at these `k`, so the
        /// wider tables span several panels, the last one ragged), odd and
        /// even `m`, `k % 32 ≠ 0`, `k % 8 ≠ 0`, and the empty table.
        #[test]
        fn gemm_acc_t_backends_bit_identical_across_panels_and_tails(
            pool in sparse_awkward_pool(),
            k in prop::sample::select(vec![4usize, 12, 36, 64, 100, 200]),
            m in prop::sample::select(vec![1usize, 2, 3, 5, 64]),
            n in 0usize..150,
        ) {
            let b = Mat::from_vec(n, k, fill(&pool, 0, n * k));
            let s = fill(&pool, 101, m * n);
            let mut scalar = vec![1.0f32; m * k];
            gemm::gemm_acc_t_scalar(&s, m, &b, &mut scalar);
            let mut dispatched = vec![2.0f32; m * k];
            gemm::gemm_acc_t_with(KernelPolicy::Exact, &s, m, &b, &mut dispatched);
            prop_assert_eq!(bits(&dispatched), bits(&scalar));
            let mut explicit = vec![3.0f32; m * k];
            if avx2_gemm_acc_t(&s, m, &b, &mut explicit) {
                prop_assert_eq!(bits(&explicit), bits(&scalar));
            }
        }

        /// The rank-`m` update: AVX2 == scalar == `m` successive
        /// `Mat::ger` calls, on the rows of the range and only there —
        /// over every column remainder (`dim` below, at and between the
        /// 4-, 2- and 1-vector tiles), `m` ∈ {1, odd, 64}, empty / odd /
        /// offset row ranges, a coefficient stride wider than `D`, and
        /// NaN / ±0 / ∞ inputs.
        #[test]
        fn rank_update_backends_match_a_sequence_of_ger_calls(
            pool in sparse_awkward_pool(),
            dim in prop::sample::select(vec![4usize, 8, 12, 16, 32, 40, 64]),
            m in prop::sample::select(vec![1usize, 3, 7, 64]),
            n in 1usize..12,
            pad in 0usize..4,
            lo in 0usize..1_000,
            hi in 0usize..1_000,
        ) {
            let stride = n + pad;
            let s = fill(&pool, 0, m * stride);
            let q = fill(&pool, 211, m * dim);
            let d0 = Mat::from_vec(n, dim, fill(&pool, 307, n * dim));
            let (lo, hi) = (lo % (n + 1), hi % (n + 1));
            let rows = lo.min(hi)..lo.max(hi);

            // Reference: m rank-1 updates of the whole matrix, of which
            // only the rows of the range may show.
            let mut by_ger = d0.clone();
            for k in 0..m {
                by_ger.ger(1.0, &s[k * stride..k * stride + n], &q[k * dim..(k + 1) * dim]);
            }
            let mut want = d0.clone();
            for e in rows.clone() {
                want.row_mut(e).copy_from_slice(by_ger.row(e));
            }

            let mut scalar = d0.clone();
            gemm::rank_update_scalar(&s, stride, m, &q, &mut scalar, rows.clone());
            prop_assert_eq!(bits(scalar.as_slice()), bits(want.as_slice()));
            let mut dispatched = d0.clone();
            gemm::rank_update_with(KernelPolicy::Exact, &s, stride, m, &q, &mut dispatched, rows.clone());
            prop_assert_eq!(bits(dispatched.as_slice()), bits(want.as_slice()));
            let mut explicit = d0.clone();
            if avx2_rank_update(&s, stride, m, &q, &mut explicit, rows) {
                prop_assert_eq!(bits(explicit.as_slice()), bits(want.as_slice()));
            }
        }

        /// Splitting the row range or the term range anywhere changes no
        /// byte — what lets the multi-class loss cut around a conditioning
        /// entity and inject its own gradient between two terms.
        #[test]
        fn rank_update_is_invariant_under_row_and_term_splits(
            pool in sparse_awkward_pool(),
            dim in prop::sample::select(vec![8usize, 12, 32, 40]),
            n in 2usize..11,
            row_cut in 0usize..1_000,
            term_cut in 0usize..1_000,
        ) {
            let m = 9;
            let s = fill(&pool, 0, m * n);
            let q = fill(&pool, 211, m * dim);
            let d0 = Mat::from_vec(n, dim, fill(&pool, 307, n * dim));
            let mut whole = d0.clone();
            gemm::rank_update_with(KernelPolicy::Exact, &s, n, m, &q, &mut whole, 0..n);

            let (e, k) = (row_cut % (n + 1), term_cut % (m + 1));
            let mut split = d0.clone();
            for rows in [0..e, e..n] {
                gemm::rank_update_with(
                    KernelPolicy::Exact, &s[..k * n], n, k, &q[..k * dim], &mut split, rows.clone(),
                );
                gemm::rank_update_with(
                    KernelPolicy::Exact, &s[k * n..], n, m - k, &q[k * dim..], &mut split, rows,
                );
            }
            prop_assert_eq!(bits(split.as_slice()), bits(whole.as_slice()));
        }

        /// NaN-free inputs (±0.0 and infinities included — invalid
        /// operations may still produce NaN outputs) owe raw bit equality
        /// across backends, payloads of those indefinites included.
        #[test]
        fn gemm_nt_backends_raw_bit_identical_without_input_nans(
            a in awkward_no_nan(8..33),
            b in awkward_no_nan(0..400),
            m in 1usize..5,
        ) {
            let k = a.len() / m;
            prop_assume!(k > 0);
            let n = b.len() / k;
            let a = &a[..m * k];
            let b = Mat::from_vec(n, k, b[..n * k].to_vec());
            let mut dispatched = vec![0.0f32; m * n];
            gemm::gemm_nt_with(KernelPolicy::Exact, a, m, k, &b, &mut dispatched);
            let mut scalar = vec![0.0f32; m * n];
            gemm::gemm_nt_rows_slice_scalar(a, m, k, b.as_slice(), n, 0..n, &mut scalar);
            prop_assert_eq!(raw_bits(&dispatched), raw_bits(&scalar));
            prop_assert_eq!(raw_bits(&scalar), raw_bits(&dots(a, m, k, &b, 0..n)));
            let mut explicit = vec![0.0f32; m * n];
            if avx2_gemm_nt_rows(a, m, k, &b, 0..n, &mut explicit) {
                prop_assert_eq!(raw_bits(&explicit), raw_bits(&scalar));
            }
        }

        /// Dispatched `count_cmp` == scalar on awkward payloads (NaN
        /// thresholds included) at every lane-ragged length.
        #[test]
        fn count_cmp_backends_agree(
            scores in awkward(0..70),
            threshold in awkward(1..2),
        ) {
            let t = threshold[0];
            let scalar = vecops::count_cmp_scalar(&scores, t);
            prop_assert_eq!(vecops::count_cmp(&scores, t), scalar);
            if let Some(explicit) = avx2_count_cmp(&scores, t) {
                prop_assert_eq!(explicit, scalar);
            }
        }
    }
}

mod matrix_props {
    use super::*;
    use kg_linalg::Mat;

    fn small_mat(r: usize, c: usize) -> impl Strategy<Value = Mat> {
        prop::collection::vec(-10.0f32..10.0, r * c..=r * c)
            .prop_map(move |v| Mat::from_vec(r, c, v))
    }

    proptest! {
        /// The batched kernel agrees with the naive dense `A · Bᵀ` product.
        #[test]
        fn gemm_nt_matches_naive_matmul(a in small_mat(5, 6), b in small_mat(37, 6)) {
            let mut batched = vec![0.0f32; a.rows() * b.rows()];
            kg_linalg::gemm::gemm_nt_with(
                KernelPolicy::Exact, a.as_slice(), a.rows(), a.cols(), &b, &mut batched,
            );
            let naive = a.matmul(&b.transposed());
            for i in 0..a.rows() {
                for j in 0..b.rows() {
                    let (x, y) = (batched[i * b.rows() + j], naive.get(i, j));
                    prop_assert!((x - y).abs() < 1e-3 * (1.0 + y.abs()),
                        "({i},{j}): batched {x} vs naive {y}");
                }
            }
        }

        /// The batched kernel is bit-identical to per-query GEMV, whatever
        /// the block shape (this is the contract kg-eval's block ranking
        /// relies on for reproducible metrics).
        #[test]
        fn gemm_nt_bit_identical_to_gemv(a in small_mat(4, 8), b in small_mat(29, 8)) {
            let mut batched = vec![0.0f32; a.rows() * b.rows()];
            kg_linalg::gemm::gemm_nt_with(
                KernelPolicy::Exact, a.as_slice(), a.rows(), a.cols(), &b, &mut batched,
            );
            let mut row = vec![0.0f32; b.rows()];
            for i in 0..a.rows() {
                b.gemv(a.row(i), &mut row);
                prop_assert_eq!(&batched[i * b.rows()..(i + 1) * b.rows()], row.as_slice());
            }
        }

        /// The row-range shard kernel agrees with the naive scalar dot loop
        /// for any shard placement (NaN-free inputs).
        #[test]
        fn gemm_nt_rows_matches_naive_dots(
            a in small_mat(4, 8),
            b in small_mat(37, 8),
            lo in 0usize..=37,
            hi in 0usize..=37,
        ) {
            let (j0, j1) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            let width = j1 - j0;
            let mut shard = vec![0.0f32; a.rows() * width];
            kg_linalg::gemm::gemm_nt_rows_slice_with(
                KernelPolicy::Exact,
                a.as_slice(),
                a.rows(),
                a.cols(),
                b.as_slice(),
                b.rows(),
                j0..j1,
                &mut shard,
            );
            for i in 0..a.rows() {
                for j in j0..j1 {
                    let mut acc = 0.0f32;
                    for c in 0..a.cols() {
                        acc += a.get(i, c) * b.get(j, c);
                    }
                    let got = shard[i * width + (j - j0)];
                    prop_assert!((got - acc).abs() < 1e-3 * (1.0 + acc.abs()),
                        "({i},{j}): shard {got} vs naive {acc}");
                }
            }
        }

        /// Shard blocks are bit-identical column slices of the full-table
        /// kernel — the contract that lets sharded ranking merge counts
        /// without changing a single score byte.
        #[test]
        fn gemm_nt_rows_bit_identical_to_full_kernel_slice(
            a in small_mat(3, 8),
            b in small_mat(41, 8),
            lo in 0usize..=41,
            hi in 0usize..=41,
        ) {
            let (j0, j1) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            let n = b.rows();
            let mut full = vec![0.0f32; a.rows() * n];
            kg_linalg::gemm::gemm_nt_with(
                KernelPolicy::Exact, a.as_slice(), a.rows(), a.cols(), &b, &mut full,
            );
            let width = j1 - j0;
            let mut shard = vec![0.0f32; a.rows() * width];
            kg_linalg::gemm::gemm_nt_rows_slice_with(
                KernelPolicy::Exact,
                a.as_slice(),
                a.rows(),
                a.cols(),
                b.as_slice(),
                b.rows(),
                j0..j1,
                &mut shard,
            );
            for i in 0..a.rows() {
                prop_assert_eq!(
                    &shard[i * width..(i + 1) * width],
                    &full[i * n + j0..i * n + j1],
                    "row {} shard {}..{}", i, j0, j1
                );
            }
        }

        /// Batched transposed accumulation is bit-identical to row-by-row
        /// `gemv_t` (the training path's backward kernel).
        #[test]
        fn gemm_acc_t_bit_identical_to_gemv_t(s in small_mat(3, 23), b in small_mat(23, 6)) {
            let mut batched = vec![0.0f32; s.rows() * b.cols()];
            kg_linalg::gemm::gemm_acc_t_with(
                KernelPolicy::Exact, s.as_slice(), s.rows(), &b, &mut batched,
            );
            let mut row = vec![0.0f32; b.cols()];
            for i in 0..s.rows() {
                b.gemv_t(s.row(i), &mut row);
                prop_assert_eq!(&batched[i * b.cols()..(i + 1) * b.cols()], row.as_slice());
            }
        }
    }

    proptest! {
        #[test]
        fn transpose_is_involutive(m in small_mat(3, 5)) {
            prop_assert_eq!(m.transposed().transposed(), m);
        }

        #[test]
        fn gemv_t_equals_transpose_gemv(m in small_mat(4, 6), x in small_vec(4)) {
            let mut a = vec![0.0f32; 6];
            let mut b = vec![0.0f32; 6];
            m.gemv_t(&x, &mut a);
            m.transposed().gemv(&x, &mut b);
            for i in 0..6 {
                prop_assert!((a[i] - b[i]).abs() < 1e-3);
            }
        }

        #[test]
        fn matmul_is_associative_with_vector(m in small_mat(3, 4), n in small_mat(4, 2), x in small_vec(2)) {
            // (M N) x == M (N x)
            let mn = m.matmul(&n);
            let mut lhs = vec![0.0f32; 3];
            mn.gemv(&x, &mut lhs);
            let mut nx = vec![0.0f32; 4];
            n.gemv(&x, &mut nx);
            let mut rhs = vec![0.0f32; 3];
            m.gemv(&nx, &mut rhs);
            for i in 0..3 {
                prop_assert!((lhs[i] - rhs[i]).abs() < 1e-1, "{} vs {}", lhs[i], rhs[i]);
            }
        }
    }
}
