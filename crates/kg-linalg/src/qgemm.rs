//! Quantised-integer scoring kernels for the coarse ranking tier.
//!
//! The two-stage ranking path (`kg-eval`) scores every entity through a
//! compact i8 mirror of the f32 entity table, keeps the top-C candidates
//! per query and rescores only the survivors through the bit-identical
//! f32 kernels. This module is the coarse tier's math: i8 dot products
//! and a query-block × entity-rows GEMM over i8 codes, accumulating in
//! **exact i32 integer arithmetic**. The per-row scales that turn an
//! integer dot back into an approximate f32 score live one level up, in
//! `kg-table` — the kernels here never touch a float.
//!
//! **Exactness contract.** Integer addition is associative, so unlike the
//! f32 kernels there is no operation-order freedom to pin down: every
//! backend must return the mathematically exact `⟨a, b⟩` over the i8
//! codes, and SIMD-vs-scalar equality is therefore *bitwise by
//! construction* — any divergence is an outright kernel bug, not a
//! rounding-order artefact. Accumulating in integers (rather than f32)
//! also makes the coarse tier's error analysis exact: the only
//! approximation in a coarse score is the quantisation itself, which is
//! what lets `kg-eval`'s two-stage path certify ranks (see the
//! `kg-table` crate docs for the bound).
//!
//! **Backend dispatch.** The public entry points pick a backend once per
//! process via [`crate::simd::active_backend`] (`KG_FORCE_SCALAR`
//! honoured), the scalar reference stays public as `*_scalar` for A/B
//! benchmarking and equivalence testing, and the explicit AVX2 kernels
//! live in [`crate::simd::avx2`]. Unlike the f32 kernels they take no
//! [`crate::simd::KernelPolicy`]: with associative i32 accumulation there
//! is no rounding order for `Fast` to relax, so no policy could change a
//! result.

use crate::simd;

/// Maximum inner dimension the i8 kernels accept. Each product is at most
/// `127² = 16129`, so an i32 accumulator is exact while
/// `k · 16129 < 2³¹`, i.e. `k ≤ 133 152`; rounded down to a power of two
/// for a bound that is easy to audit. Every kernel asserts it.
pub const I8_DOT_MAX_K: usize = 131_072;

/// The shape preconditions every `gemm_i8_nt_rows` backend enforces —
/// defined once so the backends cannot drift in what they accept or in
/// the panic messages the tests pin.
pub(crate) fn check_i8_nt_rows_shapes(
    a: &[i8],
    m: usize,
    k: usize,
    b: &[i8],
    n: usize,
    rows: &std::ops::Range<usize>,
    out: &[i32],
) {
    assert!(k <= I8_DOT_MAX_K, "gemm_i8_nt: inner dimension {k} exceeds exact-i32 bound");
    assert_eq!(a.len(), m * k, "gemm_i8_nt: A shape mismatch");
    assert_eq!(b.len(), n * k, "gemm_i8_nt: table shape mismatch");
    assert!(
        rows.start <= rows.end && rows.end <= n,
        "gemm_i8_nt: row range {rows:?} out of bounds for {n} table rows"
    );
    assert_eq!(out.len(), m * rows.len(), "gemm_i8_nt: out shape mismatch");
}

/// Exact integer dot product of two i8 code vectors:
/// `Σ_c a[c] · b[c]` in i32.
///
/// # Panics
/// Panics when the lengths differ or exceed [`I8_DOT_MAX_K`].
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    match simd::active_backend() {
        // SAFETY: the AVX2 backend is only ever selected after
        // `is_x86_feature_detected!("avx2")` confirmed CPU support.
        #[cfg(target_arch = "x86_64")]
        simd::Backend::Avx2 => unsafe { simd::avx2::dot_i8(a, b) },
        _ => dot_i8_scalar(a, b),
    }
}

/// The scalar reference backend of [`dot_i8`], bypassing dispatch. Public
/// for A/B benchmarking and backend-equivalence tests; the result is the
/// exact integer sum, so every backend returns the identical i32.
///
/// # Panics
/// Same shape panics as [`dot_i8`].
pub fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8: length mismatch");
    assert!(a.len() <= I8_DOT_MAX_K, "dot_i8: length {} exceeds exact-i32 bound", a.len());
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc += x as i32 * y as i32;
    }
    acc
}

/// Exact integer L1 norm of an i8 code vector: `Σ_c |a[c]|` in u32.
/// This is the per-row ingredient of the two-stage certification bound
/// (`kg-table` stores it per entity row at quantisation time).
///
/// # Panics
/// Panics when the length exceeds [`I8_DOT_MAX_K`].
pub fn l1_i8(a: &[i8]) -> u32 {
    assert!(a.len() <= I8_DOT_MAX_K, "l1_i8: length {} exceeds exact-i32 bound", a.len());
    a.iter().map(|&x| (x as i32).unsigned_abs()).sum()
}

/// `A · Bᵀ` over i8 codes, restricted to a row range: `A` is an `m × k`
/// row-major block of quantised query vectors, `B` the `n × k` quantised
/// entity table; score the query block against only the entity rows
/// `rows = j_0..j_1` of `B`, writing a chunk-local row-major
/// `m × rows.len()` block: `out[i·w + (j − j_0)] = ⟨a_i, b_j⟩` exactly, in
/// i32, with `w = rows.len()`.
///
/// This is the kernel behind the chunked coarse pass: the two-stage
/// ranker walks the entity table in column chunks so the i32 score block
/// stays cache-resident at million-entity scale. Results are exact
/// integers, so chunking cannot change any value. An empty range is a
/// no-op on an empty `out`.
///
/// # Panics
/// Panics when the slice lengths disagree with `m`, `k`, `n` and `rows`,
/// when `rows` is decreasing or exceeds `n`, or when `k` exceeds
/// [`I8_DOT_MAX_K`].
pub fn gemm_i8_nt_rows(
    a: &[i8],
    m: usize,
    k: usize,
    b: &[i8],
    n: usize,
    rows: std::ops::Range<usize>,
    out: &mut [i32],
) {
    match simd::active_backend() {
        // SAFETY: the AVX2 backend is only ever selected after
        // `is_x86_feature_detected!("avx2")` confirmed CPU support.
        #[cfg(target_arch = "x86_64")]
        simd::Backend::Avx2 => unsafe { simd::avx2::gemm_i8_nt_rows(a, m, k, b, n, rows, out) },
        _ => gemm_i8_nt_rows_scalar(a, m, k, b, n, rows, out),
    }
}

/// The scalar reference backend of [`gemm_i8_nt_rows`], bypassing
/// dispatch. Public for A/B benchmarking and backend-equivalence tests.
///
/// # Panics
/// Same shape panics as [`gemm_i8_nt_rows`].
pub fn gemm_i8_nt_rows_scalar(
    a: &[i8],
    m: usize,
    k: usize,
    b: &[i8],
    n: usize,
    rows: std::ops::Range<usize>,
    out: &mut [i32],
) {
    check_i8_nt_rows_shapes(a, m, k, b, n, &rows, out);
    let width = rows.len();
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * width..(i + 1) * width];
        for j in rows.clone() {
            out_row[j - rows.start] = dot_i8_scalar(a_row, &b[j * k..(j + 1) * k]);
        }
    }
}

/// The coarse tier's selection filter: append `base + j` to `out` for
/// every position `j` where the f64 coarse score
/// `(sq · scales[j] as f64) · dots[j] as f64` is `>= thr`.
///
/// This is the two-stage ranker's hot rejection test, hoisted behind the
/// kernel seam so it can run four entities per SIMD step: with the
/// threshold fixed, the overwhelming majority of entities fail it, and
/// the survivors (a superset of the entities that can still enter the
/// top-C buffer — the caller re-checks each against its live threshold)
/// come back as a compact index list.
///
/// **Exactness contract.** Every backend evaluates the *identical* f64
/// expression — the i32→f64 and f32→f64 conversions are exact, the two
/// multiplies round like scalar f64 multiplies lane for lane, and the
/// comparison is IEEE `>=` (false on NaN, so a NaN coarse score — only
/// possible for non-finite scales — is never selected). The output list
/// is therefore byte-identical across backends.
///
/// # Panics
/// Panics when `dots` and `scales` differ in length.
pub fn coarse_sift(dots: &[i32], scales: &[f32], sq: f64, thr: f64, base: u32, out: &mut Vec<u32>) {
    match simd::active_backend() {
        // SAFETY: the AVX2 backend is only ever selected after
        // `is_x86_feature_detected!("avx2")` confirmed CPU support.
        #[cfg(target_arch = "x86_64")]
        simd::Backend::Avx2 => unsafe { simd::avx2::coarse_sift(dots, scales, sq, thr, base, out) },
        _ => coarse_sift_scalar(dots, scales, sq, thr, base, out),
    }
}

/// The scalar reference backend of [`coarse_sift`], bypassing dispatch.
/// Public for A/B benchmarking and backend-equivalence tests.
///
/// # Panics
/// Same shape panics as [`coarse_sift`].
pub fn coarse_sift_scalar(
    dots: &[i32],
    scales: &[f32],
    sq: f64,
    thr: f64,
    base: u32,
    out: &mut Vec<u32>,
) {
    assert_eq!(dots.len(), scales.len(), "coarse_sift: length mismatch");
    for (j, (&d, &s)) in dots.iter().zip(scales.iter()).enumerate() {
        if (sq * s as f64) * d as f64 >= thr {
            out.push(base + j as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random i8 fill with full-range magnitudes.
    fn fill_codes(seed: u64, out: &mut [i8]) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        for v in out.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state as i32 % 128) as i8; // -127..=127
        }
    }

    #[test]
    fn dot_i8_matches_wide_integer_reference() {
        for len in [0usize, 1, 7, 31, 32, 33, 64, 100, 257] {
            let mut a = vec![0i8; len];
            let mut b = vec![0i8; len];
            fill_codes(len as u64 + 1, &mut a);
            fill_codes(len as u64 + 1000, &mut b);
            let wide: i64 = a.iter().zip(&b).map(|(&x, &y)| x as i64 * y as i64).sum();
            assert_eq!(dot_i8(&a, &b) as i64, wide, "len {len}");
            assert_eq!(dot_i8_scalar(&a, &b) as i64, wide, "len {len} (scalar)");
        }
    }

    #[test]
    fn dot_i8_extreme_codes_cannot_overflow() {
        // All-saturated codes at a large k: the worst case the bound allows.
        let k = 4096;
        let a = vec![127i8; k];
        let b = vec![-127i8; k];
        assert_eq!(dot_i8(&a, &b), -(k as i32) * 127 * 127);
    }

    #[test]
    fn gemm_i8_matches_per_pair_dots_and_chunks_concatenate() {
        let (m, n, k) = (5, 77, 13);
        let mut a = vec![0i8; m * k];
        let mut b = vec![0i8; n * k];
        fill_codes(7, &mut a);
        fill_codes(8, &mut b);
        let mut full = vec![0i32; m * n];
        gemm_i8_nt_rows(&a, m, k, &b, n, 0..n, &mut full);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(
                    full[i * n + j],
                    dot_i8_scalar(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]),
                    "({i},{j})"
                );
            }
        }
        // Ragged chunk split reproduces the full kernel exactly.
        for bounds in [vec![0, n], vec![0, 9, 9, 40, n]] {
            for w in bounds.windows(2) {
                let (j0, j1) = (w[0], w[1]);
                let width = j1 - j0;
                let mut chunk = vec![0i32; m * width];
                gemm_i8_nt_rows(&a, m, k, &b, n, j0..j1, &mut chunk);
                for i in 0..m {
                    assert_eq!(
                        &chunk[i * width..(i + 1) * width],
                        &full[i * n + j0..i * n + j1],
                        "chunk {j0}..{j1} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn dispatched_i8_kernels_match_scalar_exactly() {
        for (m, n, k) in
            [(1, 5, 3), (4, 33, 17), (3, 70, 64), (2, 40, 95), (5, 129, 32), (1, 4, 16), (6, 3, 48)]
        {
            let mut a = vec![0i8; m * k];
            let mut b = vec![0i8; n * k];
            fill_codes((m * n * k) as u64, &mut a);
            fill_codes((m + n + k) as u64, &mut b);
            let mut dispatched = vec![0i32; m * n];
            gemm_i8_nt_rows(&a, m, k, &b, n, 0..n, &mut dispatched);
            let mut scalar = vec![0i32; m * n];
            gemm_i8_nt_rows_scalar(&a, m, k, &b, n, 0..n, &mut scalar);
            assert_eq!(dispatched, scalar, "gemm_i8_nt ({m},{n},{k})");
        }
    }

    #[test]
    fn coarse_sift_selects_exactly_the_threshold_passers() {
        let dots: Vec<i32> = (-40..41).map(|x| x * 100).collect();
        let scales: Vec<f32> = (0..dots.len()).map(|j| 0.5 + (j % 5) as f32 * 0.25).collect();
        let (sq, thr, base) = (0.03f64, 11.0f64, 7u32);
        let mut got = Vec::new();
        coarse_sift(&dots, &scales, sq, thr, base, &mut got);
        let want: Vec<u32> = dots
            .iter()
            .zip(&scales)
            .enumerate()
            .filter(|(_, (&d, &s))| (sq * s as f64) * d as f64 >= thr)
            .map(|(j, _)| base + j as u32)
            .collect();
        assert!(!want.is_empty() && want.len() < dots.len(), "test must mix passes and rejects");
        assert_eq!(got, want);
        // -inf threshold selects everything, in index order.
        let mut all = Vec::new();
        coarse_sift(&dots, &scales, sq, f64::NEG_INFINITY, 0, &mut all);
        assert_eq!(all, (0..dots.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn coarse_sift_backends_agree_and_drop_nan_scales() {
        for n in [0usize, 1, 3, 4, 7, 64, 130] {
            let mut dots = vec![0i32; n];
            let mut raw = vec![0i8; n];
            fill_codes(n as u64 + 3, &mut raw);
            for (d, &r) in dots.iter_mut().zip(&raw) {
                *d = r as i32 * 37;
            }
            let mut scales: Vec<f32> = (0..n).map(|j| 0.1 + (j % 9) as f32 * 0.3).collect();
            if n > 2 {
                scales[2] = f32::NAN; // NaN coarse: never selected, no panic.
            }
            let mut dispatched = Vec::new();
            coarse_sift(&dots, &scales, 0.02, -1.5, 10, &mut dispatched);
            let mut scalar = Vec::new();
            coarse_sift_scalar(&dots, &scales, 0.02, -1.5, 10, &mut scalar);
            assert_eq!(dispatched, scalar, "n = {n}");
            if n > 2 {
                assert!(!dispatched.contains(&12), "NaN scale at index 2 must never pass");
            }
        }
    }

    #[test]
    fn l1_i8_counts_magnitudes() {
        assert_eq!(l1_i8(&[]), 0);
        assert_eq!(l1_i8(&[127, -127, 1, -1, 0]), 256);
    }

    #[test]
    #[should_panic(expected = "row range")]
    fn gemm_i8_rejects_out_of_bounds_range() {
        let mut out = vec![0i32; 2];
        gemm_i8_nt_rows(&[0; 8], 2, 4, &[0; 12], 3, 2..4, &mut out);
    }

    #[test]
    #[should_panic(expected = "table shape mismatch")]
    fn gemm_i8_rejects_bad_table_shape() {
        let mut out = vec![0i32; 6];
        gemm_i8_nt_rows(&[0; 8], 2, 4, &[0; 11], 3, 0..3, &mut out);
    }
}
