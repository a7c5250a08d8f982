//! Vector primitives used throughout the training and search code.
//!
//! All functions operate on `f32` slices, panic on length mismatch (length
//! mismatches are programming errors, never data errors), and avoid
//! allocation so they can sit in the innermost training loops.
//!
//! # Which bits the platform libm still defines
//!
//! The softmax's exponential — once per score, the most-called
//! transcendental of a training step — is [`exp`], defined here. Every
//! other transcendental call in the workspace is still the platform
//! libm's:
//!
//! * `ln` in the multi-class cross-entropy (`kg-train`, NNM) and in the
//!   log-sum-exp [`softmax_inplace`] returns feeds only the reported loss
//!   (`final_loss`), never a gradient.
//! * Box–Muller's `ln` / `sin` / `cos` in [`crate::rng`] draw the
//!   synthetic datasets' latent world (`kg-datagen`) and the TPE
//!   baseline's proposals, never a parameter: the initial embeddings are
//!   Xavier-uniform (xoshiro uniform and `sqrt`, both IEEE-exact), so on a
//!   given dataset a trajectory starts from bits this repo defines.
//! * RotatE (`kg-models`) calls `sin` / `cos` per score.
//! * The TPE baseline (`kg-train/src/tpe.rs`) uses `exp` / `ln`.
//!
//! # Provenance of [`exp`]
//!
//! [`exp`] is glibc 2.36's `expf` as built for FMA hardware
//! (`__expf_fma`), which is the public algorithm of ARM's
//! optimized-routines (`e_expf.c`, 32-entry table): it returns the same
//! bits as that libm for every `f32` input. The constants below were read
//! from glibc 2.36's x86-64 `libm.so.6` and can be re-read offline with
//! `objdump -s -j .rodata --start-address=0xadd40
//! --stop-address=0xade88 /lib/x86_64-linux-gnu/libm.so.6` (the table,
//! then the scaled polynomial, `32 / ln 2` and the shift).

/// Dot product `a · b`: from `0.0`, one fused multiply-add per term,
/// `i` ascending — the chain every score of [`crate::gemm`] is.
///
/// # Panics
/// Panics if `a.len() != b.len()`.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    fused!(dot_chain(a, b))
}

/// [`dot`]'s chain, for the bodies `fused!` compiles.
#[inline(always)]
pub(crate) fn dot_chain(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).fold(0.0, |acc, (x, y)| x.mul_add(*y, acc))
}

/// Triple dot product `⟨a, b, c⟩ = Σ_i a_i·b_i·c_i` — the basic building
/// block of every bilinear scoring function (paper, Notations): from
/// `0.0`, per `i` ascending the product `a_i·b_i`, then one fused
/// multiply-add of it and `c_i`.
pub fn triple_dot(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "triple_dot: length mismatch");
    assert_eq!(a.len(), c.len(), "triple_dot: length mismatch");
    fused!(triple_dot_chain(a, b, c))
}

/// [`triple_dot`]'s chain, for the bodies `fused!` compiles.
#[inline(always)]
pub(crate) fn triple_dot_chain(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    a.iter().zip(b).zip(c).fold(0.0, |acc, ((x, y), z)| (x * y).mul_add(*z, acc))
}

/// `y += alpha * x`, each element one fused multiply-add.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    fused!(axpy_chain(alpha, x, y))
}

/// [`axpy`]'s step, for the bodies `fused!` compiles.
#[inline(always)]
pub(crate) fn axpy_chain(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = alpha.mul_add(*xi, *yi);
    }
}

/// `y += alpha * (a ∘ b)` (Hadamard product accumulate) — the gradient of a
/// triple dot product with respect to its third argument.
#[inline]
pub fn hadamard_axpy(alpha: f32, a: &[f32], b: &[f32], y: &mut [f32]) {
    assert_eq!(a.len(), y.len(), "hadamard_axpy: length mismatch");
    assert_eq!(b.len(), y.len(), "hadamard_axpy: length mismatch");
    for i in 0..y.len() {
        y[i] += alpha * a[i] * b[i];
    }
}

/// Scale in place: `x *= alpha`.
#[inline]
pub fn scale(alpha: f32, x: &mut [f32]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Squared L2 norm.
#[inline]
pub fn norm2_sq(x: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for xi in x {
        acc += xi * xi;
    }
    acc
}

/// L2 norm.
#[inline]
pub fn norm2(x: &[f32]) -> f32 {
    norm2_sq(x).sqrt()
}

/// Fill with zeros.
#[inline]
pub fn zero(x: &mut [f32]) {
    for xi in x.iter_mut() {
        *xi = 0.0;
    }
}

/// Accumulator lanes in [`count_cmp`]: four independent integer chains, so
/// the comparison sweep vectorises instead of serialising on one counter.
const CMP_LANES: usize = 4;

/// Branchless comparison counting: `(#elements > threshold, #elements ==
/// threshold)` over the whole slice — the hot sweep of filtered ranking
/// (`rank = 1 + #better + #ties/2`).
///
/// Both comparisons are materialised as `bool as u32` adds into
/// `CMP_LANES` independent accumulators, so there is no data-dependent
/// branch for the predictor to miss on tie-heavy score rows and the loop
/// autovectorises to SIMD compare + subtract masks.
///
/// IEEE semantics are exactly those of the scalar `>` / `==` operators:
/// `+0.0 == -0.0` counts as a tie, and NaN (on either side) counts as
/// neither greater nor equal. The counts are therefore order-independent
/// integers — partial counts over disjoint sub-slices sum to the full-slice
/// counts exactly, which is what lets sharded ranking merge per-shard counts
/// into bit-identical global ranks. Each lane counts into a `u32`, so slices
/// up to `4 · 2³²` elements are exact.
///
/// Dispatches to the explicit AVX2 sweep ([`crate::simd::avx2::count_cmp`]
/// on x86-64) when [`crate::simd::active_backend`] selected a SIMD backend
/// (AVX2 or AVX-512, whose CPUs run AVX2 too) — the counts are identical
/// whatever the backend, because both lane layouts sum the same
/// order-independent integers.
#[inline]
pub fn count_cmp(scores: &[f32], threshold: f32) -> (usize, usize) {
    match crate::simd::active_backend() {
        // SAFETY: both SIMD backends are only ever selected after
        // `is_x86_feature_detected!("avx2")` confirmed CPU support.
        #[cfg(target_arch = "x86_64")]
        crate::simd::ResolvedKernel::Avx2Fma | crate::simd::ResolvedKernel::Avx512Fma => unsafe {
            crate::simd::avx2::count_cmp(scores, threshold)
        },
        _ => count_cmp_scalar(scores, threshold),
    }
}

/// The scalar reference backend of [`count_cmp`], bypassing dispatch.
/// Public for A/B benchmarking and backend-equivalence tests; returns the
/// same counts as the dispatched sweep on every input.
#[inline]
pub fn count_cmp_scalar(scores: &[f32], threshold: f32) -> (usize, usize) {
    let mut gt = [0u32; CMP_LANES];
    let mut eq = [0u32; CMP_LANES];
    let mut chunks = scores.chunks_exact(CMP_LANES);
    for ch in chunks.by_ref() {
        for u in 0..CMP_LANES {
            gt[u] += (ch[u] > threshold) as u32;
            eq[u] += (ch[u] == threshold) as u32;
        }
    }
    for (u, &s) in chunks.remainder().iter().enumerate() {
        gt[u] += (s > threshold) as u32;
        eq[u] += (s == threshold) as u32;
    }
    (gt.iter().map(|&c| c as usize).sum(), eq.iter().map(|&c| c as usize).sum())
}

/// `32 / ln 2`: `x · EXP_INV_LN2_N = k + r` splits `eˣ` into the table
/// entry `2^(k/32)` and a small remainder `r`.
pub(crate) const EXP_INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);

/// `1.5 · 2⁵²`: adding it rounds `k + r` to the integer `k` (ties to even),
/// which then sits in the low mantissa bits of the sum.
pub(crate) const EXP_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);

/// The cubic `2^(r/32) ≈ 1 + C2·r + C1·r² + C0·r³`, coefficients in that
/// `[C0, C1, C2]` order.
pub(crate) const EXP_POLY: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];

/// `2^(i/32)` correctly rounded, minus `i << 47`: adding `k << 47` puts
/// `k / 32`'s integer part into the exponent field.
pub(crate) const EXP_TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// Above this value of an input's bits `>> 20 & 0x7ff` (`|x| ≥ 88` or
/// NaN), [`exp`] takes its special branches before the common path.
pub(crate) const EXP_SPECIAL_TOP: u32 = 0x42a;

/// The exponential `eˣ` this crate defines — glibc's `expf` (see the
/// module docs), bit for bit, on every `f32`. Worst error over
/// `[−87.33, 0]` (the normal results softmax produces) is 0.5016 ulp
/// against the f64 exponential.
///
/// Computed in f64, each fused step a [`f64::mul_add`] (correctly rounded
/// on every platform — one instruction where inlined into an FMA body, as
/// in every softmax body; elsewhere a slower libm `fma` with the same
/// result), in the order glibc's FMA build runs them. `|x| ≥ 88` and NaN
/// go through glibc's branches first:
/// −∞ → +0; NaN and +∞ → `x + x`; above `0x1.62e42ep6` → +∞; below
/// `−0x1.9fe368p6` → +0; below `−0x1.9d1d9ep6` → the smallest subnormal.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    let top = (x.to_bits() >> 20) & 0x7ff;
    if top > EXP_SPECIAL_TOP {
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if top >= 0x7f8 {
            return x + x;
        }
        if x > f32::from_bits(0x42b1_7217) {
            return f32::INFINITY;
        }
        if x < f32::from_bits(0xc2cf_f1b4) {
            return 0.0;
        }
        if x < f32::from_bits(0xc2ce_8ecf) {
            return f32::from_bits(1);
        }
    }
    let [c0, c1, c2] = EXP_POLY;
    let xd = x as f64;
    let kd = EXP_INV_LN2_N.mul_add(xd, EXP_SHIFT);
    let ki = kd.to_bits();
    let kd = kd - EXP_SHIFT;
    let r = EXP_INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(EXP_TAB[(ki & 31) as usize].wrapping_add(ki << 47));
    let z = r.mul_add(c0, c1);
    let r2 = r * r;
    let y = r.mul_add(c2, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

/// Accumulator lanes for [`softmax_inplace`]'s exponential sum — like
/// [`CMP_LANES`], independent chains that vectorise instead of serialising
/// on one `f32` accumulator.
const SOFTMAX_LANES: usize = 4;

/// Numerically-stable in-place softmax. Returns the log-sum-exp so callers
/// can compute a cross-entropy loss without a second pass.
///
/// The result is defined by [`softmax_inplace_scalar`]: the exponential is
/// this crate's [`exp`], not the platform's, and the sum accumulates in
/// `SOFTMAX_LANES` independent lanes folded in a fixed order at the end.
/// That lane sum is the contract — the probabilities differ in the last
/// bits from a naive serial-sum softmax, and every consumer that needs
/// reproducibility (the multiclass losses' reference and block paths, the
/// training crew, NNM) funnels through this one function, so
/// batched-vs-sequential equivalence compares like with like. Do not
/// compare its output against an external serial-sum reference at the bit
/// level.
///
/// Dispatches to the sixteen-lane [`crate::simd::avx512fma::softmax`] when
/// the AVX-512 backend is active, to the eight-lane
/// [`crate::simd::avx2fma::softmax`] when the AVX2 backend is, and runs
/// the scalar definition otherwise. The two vector bodies are one macro
/// body stamped at each width (see [`crate::simd`]). There is no
/// [`crate::KernelPolicy`] to pick: all three return the same bits on
/// every input (NaN payloads aside, as everywhere in [`crate::simd`]).
pub fn softmax_inplace(x: &mut [f32]) -> f32 {
    match crate::simd::active_backend() {
        // SAFETY: the AVX-512 backend is only selected after runtime
        // AVX-512F, AVX2 and FMA detection.
        #[cfg(target_arch = "x86_64")]
        crate::simd::ResolvedKernel::Avx512Fma => unsafe { crate::simd::avx512fma::softmax(x) },
        // SAFETY: the AVX2 backend is only selected after runtime AVX2 and
        // FMA detection.
        #[cfg(target_arch = "x86_64")]
        crate::simd::ResolvedKernel::Avx2Fma => unsafe { crate::simd::avx2fma::softmax(x) },
        _ => softmax_inplace_scalar(x),
    }
}

/// The scalar definition of [`softmax_inplace`], bypassing dispatch: a max
/// fold, [`exp`] of each `x − max` summed into `SOFTMAX_LANES` lanes
/// (element `i` into lane `i mod 4`), the lanes folded left to right, then
/// one multiply by `1 / sum` per element. Public for A/B benchmarking and
/// backend-equivalence tests. Runs on `fused!`'s body, so
/// [`exp`]'s fused steps are FMA instructions wherever the CPU has FMA.
pub fn softmax_inplace_scalar(x: &mut [f32]) -> f32 {
    assert!(!x.is_empty(), "softmax of empty slice");
    fused!({
        let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut lanes = [0.0f32; SOFTMAX_LANES];
        let mut chunks = x.chunks_exact_mut(SOFTMAX_LANES);
        for ch in chunks.by_ref() {
            for u in 0..SOFTMAX_LANES {
                ch[u] = exp(ch[u] - max);
                lanes[u] += ch[u];
            }
        }
        for (u, xi) in chunks.into_remainder().iter_mut().enumerate() {
            *xi = exp(*xi - max);
            lanes[u] += *xi;
        }
        // Fixed left-to-right lane fold: deterministic for every input length.
        let sum = lanes.iter().sum::<f32>();
        let inv = 1.0 / sum;
        for xi in x.iter_mut() {
            *xi *= inv;
        }
        max + sum.ln()
    })
}

/// Mean of a slice; 0.0 for the empty slice.
pub fn mean(x: &[f32]) -> f32 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f32>() / x.len() as f32
    }
}

/// Pearson correlation between two equally-long slices (used to validate the
/// performance predictor, Principle (P1)). Returns 0.0 when either side has
/// zero variance.
pub fn pearson(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "pearson: length mismatch");
    if a.len() < 2 {
        return 0.0;
    }
    let ma = mean(a);
    let mb = mean(b);
    let mut cov = 0.0f32;
    let mut va = 0.0f32;
    let mut vb = 0.0f32;
    for i in 0..a.len() {
        let da = a[i] - ma;
        let db = b[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if va <= f32::EPSILON || vb <= f32::EPSILON {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

/// Spearman rank correlation — the predictor only needs to *rank* candidates
/// correctly (Principle (P1)), so rank correlation is the metric we report.
pub fn spearman(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "spearman: length mismatch");
    let ra = ranks(a);
    let rb = ranks(b);
    pearson(&ra, &rb)
}

/// Fractional ranks (average rank for ties), 1-based.
pub fn ranks(x: &[f32]) -> Vec<f32> {
    let n = x.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| x[i].partial_cmp(&x[j]).unwrap_or(std::cmp::Ordering::Equal));
    let mut out = vec![0.0f32; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && x[idx[j + 1]] == x[idx[i]] {
            j += 1;
        }
        // average 1-based rank over the tie group [i, j]
        let avg = (i + j) as f32 / 2.0 + 1.0;
        for k in i..=j {
            out[idx[k]] = avg;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn triple_dot_matches_manual() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let c = [5.0, 6.0];
        assert_eq!(triple_dot(&a, &b, &c), 1.0 * 3.0 * 5.0 + 2.0 * 4.0 * 6.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = [1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, [7.0, 9.0]);
    }

    #[test]
    fn hadamard_axpy_matches_triple_dot_gradient() {
        // d/dc ⟨a,b,c⟩ = a∘b
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        let mut g = [0.0; 3];
        hadamard_axpy(1.0, &a, &b, &mut g);
        assert_eq!(g, [4.0, 10.0, 18.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let mut x = [1000.0, 1000.0, 1000.0];
        softmax_inplace(&mut x);
        let s: f32 = x.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        for v in x {
            assert!((v - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    /// glibc's special branches, and a few values the common path must
    /// hit within its 0.5016 ulp.
    #[test]
    fn exp_special_branches_and_anchors() {
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert!(exp(f32::NAN).is_nan());
        assert_eq!(exp(88.8), f32::INFINITY);
        assert_eq!(exp(-104.0).to_bits(), 0);
        assert_eq!(exp(-103.5).to_bits(), 1, "the may-underflow branch");
        assert!(exp(88.5).is_finite(), "88 ≤ x ≤ 88.72 falls through to the common path");
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        for x in [-87.0f32, -10.0, -1.0, -1e-3, 0.5, 1.0, 20.0] {
            let want = (x as f64).exp();
            let ulp = f64::from(exp(x).to_bits().abs_diff((want as f32).to_bits()));
            assert!(ulp <= 1.0, "exp({x}) off by {ulp} ulp");
        }
        assert!(exp(-100.0) > 0.0 && exp(-100.0) < f32::MIN_POSITIVE, "a subnormal result");
    }

    #[test]
    fn softmax_returns_logsumexp() {
        let mut x = [0.0, 1.0, 2.0];
        let lse = softmax_inplace(&mut x);
        let expect = (0f32.exp() + 1f32.exp() + 2f32.exp()).ln();
        assert!((lse - expect).abs() < 1e-5);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-6);
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn pearson_zero_variance_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn spearman_is_rank_based() {
        // monotone but non-linear mapping still gives rho = 1
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, 10.0, 100.0, 1000.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ranks_handle_ties() {
        let r = ranks(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    /// Scalar reference for [`count_cmp`] — the branchy loop it replaces.
    fn count_cmp_naive(scores: &[f32], threshold: f32) -> (usize, usize) {
        let mut gt = 0;
        let mut eq = 0;
        for &s in scores {
            if s > threshold {
                gt += 1;
            } else if s == threshold {
                eq += 1;
            }
        }
        (gt, eq)
    }

    #[test]
    fn count_cmp_matches_naive_across_lane_raggedness() {
        // every remainder length 0..CMP_LANES against the naive loop
        for len in 0..13 {
            let scores: Vec<f32> = (0..len).map(|i| (i % 5) as f32 - 2.0).collect();
            for t in [-3.0, -2.0, 0.0, 1.0, 2.5] {
                assert_eq!(count_cmp(&scores, t), count_cmp_naive(&scores, t), "len {len} t {t}");
            }
        }
    }

    #[test]
    fn count_cmp_empty_slice_is_zero() {
        assert_eq!(count_cmp(&[], 0.0), (0, 0));
        assert_eq!(count_cmp(&[], f32::NAN), (0, 0));
    }

    #[test]
    fn count_cmp_signed_zero_ties() {
        // IEEE: +0.0 == -0.0, and neither is greater than the other.
        let scores = [0.0, -0.0, 0.0, -0.0, 1.0];
        assert_eq!(count_cmp(&scores, 0.0), (1, 4));
        assert_eq!(count_cmp(&scores, -0.0), (1, 4));
    }

    #[test]
    fn count_cmp_nan_is_neither_greater_nor_equal() {
        let scores = [f32::NAN, 1.0, f32::NAN, -1.0];
        // NaN elements drop out of both counts
        assert_eq!(count_cmp(&scores, 0.0), (1, 0));
        // a NaN threshold compares false against everything, itself included
        assert_eq!(count_cmp(&scores, f32::NAN), (0, 0));
    }

    #[test]
    fn count_cmp_sub_slice_counts_sum_to_full_counts() {
        let scores: Vec<f32> = (0..37).map(|i| ((i * 7) % 11) as f32 * 0.5).collect();
        let t = 2.5;
        let full = count_cmp(&scores, t);
        for split in [0, 1, 4, 17, 36, 37] {
            let (a, b) = scores.split_at(split);
            let (ga, ea) = count_cmp(a, t);
            let (gb, eb) = count_cmp(b, t);
            assert_eq!((ga + gb, ea + eb), full, "split {split}");
        }
    }

    #[test]
    fn norms() {
        assert_eq!(norm2_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
    }

    /// The dispatched sweep must agree with the scalar backend exactly —
    /// including NaN payloads, signed zeros and every lane-ragged length.
    #[test]
    fn count_cmp_dispatched_matches_scalar_backend() {
        for len in 0..35 {
            let scores: Vec<f32> = (0..len)
                .map(|i| match i % 7 {
                    0 => f32::NAN,
                    1 => 0.0,
                    2 => -0.0,
                    _ => (i % 5) as f32 - 2.0,
                })
                .collect();
            for t in [-2.0, 0.0, -0.0, 1.0, f32::NAN] {
                assert_eq!(
                    count_cmp(&scores, t),
                    count_cmp_scalar(&scores, t),
                    "len {len} threshold {t}"
                );
            }
        }
    }

    #[test]
    fn softmax_lane_sum_is_deterministic_and_close_to_serial() {
        // Lane accumulation reorders the sum, so only closeness against a
        // serial reference is promised — but repeat runs must be exact.
        let base: Vec<f32> = (0..23).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let mut a = base.clone();
        let lse_a = softmax_inplace(&mut a);
        let mut b = base.clone();
        let lse_b = softmax_inplace(&mut b);
        assert_eq!(a, b, "softmax must be deterministic");
        assert_eq!(lse_a, lse_b);
        let max = base.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let serial: f32 = base.iter().map(|v| (v - max).exp()).sum();
        let lse_serial = max + serial.ln();
        assert!((lse_a - lse_serial).abs() < 1e-5, "{lse_a} vs serial {lse_serial}");
    }
}
