//! The dispatch seam, driven through explicit [`KernelPolicy`] values
//! instead of environment mutation: policies are plain data, so every
//! combination is testable concurrently in one ordinary process.
//!
//! * `Exact` must be byte-identical to the scalar reference whatever
//!   backend it resolves to — a broken AVX2 kernel cannot hide on AVX2 CI
//!   machines, and a broken scalar fallback cannot hide either (the
//!   backend-pair test compares them directly).
//! * `Fast` resolves to the same kernel; every element must stay within a
//!   condition-aware error bound of the f64 reference (its equality with
//!   `Exact` and the per-query loops lives in `relaxed_fast.rs`).
//!
//! The one test that *must* mutate the environment stays in
//! `forced_scalar.rs`, alone in its own process.

use kg_linalg::rng::SeededRng;
use kg_linalg::{gemm, simd, vecops, KernelPolicy, Mat};

/// The shared cross-backend comparator: NaNs canonicalised, everything
/// else raw — see [`simd::canonical_bits`] for the contract it encodes.
fn bits(x: &[f32]) -> Vec<u32> {
    simd::canonical_bits(x)
}

/// Shapes unaligned with the 32-row tile, the 8-wide unroll, the register
/// tiles' 2- and 3-row groups and the 8/4-wide compare lanes.
const SHAPES: [(usize, usize, usize); 4] = [(1, 3, 5), (4, 29, 8), (7, 77, 13), (3, 130, 64)];

fn test_matrices(rng: &mut SeededRng, m: usize, n: usize, k: usize) -> (Mat, Mat) {
    let mut a = Mat::zeros(m, k);
    rng.fill_normal(1.0, a.as_mut_slice());
    let mut b = Mat::zeros(n, k);
    rng.fill_normal(1.0, b.as_mut_slice());
    (a, b)
}

/// In a process with no override knobs set, the resolution table is pure
/// arithmetic over the detected CPU features, the same for both policies.
#[test]
fn policy_resolution_follows_cpu_features() {
    // Printed (visible under `--nocapture`) so CI logs record what each
    // tier resolved to on the runner that executed the suite.
    println!(
        "backend={:?} fma={} avx512={} | default_from_env={} → {} | exact → {} | fast → {}",
        simd::active_backend(),
        simd::fma_available(),
        simd::avx512_available(),
        KernelPolicy::default_from_env().name(),
        KernelPolicy::default_from_env().resolve().name(),
        KernelPolicy::Exact.resolve().name(),
        KernelPolicy::Fast.resolve().name(),
    );
    assert_eq!(KernelPolicy::default(), KernelPolicy::Exact, "exact must be the default tier");
    let want = match simd::active_backend() {
        simd::Backend::Scalar => simd::ResolvedKernel::Scalar,
        simd::Backend::Avx2 => {
            assert!(simd::fma_available(), "the AVX2 backend needs FMA");
            simd::ResolvedKernel::Avx2Fma
        }
        simd::Backend::Avx512 => simd::ResolvedKernel::Avx512Fma,
    };
    if !simd::fma_available() {
        assert_eq!(want, simd::ResolvedKernel::Scalar, "no FMA resolves to scalar");
    }
    for policy in [KernelPolicy::Exact, KernelPolicy::Fast] {
        assert_eq!(policy.resolve(), want, "{}", policy.name());
    }
}

/// `Exact` dispatch — whatever backend it resolves to on this machine —
/// must reproduce the scalar reference byte for byte, awkward payloads
/// (NaN, -0.0, infinity) included.
#[test]
fn exact_policy_is_byte_identical_to_scalar_reference() {
    let mut rng = SeededRng::new(2027);
    for (m, n, k) in SHAPES {
        let (a, mut b) = test_matrices(&mut rng, m, n, k);
        b.set(0, 0, f32::NAN);
        b.set(n / 2, k / 2, -0.0);
        b.set(n - 1, 0, f32::INFINITY);

        let mut dispatched = vec![0.0f32; m * n];
        gemm::gemm_nt_with(KernelPolicy::Exact, a.as_slice(), m, k, &b, &mut dispatched);
        let mut scalar = vec![0.0f32; m * n];
        gemm::gemm_nt_rows_scalar(a.as_slice(), m, k, &b, 0..n, &mut scalar);
        assert_eq!(bits(&dispatched), bits(&scalar), "exact gemm_nt diverged from scalar");

        let (j0, j1) = (1, n - 1);
        let mut shard = vec![0.0f32; m * (j1 - j0)];
        gemm::gemm_nt_rows_with(KernelPolicy::Exact, a.as_slice(), m, k, &b, j0..j1, &mut shard);
        let mut shard_scalar = vec![0.0f32; m * (j1 - j0)];
        gemm::gemm_nt_rows_scalar(a.as_slice(), m, k, &b, j0..j1, &mut shard_scalar);
        assert_eq!(bits(&shard), bits(&shard_scalar), "exact gemm_nt_rows diverged from scalar");

        let mut s = Mat::zeros(m, n);
        rng.fill_normal(1.0, s.as_mut_slice());
        let mut acc = vec![0.0f32; m * k];
        gemm::gemm_acc_t_with(KernelPolicy::Exact, s.as_slice(), m, &b, &mut acc);
        let mut acc_scalar = vec![0.0f32; m * k];
        gemm::gemm_acc_t_scalar(s.as_slice(), m, &b, &mut acc_scalar);
        assert_eq!(bits(&acc), bits(&acc_scalar), "exact gemm_acc_t diverged from scalar");
    }
}

/// `Fast` dispatch must stay within a condition-aware bound of the f64
/// reference on every element: `|fast − exact₆₄| ≤ ε · (k + 8) · Σ|aᵢbᵢ|`.
/// The bound scales with the accumulated magnitude, so it holds under
/// cancellation yet still catches wrong-math bugs (those err at the scale
/// of the terms, orders of magnitude past the bound).
#[test]
fn fast_policy_stays_within_condition_aware_bound() {
    let mut rng = SeededRng::new(2028);
    for (m, n, k) in SHAPES {
        let (a, b) = test_matrices(&mut rng, m, n, k);

        let mut fast = vec![0.0f32; m * n];
        gemm::gemm_nt_with(KernelPolicy::Fast, a.as_slice(), m, k, &b, &mut fast);
        for i in 0..m {
            for j in 0..n {
                let mut dot = 0.0f64;
                let mut mag = 0.0f64;
                for c in 0..k {
                    let term = a.as_slice()[i * k + c] as f64 * b.row(j)[c] as f64;
                    dot += term;
                    mag += term.abs();
                }
                let tol = f32::EPSILON as f64 * (k as f64 + 8.0) * mag;
                let err = (fast[i * n + j] as f64 - dot).abs();
                assert!(
                    err <= tol,
                    "fast gemm_nt [{i},{j}] err {err:e} > tol {tol:e} (m={m}, n={n}, k={k})"
                );
            }
        }

        let mut s = Mat::zeros(m, n);
        rng.fill_normal(1.0, s.as_mut_slice());
        let mut acc = vec![0.0f32; m * k];
        gemm::gemm_acc_t_with(KernelPolicy::Fast, s.as_slice(), m, &b, &mut acc);
        for i in 0..m {
            for c in 0..k {
                let mut dot = 0.0f64;
                let mut mag = 0.0f64;
                for j in 0..n {
                    let term = s.as_slice()[i * n + j] as f64 * b.row(j)[c] as f64;
                    dot += term;
                    mag += term.abs();
                }
                let tol = f32::EPSILON as f64 * (n as f64 + 8.0) * mag;
                let err = (acc[i * k + c] as f64 - dot).abs();
                assert!(
                    err <= tol,
                    "fast gemm_acc_t [{i},{c}] err {err:e} > tol {tol:e} (m={m}, n={n}, k={k})"
                );
            }
        }
    }
}

/// The explicit backend pairs — scalar versus the AVX2 kernels — must
/// agree byte for byte wherever the CPU has AVX2 and FMA, including the
/// dispatch-independent `count_cmp`, which carries no policy (and needs
/// AVX2 alone). This is the cross-backend check that makes a
/// silently-broken scalar fallback impossible to miss on AVX2 machines.
#[test]
fn explicit_backend_pairs_agree_byte_for_byte() {
    let mut rng = SeededRng::new(2029);
    for (m, n, k) in SHAPES {
        let (a, mut b) = test_matrices(&mut rng, m, n, k);
        b.set(0, 0, f32::NAN);
        b.set(n - 1, 0, f32::INFINITY);

        let mut scalar = vec![0.0f32; m * n];
        gemm::gemm_nt_rows_scalar(a.as_slice(), m, k, &b, 0..n, &mut scalar);
        let mut s = Mat::zeros(m, n);
        rng.fill_normal(1.0, s.as_mut_slice());
        let mut acc_scalar = vec![0.0f32; m * k];
        gemm::gemm_acc_t_scalar(s.as_slice(), m, &b, &mut acc_scalar);

        #[cfg(target_arch = "x86_64")]
        if simd::avx2_available() && simd::fma_available() {
            let mut explicit = vec![0.0f32; m * n];
            // SAFETY: guarded by runtime AVX2 + FMA detection.
            unsafe { simd::avx2fma::gemm_nt_rows(a.as_slice(), m, k, &b, 0..n, &mut explicit) };
            assert_eq!(bits(&explicit), bits(&scalar), "scalar and AVX2 gemm_nt diverged");

            let mut explicit_acc = vec![0.0f32; m * k];
            // SAFETY: guarded by runtime AVX2 + FMA detection.
            unsafe { simd::avx2fma::gemm_acc_t(s.as_slice(), m, &b, &mut explicit_acc) };
            assert_eq!(
                bits(&explicit_acc),
                bits(&acc_scalar),
                "scalar and AVX2 gemm_acc_t diverged"
            );

            let row = &scalar[..n];
            for t in [0.0f32, -0.0, 1.0, f32::NAN] {
                // SAFETY: guarded by runtime AVX2 detection.
                let counts = unsafe { simd::avx2::count_cmp(row, t) };
                assert_eq!(
                    counts,
                    vecops::count_cmp_scalar(row, t),
                    "scalar and AVX2 count_cmp diverged (threshold {t})"
                );
            }
        }
    }
}
