//! The one environment-override test: `KG_FORCE_SCALAR` must pin the
//! scalar backend for **every** [`KernelPolicy`] — Exact and Fast alike —
//! so the escape hatch keeps working now that dispatch is policy-driven.
//!
//! Everything else about the dispatch seam (backend-pair byte identity,
//! policy resolution, the relaxed fast tier) lives in `policy_dispatch.rs`
//! and `relaxed_fast.rs`, which construct policies directly instead of
//! mutating the environment. Integration tests run in their own process,
//! so setting the variable here — before any kernel has dispatched — is
//! what latches the backend; everything lives in one `#[test]` because the
//! knob must be set before the first `active_backend()` call anywhere in
//! the process.

use kg_linalg::rng::SeededRng;
use kg_linalg::{gemm, simd, KernelPolicy, Mat};

#[test]
fn forced_scalar_pins_scalar_for_every_policy() {
    // Latch the knob before anything can dispatch. (Safe in edition 2021;
    // this is the only thread that has run yet in this test process.)
    std::env::set_var(simd::FORCE_SCALAR_ENV, "1");
    assert!(simd::force_scalar_requested(), "env knob must read back as set");
    assert_eq!(
        simd::active_backend(),
        simd::Backend::Scalar,
        "KG_FORCE_SCALAR must pin the scalar backend regardless of CPU features"
    );
    assert_eq!(
        KernelPolicy::default_from_env(),
        KernelPolicy::Exact,
        "KG_FORCE_SCALAR implies the exact tier"
    );
    for policy in [KernelPolicy::Exact, KernelPolicy::Fast] {
        assert_eq!(
            policy.resolve(),
            simd::ResolvedKernel::Scalar,
            "{} must resolve to scalar under KG_FORCE_SCALAR",
            policy.name()
        );
    }

    // And dispatch actually runs the scalar path: byte-identical output
    // under both policies on a tile-unaligned shape.
    let mut rng = SeededRng::new(2026);
    let (m, n, k) = (3usize, 29usize, 13usize);
    let mut a = Mat::zeros(m, k);
    rng.fill_normal(1.0, a.as_mut_slice());
    let mut b = Mat::zeros(n, k);
    rng.fill_normal(1.0, b.as_mut_slice());
    b.set(0, 0, f32::NAN);

    let mut reference = vec![0.0f32; m * n];
    gemm::gemm_nt_rows_scalar(a.as_slice(), m, k, &b, 0..n, &mut reference);
    for policy in [KernelPolicy::Exact, KernelPolicy::Fast] {
        let mut out = vec![0.0f32; m * n];
        gemm::gemm_nt_with(policy, a.as_slice(), m, k, &b, &mut out);
        assert_eq!(
            simd::canonical_bits(&out),
            simd::canonical_bits(&reference),
            "gemm_nt under {} ignored the forced-scalar knob",
            policy.name()
        );
    }
}
