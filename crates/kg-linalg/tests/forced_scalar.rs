//! The one environment-override test: `KG_FORCE_SCALAR` must pin the
//! scalar backend, so the escape hatch keeps working now that dispatch is
//! policy-driven.
//!
//! Everything else about the dispatch seam (backend-pair byte identity,
//! policy resolution, the f64 bounds and layout invariance) lives in
//! `policy_dispatch.rs` and `fused_chain.rs`, which construct policies
//! directly instead of mutating the environment. Integration tests run in their own process,
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
        simd::ResolvedKernel::Scalar,
        "KG_FORCE_SCALAR must pin the scalar backend regardless of CPU features"
    );
    assert_eq!(
        KernelPolicy::Exact.resolve(),
        simd::ResolvedKernel::Scalar,
        "exact must resolve to scalar under KG_FORCE_SCALAR"
    );

    // And dispatch actually runs the scalar path: byte-identical output on
    // a tile-unaligned shape.
    let mut rng = SeededRng::new(2026);
    let (m, n, k) = (3usize, 29usize, 13usize);
    let mut a = Mat::zeros(m, k);
    rng.fill_normal(1.0, a.as_mut_slice());
    let mut b = Mat::zeros(n, k);
    rng.fill_normal(1.0, b.as_mut_slice());
    b.set(0, 0, f32::NAN);

    let mut reference = vec![0.0f32; m * n];
    gemm::gemm_nt_rows_scalar(a.as_slice(), m, k, &b, 0..n, &mut reference);
    let mut out = vec![0.0f32; m * n];
    gemm::gemm_nt_with(KernelPolicy::Exact, a.as_slice(), m, k, &b, &mut out);
    assert_eq!(
        simd::canonical_bits(&out),
        simd::canonical_bits(&reference),
        "gemm_nt ignored the forced-scalar knob"
    );
}
