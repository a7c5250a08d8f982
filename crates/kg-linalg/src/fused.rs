//! Where every scalar reference's `mul_add` chain runs.
//!
//! Each f32 product element of this crate is one chain of fused
//! multiply-adds in a fixed term order (see [`crate::simd`]). The scalar
//! references write that chain with `f32::mul_add`, which has two
//! lowerings: one FMA instruction in a body compiled with the `fma` target
//! feature, and a call to libm's `fmaf` everywhere else. Both round once,
//! correctly, so they return the same bits — but the call costs ≈ 4.4 ns a
//! term against ≈ 1.0 ns. [`run`] picks the instruction wherever the CPU
//! has FMA, so only a CPU without it pays for the call; every reference
//! reaches it through `fused!`.

/// `fused!(body)`: [`run`] over `body` as an `#[inline(always)]` closure.
/// Only code inlined into [`on_fma`] gets the `fma` feature, and LLVM
/// leaves a large closure out of line (both branches of [`run`] call it),
/// where each `mul_add` is a libm call. Each function `body` calls with a
/// `mul_add` in it must be `#[inline(always)]` too.
macro_rules! fused {
    ($($body:tt)*) => {
        crate::fused::run(#[inline(always)] || { $($body)* })
    };
}

/// `chain()` compiled with the `fma` target feature when the CPU has FMA
/// ([`crate::simd::fma_available`]), else as the baseline target builds it.
/// Call it through `fused!`, which inlines the closure.
#[inline(always)]
pub(crate) fn run<R>(chain: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::fma_available() {
        // SAFETY: FMA support was just detected.
        return unsafe { on_fma(chain) };
    }
    chain()
}

/// `chain()` in a body compiled with the `fma` target feature, so each
/// `mul_add` inlined into it is one FMA instruction.
///
/// # Safety
/// The CPU must support FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
pub(crate) unsafe fn on_fma<R>(chain: impl FnOnce() -> R) -> R {
    chain()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm;
    use crate::simd::{canonical_bits as bits, fma_available};
    use crate::{vecops, KernelPolicy, Mat};
    use proptest::prelude::*;

    /// `1 + 2⁻¹²`, whose square `1 + 2⁻¹¹ + 2⁻²⁴` is not an `f32`: the
    /// chain `x·x + x·(−x)` is `−2⁻²⁴` fused — the second product is never
    /// rounded — and `0` with a separate multiply and add.
    const X: f32 = 1.0 + 1.0 / 4096.0;

    /// Every reference of the definition, and the dispatched kernels under
    /// both policies, return the fused chain's bits on operands whose
    /// unfused chain differs. The shapes (7 query rows, 45 table rows or
    /// columns) leave a tail at every SIMD width and the scalar unroll.
    #[test]
    fn every_reference_returns_the_fused_bits() {
        let fused = X.mul_add(-X, X * X);
        assert_eq!(fused, -1.0 / 16_777_216.0);
        assert_eq!(X * X + X * -X, 0.0, "the operands must tell the two chains apart");
        let same = |got: &[f32], what: &str| {
            assert!(got.iter().all(|v| v.to_bits() == fused.to_bits()), "{what}: {got:?}");
        };

        same(&[vecops::dot(&[X, X], &[X, -X])], "dot");
        same(&[vecops::triple_dot(&[1.0, 1.0], &[X, X], &[X, -X])], "triple_dot");
        let mut y = [X * X; 3];
        vecops::axpy(X, &[-X; 3], &mut y);
        same(&y, "axpy");

        // `m` queries `[X, X]` against `n` table rows `[X, −X]`.
        let (m, n) = (7, 45);
        let a = [X, X].repeat(m);
        let b = Mat::from_vec(n, 2, [X, -X].repeat(n));
        let mut out = vec![0.0f32; n];
        b.gemv(&[X, X], &mut out);
        same(&out, "gemv");
        let mut out = vec![0.0f32; m * n];
        gemm::gemm_nt_rows_scalar(&a, m, 2, &b, 0..n, &mut out);
        same(&out, "gemm_nt_rows_scalar");
        for policy in [KernelPolicy::Exact, KernelPolicy::Fast] {
            gemm::gemm_nt_with(policy, &a, m, 2, &b, &mut out);
            same(&out, &format!("gemm_nt_with({policy:?})"));
        }

        // `m` coefficient rows `[X, X]` against the table rows `X`, `−X`.
        let t = Mat::from_vec(2, n, [vec![X; n], vec![-X; n]].concat());
        let mut out = vec![0.0f32; n];
        t.gemv_t(&[X, X], &mut out);
        same(&out, "gemv_t");
        let mut out = vec![0.0f32; m * n];
        gemm::gemm_acc_t_scalar(&a, m, &t, &mut out);
        same(&out, "gemm_acc_t_scalar");
        for policy in [KernelPolicy::Exact, KernelPolicy::Fast] {
            gemm::gemm_acc_t_with(policy, &a, m, &t, &mut out);
            same(&out, &format!("gemm_acc_t_with({policy:?})"));
        }

        // `D = X·X` everywhere, one term `−X` × `X`.
        let d0 = Mat::filled(m, n, X * X);
        let mut d = d0.clone();
        d.ger(1.0, &[-X; 7], &[X; 45]);
        same(d.as_slice(), "ger");
        let mut d = d0.clone();
        gemm::rank_update_scalar(&[-X; 7], m, 1, &[X; 45], &mut d, 0..m);
        same(d.as_slice(), "rank_update_scalar");
        for policy in [KernelPolicy::Exact, KernelPolicy::Fast] {
            let mut d = d0.clone();
            gemm::rank_update_with(policy, &[-X; 7], m, 1, &[X; 45], &mut d, 0..m);
            same(d.as_slice(), &format!("rank_update_with({policy:?})"));
        }
    }

    /// Codes `0..6` select NaN, ±0.0, the infinities and a subnormal with
    /// `v`'s sign and low mantissa bits; any other code keeps `v`.
    fn payload((code, v): (u32, f32)) -> f32 {
        match code {
            0 => f32::NAN,
            1 => 0.0,
            2 => -0.0,
            3 => f32::INFINITY,
            4 => f32::NEG_INFINITY,
            5 => f32::from_bits(v.to_bits() & 0x807f_ffff | 1),
            _ => v,
        }
    }

    /// `n` floats, about half of them awkward.
    fn awkward(n: usize) -> impl Strategy<Value = Vec<f32>> {
        prop::collection::vec((0u32..12, -4.0f32..4.0), n..n + 1)
            .prop_map(|raw| raw.into_iter().map(payload).collect())
    }

    /// `f` on the FMA body, where the CPU has one.
    fn on_fma_body<R>(f: impl FnOnce() -> R) -> Option<R> {
        #[cfg(target_arch = "x86_64")]
        if fma_available() {
            // SAFETY: FMA support was just detected.
            return Some(unsafe { on_fma(f) });
        }
        let _ = f;
        None
    }

    proptest! {
        /// The FMA-compiled body and the libm `fmaf` fallback of each chain
        /// every reference is built from — a chain called outside
        /// [`on_fma`] is the fallback build — agree bit for bit (NaN where
        /// NaN) on NaN, ±0, ±∞ and subnormal operands.
        #[test]
        fn fma_body_and_libm_fallback_agree(
            a in awkward(64),
            b in awkward(64),
            c in awkward(64),
            alpha in awkward(1),
        ) {
            let dot = vecops::dot_chain(&a, &b);
            let triple = vecops::triple_dot_chain(&a, &b, &c);
            let mut axpy = c.clone();
            vecops::axpy_chain(alpha[0], &a, &mut axpy);
            let mut exp = c.clone();
            for x in &mut exp {
                *x = vecops::exp(8.0 * *x);
            }

            let on_fma = on_fma_body(#[inline(always)] || {
                let mut axpy = c.clone();
                vecops::axpy_chain(alpha[0], &a, &mut axpy);
                let mut exp = c.clone();
                for x in &mut exp {
                    *x = vecops::exp(8.0 * *x);
                }
                (vecops::dot_chain(&a, &b), vecops::triple_dot_chain(&a, &b, &c), axpy, exp)
            });
            if let Some((dot_f, triple_f, axpy_f, exp_f)) = on_fma {
                prop_assert_eq!(bits(&[dot_f]), bits(&[dot]));
                prop_assert_eq!(bits(&[triple_f]), bits(&[triple]));
                prop_assert_eq!(bits(&axpy_f), bits(&axpy));
                prop_assert_eq!(bits(&exp_f), bits(&exp));
            }
        }
    }
}
