//! The in-tree exponential and the softmax built on it: the dispatched
//! softmax equals its scalar definition, the eight- and sixteen-lane
//! exponentials equal [`vecops::exp`], the masked tails of both widths
//! write only their slice, and (an ignored, minutes-long sweep)
//! `vecops::exp` equals the host libm's `expf` where that libm is glibc's
//! FMA build.
//!
//! The two widths are one macro body (`softmax_kernels!` in
//! `src/simd.rs`) stamped into `simd::avx2fma` and `simd::avx512fma`.
//! Every SIMD comparison runs each stamp directly under runtime detection,
//! so the `KG_FORCE_SCALAR` pass still cross-checks them.

use kg_linalg::{simd, vecops, SeededRng};

/// The explicit softmax bodies this CPU runs, each over its own copy of
/// `x`: `(name, softmax(x), log-sum-exp)` for the eight-lane AVX2+FMA body
/// and the sixteen-lane AVX-512 body — none without the features.
fn simd_softmaxes(x: &[f32]) -> Vec<(&'static str, Vec<f32>, f32)> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if simd::avx2_available() && simd::fma_available() {
            let mut y = x.to_vec();
            // SAFETY: guarded by runtime AVX2 + FMA detection.
            let lse = unsafe { simd::avx2fma::softmax(&mut y) };
            out.push(("avx2fma", y, lse));
        }
        if simd::avx512_available() {
            let mut y = x.to_vec();
            // SAFETY: guarded by runtime AVX-512 detection.
            let lse = unsafe { simd::avx512fma::softmax(&mut y) };
            out.push(("avx512", y, lse));
        }
    }
    let _ = x;
    out
}

/// The explicit exponentials this CPU runs, each over its own copy of
/// `x`: `(name, exp(x))` for the eight- and sixteen-lane bodies.
fn simd_exps(x: &[f32]) -> Vec<(&'static str, Vec<f32>)> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if simd::avx2_available() && simd::fma_available() {
            let mut y = x.to_vec();
            // SAFETY: guarded by runtime AVX2 + FMA detection.
            unsafe { simd::avx2fma::exp_inplace(&mut y) };
            out.push(("avx2fma", y));
        }
        if simd::avx512_available() {
            let mut y = x.to_vec();
            // SAFETY: guarded by runtime AVX-512 detection.
            unsafe { simd::avx512fma::exp_inplace(&mut y) };
            out.push(("avx512", y));
        }
    }
    let _ = x;
    out
}

/// Score rows of length `n` in the shapes a softmax meets: ordinary
/// scores; a spread past 88 below the max (the lanes that take `exp`'s
/// special branches) through the subnormal-result band
/// `[−103.97, −87.34]`; and rows salted with NaN, ±∞ and ±0.
fn rows(n: usize, rng: &mut SeededRng) -> Vec<Vec<f32>> {
    let mut u = |lo: f64, hi: f64| rng.uniform_range(lo, hi) as f32;
    let ordinary: Vec<f32> = (0..n).map(|_| u(-12.0, 12.0)).collect();
    let wide: Vec<f32> =
        (0..n).map(|i| if i == n / 2 { 7.0 } else { 7.0 - u(0.0, 112.0) }).collect();
    let subnormal: Vec<f32> =
        (0..n).map(|i| if i == 0 { 0.0 } else { -u(87.34, 103.97) }).collect();
    let awkward = [f32::NAN, 0.0, -0.0, f32::NEG_INFINITY, -100.0, -88.0];
    let salted: Vec<f32> = (0..n)
        .map(|i| if i % 5 == 1 { awkward[i % awkward.len()] } else { u(-3.0, 3.0) })
        .collect();
    let mut with_inf = ordinary.clone();
    with_inf[n - 1] = f32::INFINITY;
    let zeros: Vec<f32> = (0..n).map(|i| if i % 2 == 0 { 0.0 } else { -0.0 }).collect();
    vec![ordinary, wide, subnormal, salted, with_inf, zeros, vec![f32::NAN; n]]
}

/// Dispatched `softmax_inplace` == explicit AVX2+FMA body == explicit
/// AVX-512 body == `softmax_inplace_scalar`, outputs and returned
/// log-sum-exp, for every length `1..=67` (each remainder of the 8- and
/// 16-lane bodies and of the 4-lane sum) and the search (700) and training
/// (10 000) table sizes.
#[test]
fn dispatched_softmax_equals_the_scalar_definition() {
    let mut rng = SeededRng::new(23);
    for n in (1..=67).chain([700, 10_000]) {
        for (kind, row) in rows(n, &mut rng).into_iter().enumerate() {
            let mut want = row.clone();
            let lse = vecops::softmax_inplace_scalar(&mut want);
            let mut got = row.clone();
            let got_lse = vecops::softmax_inplace(&mut got);
            let bits = simd::canonical_bits;
            assert_eq!(bits(&got), bits(&want), "n = {n}, row kind {kind}");
            assert_eq!(bits(&[got_lse]), bits(&[lse]), "log-sum-exp, n = {n}, row kind {kind}");
            for (name, explicit, explicit_lse) in simd_softmaxes(&row) {
                assert_eq!(bits(&explicit), bits(&want), "{name}, n = {n}, row kind {kind}");
                assert_eq!(bits(&[explicit_lse]), bits(&[lse]), "{name} lse, n = {n}");
            }
        }
    }
}

/// The eight- and sixteen-lane exponentials against [`vecops::exp`] over
/// `inputs`, in chunks of up to 4 096 so no buffer grows with the sweep. A
/// short chunk is padded with zeros to whole vectors of either width, so
/// every input runs in a full vector; the masked tails are
/// `masked_tails_write_only_the_slice_and_equal_the_definition`'s.
fn assert_simd_exp_matches(inputs: impl Iterator<Item = u32>) {
    let mut chunk = Vec::with_capacity(4096);
    let mut inputs = inputs.peekable();
    while inputs.peek().is_some() {
        chunk.clear();
        chunk.extend(inputs.by_ref().take(4096).map(f32::from_bits));
        chunk.resize(chunk.len().next_multiple_of(16), 0.0);
        let explicit = simd_exps(&chunk);
        if explicit.is_empty() {
            return;
        }
        for (name, got) in explicit {
            for (x, y) in chunk.iter().zip(&got) {
                assert_eq!(
                    simd::canonical_bits(&[*y]),
                    simd::canonical_bits(&[vecops::exp(*x)]),
                    "{name} exp({x:e}) = exp(f32::from_bits({:#010x}))",
                    x.to_bits()
                );
            }
        }
    }
}

/// Every 251st bit pattern of all 2³² (≈ 17 M inputs, every sign,
/// exponent and NaN class), then every pattern in the bands where `exp`
/// switches branch: `[−104, −87]` (subnormal results and both underflow
/// thresholds), `[88, 89]` (the special-branch entry and the overflow
/// threshold), and the infinities.
///
/// Last, the only two inputs in `[−103, 88]` whose result moves when the
/// `r` step's product is rounded before the subtraction (found by
/// enumerating that range). Unfusing any of the other four steps moves no
/// `f32` result there at all: those roundings never reach the output.
#[test]
fn simd_exp_equals_the_definition_on_a_stride_and_the_special_bands() {
    assert_simd_exp_matches((0..=u32::MAX).step_by(251));
    let band = |lo: f32, hi: f32| lo.to_bits()..=hi.to_bits();
    assert_simd_exp_matches(band(-87.0, -104.0));
    assert_simd_exp_matches(band(88.0, 89.0));
    assert_simd_exp_matches([f32::INFINITY, f32::NEG_INFINITY].map(f32::to_bits).into_iter());
    let unfused_r_moves = [0x4202_422f_u32, 0xc27c_65d9];
    assert_simd_exp_matches(unfused_r_moves.into_iter());
    let pinned = unfused_r_moves.map(|b| vecops::exp(f32::from_bits(b)).to_bits());
    assert_eq!(pinned, [0x56fc_9f1c, 0x11fa_2993], "fused r step");
}

/// A stamped width: `(name, exp_inplace, softmax)`.
type Width = (&'static str, unsafe fn(&mut [f32]), unsafe fn(&mut [f32]) -> f32);

/// The stamped widths this CPU runs.
fn explicit_widths() -> Vec<Width> {
    let mut out: Vec<Width> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if simd::avx2_available() && simd::fma_available() {
            out.push(("avx2fma", simd::avx2fma::exp_inplace, simd::avx2fma::softmax));
        }
        if simd::avx512_available() {
            out.push(("avx512fma", simd::avx512fma::exp_inplace, simd::avx512fma::softmax));
        }
    }
    out
}

/// Both widths' `exp_inplace` and `softmax` on `&mut buf[..n]` for every
/// `n` in `1..=33`, so every `n % 8` and `n % 16` tail runs as a masked
/// vector: the signalling-NaN sentinels stored past the slice must keep
/// their bits (any arithmetic on one would quiet it), and every output
/// must equal the definition. Beside an ordinary row, rows put NaN, 89
/// (overflow), −∞ and −100 (underflow) in the last lanes, so the
/// all-lanes scalar fallback runs on a masked vector too.
#[test]
fn masked_tails_write_only_the_slice_and_equal_the_definition() {
    let sentinels: Vec<f32> = (0..16).map(|j| f32::from_bits(0x7fa0_5a00 + j)).collect();
    let specials = [f32::NAN, 89.0, f32::NEG_INFINITY, -100.0];
    let mut rng = SeededRng::new(46);
    for n in 1..=33 {
        let ordinary: Vec<f32> = (0..n).map(|_| rng.uniform_range(-12.0, 12.0) as f32).collect();
        let mut rows = vec![ordinary.clone()];
        for special in specials {
            rows.push(ordinary.clone());
            rows.last_mut().unwrap()[n - 1] = special;
        }
        let mut all = ordinary.clone();
        for (x, special) in all.iter_mut().rev().zip(specials) {
            *x = special;
        }
        rows.push(all);
        for (kind, row) in rows.iter().enumerate() {
            let want_exp: Vec<f32> = row.iter().map(|&x| vecops::exp(x)).collect();
            let mut want_softmax = row.clone();
            let want_lse = vecops::softmax_inplace_scalar(&mut want_softmax);
            for (name, exp_inplace, softmax) in explicit_widths() {
                let mut buf = [row.as_slice(), &sentinels].concat();
                // SAFETY: each width is listed only under runtime detection
                // of its target features.
                unsafe { exp_inplace(&mut buf[..n]) };
                let bits = simd::canonical_bits;
                assert_eq!(bits(&buf[..n]), bits(&want_exp), "{name} exp, n = {n}, kind {kind}");
                let past = |buf: &[f32]| buf[n..].iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let want_past: Vec<u32> = sentinels.iter().map(|x| x.to_bits()).collect();
                assert_eq!(past(&buf), want_past, "{name} exp wrote past n = {n}, kind {kind}");
                buf[..n].copy_from_slice(row);
                // SAFETY: as above.
                let lse = unsafe { softmax(&mut buf[..n]) };
                assert_eq!(bits(&buf[..n]), bits(&want_softmax), "{name}, n = {n}, kind {kind}");
                assert_eq!(bits(&[lse]), bits(&[want_lse]), "{name} lse, n = {n}, kind {kind}");
                assert_eq!(past(&buf), want_past, "{name} softmax wrote past n = {n}, kind {kind}");
            }
        }
    }
}

/// `vecops::exp` returns the host libm's bits on every `f32` where that
/// libm's `expf` is glibc's FMA build, which its x86-64 library selects at
/// load time on FMA hardware (checked against glibc 2.36). ≈ 2.5 min in
/// release on one core:
/// `cargo test --release -p kg-linalg --test exp -- --ignored`.
#[test]
#[ignore = "sweeps all 2^32 inputs"]
#[cfg(all(target_os = "linux", target_env = "gnu", target_arch = "x86_64"))]
fn exp_equals_glibc_expf_on_every_f32() {
    if !simd::fma_available() {
        return;
    }
    let mut mismatches = 0u64;
    for bits in 0..=u32::MAX {
        let x = f32::from_bits(bits);
        let (ours, libm) = (vecops::exp(x), x.exp());
        if simd::canonical_bits(&[ours]) != simd::canonical_bits(&[libm]) {
            if mismatches < 8 {
                eprintln!("exp({x:e}) [{bits:#010x}]: {ours:e} vs libm {libm:e}");
            }
            mismatches += 1;
        }
    }
    assert_eq!(mismatches, 0, "vecops::exp differs from libm expf");
}
