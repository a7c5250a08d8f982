//! Batched scoring kernels: cache-blocked GEMM variants.
//!
//! The ranking and training hot paths score *blocks* of queries against the
//! whole entity table. Done one query at a time ([`Mat::gemv`]), every query
//! streams the full `n × d` table through the cache; done as a block, a tile
//! of entity rows is loaded once and reused across every query in the block,
//! which is where the batched engine's speedup comes from.
//!
//! **Bit-identity contract.** The kernels compute each output element with
//! exactly the same fused multiply-adds, in exactly the same order, as the
//! per-query kernels they replace:
//!
//! * [`gemm_nt_with`] row `i`, column `j` equals `vecops::dot(a_i, b_j)` —
//!   the same full-length sequential dot product [`Mat::gemv`] performs, so
//!   a batched score block matches per-query GEMV scores bit for bit;
//! * [`gemm_acc_t_with`] row `i` equals [`Mat::gemv_t`] applied to row `i`
//!   of the coefficient block — the same `axpy` accumulation over table
//!   rows in the same row order;
//! * [`rank_update_with`] equals a sequence of [`Mat::ger`] calls.
//!
//! Blocking therefore only reorders *which output is computed when*, never
//! how any single output is computed. The equivalence suite in
//! `kg-eval/tests/batch_equivalence.rs` and the proptests here pin this down.
//!
//! **One spelling per operation.** Every operation has one dispatched
//! entry point, and it takes the [`KernelPolicy`] because the policy can
//! change its result: [`gemm_nt_rows_with`] (the single `A · Bᵀ`
//! dispatch point, over a row range of the table) with its whole-table
//! convenience [`gemm_nt_with`]; [`gemm_acc_t_with`] (the single
//! `Bᵀ · s` dispatch point, against the whole table); and
//! [`rank_update_with`], the rank-`m` outer-product accumulate
//! `D[e] += Σ_k S[k][e] · Q[k]` over a row range of `D` — the dense entity
//! gradient of the multi-class loss, `m` [`Mat::ger`] calls in one pass.
//! Beside each dispatch point sits its portable scalar reference
//! ([`gemm_nt_rows_scalar`], [`gemm_acc_t_scalar`],
//! [`rank_update_scalar`]) because the backend-equivalence tests compare
//! against it. Both policies resolve to the same one of three
//! implementations: that scalar reference, or the FMA kernels at two
//! widths, AVX2 in [`crate::simd::avx2fma`] and AVX-512 in
//! [`crate::simd::avx512fma`] — `KG_FORCE_SCALAR`, or a CPU without FMA,
//! picks the scalar reference. All three operations are one accumulation —
//! `out = init + Σ_t coef_t · table_t`, terms ascending, one fused
//! multiply-add per term, one lane per output — read through different
//! strides, so both widths implement them with **one** register-blocked
//! body (`simd::madd_block_kernels`, stamped once per width); `gemm_nt`
//! reaches it through a transposed tile of 32 (`NT_ROW_TILE`) table rows.
//!
//! Every backend produces the same bytes: the scalar kernels vectorise
//! across *independent outputs*, so the SIMD kernels assign one lane per
//! output — 8 or 16 to a register — and run the same fused chain in each.
//! See [`crate::simd`] for the full contract and resolution table.

use crate::matrix::Mat;
use crate::simd;
use crate::simd::KernelPolicy;
use crate::vecops;

/// Entity-table rows per tile. The tile is transposed once into the
/// thread-local scratch (`NT_ROW_TILE · k` floats — 8 KiB at the search
/// dimension d = 64) and then reused by every query of the block. 32 rows
/// are also the four 8-lane or two 16-lane column vectors one SIMD register
/// tile spans (`simd::madd_block_kernels`), so a full tile is one register
/// tile per group of query rows.
pub(crate) const NT_ROW_TILE: usize = 32;

/// Entity rows the **scalar reference** computes concurrently per query:
/// one auto-vectorisable group. Each row keeps its own strict sequential
/// accumulator (bit-identity); the width buys lane-parallelism across the
/// FP-add latency chain that serialises a lone dot product. The SIMD tiers
/// do not read it — their blocking is the register tile's.
const NT_UNROLL: usize = 8;

thread_local! {
    /// Transposed-tile scratch for the `gemm_nt` kernels, grown on demand
    /// so the steady-state kernel allocates nothing. Shared by every
    /// backend via [`with_tile_scratch`].
    static TILE_SCRATCH: std::cell::RefCell<Vec<f32>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `f` over this thread's transposed-tile scratch, grown to
/// `NT_ROW_TILE · k` floats — the single scratch the scalar and the SIMD
/// `gemm_nt` drivers use, so backends never differ in allocation
/// behaviour.
pub(crate) fn with_tile_scratch<R>(k: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    TILE_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        if scratch.len() < NT_ROW_TILE * k {
            scratch.resize(NT_ROW_TILE * k, 0.0);
        }
        f(&mut scratch[..NT_ROW_TILE * k])
    })
}

/// The shape preconditions every `gemm_nt_rows` backend enforces —
/// defined once so the backends cannot drift in what they accept or in
/// the panic messages the tests pin.
pub(crate) fn check_nt_rows_shapes(
    a: &[f32],
    m: usize,
    k: usize,
    b: &Mat,
    rows: &std::ops::Range<usize>,
    out: &[f32],
) {
    let n = b.rows();
    assert_eq!(b.cols(), k, "gemm_nt: inner dimension mismatch");
    assert_eq!(a.len(), m * k, "gemm_nt: A shape mismatch");
    assert!(
        rows.start <= rows.end && rows.end <= n,
        "gemm_nt: row range {rows:?} out of bounds for {n} table rows"
    );
    assert_eq!(out.len(), m * rows.len(), "gemm_nt: out shape mismatch");
}

/// Transpose table rows `j0..j1` of `bs` (row stride `k`) into the tile:
/// `tile[c·NT_ROW_TILE + u] = B[j0+u][c]`, so the row operands of
/// inner-loop step `c` sit contiguously. Copies only — no arithmetic. This
/// is the scalar reference's form; the SIMD tiers fill the identical
/// layout with `simd::avx2::transpose_tile`.
pub(crate) fn transpose_tile(bs: &[f32], k: usize, j0: usize, j1: usize, tile: &mut [f32]) {
    for u in 0..(j1 - j0) {
        let b_row = &bs[(j0 + u) * k..(j0 + u + 1) * k];
        for (c, &v) in b_row.iter().enumerate() {
            tile[c * NT_ROW_TILE + u] = v;
        }
    }
}

/// `out = A · Bᵀ` against the whole table: `A` is an `m × k` row-major
/// slice of query vectors, `B` the `n × k` entity table, and
/// `out[i·n + j] = ⟨a_i, b_j⟩` — [`gemm_nt_rows_with`] over
/// `0..b.rows()` (see there for the kernel and its contract).
///
/// # Panics
/// Panics when the slice lengths disagree with `m`, `k` and `b`'s shape.
pub fn gemm_nt_with(policy: KernelPolicy, a: &[f32], m: usize, k: usize, b: &Mat, out: &mut [f32]) {
    gemm_nt_rows_with(policy, a, m, k, b, 0..b.rows(), out);
}

/// The single `A · Bᵀ` dispatch point: score the `m × k` row-major query
/// block `a` against the entity rows `rows = j_0..j_1` of the `n × k`
/// table `b`, writing a **shard-local** row-major `m × rows.len()` block:
/// `out[i·w + (j − j_0)] = ⟨a_i, b_j⟩` with `w = rows.len()`. An empty
/// range is a no-op on an empty `out`.
///
/// **Bit-identity.** Each output element is `vecops::dot(a_i, b_j)` — the
/// same fused multiply-adds in the same index order — so a batched score
/// block is bit-identical to scoring query `i` with [`Mat::gemv`]. The
/// kernel is still much faster: a tile of `NT_ROW_TILE` table rows is
/// transposed once (amortised over the whole query block), turning the
/// per-element row operands of one step into contiguous loads, and the
/// SIMD kernels hold a register tile of query rows × 32 table rows across
/// the whole inner dimension — 12 independent accumulator registers (AVX2:
/// 3 rows × 4 `ymm`; AVX-512: 6 rows × 2 `zmm`) where the per-query path is
/// latency-bound on one, and one table load feeding 3 or 6 query rows.
///
/// **Shard property.** This is the kernel behind entity-table sharding:
/// each worker owns a contiguous row range of the table and scores it into
/// its own compact block, so one tile of entity rows stays resident in
/// *that worker's* private cache across the whole query block. Shard
/// boundaries (like tile boundaries) only change which elements are
/// computed where, never their value, so concatenating shard blocks over a
/// partition of `0..n` reproduces the full-table output bit for bit.
///
/// # Panics
/// Panics when `b` is not `k` wide, the slice lengths disagree with `m`,
/// `k` and `rows`, or `rows` is decreasing or exceeds `b.rows()`.
pub fn gemm_nt_rows_with(
    policy: KernelPolicy,
    a: &[f32],
    m: usize,
    k: usize,
    b: &Mat,
    rows: std::ops::Range<usize>,
    out: &mut [f32],
) {
    match policy.resolve() {
        // SAFETY: the SIMD implementations are only ever resolved after
        // runtime feature detection confirmed CPU support.
        #[cfg(target_arch = "x86_64")]
        simd::ResolvedKernel::Avx2Fma => unsafe {
            simd::avx2fma::gemm_nt_rows(a, m, k, b, rows, out)
        },
        #[cfg(target_arch = "x86_64")]
        simd::ResolvedKernel::Avx512Fma => unsafe {
            simd::avx512fma::gemm_nt_rows(a, m, k, b, rows, out)
        },
        _ => gemm_nt_rows_scalar(a, m, k, b, rows, out),
    }
}

/// The scalar reference backend of [`gemm_nt_rows_with`], bypassing
/// dispatch. Public for A/B benchmarking and backend-equivalence tests;
/// every byte of `out` equals the dispatched kernel's.
///
/// # Panics
/// Same shape panics as [`gemm_nt_rows_with`].
pub fn gemm_nt_rows_scalar(
    a: &[f32],
    m: usize,
    k: usize,
    b: &Mat,
    rows: std::ops::Range<usize>,
    out: &mut [f32],
) {
    check_nt_rows_shapes(a, m, k, b, &rows, out);
    let width = rows.len();
    with_tile_scratch(k, |tile| {
        fused!(for j0 in rows.clone().step_by(NT_ROW_TILE) {
            let j1 = (j0 + NT_ROW_TILE).min(rows.end);
            let groups = (j1 - j0) / NT_UNROLL;
            transpose_tile(b.as_slice(), k, j0, j1, tile);
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let out_row = &mut out[i * width..(i + 1) * width];
                let col0 = j0 - rows.start;
                for g in 0..groups {
                    // NT_UNROLL independent dot chains sharing each a[c].
                    let mut acc = [0.0f32; NT_UNROLL];
                    let base = g * NT_UNROLL;
                    for (c, &av) in a_row.iter().enumerate() {
                        let lanes = &tile[c * NT_ROW_TILE + base..][..NT_UNROLL];
                        for u in 0..NT_UNROLL {
                            acc[u] = av.mul_add(lanes[u], acc[u]);
                        }
                    }
                    out_row[col0 + base..col0 + base + NT_UNROLL].copy_from_slice(&acc);
                }
                // Ragged tail of the tile: plain dots.
                for j in (j0 + groups * NT_UNROLL)..j1 {
                    out_row[j - rows.start] = vecops::dot_chain(a_row, b.row(j));
                }
            }
        })
    })
}

/// The single `Bᵀ · s` dispatch point, against the whole table: for each
/// of the `m` coefficient rows of `s` (each `n = b.rows()` long), compute
/// `out_i = Bᵀ s_i`, i.e. `out[i·k + c] = Σ_r s[i·n + r] · b[r][c]`,
/// accumulated over table rows `r` ascending from zero — the scalar `axpy`
/// sequence per element, bit-identical to calling [`Mat::gemv_t`] once per
/// row.
///
/// The SIMD kernels keep three (AVX2) or six (AVX-512) coefficient rows ×
/// four column vectors of `out` in registers and walk the table in
/// L1-sized row panels, so `out` is loaded and stored once per panel rather
/// than once per table row; neither blocking changes any element's add
/// order (see `simd::madd_block_kernels`).
///
/// Training splits this kernel by output row, never by table row: each
/// output row depends on its own coefficient row alone, while summing
/// partials over table-row shards would re-order the additions.
///
/// # Panics
/// Panics when the slice lengths disagree with `m` and `b`'s shape.
pub fn gemm_acc_t_with(policy: KernelPolicy, s: &[f32], m: usize, b: &Mat, out: &mut [f32]) {
    match policy.resolve() {
        // SAFETY: the SIMD implementations are only ever resolved after
        // runtime feature detection confirmed CPU support.
        #[cfg(target_arch = "x86_64")]
        simd::ResolvedKernel::Avx2Fma => unsafe { simd::avx2fma::gemm_acc_t(s, m, b, out) },
        #[cfg(target_arch = "x86_64")]
        simd::ResolvedKernel::Avx512Fma => unsafe { simd::avx512fma::gemm_acc_t(s, m, b, out) },
        _ => gemm_acc_t_scalar(s, m, b, out),
    }
}

/// The shape preconditions every `gemm_acc_t` backend enforces — defined
/// once (like [`check_nt_rows_shapes`]) so the backends cannot drift in
/// what they accept or in the panic messages the tests pin.
pub(crate) fn check_acc_t_shapes(s: &[f32], m: usize, n: usize, k: usize, out: &[f32]) {
    assert_eq!(s.len(), m * n, "gemm_acc_t: S shape mismatch");
    assert_eq!(out.len(), m * k, "gemm_acc_t: out shape mismatch");
}

/// The scalar reference backend of [`gemm_acc_t_with`], bypassing
/// dispatch. Public for A/B benchmarking and backend-equivalence tests;
/// every byte of `out` equals the dispatched kernel's.
///
/// # Panics
/// Same shape panics as [`gemm_acc_t_with`].
pub fn gemm_acc_t_scalar(s: &[f32], m: usize, b: &Mat, out: &mut [f32]) {
    let (n, k) = (b.rows(), b.cols());
    check_acc_t_shapes(s, m, n, k, out);
    vecops::zero(out);
    fused!(for r in 0..n {
        for i in 0..m {
            vecops::axpy_chain(s[i * n + r], b.row(r), &mut out[i * k..(i + 1) * k]);
        }
    })
}

/// The shape preconditions every `rank_update` backend enforces — defined
/// once so the backends cannot drift. `rows.end ≤ stride` keeps a
/// coefficient read inside its own term's row.
pub(crate) fn check_rank_update_shapes(
    s: &[f32],
    stride: usize,
    m: usize,
    q: &[f32],
    d_rows: usize,
    dim: usize,
    rows: &std::ops::Range<usize>,
) {
    assert_eq!(s.len(), m * stride, "rank_update: S shape mismatch");
    assert_eq!(q.len(), m * dim, "rank_update: Q shape mismatch");
    assert!(
        rows.start <= rows.end && rows.end <= d_rows && rows.end <= stride,
        "rank_update: row range {rows:?} out of bounds for {d_rows} rows of D, stride {stride}"
    );
}

/// Rank-`m` outer-product accumulate over a row range of `D`:
/// `D[e] += Σ_k S[k][e] · Q[k]` for `e ∈ rows`, where `S[k][e] =
/// s[k·stride + e]` (an `m × stride` row-major coefficient block — the
/// column index is `D`'s row index) and `Q[k] = q[k·dim..(k+1)·dim]`
/// (`dim = d.cols()`). Rows of `D` outside `rows` are untouched.
///
/// **Bit-identity.** Each element of `D[e]` receives terms
/// `k = 0, 1, …, m − 1` in that order, each one fused multiply-add onto
/// the running value — exactly what `m` successive
/// `d.ger(1.0, S[k], Q[k])` calls do to it. The kernel only turns the loop
/// nest inside out: `ger` streams all of `D` once per term, this keeps a
/// tile of `D` in registers across all `m` terms (see
/// `simd::madd_block_kernels`) and so reads and writes `D` once. Because
/// the result per row does not depend on the range it was part of, a
/// caller may split `rows` anywhere, and `k` too — `kg-train`'s
/// `multiclass_block` cuts around its conditioning entities and splits `k`
/// there to inject their own gradients in order, and its training crew
/// splits the entity rows among workers and `k` at each worker's share of
/// the query rows.
///
/// # Panics
/// Panics when `s` is not `m × stride`, `q` is not `m × d.cols()`, or
/// `rows` is decreasing or exceeds `d.rows()` or `stride`.
pub fn rank_update_with(
    policy: KernelPolicy,
    s: &[f32],
    stride: usize,
    m: usize,
    q: &[f32],
    d: &mut Mat,
    rows: std::ops::Range<usize>,
) {
    match policy.resolve() {
        // SAFETY: the SIMD implementations are only ever resolved after
        // runtime feature detection confirmed CPU support.
        #[cfg(target_arch = "x86_64")]
        simd::ResolvedKernel::Avx2Fma => unsafe {
            simd::avx2fma::rank_update(s, stride, m, q, d, rows)
        },
        #[cfg(target_arch = "x86_64")]
        simd::ResolvedKernel::Avx512Fma => unsafe {
            simd::avx512fma::rank_update(s, stride, m, q, d, rows)
        },
        _ => rank_update_scalar(s, stride, m, q, d, rows),
    }
}

/// The scalar reference backend of [`rank_update_with`], bypassing
/// dispatch: per row of `D`, `m` successive `axpy` steps. Every byte of `D`
/// equals the dispatched kernel's.
///
/// # Panics
/// Same shape panics as [`rank_update_with`].
pub fn rank_update_scalar(
    s: &[f32],
    stride: usize,
    m: usize,
    q: &[f32],
    d: &mut Mat,
    rows: std::ops::Range<usize>,
) {
    let dim = d.cols();
    check_rank_update_shapes(s, stride, m, q, d.rows(), dim, &rows);
    fused!(for e in rows {
        let row = d.row_mut(e);
        for k in 0..m {
            vecops::axpy_chain(s[k * stride + e], &q[k * dim..(k + 1) * dim], row);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    fn rand_mat(rng: &mut SeededRng, rows: usize, cols: usize) -> Mat {
        let mut m = Mat::zeros(rows, cols);
        rng.fill_normal(1.0, m.as_mut_slice());
        m
    }

    #[test]
    fn gemm_nt_is_bit_identical_to_per_query_gemv() {
        let mut rng = SeededRng::new(17);
        for (m, n, k) in [(1, 5, 8), (7, 33, 12), (4, 40, 16), (3, 1, 4)] {
            let a = rand_mat(&mut rng, m, k);
            let b = rand_mat(&mut rng, n, k);
            let mut batched = vec![0.0f32; m * n];
            gemm_nt_with(KernelPolicy::Exact, a.as_slice(), m, k, &b, &mut batched);
            let mut per_query = vec![0.0f32; n];
            for i in 0..m {
                b.gemv(a.row(i), &mut per_query);
                assert_eq!(
                    &batched[i * n..(i + 1) * n],
                    per_query.as_slice(),
                    "row {i} differs at shape ({m},{n},{k})"
                );
            }
        }
    }

    #[test]
    fn gemm_nt_crosses_tile_boundaries() {
        let mut rng = SeededRng::new(18);
        // n > NT_ROW_TILE so several tiles are exercised, incl. a ragged one
        let (m, n, k) = (5, NT_ROW_TILE * 2 + 3, 8);
        let a = rand_mat(&mut rng, m, k);
        let b = rand_mat(&mut rng, n, k);
        let mut batched = vec![0.0f32; m * n];
        gemm_nt_with(KernelPolicy::Exact, a.as_slice(), m, k, &b, &mut batched);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(batched[i * n + j], vecops::dot(a.row(i), b.row(j)));
            }
        }
    }

    #[test]
    fn gemm_acc_t_is_bit_identical_to_per_row_gemv_t() {
        let mut rng = SeededRng::new(19);
        // (4, 70, 64): the table spans two SIMD panels, the second ragged.
        for (m, n, k) in [(1, 6, 4), (5, 21, 8), (3, 2, 12), (4, 70, 64)] {
            let s = rand_mat(&mut rng, m, n);
            let b = rand_mat(&mut rng, n, k);
            let mut batched = vec![0.0f32; m * k];
            gemm_acc_t_with(KernelPolicy::Exact, s.as_slice(), m, &b, &mut batched);
            let mut per_row = vec![0.0f32; k];
            for i in 0..m {
                b.gemv_t(s.row(i), &mut per_row);
                assert_eq!(&batched[i * k..(i + 1) * k], per_row.as_slice(), "row {i}");
            }
        }
    }

    #[test]
    fn gemm_nt_rows_concatenates_to_full_kernel() {
        let mut rng = SeededRng::new(20);
        let (m, n, k) = (5, NT_ROW_TILE * 2 + 5, 8);
        let a = rand_mat(&mut rng, m, k);
        let b = rand_mat(&mut rng, n, k);
        let mut full = vec![0.0f32; m * n];
        gemm_nt_with(KernelPolicy::Exact, a.as_slice(), m, k, &b, &mut full);
        // Shard splits that are unaligned with both tile and unroll widths,
        // including a width-0 shard and a ragged final shard.
        for bounds in [vec![0, n], vec![0, 7, 7, 40, n], vec![0, 1, NT_ROW_TILE + 3, n]] {
            for w in bounds.windows(2) {
                let (j0, j1) = (w[0], w[1]);
                let width = j1 - j0;
                let mut shard = vec![0.0f32; m * width];
                gemm_nt_rows_with(KernelPolicy::Exact, a.as_slice(), m, k, &b, j0..j1, &mut shard);
                for i in 0..m {
                    assert_eq!(
                        &shard[i * width..(i + 1) * width],
                        &full[i * n + j0..i * n + j1],
                        "shard {j0}..{j1} row {i} differs from full kernel"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_nt_rows_empty_range_is_noop() {
        let b = Mat::zeros(6, 4);
        let a = vec![0.0f32; 2 * 4];
        let mut out: Vec<f32> = Vec::new();
        gemm_nt_rows_with(KernelPolicy::Exact, &a, 2, 4, &b, 3..3, &mut out);
        gemm_nt_rows_with(KernelPolicy::Exact, &a, 2, 4, &b, 0..0, &mut out);
    }

    #[test]
    fn gemm_nt_rows_narrower_than_unroll_uses_plain_dots() {
        let mut rng = SeededRng::new(21);
        let (m, n, k) = (3, 40, 8);
        let a = rand_mat(&mut rng, m, k);
        let b = rand_mat(&mut rng, n, k);
        // width 3 < NT_UNROLL: the whole shard is the ragged tail
        let (j0, j1) = (17, 20);
        let mut shard = vec![0.0f32; m * 3];
        gemm_nt_rows_with(KernelPolicy::Exact, a.as_slice(), m, k, &b, j0..j1, &mut shard);
        for i in 0..m {
            for j in j0..j1 {
                assert_eq!(shard[i * 3 + (j - j0)], vecops::dot(a.row(i), b.row(j)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "row range")]
    fn gemm_nt_rows_rejects_out_of_bounds_range() {
        let b = Mat::zeros(3, 4);
        let mut out = vec![0.0f32; 2 * 2];
        gemm_nt_rows_with(KernelPolicy::Exact, &[0.0; 8], 2, 4, &b, 2..4, &mut out);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_nt_rejects_bad_shapes() {
        let b = Mat::zeros(3, 4);
        let mut out = vec![0.0f32; 6];
        gemm_nt_with(KernelPolicy::Exact, &[0.0; 10], 2, 5, &b, &mut out);
    }

    /// The dispatched kernels must agree with the scalar reference byte
    /// for byte — on an AVX2 machine this pits the SIMD backend against
    /// scalar across unaligned shapes, ragged shard ranges and NaN/±0.0
    /// payloads; on anything else it degenerates to scalar-vs-scalar and
    /// the proptests in `tests/proptests.rs` carry the cross-backend load.
    #[test]
    fn dispatched_kernels_match_scalar_backend_bit_for_bit() {
        let mut rng = SeededRng::new(99);
        for (m, n, k) in [(1, 5, 3), (7, 33, 12), (5, NT_ROW_TILE * 2 + 3, 17), (3, 70, 64)] {
            let a = rand_mat(&mut rng, m, k);
            let mut b = rand_mat(&mut rng, n, k);
            // Seed awkward payloads: NaN propagates through its own output
            // only, signed zeros must round-trip untouched.
            b.set(0, 0, f32::NAN);
            b.set(n / 2, k / 2, -0.0);
            let mut dispatched = vec![0.0f32; m * n];
            gemm_nt_with(KernelPolicy::Exact, a.as_slice(), m, k, &b, &mut dispatched);
            let mut scalar = vec![0.0f32; m * n];
            gemm_nt_rows_scalar(a.as_slice(), m, k, &b, 0..n, &mut scalar);
            assert_eq!(bits(&dispatched), bits(&scalar), "gemm_nt ({m},{n},{k})");

            // Ragged, unroll-unaligned shard range.
            let (j0, j1) = (1, n - 2);
            let mut shard = vec![0.0f32; m * (j1 - j0)];
            gemm_nt_rows_with(KernelPolicy::Exact, a.as_slice(), m, k, &b, j0..j1, &mut shard);
            let mut shard_scalar = vec![0.0f32; m * (j1 - j0)];
            gemm_nt_rows_scalar(a.as_slice(), m, k, &b, j0..j1, &mut shard_scalar);
            assert_eq!(bits(&shard), bits(&shard_scalar), "gemm_nt_rows ({m},{n},{k})");

            let s = rand_mat(&mut rng, m, n);
            let mut acc = vec![0.0f32; m * k];
            gemm_acc_t_with(KernelPolicy::Exact, s.as_slice(), m, &b, &mut acc);
            let mut acc_scalar = vec![0.0f32; m * k];
            gemm_acc_t_scalar(s.as_slice(), m, &b, &mut acc_scalar);
            assert_eq!(bits(&acc), bits(&acc_scalar), "gemm_acc_t ({m},{n},{k})");
        }
    }

    /// The shared cross-backend comparator (see [`crate::simd::canonical_bits`]).
    fn bits(x: &[f32]) -> Vec<u32> {
        crate::simd::canonical_bits(x)
    }
}
