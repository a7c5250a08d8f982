//! Explicit-SIMD kernel backends behind an explicit [`KernelPolicy`].
//!
//! The hot kernels of the scoring engine —
//! [`crate::gemm::gemm_nt_rows_slice_with`], the softmax backward's
//! [`crate::gemm::gemm_acc_t_rows_with`] and
//! [`crate::gemm::rank_update_with`],
//! [`crate::vecops::count_cmp`] and the quantised coarse-tier kernels
//! [`crate::qgemm::dot_i8`] / [`crate::qgemm::gemm_i8_nt_rows`] — ship in
//! three implementations: the portable scalar reference (what every
//! consumer ran before this module existed, kept public as `*_scalar`),
//! the bit-identical explicit x86-64 AVX2 kernels in [`avx2`], and the
//! **relaxed-precision** FMA kernels in [`avx2fma`].
//!
//! # The `KernelPolicy` seam
//!
//! Which implementation runs is a **value**, not a process global: every
//! f32 kernel's one dispatched entry point is `*_with(policy, ...)`,
//! taking a [`KernelPolicy`] — there is no policy-less twin. Higher layers
//! carry the policy explicitly — `BatchScratch::with_policy` in kg-models,
//! the `evaluate*_with` evaluators in kg-eval, `Trainer::policy` in
//! kg-train, `KgEngineBuilder::policy` in kg-serve — so two engines in one
//! process can run different tiers.
//!
//! * [`KernelPolicy::Exact`] (the default) keeps today's bit-identity
//!   contract: scalar and AVX2 produce the same bytes (see below).
//! * [`KernelPolicy::Fast`] opts into the [`avx2fma`] kernels — FMA
//!   contraction plus multi-lane accumulator chains — which trade
//!   bit-identity for throughput. `Fast` is **relaxed, not wrong**: it is
//!   gated by a relaxed-equivalence suite (per-score error bounds vs the
//!   exact path plus a measured rank-inversion rate; see
//!   `tests/relaxed_fast.rs`). Where FMA hardware is missing, `Fast`
//!   resolves to the exact kernels — it never changes *what* is computed,
//!   only how tightly the intermediate roundings are pinned.
//!
//! A policy resolves to a concrete implementation via
//! [`KernelPolicy::resolve`]:
//!
//! 1. if the [`FORCE_SCALAR_ENV`] environment variable (`KG_FORCE_SCALAR`)
//!    is set to anything but `0` or the empty string, the scalar backend
//!    is pinned **for every policy** — the override is implemented through
//!    the policy seam ([`active_backend`] latches scalar, so `Fast`
//!    resolves to scalar too);
//! 2. otherwise, if the CPU reports AVX2 at runtime
//!    (`is_x86_feature_detected!("avx2")`), `Exact` resolves to the AVX2
//!    backend, and `Fast` resolves to [`ResolvedKernel::Avx2Fma`] when the
//!    CPU also reports FMA ([`fma_available`]) — falling back to the exact
//!    AVX2 kernels when it does not;
//! 3. on every other CPU and every non-x86-64 architecture, everything
//!    resolves to scalar — there is no compile-time feature to set and no
//!    call-site change for consumers.
//!
//! [`KernelPolicy::default_from_env`] reads the [`POLICY_ENV`] knob
//! (`KG_KERNEL_POLICY=fast`). Library code calls it only where a
//! policy-owning object is constructed (`Trainer::new`, `KgEngineBuilder`'s
//! constructors, `SearchDriver::new`); everything below takes the policy
//! as an argument, and tests, examples and experiment binaries that want
//! the process default pass `KernelPolicy::default_from_env()` themselves
//! — which is how CI's fast-tier job flips them. `KG_FORCE_SCALAR` beats
//! it.
//!
//! # What the bit-identity contract demands of a backend
//!
//! Every backend must compute **each output element with the identical
//! floating-point operations in the identical order** as the scalar
//! reference. The scalar kernels already vectorise *across outputs* — 8
//! independent accumulator chains in `gemm_nt`, per-column accumulators in
//! `gemm_acc_t` and `rank_update`, independent integer lanes in
//! `count_cmp` — so the AVX2
//! kernels simply assign one SIMD lane per output element and use
//! **separate multiply and add intrinsics** (`_mm256_mul_ps` +
//! `_mm256_add_ps`, never an FMA): each lane then performs exactly the
//! scalar reference's rounding sequence and the results match bit for bit
//! — signed zeros, infinities and the canonical NaNs of invalid operations
//! (`0 · ∞`, `∞ − ∞`) included. The single exception is the payload bits
//! of a NaN *propagated from the input*: IEEE 754 lets an operation return
//! either operand's NaN payload, x86 returns the **first** operand's, and
//! LLVM freely commutes the scalar multiply — so propagated payload bits
//! are not pinned by either backend's source code. The contract there is
//! "NaN exactly where the reference has NaN" (element-wise NaN masks
//! coincide; ranking semantics never read NaN payloads), and since model
//! embeddings are NaN-free, every real workload is fully bit-identical.
//! A backend that fuses
//! multiply-add (FMA contraction), reassociates a reduction, or tiles
//! *within* a single output's accumulation chain breaks the contract and
//! lives behind [`KernelPolicy::Fast`] and its relaxed-equivalence gate
//! instead — [`avx2fma`] is exactly such a backend, and the same doorway
//! is what a future BLAS/AVX-512/GPU backend must walk through (see the
//! ROADMAP's "Alternative backends" item).
//!
//! The i8 kernels in [`crate::qgemm`] have it easier: they accumulate in
//! exact i32 integer arithmetic, which is associative, so *any* lane
//! arrangement yields the identical bytes and the contract reduces to
//! "compute the exact integer dot product". They still dispatch through
//! the same seam and honour the same env knob.
//!
//! The equivalence proptests in `tests/proptests.rs` (SIMD vs scalar over
//! unaligned lengths, ragged shard ranges, NaN and ±0.0 payloads) and the
//! forced-scalar seam test in `tests/forced_scalar.rs` pin all of this
//! down; the engine-level suites (`batch_equivalence`, `shard_equivalence`,
//! `serve_equivalence`) inherit the guarantee unchanged.

use std::sync::OnceLock;

/// Environment variable that pins the scalar backend when set (to anything
/// but `0` or the empty string). Read once, at the first kernel dispatch of
/// the process — flipping it later has no effect. Beats [`POLICY_ENV`]:
/// forced-scalar means `Exact` semantics on the scalar reference, whatever
/// policy a caller asks for.
pub const FORCE_SCALAR_ENV: &str = "KG_FORCE_SCALAR";

/// Environment variable that flips the **default** kernel policy (the one
/// [`KernelPolicy::default_from_env`] returns) to [`KernelPolicy::Fast`]
/// when set to `fast` (case-insensitive). Any other value — or
/// [`FORCE_SCALAR_ENV`] being set — keeps the default at
/// [`KernelPolicy::Exact`]. Only *defaults* read this knob (the
/// constructors of policy-owning objects, tests and benches that ask for
/// the process default); a call that names its policy — as every
/// bit-identity suite does with `Exact` — cannot be flipped from the
/// outside.
pub const POLICY_ENV: &str = "KG_KERNEL_POLICY";

/// The precision tier a kernel call runs under — an explicit value threaded
/// through every layer (see the module docs), not a process global.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// The bit-identity contract: every output element computed with the
    /// identical FLOPs in the identical order as the scalar reference.
    /// Scalar and AVX2 backends are byte-equal under this policy.
    #[default]
    Exact,
    /// The relaxed-precision tier: FMA contraction and multi-chain
    /// accumulator reassociation are allowed ([`avx2fma`]). Scores may
    /// differ from `Exact` in the last ULPs; ranks may invert only where
    /// the exact scores were within float noise of a tie (gated by the
    /// relaxed-equivalence suite). Falls back to the `Exact` kernels when
    /// FMA hardware is missing or `KG_FORCE_SCALAR` pins scalar. The
    /// integer (i8) coarse-tier kernels are exact by construction and
    /// ignore this policy entirely.
    Fast,
}

impl KernelPolicy {
    /// Stable lower-case name for logs and bench provenance records.
    pub fn name(self) -> &'static str {
        match self {
            KernelPolicy::Exact => "exact",
            KernelPolicy::Fast => "fast",
        }
    }

    /// The policy process-wide *defaults* start from: [`KernelPolicy::Fast`]
    /// iff [`POLICY_ENV`] is set to `fast` (case-insensitive) and
    /// [`FORCE_SCALAR_ENV`] does not pin scalar; [`KernelPolicy::Exact`]
    /// otherwise. Read every call (policies are plain values — nothing to
    /// latch); used by `Trainer::new`, `KgEngineBuilder`'s constructors and
    /// `SearchDriver::new` — the places a policy-owning object is built —
    /// so `KG_KERNEL_POLICY=fast` flips whole-process engine defaults
    /// without touching any explicit policy choice.
    pub fn default_from_env() -> Self {
        if force_scalar_requested() {
            return KernelPolicy::Exact;
        }
        match std::env::var(POLICY_ENV) {
            Ok(v) if v.eq_ignore_ascii_case("fast") => KernelPolicy::Fast,
            _ => KernelPolicy::Exact,
        }
    }

    /// The concrete kernel implementation this policy runs on this process
    /// ([`active_backend`] latches the `KG_FORCE_SCALAR`/AVX2 decision;
    /// `Fast` additionally requires runtime FMA support, else it degrades
    /// to the exact implementation). This is the single dispatch decision
    /// every f32 `*_with` kernel entry point consults.
    pub fn resolve(self) -> ResolvedKernel {
        match (active_backend(), self) {
            (Backend::Scalar, _) => ResolvedKernel::Scalar,
            (Backend::Avx2, KernelPolicy::Exact) => ResolvedKernel::Avx2,
            (Backend::Avx2, KernelPolicy::Fast) => {
                if fma_available() {
                    ResolvedKernel::Avx2Fma
                } else {
                    ResolvedKernel::Avx2
                }
            }
        }
    }
}

/// The concrete implementation a ([`KernelPolicy`], process) pair resolves
/// to — the provenance record benches and stats report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedKernel {
    /// Portable scalar reference kernels (`*_scalar`). Exact.
    Scalar,
    /// Bit-identical AVX2 kernels ([`avx2`]). Exact.
    Avx2,
    /// Relaxed-precision FMA kernels ([`avx2fma`]). Fast tier only.
    Avx2Fma,
}

impl ResolvedKernel {
    /// Stable lower-case name for logs and bench provenance records.
    pub fn name(self) -> &'static str {
        match self {
            ResolvedKernel::Scalar => "scalar",
            ResolvedKernel::Avx2 => "avx2",
            ResolvedKernel::Avx2Fma => "avx2+fma",
        }
    }
}

/// Which kernel implementation the dispatcher selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar reference kernels (`*_scalar`).
    Scalar,
    /// Explicit AVX2 kernels ([`avx2`]) — x86-64 with runtime-detected
    /// AVX2 only.
    Avx2,
}

impl Backend {
    /// Stable lower-case name for logs and bench provenance records.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

/// Whether [`FORCE_SCALAR_ENV`] currently requests the scalar backend.
/// Unlike [`active_backend`] this reads the environment every call — the
/// dispatch decision itself latches only the value seen at first use.
pub fn force_scalar_requested() -> bool {
    std::env::var_os(FORCE_SCALAR_ENV).is_some_and(|v| !v.is_empty() && v != "0")
}

/// Whether this CPU can run the AVX2 backend (runtime detection; `false`
/// on every non-x86-64 architecture). Independent of the env knob — useful
/// for tests that exercise both backends explicitly in one process.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this CPU can run the FMA kernels of the [`avx2fma`] fast tier
/// (runtime detection; `false` on every non-x86-64 architecture).
/// Independent of the env knobs — [`KernelPolicy::resolve`] combines this
/// with [`active_backend`], and tests/benches use it to decide whether the
/// fast tier actually engaged.
pub fn fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The backend every dispatched kernel call uses, resolved once per
/// process (env knob first, then CPU detection — see the module docs).
pub fn active_backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        if !force_scalar_requested() && avx2_available() {
            Backend::Avx2
        } else {
            Backend::Scalar
        }
    })
}

/// Bit patterns for cross-backend equality checks, with every NaN mapped
/// to one canonical quiet pattern. This *is* the backend equality
/// contract in code: finite values, signed zeros, infinities and
/// invalid-operation indefinites must match raw, while the payload bits
/// of a NaN propagated from a NaN input are the one IEEE detail operand
/// order doesn't pin down (see the module docs) — canonicalising still
/// checks "NaN exactly where the reference has NaN", because a NaN never
/// maps to a non-NaN pattern. Every backend-equivalence suite compares
/// through this one helper so the contract cannot drift between them.
pub fn canonical_bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() }).collect()
}

/// Table bytes one [`crate::gemm::gemm_acc_t_rows_with`] panel covers. A
/// panel is swept once per pair of coefficient rows, so it has to stay in
/// L1 beside the `out` block while `out` is loaded and stored once per
/// panel instead of once per table row. Without the panels the register
/// kernel is *slower* than the streaming loop it replaced on tables that
/// do not fit L2 (10k × 64: every row pair would re-stream 2.5 MB).
#[cfg(target_arch = "x86_64")]
const ACC_T_PANEL_BYTES: usize = 16 * 1024;

/// How one multiply-accumulate block reads its operands:
/// `out[r·out_stride + c] += Σ_{t < len} coef[r·row_step + t·term_step] ·
/// table[t·table_stride + c]`, terms `t` ascending.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct MaddShape {
    /// Coefficient step between adjacent output rows.
    row_step: usize,
    /// Coefficient step between consecutive terms.
    term_step: usize,
    /// Floats between consecutive table rows (one per term).
    table_stride: usize,
    /// Floats between adjacent output rows.
    out_stride: usize,
    /// Number of terms.
    len: usize,
}

/// The softmax backward's two kernels — [`crate::gemm::rank_update_with`]
/// and [`crate::gemm::gemm_acc_t_rows_with`] — are the same accumulation
/// read through different strides (a [`MaddShape`]): one
/// multiply-accumulate step (`madd_ps` / `madd_f32` of the invoking
/// module) per term, one SIMD lane per output element.
///
/// The macro stamps that body — register tile, block driver and the two
/// public kernels — into [`avx2`] (step = multiply then add: `Exact`) and
/// [`avx2fma`] (step = fused: `Fast`), under the `#[target_feature]`
/// attribute it is handed. A tile keeps `R ≤ 2` output rows × `V ≤ 4`
/// column vectors in registers across **all** terms, so `out` is loaded
/// and stored once per tile where the streaming loops it replaces loaded,
/// added and stored it once per term. Each output element still receives
/// the same operations in the same order as the scalar references (zero
/// or previous value first, then terms `0, 1, …`): tiling picks which
/// elements share a loop, never the order inside one element's chain.
#[cfg(target_arch = "x86_64")]
macro_rules! madd_block_kernels {
    (#[$features:meta]) => {
        /// `R` output rows × `V` column vectors, accumulated in registers
        /// over all terms; the slices start at the tile's first element.
        ///
        /// # Safety
        /// The CPU must support the module's target features, and the three
        /// index ranges the tile touches must lie inside their slices:
        /// `coef[r·row_step + t·term_step]`, `table[t·table_stride + c]`
        /// and `out[r·out_stride + c]` for `r < R`, `t < len`, `c < 8·V`
        /// (`len ≥ 1`).
        #[inline]
        #[$features]
        unsafe fn madd_tile<const R: usize, const V: usize>(
            coef: &[f32],
            table: &[f32],
            out: &mut [f32],
            sh: super::MaddShape,
        ) {
            debug_assert!(sh.len >= 1);
            debug_assert!((R - 1) * sh.row_step + (sh.len - 1) * sh.term_step < coef.len());
            debug_assert!((sh.len - 1) * sh.table_stride + 8 * V <= table.len());
            debug_assert!((R - 1) * sh.out_stride + 8 * V <= out.len());
            let (coef, table, out) = (coef.as_ptr(), table.as_ptr(), out.as_mut_ptr());
            let mut acc = [[_mm256_setzero_ps(); V]; R];
            for r in 0..R {
                for v in 0..V {
                    // SAFETY: `r·out_stride + 8v + 8 ≤ out.len()` (precondition).
                    acc[r][v] = _mm256_loadu_ps(out.add(r * sh.out_stride + 8 * v));
                }
            }
            for t in 0..sh.len {
                let mut lanes = [_mm256_setzero_ps(); V];
                for v in 0..V {
                    // SAFETY: `t·table_stride + 8v + 8 ≤ table.len()`.
                    lanes[v] = _mm256_loadu_ps(table.add(t * sh.table_stride + 8 * v));
                }
                for r in 0..R {
                    // SAFETY: `r·row_step + t·term_step < coef.len()`.
                    let c = _mm256_set1_ps(*coef.add(r * sh.row_step + t * sh.term_step));
                    for v in 0..V {
                        acc[r][v] = madd_ps(c, lanes[v], acc[r][v]);
                    }
                }
            }
            for r in 0..R {
                for v in 0..V {
                    // SAFETY: same range as the loads above.
                    _mm256_storeu_ps(out.add(r * sh.out_stride + 8 * v), acc[r][v]);
                }
            }
        }

        /// Every column of `R` adjacent output rows: 4-, 2- and 1-vector
        /// tiles, then the `cols % 8` tail one element at a time.
        ///
        /// # Safety
        /// As [`madd_block`], for `R` output rows.
        #[inline]
        #[$features]
        unsafe fn madd_rows<const R: usize>(
            coef: &[f32],
            table: &[f32],
            out: &mut [f32],
            sh: super::MaddShape,
            cols: usize,
        ) {
            let mut c = 0;
            // SAFETY (all three loops): the caller's ranges hold for every
            // column `< cols`, and each tile covers `c .. c + 8·V ≤ cols`.
            while c + 32 <= cols {
                madd_tile::<R, 4>(coef, &table[c..], &mut out[c..], sh);
                c += 32;
            }
            while c + 16 <= cols {
                madd_tile::<R, 2>(coef, &table[c..], &mut out[c..], sh);
                c += 16;
            }
            while c + 8 <= cols {
                madd_tile::<R, 1>(coef, &table[c..], &mut out[c..], sh);
                c += 8;
            }
            for r in 0..R {
                for c in c..cols {
                    let mut acc = out[r * sh.out_stride + c];
                    for t in 0..sh.len {
                        let coeff = coef[r * sh.row_step + t * sh.term_step];
                        acc = madd_f32(coeff, table[t * sh.table_stride + c], acc);
                    }
                    out[r * sh.out_stride + c] = acc;
                }
            }
        }

        /// The [`super::MaddShape`] accumulation for output rows
        /// `r < n_rows` and columns `c < cols` — output rows in pairs, a
        /// last odd row alone.
        ///
        /// # Safety
        /// The CPU must support the module's target features. The index
        /// ranges are checked here (`assert!`), so any slices are sound.
        #[$features]
        unsafe fn madd_block(
            coef: &[f32],
            table: &[f32],
            out: &mut [f32],
            sh: super::MaddShape,
            n_rows: usize,
            cols: usize,
        ) {
            if n_rows == 0 || sh.len == 0 || cols == 0 {
                return;
            }
            // Every index a tile forms is bounded by one of these maxima.
            assert!((n_rows - 1) * sh.row_step + (sh.len - 1) * sh.term_step < coef.len());
            assert!((sh.len - 1) * sh.table_stride + cols <= table.len());
            assert!((n_rows - 1) * sh.out_stride + cols <= out.len());
            let mut r = 0;
            while r < n_rows {
                let (cf, o) = (&coef[r * sh.row_step..], &mut out[r * sh.out_stride..]);
                // SAFETY: rows `r` (and `r + 1`) `< n_rows` are inside the
                // ranges asserted above, for every column and term.
                if r + 2 <= n_rows {
                    madd_rows::<2>(cf, table, o, sh, cols);
                } else {
                    madd_rows::<1>(cf, table, o, sh, cols);
                }
                r += 2;
            }
        }

        /// This tier's [`crate::gemm::rank_update_with`]: gradient rows in
        /// pairs, the whole `m`-term sum of a tile in registers, the
        /// coefficient of row `e` in term `k` read at `s[k·stride + e]`.
        /// Per element the chain is the scalar reference's — the row's
        /// previous value, then terms `k = 0, 1, …` in order.
        ///
        /// # Safety
        /// The CPU must support the module's target features.
        ///
        /// # Panics
        /// Same shape panics as [`crate::gemm::rank_update_with`].
        #[$features]
        pub unsafe fn rank_update(
            s: &[f32],
            stride: usize,
            m: usize,
            q: &[f32],
            d: &mut crate::matrix::Mat,
            rows: std::ops::Range<usize>,
        ) {
            let dim = d.cols();
            crate::gemm::check_rank_update_shapes(s, stride, m, q, d.rows(), dim, &rows);
            if rows.is_empty() || m == 0 {
                return;
            }
            let shape = super::MaddShape {
                row_step: 1,
                term_step: stride,
                table_stride: dim,
                out_stride: dim,
                len: m,
            };
            // SAFETY: the shape check bounds every coefficient, query and
            // gradient index; `madd_block` re-asserts the ranges it uses.
            madd_block(
                &s[rows.start..],
                q,
                &mut d.as_mut_slice()[rows.start * dim..],
                shape,
                rows.len(),
                dim,
            );
        }

        /// This tier's [`crate::gemm::gemm_acc_t_rows_with`]: `out` zeroed,
        /// then the shard's table rows walked in panels of
        /// `ACC_T_PANEL_BYTES`, coefficient rows in pairs, so `out` moves
        /// through registers once per panel. Per element: `0`, then table
        /// rows `r ∈ rows` ascending — the scalar `axpy` sequence.
        ///
        /// # Safety
        /// The CPU must support the module's target features.
        ///
        /// # Panics
        /// Same shape panics as [`crate::gemm::gemm_acc_t_rows_with`].
        #[$features]
        pub unsafe fn gemm_acc_t_rows(
            s: &[f32],
            m: usize,
            b: &crate::matrix::Mat,
            rows: std::ops::Range<usize>,
            out: &mut [f32],
        ) {
            let k = b.cols();
            crate::gemm::check_acc_t_rows_shapes(s, m, b.rows(), k, &rows, out);
            vecops::zero(out);
            if m == 0 || k == 0 {
                return;
            }
            let panel = (super::ACC_T_PANEL_BYTES / (4 * k)).max(1);
            let mut p0 = rows.start;
            while p0 < rows.end {
                let p1 = (p0 + panel).min(rows.end);
                let shape = super::MaddShape {
                    row_step: rows.len(),
                    term_step: 1,
                    table_stride: k,
                    out_stride: k,
                    len: p1 - p0,
                };
                // SAFETY: the shape check bounds the coefficient columns
                // `p0 − rows.start ..`, table rows `p0..p1` and `out`;
                // `madd_block` re-asserts the ranges it uses.
                madd_block(&s[p0 - rows.start..], &b.as_slice()[p0 * k..], out, shape, m, k);
                p0 = p1;
            }
        }
    };
}

/// The explicit AVX2 kernels: one SIMD lane per output element, separate
/// multiply and add (no FMA contraction), scalar ragged tails — every
/// output byte equals the scalar reference's.
///
/// All functions here are `unsafe` for one reason only: the caller must
/// guarantee the CPU supports AVX2 (`#[target_feature]` requirement).
/// The dispatched entry points in [`crate::gemm`] and [`crate::vecops`]
/// establish this via [`active_backend`]; tests may call these directly
/// under an [`avx2_available`] guard. Shape preconditions are asserted
/// exactly as in the scalar kernels.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use crate::gemm::{with_tile_scratch, NT_ROW_TILE, NT_UNROLL};
    use crate::vecops;
    use std::arch::x86_64::*;

    // The gemm_nt microkernel maps the scalar code's NT_UNROLL independent
    // accumulator chains onto the 8 lanes of one `__m256`.
    const _: () = assert!(NT_UNROLL == 8, "AVX2 gemm_nt assumes 8-wide unroll groups");

    /// AVX2 [`crate::gemm::gemm_nt_rows_slice_with`]: lanes = `NT_UNROLL`
    /// entity rows per query, each lane its own strict sequential
    /// accumulator — `acc[u] = acc[u] + a[c] · tile[c][u]` as two separate
    /// rounded operations per step, exactly the scalar chain. The tile
    /// transpose and the ragged tile tail (< 8 rows, plain [`vecops::dot`])
    /// are the scalar code paths verbatim.
    ///
    /// # Safety
    /// The CPU must support AVX2 (see [`super::avx2_available`]).
    ///
    /// # Panics
    /// Same shape panics as [`crate::gemm::gemm_nt_rows_slice_with`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_nt_rows_slice(
        a: &[f32],
        m: usize,
        k: usize,
        bs: &[f32],
        n: usize,
        rows: std::ops::Range<usize>,
        out: &mut [f32],
    ) {
        crate::gemm::check_nt_rows_shapes(a, m, k, bs, n, &rows, out);
        let width = rows.len();
        with_tile_scratch(k, |tile| {
            let mut j0 = rows.start;
            while j0 < rows.end {
                let j1 = (j0 + NT_ROW_TILE).min(rows.end);
                let groups = (j1 - j0) / NT_UNROLL;
                crate::gemm::transpose_tile(bs, k, j0, j1, tile);
                for i in 0..m {
                    let a_row = &a[i * k..(i + 1) * k];
                    let out_row = &mut out[i * width..(i + 1) * width];
                    let col0 = j0 - rows.start;
                    for g in 0..groups {
                        let base = g * NT_UNROLL;
                        // 8 strict accumulator chains, one per lane:
                        // mul then add, never fused.
                        let mut acc = _mm256_setzero_ps();
                        for (c, &av) in a_row.iter().enumerate() {
                            let lanes = _mm256_loadu_ps(tile.as_ptr().add(c * NT_ROW_TILE + base));
                            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(av), lanes));
                        }
                        _mm256_storeu_ps(out_row.as_mut_ptr().add(col0 + base), acc);
                    }
                    // Ragged tail of the tile: plain dots (scalar path).
                    for j in (j0 + groups * NT_UNROLL)..j1 {
                        out_row[j - rows.start] = vecops::dot(a_row, &bs[j * k..(j + 1) * k]);
                    }
                }
                j0 = j1;
            }
        });
    }

    /// One multiply-accumulate step of the `Exact` tier: `acc + a · b` as
    /// two separately rounded operations — the scalar reference's `axpy`
    /// step per lane, never fused.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn madd_ps(a: __m256, b: __m256, acc: __m256) -> __m256 {
        _mm256_add_ps(acc, _mm256_mul_ps(a, b))
    }

    /// [`madd_ps`] for the `dim % 8` column tail: the scalar `y += a · x`.
    ///
    /// # Safety
    /// The CPU must support AVX2 (nothing else: plain f32 arithmetic).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn madd_f32(a: f32, b: f32, acc: f32) -> f32 {
        acc + a * b
    }

    madd_block_kernels!(#[target_feature(enable = "avx2")]);

    /// Exact integer i8 dot product without shape checks: the shared body
    /// of [`dot_i8`] and the [`gemm_i8_nt_rows`] inner loop. 32 codes per
    /// step — each 256-bit load is split into two 128-bit halves,
    /// sign-extended to i16 (`_mm256_cvtepi8_epi16`) and
    /// multiply-accumulated pairwise into i32 lanes (`_mm256_madd_epi16`);
    /// lane sums and the scalar tail fold with ordinary integer adds.
    /// Integer addition is associative, so this is the exact sum — equal
    /// to the scalar reference by construction. Lanes stay exact: each of
    /// the 8 accumulator lanes receives `k/8` products of magnitude
    /// ≤ 127², within i32 for every `k ≤ I8_DOT_MAX_K`.
    ///
    /// # Safety
    /// The CPU must support AVX2, and `a.len() == b.len()` must hold
    /// (callers assert it along with the `I8_DOT_MAX_K` bound).
    #[target_feature(enable = "avx2")]
    unsafe fn dot_i8_body(a: &[i8], b: &[i8], k: usize) -> i32 {
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(b.len(), k);
        let mut acc = _mm256_setzero_si256();
        let chunks = k / 32;
        for c in 0..chunks {
            let av = _mm256_loadu_si256(a.as_ptr().add(c * 32).cast::<__m256i>());
            let bv = _mm256_loadu_si256(b.as_ptr().add(c * 32).cast::<__m256i>());
            let alo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(av));
            let ahi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(av));
            let blo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bv));
            let bhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(bv));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(alo, blo));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(ahi, bhi));
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), acc);
        let mut total: i32 = lanes.iter().sum();
        for c in chunks * 32..k {
            total += *a.get_unchecked(c) as i32 * *b.get_unchecked(c) as i32;
        }
        total
    }

    /// AVX2 [`crate::qgemm::dot_i8`]: exact integer accumulation, so the
    /// result is bitwise-equal to the scalar reference (see
    /// `dot_i8_body` for the lane arrangement and exactness argument).
    ///
    /// # Safety
    /// The CPU must support AVX2 (see [`super::avx2_available`]).
    ///
    /// # Panics
    /// Same shape panics as [`crate::qgemm::dot_i8`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        assert_eq!(a.len(), b.len(), "dot_i8: length mismatch");
        assert!(
            a.len() <= crate::qgemm::I8_DOT_MAX_K,
            "dot_i8: length {} exceeds exact-i32 bound",
            a.len()
        );
        dot_i8_body(a, b, a.len())
    }

    /// Sign-extend i8 codes to i16, 16 at a time (`_mm256_cvtepi8_epi16`),
    /// scalar tail. The i8 GEMM widens both operands **once** up front so
    /// its inner loop is pure load + `madd` — the per-pair sign-extension
    /// shuffles would otherwise saturate the shuffle port and dominate the
    /// kernel at coarse-tier dimensions (k = one cache line).
    ///
    /// # Safety
    /// The CPU must support AVX2, and `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn widen_i8_to_i16(src: &[i8], dst: &mut [i16]) {
        debug_assert_eq!(src.len(), dst.len());
        let n = src.len();
        let wide = n - n % 16;
        let mut c = 0;
        while c < wide {
            let v = _mm_loadu_si128(src.as_ptr().add(c).cast::<__m128i>());
            _mm256_storeu_si256(dst.as_mut_ptr().add(c).cast::<__m256i>(), _mm256_cvtepi8_epi16(v));
            c += 16;
        }
        while c < n {
            *dst.get_unchecked_mut(c) = *src.get_unchecked(c) as i16;
            c += 1;
        }
    }

    /// Entity rows reduced together per reduction in the i8 GEMM: four
    /// i32 dot products collapse through two `hadd` rounds and one
    /// cross-lane add into a single 4-lane store.
    const I8_ROW_GROUP: usize = 4;

    /// AVX2 [`crate::qgemm::gemm_i8_nt_rows`]: both operands are widened
    /// to i16 once (`widen_i8_to_i16` — queries per call, entity rows
    /// per `I8_ROW_GROUP` group, shared across the whole query block),
    /// so the inner loop is two loads, one `_mm256_madd_epi16` and one
    /// add per 16 codes. Four entity rows accumulate side by side and
    /// reduce together: `hadd(acc0,acc1)`, `hadd(acc2,acc3)`, `hadd` of
    /// those two, then the 128-bit halves added — yielding the four dots
    /// in row order for one contiguous store. Every intermediate is an
    /// exact i32 sum of products bounded by `127²·k` (within i32 for all
    /// `k ≤ I8_DOT_MAX_K`), and integer addition is associative, so the
    /// result equals the scalar reference bitwise by construction. Ragged
    /// row and code tails fall back to `dot_i8_body` / scalar products.
    ///
    /// # Safety
    /// The CPU must support AVX2 (see [`super::avx2_available`]).
    ///
    /// # Panics
    /// Same shape panics as [`crate::qgemm::gemm_i8_nt_rows`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_i8_nt_rows(
        a: &[i8],
        m: usize,
        k: usize,
        b: &[i8],
        n: usize,
        rows: std::ops::Range<usize>,
        out: &mut [i32],
    ) {
        crate::qgemm::check_i8_nt_rows_shapes(a, m, k, b, n, &rows, out);
        let width = rows.len();
        let steps = k / 16;
        let k_wide = steps * 16;
        let mut q16 = vec![0i16; m * k];
        widen_i8_to_i16(&a[..m * k], &mut q16);
        let mut b16 = vec![0i16; I8_ROW_GROUP * k];
        let groups = width / I8_ROW_GROUP;
        for g in 0..groups {
            let j0 = rows.start + g * I8_ROW_GROUP;
            widen_i8_to_i16(&b[j0 * k..(j0 + I8_ROW_GROUP) * k], &mut b16);
            for i in 0..m {
                let q_row = q16.as_ptr().add(i * k);
                let mut acc0 = _mm256_setzero_si256();
                let mut acc1 = _mm256_setzero_si256();
                let mut acc2 = _mm256_setzero_si256();
                let mut acc3 = _mm256_setzero_si256();
                for s in 0..steps {
                    let qv = _mm256_loadu_si256(q_row.add(s * 16).cast::<__m256i>());
                    let bp = b16.as_ptr().add(s * 16);
                    let b0 = _mm256_loadu_si256(bp.cast::<__m256i>());
                    let b1 = _mm256_loadu_si256(bp.add(k).cast::<__m256i>());
                    let b2 = _mm256_loadu_si256(bp.add(2 * k).cast::<__m256i>());
                    let b3 = _mm256_loadu_si256(bp.add(3 * k).cast::<__m256i>());
                    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(qv, b0));
                    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(qv, b1));
                    acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(qv, b2));
                    acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(qv, b3));
                }
                // Reduce the four row accumulators to [dot0..dot3]:
                // hadd keeps 128-bit lane locality, the final add folds
                // the upper halves in.
                let t0 = _mm256_hadd_epi32(acc0, acc1);
                let t1 = _mm256_hadd_epi32(acc2, acc3);
                let t2 = _mm256_hadd_epi32(t0, t1);
                let mut sums = [0i32; 4];
                _mm_storeu_si128(
                    sums.as_mut_ptr().cast::<__m128i>(),
                    _mm_add_epi32(_mm256_castsi256_si128(t2), _mm256_extracti128_si256::<1>(t2)),
                );
                let a_row = &a[i * k..(i + 1) * k];
                let out_row = &mut out[i * width..(i + 1) * width];
                for r in 0..I8_ROW_GROUP {
                    let mut total = sums[r];
                    let b_row = &b[(j0 + r) * k..(j0 + r + 1) * k];
                    for c in k_wide..k {
                        total += *a_row.get_unchecked(c) as i32 * *b_row.get_unchecked(c) as i32;
                    }
                    out_row[j0 - rows.start + r] = total;
                }
            }
        }
        // Ragged row tail: per-pair dots.
        for j in (rows.start + groups * I8_ROW_GROUP)..rows.end {
            let b_row = &b[j * k..(j + 1) * k];
            for i in 0..m {
                out[i * width + (j - rows.start)] = dot_i8_body(&a[i * k..(i + 1) * k], b_row, k);
            }
        }
    }

    /// AVX2 [`crate::qgemm::coarse_sift`]: four entities per step — the
    /// i32 dots and f32 scales widen to f64 lanes (exact conversions),
    /// two `_mm256_mul_pd` evaluate `(s_q · s_e) · dot` with scalar f64's
    /// exact rounding (one IEEE multiply per step, lane-wise identical to
    /// the scalar backend), and `_CMP_GE_OQ` is precisely the scalar
    /// `>=` — false on NaN. The common all-reject step costs one branch.
    ///
    /// # Safety
    /// The CPU must support AVX2 (see [`super::avx2_available`]).
    ///
    /// # Panics
    /// Same shape panics as [`crate::qgemm::coarse_sift`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn coarse_sift(
        dots: &[i32],
        scales: &[f32],
        sq: f64,
        thr: f64,
        base: u32,
        out: &mut Vec<u32>,
    ) {
        assert_eq!(dots.len(), scales.len(), "coarse_sift: length mismatch");
        let n = dots.len();
        let sqv = _mm256_set1_pd(sq);
        let thrv = _mm256_set1_pd(thr);
        let wide = n - n % 4;
        let mut j = 0;
        while j < wide {
            let d = _mm256_cvtepi32_pd(_mm_loadu_si128(dots.as_ptr().add(j).cast::<__m128i>()));
            let s = _mm256_cvtps_pd(_mm_loadu_ps(scales.as_ptr().add(j)));
            let coarse = _mm256_mul_pd(_mm256_mul_pd(sqv, s), d);
            let mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(coarse, thrv));
            if mask != 0 {
                for bit in 0..4 {
                    if mask & (1 << bit) != 0 {
                        out.push(base + (j + bit) as u32);
                    }
                }
            }
            j += 4;
        }
        while j < n {
            if (sq * *scales.get_unchecked(j) as f64) * *dots.get_unchecked(j) as f64 >= thr {
                out.push(base + j as u32);
            }
            j += 1;
        }
    }

    /// AVX2 [`crate::vecops::count_cmp`]: 8 floats compared per step with
    /// ordered-quiet predicates (`_CMP_GT_OQ` / `_CMP_EQ_OQ` — the exact
    /// IEEE semantics of the scalar `>` / `==`, so NaN counts as neither
    /// and `+0.0 == -0.0` ties), each all-ones mask subtracted from its
    /// own `u32` lane counter. Counts are order-independent integers, so
    /// the lane arrangement cannot change the result; slices up to
    /// `8 · 2³²` elements are exact.
    ///
    /// # Safety
    /// The CPU must support AVX2 (see [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_cmp(scores: &[f32], threshold: f32) -> (usize, usize) {
        let t = _mm256_set1_ps(threshold);
        let mut gt = _mm256_setzero_si256();
        let mut eq = _mm256_setzero_si256();
        let mut chunks = scores.chunks_exact(8);
        for ch in chunks.by_ref() {
            let v = _mm256_loadu_ps(ch.as_ptr());
            // A true compare is an all-ones lane (-1 as i32): subtracting
            // it increments the lane's counter branchlessly.
            gt = _mm256_sub_epi32(gt, _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GT_OQ>(v, t)));
            eq = _mm256_sub_epi32(eq, _mm256_castps_si256(_mm256_cmp_ps::<_CMP_EQ_OQ>(v, t)));
        }
        let mut gt_lanes = [0u32; 8];
        let mut eq_lanes = [0u32; 8];
        _mm256_storeu_si256(gt_lanes.as_mut_ptr().cast::<__m256i>(), gt);
        _mm256_storeu_si256(eq_lanes.as_mut_ptr().cast::<__m256i>(), eq);
        let mut gt_total: usize = gt_lanes.iter().map(|&c| c as usize).sum();
        let mut eq_total: usize = eq_lanes.iter().map(|&c| c as usize).sum();
        for &s in chunks.remainder() {
            gt_total += (s > threshold) as usize;
            eq_total += (s == threshold) as usize;
        }
        (gt_total, eq_total)
    }
}

/// The relaxed-precision FMA kernels behind [`KernelPolicy::Fast`]: fused
/// multiply-add plus **multiple accumulator chains per output**, folded at
/// the end. Both moves break the bit-identity contract on purpose —
/// contraction skips one rounding per multiply-add, and splitting one
/// output's reduction across four chains reassociates the sum — and both
/// are exactly what buys throughput: the exact kernel's single
/// add-after-add chain is serialised on the FP-add latency (4–5 cycles),
/// while four independent `fmadd` chains keep the FMA pipes full.
///
/// The error these kernels can introduce is classical: each output is a
/// dot product evaluated with ≤ k fused roundings instead of 2k separate
/// ones, under a different association — bounded by `O(k·ε)` relative to
/// the *absolute* sum `Σ|aᵢ·bᵢ|` (not the possibly-cancelled result). The
/// relaxed-equivalence suite (`tests/relaxed_fast.rs`) pins that bound and
/// measures the rank-inversion rate it can cause.
///
/// All functions are `unsafe` for one reason only: the caller must
/// guarantee the CPU supports AVX2 **and** FMA (`#[target_feature]`
/// requirement) — [`KernelPolicy::resolve`] establishes this via
/// [`fma_available`]; tests may call these directly under the same guard.
/// Shape preconditions are asserted exactly as in the exact kernels.
#[cfg(target_arch = "x86_64")]
pub mod avx2fma {
    use crate::gemm::{with_tile_scratch, NT_ROW_TILE, NT_UNROLL};
    use crate::vecops;
    use std::arch::x86_64::*;

    const _: () = assert!(NT_UNROLL == 8, "FMA gemm_nt assumes 8-wide unroll groups");

    /// How many independent accumulator chains each 8-output group runs
    /// over the shared inner dimension. Four chains cover the FMA latency
    /// (~4 cycles) with one fused op in flight per cycle per group.
    const FAST_CHAINS: usize = 4;

    /// Fast-tier [`crate::gemm::gemm_nt_rows_slice_with`]: same tile layout and
    /// ragged tails as the exact kernels, but each 8-output group
    /// accumulates over the inner dimension through `FAST_CHAINS` (4)
    /// independent `_mm256_fmadd_ps` chains (k strided by 4), folded
    /// `(c0+c1)+(c2+c3)` at the end. Groups are walked in pairs sharing
    /// one set of broadcast registers — the kernel is load-port-bound, so
    /// halving the broadcasts (not more chains) is what buys throughput.
    /// Output differs from the exact path only in rounding (see the
    /// module docs).
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (see [`super::fma_available`]).
    ///
    /// # Panics
    /// Same shape panics as [`crate::gemm::gemm_nt_rows_slice_with`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemm_nt_rows_slice(
        a: &[f32],
        m: usize,
        k: usize,
        bs: &[f32],
        n: usize,
        rows: std::ops::Range<usize>,
        out: &mut [f32],
    ) {
        crate::gemm::check_nt_rows_shapes(a, m, k, bs, n, &rows, out);
        let width = rows.len();
        let k_wide = k - k % FAST_CHAINS;
        with_tile_scratch(k, |tile| {
            let mut j0 = rows.start;
            while j0 < rows.end {
                let j1 = (j0 + NT_ROW_TILE).min(rows.end);
                let groups = (j1 - j0) / NT_UNROLL;
                crate::gemm::transpose_tile(bs, k, j0, j1, tile);
                for i in 0..m {
                    let a_row = &a[i * k..(i + 1) * k];
                    let out_row = &mut out[i * width..(i + 1) * width];
                    let col0 = j0 - rows.start;
                    // Paired groups: 16 outputs per pass, one broadcast of
                    // each `a` coefficient feeding both groups' chains.
                    let mut g = 0;
                    while g + 1 < groups {
                        let base = g * NT_UNROLL;
                        let mut a0 = _mm256_setzero_ps();
                        let mut a1 = _mm256_setzero_ps();
                        let mut a2 = _mm256_setzero_ps();
                        let mut a3 = _mm256_setzero_ps();
                        let mut b0 = _mm256_setzero_ps();
                        let mut b1 = _mm256_setzero_ps();
                        let mut b2 = _mm256_setzero_ps();
                        let mut b3 = _mm256_setzero_ps();
                        let mut c = 0;
                        while c < k_wide {
                            let t = tile.as_ptr().add(c * NT_ROW_TILE + base);
                            let w0 = _mm256_set1_ps(*a_row.get_unchecked(c));
                            let w1 = _mm256_set1_ps(*a_row.get_unchecked(c + 1));
                            let w2 = _mm256_set1_ps(*a_row.get_unchecked(c + 2));
                            let w3 = _mm256_set1_ps(*a_row.get_unchecked(c + 3));
                            a0 = _mm256_fmadd_ps(w0, _mm256_loadu_ps(t), a0);
                            b0 = _mm256_fmadd_ps(w0, _mm256_loadu_ps(t.add(8)), b0);
                            a1 = _mm256_fmadd_ps(w1, _mm256_loadu_ps(t.add(NT_ROW_TILE)), a1);
                            b1 = _mm256_fmadd_ps(w1, _mm256_loadu_ps(t.add(NT_ROW_TILE + 8)), b1);
                            a2 = _mm256_fmadd_ps(w2, _mm256_loadu_ps(t.add(2 * NT_ROW_TILE)), a2);
                            b2 = _mm256_fmadd_ps(
                                w2,
                                _mm256_loadu_ps(t.add(2 * NT_ROW_TILE + 8)),
                                b2,
                            );
                            a3 = _mm256_fmadd_ps(w3, _mm256_loadu_ps(t.add(3 * NT_ROW_TILE)), a3);
                            b3 = _mm256_fmadd_ps(
                                w3,
                                _mm256_loadu_ps(t.add(3 * NT_ROW_TILE + 8)),
                                b3,
                            );
                            c += FAST_CHAINS;
                        }
                        // k % 4 tail folds into chain 0 of each group.
                        while c < k {
                            let t = tile.as_ptr().add(c * NT_ROW_TILE + base);
                            let w = _mm256_set1_ps(*a_row.get_unchecked(c));
                            a0 = _mm256_fmadd_ps(w, _mm256_loadu_ps(t), a0);
                            b0 = _mm256_fmadd_ps(w, _mm256_loadu_ps(t.add(8)), b0);
                            c += 1;
                        }
                        let acc_a = _mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3));
                        let acc_b = _mm256_add_ps(_mm256_add_ps(b0, b1), _mm256_add_ps(b2, b3));
                        _mm256_storeu_ps(out_row.as_mut_ptr().add(col0 + base), acc_a);
                        _mm256_storeu_ps(out_row.as_mut_ptr().add(col0 + base + 8), acc_b);
                        g += 2;
                    }
                    // Odd group left over: the single-group chain layout.
                    if g < groups {
                        let base = g * NT_UNROLL;
                        let mut acc0 = _mm256_setzero_ps();
                        let mut acc1 = _mm256_setzero_ps();
                        let mut acc2 = _mm256_setzero_ps();
                        let mut acc3 = _mm256_setzero_ps();
                        let mut c = 0;
                        while c < k_wide {
                            let t = tile.as_ptr().add(c * NT_ROW_TILE + base);
                            acc0 = _mm256_fmadd_ps(
                                _mm256_set1_ps(*a_row.get_unchecked(c)),
                                _mm256_loadu_ps(t),
                                acc0,
                            );
                            acc1 = _mm256_fmadd_ps(
                                _mm256_set1_ps(*a_row.get_unchecked(c + 1)),
                                _mm256_loadu_ps(t.add(NT_ROW_TILE)),
                                acc1,
                            );
                            acc2 = _mm256_fmadd_ps(
                                _mm256_set1_ps(*a_row.get_unchecked(c + 2)),
                                _mm256_loadu_ps(t.add(2 * NT_ROW_TILE)),
                                acc2,
                            );
                            acc3 = _mm256_fmadd_ps(
                                _mm256_set1_ps(*a_row.get_unchecked(c + 3)),
                                _mm256_loadu_ps(t.add(3 * NT_ROW_TILE)),
                                acc3,
                            );
                            c += FAST_CHAINS;
                        }
                        while c < k {
                            acc0 = _mm256_fmadd_ps(
                                _mm256_set1_ps(*a_row.get_unchecked(c)),
                                _mm256_loadu_ps(tile.as_ptr().add(c * NT_ROW_TILE + base)),
                                acc0,
                            );
                            c += 1;
                        }
                        let acc =
                            _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
                        _mm256_storeu_ps(out_row.as_mut_ptr().add(col0 + base), acc);
                    }
                    // Ragged tail of the tile: plain dots (exact path; the
                    // relaxed contract never *requires* imprecision).
                    for j in (j0 + groups * NT_UNROLL)..j1 {
                        out_row[j - rows.start] = vecops::dot(a_row, &bs[j * k..(j + 1) * k]);
                    }
                }
                j0 = j1;
            }
        });
    }

    /// One multiply-accumulate step of the `Fast` tier: `a · b + acc` with a
    /// single rounding (`_mm256_fmadd_ps`).
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn madd_ps(a: __m256, b: __m256, acc: __m256) -> __m256 {
        _mm256_fmadd_ps(a, b, acc)
    }

    /// [`madd_ps`] for the `dim % 8` column tail: the scalar fused step.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (`mul_add` lowers to `vfmadd`).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn madd_f32(a: f32, b: f32, acc: f32) -> f32 {
        a.mul_add(b, acc)
    }

    madd_block_kernels!(#[target_feature(enable = "avx2", enable = "fma")]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_name_is_stable() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(KernelPolicy::Exact.name(), "exact");
        assert_eq!(KernelPolicy::Fast.name(), "fast");
        assert_eq!(ResolvedKernel::Scalar.name(), "scalar");
        assert_eq!(ResolvedKernel::Avx2.name(), "avx2");
        assert_eq!(ResolvedKernel::Avx2Fma.name(), "avx2+fma");
    }

    #[test]
    fn exact_is_the_default_policy() {
        assert_eq!(KernelPolicy::default(), KernelPolicy::Exact);
    }

    #[test]
    fn policy_resolution_is_consistent_with_detection() {
        // Exact never resolves to the FMA kernels.
        assert_ne!(KernelPolicy::Exact.resolve(), ResolvedKernel::Avx2Fma);
        match active_backend() {
            Backend::Scalar => {
                // Forced scalar (or no AVX2): both policies pin scalar.
                assert_eq!(KernelPolicy::Exact.resolve(), ResolvedKernel::Scalar);
                assert_eq!(KernelPolicy::Fast.resolve(), ResolvedKernel::Scalar);
            }
            Backend::Avx2 => {
                assert_eq!(KernelPolicy::Exact.resolve(), ResolvedKernel::Avx2);
                let want =
                    if fma_available() { ResolvedKernel::Avx2Fma } else { ResolvedKernel::Avx2 };
                assert_eq!(KernelPolicy::Fast.resolve(), want);
            }
        }
    }

    #[test]
    fn active_backend_is_latched_and_consistent() {
        let first = active_backend();
        assert_eq!(active_backend(), first, "dispatch decision must be stable");
        if first == Backend::Avx2 {
            assert!(avx2_available(), "AVX2 backend selected without CPU support");
        }
    }
}
