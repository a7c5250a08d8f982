//! Explicit-SIMD kernel backends behind an explicit [`KernelPolicy`].
//!
//! The hot kernels of the scoring engine —
//! [`crate::gemm::gemm_nt_rows_slice_with`], the softmax backward's
//! [`crate::gemm::gemm_acc_t_with`] and
//! [`crate::gemm::rank_update_with`] and
//! [`crate::vecops::count_cmp`] — ship in
//! three implementations: the portable scalar reference (what every
//! consumer ran before this module existed, kept public as `*_scalar`),
//! the bit-identical explicit x86-64 AVX2 kernels in [`avx2`], and the
//! **relaxed-precision** FMA kernels in [`avx2fma`]. The softmax
//! ([`crate::vecops::softmax_inplace`]) ships in two: its scalar
//! definition and [`avx2fma::softmax`], which needs FMA *and* equals the
//! definition byte for byte (see below).
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
//! * [`KernelPolicy::Fast`] opts into the [`avx2fma`] kernels — the same
//!   accumulation chains with every multiply-add contracted to one FMA
//!   (contracted, not reassociated) — which trade bit-identity with
//!   `Exact` for throughput. `Fast` is **relaxed, not wrong**: it is
//!   gated by a relaxed-equivalence suite (per-score error bounds vs the
//!   exact path, a measured rank-inversion rate, and bit-identity of a
//!   score across block and shard layouts; see `tests/relaxed_fast.rs`).
//!   Where FMA hardware is missing, `Fast`
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
//! kernels simply assign one SIMD lane per output element (the three f32
//! product kernels through one register body, `madd_block_kernels`) and use
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
//! instead — [`avx2fma`] (which fuses, and does nothing else) is such a
//! backend, and the same doorway is what a future BLAS/AVX-512/GPU backend
//! must walk through.
//!
//! Two dispatched operations take no policy, because no policy could change
//! their result. [`crate::vecops::count_cmp`] sums integer counts, which
//! are order-independent, so every lane arrangement returns the same pair.
//! [`crate::vecops::softmax_inplace`] runs [`avx2fma::softmax`] wherever
//! the AVX2 backend is active and the CPU has FMA: its exponential is
//! [`crate::vecops::exp`], whose fused steps are *part of the definition*
//! (correctly rounded `f64::mul_add` in the scalar reference), and its sum
//! keeps the scalar reference's 4-lane order — so it returns the scalar
//! definition's bytes and there is no `Fast` form to pick.
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
    /// The relaxed-precision tier: each multiply-add of an output's chain
    /// is contracted to one FMA, the chain's order kept ([`avx2fma`]).
    /// Scores may differ from `Exact` in the last ULPs; ranks may invert
    /// only where the exact scores were within float noise of a tie (gated
    /// by the relaxed-equivalence suite). Falls back to the `Exact` kernels when
    /// FMA hardware is missing or `KG_FORCE_SCALAR` pins scalar.
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

/// Table bytes one [`crate::gemm::gemm_acc_t_with`] panel covers. A
/// panel is swept once per group of coefficient rows, so it has to stay in
/// L1 beside the `out` block while `out` is loaded and stored once per
/// panel instead of once per table row. Without the panels the register
/// kernel is *slower* than the streaming loop it replaced on tables that
/// do not fit L2 (10k × 64: every row pair would re-stream 2.5 MB).
#[cfg(target_arch = "x86_64")]
const ACC_T_PANEL_BYTES: usize = 16 * 1024;

/// How one multiply-accumulate block reads its operands:
/// `out[r·out_stride + c] = init + Σ_{t < len} coef[r·row_step + t·term_step]
/// · table[t·table_stride + c]`, terms `t` ascending, `init` the element's
/// previous value — or `0.0` when `from_zero`.
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
    /// Overwrite instead of accumulate: every chain starts at `0.0` and
    /// `out` is never read, so a caller need not clear it first.
    from_zero: bool,
}

/// The three f32 product kernels — [`crate::gemm::gemm_nt_rows_slice_with`]
/// (over a transposed table tile), [`crate::gemm::gemm_acc_t_with`] and
/// [`crate::gemm::rank_update_with`] — are the same accumulation read
/// through different strides (a [`MaddShape`]): one multiply-accumulate
/// step (`madd_ps` / `madd_f32` of the invoking module) per term, one SIMD
/// lane per output element.
///
/// The macro stamps that body — register tile, block driver and the three
/// public kernels — into [`avx2`] (step = multiply then add: `Exact`) and
/// [`avx2fma`] (step = fused: `Fast`), under the `#[target_feature]`
/// attribute it is handed. A tile keeps `R` output rows × `V ≤ 4` column
/// vectors in registers across **all** terms, so `out` is loaded and stored
/// once per tile. `rows = [..]` lists the tier's row counts, tallest first
/// and ending in `1` (a block takes the tallest that still fits): 2 rows
/// for `Exact`, whose separate multiply needs a product register beside the
/// 8 accumulators, 3 for `Fast` — 12 accumulators + 3 coefficients + 1
/// table vector are the 16 `ymm`, and 12 independent chains cover the FMA
/// pipes' latency where 8 did not. Each output element still receives the
/// same operations in the same order as the scalar references (zero or
/// previous value first, then terms `0, 1, …`): tiling picks which elements
/// share a loop, never the order inside one element's chain.
#[cfg(target_arch = "x86_64")]
macro_rules! madd_block_kernels {
    (#[$features:meta], rows = [$($rows:literal),+]) => {
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
            if !sh.from_zero {
                for r in 0..R {
                    for v in 0..V {
                        // SAFETY: `r·out_stride + 8v + 8 ≤ out.len()` (precondition).
                        acc[r][v] = _mm256_loadu_ps(out.add(r * sh.out_stride + 8 * v));
                    }
                }
            }
            for t in 0..sh.len {
                // Coefficients first, then one table vector at a time: with
                // all `V` table vectors live the 3-row tile spills.
                let mut c = [_mm256_setzero_ps(); R];
                for r in 0..R {
                    // SAFETY: `r·row_step + t·term_step < coef.len()`.
                    c[r] = _mm256_set1_ps(*coef.add(r * sh.row_step + t * sh.term_step));
                }
                for v in 0..V {
                    // SAFETY: `t·table_stride + 8v + 8 ≤ table.len()`.
                    let lane = _mm256_loadu_ps(table.add(t * sh.table_stride + 8 * v));
                    for r in 0..R {
                        acc[r][v] = madd_ps(c[r], lane, acc[r][v]);
                    }
                }
            }
            for r in 0..R {
                for v in 0..V {
                    // SAFETY: `r·out_stride + 8v + 8 ≤ out.len()` (precondition).
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
                    let mut acc = if sh.from_zero { 0.0 } else { out[r * sh.out_stride + c] };
                    for t in 0..sh.len {
                        let coeff = coef[r * sh.row_step + t * sh.term_step];
                        acc = madd_f32(coeff, table[t * sh.table_stride + c], acc);
                    }
                    out[r * sh.out_stride + c] = acc;
                }
            }
        }

        /// The [`super::MaddShape`] accumulation for output rows
        /// `r < n_rows` and columns `c < cols` — output rows in groups of
        /// the tier's row counts, tallest first. With no terms a
        /// `from_zero` block is zeroed, an accumulating one left alone.
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
            if n_rows == 0 || cols == 0 {
                return;
            }
            assert!((n_rows - 1) * sh.out_stride + cols <= out.len());
            if sh.len == 0 {
                if sh.from_zero {
                    for r in 0..n_rows {
                        vecops::zero(&mut out[r * sh.out_stride..][..cols]);
                    }
                }
                return;
            }
            // Every index a tile forms is bounded by one of these maxima.
            assert!((n_rows - 1) * sh.row_step + (sh.len - 1) * sh.term_step < coef.len());
            assert!((sh.len - 1) * sh.table_stride + cols <= table.len());
            let mut r = 0;
            while r < n_rows {
                let (cf, o) = (&coef[r * sh.row_step..], &mut out[r * sh.out_stride..]);
                let left = n_rows - r;
                // SAFETY: the `R ≤ left` rows from `r` are `< n_rows`, so
                // inside the ranges asserted above for every column and term.
                $(if left >= $rows {
                    madd_rows::<$rows>(cf, table, o, sh, cols);
                    r += $rows;
                    continue;
                })+
            }
        }

        /// This tier's [`crate::gemm::gemm_nt_rows_slice_with`]: per
        /// `NT_ROW_TILE` table rows, transpose them into the thread's tile
        /// scratch (`avx2::transpose_tile`), then one `from_zero`
        /// block of all `m` query rows against the tile. Per element the
        /// chain is `vecops::dot`'s — `0.0`, then `c = 0, 1, …` in order —
        /// wherever its column falls in a tile, a shard or a block.
        ///
        /// # Safety
        /// The CPU must support the module's target features.
        ///
        /// # Panics
        /// Same shape panics as [`crate::gemm::gemm_nt_rows_slice_with`].
        #[$features]
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
            if m == 0 {
                return;
            }
            let shape = super::MaddShape {
                row_step: k,
                term_step: 1,
                table_stride: NT_ROW_TILE,
                out_stride: rows.len(),
                len: k,
                from_zero: true,
            };
            crate::gemm::with_tile_scratch(k, |tile| {
                for j0 in rows.clone().step_by(NT_ROW_TILE) {
                    let j1 = (j0 + NT_ROW_TILE).min(rows.end);
                    // SAFETY: the shape check put table rows `j0..j1 ≤ n`
                    // inside `bs` and the scratch holds `NT_ROW_TILE · k`
                    // floats (`transpose_tile` re-asserts both); the block
                    // reads tile columns `< j1 − j0`, all just written, and
                    // `madd_block` re-asserts the ranges it uses.
                    super::avx2::transpose_tile(bs, k, j0, j1, tile);
                    madd_block(a, tile, &mut out[j0 - rows.start..], shape, m, j1 - j0);
                }
            });
        }

        /// This tier's [`crate::gemm::rank_update_with`]: the whole
        /// `m`-term sum of a tile in registers, the
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
                from_zero: false,
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

        /// This tier's [`crate::gemm::gemm_acc_t_with`]: `out` zeroed,
        /// then the table walked in panels of `ACC_T_PANEL_BYTES`, so `out`
        /// moves through registers once per panel. Per element: `0`, then
        /// table rows ascending — the scalar `axpy` sequence.
        ///
        /// # Safety
        /// The CPU must support the module's target features.
        ///
        /// # Panics
        /// Same shape panics as [`crate::gemm::gemm_acc_t_with`].
        #[$features]
        pub unsafe fn gemm_acc_t(
            s: &[f32],
            m: usize,
            b: &crate::matrix::Mat,
            out: &mut [f32],
        ) {
            let (n, k) = (b.rows(), b.cols());
            crate::gemm::check_acc_t_shapes(s, m, n, k, out);
            vecops::zero(out);
            if m == 0 || k == 0 {
                return;
            }
            let panel = (super::ACC_T_PANEL_BYTES / (4 * k)).max(1);
            for p0 in (0..n).step_by(panel) {
                let shape = super::MaddShape {
                    row_step: n,
                    term_step: 1,
                    table_stride: k,
                    out_stride: k,
                    len: panel.min(n - p0),
                    from_zero: false,
                };
                // SAFETY: the shape check bounds the coefficient columns
                // `p0..`, table rows `p0..p0 + len` and `out`;
                // `madd_block` re-asserts the ranges it uses.
                madd_block(&s[p0..], &b.as_slice()[p0 * k..], out, shape, m, k);
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
    use crate::gemm::NT_ROW_TILE;
    use crate::vecops;
    use std::arch::x86_64::*;

    /// AVX2 form of `gemm::transpose_tile`, shared by both SIMD tiers: table
    /// rows `j0..j1` of `bs` (row stride `k`) land at
    /// `tile[c·NT_ROW_TILE + u] = B[j0 + u][c]` — the same layout, copies
    /// only. Blocks of 8 rows × 4 columns go through registers: row `i` and
    /// row `i + 4` are loaded side by side into the two 128-bit halves, so
    /// `unpack` (pairs rows) and `shuffle` (pairs the pairs) — both
    /// half-local — already leave 8 rows of one column per register. The
    /// `k % 4` columns and `rows % 8` rows are copied one element at a
    /// time. At one query row this transpose *is* `gemm_nt`'s cost.
    ///
    /// # Safety
    /// The CPU must support AVX2. The ranges are checked here (`assert!`).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn transpose_tile(
        bs: &[f32],
        k: usize,
        j0: usize,
        j1: usize,
        tile: &mut [f32],
    ) {
        assert!(j0 <= j1 && j1 - j0 <= NT_ROW_TILE && j1 * k <= bs.len());
        assert!(NT_ROW_TILE * k <= tile.len());
        let rows = j1 - j0;
        let (rows8, k4) = (rows - rows % 8, k - k % 4);
        let (src, dst) = (bs.as_ptr().add(j0 * k), tile.as_mut_ptr());
        for u in (0..rows8).step_by(8) {
            for c in (0..k4).step_by(4) {
                // Rows `u + i` (low half) and `u + 4 + i` (high half),
                // columns `c..c + 4` of each.
                let mut r = [_mm256_setzero_ps(); 4];
                for (i, r) in r.iter_mut().enumerate() {
                    // SAFETY: rows `u..u + 8 ≤ rows` and columns
                    // `c..c + 4 ≤ k` of the source lie below
                    // `j1 · k ≤ bs.len()`.
                    let lo = _mm_loadu_ps(src.add((u + i) * k + c));
                    let hi = _mm_loadu_ps(src.add((u + 4 + i) * k + c));
                    *r = _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi);
                }
                let (a0, a1) = (_mm256_unpacklo_ps(r[0], r[1]), _mm256_unpackhi_ps(r[0], r[1]));
                let (a2, a3) = (_mm256_unpacklo_ps(r[2], r[3]), _mm256_unpackhi_ps(r[2], r[3]));
                let cols = [
                    _mm256_shuffle_ps::<0x44>(a0, a2),
                    _mm256_shuffle_ps::<0xEE>(a0, a2),
                    _mm256_shuffle_ps::<0x44>(a1, a3),
                    _mm256_shuffle_ps::<0xEE>(a1, a3),
                ];
                for (i, col) in cols.into_iter().enumerate() {
                    // SAFETY: tile row `c + i < k`, columns
                    // `u..u + 8 ≤ NT_ROW_TILE`: below
                    // `NT_ROW_TILE · k ≤ tile.len()`.
                    _mm256_storeu_ps(dst.add((c + i) * NT_ROW_TILE + u), col);
                }
            }
        }
        for u in 0..rows {
            let b_row = &bs[(j0 + u) * k..(j0 + u + 1) * k];
            for c in (if u < rows8 { k4 } else { 0 })..k {
                tile[c * NT_ROW_TILE + u] = b_row[c];
            }
        }
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

    madd_block_kernels!(#[target_feature(enable = "avx2")], rows = [2, 1]);

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
            debug_assert_eq!(ch.len(), 8);
            // SAFETY: `chunks_exact(8)` yields slices of exactly 8 floats.
            let v = _mm256_loadu_ps(ch.as_ptr());
            // A true compare is an all-ones lane (-1 as i32): subtracting
            // it increments the lane's counter branchlessly.
            gt = _mm256_sub_epi32(gt, _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GT_OQ>(v, t)));
            eq = _mm256_sub_epi32(eq, _mm256_castps_si256(_mm256_cmp_ps::<_CMP_EQ_OQ>(v, t)));
        }
        let mut gt_lanes = [0u32; 8];
        let mut eq_lanes = [0u32; 8];
        // SAFETY: each array is exactly the 32 bytes its store writes.
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

/// The relaxed-precision FMA kernels behind [`KernelPolicy::Fast`]: the
/// `Exact` kernels' accumulation with each step fused (`_mm256_fmadd_ps`,
/// one rounding where `Exact` has two). Contracted, **not reassociated**:
/// every output is one chain in the scalar reference's term order, so a
/// `Fast` result depends on its operands alone — not on the block, shard or
/// tile position it was computed at — and differs from `Exact` only by the
/// skipped roundings. What the contraction buys is the FMA pipes: half the
/// arithmetic instructions, no product register, hence a 3-row tile (see
/// `madd_block_kernels`).
///
/// The error is classical: a dot product evaluated with `k` fused roundings
/// instead of `2k` separate ones is within `O(k·ε)` of the true value
/// relative to the *absolute* sum `Σ|aᵢ·bᵢ|` (not the possibly-cancelled
/// result). The relaxed-equivalence suite (`tests/relaxed_fast.rs`) pins
/// that bound, measures the rank-inversion rate it can cause and pins the
/// layout-invariance.
///
/// The module also holds the one FMA body that is *not* relaxed:
/// [`softmax`](avx2fma::softmax), whose exponential [`crate::vecops::exp`]
/// is defined with fused steps, so here the FMA reproduces the scalar
/// definition instead of departing from it. It runs under either policy.
///
/// All functions are `unsafe` for one reason only: the caller must
/// guarantee the CPU supports AVX2 **and** FMA (`#[target_feature]`
/// requirement) — [`KernelPolicy::resolve`] and
/// [`crate::vecops::softmax_inplace`] establish this via [`fma_available`];
/// tests may call these directly under the same guard. Shape preconditions
/// are asserted exactly as in the exact kernels.
#[cfg(target_arch = "x86_64")]
pub mod avx2fma {
    use crate::gemm::NT_ROW_TILE;
    use crate::vecops;
    use std::arch::x86_64::*;

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

    madd_block_kernels!(#[target_feature(enable = "avx2", enable = "fma")], rows = [3, 2, 1]);

    /// [`vecops::exp`]'s common path on four lanes widened to f64: the same
    /// fused and plain steps in the same order, the table read by one
    /// gather. Only for inputs that need no special branch.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn exp_common_pd(xd: __m256d) -> __m128 {
        let inv_ln2_n = _mm256_set1_pd(vecops::EXP_INV_LN2_N);
        let shift = _mm256_set1_pd(vecops::EXP_SHIFT);
        let [c0, c1, c2] = vecops::EXP_POLY;
        let (c0, c1, c2) = (_mm256_set1_pd(c0), _mm256_set1_pd(c1), _mm256_set1_pd(c2));
        let kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        let r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
        // SAFETY: every index is masked to `0..32`, the table's length.
        let t = _mm256_i64gather_epi64::<8>(
            vecops::EXP_TAB.as_ptr().cast::<i64>(),
            _mm256_and_si256(ki, _mm256_set1_epi64x(31)),
        );
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let z = _mm256_fmadd_pd(r, c0, c1);
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(r, c2, _mm256_set1_pd(1.0));
        let y = _mm256_fmadd_pd(z, r2, y);
        _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
    }

    /// [`vecops::exp`] on eight lanes, bit for bit: two f64 halves through
    /// [`exp_common_pd`] — unless a lane needs a special branch (`|x| ≥ 88`
    /// or NaN); then all eight go through the scalar definition, which
    /// takes the same common path for the others.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn exp_ps(x: __m256) -> __m256 {
        let top = _mm256_and_si256(
            _mm256_srli_epi32::<20>(_mm256_castps_si256(x)),
            _mm256_set1_epi32(0x7ff),
        );
        let special = _mm256_cmpgt_epi32(top, _mm256_set1_epi32(vecops::EXP_SPECIAL_TOP as i32));
        if _mm256_testz_si256(special, special) != 0 {
            let lo = exp_common_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
            let hi = exp_common_pd(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
            return _mm256_set_m128(hi, lo);
        }
        let mut xs = [0.0f32; 8];
        // SAFETY: `xs` is exactly the 32 bytes the store writes.
        _mm256_storeu_ps(xs.as_mut_ptr(), x);
        let ys = xs.map(vecops::exp);
        // SAFETY: `ys` holds the 8 floats the load reads.
        _mm256_loadu_ps(ys.as_ptr())
    }

    /// [`vecops::exp`] of every element, in place, eight lanes at a time —
    /// the softmax's exponential on its own, for the equivalence tests.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn exp_inplace(x: &mut [f32]) {
        let mut chunks = x.chunks_exact_mut(8);
        for ch in chunks.by_ref() {
            // SAFETY: `chunks_exact_mut(8)` yields slices of exactly 8 floats.
            _mm256_storeu_ps(ch.as_mut_ptr(), exp_ps(_mm256_loadu_ps(ch.as_ptr())));
        }
        for xi in chunks.into_remainder() {
            *xi = vecops::exp(*xi);
        }
    }

    /// [`vecops::softmax_inplace_scalar`] with every loop on eight lanes,
    /// bit for bit:
    ///
    /// * **max** — `_mm256_max_ps(x, acc)` returns `acc` when `x` is NaN,
    ///   `f32::max`'s NaN skip. It may keep `+0` where the scalar fold keeps
    ///   `−0` or the reverse, which moves no output: `x − (±0)` differs at
    ///   most in the sign of a zero, `exp(±0) = 1`, and `max + ln(sum)` has
    ///   `sum ≥ 1`.
    /// * **exp + sum** — element `i` still adds into lane `i mod 4`: each
    ///   8-element step adds its low half, then its high half, into one
    ///   4-lane accumulator; the ragged tail continues lane by lane, and the
    ///   lanes fold with the scalar code's `iter().sum()`.
    /// * **scale** — one multiply by `1 / sum` per element.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn softmax(x: &mut [f32]) -> f32 {
        assert!(!x.is_empty(), "softmax of empty slice");
        let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut chunks = x.chunks_exact(8);
        for ch in chunks.by_ref() {
            // SAFETY (every load / store below): `chunks_exact{,_mut}(8)`
            // yields slices of exactly 8 floats.
            acc = _mm256_max_ps(_mm256_loadu_ps(ch.as_ptr()), acc);
        }
        let mut maxes = [0.0f32; 8];
        // SAFETY: `maxes` is exactly the 32 bytes the store writes.
        _mm256_storeu_ps(maxes.as_mut_ptr(), acc);
        let max = maxes.iter().chain(chunks.remainder()).copied().fold(f32::NEG_INFINITY, f32::max);

        let vmax = _mm256_set1_ps(max);
        let mut sum4 = _mm_setzero_ps();
        let mut chunks = x.chunks_exact_mut(8);
        for ch in chunks.by_ref() {
            let e = exp_ps(_mm256_sub_ps(_mm256_loadu_ps(ch.as_ptr()), vmax));
            _mm256_storeu_ps(ch.as_mut_ptr(), e);
            sum4 = _mm_add_ps(sum4, _mm256_castps256_ps128(e));
            sum4 = _mm_add_ps(sum4, _mm256_extractf128_ps::<1>(e));
        }
        let mut lanes = [0.0f32; 4];
        // SAFETY: `lanes` is exactly the 16 bytes the store writes.
        _mm_storeu_ps(lanes.as_mut_ptr(), sum4);
        for (i, xi) in chunks.into_remainder().iter_mut().enumerate() {
            *xi = vecops::exp(*xi - max);
            lanes[i % 4] += *xi;
        }
        let sum = lanes.iter().sum::<f32>();

        let inv = 1.0 / sum;
        let vinv = _mm256_set1_ps(inv);
        let mut chunks = x.chunks_exact_mut(8);
        for ch in chunks.by_ref() {
            _mm256_storeu_ps(ch.as_mut_ptr(), _mm256_mul_ps(_mm256_loadu_ps(ch.as_ptr()), vinv));
        }
        for xi in chunks.into_remainder() {
            *xi *= inv;
        }
        max + sum.ln()
    }
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

    /// The inner dimensions the `gemm_nt` tests walk: below, at and above
    /// the transpose's 4-column step and the 8-lane vector.
    #[cfg(target_arch = "x86_64")]
    const KS: [usize; 10] = [1, 7, 8, 9, 16, 17, 32, 40, 64, 100];

    /// `n` distinct, exactly representable floats (every element differs
    /// from every other, so a misplaced copy shows).
    #[cfg(target_arch = "x86_64")]
    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 - 0.25).collect()
    }

    /// The AVX2 transpose fills the scalar `transpose_tile`'s layout and
    /// writes nothing else: both start from an all-NaN tile and must end
    /// bit-identical, for every row count of a tile and every column
    /// remainder, at a row offset into the table.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_transpose_fills_the_scalar_tile_layout() {
        use crate::gemm::{transpose_tile, NT_ROW_TILE};
        if !avx2_available() {
            return;
        }
        for k in KS {
            for rows in 1..=NT_ROW_TILE {
                let j0 = 3;
                let bs = ramp((j0 + rows + 1) * k);
                let mut want = vec![f32::NAN; NT_ROW_TILE * k];
                transpose_tile(&bs, k, j0, j0 + rows, &mut want);
                let mut got = vec![f32::NAN; NT_ROW_TILE * k];
                // SAFETY: guarded by runtime AVX2 detection.
                unsafe { avx2::transpose_tile(&bs, k, j0, j0 + rows, &mut got) };
                assert_eq!(canonical_bits(&got), canonical_bits(&want), "k = {k}, rows = {rows}");
            }
        }
    }

    /// A ragged last tile leaves columns `≥ rows` of the scratch stale; no
    /// kernel may read them. The thread's scratch is poisoned with NaN, then
    /// every tile remainder `1..=32` is scored: `Exact` must equal
    /// `vecops::dot` raw, `Fast` must stay NaN-free.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn simd_gemm_nt_never_reads_a_stale_tile_column() {
        use crate::gemm::{with_tile_scratch, NT_ROW_TILE};
        let (m, k) = (5, 17);
        let a = ramp(m * k);
        for n in 1..=NT_ROW_TILE {
            let b: Vec<f32> = ramp(n * k).iter().map(|v| 1.0 / (1.0 + v.abs())).collect();
            let mut out = vec![0.0f32; m * n];
            if avx2_available() {
                with_tile_scratch(k, |tile| tile.fill(f32::NAN));
                // SAFETY: guarded by runtime AVX2 detection.
                unsafe { avx2::gemm_nt_rows_slice(&a, m, k, &b, n, 0..n, &mut out) };
                for (i, j) in (0..m).flat_map(|i| (0..n).map(move |j| (i, j))) {
                    let want = crate::vecops::dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    assert_eq!(out[i * n + j].to_bits(), want.to_bits(), "n = {n} [{i},{j}]");
                }
            }
            if avx2_available() && fma_available() {
                with_tile_scratch(k, |tile| tile.fill(f32::NAN));
                // SAFETY: guarded by runtime AVX2 + FMA detection.
                unsafe { avx2fma::gemm_nt_rows_slice(&a, m, k, &b, n, 0..n, &mut out) };
                assert!(
                    out.iter().all(|v| v.is_finite()),
                    "fast tier read a stale column, n = {n}"
                );
            }
        }
    }

    /// The degenerate shapes of the overwrite form: with no inner dimension
    /// every score is the empty sum and `out` must be zeroed, not skipped;
    /// no query rows or no table rows are no-ops on an empty `out`.
    #[test]
    fn gemm_nt_degenerate_shapes() {
        use crate::gemm::gemm_nt_rows_slice_with;
        for policy in [KernelPolicy::Exact, KernelPolicy::Fast] {
            let (m, n) = (5, 70);
            let mut out = vec![1.0f32; m * (n - 3)];
            gemm_nt_rows_slice_with(policy, &[], m, 0, &[], n, 3..n, &mut out);
            assert!(out.iter().all(|v| v.to_bits() == 0), "k = 0 must zero out ({policy:?})");
            let b = vec![1.0f32; n * 4];
            gemm_nt_rows_slice_with(policy, &[], 0, 4, &b, n, 0..n, &mut []);
            gemm_nt_rows_slice_with(policy, &[1.0; 8], 2, 4, &b, n, 9..9, &mut []);
        }
    }
}
