//! Explicit-SIMD kernel backends behind an explicit [`KernelPolicy`].
//!
//! The hot kernels of the scoring engine —
//! [`crate::gemm::gemm_nt_rows_with`], the softmax backward's
//! [`crate::gemm::gemm_acc_t_with`] and
//! [`crate::gemm::rank_update_with`] and
//! [`crate::vecops::count_cmp`] — ship in three implementations: the
//! portable scalar reference (kept public as `*_scalar`) and the explicit
//! FMA kernels at two vector widths, AVX2 in [`avx2fma`] (8 lanes, 16
//! registers) and AVX-512 in [`avx512fma`] (16 lanes, 32 registers).
//! (`count_cmp` counts integers and has one SIMD body,
//! [`avx2::count_cmp`], which the AVX-512 backend runs too.) The softmax
//! ([`crate::vecops::softmax_inplace`]) ships in three as well: its scalar
//! definition, [`avx2fma::softmax`] and [`avx512fma::softmax`], both equal
//! to the definition byte for byte (see below).
//!
//! # One module per width
//!
//! Each width is one module, [`avx2fma`] or [`avx512fma`], and neither
//! holds a hand-written kernel: both are stamped from the same two macro
//! bodies under the module's `#[target_feature]` attribute.
//! `madd_block_kernels!` writes the three f32 product kernels once, and
//! `softmax_kernels!` writes the softmax, its vector exponential and
//! `exp_inplace` once. The bodies are written in a vector vocabulary the
//! stamped module imports, `ymm` (8 lanes) or `zmm` (16 lanes): the
//! register type `V` and its `LANES`, a `Mask` of live lanes, the f64 half
//! type `D`, and the loads, stores and arithmetic the two bodies use. A
//! vocabulary word is one operation at its width, never a step of an
//! algorithm, so a change to an algorithm is a change to one body. Every
//! ragged tail, in either body and at either width, is one vector masked
//! to the live lanes: no element runs a scalar loop.
//!
//! [`avx2`] holds the width-free AVX2 bodies both widths call: the tile
//! transpose that fills `gemm_nt`'s table tile and `count_cmp`.
//! `count_cmp` stays one AVX2 body rather than joining the vocabulary: its
//! result is an integer count that no lane arrangement changes, so a width
//! could only change its speed, and a `zmm` sweep would be a `rank_full`
//! performance change that needs its own A/B.
//!
//! # The definition: one fused chain per output
//!
//! Every f32 product element — a score, a `dQ` element, an
//! entity-gradient element — is one chain of IEEE 754-2008
//! fusedMultiplyAdd operations in a fixed term order:
//! `acc = fma(x_t, y_t, acc)` for `t = 0, 1, …`, from `0.0` or from the
//! element's previous value. [`crate::vecops::dot`],
//! [`crate::vecops::triple_dot`] and [`crate::vecops::axpy`], the
//! [`crate::Mat`] products built on them (`gemv`, `gemv_t`, `ger`) and the
//! three `*_scalar` references are written as `mul_add` chains in that
//! order. An FMA rounds once and is correctly rounded, so every
//! implementation of a chain returns the same bits.
//!
//! The references run their chains through `fused!`: compiled with the
//! `fma` target feature and chosen by runtime detection
//! ([`fma_available`]), so each `mul_add` is one instruction. Only a CPU
//! without FMA runs the baseline build of the same source, where each
//! `mul_add` is a call to libm's `fmaf` — correctly rounded too, so the
//! same bits, at ≈ 4.4 ns a term against ≈ 1.0 ns.
//!
//! # The `KernelPolicy` seam
//!
//! Which implementation runs is a **value**, not a process global: every
//! f32 kernel's one dispatched entry point is `*_with(policy, ...)`,
//! taking a [`KernelPolicy`]. Higher layers carry the policy explicitly —
//! `BatchScratch::with_policy` in kg-models, the `evaluate*_with`
//! evaluators in kg-eval, `Trainer::policy` in kg-train,
//! `KgEngineBuilder::policy` in kg-serve. The policy has one value,
//! [`KernelPolicy::Exact`]: the fused chain is the definition.
//!
//! [`KernelPolicy::resolve`] picks the kernel by one table:
//!
//! | Process | Kernel |
//! |---|---|
//! | [`FORCE_SCALAR_ENV`] (`KG_FORCE_SCALAR`) set to anything but `0` or empty | [`ResolvedKernel::Scalar`] |
//! | AVX-512F, AVX2 and FMA ([`avx512_available`]) | [`ResolvedKernel::Avx512Fma`] |
//! | AVX2 and FMA | [`ResolvedKernel::Avx2Fma`] |
//! | anything else, a CPU with AVX2 but no FMA and every non-x86-64 one included | [`ResolvedKernel::Scalar`] |
//!
//! [`active_backend`] latches the row at the first dispatch. The width is
//! chosen by detection alone: no option or knob picks AVX2 on an AVX-512
//! CPU, because no result depends on it.
//!
//! # What the bit-identity contract demands of a backend
//!
//! Every backend must compute **each output element with the identical
//! fused operations in the identical order** as the scalar reference. The
//! scalar kernels already vectorise *across outputs* — 8 independent
//! chains in `gemm_nt`, per-column chains in `gemm_acc_t` and
//! `rank_update`, independent integer lanes in `count_cmp` — so the SIMD
//! kernels assign one SIMD lane per output element (the three f32 product
//! kernels through one register body, `madd_block_kernels`, at either
//! width) and one FMA intrinsic per term (`_mm256_fmadd_ps`,
//! `_mm512_fmadd_ps`): each lane then performs exactly the scalar
//! reference's rounding sequence and the results match bit for bit —
//! signed zeros, infinities and the canonical NaNs of invalid operations
//! (`0 · ∞`, `∞ − ∞`) included. How many lanes a register holds, how many
//! registers a tile uses and whether a ragged column tail is a masked
//! vector only pick which outputs share an instruction, never the
//! operations inside one output's chain. The single exception is the
//! payload bits of a NaN *propagated from the input*: IEEE 754 lets an
//! operation return either operand's NaN payload, and which one the
//! instruction or libm returns is not pinned by the source. The contract
//! there is "NaN exactly where the reference has NaN" (element-wise NaN
//! masks coincide; ranking semantics never read NaN payloads), and since
//! model embeddings are NaN-free, every real workload is fully
//! bit-identical. A backend that splits a step into a multiply and an add,
//! reassociates a reduction, or tiles *within* a single output's chain
//! breaks the contract.
//!
//! Two dispatched operations take no policy, because no policy could change
//! their result. [`crate::vecops::count_cmp`] sums integer counts, which
//! are order-independent, so every lane arrangement returns the same pair.
//! [`crate::vecops::softmax_inplace`] runs [`avx512fma::softmax`]
//! wherever the AVX-512 backend is active and [`avx2fma::softmax`]
//! wherever the AVX2 one is: its exponential is [`crate::vecops::exp`],
//! whose fused steps are part of the definition (correctly rounded
//! `f64::mul_add`), and its sum keeps the scalar reference's 4-lane order
//! at either width.
//!
//! The equivalence proptests in `tests/proptests.rs` (each SIMD width vs
//! scalar over unaligned lengths, ragged shard ranges, NaN and ±0.0
//! payloads), the tests of `src/fused.rs` (the references return the
//! fused bits, and the FMA and libm bodies agree) and the forced-scalar
//! seam test in `tests/forced_scalar.rs` pin
//! all of this down; the engine-level suites (`batch_equivalence`,
//! `shard_equivalence`, `serve_equivalence`) inherit the guarantee
//! unchanged.

use std::sync::OnceLock;

/// Environment variable that pins the scalar backend when set (to anything
/// but `0` or the empty string). Read once, at the first kernel dispatch of
/// the process — flipping it later has no effect.
pub const FORCE_SCALAR_ENV: &str = "KG_FORCE_SCALAR";

/// Environment variable read only by the benchmark's start-up guard,
/// which refuses to run while it is set. No kernel dispatch reads it.
pub const POLICY_ENV: &str = "KG_KERNEL_POLICY";

/// The precision tier a kernel call runs under — an explicit value threaded
/// through every layer (see the module docs), not a process global.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// The bit-identity contract: every output element is one chain of
    /// fused multiply-adds in the scalar reference's term order (see the
    /// module docs), so the scalar, AVX2 and AVX-512 backends are
    /// byte-equal.
    #[default]
    Exact,
}

impl KernelPolicy {
    /// Stable lower-case name for logs and bench provenance records.
    pub fn name(self) -> &'static str {
        "exact"
    }

    /// The concrete kernel implementation this policy runs on this process:
    /// the one [`active_backend`] latched (the table in the module docs).
    pub fn resolve(self) -> ResolvedKernel {
        active_backend()
    }
}

/// The kernel implementation the dispatcher selected for this process —
/// the provenance record benches and stats report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedKernel {
    /// Portable scalar reference kernels (`*_scalar`).
    Scalar,
    /// AVX2 FMA kernels ([`avx2fma`]) — x86-64 with runtime-detected AVX2
    /// and FMA, and no AVX-512F.
    Avx2Fma,
    /// AVX-512 FMA kernels ([`avx512fma`]) — x86-64 with runtime-detected
    /// AVX-512F, AVX2 and FMA (see [`avx512_available`]); the same bytes as
    /// [`ResolvedKernel::Avx2Fma`] and the scalar reference.
    Avx512Fma,
}

impl ResolvedKernel {
    /// Stable lower-case name for logs and bench provenance records.
    pub fn name(self) -> &'static str {
        match self {
            ResolvedKernel::Scalar => "scalar",
            ResolvedKernel::Avx2Fma => "avx2+fma",
            ResolvedKernel::Avx512Fma => "avx512+fma",
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

/// Whether this CPU has FMA (runtime detection; `false` on every
/// non-x86-64 architecture): what [`active_backend`] asks of either SIMD
/// backend, and what picks the FMA-compiled body of every scalar
/// reference. Independent of the env knobs.
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

/// Whether this CPU can run the AVX-512 kernels of [`avx512fma`]: runtime
/// detection of AVX-512F **and** of AVX2 and FMA, which the module's
/// `#[target_feature]` names too (every AVX-512F CPU reports both, and
/// both widths call the AVX2 bodies of [`avx2`]); `false` on every
/// non-x86-64 architecture. Independent of the env knobs, like
/// [`avx2_available`].
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_available() && fma_available() && std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The kernel every dispatched call uses, resolved once per process
/// ([`FORCE_SCALAR_ENV`] first, then CPU detection, widest first — see the
/// module docs).
pub fn active_backend() -> ResolvedKernel {
    static BACKEND: OnceLock<ResolvedKernel> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        if force_scalar_requested() {
            ResolvedKernel::Scalar
        } else if avx512_available() {
            ResolvedKernel::Avx512Fma
        } else if avx2_available() && fma_available() {
            ResolvedKernel::Avx2Fma
        } else {
            ResolvedKernel::Scalar
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

/// The three f32 product kernels — [`crate::gemm::gemm_nt_rows_with`]
/// (over a transposed table tile), [`crate::gemm::gemm_acc_t_with`] and
/// [`crate::gemm::rank_update_with`] — are the same accumulation read
/// through different strides (a [`MaddShape`]): one fused multiply-add
/// per term, one SIMD lane per output element.
///
/// The macro stamps that body — register tile, block driver and the three
/// public kernels — twice, into [`avx2fma`] and [`avx512fma`], under the
/// `#[target_feature]` attribute it is handed. The body is written in a
/// vector vocabulary the invoking module imports — [`ymm`] (8 lanes) or
/// [`zmm`] (16 lanes): the register type `V` and its `LANES`, `zero` /
/// `load` / `store` / `splat`, the step `madd`, and a `Mask` of live lanes
/// with `mask` / `load_masked` / `store_masked`. A tile
/// keeps `R` output rows × `W` column vectors in registers across **all**
/// terms, so `out` is loaded and stored once per tile; `W` is 4, 2 or 1,
/// and the `cols % LANES` tail is one more 1-vector tile masked to the
/// live columns, so no column runs a scalar chain.
///
/// `rows = [..]` lists the stamp's row counts, tallest first and ending in
/// `1` (a block takes the tallest that still fits). The AVX2 stamp fills
/// the 16 `ymm` with 3 rows — 12 accumulators + 3 coefficients + 1 table
/// vector; the fused step needs no product register, and 12 independent
/// chains cover the FMA pipes' latency where 8 did not. The AVX-512 stamp
/// runs 6 rows: 24 accumulators + 6 coefficients + 1 table vector of the
/// 32 `zmm`. Measured against 5, 7 and 8 rows (and 8 rows × at most 2
/// vectors), the row counts tie at the search shape (700 × 32) and 5–6
/// rows lead at 10k × 64, where 8 × 4 spills. Each output element still
/// receives the same operations in the same order as the scalar
/// references (zero or previous value first, then terms `0, 1, …`):
/// tiling and masking pick which elements share a loop, never the order
/// inside one element's chain.
#[cfg(target_arch = "x86_64")]
macro_rules! madd_block_kernels {
    (#[$features:meta], rows = [$($rows:literal),+]) => {
        /// `R` output rows × `W` column vectors, accumulated in registers
        /// over all terms; the slices start at the tile's first element.
        /// The tile spans `width` columns: `W · LANES`, or — a `MASKED`
        /// tile, one vector wide — the first `width < LANES`, whose masked
        /// loads and stores touch no column past `width`.
        ///
        /// # Safety
        /// The CPU must support the module's target features, and the three
        /// index ranges the tile touches must lie inside their slices:
        /// `coef[r·row_step + t·term_step]`, `table[t·table_stride + c]`
        /// and `out[r·out_stride + c]` for `r < R`, `t < len`, `c < width`
        /// (`len ≥ 1`).
        #[inline]
        #[$features]
        unsafe fn madd_tile<const R: usize, const W: usize, const MASKED: bool>(
            coef: &[f32],
            table: &[f32],
            out: &mut [f32],
            sh: super::MaddShape,
            width: usize,
        ) {
            debug_assert!(sh.len >= 1);
            debug_assert!(if MASKED { W == 1 && width < LANES } else { width == W * LANES });
            debug_assert!((R - 1) * sh.row_step + (sh.len - 1) * sh.term_step < coef.len());
            debug_assert!((sh.len - 1) * sh.table_stride + width <= table.len());
            debug_assert!((R - 1) * sh.out_stride + width <= out.len());
            let live = mask(width.min(LANES));
            let (coef, table, out) = (coef.as_ptr(), table.as_ptr(), out.as_mut_ptr());
            let mut acc = [[zero(); W]; R];
            if !sh.from_zero {
                for r in 0..R {
                    for v in 0..W {
                        // SAFETY: the vector's live columns are `< width`
                        // and `r·out_stride + width ≤ out.len()`
                        // (precondition); a masked load reads no other.
                        let p = out.add(r * sh.out_stride + LANES * v);
                        acc[r][v] = if MASKED { load_masked(p, live) } else { load(p) };
                    }
                }
            }
            for t in 0..sh.len {
                // Coefficients first, then one table vector at a time: with
                // all `W` table vectors live the 3-row AVX2 tile spills.
                let mut c = [zero(); R];
                for r in 0..R {
                    // SAFETY: `r·row_step + t·term_step < coef.len()`.
                    c[r] = splat(*coef.add(r * sh.row_step + t * sh.term_step));
                }
                for v in 0..W {
                    // SAFETY: the live columns are `< width`, and
                    // `t·table_stride + width ≤ table.len()`.
                    let p = table.add(t * sh.table_stride + LANES * v);
                    let lane = if MASKED { load_masked(p, live) } else { load(p) };
                    for r in 0..R {
                        acc[r][v] = madd(c[r], lane, acc[r][v]);
                    }
                }
            }
            for r in 0..R {
                for v in 0..W {
                    // SAFETY: as for the loads of `out` above.
                    let p = out.add(r * sh.out_stride + LANES * v);
                    if MASKED {
                        store_masked(p, live, acc[r][v]);
                    } else {
                        store(p, acc[r][v]);
                    }
                }
            }
        }

        /// Every column of `R` adjacent output rows: 4-, 2- and 1-vector
        /// tiles, then the `cols % LANES` tail as one masked 1-vector tile.
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
            // SAFETY (every tile): the caller's ranges hold for every
            // column `< cols`, and each tile covers `c .. c + width ≤ cols`.
            while c + 4 * LANES <= cols {
                madd_tile::<R, 4, false>(coef, &table[c..], &mut out[c..], sh, 4 * LANES);
                c += 4 * LANES;
            }
            while c + 2 * LANES <= cols {
                madd_tile::<R, 2, false>(coef, &table[c..], &mut out[c..], sh, 2 * LANES);
                c += 2 * LANES;
            }
            while c + LANES <= cols {
                madd_tile::<R, 1, false>(coef, &table[c..], &mut out[c..], sh, LANES);
                c += LANES;
            }
            if c < cols {
                madd_tile::<R, 1, true>(coef, &table[c..], &mut out[c..], sh, cols - c);
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

        /// This tier's [`crate::gemm::gemm_nt_rows_with`]: per
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
        /// Same shape panics as [`crate::gemm::gemm_nt_rows_with`].
        #[$features]
        pub unsafe fn gemm_nt_rows(
            a: &[f32],
            m: usize,
            k: usize,
            b: &crate::matrix::Mat,
            rows: std::ops::Range<usize>,
            out: &mut [f32],
        ) {
            crate::gemm::check_nt_rows_shapes(a, m, k, b, &rows, out);
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
                    // SAFETY: the shape check put table rows `j0..j1`
                    // inside `b` and the scratch holds `NT_ROW_TILE · k`
                    // floats (`transpose_tile` re-asserts both); the block
                    // reads tile columns `< j1 − j0`, all just written, and
                    // `madd_block` re-asserts the ranges it uses.
                    super::avx2::transpose_tile(b.as_slice(), k, j0, j1, tile);
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

/// The softmax and its exponential — [`crate::vecops::exp`] one vector at
/// a time, `exp_inplace` and `softmax` — written once and stamped into
/// [`avx2fma`] and [`avx512fma`] under the `#[target_feature]` attribute it
/// is handed, in the same vocabulary as `madd_block_kernels` plus the
/// words the exponential needs: the f64 half type `D` with `widen` /
/// `narrow`, the f64 steps (`dmadd`, `dmsub`, `dsub`, `dmul`, `dsplat`),
/// the table lookup `exp_scale`, the special-lane test `exp_special`, the
/// 4-lane `add_quarters`, and `maximum` / `sub` / `mul`,
/// `load_masked_or` and `keep` on `V`.
///
/// The exponential runs glibc's `expf` algorithm in two f64 halves of a
/// vector, each lane with the same fused and plain steps in the same order
/// as the scalar [`crate::vecops::exp`]. A vector with a lane that needs a
/// special branch goes through the scalar definition lane by lane, in a
/// `#[cold]` function: kept out of line, it leaves the common path small
/// enough that LLVM inlines it at each of the softmax's two call sites.
/// Every loop's `len % LANES` tail is one masked vector.
#[cfg(target_arch = "x86_64")]
macro_rules! softmax_kernels {
    (#[$features:meta]) => {
        use std::arch::x86_64::{_mm_setzero_ps, _mm_storeu_ps};

        /// [`vecops::exp`]'s common path on one f64 half: the same fused
        /// and plain steps in the same order. Only for inputs that need no
        /// special branch.
        ///
        /// # Safety
        /// The CPU must support the module's target features.
        #[inline]
        #[$features]
        unsafe fn exp_common_pd(xd: D) -> D {
            let (inv_ln2_n, shift) = (dsplat(vecops::EXP_INV_LN2_N), dsplat(vecops::EXP_SHIFT));
            let [c0, c1, c2] = vecops::EXP_POLY.map(|c| dsplat(c));
            let kd = dmadd(inv_ln2_n, xd, shift);
            let s = exp_scale(kd);
            let kd = dsub(kd, shift);
            let r = dmsub(inv_ln2_n, xd, kd);
            let z = dmadd(r, c0, c1);
            let r2 = dmul(r, r);
            let y = dmadd(r, c2, dsplat(1.0));
            let y = dmadd(z, r2, y);
            dmul(y, s)
        }

        /// [`vecops::exp`] on every lane, bit for bit: two f64 halves
        /// through [`exp_common_pd`], unless a lane needs a special branch
        /// (`|x| ≥ 88` or NaN).
        ///
        /// # Safety
        /// The CPU must support the module's target features.
        #[inline]
        #[$features]
        unsafe fn exp_ps(x: V) -> V {
            if exp_special(x) {
                return exp_lanes(x);
            }
            let (lo, hi) = widen(x);
            narrow(exp_common_pd(lo), exp_common_pd(hi))
        }

        /// [`exp_ps`] of a vector with a special lane: every lane through
        /// the scalar definition, which takes the same common path for the
        /// others.
        ///
        /// # Safety
        /// The CPU must support the module's target features.
        #[cold]
        #[$features]
        unsafe fn exp_lanes(x: V) -> V {
            let mut xs = [0.0f32; LANES];
            // SAFETY: `xs` holds the `LANES` floats the store writes.
            store(xs.as_mut_ptr(), x);
            let ys = xs.map(vecops::exp);
            // SAFETY: `ys` holds the `LANES` floats the load reads.
            load(ys.as_ptr())
        }

        /// [`vecops::exp`] of every element, in place, a vector at a time,
        /// the `len % LANES` tail one masked vector — the softmax's
        /// exponential on its own, for the equivalence tests.
        ///
        /// # Safety
        /// The CPU must support the module's target features.
        #[$features]
        pub unsafe fn exp_inplace(x: &mut [f32]) {
            let live = mask(x.len() % LANES);
            let mut chunks = x.chunks_exact_mut(LANES);
            for ch in chunks.by_ref() {
                // SAFETY: `chunks_exact_mut` yields slices of `LANES` floats.
                store(ch.as_mut_ptr(), exp_ps(load(ch.as_ptr())));
            }
            let rest = chunks.into_remainder().as_mut_ptr();
            // SAFETY: `live` covers exactly the remainder; the dead lanes
            // read as `0.0`, which takes no special branch, and are not
            // written.
            store_masked(rest, live, exp_ps(load_masked(rest, live)));
        }

        /// [`vecops::softmax_inplace_scalar`] with every loop a vector at a
        /// time, bit for bit, each loop's `len % LANES` tail one masked
        /// vector:
        ///
        /// * **max** — `maximum(x, acc)` returns `acc` when `x` is NaN,
        ///   `f32::max`'s NaN skip; the tail's dead lanes read `acc`. It may
        ///   keep `+0` where the scalar fold keeps `−0` or the reverse,
        ///   which moves no output: `x − (±0)` differs at most in the sign
        ///   of a zero, `exp(±0) = 1`, and `max + ln(sum)` has `sum ≥ 1`.
        /// * **exp + sum** — element `i` still adds into lane `i mod 4`:
        ///   each vector adds its 4-lane quarters in order into one 4-lane
        ///   accumulator. The tail's dead lanes read `max` (so `x − max = 0`
        ///   takes no special branch) and add `+0.0`, which leaves every
        ///   lane sum — a sum of non-negative terms from `+0.0` — unchanged.
        ///   The lanes fold with the scalar code's `iter().sum()`.
        /// * **scale** — one multiply by `1 / sum` per element.
        ///
        /// # Safety
        /// The CPU must support the module's target features.
        #[$features]
        pub unsafe fn softmax(x: &mut [f32]) -> f32 {
            assert!(!x.is_empty(), "softmax of empty slice");
            let live = mask(x.len() % LANES);
            let mut acc = splat(f32::NEG_INFINITY);
            let mut chunks = x.chunks_exact(LANES);
            for ch in chunks.by_ref() {
                // SAFETY (every full-width load / store below):
                // `chunks_exact{,_mut}` yields slices of `LANES` floats;
                // (every masked one) `live` covers exactly the remainder.
                acc = maximum(load(ch.as_ptr()), acc);
            }
            let rest = chunks.remainder().as_ptr();
            acc = maximum(load_masked_or(acc, rest, live), acc);
            let mut maxes = [0.0f32; LANES];
            // SAFETY: `maxes` holds the `LANES` floats the store writes.
            store(maxes.as_mut_ptr(), acc);
            let max = maxes.into_iter().fold(f32::NEG_INFINITY, f32::max);

            let vmax = splat(max);
            let mut sum4 = _mm_setzero_ps();
            let mut chunks = x.chunks_exact_mut(LANES);
            for ch in chunks.by_ref() {
                let e = exp_ps(sub(load(ch.as_ptr()), vmax));
                store(ch.as_mut_ptr(), e);
                sum4 = add_quarters(sum4, e);
            }
            let rest = chunks.into_remainder().as_mut_ptr();
            let e = exp_ps(sub(load_masked_or(vmax, rest, live), vmax));
            store_masked(rest, live, e);
            sum4 = add_quarters(sum4, keep(live, e));
            let mut lanes = [0.0f32; 4];
            // SAFETY: `lanes` is exactly the 16 bytes the store writes.
            _mm_storeu_ps(lanes.as_mut_ptr(), sum4);
            let sum = lanes.iter().sum::<f32>();

            let vinv = splat(1.0 / sum);
            let mut chunks = x.chunks_exact_mut(LANES);
            for ch in chunks.by_ref() {
                store(ch.as_mut_ptr(), mul(load(ch.as_ptr()), vinv));
            }
            let rest = chunks.into_remainder().as_mut_ptr();
            store_masked(rest, live, mul(load_masked(rest, live), vinv));
            max + sum.ln()
        }
    };
}

/// The 256-bit vocabulary `madd_block_kernels` and `softmax_kernels` are
/// written in for the AVX2 kernels: 8 f32 lanes, a mask of live lanes as
/// all-ones `i32` lanes, and the f64 half `D` of 4 lanes.
///
/// Every function is `unsafe` for one reason, plus the pointer ranges it
/// names: the CPU must support AVX2 (and FMA, for `madd`, `dmadd` and
/// `dmsub`).
#[cfg(target_arch = "x86_64")]
mod ymm {
    use crate::vecops;
    use std::arch::x86_64::*;

    pub(super) use std::arch::x86_64::{
        _mm256_fmadd_pd as dmadd, _mm256_fmsub_pd as dmsub, _mm256_max_ps as maximum,
        _mm256_mul_pd as dmul, _mm256_mul_ps as mul, _mm256_set1_pd as dsplat,
        _mm256_sub_pd as dsub, _mm256_sub_ps as sub,
    };

    pub(super) type V = __m256;
    pub(super) type Mask = __m256i;
    pub(super) type D = __m256d;
    pub(super) const LANES: usize = 8;

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn zero() -> V {
        _mm256_setzero_ps()
    }

    /// # Safety
    /// `p .. p + 8` must be readable.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn load(p: *const f32) -> V {
        _mm256_loadu_ps(p)
    }

    /// # Safety
    /// `p .. p + 8` must be writable.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn store(p: *mut f32, v: V) {
        _mm256_storeu_ps(p, v)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn splat(x: f32) -> V {
        _mm256_set1_ps(x)
    }

    /// One step of a chain: `a · b + acc`, rounded once.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn madd(a: V, b: V, acc: V) -> V {
        _mm256_fmadd_ps(a, b, acc)
    }

    /// Lanes `0..n` live (`n ≤ 8`).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mask(n: usize) -> Mask {
        _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
    }

    /// The live lanes from `p`, zero elsewhere; dead lanes are not read.
    ///
    /// # Safety
    /// `p + i` must be readable for every live lane `i`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn load_masked(p: *const f32, live: Mask) -> V {
        _mm256_maskload_ps(p, live)
    }

    /// The live lanes of `v` to `p`; dead lanes are not written.
    ///
    /// # Safety
    /// `p + i` must be writable for every live lane `i`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn store_masked(p: *mut f32, live: Mask, v: V) {
        _mm256_maskstore_ps(p, live, v)
    }

    /// The live lanes from `p`, `fill`'s elsewhere; dead lanes are not read.
    ///
    /// # Safety
    /// `p + i` must be readable for every live lane `i`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn load_masked_or(fill: V, p: *const f32, live: Mask) -> V {
        _mm256_blendv_ps(fill, _mm256_maskload_ps(p, live), _mm256_castsi256_ps(live))
    }

    /// The live lanes of `v`, `+0.0` elsewhere.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn keep(live: Mask, v: V) -> V {
        _mm256_and_ps(_mm256_castsi256_ps(live), v)
    }

    /// Lanes `0..4` and `4..8` of `v`, widened to f64.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn widen(v: V) -> (D, D) {
        let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
        (lo, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v)))
    }

    /// [`widen`] undone: both halves rounded to f32, `lo` in lanes `0..4`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn narrow(lo: D, hi: D) -> V {
        _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo))
    }

    /// `2^(k/32)` from `kd`, the f64 that holds the integer `k` in its low
    /// mantissa bits: table entry `k mod 32` ([`vecops::EXP_TAB`], by one
    /// gather) plus `k << 47`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn exp_scale(kd: D) -> D {
        let ki = _mm256_castpd_si256(kd);
        let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        // SAFETY: every index is masked to `0..32`, the table's length.
        let t = _mm256_i64gather_epi64::<8>(vecops::EXP_TAB.as_ptr().cast::<i64>(), idx);
        _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)))
    }

    /// Whether a lane of `x` needs one of [`vecops::exp`]'s special
    /// branches (`|x| ≥ 88` or NaN).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn exp_special(x: V) -> bool {
        let top = _mm256_srli_epi32::<20>(_mm256_castps_si256(x));
        let top = _mm256_and_si256(top, _mm256_set1_epi32(0x7ff));
        let special = _mm256_cmpgt_epi32(top, _mm256_set1_epi32(vecops::EXP_SPECIAL_TOP as i32));
        _mm256_testz_si256(special, special) == 0
    }

    /// `sum4 + q0 + q1` for the 4-lane quarters `q` of `v`, in that order:
    /// element `i` of `v` lands in lane `i mod 4`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_quarters(sum4: __m128, v: V) -> __m128 {
        _mm_add_ps(_mm_add_ps(sum4, _mm256_castps256_ps128(v)), _mm256_extractf128_ps::<1>(v))
    }
}

/// The 512-bit vocabulary `madd_block_kernels` and `softmax_kernels` are
/// written in for the AVX-512 kernels: 16 f32 lanes, a mask of live lanes
/// as a `k` register, and the f64 half `D` of 8 lanes.
///
/// Every function is `unsafe` for one reason, plus the pointer ranges it
/// names: the CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
mod zmm {
    use crate::vecops;
    use std::arch::x86_64::*;

    pub(super) use std::arch::x86_64::{
        _mm512_fmadd_pd as dmadd, _mm512_fmsub_pd as dmsub, _mm512_max_ps as maximum,
        _mm512_mul_pd as dmul, _mm512_mul_ps as mul, _mm512_set1_pd as dsplat,
        _mm512_sub_pd as dsub, _mm512_sub_ps as sub,
    };

    pub(super) type V = __m512;
    pub(super) type Mask = __mmask16;
    pub(super) type D = __m512d;
    pub(super) const LANES: usize = 16;

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn zero() -> V {
        _mm512_setzero_ps()
    }

    /// # Safety
    /// `p .. p + 16` must be readable.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn load(p: *const f32) -> V {
        _mm512_loadu_ps(p)
    }

    /// # Safety
    /// `p .. p + 16` must be writable.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn store(p: *mut f32, v: V) {
        _mm512_storeu_ps(p, v)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn splat(x: f32) -> V {
        _mm512_set1_ps(x)
    }

    /// One step of a chain: `a · b + acc`, rounded once.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn madd(a: V, b: V, acc: V) -> V {
        _mm512_fmadd_ps(a, b, acc)
    }

    /// Lanes `0..n` live (`n ≤ 16`).
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn mask(n: usize) -> Mask {
        ((1u32 << n) - 1) as Mask
    }

    /// The live lanes from `p`, zero elsewhere; dead lanes are not read.
    ///
    /// # Safety
    /// `p + i` must be readable for every live lane `i`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn load_masked(p: *const f32, live: Mask) -> V {
        _mm512_maskz_loadu_ps(live, p)
    }

    /// The live lanes of `v` to `p`; dead lanes are not written.
    ///
    /// # Safety
    /// `p + i` must be writable for every live lane `i`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn store_masked(p: *mut f32, live: Mask, v: V) {
        _mm512_mask_storeu_ps(p, live, v)
    }

    /// The live lanes from `p`, `fill`'s elsewhere; dead lanes are not read.
    ///
    /// # Safety
    /// `p + i` must be readable for every live lane `i`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn load_masked_or(fill: V, p: *const f32, live: Mask) -> V {
        _mm512_mask_loadu_ps(fill, live, p)
    }

    /// The live lanes of `v`, `+0.0` elsewhere.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn keep(live: Mask, v: V) -> V {
        _mm512_maskz_mov_ps(live, v)
    }

    /// Lanes `0..8` and `8..16` of `v`, widened to f64.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn widen(v: V) -> (D, D) {
        let upper = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v)));
        (_mm512_cvtps_pd(_mm512_castps512_ps256(v)), _mm512_cvtps_pd(upper))
    }

    /// [`widen`] undone: both halves rounded to f32, `lo` in lanes `0..8`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn narrow(lo: D, hi: D) -> V {
        let lo = _mm512_castps_pd(_mm512_castps256_ps512(_mm512_cvtpd_ps(lo)));
        _mm512_castpd_ps(_mm512_insertf64x4::<1>(lo, _mm256_castps_pd(_mm512_cvtpd_ps(hi))))
    }

    /// `2^(k/32)` from `kd`, the f64 that holds the integer `k` in its low
    /// mantissa bits: table entry `k mod 32` ([`vecops::EXP_TAB`]) plus
    /// `k << 47`. The 32-entry table sits in four registers: two
    /// `permutex2var` look `k mod 16` up in each half, and bit 4 of `k`
    /// picks the half.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn exp_scale(kd: D) -> D {
        let ki = _mm512_castpd_si512(kd);
        let tab = vecops::EXP_TAB.as_ptr().cast::<i64>();
        // SAFETY: the table holds 32 `u64`, the four loads read 8 each.
        let [t0, t1, t2, t3] = [0, 8, 16, 24].map(|i| _mm512_loadu_epi64(tab.add(i)));
        let lo = _mm512_permutex2var_epi64(t0, ki, t1);
        let hi = _mm512_permutex2var_epi64(t2, ki, t3);
        let t = _mm512_mask_blend_epi64(_mm512_test_epi64_mask(ki, _mm512_set1_epi64(16)), lo, hi);
        _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)))
    }

    /// Whether a lane of `x` needs one of [`vecops::exp`]'s special
    /// branches (`|x| ≥ 88` or NaN).
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn exp_special(x: V) -> bool {
        let top = _mm512_srli_epi32::<20>(_mm512_castps_si512(x));
        let top = _mm512_and_si512(top, _mm512_set1_epi32(0x7ff));
        _mm512_cmpgt_epi32_mask(top, _mm512_set1_epi32(vecops::EXP_SPECIAL_TOP as i32)) != 0
    }

    /// `sum4 + q0 + q1 + q2 + q3` for the 4-lane quarters `q` of `v`, in
    /// that order: element `i` of `v` lands in lane `i mod 4`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn add_quarters(sum4: __m128, v: V) -> __m128 {
        let sum4 = _mm_add_ps(sum4, _mm512_castps512_ps128(v));
        let sum4 = _mm_add_ps(sum4, _mm512_extractf32x4_ps::<1>(v));
        let sum4 = _mm_add_ps(sum4, _mm512_extractf32x4_ps::<2>(v));
        _mm_add_ps(sum4, _mm512_extractf32x4_ps::<3>(v))
    }
}

/// The AVX2 bodies that need no FMA: the tile transpose both SIMD widths
/// fill `gemm_nt`'s tile with, and the rank-count sweep.
///
/// All functions here are `unsafe` for one reason only: the caller must
/// guarantee the CPU supports AVX2 (`#[target_feature]` requirement).
/// The dispatched entry points in [`crate::gemm`] and [`crate::vecops`]
/// establish this via [`active_backend`]; tests may call these directly
/// under an [`avx2_available`] guard.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use crate::gemm::NT_ROW_TILE;
    use std::arch::x86_64::*;

    /// AVX2 form of `gemm::transpose_tile`, shared by both SIMD widths: table
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

/// The AVX2 kernels: one SIMD lane per output element, one fused
/// multiply-add per term (`_mm256_fmadd_ps`), masked ragged tails — every
/// output byte equals the scalar reference's. The fused step needs no
/// product register, hence a 3-row tile (see `madd_block_kernels`). The
/// module also holds the 8-lane softmax, [`softmax`](avx2fma::softmax),
/// and its exponential (see `softmax_kernels`).
///
/// All functions are `unsafe` for one reason only: the caller must
/// guarantee the CPU supports AVX2 **and** FMA (`#[target_feature]`
/// requirement) — [`KernelPolicy::resolve`] and
/// [`crate::vecops::softmax_inplace`] establish this via
/// [`active_backend`]; tests may call these directly under an
/// [`avx2_available`] and [`fma_available`] guard. Shape preconditions are
/// asserted exactly as in the scalar kernels.
#[cfg(target_arch = "x86_64")]
pub mod avx2fma {
    use super::ymm::*;
    use crate::gemm::NT_ROW_TILE;
    use crate::vecops;

    madd_block_kernels!(#[target_feature(enable = "avx2", enable = "fma")], rows = [3, 2, 1]);
    softmax_kernels!(#[target_feature(enable = "avx2", enable = "fma")]);
}

/// The AVX-512 kernels: [`avx2fma`]'s at twice the width
/// (`_mm512_fmadd_ps`). Every output is the same
/// one-rounding-per-term chain in the same term order, and an FMA is
/// correctly rounded, so each output byte equals [`avx2fma`]'s and the
/// scalar reference's: the width moves no score. 16 lanes and 32
/// registers give a tile 6 output rows × 64 columns where the AVX2 kernels
/// hold 3 × 32 (see `madd_block_kernels`). The 16-lane
/// [`softmax`](avx512fma::softmax) equals the scalar definition like
/// [`avx2fma::softmax`] does.
///
/// All functions are `unsafe` for one reason only: the caller must
/// guarantee the CPU supports AVX-512F, AVX2 and FMA (`#[target_feature]`
/// requirement) — [`KernelPolicy::resolve`] and
/// [`crate::vecops::softmax_inplace`] establish this via
/// [`active_backend`]; tests may call these directly under an
/// [`avx512_available`] guard.
#[cfg(target_arch = "x86_64")]
pub mod avx512fma {
    use super::zmm::*;
    use crate::gemm::NT_ROW_TILE;
    use crate::vecops;

    madd_block_kernels!(#[target_feature(enable = "avx512f,avx2,fma")], rows = [6, 4, 2, 1]);
    softmax_kernels!(#[target_feature(enable = "avx512f,avx2,fma")]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(KernelPolicy::Exact.name(), "exact");
        assert_eq!(ResolvedKernel::Scalar.name(), "scalar");
        assert_eq!(ResolvedKernel::Avx2Fma.name(), "avx2+fma");
        assert_eq!(ResolvedKernel::Avx512Fma.name(), "avx512+fma");
    }

    #[test]
    fn exact_is_the_default_policy() {
        assert_eq!(KernelPolicy::default(), KernelPolicy::Exact);
    }

    #[test]
    fn active_backend_is_latched_and_consistent() {
        let first = active_backend();
        assert_eq!(active_backend(), first, "dispatch decision must be stable");
        assert_eq!(KernelPolicy::Exact.resolve(), first);
        match first {
            ResolvedKernel::Avx2Fma => {
                assert!(avx2_available(), "AVX2 backend selected without CPU support");
                assert!(fma_available(), "AVX2 backend selected without FMA");
                assert!(!avx512_available(), "AVX2 backend selected on an AVX-512 CPU");
            }
            ResolvedKernel::Avx512Fma => {
                assert!(avx512_available(), "AVX-512 backend selected without CPU support")
            }
            ResolvedKernel::Scalar => {}
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
    /// every tile remainder `1..=32` is scored at each width, which must
    /// equal `vecops::dot` raw.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn simd_gemm_nt_never_reads_a_stale_tile_column() {
        use crate::gemm::{with_tile_scratch, NT_ROW_TILE};
        let (m, k) = (5, 17);
        let a = ramp(m * k);
        for n in 1..=NT_ROW_TILE {
            let b: Vec<f32> = ramp(n * k).iter().map(|v| 1.0 / (1.0 + v.abs())).collect();
            let b = crate::matrix::Mat::from_vec(n, k, b);
            let check = |out: &[f32], width: &str| {
                for (i, j) in (0..m).flat_map(|i| (0..n).map(move |j| (i, j))) {
                    let want = crate::vecops::dot(&a[i * k..(i + 1) * k], b.row(j));
                    assert_eq!(
                        out[i * n + j].to_bits(),
                        want.to_bits(),
                        "{width} n = {n} [{i},{j}]"
                    );
                }
            };
            let mut out = vec![0.0f32; m * n];
            if avx2_available() && fma_available() {
                with_tile_scratch(k, |tile| tile.fill(f32::NAN));
                // SAFETY: guarded by runtime AVX2 + FMA detection.
                unsafe { avx2fma::gemm_nt_rows(&a, m, k, &b, 0..n, &mut out) };
                check(&out, "ymm");
            }
            if avx512_available() {
                with_tile_scratch(k, |tile| tile.fill(f32::NAN));
                // SAFETY: guarded by runtime AVX-512 detection.
                unsafe { avx512fma::gemm_nt_rows(&a, m, k, &b, 0..n, &mut out) };
                check(&out, "zmm");
            }
        }
    }

    /// The degenerate shapes of the overwrite form: with no inner dimension
    /// every score is the empty sum and `out` must be zeroed, not skipped;
    /// no query rows or no table rows are no-ops on an empty `out`.
    #[test]
    fn gemm_nt_degenerate_shapes() {
        use crate::gemm::gemm_nt_rows_with;
        use crate::matrix::Mat;
        let policy = KernelPolicy::Exact;
        let (m, n) = (5, 70);
        let mut out = vec![1.0f32; m * (n - 3)];
        gemm_nt_rows_with(policy, &[], m, 0, &Mat::zeros(n, 0), 3..n, &mut out);
        assert!(out.iter().all(|v| v.to_bits() == 0), "k = 0 must zero out");
        let b = Mat::filled(n, 4, 1.0);
        gemm_nt_rows_with(policy, &[], 0, 4, &b, 0..n, &mut []);
        gemm_nt_rows_with(policy, &[1.0; 8], 2, 4, &b, 9..9, &mut []);
    }
}
