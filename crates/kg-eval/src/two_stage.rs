//! Two-stage ranking: a quantised coarse scan selects candidates, an
//! exact f32 rescore answers — bit-identical to the reference whenever
//! the coarse pass recalls the entities that matter.
//!
//! The reference evaluators ([`crate::ranking`]) stream full `f32` score
//! rows: `O(n·d)` f32 FLOPs and `4·n·d` bytes of entity table per query.
//! At the million-entity scale that is memory-bandwidth bound. This
//! module answers the same queries in two passes over a quantised mirror
//! of the entity table ([`kg_table::QuantTable`]):
//!
//! 1. **Coarse pass** — score *all* entities as
//!    `s_q · s_e · ⟨q̂, ê⟩` with exact-integer i8 kernels
//!    ([`kg_linalg::qgemm`]) over a 4×-smaller table, keeping the top-C
//!    per query (deterministic order: coarse score descending, entity id
//!    ascending).
//! 2. **Exact pass** — rescore only the C candidates with the *same*
//!    per-row [`kg_linalg::vecops::dot`] the reference paths use
//!    ([`FactorScorer::entity_row`] against the factored query vector),
//!    then fold counts into ranks with the reference arithmetic
//!    ([`crate::ranking::filtered_rank`]'s shared core).
//!
//! # Exactness and certification
//!
//! A two-stage rank equals the reference `filtered_rank` — as in,
//! the same `f64` bit pattern — iff every non-excluded entity whose
//! exact f32 score ties or beats the target's is a candidate. The scan
//! certifies that from two facts it gets for free:
//!
//! * every rejected (non-candidate) entity's coarse score is `≤ thr`,
//!   the final selection threshold — rejection *means* falling below it;
//! * every entity's exact score is `≤ coarse_e + slack_e` with `slack_e`
//!   the sound per-row error bound derived in the [`kg_table`] crate
//!   docs ([`kg_table::CertCoeffs`]), and
//!   `slack_e = c1·(s_e·‖ê‖₁) + c0·s_e` is monotone in two per-row
//!   quantities whose **table-wide maxima** are query-independent.
//!
//! So `thr + |thr|·ε + c1·max(s_e·‖ê‖₁) + c0·max(s_e)` bounds every
//! rejected entity's exact score — no per-rejection bookkeeping at all.
//! When that bound sits strictly below the target's exact score — and
//! the table, the query, and an f32-overflow magnitude guard are all
//! clean — no missed entity could have counted, and the answer is
//! **certified** exact ([`QueryOutcome::certified`]). The aggregate
//! bound is looser than a per-rejection maximum (it charges every
//! rejection the worst row's slack), which costs some certifications at
//! small budgets but none of the soundness; in exchange the hot loop
//! does nothing per rejected entity. The comparisons themselves carry
//! orders of magnitude more headroom than f64 evaluation-order noise:
//! `c1`/`c0` are inflated by `F64_SLOP` (≈ 10⁻⁶ relative) and the
//! threshold by `COARSE_EVAL_SLOP` (10⁻¹²), both ≫ the ≈ 10⁻¹⁶
//! rounding of the bound's own arithmetic. Certification is sufficient,
//! not necessary: uncertified answers are usually still exact, which is
//! what recall@C measures empirically (the equivalence suite and the
//! `rank_1M_d64` bench both report it).
//!
//! The overflow guard exists because the bound lives in f64 while the
//! reference scores live in f32: a rejected entity whose true dot
//! magnitude could approach `f32::MAX` might overflow to `±inf` in the
//! reference's f32 arithmetic, which the finite f64 bound cannot see.
//! Guarding the coarse-derived magnitude bound `max_j|q_j| · Σ_j|x_j|`
//! at half of `f32::MAX` rules that out.
//!
//! # Determinism
//!
//! Outcomes are byte-identical for every thread count, backend and
//! candidate buffer state: queries are partitioned into contiguous
//! chunks, each query's scan is a fixed-order pass over fixed-size
//! entity chunks, the integer kernels are exact and the coarse sift
//! evaluates one IEEE-pinned f64 expression
//! ([`kg_linalg::qgemm::coarse_sift`] — backend-identical by
//! construction), and the streamed top-C selection is a pure function
//! of the (coarse, id) total order. The sift filters against the
//! threshold frozen at chunk entry — a lower bound of the live one — so
//! it admits a superset of what the buffer can accept, and the buffer's
//! own exact re-check leaves the selected set identical to an unsifted
//! scan. Entities whose coarse score is NaN (possible only for
//! non-finite scales, which also void certification) are rejections in
//! every backend.

use crate::engine::BLOCK;
use crate::ranking::{rank_from_counts, top_k_cmp, RankMetrics};
use kg_core::{EntityId, FilterIndex, Triple};
use kg_linalg::{qgemm, vecops};
use kg_models::FactorScorer;
use kg_table::{quantise_row_into, CertCoeffs, QuantTable, QuantView, EPS_HALF};

/// Entities scored per i8 GEMM call during the coarse scan — small
/// enough that a query block's i32 dot panel stays cache-resident,
/// large enough to amortise the kernel's row loop.
const COARSE_CHUNK: usize = 4096;

/// Relative slop on the f64 coarse score folded into the upper bound:
/// computing `(s_q·s_e)·I` in f64 rounds at most twice (≈ 2·2⁻⁵³
/// relative), so 10⁻¹² of headroom is four orders of magnitude more
/// than needed — and also absorbs the final `coarse + slack` additions.
const COARSE_EVAL_SLOP: f64 = 1e-12;

/// Magnitude ceiling for certification: if any rejected entity's
/// `max|q| · Σ|x|` bound reaches this, its f32 reference score could
/// overflow to `±inf` and escape the f64 upper bound, so certification
/// is refused.
const OVERFLOW_GUARD: f64 = f32::MAX as f64 * 0.5;

/// Knobs of a two-stage evaluation.
#[derive(Debug, Clone, Copy)]
pub struct TwoStageConfig {
    /// Candidate budget C: how many coarse winners survive to the exact
    /// rescore. Must be at least 1; `C ≥ n_entities` degrades gracefully
    /// to an exact (single-tier) evaluation.
    pub candidates: usize,
    /// Worker threads for the query-parallel scan (queries are split
    /// into contiguous chunks; results are byte-identical for every
    /// value). Clamped to at least 1.
    pub n_threads: usize,
}

impl TwoStageConfig {
    /// Single-threaded config with candidate budget `candidates`.
    pub fn new(candidates: usize) -> TwoStageConfig {
        TwoStageConfig { candidates, n_threads: 1 }
    }

    /// Same config with `n_threads` workers.
    pub fn with_threads(mut self, n_threads: usize) -> TwoStageConfig {
        self.n_threads = n_threads;
        self
    }
}

/// One ranking query's two-stage answer.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Filtered rank computed from the candidates — equal to the
    /// reference [`crate::ranking::filtered_rank`] bit for bit whenever
    /// the coarse pass recalled every entity that ties or beats the
    /// target (always, when [`QueryOutcome::certified`]).
    pub rank: f64,
    /// Whether the certification bound *proves* this rank exact (see the
    /// module docs). `false` does not mean wrong — only unproven.
    pub certified: bool,
    /// The coarse top-C candidate entities, coarse score descending with
    /// ties broken by id ascending. Exposed so callers can measure
    /// recall@C against any reference they care about.
    pub candidates: Vec<u32>,
}

/// Aggregate of a two-stage evaluation: the reference-shaped metrics
/// plus how many of the per-query answers were certified exact.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoStageMetrics {
    /// Rank metrics folded with the reference arithmetic and query
    /// order, so an all-certified run equals `evaluate_sequential`
    /// byte for byte.
    pub metrics: RankMetrics,
    /// Number of query outcomes (out of `metrics.n_queries`) whose
    /// exactness was certified.
    pub certified: usize,
}

/// A two-stage top-k answer: `(entity, exact f32 score)` pairs in the
/// reference [`crate::ranking::top_k`] order, plus the certification
/// flag (when `true`, `entries` equals the reference answer byte for
/// byte).
#[derive(Debug, Clone, PartialEq)]
pub struct TwoStageTopK {
    /// At most `min(k, C, n_entities)` pairs, score descending, ties by
    /// id ascending, NaN strictly last.
    pub entries: Vec<(usize, f32)>,
    /// Whether the candidate bound proves `entries` equals the full
    /// reference top-k.
    pub certified: bool,
}

/// Quantise a factorising model's entity table into an owned coarse
/// tier. Image-backed models ([`kg_models::ImageBlmModel`]) should use
/// their baked-in [`kg_models::ImageBlmModel::quant`] view instead —
/// that one is zero-copy and was checksummed at build time.
pub fn quantise_scorer<M: FactorScorer + ?Sized>(model: &M) -> QuantTable {
    QuantTable::from_row_iter((0..model.n_entities()).map(|e| model.entity_row(e)), model.dim())
}

/// Per-query precomputation: the quantisation summary and certification
/// coefficients, all in f64.
struct QueryQuant {
    /// Query scale `s_q`.
    sq: f64,
    /// `s_q · (127 + ε)` — upper bound on `max_j |q_j|`.
    qmax: f64,
    /// [`CertCoeffs::c1`].
    c1: f64,
    /// [`CertCoeffs::c0`].
    c0: f64,
    /// Whether the query vector was entirely finite.
    finite: bool,
}

impl QueryQuant {
    fn from_scale_l1(scale: f32, l1: u32, finite: bool, dim: usize) -> QueryQuant {
        let cc = CertCoeffs::new(scale, l1, dim);
        let sq = scale as f64;
        QueryQuant { sq, qmax: sq * (127.0 + EPS_HALF), c1: cc.c1, c0: cc.c0, finite }
    }
}

/// The table-wide aggregates that turn the per-query certification into
/// O(1) arithmetic: the slack and magnitude bounds are monotone in
/// `s_e·‖ê‖₁` and `s_e`, so their maxima bound every row's. Computed
/// once per evaluation ([`table_aggregates`]).
#[derive(Debug, Clone, Copy)]
struct TableAggregates {
    /// `max_e (s_e · ‖ê‖₁)` in f64.
    sel1_max: f64,
    /// `max_e s_e` in f64.
    se_max: f64,
    /// `dim · (1/2 + ε)` — the code-rounding term of the magnitude bound.
    d_eps: f64,
}

fn table_aggregates(quant: QuantView<'_>) -> TableAggregates {
    let mut sel1_max = 0.0f64;
    let mut se_max = 0.0f64;
    for (&s, &l1) in quant.scales().iter().zip(quant.l1_norms().iter()) {
        let se = s as f64;
        se_max = se_max.max(se);
        sel1_max = sel1_max.max(se * l1 as f64);
    }
    TableAggregates { sel1_max, se_max, d_eps: quant.dim() as f64 * EPS_HALF }
}

/// Streaming top-C selection over `(coarse, id)`. Rejections need no
/// per-entity bookkeeping: the certification bound is reconstructed at
/// [`TopCBuf::finish`] from the final threshold and the table-wide
/// slack maxima (see the module docs), so rejecting an entity is free —
/// which is what lets the scan sift whole chunks through
/// [`kg_linalg::qgemm::coarse_sift`] and touch only the survivors.
///
/// Invariant: `entries` is always a superset of the true top-`cap` of
/// the entities offered so far, every rejected entity's coarse score is
/// `≤ thr` at the moment of rejection (and `thr` only rises), and
/// `any_rejected` is set iff some entity was sifted out, rejected or
/// evicted.
struct TopCBuf {
    /// `(coarse, entity)` — at most `2·cap` live entries.
    entries: Vec<(f64, u32)>,
    cap: usize,
    /// Coarse score of the `cap`-th best entry at the last compression;
    /// anything at or above must be kept (ids only break exact ties, so
    /// a strictly-worse coarse score can never re-enter the top-`cap`).
    thr: f64,
    /// Whether `thr` is meaningful yet.
    full: bool,
    /// Whether any offered entity was rejected — when `false`, every
    /// entity is a candidate and the certification bound is `-∞`.
    any_rejected: bool,
    /// Upper bound on every rejected entity's exact score, set at
    /// [`TopCBuf::finish`]; `-∞` when nothing was rejected.
    bound: f64,
    /// Upper bound on every rejected entity's `max|q|·Σ|x|` overflow
    /// magnitude, set at [`TopCBuf::finish`]; `0` when nothing was
    /// rejected.
    mag: f64,
}

/// Coarse order: score descending, entity id ascending. NaN coarse
/// scores never enter the buffer — the sift rejects them in every
/// backend — and anything else is comparable (finite or ±∞).
fn cmp_coarse(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    b.0.partial_cmp(&a.0).expect("coarse scores are never NaN").then(a.1.cmp(&b.1))
}

impl TopCBuf {
    fn new(cap: usize) -> TopCBuf {
        assert!(cap > 0, "two_stage: candidate budget must be at least 1");
        TopCBuf {
            entries: Vec::with_capacity(2 * cap),
            cap,
            thr: f64::NEG_INFINITY,
            full: false,
            any_rejected: false,
            bound: f64::NEG_INFINITY,
            mag: 0.0,
        }
    }

    /// The threshold the sift of the next chunk must use: a frozen lower
    /// bound of the live threshold, so the sift admits a superset of
    /// what [`TopCBuf::offer`] can accept.
    fn sift_thr(&self) -> f64 {
        if self.full {
            self.thr
        } else {
            f64::NEG_INFINITY
        }
    }

    fn offer(&mut self, coarse: f64, e: u32) {
        if !self.full || coarse >= self.thr {
            self.entries.push((coarse, e));
            if self.entries.len() >= 2 * self.cap {
                self.compress();
            }
        } else {
            self.any_rejected = true;
        }
    }

    /// Partition the exact top-`cap` to the front, tighten the
    /// threshold. Every evicted entry's coarse score is `≤` the new
    /// threshold by construction of the partition.
    fn compress(&mut self) {
        debug_assert!(self.entries.len() > self.cap);
        self.entries.select_nth_unstable_by(self.cap - 1, cmp_coarse);
        self.entries.truncate(self.cap);
        self.thr = self.entries[self.cap - 1].0;
        self.full = true;
        self.any_rejected = true;
    }

    /// Final compression, deterministic ordering of the candidates, and
    /// the certification bounds: every rejected entity has coarse score
    /// `≤ thr` and slack `≤ c1·max(s_e·‖ê‖₁) + c0·max(s_e)`, so the sum
    /// (plus the coarse-evaluation slop) bounds every rejected exact
    /// score. With no rejections the bounds stay at their `-∞`/`0`
    /// identities and certification is automatic.
    fn finish(&mut self, pq: &QueryQuant, agg: TableAggregates) {
        if self.entries.len() > self.cap {
            self.compress();
        }
        self.entries.sort_unstable_by(cmp_coarse);
        if self.any_rejected {
            let slack_max = pq.c1 * agg.sel1_max + pq.c0 * agg.se_max;
            self.bound = self.thr + self.thr.abs() * COARSE_EVAL_SLOP + slack_max;
            self.mag = pq.qmax * (agg.sel1_max + agg.d_eps * agg.se_max);
        }
    }
}

/// One flattened ranking query: direction, the two query-defining ids
/// (`(h, r)` for tails, `(r, t)` for heads), the target entity, and the
/// filter's completion list.
struct QuerySpec<'a> {
    tails: bool,
    x: usize,
    y: usize,
    target: usize,
    known: &'a [EntityId],
}

/// Coarse-scan a block of quantised queries (`qcodes` is row-major
/// `m × dim`) against the whole table, returning each query's finished
/// [`TopCBuf`]. `dots` is scratch for at least `m · COARSE_CHUNK` i32s.
///
/// Per chunk and query the work is one i8 GEMM stripe plus one
/// [`qgemm::coarse_sift`] pass; only the sift survivors — a superset of
/// the entities the buffer can still accept, re-checked exactly by
/// [`TopCBuf::offer`] — pay the scalar f64 path, so the selected set is
/// byte-identical to an unsifted scan at a fraction of its cost.
fn coarse_scan(
    quant: QuantView<'_>,
    qcodes: &[i8],
    pqs: &[QueryQuant],
    c: usize,
    agg: TableAggregates,
    dots: &mut [i32],
) -> Vec<TopCBuf> {
    let m = pqs.len();
    let dim = quant.dim();
    let n = quant.n_rows();
    let scales = quant.scales();
    let mut bufs: Vec<TopCBuf> = (0..m).map(|_| TopCBuf::new(c)).collect();
    let mut passers: Vec<u32> = Vec::new();
    let mut start = 0usize;
    while start < n {
        let end = (start + COARSE_CHUNK).min(n);
        let w = end - start;
        qgemm::gemm_i8_nt_rows(qcodes, m, dim, quant.codes(), n, start..end, &mut dots[..m * w]);
        for (i, buf) in bufs.iter_mut().enumerate() {
            let pq = &pqs[i];
            let chunk_dots = &dots[i * w..(i + 1) * w];
            passers.clear();
            qgemm::coarse_sift(
                chunk_dots,
                &scales[start..end],
                pq.sq,
                buf.sift_thr(),
                start as u32,
                &mut passers,
            );
            if passers.len() < w {
                buf.any_rejected = true;
            }
            for &e in &passers {
                let idx = e as usize;
                let se = scales[idx] as f64;
                // Same expression order as QuantView::coarse_score and
                // the sift, so per-row spot checks agree bitwise.
                let coarse = (pq.sq * se) * chunk_dots[idx - start] as f64;
                buf.offer(coarse, e);
            }
        }
        start = end;
    }
    for (buf, pq) in bufs.iter_mut().zip(pqs.iter()) {
        buf.finish(pq, agg);
    }
    bufs
}

/// Exact rescore of one query's candidates: the reference per-entity
/// dot (`vecops::dot(entity_row, q)` — bit-identical to the score-row
/// element by the [`FactorScorer`] contract) and the reference counting
/// rule, restricted to the candidate set.
fn rescore_rank<M: FactorScorer + ?Sized>(
    model: &M,
    q: &[f32],
    buf: &TopCBuf,
    target: usize,
    known: &[EntityId],
) -> (f64, f32) {
    let t_s = vecops::dot(model.entity_row(target), q);
    let mut better = 0i64;
    let mut ties = 0i64;
    for &(_, e) in &buf.entries {
        let ei = e as usize;
        if ei == target || known.iter().any(|k| k.idx() == ei) {
            continue;
        }
        let s = vecops::dot(model.entity_row(ei), q);
        // NaN scores count nothing, NaN t_s counts nothing — exactly the
        // reference's count_cmp semantics.
        if s > t_s {
            better += 1;
        } else if s == t_s {
            ties += 1;
        }
    }
    (rank_from_counts(better, ties), t_s)
}

/// Process a contiguous run of queries (one worker's share), block by
/// block. Pure per query, so the concatenation over any partition of
/// the specs is byte-identical.
fn process_specs<M: FactorScorer + ?Sized>(
    model: &M,
    quant: QuantView<'_>,
    specs: &[QuerySpec<'_>],
    c: usize,
    agg: TableAggregates,
) -> Vec<QueryOutcome> {
    let dim = quant.dim();
    let mut out = Vec::with_capacity(specs.len());
    let mut qvecs = vec![0.0f32; BLOCK * dim];
    let mut qcodes = vec![0i8; BLOCK * dim];
    let mut dots = vec![0i32; BLOCK * COARSE_CHUNK];
    for block in specs.chunks(BLOCK) {
        let m = block.len();
        let mut pqs = Vec::with_capacity(m);
        for (i, spec) in block.iter().enumerate() {
            let q = &mut qvecs[i * dim..(i + 1) * dim];
            if spec.tails {
                model.tail_query_into(spec.x, spec.y, q);
            } else {
                model.head_query_into(spec.x, spec.y, q);
            }
            let rq = quantise_row_into(q, &mut qcodes[i * dim..(i + 1) * dim]);
            pqs.push(QueryQuant::from_scale_l1(rq.scale, rq.l1, rq.finite, dim));
        }
        let bufs = coarse_scan(quant, &qcodes[..m * dim], &pqs, c, agg, &mut dots);
        for (i, spec) in block.iter().enumerate() {
            let q = &qvecs[i * dim..(i + 1) * dim];
            let buf = &bufs[i];
            let (rank, t_s) = rescore_rank(model, q, buf, spec.target, spec.known);
            // Strict comparison: a NaN target score certifies nothing.
            let certified = quant.all_finite()
                && pqs[i].finite
                && buf.mag < OVERFLOW_GUARD
                && buf.bound < t_s as f64;
            out.push(QueryOutcome {
                rank,
                certified,
                candidates: buf.entries.iter().map(|e| e.1).collect(),
            });
        }
    }
    out
}

/// Two-stage answers for every ranking query of `triples` — two per
/// triple (tail direction then head direction), in triple order, the
/// same flattening as [`crate::ranking::evaluate_sequential`].
///
/// `quant` must mirror `model`'s entity table: pass
/// [`kg_models::ImageBlmModel::quant`] for image-backed models (zero
/// copy) or [`quantise_scorer`]'s view for in-memory ones.
///
/// # Panics
/// Panics when `cfg.candidates == 0` or when `quant`'s shape disagrees
/// with the model.
pub fn two_stage_outcomes<M: FactorScorer + Sync>(
    model: &M,
    quant: QuantView<'_>,
    triples: &[Triple],
    filter: &FilterIndex,
    cfg: TwoStageConfig,
) -> Vec<QueryOutcome> {
    assert!(cfg.candidates > 0, "two_stage: candidate budget must be at least 1");
    assert_eq!(quant.n_rows(), model.n_entities(), "two_stage: quant table row count mismatch");
    assert_eq!(quant.dim(), model.dim(), "two_stage: quant table dimension mismatch");
    let specs: Vec<QuerySpec<'_>> = triples
        .iter()
        .flat_map(|t| {
            [
                QuerySpec {
                    tails: true,
                    x: t.h.idx(),
                    y: t.r.idx(),
                    target: t.t.idx(),
                    known: filter.tails(t.h, t.r),
                },
                QuerySpec {
                    tails: false,
                    x: t.r.idx(),
                    y: t.t.idx(),
                    target: t.h.idx(),
                    known: filter.heads(t.r, t.t),
                },
            ]
        })
        .collect();
    let c = cfg.candidates;
    let agg = table_aggregates(quant);
    let n_threads = cfg.n_threads.max(1).min(specs.len().max(1));
    if n_threads <= 1 {
        return process_specs(model, quant, &specs, c, agg);
    }
    // One contiguous run of queries per thread; outcomes are pure per
    // query, so concatenating the runs in order is the sequential answer.
    let runs: Vec<&[QuerySpec<'_>]> = specs.chunks(specs.len().div_ceil(n_threads)).collect();
    crate::crew::fan_out(n_threads, runs.len(), |i| process_specs(model, quant, runs[i], c, agg))
        .into_iter()
        .flatten()
        .collect()
}

/// Fold per-query outcomes into aggregate metrics, with the reference
/// accumulation order — so when every query recalled its winner set the
/// result equals [`crate::ranking::evaluate_sequential`] byte for byte.
pub fn fold_outcomes(outcomes: &[QueryOutcome]) -> TwoStageMetrics {
    let mut metrics = RankMetrics::zero();
    let mut certified = 0usize;
    for o in outcomes {
        metrics.accumulate(o.rank);
        if o.certified {
            certified += 1;
        }
    }
    TwoStageMetrics { metrics: metrics.normalised(), certified }
}

/// [`two_stage_outcomes`] folded into aggregate metrics — the two-stage
/// counterpart of [`crate::ranking::evaluate_with`].
pub fn evaluate_two_stage<M: FactorScorer + Sync>(
    model: &M,
    quant: QuantView<'_>,
    triples: &[Triple],
    filter: &FilterIndex,
    cfg: TwoStageConfig,
) -> TwoStageMetrics {
    fold_outcomes(&two_stage_outcomes(model, quant, triples, filter, cfg))
}

/// Two-stage top-k tails of `(h, r, ?)`: coarse-select `candidates`
/// entities, rescore them exactly, order with the reference
/// [`crate::ranking::top_k`] comparator. Certified answers equal the
/// full-table reference byte for byte.
///
/// # Panics
/// Panics when `candidates == 0` or on a quant/model shape mismatch.
pub fn two_stage_top_k_tails<M: FactorScorer + ?Sized>(
    model: &M,
    quant: QuantView<'_>,
    h: usize,
    r: usize,
    k: usize,
    candidates: usize,
) -> TwoStageTopK {
    two_stage_top_k(model, quant, true, h, r, k, candidates)
}

/// Two-stage top-k heads of `(?, r, t)` — the head-direction counterpart
/// of [`two_stage_top_k_tails`].
pub fn two_stage_top_k_heads<M: FactorScorer + ?Sized>(
    model: &M,
    quant: QuantView<'_>,
    r: usize,
    t: usize,
    k: usize,
    candidates: usize,
) -> TwoStageTopK {
    two_stage_top_k(model, quant, false, r, t, k, candidates)
}

fn two_stage_top_k<M: FactorScorer + ?Sized>(
    model: &M,
    quant: QuantView<'_>,
    tails: bool,
    x: usize,
    y: usize,
    k: usize,
    c: usize,
) -> TwoStageTopK {
    assert!(c > 0, "two_stage: candidate budget must be at least 1");
    assert_eq!(quant.n_rows(), model.n_entities(), "two_stage: quant table row count mismatch");
    assert_eq!(quant.dim(), model.dim(), "two_stage: quant table dimension mismatch");
    let dim = quant.dim();
    let mut qvec = vec![0.0f32; dim];
    if tails {
        model.tail_query_into(x, y, &mut qvec);
    } else {
        model.head_query_into(x, y, &mut qvec);
    }
    let mut qcodes = vec![0i8; dim];
    let rq = quantise_row_into(&qvec, &mut qcodes);
    let pq = QueryQuant::from_scale_l1(rq.scale, rq.l1, rq.finite, dim);
    let mut dots = vec![0i32; COARSE_CHUNK];
    let agg = table_aggregates(quant);
    let bufs = coarse_scan(quant, &qcodes, std::slice::from_ref(&pq), c, agg, &mut dots);
    let buf = &bufs[0];
    let mut entries: Vec<(usize, f32)> = buf
        .entries
        .iter()
        .map(|e| {
            let ei = e.1 as usize;
            (ei, vecops::dot(model.entity_row(ei), &qvec))
        })
        .collect();
    entries.sort_unstable_by(top_k_cmp);
    // How many entries the full-table reference would return.
    let kk = k.min(quant.n_rows());
    entries.truncate(k.min(entries.len()));
    let certified = if kk == 0 {
        true
    } else if entries.len() < kk {
        // Fewer candidates than the reference answer is long.
        false
    } else {
        let kth = entries[kk - 1].1;
        // A NaN k-th score certifies nothing (and under the finiteness +
        // overflow preconditions it cannot occur anyway).
        quant.all_finite()
            && pq.finite
            && buf.mag < OVERFLOW_GUARD
            && !kth.is_nan()
            && buf.bound < kth as f64
    };
    TwoStageTopK { entries, certified }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking;
    use kg_models::{classics, BlmModel, Embeddings, LinkPredictor};

    fn model(seed: u64, n: usize, dim: usize) -> BlmModel {
        let mut rng = kg_linalg::SeededRng::new(seed);
        BlmModel::new(classics::complex(), Embeddings::init(n, 3, dim, &mut rng))
    }

    fn triples(n_e: usize, n_r: usize, n: usize, seed: u64) -> Vec<Triple> {
        let mut rng = kg_linalg::SeededRng::new(seed);
        (0..n)
            .map(|_| {
                Triple::new(rng.below(n_e) as u32, rng.below(n_r) as u32, rng.below(n_e) as u32)
            })
            .collect()
    }

    #[test]
    fn full_candidate_budget_reproduces_the_sequential_reference() {
        let m = model(7, 30, 8);
        let ts = triples(30, 3, 12, 11);
        let filter = FilterIndex::build(&ts);
        let table = quantise_scorer(&m);
        let two = evaluate_two_stage(&m, table.view(), &ts, &filter, TwoStageConfig::new(30));
        let reference = ranking::evaluate_sequential(&m, &ts, &filter);
        assert_eq!(two.metrics, reference);
        // With every entity a candidate the bound is -inf: all certified.
        assert_eq!(two.certified, two.metrics.n_queries);
    }

    #[test]
    fn certified_outcomes_match_per_query_reference_ranks() {
        let m = model(3, 64, 16);
        let ts = triples(64, 3, 20, 5);
        let filter = FilterIndex::build(&ts);
        let table = quantise_scorer(&m);
        for c in [1, 4, 16] {
            let outs = two_stage_outcomes(&m, table.view(), &ts, &filter, TwoStageConfig::new(c));
            let mut scores = vec![0.0f32; m.n_entities()];
            for (q, o) in outs.iter().enumerate() {
                let t = &ts[q / 2];
                let (target, known) = if q % 2 == 0 {
                    m.score_tails(t.h.idx(), t.r.idx(), &mut scores);
                    (t.t.idx(), filter.tails(t.h, t.r))
                } else {
                    m.score_heads(t.r.idx(), t.t.idx(), &mut scores);
                    (t.h.idx(), filter.heads(t.r, t.t))
                };
                assert_eq!(o.candidates.len(), c.min(m.n_entities()));
                if o.certified {
                    let want = ranking::filtered_rank(&scores, target, known);
                    assert_eq!(o.rank.to_bits(), want.to_bits(), "query {q} at C={c}");
                }
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_outcomes() {
        let m = model(9, 48, 8);
        let ts = triples(48, 3, 15, 2);
        let filter = FilterIndex::build(&ts);
        let table = quantise_scorer(&m);
        let base = two_stage_outcomes(&m, table.view(), &ts, &filter, TwoStageConfig::new(8));
        for threads in [2, 3, 7] {
            let got = two_stage_outcomes(
                &m,
                table.view(),
                &ts,
                &filter,
                TwoStageConfig::new(8).with_threads(threads),
            );
            assert_eq!(base, got, "{threads} threads");
        }
    }

    #[test]
    fn top_k_with_full_coverage_matches_the_reference() {
        let m = model(21, 40, 8);
        let table = quantise_scorer(&m);
        let mut scores = vec![0.0f32; m.n_entities()];
        m.score_tails(5, 1, &mut scores);
        let two = two_stage_top_k_tails(&m, table.view(), 5, 1, 10, 40);
        assert!(two.certified);
        assert_eq!(two.entries, ranking::top_k(&scores, 10));
        m.score_heads(2, 7, &mut scores);
        let two = two_stage_top_k_heads(&m, table.view(), 2, 7, 3, 40);
        assert!(two.certified);
        assert_eq!(two.entries, ranking::top_k(&scores, 3));
    }

    #[test]
    fn certified_top_k_matches_the_reference_at_small_budgets() {
        let m = model(13, 50, 16);
        let table = quantise_scorer(&m);
        let mut scores = vec![0.0f32; m.n_entities()];
        let mut certified = 0;
        for (h, r) in [(0, 0), (3, 1), (17, 2), (42, 0), (8, 1)] {
            for c in [2, 8, 25] {
                let two = two_stage_top_k_tails(&m, table.view(), h, r, 2, c);
                if two.certified {
                    certified += 1;
                    m.score_tails(h, r, &mut scores);
                    assert_eq!(two.entries, ranking::top_k(&scores, 2), "({h},{r}) C={c}");
                }
            }
        }
        assert!(certified > 0, "no budget certified anything — bound is vacuous");
    }

    #[test]
    fn nonfinite_rows_disable_certification_but_not_ranking() {
        let mut m = model(4, 20, 8);
        let dim = m.emb.dim();
        m.emb.ent.as_mut_slice()[3 * dim] = f32::NAN;
        let ts = triples(20, 3, 6, 8);
        let filter = FilterIndex::build(&ts);
        let table = quantise_scorer(&m);
        assert!(!table.all_finite());
        let outs = two_stage_outcomes(&m, table.view(), &ts, &filter, TwoStageConfig::new(20));
        assert!(outs.iter().all(|o| !o.certified));
        assert!(outs.iter().all(|o| o.rank >= 1.0));
    }

    #[test]
    #[should_panic(expected = "candidate budget must be at least 1")]
    fn zero_candidate_budget_is_rejected() {
        let m = model(1, 10, 8);
        let table = quantise_scorer(&m);
        let ts = triples(10, 3, 1, 1);
        let filter = FilterIndex::build(&ts);
        two_stage_outcomes(&m, table.view(), &ts, &filter, TwoStageConfig::new(0));
    }

    #[test]
    fn quantise_scorer_matches_the_contiguous_quantiser() {
        let m = model(17, 12, 8);
        let a = quantise_scorer(&m);
        let b = QuantTable::from_rows(m.emb.ent.as_slice(), 12, m.emb.dim());
        assert_eq!(a.view().codes(), b.view().codes());
        assert_eq!(a.view().scales(), b.view().scales());
        assert_eq!(a.view().l1_norms(), b.view().l1_norms());
        assert_eq!(a.all_finite(), b.all_finite());
    }
}
