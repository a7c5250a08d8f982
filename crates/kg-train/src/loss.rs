//! The multi-class loss (full-softmax cross-entropy over all entities, both
//! directions — the loss of Lacroix et al. the paper adopts, Sec. II-A).
//!
//! It produces gradients through the ranking-query hooks of
//! [`kg_models::BlockSpec`] (`q`, `p`) and their backward passes —
//! everything else is dense accumulation handled by the trainer.
//!
//! The multi-class loss has two entry points: [`multiclass_direction`]
//! scores one `(entity, relation)` query with a GEMV — the reference path,
//! kept for gradient tests and single-triple callers, and looped over a
//! block by [`multiclass_block_reference`] — and [`multiclass_block`],
//! which routes a whole mini-batch slice through the batched scoring
//! engine's kernels ([`kg_linalg::gemm`]): one `gemm_nt_with` forward, one
//! `gemm_acc_t_with` for every `dL/dq`, and the rank-`m`
//! `rank_update_with` for the dense entity gradient. The block path
//! performs the same floating-point operations in the same order per
//! output element, so training trajectories are unchanged; only the memory
//! traffic shrinks — the entity table is streamed once per block instead
//! of once per query, and the gradient table is read and written once per
//! block instead of once per query row.

use kg_core::Triple;
use kg_linalg::{KernelPolicy, Mat};
use kg_models::BlockSpec;
use std::ops::{Deref, Range};

/// Scratch buffers of the per-query reference [`multiclass_direction`],
/// reused across queries.
pub struct LossScratch {
    /// Ranking query vector.
    pub q: Vec<f32>,
    /// Gradient of the loss w.r.t. `q`.
    pub dq: Vec<f32>,
    /// Per-entity scores / probabilities.
    pub scores: Vec<f32>,
}

impl LossScratch {
    /// Allocate for `n_entities` candidates and dimension `dim`.
    pub fn new(n_entities: usize, dim: usize) -> Self {
        LossScratch { q: vec![0.0; dim], dq: vec![0.0; dim], scores: vec![0.0; n_entities] }
    }
}

/// Triples per GEMM block in [`multiclass_block`] (two query rows each, so
/// 64 score rows per kernel call). Bounds the score block to
/// `64 × n_entities` floats while still amortising each streaming pass
/// over the entity table across the whole block.
pub const MULTICLASS_BLOCK: usize = 32;

/// A block's query rows (tail row `2i`, head row `2i+1` of triple `i`) and
/// the cuts its conditioning entities make in the entity table — what both
/// halves of the block read and only the block decides. Also carries the
/// [`KernelPolicy`] the block's kernels run under.
pub(crate) struct BlockQueries {
    /// Query rows, `rows × dim`.
    queries: Vec<f32>,
    /// `(conditioning entity, query row)` of every row, sorted.
    cond_rows: Vec<(usize, usize)>,
    /// Query rows of the block built last.
    rows: usize,
    /// Entity rows of the table it was built against.
    n: usize,
    policy: KernelPolicy,
}

impl BlockQueries {
    pub(crate) fn new(dim: usize, policy: KernelPolicy) -> Self {
        let rows = 2 * MULTICLASS_BLOCK;
        BlockQueries {
            queries: vec![0.0; rows * dim],
            cond_rows: Vec::with_capacity(rows),
            rows: 0,
            n: 0,
            policy,
        }
    }

    /// Step 1: the tail query for `(h, r)` and the head query for `(t, r)`
    /// of every triple, and the sorted conditioning cuts.
    fn build(&mut self, spec: &BlockSpec, block: &[Triple], ent: &Mat, rel: &Mat) {
        let dim = ent.cols();
        let dsub = dim / 4;
        (self.rows, self.n) = (2 * block.len(), ent.rows());
        self.cond_rows.clear();
        for (i, tr) in block.iter().enumerate() {
            let (h, r, t) = (tr.h.idx(), tr.r.idx(), tr.t.idx());
            let (tail, head) = self.queries[2 * i * dim..(2 * i + 2) * dim].split_at_mut(dim);
            spec.tail_query(ent.row(h), rel.row(r), tail, dsub);
            spec.head_query(ent.row(t), rel.row(r), head, dsub);
            self.cond_rows.extend([(h, 2 * i), (t, 2 * i + 1)]);
        }
        self.cond_rows.sort_unstable();
    }
}

/// What the row half of a block ([`multiclass_rows`]) leaves for a
/// contiguous range of its query rows, each row's values depending on that
/// row alone.
pub(crate) struct BlockRows {
    /// The block's query rows held here.
    rows: Range<usize>,
    /// `p − onehot` coefficient rows, `n_entities` wide, and one spare row:
    /// [`multiclass_entities`] reads an entity range `e₀..e₁` as the block
    /// starting at column `e₀`, which runs `e₀` floats past the last row.
    coeff: Vec<f32>,
    /// `dL/dq` rows.
    dq: Vec<f32>,
    /// Conditioning-row gradients.
    d_cond: Vec<f32>,
    /// Relation-row gradients.
    d_rel: Vec<f32>,
    /// Cross-entropies.
    ce: Vec<f32>,
}

impl BlockRows {
    /// Room for up to `rows` query rows against `n_entities` entities.
    pub(crate) fn new(rows: usize, n_entities: usize, dim: usize) -> Self {
        BlockRows {
            rows: 0..0,
            coeff: vec![0.0; (rows + 1) * n_entities],
            dq: vec![0.0; rows * dim],
            d_cond: vec![0.0; rows * dim],
            d_rel: vec![0.0; rows * dim],
            ce: Vec::with_capacity(rows),
        }
    }
}

/// Scratch buffers for the batched multi-class path, reused across blocks.
/// Also carries the [`KernelPolicy`] the block's GEMMs run under, so a
/// caller can pin one without new function signatures.
pub struct MulticlassScratch {
    queries: BlockQueries,
    rows: BlockRows,
}

impl MulticlassScratch {
    /// Allocate for `n_entities` candidates and dimension `dim` under an
    /// explicit [`KernelPolicy`].
    pub fn with_policy(n_entities: usize, dim: usize, policy: KernelPolicy) -> Self {
        MulticlassScratch {
            queries: BlockQueries::new(dim, policy),
            rows: BlockRows::new(2 * MULTICLASS_BLOCK, n_entities, dim),
        }
    }

    /// The kernel policy this scratch's GEMMs run under.
    pub fn policy(&self) -> KernelPolicy {
        self.queries.policy
    }
}

/// Batched multi-class loss over up to [`MULTICLASS_BLOCK`] triples: one
/// GEMM scores every `(h, r, ·)` and `(·, r, t)` query of the block against
/// the entity table, one batched transposed product computes every `dL/dq`,
/// and `d_ent` / `d_rel` then receive, element by element, exactly the add
/// sequence of the per-query path (tail direction then head direction,
/// triple by triple) — see step 5b for how the entity gradient keeps that
/// order while touching `d_ent` once. Returns the summed cross-entropy
/// (two directions per triple).
///
/// The block runs in two halves that the training crew splits among its
/// participants: the row half (steps 1–5a) over query rows, then the
/// entity half (step 5b) over entity rows. Here each covers the whole
/// block.
///
/// # Panics
/// Panics if `block` exceeds [`MULTICLASS_BLOCK`] triples.
pub fn multiclass_block(
    spec: &BlockSpec,
    block: &[Triple],
    ent: &Mat,
    rel: &Mat,
    d_ent: &mut Mat,
    d_rel: &mut Mat,
    scratch: &mut MulticlassScratch,
) -> f32 {
    assert!(block.len() <= MULTICLASS_BLOCK, "multiclass_block: block too large");
    let MulticlassScratch { queries, rows } = scratch;
    multiclass_rows(spec, block, ent, rel, queries, rows, 0..2 * block.len());
    let ce = fold_rows(&[&*rows], block, d_rel);
    multiclass_entities(queries, &[&*rows], d_ent, 0..ent.rows());
    ce
}

/// The row half of [`multiclass_block`] for query rows `rows`: build the
/// whole query block into `queries` (the entity half reads every row),
/// then steps 2–5a for `rows` only, into `out`.
pub(crate) fn multiclass_rows(
    spec: &BlockSpec,
    block: &[Triple],
    ent: &Mat,
    rel: &Mat,
    queries: &mut BlockQueries,
    out: &mut BlockRows,
    rows: Range<usize>,
) {
    let (n, dim) = (ent.rows(), ent.cols());
    let dsub = dim / 4;
    let policy = queries.policy;
    queries.build(spec, block, ent, rel);
    out.rows = rows.clone();
    let BlockRows { coeff, dq, d_cond, d_rel, ce, .. } = out;
    ce.clear();
    if rows.is_empty() {
        return;
    }

    // 2. One GEMM scores the rows against the entity table.
    let scores = &mut coeff[..rows.len() * n];
    let q = &queries.queries[rows.start * dim..rows.end * dim];
    kg_linalg::gemm::gemm_nt_with(policy, q, rows.len(), dim, ent, scores);

    // 3. Per row: softmax, cross-entropy, and the `p - onehot` shift.
    for (row, s) in rows.clone().zip(scores.chunks_exact_mut(n)) {
        let tr = block[row / 2];
        let target = if row % 2 == 0 { tr.t.idx() } else { tr.h.idx() };
        kg_linalg::vecops::softmax_inplace(s);
        ce.push(-(s[target].max(1e-12)).ln());
        s[target] -= 1.0;
    }

    // 4. Batched `dL/dq = entᵀ (p - onehot)` for every row at once.
    let dq = &mut dq[..rows.len() * dim];
    kg_linalg::gemm::gemm_acc_t_with(policy, scores, rows.len(), ent, dq);

    // 5a. The query-backward hooks: each row's conditioning-entity and
    // relation-row gradients. They read only `dq` / `ent` / `rel`, so
    // running them before the entity half changes no operand.
    for (i, row) in rows.enumerate() {
        let tr = block[row / 2];
        let (r, cond) = (tr.r.idx(), if row % 2 == 0 { tr.h.idx() } else { tr.t.idx() });
        let dq_row = &dq[i * dim..(i + 1) * dim];
        let d_cond_row = &mut d_cond[i * dim..(i + 1) * dim];
        let d_rel_row = &mut d_rel[i * dim..(i + 1) * dim];
        kg_linalg::vecops::zero(d_cond_row);
        kg_linalg::vecops::zero(d_rel_row);
        let (e_row, r_row) = (ent.row(cond), rel.row(r));
        if row % 2 == 0 {
            spec.tail_query_backward(e_row, r_row, dq_row, d_cond_row, d_rel_row, dsub);
        } else {
            spec.head_query_backward(e_row, r_row, dq_row, d_cond_row, d_rel_row, dsub);
        }
    }
}

/// The block's cross-entropy and relation gradients, from the row half's
/// `pieces` (in row order): both summed in row order, as the per-query
/// path sums them.
pub(crate) fn fold_rows<P: Deref<Target = BlockRows>>(
    pieces: &[P],
    block: &[Triple],
    d_rel: &mut Mat,
) -> f32 {
    let dim = d_rel.cols();
    let mut ce = 0.0f32;
    for p in pieces {
        for (i, row) in p.rows.clone().enumerate() {
            ce += p.ce[i];
            let r = block[row / 2].r.idx();
            kg_linalg::vecops::axpy(1.0, &p.d_rel[i * dim..(i + 1) * dim], d_rel.row_mut(r));
        }
    }
    ce
}

/// The entity half of [`multiclass_block`] (step 5b) over entity rows
/// `ents`, from the row half's `pieces` (in row order, covering every
/// query row): `d_ent` row `i` is entity `ents.start + i`.
///
/// `dL/dE += Σ_row (p − onehot)_row ⊗ q_row`, entity by entity: an entity
/// row's add sequence is term 0, term 1, … whatever the other rows do, so
/// each run of entities that condition no query of the block takes all
/// the terms in one register-resident kernel call per piece. A
/// conditioning entity additionally receives its own `d_cond` right after
/// the term of the query row it conditions: cut the term range there and
/// inject — term k, then row k's `d_cond`. Splitting a kernel call, at a
/// piece boundary or an inject point, stores and reloads an f32 exactly,
/// so no split of rows or entities changes a bit.
pub(crate) fn multiclass_entities<P: Deref<Target = BlockRows>>(
    queries: &BlockQueries,
    pieces: &[P],
    d_ent: &mut Mat,
    ents: Range<usize>,
) {
    let (n, dim, rows) = (queries.n, d_ent.cols(), queries.rows);
    // Terms `terms` of the sum, onto entity rows `es`.
    let update = |d_ent: &mut Mat, es: Range<usize>, terms: Range<usize>| {
        for p in pieces {
            let ks = terms.start.max(p.rows.start)..terms.end.min(p.rows.end);
            if ks.is_empty() {
                continue;
            }
            let (k0, k1) = (ks.start - p.rows.start, ks.end - p.rows.start);
            kg_linalg::gemm::rank_update_with(
                queries.policy,
                &p.coeff[ents.start + k0 * n..ents.start + k1 * n],
                n,
                ks.len(),
                &queries.queries[ks.start * dim..ks.end * dim],
                d_ent,
                es.start - ents.start..es.end - ents.start,
            );
        }
    };
    let cond_rows = &queries.cond_rows;
    let lo = cond_rows.partition_point(|&(e, _)| e < ents.start);
    let hi = cond_rows.partition_point(|&(e, _)| e < ents.end);
    let mut next = ents.start; // first entity row not yet updated
    for group in cond_rows[lo..hi].chunk_by(|a, b| a.0 == b.0) {
        let cond = group[0].0;
        update(d_ent, next..cond, 0..rows);
        let mut k0 = 0; // first term `cond` has not yet received
        for &(_, k) in group {
            update(d_ent, cond..cond + 1, k0..k + 1);
            let p = pieces.iter().find(|p| p.rows.contains(&k)).expect("pieces cover the block");
            let d_cond = &p.d_cond[(k - p.rows.start) * dim..(k - p.rows.start + 1) * dim];
            kg_linalg::vecops::axpy(1.0, d_cond, d_ent.row_mut(cond - ents.start));
            k0 = k + 1;
        }
        update(d_ent, cond..cond + 1, k0..rows);
        next = cond + 1;
    }
    update(d_ent, next..ents.end, 0..rows);
}

/// The per-triple reference of [`multiclass_block`]: one
/// [`multiclass_direction`] per query (tail direction then head direction,
/// triple by triple), each followed by its conditioning-entity and
/// relation-row accumulation. This loop *is* the add order
/// [`multiclass_block`] owes every element of `d_ent` / `d_rel` under
/// [`KernelPolicy::Exact`]; the trajectory tests compare against it bit
/// for bit. Returns the summed cross-entropy (summed in a different
/// grouping than the block path, so equal only up to f32 rounding).
pub fn multiclass_block_reference(
    spec: &BlockSpec,
    block: &[Triple],
    ent: &Mat,
    rel: &Mat,
    d_ent: &mut Mat,
    d_rel: &mut Mat,
    scratch: &mut LossScratch,
) -> f32 {
    let dim = ent.cols();
    let (mut d_cond, mut d_relrow) = (vec![0.0f32; dim], vec![0.0f32; dim]);
    let mut ce = 0.0f32;
    for tr in block {
        let (h, r, t) = (tr.h.idx(), tr.r.idx(), tr.t.idx());
        for (tail_direction, cond, target) in [(true, h, t), (false, t, h)] {
            kg_linalg::vecops::zero(&mut d_cond);
            kg_linalg::vecops::zero(&mut d_relrow);
            ce += multiclass_direction(
                spec,
                tail_direction,
                ent.row(cond),
                rel.row(r),
                target,
                ent,
                &mut d_cond,
                &mut d_relrow,
                d_ent,
                scratch,
            );
            kg_linalg::vecops::axpy(1.0, &d_cond, d_ent.row_mut(cond));
            kg_linalg::vecops::axpy(1.0, &d_relrow, d_rel.row_mut(r));
        }
    }
    ce
}

/// One direction (tail- or head-prediction) of the multi-class loss.
///
/// Computes softmax cross-entropy of the `target` entity against all
/// entities, and accumulates:
/// * `d_cond` — gradient w.r.t. the conditioning entity row (head for
///   tail-prediction),
/// * `d_rel` — gradient w.r.t. the relation row,
/// * `d_ent` — dense gradient w.r.t. the whole entity table (the softmax
///   couples every entity; this is the rank-1 `p qᵀ` term of Lacroix et
///   al.'s full-softmax training).
///
/// Returns the cross-entropy.
#[allow(clippy::too_many_arguments)]
pub fn multiclass_direction(
    spec: &BlockSpec,
    tail_direction: bool,
    cond_row: &[f32],
    rel_row: &[f32],
    target: usize,
    ent: &Mat,
    d_cond: &mut [f32],
    d_rel: &mut [f32],
    d_ent: &mut Mat,
    scratch: &mut LossScratch,
) -> f32 {
    let dsub = cond_row.len() / 4;
    if tail_direction {
        spec.tail_query(cond_row, rel_row, &mut scratch.q, dsub);
    } else {
        spec.head_query(cond_row, rel_row, &mut scratch.q, dsub);
    }
    ent.gemv(&scratch.q, &mut scratch.scores);
    kg_linalg::vecops::softmax_inplace(&mut scratch.scores);
    let ce = -(scratch.scores[target].max(1e-12)).ln();
    // dL/dscores = p - onehot(target)
    scratch.scores[target] -= 1.0;
    // dL/dq = entᵀ (p - onehot)
    ent.gemv_t(&scratch.scores, &mut scratch.dq);
    // dL/dE += (p - onehot) ⊗ q
    d_ent.ger(1.0, &scratch.scores, &scratch.q);
    if tail_direction {
        spec.tail_query_backward(cond_row, rel_row, &scratch.dq, d_cond, d_rel, dsub);
    } else {
        spec.head_query_backward(cond_row, rel_row, &scratch.dq, d_cond, d_rel, dsub);
    }
    ce
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_linalg::SeededRng;
    use kg_models::blm::classics;
    use kg_models::Embeddings;

    fn setup() -> (Embeddings, BlockSpec) {
        let mut rng = SeededRng::new(31);
        (Embeddings::init(8, 2, 8, &mut rng), classics::simple())
    }

    #[test]
    fn multiclass_ce_is_positive_and_finite() {
        let (emb, spec) = setup();
        let mut scratch = LossScratch::new(8, 8);
        let mut d_cond = vec![0.0f32; 8];
        let mut d_rel = vec![0.0f32; 8];
        let mut d_ent = Mat::zeros(8, 8);
        let ce = multiclass_direction(
            &spec,
            true,
            emb.ent.row(0),
            emb.rel.row(0),
            3,
            &emb.ent,
            &mut d_cond,
            &mut d_rel,
            &mut d_ent,
            &mut scratch,
        );
        assert!(ce.is_finite() && ce > 0.0);
        // gradients flowed
        assert!(d_cond.iter().any(|&v| v != 0.0));
        assert!(d_ent.as_slice().iter().any(|&v| v != 0.0));
    }

    /// Full finite-difference check of the multiclass gradient w.r.t. the
    /// conditioning row and the relation row.
    #[test]
    fn multiclass_gradient_matches_finite_differences() {
        let (emb, spec) = setup();
        let mut scratch = LossScratch::new(8, 8);
        let target = 5usize;
        let ce_of = |cond: &[f32], rel: &[f32]| {
            let mut s = LossScratch::new(8, 8);
            spec.tail_query(cond, rel, &mut s.q, 2);
            emb.ent.gemv(&s.q, &mut s.scores);
            kg_linalg::vecops::softmax_inplace(&mut s.scores);
            -(s.scores[target].max(1e-12)).ln()
        };
        let cond: Vec<f32> = emb.ent.row(2).to_vec();
        let rel: Vec<f32> = emb.rel.row(1).to_vec();
        let mut d_cond = vec![0.0f32; 8];
        let mut d_rel = vec![0.0f32; 8];
        let mut d_ent = Mat::zeros(8, 8);
        multiclass_direction(
            &spec,
            true,
            &cond,
            &rel,
            target,
            &emb.ent,
            &mut d_cond,
            &mut d_rel,
            &mut d_ent,
            &mut scratch,
        );
        let eps = 1e-2f32;
        for i in 0..8 {
            let mut cp = cond.clone();
            cp[i] += eps;
            let mut cm = cond.clone();
            cm[i] -= eps;
            let num = (ce_of(&cp, &rel) - ce_of(&cm, &rel)) / (2.0 * eps);
            assert!((num - d_cond[i]).abs() < 2e-2, "d_cond[{i}]: fd {num} vs bp {}", d_cond[i]);
            let mut rp = rel.clone();
            rp[i] += eps;
            let mut rm = rel.clone();
            rm[i] -= eps;
            let num = (ce_of(&cond, &rp) - ce_of(&cond, &rm)) / (2.0 * eps);
            assert!((num - d_rel[i]).abs() < 2e-2, "d_rel[{i}]: fd {num} vs bp {}", d_rel[i]);
        }
    }

    /// The dense entity gradient must also match finite differences —
    /// this exercises the rank-1 `p qᵀ` term. Note for the conditioning
    /// entity the total derivative adds the `d_cond` contribution.
    #[test]
    fn multiclass_entity_table_gradient_matches() {
        let (emb, spec) = setup();
        let mut scratch = LossScratch::new(8, 8);
        let target = 4usize;
        let cond_idx = 2usize;
        let ce_of = |ent: &Mat| {
            let mut s = LossScratch::new(8, 8);
            spec.tail_query(ent.row(cond_idx), emb.rel.row(0), &mut s.q, 2);
            ent.gemv(&s.q, &mut s.scores);
            kg_linalg::vecops::softmax_inplace(&mut s.scores);
            -(s.scores[target].max(1e-12)).ln()
        };
        let mut d_cond = vec![0.0f32; 8];
        let mut d_rel = vec![0.0f32; 8];
        let mut d_ent = Mat::zeros(8, 8);
        multiclass_direction(
            &spec,
            true,
            emb.ent.row(cond_idx),
            emb.rel.row(0),
            target,
            &emb.ent,
            &mut d_cond,
            &mut d_rel,
            &mut d_ent,
            &mut scratch,
        );
        let eps = 1e-2f32;
        for e in [0usize, 4, 7, 2] {
            for i in [0usize, 3, 7] {
                let mut ep = emb.ent.clone();
                ep.set(e, i, ep.get(e, i) + eps);
                let mut em = emb.ent.clone();
                em.set(e, i, em.get(e, i) - eps);
                let num = (ce_of(&ep) - ce_of(&em)) / (2.0 * eps);
                let mut bp = d_ent.get(e, i);
                if e == cond_idx {
                    bp += d_cond[i];
                }
                assert!((num - bp).abs() < 3e-2, "d_ent[{e},{i}]: fd {num} vs bp {bp}");
            }
        }
    }

    /// The batched block path must reproduce the per-triple reference
    /// (tail direction then head direction, triple by triple) bit for bit —
    /// same gradients, same write order, GEMM kernels bit-identical to the
    /// GEMVs they replace.
    #[test]
    fn multiclass_block_matches_per_triple_reference_bit_for_bit() {
        let (emb, spec) = setup();
        let triples: Vec<Triple> =
            vec![Triple::new(0, 0, 3), Triple::new(5, 1, 2), Triple::new(7, 0, 0)];

        // Reference: the pre-batching trainer step, one direction at a time.
        let mut d_ent_ref = Mat::zeros(8, 8);
        let mut d_rel_ref = Mat::zeros(2, 8);
        let mut scratch = LossScratch::new(8, 8);
        let mut ce_ref = 0.0f32;
        for tr in &triples {
            let (h, r, t) = (tr.h.idx(), tr.r.idx(), tr.t.idx());
            for (tail_dir, cond, target) in [(true, h, t), (false, t, h)] {
                let mut d_cond = vec![0.0f32; 8];
                let mut d_relrow = vec![0.0f32; 8];
                ce_ref += multiclass_direction(
                    &spec,
                    tail_dir,
                    emb.ent.row(cond),
                    emb.rel.row(r),
                    target,
                    &emb.ent,
                    &mut d_cond,
                    &mut d_relrow,
                    &mut d_ent_ref,
                    &mut scratch,
                );
                kg_linalg::vecops::axpy(1.0, &d_cond, d_ent_ref.row_mut(cond));
                kg_linalg::vecops::axpy(1.0, &d_relrow, d_rel_ref.row_mut(r));
            }
        }

        let mut d_ent = Mat::zeros(8, 8);
        let mut d_rel = Mat::zeros(2, 8);
        // Pinned to Exact: bit-identity is the exact tier's contract and
        // must hold even when the environment defaults the policy to Fast.
        let mut mc = MulticlassScratch::with_policy(8, 8, KernelPolicy::Exact);
        let ce =
            multiclass_block(&spec, &triples, &emb.ent, &emb.rel, &mut d_ent, &mut d_rel, &mut mc);

        assert_eq!(d_ent.as_slice(), d_ent_ref.as_slice(), "entity gradients differ");
        assert_eq!(d_rel.as_slice(), d_rel_ref.as_slice(), "relation gradients differ");
        // ce is summed in a different grouping (f32), so allow rounding.
        assert!((ce - ce_ref).abs() < 1e-4, "ce {ce} vs reference {ce_ref}");
    }
}
