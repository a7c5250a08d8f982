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
use std::ops::Range;

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

/// Scratch buffers for the batched multi-class path, reused across blocks.
/// Also carries the [`KernelPolicy`] the block's GEMMs run under, so
/// training can A/B the relaxed tier without new function signatures.
pub struct MulticlassScratch {
    /// Query rows, `2·block × dim` (tail row `2i`, head row `2i+1`).
    queries: Vec<f32>,
    /// Score rows, `2·block × n_entities`; softmaxed then shifted in place.
    scores: Vec<f32>,
    /// `dL/dq` rows, `2·block × dim`.
    dq: Vec<f32>,
    /// Conditioning-row gradients, one per query row (`2·block × dim`).
    d_cond: Vec<f32>,
    /// Per-query relation-row gradient (`dim`).
    d_relrow: Vec<f32>,
    /// `(conditioning entity, query row)` of every row, sorted: the cuts
    /// the entity-gradient pass makes in the entity table.
    cond_rows: Vec<(usize, usize)>,
    /// Kernel policy for the block's forward and backward GEMMs.
    policy: KernelPolicy,
}

impl MulticlassScratch {
    /// Allocate for `n_entities` candidates and dimension `dim` under an
    /// explicit [`KernelPolicy`].
    pub fn with_policy(n_entities: usize, dim: usize, policy: KernelPolicy) -> Self {
        let rows = 2 * MULTICLASS_BLOCK;
        MulticlassScratch {
            queries: vec![0.0; rows * dim],
            scores: vec![0.0; rows * n_entities],
            dq: vec![0.0; rows * dim],
            d_cond: vec![0.0; rows * dim],
            d_relrow: vec![0.0; dim],
            cond_rows: Vec::with_capacity(rows),
            policy,
        }
    }

    /// The kernel policy this scratch's GEMMs run under.
    pub fn policy(&self) -> KernelPolicy {
        self.policy
    }
}

/// Batched multi-class loss over up to [`MULTICLASS_BLOCK`] triples: one
/// GEMM scores every `(h, r, ·)` and `(·, r, t)` query of the block against
/// the entity table, one batched transposed product computes every `dL/dq`,
/// and `d_ent` / `d_rel` then receive, element by element, exactly the add
/// sequence of the per-query path (tail direction then head direction,
/// triple by triple) — see step 5 for how the entity gradient keeps that
/// order while touching `d_ent` once. Returns the summed cross-entropy
/// (two directions per triple).
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
    let n = ent.rows();
    let dim = ent.cols();
    let dsub = dim / 4;
    let rows = 2 * block.len();

    // 1. Build the query block: tail query for (h, r), head query for (t, r).
    let queries = &mut scratch.queries[..rows * dim];
    for (i, tr) in block.iter().enumerate() {
        let (h, r, t) = (tr.h.idx(), tr.r.idx(), tr.t.idx());
        spec.tail_query(
            ent.row(h),
            rel.row(r),
            &mut queries[(2 * i) * dim..(2 * i + 1) * dim],
            dsub,
        );
        spec.head_query(
            ent.row(t),
            rel.row(r),
            &mut queries[(2 * i + 1) * dim..(2 * i + 2) * dim],
            dsub,
        );
    }

    // 2. One GEMM scores every query row against the entity table.
    let scores = &mut scratch.scores[..rows * n];
    kg_linalg::gemm::gemm_nt_with(scratch.policy, queries, rows, dim, ent, scores);

    // 3. Per row: softmax, cross-entropy, and the `p - onehot` shift.
    let mut ce = 0.0f32;
    for (i, tr) in block.iter().enumerate() {
        for (row, target) in [(2 * i, tr.t.idx()), (2 * i + 1, tr.h.idx())] {
            let s = &mut scores[row * n..(row + 1) * n];
            kg_linalg::vecops::softmax_inplace(s);
            ce += -(s[target].max(1e-12)).ln();
            s[target] -= 1.0;
        }
    }

    // 4. Batched `dL/dq = entᵀ (p - onehot)` for every row at once.
    let dq = &mut scratch.dq[..rows * dim];
    kg_linalg::gemm::gemm_acc_t_with(scratch.policy, scores, rows, ent, dq);

    // 5. Accumulate, in the per-query path's add order per element. That
    // path interleaves, query row by query row, a rank-1 update of all of
    // `d_ent` with the row's conditioning-entity and relation gradients.
    //
    // 5a. The query-backward hooks first, in row order. They read only
    // `dq` / `ent` / `rel`, so hoisting them changes no operand, and
    // `d_rel` still receives its rows' gradients in row order.
    let d_cond = &mut scratch.d_cond[..rows * dim];
    kg_linalg::vecops::zero(d_cond);
    scratch.cond_rows.clear();
    for (i, tr) in block.iter().enumerate() {
        let (h, r, t) = (tr.h.idx(), tr.r.idx(), tr.t.idx());
        for (row, tail_direction, cond) in [(2 * i, true, h), (2 * i + 1, false, t)] {
            let dq_row = &dq[row * dim..(row + 1) * dim];
            let d_cond_row = &mut d_cond[row * dim..(row + 1) * dim];
            kg_linalg::vecops::zero(&mut scratch.d_relrow);
            if tail_direction {
                spec.tail_query_backward(
                    ent.row(cond),
                    rel.row(r),
                    dq_row,
                    d_cond_row,
                    &mut scratch.d_relrow,
                    dsub,
                );
            } else {
                spec.head_query_backward(
                    ent.row(cond),
                    rel.row(r),
                    dq_row,
                    d_cond_row,
                    &mut scratch.d_relrow,
                    dsub,
                );
            }
            kg_linalg::vecops::axpy(1.0, &scratch.d_relrow, d_rel.row_mut(r));
            scratch.cond_rows.push((cond, row));
        }
    }

    // 5b. `dL/dE += Σ_row (p − onehot)_row ⊗ q_row`, entity by entity: an
    // entity row's add sequence is term 0, term 1, … whatever the other
    // rows do, so each run of entities that condition no query of the
    // block takes all `rows` terms in one register-resident kernel call.
    // A conditioning entity additionally receives its own `d_cond` right
    // after the term of the query row it conditions: cut the term range
    // there and inject — term k, then row k's `d_cond`.
    let policy = scratch.policy;
    // Terms `terms` of the sum, onto entity rows `ents`.
    let update = |d_ent: &mut Mat, ents: Range<usize>, terms: Range<usize>| {
        kg_linalg::gemm::rank_update_with(
            policy,
            &scores[terms.start * n..terms.end * n],
            n,
            terms.len(),
            &queries[terms.start * dim..terms.end * dim],
            d_ent,
            ents,
        );
    };
    let cond_rows = &mut scratch.cond_rows;
    cond_rows.sort_unstable();
    let mut next = 0; // first entity row not yet updated
    let mut at = 0;
    while at < cond_rows.len() {
        let cond = cond_rows[at].0;
        update(d_ent, next..cond, 0..rows);
        let mut k0 = 0; // first term `cond` has not yet received
        while at < cond_rows.len() && cond_rows[at].0 == cond {
            let k = cond_rows[at].1;
            update(d_ent, cond..cond + 1, k0..k + 1);
            kg_linalg::vecops::axpy(1.0, &d_cond[k * dim..(k + 1) * dim], d_ent.row_mut(cond));
            k0 = k + 1;
            at += 1;
        }
        update(d_ent, cond..cond + 1, k0..rows);
        next = cond + 1;
    }
    update(d_ent, next..n, 0..rows);
    ce
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
