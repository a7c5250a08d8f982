//! The cooperative sharded training engine: a persistent worker crew that
//! executes each [`crate::loss::multiclass_block`] step in parallel.
//!
//! # Layout
//!
//! The entity table is cut into a **fixed shard grid**
//! ([`kg_eval::engine::entity_shard_grid`]) whose size is a knob of its
//! own, *decoupled from the thread count*: shards are dealt round-robin to
//! however many workers exist, so the same grid — and therefore the same
//! floating-point result — serves any crew size. The main thread is the
//! crew's lead: it owns the model, the optimiser and the batch loop, and
//! scores/reduces its own share of shards like every other worker. Spawned
//! workers live for the whole training run (the scope wraps the epoch
//! loop), keep private entity/relation copies refreshed once per batch,
//! and communicate only through `AtomicU32` grids — all cells Relaxed,
//! with the crew's barrier as the only synchronisation, the same safe-code
//! discipline as the ranking engine's `PipelineSlots`.
//!
//! # One step (one 32-triple block, 64 query rows)
//!
//! 1. **Forward** — every participant builds the full query block (cheap,
//!    duplicated), then scores *its own shards* with the row-restricted
//!    GEMM ([`kg_linalg::gemm::gemm_nt_rows_slice_with`]) and publishes the
//!    score columns into the shared coefficient grid. Shard score slices
//!    are bit-identical columns of the full block, so the assembled grid
//!    equals the sequential score block byte for byte.
//! 2. **Rows** — query rows are dealt evenly across the crew; each row
//!    owner runs the *real* [`kg_linalg::vecops::softmax_inplace`] on its
//!    contiguous full row (the lane-folded exponential sum cannot be
//!    reproduced from shard partials), records the cross-entropy, applies
//!    the `p − onehot` shift and publishes the processed row back.
//! 3. **Backward, owner-split** — per-entity gradients are computed
//!    entirely within the owning shard: each worker accumulates the rank-`m`
//!    `Σ (p − onehot) ⊗ q` update for *its shard's entity rows only* into a
//!    private block ([`kg_linalg::gemm::rank_update_with`] — no races, the
//!    sequential path's add order per row), and reduces its shards'
//!    query-side partials with [`kg_linalg::gemm::gemm_acc_t_rows_with`]
//!    into per-shard slots: the same two kernels, on a shard-compact block.
//! 4. **Reduce (lead)** — the lead merges the `dL/dq` partials in **fixed
//!    ascending shard order**, then walks the block in the sequential
//!    path's triple order: query-backward hooks, conditioning-entity and
//!    relation-row accumulation, cross-entropy bookkeeping. Mid-batch this
//!    overlaps the crew's next forward (the PR 6 pipeline discipline: the
//!    lead converts step `s` while the crew scores step `s + 1` — disjoint
//!    grids, one gate barrier per step).
//!
//! At a batch boundary workers additionally flush their private gradient
//! blocks to the shared grid; the lead assembles the dense gradient, adds
//! the N3/L2 terms, takes the Adagrad step and republishes the parameters
//! before the crew's next gate.
//!
//! # Determinism contract
//!
//! Two tiers, pinned by `tests/train_equivalence.rs`:
//!
//! * **Bit-identical to the sequential block path** (under
//!   [`KernelPolicy::Exact`]): forward scores, softmax probabilities and
//!   per-block cross-entropies — sharding restricts which columns a worker
//!   computes, never their value, and softmax runs on assembled full rows.
//! * **Deterministic at a fixed shard grid, for any thread count** (any
//!   policy): the merged `dL/dq` reassociates f32 additions at shard cuts,
//!   and conditioning-entity contributions are applied after (not
//!   interleaved with) the rank-1 terms, so trained embeddings differ from
//!   the sequential trainer within FP noise — but they are a pure function
//!   of `(seed, shard grid, kernel backend)`. Thread count, scheduling and
//!   oversubscription cannot show in a single byte of the result.
//!
//! # Poison
//!
//! The crew sits on [`kg_eval::crew`]: every participant runs the same
//! `participant` loop and so issues the same [`Seat::phase`] sequence
//! (gate, forward, rows, flush on batch ends). A panic in any phase — a
//! worker's, the lead's reduce or batch end, the epoch callback — poisons
//! the crew under that module's protocol and is re-raised on the caller
//! with its original payload; nothing of the protocol is restated here.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering::Relaxed};

use crate::config::TrainConfig;
use crate::loss::MULTICLASS_BLOCK;
use crate::trainer::{ControlFlow, EpochCallback, EpochInfo};
use kg_core::Dataset;
use kg_eval::crew::{self, Seat};
use kg_eval::engine::{entity_shard_grid, WorkerShard};
use kg_linalg::{gemm, vecops, Adagrad, KernelPolicy, Mat, Optimizer, SeededRng};
use kg_models::{BlmModel, BlockSpec, Embeddings};

/// Query rows per step: two directions per triple of a full block.
const ROWS: usize = 2 * MULTICLASS_BLOCK;

/// Default fixed shard-grid size. Small enough that merging partials stays
/// a rounding error next to the GEMMs, large enough to deal several shards
/// to each worker of any sensible crew (the grid is capped at the entity
/// count). Changing it changes the gradient's f32 reassociation — it is
/// part of the deterministic layout, not a free tuning knob.
pub const DEFAULT_TRAIN_SHARDS: usize = 16;

const FLAG_REFRESH: usize = 1;
const FLAG_FLUSH: usize = 2;
const FLAG_DONE: usize = 4;

/// Step metadata the lead hands the crew at each gate: the triple block
/// plus control flags. Written strictly between the previous step's rows
/// barrier and the gate, read strictly between the gate and the forward
/// barrier, so a single buffer suffices.
struct StepMeta {
    h: Vec<AtomicUsize>,
    r: Vec<AtomicUsize>,
    t: Vec<AtomicUsize>,
    len: AtomicUsize,
    flags: AtomicUsize,
}

impl StepMeta {
    fn new() -> Self {
        let cell = || (0..MULTICLASS_BLOCK).map(|_| AtomicUsize::new(0)).collect();
        StepMeta {
            h: cell(),
            r: cell(),
            t: cell(),
            len: AtomicUsize::new(0),
            flags: AtomicUsize::new(0),
        }
    }
}

/// The crew's shared state: parameter image, score/coefficient grid,
/// per-shard gradient partial slots and step metadata.
struct SharedCrew {
    /// Published model parameters, entity table then relation table.
    params: Vec<AtomicU32>,
    /// The `ROWS × n_ent` score block; raw scores after the forward
    /// barrier, `p − onehot` coefficients after the rows barrier.
    coeff: Vec<AtomicU32>,
    /// Per-shard `dL/dq` partials, `n_shards × ROWS × dim`.
    dq_parts: Vec<AtomicU32>,
    /// Per-row cross-entropy slots.
    ce: Vec<AtomicU32>,
    /// Rank-1 entity-gradient totals, flushed once per batch.
    d_ent: Vec<AtomicU32>,
    meta: StepMeta,
    /// The fixed entity-shard grid (round-robin dealt to workers).
    shards: Vec<Range<usize>>,
    n_workers: usize,
    n_ent: usize,
    n_rel: usize,
    dim: usize,
}

impl SharedCrew {
    fn new(n_ent: usize, n_rel: usize, dim: usize, n_shards: usize, n_workers: usize) -> Self {
        let cells = |len: usize| (0..len).map(|_| AtomicU32::new(0)).collect::<Vec<_>>();
        let shards: Vec<Range<usize>> = entity_shard_grid(n_ent, n_shards)
            .into_iter()
            .map(|s| match s {
                WorkerShard::Entities(r) => r,
                WorkerShard::Queries { .. } => unreachable!("entity grids are entity shards"),
            })
            .collect();
        SharedCrew {
            params: cells((n_ent + n_rel) * dim),
            coeff: cells(ROWS * n_ent),
            dq_parts: cells(n_shards * ROWS * dim),
            ce: cells(ROWS),
            d_ent: cells(n_ent * dim),
            meta: StepMeta::new(),
            shards,
            n_workers,
            n_ent,
            n_rel,
            dim,
        }
    }

    /// Shard indices worker `w` owns: `w, w + crew, w + 2·crew, …`.
    fn owned_shards(&self, w: usize) -> impl Iterator<Item = usize> + '_ {
        (w..self.shards.len()).step_by(self.n_workers)
    }

    fn write_meta(&self, block: &[(usize, usize, usize)], flags: usize) {
        for (i, &(h, r, t)) in block.iter().enumerate() {
            self.meta.h[i].store(h, Relaxed);
            self.meta.r[i].store(r, Relaxed);
            self.meta.t[i].store(t, Relaxed);
        }
        self.meta.len.store(block.len(), Relaxed);
        self.meta.flags.store(flags, Relaxed);
    }

    fn read_meta(&self, block: &mut Vec<(usize, usize, usize)>) -> usize {
        block.clear();
        for i in 0..self.meta.len.load(Relaxed) {
            block.push((
                self.meta.h[i].load(Relaxed),
                self.meta.r[i].load(Relaxed),
                self.meta.t[i].load(Relaxed),
            ));
        }
        self.meta.flags.load(Relaxed)
    }

    /// Publish the lead's parameters for the crew's next per-batch refresh.
    fn publish_params(&self, model: &BlmModel) {
        let ent = model.emb.ent.as_slice();
        let rel = model.emb.rel.as_slice();
        for (cell, &v) in self.params.iter().zip(ent.iter().chain(rel.iter())) {
            cell.store(v.to_bits(), Relaxed);
        }
    }

    fn load_params(&self, ent: &mut Mat, rel: &mut Mat) {
        let split = self.n_ent * self.dim;
        for (v, cell) in ent.as_mut_slice().iter_mut().zip(&self.params[..split]) {
            *v = f32::from_bits(cell.load(Relaxed));
        }
        for (v, cell) in rel.as_mut_slice().iter_mut().zip(&self.params[split..]) {
            *v = f32::from_bits(cell.load(Relaxed));
        }
    }
}

/// One participant's reusable scratch, allocated once and carried across
/// every step of every epoch.
struct WorkerScratch {
    /// The full query block (every participant builds all rows).
    queries: Vec<f32>,
    /// Shard-compact score / coefficient staging, `ROWS × max shard width`.
    shard_block: Vec<f32>,
    /// One full score row for the softmax pass.
    row_buf: Vec<f32>,
    /// One shard's `dL/dq` partial.
    dq_part: Vec<f32>,
    /// Private rank-1 gradient blocks, one per owned shard, accumulated
    /// across the batch and flushed at its end.
    d_ent_blocks: Vec<Mat>,
}

impl WorkerScratch {
    fn new(sh: &SharedCrew, w: usize) -> Self {
        let max_width = sh.shards.iter().map(|r| r.len()).max().unwrap_or(0);
        WorkerScratch {
            queries: vec![0.0; ROWS * sh.dim],
            shard_block: vec![0.0; ROWS * max_width],
            row_buf: vec![0.0; sh.n_ent],
            dq_part: vec![0.0; ROWS * sh.dim],
            d_ent_blocks: sh
                .owned_shards(w)
                .map(|s| Mat::zeros(sh.shards[s].len(), sh.dim))
                .collect(),
        }
    }
}

/// Build the full query block — stage 1 of the sequential path, verbatim.
fn build_queries(
    spec: &BlockSpec,
    block: &[(usize, usize, usize)],
    ent: &Mat,
    rel: &Mat,
    queries: &mut [f32],
) {
    let dim = ent.cols();
    let dsub = dim / 4;
    for (i, &(h, r, t)) in block.iter().enumerate() {
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
}

/// Forward: score the worker's shards and publish the columns.
#[allow(clippy::too_many_arguments)]
fn phase_forward(
    sh: &SharedCrew,
    policy: KernelPolicy,
    spec: &BlockSpec,
    block: &[(usize, usize, usize)],
    ent: &Mat,
    rel: &Mat,
    scratch: &mut WorkerScratch,
    w: usize,
) {
    let (dim, n) = (sh.dim, sh.n_ent);
    let m = 2 * block.len();
    build_queries(spec, block, ent, rel, &mut scratch.queries[..m * dim]);
    for s in sh.owned_shards(w) {
        let range = sh.shards[s].clone();
        let width = range.len();
        if width == 0 {
            continue;
        }
        let out = &mut scratch.shard_block[..m * width];
        gemm::gemm_nt_rows_slice_with(
            policy,
            &scratch.queries[..m * dim],
            m,
            dim,
            ent.as_slice(),
            ent.rows(),
            range.clone(),
            out,
        );
        for i in 0..m {
            for j in 0..width {
                sh.coeff[i * n + range.start + j].store(out[i * width + j].to_bits(), Relaxed);
            }
        }
    }
}

/// Rows: softmax + cross-entropy + `p − onehot` on the worker's share of
/// the block's query rows — full contiguous rows, so the lane-folded
/// softmax is bit-identical to the sequential pass whatever the row split.
fn phase_rows(
    sh: &SharedCrew,
    block: &[(usize, usize, usize)],
    scratch: &mut WorkerScratch,
    w: usize,
) {
    let n = sh.n_ent;
    let m = 2 * block.len();
    let my_rows = WorkerShard::Queries { worker: w, n_workers: sh.n_workers }.rows(m);
    for row in my_rows {
        let s = &mut scratch.row_buf[..n];
        for (v, cell) in s.iter_mut().zip(&sh.coeff[row * n..(row + 1) * n]) {
            *v = f32::from_bits(cell.load(Relaxed));
        }
        vecops::softmax_inplace(s);
        let (h, _, t) = block[row / 2];
        let target = if row % 2 == 0 { t } else { h };
        let ce = -(s[target].max(1e-12)).ln();
        s[target] -= 1.0;
        for (cell, &v) in sh.coeff[row * n..(row + 1) * n].iter().zip(s.iter()) {
            cell.store(v.to_bits(), Relaxed);
        }
        sh.ce[row].store(ce.to_bits(), Relaxed);
    }
}

/// Owner-split backward, on the two kernels the sequential
/// [`crate::loss::multiclass_block`] runs over the whole table: per owned
/// shard, reduce the query-side partial (`entᵀ (p − onehot)`, shard rows
/// only — [`gemm::gemm_acc_t_rows_with`]) into its slot and accumulate the
/// rank-`m` entity gradient into the private block
/// ([`gemm::rank_update_with`], the shard-compact coefficient block read
/// at stride `width`) — per entity row, terms in block-row order. On a
/// flush step the private blocks then move to the shared gradient grid
/// and reset for the next batch.
fn phase_backward(
    sh: &SharedCrew,
    policy: KernelPolicy,
    m: usize,
    ent: &Mat,
    scratch: &mut WorkerScratch,
    w: usize,
    flush: bool,
) {
    let (dim, n) = (sh.dim, sh.n_ent);
    for (local, s) in sh.owned_shards(w).enumerate() {
        let range = sh.shards[s].clone();
        let width = range.len();
        let coeffs = &mut scratch.shard_block[..m * width];
        for i in 0..m {
            for j in 0..width {
                coeffs[i * width + j] =
                    f32::from_bits(sh.coeff[i * n + range.start + j].load(Relaxed));
            }
        }
        // Always reduce (an empty shard publishes zeros): the slots persist
        // across steps, so every step must overwrite its own partial.
        let part = &mut scratch.dq_part[..m * dim];
        gemm::gemm_acc_t_rows_with(policy, coeffs, m, ent, range.clone(), part);
        let slot = &sh.dq_parts[s * ROWS * dim..];
        for (cell, &v) in slot.iter().zip(part.iter()) {
            cell.store(v.to_bits(), Relaxed);
        }
        gemm::rank_update_with(
            policy,
            coeffs,
            width,
            m,
            &scratch.queries[..m * dim],
            &mut scratch.d_ent_blocks[local],
            0..width,
        );
    }
    if flush {
        for (local, s) in sh.owned_shards(w).enumerate() {
            let range = sh.shards[s].clone();
            let d_block = &mut scratch.d_ent_blocks[local];
            for (j, e) in range.enumerate() {
                let row = d_block.row_mut(j);
                for (c, v) in row.iter_mut().enumerate() {
                    sh.d_ent[e * dim + c].store(v.to_bits(), Relaxed);
                    *v = 0.0;
                }
            }
        }
    }
}

/// The lead's private half of the crew: the model, the optimiser, the
/// batch cursor over the shuffled triple order, and the gradient
/// accumulators only the reduce and the batch end touch.
struct Lead<'a, F> {
    ds: &'a Dataset,
    cfg: &'a TrainConfig,
    model: BlmModel,
    opt: Adagrad,
    rng: SeededRng,
    on_epoch: F,
    d_ent: Mat,
    d_ent_cond: Mat,
    d_rel: Mat,
    dq_full: Vec<f32>,
    hook_cond: Vec<f32>,
    hook_rel: Vec<f32>,
    /// This epoch's shuffled triple order.
    order: Vec<usize>,
    /// Epochs begun so far.
    epoch: usize,
    /// The current batch's span of `order`, and the next unstaged position
    /// inside it.
    batch: Range<usize>,
    at: usize,
    epoch_loss: f64,
    n_terms: usize,
    start: std::time::Instant,
}

impl<F: EpochCallback> Lead<'_, F> {
    /// Stage the next step into the meta buffer — the lead's share of every
    /// gate phase. Walks the sequential trainer's loop nest one block at a
    /// time: next block of the batch, else the next batch, else (after the
    /// end-of-epoch decay and callback) the next epoch, else `FLAG_DONE`.
    fn stage_next(&mut self, sh: &SharedCrew, block: &mut Vec<(usize, usize, usize)>) {
        block.clear();
        if self.at == self.order.len() {
            if self.epoch > 0 {
                self.opt.end_epoch();
                let info = EpochInfo {
                    epoch: self.epoch - 1,
                    loss: (self.epoch_loss / self.n_terms.max(1) as f64) as f32,
                    seconds: self.start.elapsed().as_secs_f64(),
                };
                if self.on_epoch.on_epoch(&self.model, info) == ControlFlow::Stop {
                    return sh.write_meta(block, FLAG_DONE);
                }
            }
            if self.epoch == self.cfg.epochs {
                return sh.write_meta(block, FLAG_DONE);
            }
            self.rng.shuffle(&mut self.order);
            self.epoch += 1;
            (self.at, self.batch) = (0, 0..0);
            (self.epoch_loss, self.n_terms) = (0.0, 0);
        }
        let mut flags = 0;
        if self.at == self.batch.end {
            self.batch = self.at..(self.at + self.cfg.batch_size).min(self.order.len());
            flags |= FLAG_REFRESH;
        }
        let end = (self.at + MULTICLASS_BLOCK).min(self.batch.end);
        if end == self.batch.end {
            flags |= FLAG_FLUSH;
        }
        block.extend(self.order[self.at..end].iter().map(|&i| {
            let tr = self.ds.train[i];
            (tr.h.idx(), tr.r.idx(), tr.t.idx())
        }));
        self.at = end;
        sh.write_meta(block, flags);
    }

    /// Merge the step's `dL/dq` partials in fixed ascending shard order,
    /// then run the sequential path's per-triple backward hooks and
    /// cross-entropy bookkeeping.
    fn reduce(&mut self, sh: &SharedCrew, spec: &BlockSpec, block: &[(usize, usize, usize)]) {
        let dim = sh.dim;
        let dsub = dim / 4;
        let m = 2 * block.len();
        let dq = &mut self.dq_full[..m * dim];
        vecops::zero(dq);
        for s in 0..sh.shards.len() {
            let slot = &sh.dq_parts[s * ROWS * dim..][..m * dim];
            for (acc, cell) in dq.iter_mut().zip(slot) {
                *acc += f32::from_bits(cell.load(Relaxed));
            }
        }
        let mut block_ce = 0.0f32;
        for row in 0..m {
            block_ce += f32::from_bits(sh.ce[row].load(Relaxed));
        }
        let (ent, rel) = (&self.model.emb.ent, &self.model.emb.rel);
        let (hook_cond, hook_rel) = (&mut self.hook_cond[..], &mut self.hook_rel[..]);
        for (i, &(h, r, t)) in block.iter().enumerate() {
            for (row, tail_direction, cond) in [(2 * i, true, h), (2 * i + 1, false, t)] {
                let dq_row = &dq[row * dim..(row + 1) * dim];
                vecops::zero(hook_cond);
                vecops::zero(hook_rel);
                let (e, r_row) = (ent.row(cond), rel.row(r));
                if tail_direction {
                    spec.tail_query_backward(e, r_row, dq_row, hook_cond, hook_rel, dsub);
                } else {
                    spec.head_query_backward(e, r_row, dq_row, hook_cond, hook_rel, dsub);
                }
                vecops::axpy(1.0, hook_cond, self.d_ent_cond.row_mut(cond));
                vecops::axpy(1.0, hook_rel, self.d_rel.row_mut(r));
            }
        }
        self.epoch_loss += block_ce as f64;
        self.n_terms += m;
    }

    /// The batch-boundary tail: reduce the flush step, assemble the dense
    /// entity gradient (rank-1 totals from the grid + conditioning totals),
    /// take the shared optimiser step and republish parameters.
    fn end_batch(&mut self, sh: &SharedCrew, spec: &BlockSpec, block: &[(usize, usize, usize)]) {
        self.reduce(sh, spec, block);
        // Dense gradient: rank-1 totals (grid) + conditioning totals — one
        // elementwise add, the same two-subtotal sum for every crew size.
        for (v, cell) in self.d_ent.as_mut_slice().iter_mut().zip(&sh.d_ent) {
            *v = f32::from_bits(cell.load(Relaxed));
        }
        vecops::axpy(1.0, self.d_ent_cond.as_slice(), self.d_ent.as_mut_slice());
        crate::trainer::apply_batch_update(
            self.cfg,
            self.ds,
            &self.order[self.batch.clone()],
            &mut self.model,
            &mut self.d_ent,
            &mut self.d_rel,
            &mut self.opt,
        );
        self.d_ent_cond.clear();
        self.d_rel.clear();
        if sh.n_workers > 1 {
            sh.publish_params(&self.model);
        }
    }
}

/// One crew participant's whole run — the lead (`lead: Some`, worker 0,
/// the calling thread) and every spawned worker execute this same loop, so
/// they issue the same [`Seat::phase`] sequence by construction:
///
/// * **forward** — score the owned shards; the lead first reduces the
///   previous mid-batch step, overlapping the crew's forward (disjoint
///   grids: reduce reads `dq_parts`/`ce`, which the crew next writes only
///   after this step's rows barrier);
/// * **rows** — softmax the owned rows;
/// * **backward → gate** — reduce the owned shards' gradients, then the
///   lead stages the next step. On a batch boundary the two are separate
///   phases: the flush barrier in between is what lets the lead's batch
///   end read every worker's flushed gradient block.
///
/// `None` means the crew was poisoned and left (see [`kg_eval::crew`]).
fn participant<F: EpochCallback>(
    sh: &SharedCrew,
    spec: &BlockSpec,
    policy: KernelPolicy,
    w: usize,
    panic_inject: Option<(usize, usize)>,
    seat: &mut Seat<'_>,
    mut lead: Option<&mut Lead<'_, F>>,
) -> Option<()> {
    // Spawned workers score against private parameter copies refreshed once
    // per batch; the lead scores against the model it owns.
    let mut copy =
        lead.is_none().then(|| (Mat::zeros(sh.n_ent, sh.dim), Mat::zeros(sh.n_rel, sh.dim)));
    let mut scratch = WorkerScratch::new(sh, w);
    let mut block: Vec<(usize, usize, usize)> = Vec::with_capacity(MULTICLASS_BLOCK);
    // The lead's staging buffer; between steps it holds the block just
    // finished, which a mid-batch step still owes its reduce.
    let mut staged: Vec<(usize, usize, usize)> = Vec::with_capacity(MULTICLASS_BLOCK);
    let mut unreduced = false;
    seat.phase(|| {
        if let Some(lead) = lead.as_deref_mut() {
            lead.stage_next(sh, &mut staged);
        }
    })?;
    for step in 0.. {
        std::mem::swap(&mut block, &mut staged);
        let flags = sh.read_meta(&mut block);
        if flags & FLAG_DONE != 0 {
            break;
        }
        if let (Some((ent, rel)), true) = (&mut copy, flags & FLAG_REFRESH != 0) {
            sh.load_params(ent, rel);
        }
        let flush = flags & FLAG_FLUSH != 0;

        seat.phase(|| {
            if let (Some(lead), true) = (lead.as_deref_mut(), unreduced) {
                lead.reduce(sh, spec, &staged);
            }
            let (ent, rel) = params(&copy, &lead);
            phase_forward(sh, policy, spec, &block, ent, rel, &mut scratch, w)
        })?;
        seat.phase(|| {
            if let Some((ps, pw)) = panic_inject {
                assert!(
                    ps != step || pw != w,
                    "train crew grenade tripped (step {step}, worker {w})"
                );
            }
            phase_rows(sh, &block, &mut scratch, w)
        })?;
        let m = 2 * block.len();
        if flush {
            seat.phase(|| {
                phase_backward(sh, policy, m, params(&copy, &lead).0, &mut scratch, w, true)
            })?;
            seat.phase(|| {
                if let Some(lead) = lead.as_deref_mut() {
                    lead.end_batch(sh, spec, &block);
                    lead.stage_next(sh, &mut staged);
                }
            })?;
        } else {
            seat.phase(|| {
                phase_backward(sh, policy, m, params(&copy, &lead).0, &mut scratch, w, false);
                if let Some(lead) = lead.as_deref_mut() {
                    lead.stage_next(sh, &mut staged);
                }
            })?;
        }
        unreduced = !flush;
    }
    Some(())
}

/// The parameters a participant scores against: its private copy, or — for
/// the lead, which has none — the model itself.
fn params<'p, F>(
    copy: &'p Option<(Mat, Mat)>,
    lead: &'p Option<&mut Lead<'_, F>>,
) -> (&'p Mat, &'p Mat) {
    match (copy, lead) {
        (Some((ent, rel)), _) => (ent, rel),
        (None, Some(lead)) => (&lead.model.emb.ent, &lead.model.emb.rel),
        (None, None) => unreachable!("a participant without a copy is the lead"),
    }
}

/// Train `spec` with the cooperative crew. The lead (calling thread) walks
/// the epoch/batch loop and works shards alongside `threads − 1` spawned
/// workers kept alive across all epochs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_crew<F>(
    spec: &BlockSpec,
    ds: &Dataset,
    cfg: &TrainConfig,
    policy: KernelPolicy,
    threads: usize,
    shards: usize,
    panic_inject: Option<(usize, usize)>,
    on_epoch: F,
) -> BlmModel
where
    F: EpochCallback,
{
    cfg.validate().expect("invalid training configuration");
    assert!(!ds.train.is_empty(), "cannot train on an empty training set");
    assert!(threads >= 1, "crew needs at least one thread");
    assert!(shards >= 1, "crew needs at least one shard");
    let mut rng = SeededRng::new(cfg.seed ^ 0xEE55_11AA_77CC_33BB);
    let emb = Embeddings::init(ds.n_entities, ds.n_relations, cfg.dim, &mut rng);
    let (n_ent, n_rel, dim) = (ds.n_entities, ds.n_relations, cfg.dim);
    let sh = SharedCrew::new(n_ent, n_rel, dim, shards.min(n_ent).max(1), threads);
    let mut lead = Lead {
        ds,
        cfg,
        model: BlmModel::new(spec.clone(), emb),
        opt: Adagrad::new(n_ent * dim + n_rel * dim, cfg.lr, cfg.decay),
        rng,
        on_epoch,
        d_ent: Mat::zeros(n_ent, dim),
        d_ent_cond: Mat::zeros(n_ent, dim),
        d_rel: Mat::zeros(n_rel, dim),
        dq_full: vec![0.0; ROWS * dim],
        hook_cond: vec![0.0; dim],
        hook_rel: vec![0.0; dim],
        order: (0..ds.train.len()).collect(),
        epoch: 0,
        batch: 0..0,
        at: ds.train.len(),
        epoch_loss: 0.0,
        n_terms: 0,
        start: std::time::Instant::now(),
    };
    if threads > 1 {
        sh.publish_params(&lead.model);
    }
    crew::run(
        threads,
        |seat| {
            participant(&sh, spec, policy, 0, panic_inject, seat, Some(&mut lead));
        },
        |w, seat| {
            participant::<F>(&sh, spec, policy, w, panic_inject, seat, None);
        },
    );
    lead.model
}
