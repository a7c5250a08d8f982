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
//! crew's lead: it owns the optimiser and the batch loop, and scores its
//! share of query rows and reduces its share of shards like every other
//! worker. Spawned workers live for the whole training run (the scope
//! wraps the epoch loop) and keep no copy of anything: every value of the
//! run exists once.
//!
//! Every shared value sits behind a lock with **one writer per phase**.
//! The crew's barrier separates every writer from its readers, so no lock
//! is ever waited on; it only turns "one writer, then readers" into safe
//! code:
//!
//! * the model, an `RwLock` every participant reads during a step and the
//!   lead writes only in its batch-end phase;
//! * the step block, an `RwLock` the lead writes in the phase before each
//!   gate and everyone reads after it;
//! * one **row block** per participant — its slice of the step's query
//!   rows as `p − onehot` coefficients, full table width, and their
//!   cross-entropies — that its owner writes in the rows phase and
//!   everyone reads in the backward phase;
//! * one `Mutex` slot per shard — its `dL/dq` partial and its rank-1
//!   entity-gradient rows — that the shard's owner writes in the backward
//!   phase and the lead reads in the reduce or the batch end.
//!
//! # One step (one 32-triple block, 64 query rows)
//!
//! 1. **Rows** — every participant builds the full query block (cheap,
//!    duplicated). Query rows are dealt evenly across the crew as
//!    contiguous slices; each row owner scores its rows against the whole
//!    table ([`kg_linalg::gemm::gemm_nt_rows_slice_with`] — a score row
//!    depends on its query row alone, so any row split is the sequential
//!    score block byte for byte), then, in place, runs the *real*
//!    [`kg_linalg::vecops::softmax_inplace`] on each contiguous full row
//!    (the lane-folded exponential sum cannot be reproduced from partials),
//!    records the cross-entropy and applies the `p − onehot` shift.
//! 2. **Backward, owner-split** — per-entity gradients are computed
//!    entirely within the owning shard: each worker gathers its shards'
//!    columns from every row block, in ascending owner order, into a
//!    shard-compact block, reduces the query-side partials with
//!    [`kg_linalg::gemm::gemm_acc_t_rows_with`] into the shards' slots and
//!    accumulates the rank-`m` `Σ (p − onehot) ⊗ q` update into the slots'
//!    gradient rows ([`kg_linalg::gemm::rank_update_with`] — no races, the
//!    sequential path's add order per row): the same two kernels. The
//!    lead also sums the step's cross-entropies in row order, before the
//!    next rows phase overwrites the row blocks.
//! 3. **Reduce (lead)** — the lead merges the `dL/dq` partials in **fixed
//!    ascending shard order**, then walks the block in the sequential
//!    path's triple order: query-backward hooks, conditioning-entity and
//!    relation-row accumulation. Mid-batch this overlaps the crew's next
//!    rows phase (the lead converts step `s` while the crew scores step
//!    `s + 1` — the reduce reads only the slots, which the crew next
//!    writes in step `s + 1`'s backward): a mid-batch step crosses two
//!    barriers.
//!
//! A batch's last step takes one more phase after the backward: the lead
//! alone reduces it, adds every shard's rank-1 rows to the conditioning
//! totals (zeroing the slots for the next batch), adds the N3/L2 terms and
//! takes the Adagrad step on the model under its write lock — the next
//! gate then hands the crew the updated model.
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
//! (gate, rows, backward, batch end on batch ends). A panic in any phase — a
//! worker's, the lead's reduce or batch end, the epoch callback — poisons
//! the crew under that module's protocol and is re-raised on the caller
//! with its original payload; nothing of the protocol is restated here. A
//! lock a panicking phase poisons is never taken again: the rest of the
//! crew leaves at that phase's barrier.

use std::ops::Range;
use std::sync::{Mutex, RwLock};

use crate::config::TrainConfig;
use crate::loss::MULTICLASS_BLOCK;
use crate::trainer::{ControlFlow, EpochInfo};
use kg_core::Dataset;
use kg_eval::crew::{self, Seat};
use kg_eval::engine::entity_shard_grid;
use kg_linalg::{gemm, vecops, Adagrad, KernelPolicy, Mat, Optimizer, SeededRng};
use kg_models::{BlmModel, BlockSpec};

/// Query rows per step: two directions per triple of a full block.
const ROWS: usize = 2 * MULTICLASS_BLOCK;

/// Default fixed shard-grid size. Small enough that merging partials stays
/// a rounding error next to the GEMMs, large enough to deal several shards
/// to each worker of any sensible crew (the grid is capped at the entity
/// count). Changing it changes the gradient's f32 reassociation — it is
/// part of the deterministic layout, not a free tuning knob.
pub const DEFAULT_TRAIN_SHARDS: usize = 16;

/// Why no crew lock is found poisoned (module docs, "Poison").
const HEALTHY: &str = "crew locks are only taken while the crew is healthy";

/// The step the lead hands the crew at each gate. An empty block ends the
/// run.
#[derive(Default)]
struct StepMeta {
    block: Vec<(usize, usize, usize)>,
    /// The block is its batch's last: the step ends with the batch-end phase.
    batch_end: bool,
}

/// One shard's gradient slot.
struct ShardSlot {
    /// The step's `dL/dq` partial, `ROWS × dim`.
    dq: Vec<f32>,
    /// The shard's rank-1 entity-gradient rows, summed over the batch.
    d_ent: Mat,
}

/// One participant's slice of the step's query rows.
struct RowBlock {
    /// The owned rows' `p − onehot` coefficients, `n_ent` wide.
    coeff: Vec<f32>,
    /// The owned rows' cross-entropies, in row order.
    ce: Vec<f32>,
}

/// The crew's shared state: the model, the step block, the per-participant
/// row blocks and the per-shard gradient slots.
struct SharedCrew {
    model: RwLock<BlmModel>,
    meta: RwLock<StepMeta>,
    /// One row block per participant.
    row_blocks: Vec<RwLock<RowBlock>>,
    /// The fixed entity-shard grid (round-robin dealt to workers).
    shards: Vec<Range<usize>>,
    /// One gradient slot per shard.
    slots: Vec<Mutex<ShardSlot>>,
    n_workers: usize,
    n_ent: usize,
    dim: usize,
}

impl SharedCrew {
    fn new(model: BlmModel, n_shards: usize, n_workers: usize) -> Self {
        let (n_ent, dim) = (model.emb.ent.rows(), model.emb.ent.cols());
        let row_blocks = (0..n_workers)
            .map(|w| {
                // The most rows any step deals `w` (not always at `ROWS`).
                let most = (0..=ROWS).map(|m| owned_rows(w, n_workers, m).len()).max().unwrap_or(0);
                RwLock::new(RowBlock {
                    coeff: vec![0.0; most * n_ent],
                    ce: Vec::with_capacity(most),
                })
            })
            .collect();
        let shards = entity_shard_grid(n_ent, n_shards);
        let slots = shards
            .iter()
            .map(|r| {
                Mutex::new(ShardSlot { dq: vec![0.0; ROWS * dim], d_ent: Mat::zeros(r.len(), dim) })
            })
            .collect();
        SharedCrew {
            model: RwLock::new(model),
            meta: RwLock::default(),
            row_blocks,
            shards,
            slots,
            n_workers,
            n_ent,
            dim,
        }
    }

    /// Shard indices worker `w` owns: `w, w + crew, w + 2·crew, …`.
    fn owned_shards(&self, w: usize) -> impl Iterator<Item = usize> + '_ {
        (w..self.shards.len()).step_by(self.n_workers)
    }
}

/// The contiguous query rows of an `m`-row step that participant `w` of
/// `n_workers` owns; ascending `w` walks the rows in order.
fn owned_rows(w: usize, n_workers: usize, m: usize) -> Range<usize> {
    w * m / n_workers..(w + 1) * m / n_workers
}

/// One participant's reusable scratch, allocated once and carried across
/// every step of every epoch.
struct WorkerScratch {
    /// The full query block (every participant builds all rows).
    queries: Vec<f32>,
    /// Shard-compact coefficient staging, `ROWS × max shard width`.
    shard_block: Vec<f32>,
}

impl WorkerScratch {
    fn new(sh: &SharedCrew) -> Self {
        let max_width = sh.shards.iter().map(|r| r.len()).max().unwrap_or(0);
        WorkerScratch {
            queries: vec![0.0; ROWS * sh.dim],
            shard_block: vec![0.0; ROWS * max_width],
        }
    }
}

/// Build the full query block — stage 1 of the sequential path, verbatim.
fn build_queries(model: &BlmModel, block: &[(usize, usize, usize)], queries: &mut [f32]) {
    let (ent, rel) = (&model.emb.ent, &model.emb.rel);
    let dim = ent.cols();
    let dsub = dim / 4;
    for (i, &(h, r, t)) in block.iter().enumerate() {
        model.spec.tail_query(
            ent.row(h),
            rel.row(r),
            &mut queries[(2 * i) * dim..(2 * i + 1) * dim],
            dsub,
        );
        model.spec.head_query(
            ent.row(t),
            rel.row(r),
            &mut queries[(2 * i + 1) * dim..(2 * i + 2) * dim],
            dsub,
        );
    }
}

/// Rows: score the worker's share of the block's query rows against the
/// whole table, then softmax + cross-entropy + `p − onehot` on each, in
/// place in its row block — full contiguous rows, so the lane-folded
/// softmax is bit-identical to the sequential pass whatever the row split.
fn phase_rows(
    sh: &SharedCrew,
    policy: KernelPolicy,
    block: &[(usize, usize, usize)],
    model: &BlmModel,
    scratch: &mut WorkerScratch,
    w: usize,
) {
    let (dim, n) = (sh.dim, sh.n_ent);
    let m = 2 * block.len();
    build_queries(model, block, &mut scratch.queries[..m * dim]);
    let mut rows = sh.row_blocks[w].write().expect(HEALTHY);
    let RowBlock { coeff, ce } = &mut *rows;
    ce.clear();
    let my_rows = owned_rows(w, sh.n_workers, m);
    if my_rows.is_empty() {
        return;
    }
    let scores = &mut coeff[..my_rows.len() * n];
    let queries = &scratch.queries[my_rows.start * dim..my_rows.end * dim];
    let ent = model.emb.ent.as_slice();
    gemm::gemm_nt_rows_slice_with(policy, queries, my_rows.len(), dim, ent, n, 0..n, scores);
    for (row, s) in my_rows.zip(scores.chunks_exact_mut(n)) {
        vecops::softmax_inplace(s);
        let (h, _, t) = block[row / 2];
        let target = if row % 2 == 0 { t } else { h };
        ce.push(-(s[target].max(1e-12)).ln());
        s[target] -= 1.0;
    }
}

/// Owner-split backward, on the two kernels the sequential
/// [`crate::loss::multiclass_block`] runs over the whole table: per owned
/// shard, gather its columns from every row block into a shard-compact
/// block, reduce the query-side partial (`entᵀ (p − onehot)`, shard rows
/// only — [`gemm::gemm_acc_t_rows_with`]) into its slot and accumulate the
/// rank-`m` entity gradient into the slot's rows
/// ([`gemm::rank_update_with`], the compact block read at stride `width`)
/// — per entity row, terms in block-row order.
fn phase_backward(
    sh: &SharedCrew,
    policy: KernelPolicy,
    m: usize,
    ent: &Mat,
    scratch: &mut WorkerScratch,
    w: usize,
) {
    let (dim, n) = (sh.dim, sh.n_ent);
    for s in sh.owned_shards(w) {
        let range = sh.shards[s].clone();
        let width = range.len();
        let coeffs = &mut scratch.shard_block[..m * width];
        for (owner, rows) in sh.row_blocks.iter().enumerate() {
            let rows = rows.read().expect(HEALTHY);
            let owned = owned_rows(owner, sh.n_workers, m);
            for (k, i) in owned.enumerate() {
                coeffs[i * width..(i + 1) * width]
                    .copy_from_slice(&rows.coeff[k * n..][range.clone()]);
            }
        }
        let mut slot = sh.slots[s].lock().expect(HEALTHY);
        let ShardSlot { dq, d_ent } = &mut *slot;
        // Always reduce (an empty shard writes zeros): the slot outlives the
        // step, so every step must overwrite its own partial.
        gemm::gemm_acc_t_rows_with(policy, coeffs, m, ent, range, &mut dq[..m * dim]);
        let queries = &scratch.queries[..m * dim];
        gemm::rank_update_with(policy, coeffs, width, m, queries, d_ent, 0..width);
    }
}

/// The lead's private half of the crew: the optimiser, the batch cursor
/// over the shuffled triple order, and the gradient accumulators only the
/// reduce and the batch end touch.
struct Lead<'a, F> {
    ds: &'a Dataset,
    cfg: &'a TrainConfig,
    opt: Adagrad,
    rng: SeededRng,
    on_epoch: F,
    /// Conditioning-entity totals of the batch; at its end, plus the
    /// shards' rank-1 totals, the dense entity gradient.
    d_ent: Mat,
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

impl<F: FnMut(&BlmModel, EpochInfo) -> ControlFlow> Lead<'_, F> {
    /// Stage the next step into the meta block — the lead's share of every
    /// gate phase. Walks the sequential trainer's loop nest one block at a
    /// time: next block of the batch, else the next batch, else (after the
    /// end-of-epoch decay and callback) the next epoch, else an empty block.
    fn stage_next(&mut self, sh: &SharedCrew) {
        let mut meta = sh.meta.write().expect(HEALTHY);
        meta.block.clear();
        if self.at == self.order.len() {
            if self.epoch > 0 {
                self.opt.end_epoch();
                let info = EpochInfo {
                    epoch: self.epoch - 1,
                    loss: (self.epoch_loss / self.n_terms.max(1) as f64) as f32,
                    seconds: self.start.elapsed().as_secs_f64(),
                };
                if (self.on_epoch)(&sh.model.read().expect(HEALTHY), info) == ControlFlow::Stop {
                    return;
                }
            }
            if self.epoch == self.cfg.epochs {
                return;
            }
            self.rng.shuffle(&mut self.order);
            self.epoch += 1;
            (self.at, self.batch) = (0, 0..0);
            (self.epoch_loss, self.n_terms) = (0.0, 0);
        }
        if self.at == self.batch.end {
            self.batch = self.at..(self.at + self.cfg.batch_size).min(self.order.len());
        }
        let end = (self.at + MULTICLASS_BLOCK).min(self.batch.end);
        meta.batch_end = end == self.batch.end;
        meta.block.extend(self.order[self.at..end].iter().map(|&i| {
            let tr = self.ds.train[i];
            (tr.h.idx(), tr.r.idx(), tr.t.idx())
        }));
        self.at = end;
    }

    /// Add the step's cross-entropy to the epoch loss: the row blocks'
    /// entries summed in row order, as the sequential block path sums them.
    fn record_ce(&mut self, sh: &SharedCrew) {
        let mut block_ce = 0.0f32;
        for rows in &sh.row_blocks {
            for &ce in &rows.read().expect(HEALTHY).ce {
                block_ce += ce;
                self.n_terms += 1;
            }
        }
        self.epoch_loss += block_ce as f64;
    }

    /// Merge the step's `dL/dq` partials in fixed ascending shard order,
    /// then run the sequential path's per-triple backward hooks.
    fn reduce(&mut self, sh: &SharedCrew, model: &BlmModel, block: &[(usize, usize, usize)]) {
        let dim = sh.dim;
        let dsub = dim / 4;
        let m = 2 * block.len();
        let dq = &mut self.dq_full[..m * dim];
        vecops::zero(dq);
        for slot in &sh.slots {
            for (acc, &v) in dq.iter_mut().zip(&slot.lock().expect(HEALTHY).dq) {
                *acc += v;
            }
        }
        let (spec, ent, rel) = (&model.spec, &model.emb.ent, &model.emb.rel);
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
                vecops::axpy(1.0, hook_cond, self.d_ent.row_mut(cond));
                vecops::axpy(1.0, hook_rel, self.d_rel.row_mut(r));
            }
        }
    }

    /// The batch-end phase: reduce the batch's last step, assemble the
    /// dense entity gradient (conditioning totals + every shard's rank-1
    /// rows, which restart from zero), and take the shared optimiser step.
    fn end_batch(&mut self, sh: &SharedCrew, block: &[(usize, usize, usize)]) {
        let mut model = sh.model.write().expect(HEALTHY);
        self.reduce(sh, &model, block);
        // One add per element — the same two-subtotal sum for every crew
        // size.
        let d_ent = self.d_ent.as_mut_slice();
        for (range, slot) in sh.shards.iter().zip(&sh.slots) {
            let mut slot = slot.lock().expect(HEALTHY);
            let rows = &mut d_ent[range.start * sh.dim..range.end * sh.dim];
            vecops::axpy(1.0, slot.d_ent.as_slice(), rows);
            slot.d_ent.clear();
        }
        crate::trainer::apply_batch_update(
            self.cfg,
            self.ds,
            &self.order[self.batch.clone()],
            &mut model,
            &mut self.d_ent,
            &mut self.d_rel,
            &mut self.opt,
        );
        self.d_ent.clear();
        self.d_rel.clear();
    }
}

/// One crew participant's whole run — the lead (`lead: Some`, worker 0,
/// the calling thread) and every spawned worker execute this same loop, so
/// they issue the same [`Seat::phase`] sequence by construction:
///
/// * **rows** — score and softmax the owned rows; the lead first reduces
///   the previous mid-batch step, overlapping the crew's rows;
/// * **backward → gate** — reduce the owned shards' gradients, then the
///   lead records the step's cross-entropy and stages the next step. On a
///   batch's last step the staging moves to a phase of its own, after the
///   lead's batch end: the barrier in between is what lets the batch end
///   read every shard's gradient rows.
///
/// `None` means the crew was poisoned and left (see [`kg_eval::crew`]).
fn participant<F: FnMut(&BlmModel, EpochInfo) -> ControlFlow>(
    sh: &SharedCrew,
    policy: KernelPolicy,
    w: usize,
    panic_inject: Option<(usize, usize)>,
    seat: &mut Seat<'_>,
    mut lead: Option<&mut Lead<'_, F>>,
) -> Option<()> {
    let mut scratch = WorkerScratch::new(sh);
    // This step's block, and the previous one, which a mid-batch step
    // still owes the lead's reduce.
    let mut block: Vec<(usize, usize, usize)> = Vec::with_capacity(MULTICLASS_BLOCK);
    let mut prev: Vec<(usize, usize, usize)> = Vec::with_capacity(MULTICLASS_BLOCK);
    let mut unreduced = false;
    seat.phase(|| {
        if let Some(lead) = lead.as_deref_mut() {
            lead.stage_next(sh);
        }
    })?;
    for step in 0.. {
        std::mem::swap(&mut block, &mut prev);
        let batch_end = {
            let meta = sh.meta.read().expect(HEALTHY);
            block.clone_from(&meta.block);
            meta.batch_end
        };
        if block.is_empty() {
            break;
        }

        seat.phase(|| {
            if let Some((ps, pw)) = panic_inject {
                assert!(
                    ps != step || pw != w,
                    "train crew grenade tripped (step {step}, worker {w})"
                );
            }
            let model = sh.model.read().expect(HEALTHY);
            if let (Some(lead), true) = (lead.as_deref_mut(), unreduced) {
                lead.reduce(sh, &model, &prev);
            }
            phase_rows(sh, policy, &block, &model, &mut scratch, w)
        })?;
        seat.phase(|| {
            let m = 2 * block.len();
            phase_backward(
                sh,
                policy,
                m,
                &sh.model.read().expect(HEALTHY).emb.ent,
                &mut scratch,
                w,
            );
            if let Some(lead) = lead.as_deref_mut() {
                lead.record_ce(sh);
                if !batch_end {
                    lead.stage_next(sh);
                }
            }
        })?;
        if batch_end {
            seat.phase(|| {
                if let Some(lead) = lead.as_deref_mut() {
                    lead.end_batch(sh, &block);
                    lead.stage_next(sh);
                }
            })?;
        }
        unreduced = !batch_end;
    }
    Some(())
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
    F: FnMut(&BlmModel, EpochInfo) -> ControlFlow,
{
    let (model, opt, rng) = crate::trainer::init(spec, ds, cfg);
    let (n_ent, n_rel, dim) = (ds.n_entities, ds.n_relations, cfg.dim);
    let sh = SharedCrew::new(model, shards.min(n_ent).max(1), threads);
    let mut lead = Lead {
        ds,
        cfg,
        opt,
        rng,
        on_epoch,
        d_ent: Mat::zeros(n_ent, dim),
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
    crew::run(
        threads,
        |seat| {
            participant(&sh, policy, 0, panic_inject, seat, Some(&mut lead));
        },
        |w, seat| {
            participant::<F>(&sh, policy, w, panic_inject, seat, None);
        },
    );
    sh.model.into_inner().expect(HEALTHY)
}
