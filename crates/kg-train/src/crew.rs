//! The cooperative training engine: a persistent worker crew that runs
//! each [`crate::loss::multiclass_block`] step's own arithmetic, divided
//! among its participants.
//!
//! # Layout
//!
//! The block's two halves (see `loss.rs`) split two ways: the **row half**
//! by query row — participant `w` of `n` owns the contiguous rows
//! `w·m/n .. (w+1)·m/n` of an `m`-row step — and the **entity half** by
//! entity — participant `w` owns the contiguous entity range
//! [`kg_eval::engine::plan_shards`]`(n_entities, n)[w]`. The main thread is
//! the crew's lead: it owns the optimiser and the batch loop, and works its
//! rows and its entities like every other participant. Spawned workers live
//! for the whole training run (the scope wraps the epoch loop).
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
//! * one row block per participant — the row half's output for its rows:
//!   `p − onehot` coefficients, `d_cond` and relation-row gradients,
//!   cross-entropies — that its owner writes in the rows phase and
//!   everyone reads in the backward phase;
//! * one entity-gradient chunk per participant, its entity range's rows of
//!   the batch's dense entity gradient, that its owner adds to in every
//!   backward phase and the lead reads and zeroes at the batch end.
//!
//! # One step (one 32-triple block, 64 query rows)
//!
//! 1. **Rows** — every participant builds the whole query block and runs
//!    the row half over its own rows: scores against the whole table,
//!    softmax, cross-entropy, `p − onehot`, `dL/dq` and the
//!    query-backward hooks.
//! 2. **Backward** — every participant runs the entity half over its own
//!    entity range, reading every row block in row order, into its chunk.
//!    The lead also folds the step's cross-entropies and relation-row
//!    gradients in row order and stages the next step.
//!
//! A batch's last step takes one more phase: the lead alone assembles the
//! dense entity gradient from the chunks (zeroing them for the next
//! batch), adds the N3/L2 terms and takes the Adagrad step on the model
//! under its write lock — the next gate then hands the crew the updated
//! model.
//!
//! # Determinism contract
//!
//! The crew trains the sequential loop's trajectory byte for byte, for any
//! thread count and either [`KernelPolicy`] (pinned by
//! `tests/train_equivalence.rs`): a row's scores, `dL/dq` and hook
//! gradients depend on that row alone; every entity row receives terms
//! `0..m` in order with its `d_cond` injected after the term of the row it
//! conditions, whichever participant holds the terms or the entity; the
//! cross-entropy and the relation gradients are summed in row order.
//!
//! # Poison
//!
//! The crew sits on [`kg_eval::crew`]: every participant runs the same
//! `participant` loop and so issues the same [`Seat::phase`] sequence
//! (gate, rows, backward, batch end on batch ends). A panic in any phase — a
//! worker's, the lead's batch end, the epoch callback — poisons the crew
//! under that module's protocol and is re-raised on the caller with its
//! original payload; nothing of the protocol is restated here. A lock a
//! panicking phase poisons is never taken again: the rest of the crew
//! leaves at that phase's barrier.

use std::ops::Range;
use std::sync::{Mutex, RwLock};

use crate::config::TrainConfig;
use crate::loss::{
    fold_rows, multiclass_entities, multiclass_rows, BlockQueries, BlockRows, MULTICLASS_BLOCK,
};
use crate::trainer::{ControlFlow, EpochInfo};
use kg_core::{Dataset, Triple};
use kg_eval::crew::{self, Seat};
use kg_eval::engine::plan_shards;
use kg_linalg::{Adagrad, KernelPolicy, Mat, Optimizer, SeededRng};
use kg_models::{BlmModel, BlockSpec};

/// Why no crew lock is found poisoned (module docs, "Poison").
const HEALTHY: &str = "crew locks are only taken while the crew is healthy";

/// The step the lead hands the crew at each gate. An empty block ends the
/// run.
#[derive(Default)]
struct StepMeta {
    block: Vec<Triple>,
    /// The block is its batch's last: the step ends with the batch-end phase.
    batch_end: bool,
}

/// The crew's shared state: the model, the step block, the per-participant
/// row blocks and entity-gradient chunks.
struct SharedCrew {
    model: RwLock<BlmModel>,
    meta: RwLock<StepMeta>,
    /// One row block per participant.
    row_blocks: Vec<RwLock<BlockRows>>,
    /// One entity range per participant (fewer when there are more
    /// participants than entities), and its rows of the batch's gradient.
    ents: Vec<Range<usize>>,
    d_ent: Vec<Mutex<Mat>>,
    n_workers: usize,
}

impl SharedCrew {
    fn new(model: BlmModel, n_workers: usize) -> Self {
        let (n_ent, dim) = (model.emb.ent.rows(), model.emb.ent.cols());
        let rows = 2 * MULTICLASS_BLOCK;
        let row_blocks = (0..n_workers)
            .map(|w| {
                // The most rows any step deals `w` (not always at `rows`).
                let most = (0..=rows).map(|m| owned_rows(w, n_workers, m).len()).max();
                RwLock::new(BlockRows::new(most.unwrap_or(0), n_ent, dim))
            })
            .collect();
        let ents = plan_shards(n_ent, n_workers);
        let d_ent = ents.iter().map(|r| Mutex::new(Mat::zeros(r.len(), dim))).collect();
        SharedCrew {
            model: RwLock::new(model),
            meta: RwLock::default(),
            row_blocks,
            ents,
            d_ent,
            n_workers,
        }
    }
}

/// The contiguous query rows of an `m`-row step that participant `w` of
/// `n_workers` owns; ascending `w` walks the rows in order.
fn owned_rows(w: usize, n_workers: usize, m: usize) -> Range<usize> {
    w * m / n_workers..(w + 1) * m / n_workers
}

/// The lead's private half of the crew: the optimiser, the batch cursor
/// over the shuffled triple order, and the gradients only it folds.
struct Lead<'a, F> {
    ds: &'a Dataset,
    cfg: &'a TrainConfig,
    opt: Adagrad,
    rng: SeededRng,
    on_epoch: F,
    /// The batch's dense entity gradient, assembled at its end.
    d_ent: Mat,
    d_rel: Mat,
    /// This epoch's shuffled triple order.
    order: Vec<usize>,
    /// Epochs begun so far.
    epoch: usize,
    /// The current batch's span of `order`, and the next unstaged position
    /// inside it.
    batch: Range<usize>,
    at: usize,
    epoch_loss: f64,
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
                    loss: (self.epoch_loss / (2 * self.order.len()) as f64) as f32,
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
            self.epoch_loss = 0.0;
        }
        if self.at == self.batch.end {
            self.batch = self.at..(self.at + self.cfg.batch_size).min(self.order.len());
        }
        let end = (self.at + MULTICLASS_BLOCK).min(self.batch.end);
        meta.batch_end = end == self.batch.end;
        meta.block.extend(self.order[self.at..end].iter().map(|&i| self.ds.train[i]));
        self.at = end;
    }

    /// The batch-end phase: assemble the dense entity gradient from the
    /// chunks, which restart from zero, and take the shared optimiser step.
    fn end_batch(&mut self, sh: &SharedCrew) {
        let mut model = sh.model.write().expect(HEALTHY);
        let dim = self.d_ent.cols();
        for (ents, chunk) in sh.ents.iter().zip(&sh.d_ent) {
            let mut chunk = chunk.lock().expect(HEALTHY);
            let rows = &mut self.d_ent.as_mut_slice()[ents.start * dim..ents.end * dim];
            rows.copy_from_slice(chunk.as_slice());
            chunk.clear();
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
        self.d_rel.clear();
    }
}

/// One crew participant's whole run — the lead (`lead: Some`, worker 0,
/// the calling thread) and every spawned worker execute this same loop, so
/// they issue the same [`Seat::phase`] sequence by construction:
///
/// * **rows** — the row half over the owned rows;
/// * **backward → gate** — the entity half over the owned entities, then
///   the lead folds the step's cross-entropy and relation gradients and
///   stages the next step. On a batch's last step the staging moves to a
///   phase of its own, after the lead's batch end: the barrier in between
///   is what lets the batch end read every chunk.
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
    let mut queries = BlockQueries::new(sh.model.read().expect(HEALTHY).emb.ent.cols(), policy);
    let mut block: Vec<Triple> = Vec::with_capacity(MULTICLASS_BLOCK);
    seat.phase(|| {
        if let Some(lead) = lead.as_deref_mut() {
            lead.stage_next(sh);
        }
    })?;
    for step in 0.. {
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
            let (spec, ent, rel) = (&model.spec, &model.emb.ent, &model.emb.rel);
            let mut rows = sh.row_blocks[w].write().expect(HEALTHY);
            let owned = owned_rows(w, sh.n_workers, 2 * block.len());
            multiclass_rows(spec, &block, ent, rel, &mut queries, &mut rows, owned);
        })?;
        seat.phase(|| {
            let pieces: Vec<_> = sh.row_blocks.iter().map(|b| b.read().expect(HEALTHY)).collect();
            if let Some(ents) = sh.ents.get(w) {
                let mut d_ent = sh.d_ent[w].lock().expect(HEALTHY);
                multiclass_entities(&queries, &pieces, &mut d_ent, ents.clone());
            }
            if let Some(lead) = lead.as_deref_mut() {
                lead.epoch_loss += fold_rows(&pieces, &block, &mut lead.d_rel) as f64;
                if !batch_end {
                    lead.stage_next(sh);
                }
            }
        })?;
        if batch_end {
            seat.phase(|| {
                if let Some(lead) = lead.as_deref_mut() {
                    lead.end_batch(sh);
                    lead.stage_next(sh);
                }
            })?;
        }
    }
    Some(())
}

/// Train `spec` with the cooperative crew. The lead (calling thread) walks
/// the epoch/batch loop and works rows and entities alongside
/// `threads − 1` spawned workers kept alive across all epochs.
pub(crate) fn train_crew<F>(
    spec: &BlockSpec,
    ds: &Dataset,
    cfg: &TrainConfig,
    policy: KernelPolicy,
    threads: usize,
    panic_inject: Option<(usize, usize)>,
    on_epoch: F,
) -> BlmModel
where
    F: FnMut(&BlmModel, EpochInfo) -> ControlFlow,
{
    let (model, opt, rng) = crate::trainer::init(spec, ds, cfg);
    let (n_ent, n_rel, dim) = (ds.n_entities, ds.n_relations, cfg.dim);
    let sh = SharedCrew::new(model, threads);
    let mut lead = Lead {
        ds,
        cfg,
        opt,
        rng,
        on_epoch,
        d_ent: Mat::zeros(n_ent, dim),
        d_rel: Mat::zeros(n_rel, dim),
        order: (0..ds.train.len()).collect(),
        epoch: 0,
        batch: 0..0,
        at: ds.train.len(),
        epoch_loss: 0.0,
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
