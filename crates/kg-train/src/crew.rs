//! The cooperative block engine of a run wider than one thread: a crew
//! that runs each [`crate::loss::multiclass_block`] step's own arithmetic,
//! divided among its participants.
//!
//! # Layout
//!
//! The block's two halves (see `loss.rs`) split two ways: the **row half**
//! by query row — participant `w` of `n` owns the contiguous rows
//! `w·m/n .. (w+1)·m/n` of an `m`-row step — and the **entity half** by
//! entity — participant `w` owns the contiguous entity range
//! [`kg_eval::engine::plan_shards`]`(n_entities, n)[w]`. The calling
//! thread is the crew's lead: it walks the run's one epoch loop
//! ([`crate::TrainRun::epoch`]) and works its rows and its entities like
//! every other participant; each spawned worker walks the same epoch's
//! steps in lockstep. Spawned workers live for one `epoch()` call (the
//! scope wraps one epoch); the row blocks and gradient chunks live as long
//! as the run.
//!
//! Every shared value sits behind a lock with **one writer per phase**.
//! The crew's barrier separates every writer from its readers, so no lock
//! is ever waited on; it only turns "one writer, then readers" into safe
//! code:
//!
//! * the model, an `RwLock` every participant reads during a step and the
//!   lead writes only in its batch-end phase;
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
//!    gradients in row order.
//!
//! A batch's last step takes one more phase: the lead alone assembles the
//! dense entity gradient from the chunks (zeroing them for the next
//! batch) and runs the epoch loop's batch update on the model under its
//! write lock — the next rows phase then reads the updated model.
//!
//! # Determinism contract
//!
//! The crew trains the single-threaded loop's trajectory byte for byte,
//! for any width and either [`KernelPolicy`] (pinned by
//! `tests/train_equivalence.rs`): a row's scores, `dL/dq` and hook
//! gradients depend on that row alone; every entity row receives terms
//! `0..m` in order with its `d_cond` injected after the term of the row it
//! conditions, whichever participant holds the terms or the entity; the
//! cross-entropy and the relation gradients are summed in row order.
//!
//! # Poison
//!
//! The crew sits on [`kg_eval::crew`]: every participant walks the same
//! steps and so issues the same [`Seat::phase`] sequence (rows, backward,
//! batch end on batch ends). A panic in any phase — a worker's or the
//! lead's — poisons the crew under that module's protocol and is re-raised
//! from `epoch()` with its original payload; nothing of the protocol is
//! restated here. A lock a panicking phase poisons is never taken again:
//! the rest of the crew leaves at that phase's barrier, and the run may
//! only be dropped.

use std::ops::Range;
use std::sync::{Mutex, RwLock};

use crate::loss::{
    fold_rows, multiclass_entities, multiclass_rows, BlockQueries, BlockRows, MULTICLASS_BLOCK,
};
use crate::trainer::{epoch_steps, BlockGrads};
use kg_core::Triple;
use kg_eval::crew::{self, Seat};
use kg_eval::engine::plan_shards;
use kg_linalg::{KernelPolicy, Mat};
use kg_models::BlmModel;

/// Why no crew lock is found poisoned (module docs, "Poison").
const HEALTHY: &str = "crew locks are only taken while the crew is healthy";

/// What a crew keeps between epochs: the per-participant row blocks and
/// entity-gradient chunks, built once a run.
pub(crate) struct Crew {
    /// One row block per participant.
    row_blocks: Vec<RwLock<BlockRows>>,
    /// One entity range per participant (fewer when there are more
    /// participants than entities), and its rows of the batch's gradient.
    ents: Vec<Range<usize>>,
    d_ent: Vec<Mutex<Mat>>,
    policy: KernelPolicy,
    /// `(step, participant)` that panics at the start of that step's rows
    /// phase ([`crate::Trainer::inject_panic_at`]).
    panic_inject: Option<(usize, usize)>,
}

/// The contiguous query rows of an `m`-row step that participant `w` of
/// `n_workers` owns; ascending `w` walks the rows in order.
fn owned_rows(w: usize, n_workers: usize, m: usize) -> Range<usize> {
    w * m / n_workers..(w + 1) * m / n_workers
}

impl Crew {
    pub(crate) fn new(
        n_ent: usize,
        dim: usize,
        width: usize,
        policy: KernelPolicy,
        panic_inject: Option<(usize, usize)>,
    ) -> Self {
        let rows = 2 * MULTICLASS_BLOCK;
        let row_blocks = (0..width)
            .map(|w| {
                // The most rows any step deals `w` (not always at `rows`).
                let most = (0..=rows).map(|m| owned_rows(w, width, m).len()).max();
                RwLock::new(BlockRows::new(most.unwrap_or(0), n_ent, dim))
            })
            .collect();
        let ents = plan_shards(n_ent, width);
        let d_ent = ents.iter().map(|r| Mutex::new(Mat::zeros(r.len(), dim))).collect();
        Crew { row_blocks, ents, d_ent, policy, panic_inject }
    }

    /// One epoch on the crew: `walk` — the run's epoch loop — runs on the
    /// calling thread with the lead as its [`BlockGrads`], while each
    /// spawned worker walks the same steps of `order` (numbered from
    /// `first_step`) beside it. Returns `walk`'s result once every worker
    /// is joined, or re-raises the first participant panic.
    pub(crate) fn epoch<R>(
        &self,
        model: &mut BlmModel,
        train: &[Triple],
        order: &[usize],
        batch_size: usize,
        first_step: usize,
        walk: impl FnOnce(&mut dyn BlockGrads) -> Option<R>,
    ) -> Option<R> {
        let dim = model.emb.ent.cols();
        let model = RwLock::new(model);
        let model = &model;
        crew::run(
            self.row_blocks.len(),
            |seat| walk(&mut Participant::new(self, model, seat, 0, dim)),
            |w, seat| {
                Participant::new(self, model, seat, w, dim)
                    .follow(train, order, batch_size, first_step);
            },
        )
    }
}

/// One participant's seat at the crew for one epoch: worker `w`, its query
/// block, the shared model. The lead (`w = 0`) is the epoch loop's
/// [`BlockGrads`]; a spawned worker [`Participant::follow`]s the loop.
struct Participant<'a, 'm, 's> {
    crew: &'a Crew,
    model: &'a RwLock<&'m mut BlmModel>,
    seat: &'a mut Seat<'s>,
    w: usize,
    queries: BlockQueries,
}

impl<'a, 'm, 's> Participant<'a, 'm, 's> {
    fn new(
        crew: &'a Crew,
        model: &'a RwLock<&'m mut BlmModel>,
        seat: &'a mut Seat<'s>,
        w: usize,
        dim: usize,
    ) -> Self {
        Participant { crew, model, seat, w, queries: BlockQueries::new(dim, crew.policy) }
    }

    /// A spawned worker's epoch: the epoch loop's steps, each one
    /// [`Participant::step`], and an idle phase for the lead's batch end
    /// after a batch's last. `None` means the crew was poisoned and left.
    fn follow(
        &mut self,
        train: &[Triple],
        order: &[usize],
        batch_size: usize,
        first_step: usize,
    ) -> Option<()> {
        let mut block = Vec::with_capacity(MULTICLASS_BLOCK);
        for (step, (ids, batch)) in (first_step..).zip(epoch_steps(order, batch_size)) {
            block.clear();
            block.extend(ids.iter().map(|&i| train[i]));
            self.step(step, &block, None)?;
            if batch.is_some() {
                self.seat.phase(|| ())?;
            }
        }
        Some(())
    }

    /// A step's two phases: the row half over the owned rows, then the
    /// entity half over the owned entities — and, given the batch's
    /// `d_rel` (the lead), the fold of the step's cross-entropies and
    /// relation gradients, whose sum it returns. `None` means the crew was
    /// poisoned and left (see [`kg_eval::crew`]).
    fn step(&mut self, step: usize, block: &[Triple], d_rel: Option<&mut Mat>) -> Option<f32> {
        let Participant { crew, model, seat, w, queries } = self;
        let w = *w;
        seat.phase(|| {
            if let Some((ps, pw)) = crew.panic_inject {
                assert!(
                    ps != step || pw != w,
                    "train crew grenade tripped (step {step}, worker {w})"
                );
            }
            let model = model.read().expect(HEALTHY);
            let mut rows = crew.row_blocks[w].write().expect(HEALTHY);
            let owned = owned_rows(w, crew.row_blocks.len(), 2 * block.len());
            multiclass_rows(
                &model.spec,
                block,
                &model.emb.ent,
                &model.emb.rel,
                queries,
                &mut rows,
                owned,
            );
        })?;
        seat.phase(|| {
            let pieces: Vec<_> = crew.row_blocks.iter().map(|b| b.read().expect(HEALTHY)).collect();
            if let Some(ents) = crew.ents.get(w) {
                let mut d_ent = crew.d_ent[w].lock().expect(HEALTHY);
                multiclass_entities(queries, &pieces, &mut d_ent, ents.clone());
            }
            d_rel.map_or(0.0, |d_rel| fold_rows(&pieces, block, d_rel))
        })
    }
}

/// The lead's side of the epoch loop: its blocks' entity gradients stay in
/// the chunks until the batch end assembles them.
impl BlockGrads for Participant<'_, '_, '_> {
    fn block(
        &mut self,
        step: usize,
        block: &[Triple],
        _: &mut Mat,
        d_rel: &mut Mat,
    ) -> Option<f32> {
        self.step(step, block, Some(d_rel))
    }

    fn batch_end(
        &mut self,
        d_ent: &mut Mat,
        update: &mut dyn FnMut(&mut BlmModel, &mut Mat),
    ) -> Option<()> {
        let Participant { crew, model, seat, .. } = self;
        seat.phase(|| {
            let dim = d_ent.cols();
            for (ents, chunk) in crew.ents.iter().zip(&crew.d_ent) {
                let mut chunk = chunk.lock().expect(HEALTHY);
                let rows = &mut d_ent.as_mut_slice()[ents.start * dim..ents.end * dim];
                rows.copy_from_slice(chunk.as_slice());
                chunk.clear();
            }
            update(&mut model.write().expect(HEALTHY), d_ent);
        })
    }
}
