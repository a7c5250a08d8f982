//! The mini-batch trainer (Alg. 1 with the paper's choices).
//!
//! Per batch: accumulate dense entity/relation gradients (the multi-class
//! loss couples every entity through the softmax), fold in the L2 penalty,
//! take one Adagrad step, decay the learning rate per epoch. The
//! multi-class forward/backward runs through the batched scoring engine
//! ([`crate::loss::multiclass_block`]): blocks of triples share one GEMM
//! against the entity table instead of a GEMV per query. The sequential
//! run is a value, [`TrainRun`], advanced one epoch at a time, so a caller
//! can read the model between epochs (validation curves, Fig. 4) or stop
//! and continue a run; an optional per-epoch callback does the same inside
//! one [`Trainer::train_with_callback`] call, on either engine.

use crate::config::TrainConfig;
use crate::loss::{multiclass_block, MulticlassScratch, MULTICLASS_BLOCK};
use kg_core::{Dataset, Triple};
use kg_linalg::{Adagrad, KernelPolicy, Mat, Optimizer, SeededRng};
use kg_models::{BlmModel, BlockSpec, Embeddings};
use std::time::Instant;

/// Information handed to the per-epoch callback.
#[derive(Debug, Clone, Copy)]
pub struct EpochInfo {
    /// 0-based epoch that just finished.
    pub epoch: usize,
    /// Mean training loss of that epoch.
    pub loss: f32,
    /// Wall-clock seconds since training started (for a [`TrainRun`]:
    /// since [`Trainer::start`] returned, time between epochs included).
    pub seconds: f64,
}

/// Whether to keep training after an epoch callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlFlow {
    /// Run the next epoch.
    Continue,
    /// Stop now and return the current model (early stopping — the paper
    /// trains "until converge", Sec. V-A2; callers implement the
    /// convergence criterion, e.g. patience on validation MRR).
    Stop,
}

/// The state both engines start from: validate the config, take the
/// training stream, draw the initial embeddings from it, create the
/// Adagrad state.
///
/// # Panics
/// Panics if the config fails validation or the dataset has no training
/// triples.
pub(crate) fn init(
    spec: &BlockSpec,
    ds: &Dataset,
    cfg: &TrainConfig,
) -> (BlmModel, Adagrad, SeededRng) {
    cfg.validate().expect("invalid training configuration");
    assert!(!ds.train.is_empty(), "cannot train on an empty training set");
    let mut rng = SeededRng::new(cfg.seed ^ 0xEE55_11AA_77CC_33BB);
    let emb = Embeddings::init(ds.n_entities, ds.n_relations, cfg.dim, &mut rng);
    let opt = Adagrad::new((ds.n_entities + ds.n_relations) * cfg.dim, cfg.lr, cfg.decay);
    (BlmModel::new(spec.clone(), emb), opt, rng)
}

/// A sequential training run between epochs: the model, the Adagrad state,
/// the training stream and the loss scratch, from [`Trainer::start`].
/// Each [`TrainRun::epoch`] call continues the one trajectory, so `k` calls
/// equal [`Trainer::train`] at `epochs = k` byte for byte, whatever the
/// caller does with [`TrainRun::model`] in between.
pub struct TrainRun<'a> {
    ds: &'a Dataset,
    cfg: TrainConfig,
    model: BlmModel,
    opt: Adagrad,
    rng: SeededRng,
    scratch: MulticlassScratch,
    d_ent: Mat,
    d_rel: Mat,
    triples: Vec<Triple>,
    order: Vec<usize>,
    /// Epochs finished.
    epoch: usize,
    start: Instant,
}

impl<'a> TrainRun<'a> {
    fn new(spec: &BlockSpec, ds: &'a Dataset, cfg: &TrainConfig, policy: KernelPolicy) -> Self {
        let (model, opt, rng) = init(spec, ds, cfg);
        let (n_ent, n_rel, dim) = (ds.n_entities, ds.n_relations, cfg.dim);
        TrainRun {
            ds,
            cfg: *cfg,
            model,
            opt,
            rng,
            scratch: MulticlassScratch::with_policy(n_ent, dim, policy),
            d_ent: Mat::zeros(n_ent, dim),
            d_rel: Mat::zeros(n_rel, dim),
            triples: Vec::with_capacity(MULTICLASS_BLOCK),
            order: (0..ds.train.len()).collect(),
            epoch: 0,
            start: Instant::now(),
        }
    }

    /// Train one more epoch: shuffle, one Adagrad step per mini-batch, then
    /// the per-epoch learning-rate decay.
    pub fn epoch(&mut self) -> EpochInfo {
        let TrainRun { ds, cfg, model, opt, rng, scratch, d_ent, d_rel, triples, order, .. } = self;
        rng.shuffle(order);
        let mut epoch_loss = 0.0f64;
        for batch in order.chunks(cfg.batch_size) {
            d_ent.clear();
            d_rel.clear();
            // The all-entity softmax goes through the batched scoring
            // engine: blocks of triples share one GEMM forward and one
            // batched transposed product backward.
            for chunk in batch.chunks(MULTICLASS_BLOCK) {
                triples.clear();
                triples.extend(chunk.iter().map(|&i| ds.train[i]));
                epoch_loss += multiclass_block(
                    &model.spec,
                    triples,
                    &model.emb.ent,
                    &model.emb.rel,
                    d_ent,
                    d_rel,
                    scratch,
                ) as f64;
            }
            apply_batch_update(cfg, ds, batch, model, d_ent, d_rel, opt);
        }
        opt.end_epoch();
        let info = EpochInfo {
            epoch: self.epoch,
            // Two cross-entropies per triple: tail and head direction.
            loss: (epoch_loss / (2 * order.len()) as f64) as f32,
            seconds: self.start.elapsed().as_secs_f64(),
        };
        self.epoch += 1;
        info
    }

    /// The model as of the last finished epoch.
    pub fn model(&self) -> &BlmModel {
        &self.model
    }

    /// End the run, keeping the model.
    pub fn into_model(self) -> BlmModel {
        self.model
    }
}

/// The batch end both trainers share: fold the regularisers into the
/// batch's summed gradients and take one Adagrad step. In order — N3 on the
/// rows this batch touched (Lacroix et al.: d|v|³/dv = 3·sign(v)·v²,
/// weighted per appearance), mean over the batch, L2 weight decay, update.
pub(crate) fn apply_batch_update(
    cfg: &TrainConfig,
    ds: &Dataset,
    batch: &[usize],
    model: &mut BlmModel,
    d_ent: &mut Mat,
    d_rel: &mut Mat,
    opt: &mut Adagrad,
) {
    if cfg.n3 > 0.0 {
        for &i in batch {
            let tr = ds.train[i];
            for row in [tr.h.idx(), tr.t.idx()] {
                n3_grad(cfg.n3, model.emb.ent.row(row), d_ent.row_mut(row));
            }
            n3_grad(cfg.n3, model.emb.rel.row(tr.r.idx()), d_rel.row_mut(tr.r.idx()));
        }
    }
    let inv = 1.0 / batch.len() as f32;
    kg_linalg::vecops::scale(inv, d_ent.as_mut_slice());
    kg_linalg::vecops::scale(inv, d_rel.as_mut_slice());
    if cfg.l2 > 0.0 {
        kg_linalg::vecops::axpy(cfg.l2, model.emb.ent.as_slice(), d_ent.as_mut_slice());
        kg_linalg::vecops::axpy(cfg.l2, model.emb.rel.as_slice(), d_rel.as_mut_slice());
    }
    let n_ent_params = d_ent.as_slice().len();
    opt.update(0, model.emb.ent.as_mut_slice(), d_ent.as_slice());
    opt.update(n_ent_params, model.emb.rel.as_mut_slice(), d_rel.as_slice());
}

/// Accumulate the N3 gradient `3·w·sign(v)·v²` of one embedding row.
fn n3_grad(weight: f32, row: &[f32], grad: &mut [f32]) {
    for (g, &v) in grad.iter_mut().zip(row.iter()) {
        *g += 3.0 * weight * v.signum() * v * v;
    }
}

/// The one front door over the training engines: `Trainer::new(cfg)` with
/// no knob set runs the single-threaded loop on its historical, bit-exact
/// trajectory; the knobs select the engine. [`Trainer::start`] hands that
/// loop out as a resumable [`TrainRun`].
///
/// * [`Trainer::threads`] routes training through the cooperative crew
///   ([`crate::crew`]), which trains the sequential loop's trajectory
///   byte for byte at any thread count — `threads(1)` runs the same crew
///   code path with an empty crew.
/// * [`Trainer::policy`] pins the [`KernelPolicy`] for the whole run.
///   Unset, it is the process default [`Trainer::new`] resolved
///   ([`KernelPolicy::default_from_env`], i.e. `Exact` unless
///   `KG_KERNEL_POLICY=fast`).
///
/// ```no_run
/// # use kg_train::{Trainer, TrainConfig};
/// # let (spec, ds): (kg_models::BlockSpec, kg_core::Dataset) = unimplemented!();
/// let model = Trainer::new(TrainConfig::default())
///     .threads(4)
///     .train(&spec, &ds);
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    cfg: TrainConfig,
    policy: KernelPolicy,
    threads: Option<usize>,
    panic_inject: Option<(usize, usize)>,
}

impl Trainer {
    /// A trainer with the given config and default engine knobs: no
    /// explicit thread count (sequential loop), the kernel policy resolved
    /// from the environment here, once ([`KernelPolicy::default_from_env`]).
    pub fn new(cfg: TrainConfig) -> Self {
        Trainer { cfg, policy: KernelPolicy::default_from_env(), threads: None, panic_inject: None }
    }

    /// Pin the kernel policy for the whole run.
    pub fn policy(mut self, policy: KernelPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Train with a cooperative crew of `n` threads
    /// (the calling thread works as the crew's lead, so `n = 1` spawns
    /// nothing).
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n >= 1, "Trainer::threads requires at least one thread");
        self.threads = Some(n);
        self
    }

    /// Test hook: make crew participant `worker` panic at the start of
    /// step `step`'s row phase. Exercises the crew's poison protocol
    /// ([`kg_eval::crew`]).
    #[doc(hidden)]
    pub fn inject_panic_at(mut self, step: usize, worker: usize) -> Self {
        self.panic_inject = Some((step, worker));
        self
    }

    /// Start a sequential run of `spec` on `ds.train`, to be advanced with
    /// [`TrainRun::epoch`]; `cfg.epochs` is not consulted, the caller
    /// decides when to stop.
    ///
    /// # Panics
    /// As [`Trainer::train_with_callback`], and on a [`Trainer::threads`]
    /// trainer: the crew trains in one call.
    pub fn start<'a>(&self, spec: &BlockSpec, ds: &'a Dataset) -> TrainRun<'a> {
        assert!(
            self.threads.is_none(),
            "Trainer::start runs the sequential engine; a .threads(n) crew trains in one train call"
        );
        TrainRun::new(spec, ds, &self.cfg, self.policy)
    }

    /// Train `spec` on `ds.train` without a callback.
    ///
    /// # Panics
    /// As [`Trainer::train_with_callback`].
    pub fn train(&self, spec: &BlockSpec, ds: &Dataset) -> BlmModel {
        self.train_with_callback(spec, ds, |_m: &BlmModel, _i: EpochInfo| ControlFlow::Continue)
    }

    /// Train for `cfg.epochs` epochs with a per-epoch callback
    /// `(model_so_far, info) -> ControlFlow`; returning
    /// [`ControlFlow::Stop`] ends training early.
    ///
    /// # Panics
    /// Panics if the config fails validation or the dataset has no training
    /// triples.
    pub fn train_with_callback<F>(
        &self,
        spec: &BlockSpec,
        ds: &Dataset,
        mut on_epoch: F,
    ) -> BlmModel
    where
        F: FnMut(&BlmModel, EpochInfo) -> ControlFlow,
    {
        if let Some(threads) = self.threads {
            return crate::crew::train_crew(
                spec,
                ds,
                &self.cfg,
                self.policy,
                threads,
                self.panic_inject,
                on_epoch,
            );
        }
        let mut run = TrainRun::new(spec, ds, &self.cfg, self.policy);
        for _ in 0..self.cfg.epochs {
            let info = run.epoch();
            if on_epoch(run.model(), info) == ControlFlow::Stop {
                break;
            }
        }
        run.into_model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_models::blm::classics;
    use kg_models::LinkPredictor;

    fn toy_dataset() -> Dataset {
        // deterministic ring + a symmetric relation
        let mut train = Vec::new();
        for i in 0..20u32 {
            train.push(Triple::new(i, 0, (i + 1) % 20));
        }
        for i in 0..10u32 {
            train.push(Triple::new(2 * i, 1, 2 * i + 1));
            train.push(Triple::new(2 * i + 1, 1, 2 * i));
        }
        Dataset::new("toy", train, vec![Triple::new(0, 0, 1)], vec![Triple::new(1, 0, 2)])
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig { dim: 16, epochs: 25, lr: 0.5, l2: 1e-5, batch_size: 16, ..Default::default() }
    }

    fn bits(m: &BlmModel) -> Vec<u32> {
        m.emb.ent.as_slice().iter().chain(m.emb.rel.as_slice()).map(|v| v.to_bits()).collect()
    }

    /// `TrainRun: Send` — a run can move between `fan_out` calls.
    const _: () = {
        const fn send<T: Send>() {}
        send::<TrainRun<'static>>();
    };

    /// `start` + k × `epoch()` is `train` at `epochs = k`, byte for byte,
    /// with and without the N3 penalty — reading and evaluating the model
    /// between epochs does not touch the run.
    #[test]
    fn run_epochs_continue_one_trajectory() {
        let ds = toy_dataset();
        let filter = kg_core::FilterIndex::from_dataset(&ds);
        let k = 3;
        for n3 in [0.0, 1e-3] {
            let cfg = TrainConfig { epochs: k, n3, ..quick_cfg() };
            let mut run = Trainer::new(cfg).start(&classics::complex(), &ds);
            for epoch in 0..k {
                assert_eq!(run.epoch().epoch, epoch);
                let m = kg_eval::ranking::evaluate_sequential(run.model(), &ds.valid, &filter);
                assert!(m.mrr > 0.0);
            }
            let once = Trainer::new(cfg).train(&classics::complex(), &ds);
            assert_eq!(bits(&run.into_model()), bits(&once), "n3 {n3}");
        }
    }

    /// A callback stopping after epoch `e` leaves the model `train` returns
    /// at `epochs = e + 1`, on both engines.
    #[test]
    fn callback_stop_equals_training_to_that_epoch() {
        let ds = toy_dataset();
        let e = 2;
        for threads in [None, Some(2)] {
            let trainer = |epochs: usize| {
                let t = Trainer::new(TrainConfig { epochs, ..quick_cfg() });
                match threads {
                    Some(n) => t.threads(n),
                    None => t,
                }
            };
            let stopped =
                trainer(10).train_with_callback(&classics::simple(), &ds, |_: &_, info| {
                    if info.epoch == e {
                        ControlFlow::Stop
                    } else {
                        ControlFlow::Continue
                    }
                });
            let full = trainer(e + 1).train(&classics::simple(), &ds);
            assert_eq!(bits(&stopped), bits(&full), "threads {threads:?}");
        }
    }

    #[test]
    #[should_panic(expected = "a .threads(n) crew trains in one train call")]
    fn start_on_a_crewed_trainer_panics() {
        Trainer::new(quick_cfg()).threads(2).start(&classics::simple(), &toy_dataset());
    }

    #[test]
    fn multiclass_loss_decreases() {
        let ds = toy_dataset();
        let mut losses = Vec::new();
        Trainer::new(quick_cfg()).train_with_callback(
            &classics::simple(),
            &ds,
            |_: &_, info: EpochInfo| {
                losses.push(info.loss);
                ControlFlow::Continue
            },
        );
        assert_eq!(losses.len(), 25);
        assert!(
            losses.last().unwrap() < &losses[0],
            "loss did not decrease: {} -> {}",
            losses[0],
            losses.last().unwrap()
        );
    }

    #[test]
    fn trained_model_ranks_training_tails_highly() {
        let ds = toy_dataset();
        let model = Trainer::new(quick_cfg()).train(&classics::complex(), &ds);
        let mut scores = vec![0.0f32; 20];
        let mut hits = 0;
        for i in 0..20usize {
            model.score_tails(i, 0, &mut scores);
            let target = (i + 1) % 20;
            let better = scores.iter().filter(|&&s| s > scores[target]).count();
            if better < 3 {
                hits += 1;
            }
        }
        assert!(hits >= 15, "only {hits}/20 training edges ranked in top 3");
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let ds = toy_dataset();
        let a = Trainer::new(quick_cfg()).train(&classics::distmult(), &ds);
        let b = Trainer::new(quick_cfg()).train(&classics::distmult(), &ds);
        assert_eq!(a.emb.ent, b.emb.ent);
        let c = Trainer::new(quick_cfg().with_seed(99)).train(&classics::distmult(), &ds);
        assert_ne!(c.emb.ent, a.emb.ent);
    }

    #[test]
    fn callback_sees_monotone_time() {
        let ds = toy_dataset();
        let mut last = -1.0f64;
        let cfg = TrainConfig { epochs: 5, ..quick_cfg() };
        Trainer::new(cfg).train_with_callback(
            &classics::simple(),
            &ds,
            |_: &_, info: EpochInfo| {
                assert!(info.seconds >= last);
                last = info.seconds;
                ControlFlow::Continue
            },
        );
    }

    #[test]
    fn early_stopping_halts_training() {
        let ds = toy_dataset();
        let mut seen = 0usize;
        Trainer::new(quick_cfg()).train_with_callback(
            &classics::simple(),
            &ds,
            |_: &_, info: EpochInfo| {
                seen += 1;
                if info.epoch >= 4 {
                    ControlFlow::Stop
                } else {
                    ControlFlow::Continue
                }
            },
        );
        assert_eq!(seen, 5, "training should stop after epoch index 4");
    }

    #[test]
    fn n3_regulariser_shrinks_embeddings() {
        let ds = toy_dataset();
        let plain =
            Trainer::new(TrainConfig { l2: 0.0, ..quick_cfg() }).train(&classics::simple(), &ds);
        let reg = Trainer::new(TrainConfig { l2: 0.0, n3: 0.05, ..quick_cfg() })
            .train(&classics::simple(), &ds);
        let norm = |m: &BlmModel| kg_linalg::vecops::norm2(m.emb.ent.as_slice());
        assert!(
            norm(&reg) < norm(&plain),
            "N3 should shrink embeddings: {} vs {}",
            norm(&reg),
            norm(&plain)
        );
        // and training still works
        let mut scores = vec![0.0f32; 20];
        reg.score_tails(0, 0, &mut scores);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_train_panics() {
        let ds = Dataset::new("empty", vec![], vec![], vec![]);
        Trainer::new(quick_cfg()).train(&classics::simple(), &ds);
    }

    /// The headline semantic guarantee behind Tab. I: DistMult, whose g(r)
    /// is always symmetric, cannot distinguish (h, r, t) from (t, r, h),
    /// while ComplEx can — on an anti-symmetric relation ComplEx must win.
    #[test]
    fn complex_beats_distmult_on_antisymmetric_data() {
        // strictly one-directional chain relation
        let train: Vec<Triple> = (0..30u32).map(|i| Triple::new(i, 0, (i + 1) % 31)).collect();
        let ds = Dataset::new("anti", train.clone(), vec![], vec![]);
        let cfg = quick_cfg();
        let dm = Trainer::new(cfg).train(&classics::distmult(), &ds);
        let cx = Trainer::new(cfg).train(&classics::complex(), &ds);
        // Compare mean margin between the true direction and the reverse.
        let margin = |m: &BlmModel| {
            let mut acc = 0.0f32;
            for tr in &train {
                acc += m.score_triple(tr.h.idx(), tr.r.idx(), tr.t.idx())
                    - m.score_triple(tr.t.idx(), tr.r.idx(), tr.h.idx());
            }
            acc / train.len() as f32
        };
        let dm_margin = margin(&dm);
        let cx_margin = margin(&cx);
        assert!(dm_margin.abs() < 1e-3, "DistMult cannot have directional margin: {dm_margin}");
        assert!(cx_margin > 0.1, "ComplEx should learn direction: {cx_margin}");
    }
}
