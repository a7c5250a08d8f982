//! Training substrate for bilinear KGE models.
//!
//! Implements Alg. 1 (stochastic training of KGE) with the paper's choices:
//! Adagrad (Sec. V-A2), the multi-class loss ("we use the multi-class loss
//! \[19\] since it currently achieves the best performance", Sec. II-A) and
//! mini-batches.
//!
//! * [`config`] — [`config::TrainConfig`], the hyper-parameters of Sec. V-A2.
//! * [`loss`] — the multi-class loss over [`kg_models::BlockSpec`] scores.
//! * [`trainer`] — the mini-batch trainer behind the [`Trainer`] builder
//!   (the one training entry point: it sets the run's width and owns the
//!   kernel policy). [`Trainer::start`] returns a run of any width as a
//!   value, [`TrainRun`], whose one epoch loop is advanced one epoch per
//!   call with the model readable in between (learning curves, Fig. 4);
//!   [`Trainer::train`] and [`Trainer::train_with_callback`] (a plain
//!   `FnMut(&BlmModel, EpochInfo) -> ControlFlow` closure, called between
//!   epochs) are that run taken to `cfg.epochs`.
//! * [`crew`] — how a run wider than one thread computes a block: a crew,
//!   opened once an epoch, runs each multi-class block step's own
//!   arithmetic split by query row (scores, softmax, `dL/dq`,
//!   query-backward hooks) and by entity (the rank-1 entity gradients), so
//!   a run trains the single-threaded trajectory at any width. Its
//!   threads, barrier and panic handling are [`kg_eval::crew::run`]'s.
//! * [`parallel`] — fan-out training of many candidate structures over
//!   [`kg_eval::crew::fan_out`] (the paper trains "8 models in parallel",
//!   Sec. V-A3).
//! * [`tpe`] — a Tree-structured Parzen Estimator: the stand-in for
//!   HyperOpt (hyper-parameter tuning, Sec. V-A2) and the "Bayes" search
//!   baseline of Fig. 6.
//!
//! # Determinism
//!
//! Results never depend on scheduling. Training is bit-exact given a seed
//! and a kernel policy, and a run of any width equals the single-threaded
//! loop byte for byte. See [`crew`] for the full contract.

pub mod config;
pub mod crew;
pub mod loss;
pub mod parallel;
pub mod tpe;
pub mod trainer;

pub use config::TrainConfig;
pub use trainer::{ControlFlow, EpochInfo, TrainRun, Trainer};
