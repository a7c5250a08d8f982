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
//!   (the one training entry point: it selects the engine and owns the
//!   kernel policy). [`Trainer::start`] returns the sequential run as a
//!   value, [`TrainRun`], advanced one epoch per call with the model
//!   readable in between (learning curves, Fig. 4);
//!   [`Trainer::train_with_callback`] takes a plain
//!   `FnMut(&BlmModel, EpochInfo) -> ControlFlow` closure, on either
//!   engine.
//! * [`crew`] — the cooperative sharded training engine: a persistent
//!   worker crew splits each multi-class block step by entity shard
//!   (forward scores, rank-1 entity gradients) and by gradient owner
//!   (query-side partials merged by the lead in fixed ascending shard
//!   order), deterministic for any thread count at a fixed shard grid.
//!   Its threads, barrier and panic handling are [`kg_eval::crew::run`]'s.
//! * [`parallel`] — fan-out training of many candidate structures over
//!   [`kg_eval::crew::fan_out`] (the paper trains "8 models in parallel",
//!   Sec. V-A3).
//! * [`tpe`] — a Tree-structured Parzen Estimator: the stand-in for
//!   HyperOpt (hyper-parameter tuning, Sec. V-A2) and the "Bayes" search
//!   baseline of Fig. 6.
//!
//! # Determinism
//!
//! Results never depend on scheduling. The sequential loop is bit-exact
//! given a seed; the crew is bit-exact given a seed *and a shard grid* —
//! its forward scores, softmax probabilities and cross-entropies equal the
//! sequential path's bit for bit, while merged query-side gradients
//! reassociate f32 sums at fixed shard cuts only. See [`crew`] for the
//! full contract.

pub mod config;
pub mod crew;
pub mod loss;
pub mod parallel;
pub mod tpe;
pub mod trainer;

pub use config::TrainConfig;
pub use crew::DEFAULT_TRAIN_SHARDS;
pub use trainer::{ControlFlow, EpochInfo, TrainRun, Trainer};
