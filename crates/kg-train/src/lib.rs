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
//! * [`crew`] — the cooperative training engine: a persistent worker crew
//!   runs each multi-class block step's own arithmetic split by query row
//!   (scores, softmax, `dL/dq`, query-backward hooks) and by entity (the
//!   rank-1 entity gradients), so it trains the sequential loop's
//!   trajectory at any thread count. Its threads, barrier and panic
//!   handling are [`kg_eval::crew::run`]'s.
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
//! and a kernel policy, and the crew equals the sequential loop byte for
//! byte at any thread count. See [`crew`] for the full contract.

pub mod config;
pub mod crew;
pub mod loss;
pub mod parallel;
pub mod tpe;
pub mod trainer;

pub use config::TrainConfig;
pub use trainer::{ControlFlow, EpochInfo, TrainRun, Trainer};
