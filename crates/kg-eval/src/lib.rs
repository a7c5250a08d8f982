//! Evaluation substrate.
//!
//! * [`ranking`] — filtered link-prediction ranking (MRR, MR, Hits@k over
//!   head and tail queries), the protocol of Sec. V-B. Since the batched
//!   scoring engine, triples are ranked in blocks, scored and counted one
//!   cache-sized entity tile at a time (one GEMM per tile for factorising
//!   models), with bit-identical metrics to the per-query
//!   reference path ([`ranking::evaluate_sequential`]); parallel ranking
//!   shards the *entity table*, one thread a shard, and sums the shards'
//!   integer rank counts at the end
//!   ([`ranking::evaluate_parallel_sharded_with`]), bit-identical for any
//!   shard layout and thread count.
//! * [`classification`] — triplet classification with per-relation
//!   thresholds σ_r tuned on validation (Sec. V-C / Tab. VI).
//! * [`crew`] — the one threading primitive of this crate and `kg-train`:
//!   a lockstep crew (one barrier, one barrier-index poison protocol,
//!   original panic re-raised), which the training crew runs on, and an
//!   ordered work-queue fan-out, which parallel ranking and candidate
//!   training run on; none of them restates its protocol.
//! * [`curves`] — learning-curve capture for Fig. 4 / Fig. 6-9.
//! * [`engine`] — the shared shard/block scoring engine: block size, shard
//!   planning and the per-shard `BatchScorer` dispatch, reused by both the
//!   offline rankers here and the online `kg-serve` facade.

pub mod classification;
pub mod crew;
pub mod curves;
pub mod engine;
pub mod ranking;

pub use classification::{accuracy, make_negatives, tune_thresholds, Thresholds};
pub use curves::{Curve, CurvePoint};
pub use ranking::{
    evaluate_parallel_sharded_with, evaluate_parallel_with, evaluate_sequential, evaluate_with,
    filtered_rank, shard_bounds, top_k, top_k_into, RankMetrics,
};
