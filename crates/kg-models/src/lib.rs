//! Scoring functions for knowledge-graph embedding.
//!
//! The paper's central object is the **unified bilinear representation**
//! (Sec. III-B): embeddings split into four components and the relation
//! matrix `g(r)` is a 4×4 grid of signed diagonal blocks. [`blm`] implements
//! that representation ([`blm::BlockSpec`]) with closed-form scoring and
//! gradients, plus the four human-designed BLMs it unifies (DistMult,
//! ComplEx, Analogy, SimplE — Tab. I / Fig. 1).
//!
//! For the paper's baseline table we also implement:
//! * [`tdm`] — translational-distance models (TransE, TransH, RotatE), each
//!   with self-contained negative-sampling training;
//! * [`nnm`] — the "Gen-Approx" MLP scorer of Fig. 6 / Appendix D;
//! * [`rules`] — a simplified anytime bottom-up rule learner standing in
//!   for AnyBURL (see DESIGN.md §2).
//!
//! Everything rankable implements [`predictor::LinkPredictor`] plus its
//! block-scoring extension [`batch::BatchScorer`] — the interfaces
//! `kg-eval`'s batched ranking engine consumes. Models that factor as
//! `⟨query, entity⟩` answer whole query blocks with one cache-blocked GEMM.

// Index loops mirror the paper's subscript notation in numeric kernels.
#![allow(clippy::needless_range_loop)]
pub mod batch;
pub mod blm;
pub mod embeddings;
pub mod nnm;
pub mod predictor;
pub mod rules;
pub mod tdm;

pub use batch::{BatchScorer, BatchScratch};
pub use blm::{classics, BlmModel, Block, BlockSpec};
pub use embeddings::Embeddings;
pub use kg_linalg::KernelPolicy;
pub use predictor::LinkPredictor;
