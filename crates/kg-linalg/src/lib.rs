//! Dense math substrate for the AutoSF reproduction.
//!
//! The paper trains knowledge-graph embeddings with PyTorch on GPUs; every
//! scoring function in the AutoSF search space is a sum of triple dot
//! products, so all gradients are closed-form and a small, allocation-free
//! set of dense kernels is enough to reproduce the system on CPU:
//!
//! * [`vecops`] — vector primitives (dot, axpy, Hadamard, softmax) plus the
//!   branchless rank-count sweep [`vecops::count_cmp`] behind filtered
//!   ranking, and the softmax's exponential [`vecops::exp`], defined
//!   in-tree (glibc's `expf` algorithm) instead of by the platform libm.
//! * [`matrix`] — row-major [`matrix::Mat`] with GEMV/GEMM used for
//!   score-all-entities ranking.
//! * [`gemm`] — cache-blocked batched kernels ([`gemm::gemm_nt_with`], its
//!   entity-shard core [`gemm::gemm_nt_rows_with`],
//!   [`gemm::gemm_acc_t_with`] and the rank-`m` gradient accumulate
//!   [`gemm::rank_update_with`]) behind the batched scoring engine and the
//!   multi-class loss; bit-identical per element to the per-query GEMV /
//!   `ger` paths they replace.
//! * [`simd`] — the explicit AVX2 and AVX-512 FMA implementations of the
//!   hot kernels plus the [`simd::KernelPolicy`] seam that selects them.
//!   Every product element is one chain of fused multiply-adds in a fixed
//!   term order, and each implementation runs that chain lane-per-output,
//!   so SIMD output is **bit-identical** to scalar under either policy
//!   ([`KernelPolicy::Fast`] is an alias of [`KernelPolicy::Exact`]; see
//!   the [`simd`] docs for the contract).
//! * [`rng`] — seeded random initialisation (uniform, Box-Muller normal,
//!   Xavier/Glorot).
//! * [`optim`] — Adagrad / Adam with sparse row updates (Adagrad is the
//!   paper's optimizer, Sec. V-A2; Adam trains the [`mlp`] predictors).
//! * [`mlp`] — a minimal multilayer perceptron with backprop, used by the
//!   SRF performance predictor (22-2-1), the one-hot predictor (96-8-1,
//!   Fig. 8) and the Gen-Approx baseline (Appendix D).

// Index loops mirror the paper's subscript notation in numeric kernels.
#![allow(clippy::needless_range_loop)]
#[macro_use]
mod fused;
pub mod gemm;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod rng;
pub mod simd;
pub mod vecops;

pub use matrix::Mat;
pub use mlp::{Activation, Mlp};
pub use optim::{Adagrad, Adam, Optimizer};
pub use rng::SeededRng;
pub use simd::{KernelPolicy, ResolvedKernel};
