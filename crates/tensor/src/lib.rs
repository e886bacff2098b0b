//! # uae-tensor — minimal CPU autodiff for the UAE cardinality estimator
//!
//! The UAE paper (Wu & Cong, SIGMOD 2021) trains a deep autoregressive model
//! with gradients flowing through *differentiable progressive sampling*
//! (Gumbel-Softmax). The Rust deep-learning ecosystem does not offer a small,
//! dependency-free engine for that, so this crate provides one:
//!
//! * [`Tensor`] — dense row-major `f32` matrices;
//! * [`Tape`] — eager-forward, tape-based reverse-mode autodiff with the op
//!   set the estimator needs (masked matmul for MADE, sliced softmaxes,
//!   gathers, broadcast products, `max` with subgradients, …);
//! * [`ParamStore`] / [`GradStore`] — parameters and gradient accumulators
//!   that outlive individual tapes;
//! * [`Adam`] / [`Sgd`] — optimizers;
//! * [`rng`] — seeded initializers and Gumbel(0,1) noise (paper Eq. 9);
//! * [`check::gradient_check`] — finite-difference validation used by tests.
//!
//! The engine is deliberately small: 2-D tensors only, no broadcasting rules
//! beyond the two broadcast ops the model needs, and no implicit
//! parallelism. Batches of (query, sample) pairs map naturally onto rows.

pub mod check;
pub mod optim;
pub mod pool;
pub mod rng;
pub mod simd;
pub mod tape;
pub mod tensor;

pub use optim::{Adam, AdamState, Optimizer, Sgd};
pub use pool::pool_threads;
pub use simd::Backend;
pub use tape::{GradStore, NodeId, ParamId, ParamStore, Tape, TapePlan, TapeWorkspace};
pub use tensor::{tensor_alloc_count, Tensor};
