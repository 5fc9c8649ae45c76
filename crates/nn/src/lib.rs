//! `preqr-nn` — the neural substrate of the PreQR reproduction.
//!
//! A small, dependency-light deep-learning library: dense [`Matrix`]
//! storage, a reverse-mode autograd [`Tensor`] graph, the layers required
//! by the PreQR model family (linear, embedding, layer-norm, multi-head
//! attention, transformer encoder, LSTM/BiLSTM, relational GCN), Adam/SGD
//! optimizers, and a binary checkpoint format.
//!
//! The dense kernels in [`matrix`] route through a persistent worker pool
//! ([`parallel`]) above a FLOP threshold: work is partitioned by output
//! rows, which keeps every per-element reduction in the same floating-point
//! order as the retained serial reference kernels, so results are
//! bit-identical at any thread count (`PREQR_THREADS`, defaulting to the
//! available hardware parallelism). Large shapes additionally use a
//! cache-blocked, packed serial microkernel under the row-parallel loop,
//! compiled per instruction set (AVX-512F, AVX2, baseline) and picked once
//! at runtime. A parameter's packed panels are kept from one
//! [`ops::matmul`] to the next until its value is written.
//!
//! # Example
//!
//! ```
//! use preqr_nn::layers::{Mlp, Module};
//! use preqr_nn::optim::Adam;
//! use preqr_nn::{ops, Matrix, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mlp = Mlp::new(&[2, 8, 1], &mut rng);
//! let mut opt = Adam::new(mlp.params(), 1e-2);
//! let x = Tensor::constant(Matrix::from_vec(1, 2, vec![0.5, -0.5]));
//! let target = Matrix::from_vec(1, 1, vec![1.0]);
//! for _ in 0..10 {
//!     let loss = ops::mse_loss(&mlp.forward(&x), &target);
//!     loss.backward();
//!     opt.step();
//! }
//! ```

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index-heavy numeric kernels read clearer with explicit indices
pub mod init;
pub mod layers;
pub mod matrix;
pub mod ops;
pub mod optim;
pub mod parallel;
mod rowops;
pub mod serialize;
pub mod tensor;

pub use matrix::Matrix;
pub use tensor::{no_grad, no_grad_active, NoGradGuard, Tensor};
