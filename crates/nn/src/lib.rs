//! `preqr-nn` — the neural substrate of the PreQR reproduction.
//!
//! A small, dependency-light deep-learning library: dense [`Matrix`]
//! storage, a reverse-mode autograd [`Tensor`] graph, the layers required
//! by the PreQR model family (linear, embedding, layer-norm, multi-head
//! attention, transformer encoder, LSTM/BiLSTM, relational GCN), Adam/SGD
//! optimizers, and a binary checkpoint format.
//!
//! Every kernel runs on the thread that calls it; the crate spawns no
//! thread. Above a FLOP threshold the matmul kernels in [`matrix`] run a
//! cache-blocked, packed microkernel, compiled per instruction set
//! (AVX-512F, AVX2, baseline) and picked once at runtime. It keeps every
//! per-element reduction in the same floating-point order as the retained
//! serial reference kernels, so results are bit-identical on either path.
//! A parameter's packed panels are kept from one tape-free
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
pub use tensor::{no_grad, no_grad_active, GradOrder, NoGradGuard, Tensor};
