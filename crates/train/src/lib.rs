//! `preqr-train` — the shared training harness.
//!
//! PreQR is one pre-training objective plus four fine-tuned downstream
//! tasks, which this workspace used to implement as ten copy-pasted
//! epoch loops. This crate is the single place they all run now: a
//! [`TrainTask`] describes *what* one example's loss computation is, and
//! the [`Trainer`] owns *how* training proceeds — deterministic
//! Fisher–Yates shuffling, gradient-accumulation chunking, pluggable
//! learning-rate [`Schedule`]s, validation early stopping with
//! best-snapshot restore, and uniform `train.*` observability.
//!
//! ## Determinism contract
//!
//! Given the same task, config, and RNG state, [`Trainer::fit`] consumes
//! the RNG in exactly the order the hand-rolled loops did (shuffle draws
//! at epoch start, then per-example draws in visit order) and performs
//! floating-point accumulation in the same order, so every migrated
//! loop's loss/accuracy trajectory is bit-identical to its pre-harness
//! implementation at a fixed seed. A task's [`TrainTask::chunk`] hook
//! may run a chunk's examples any way it likes (MLM pre-training runs
//! them on every core), but must draw from the RNG and train exactly as
//! [`TrainTask::step`] over them in visit order would; the trainer sums
//! the chunk's outputs in visit order. The in-tree [`reference`](mod@reference) module keeps
//! an independently written copy of the legacy loop shape; the golden
//! tests pin `Trainer` against it bit-for-bit.

#![warn(missing_docs)]

pub mod reference;
pub mod schedule;
pub mod stats;
pub mod task;
pub mod trainer;

pub use schedule::{scheduled_steps, Schedule};
pub use stats::{EpochStats, TrainReport};
pub use task::{FnTask, StepOutput, TrainTask};
pub use trainer::{Plan, Trainer, TrainerConfig};
