//! `preqr-train` — the shared training harness.
//!
//! PreQR is one pre-training objective plus four fine-tuned downstream
//! tasks, which this workspace used to implement as ten copy-pasted
//! epoch loops. This crate is the single place they all run now: a
//! [`TrainTask`] describes *what* one example's loss computation is, and
//! the [`Trainer`] owns *how* training proceeds — deterministic
//! Fisher–Yates shuffling, gradient-accumulation chunking, pluggable
//! learning-rate [`Schedule`]s, validation early stopping, periodic
//! checkpointing with crash-resume, and uniform `train.*` observability.
//!
//! ## Determinism contract
//!
//! Given the same task, config, and RNG state, [`Trainer::fit`] consumes
//! the RNG in exactly the order the hand-rolled loops did (shuffle draws
//! at epoch start, then per-example draws in visit order) and performs
//! floating-point accumulation in the same order, so every migrated
//! loop's loss/accuracy trajectory is bit-identical to its pre-harness
//! implementation at a fixed seed. The in-tree [`reference`](mod@reference) module keeps
//! an independently written copy of the legacy loop shape; the golden
//! tests pin `Trainer` against it bit-for-bit.
//!
//! Checkpointing never changes a run: a checkpoint stores the trainer's
//! whole run-state record plus the RNG's exact xoshiro256** state, and
//! saving never draws from the RNG. A run with checkpointing on at any
//! cadence, and a run interrupted and resumed from its checkpoint, are
//! both bit-identical to the same run with checkpointing off.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod reference;
pub mod schedule;
pub mod stats;
pub mod task;
pub mod trainer;

pub use checkpoint::CheckpointConfig;
pub use schedule::{scheduled_steps, Schedule};
pub use stats::{EpochStats, TrainReport};
pub use task::{FnTask, StepOutput, TrainTask};
pub use trainer::{Plan, Trainer, TrainerConfig};
