//! An independently written copy of the *legacy* training-loop shape.
//!
//! Before this crate existed, every workload hand-rolled the same loop:
//! optional Fisher–Yates shuffle, gradient accumulation over fixed
//! chunks, `set_lr` + `step` per chunk, per-item f64 loss accumulation,
//! and (for the estimation trainers) epoch-end validation with
//! patience-3 early stopping and best-snapshot restore. This module
//! keeps that shape alive — no observability, nothing
//! shared with [`crate::Trainer`]'s control flow — so the golden tests
//! can pin `Trainer::fit` against it bit-for-bit.
//!
//! Do not "fix" this module to match `Trainer`; its value is that it was
//! written from the legacy loops, not from the trainer.

use preqr_nn::optim::Adam;
use preqr_nn::{Matrix, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

use crate::stats::{EpochStats, TrainReport};
use crate::task::TrainTask;
use crate::trainer::{Plan, TrainerConfig};

/// Runs `task` through the legacy loop shape described by `config`.
///
/// Shuffling, chunking, LR scheduling, early stopping and snapshot
/// restore all follow the pre-refactor code.
pub fn run(task: &mut dyn TrainTask, config: &TrainerConfig, rng: &mut StdRng) -> TrainReport {
    match config.plan {
        Plan::Epochs { epochs, chunk, shuffle } => {
            run_epochs(task, config, rng, epochs, chunk.max(1), shuffle)
        }
        Plan::Window { steps, take } => run_window(task, config, rng, steps, take),
    }
}

/// The `SqlBert::pretrain` / estimation-trainer shape.
fn run_epochs(
    task: &mut dyn TrainTask,
    config: &TrainerConfig,
    rng: &mut StdRng,
    epochs: usize,
    chunk: usize,
    shuffle: bool,
) -> TrainReport {
    let params = task.params();
    let mut opt = Adam::new(params.clone(), config.lr);
    let mut stats = Vec::with_capacity(epochs);
    let mut step: u64 = 0;
    let mut best = f64::INFINITY;
    let mut best_snap: Option<Vec<Matrix>> = None;
    let mut patience = 0usize;
    let mut early_stopped = false;
    let mut last_chunk_loss = 0.0f64;
    for epoch in 0..epochs {
        let mut order: Vec<usize> = (0..task.len()).collect();
        if shuffle {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
        }
        let mut total_loss = 0.0f64;
        let mut total_masked = 0usize;
        let mut total_correct = 0usize;
        let mut samples = 0usize;
        let epoch_start_step = step;
        for chunk_idxs in order.chunks(chunk) {
            task.chunk_start();
            let mut batch_loss = 0.0f64;
            for &idx in chunk_idxs {
                let out = task.step(idx, rng);
                batch_loss += out.loss;
                total_loss += out.loss;
                total_masked += out.masked;
                total_correct += out.correct;
                samples += 1;
            }
            task.chunk_end();
            last_chunk_loss = batch_loss / chunk_idxs.len().max(1) as f64;
            opt.set_lr(config.schedule.lr_at(config.lr, step));
            opt.step();
            step += 1;
            task.post_step();
        }
        let epoch_loss = total_loss / samples.max(1) as f64;
        let epoch_acc = total_correct as f64 / total_masked.max(1) as f64;
        let val = task.eval();
        let st = EpochStats {
            epoch,
            loss: epoch_loss,
            accuracy: epoch_acc,
            samples,
            steps: step - epoch_start_step,
            masked: total_masked,
            correct: total_correct,
            val,
        };
        task.epoch_end(&st);
        stats.push(st);
        if let (Some(max_patience), Some(v)) = (config.patience, val) {
            if v < best {
                best = v;
                best_snap = Some(params.iter().map(Tensor::value_clone).collect());
                patience = 0;
            } else {
                patience += 1;
                if patience >= max_patience {
                    early_stopped = true;
                    break;
                }
            }
        }
    }
    if let Some(snap) = best_snap {
        for (p, m) in params.iter().zip(snap) {
            p.set_value(m);
        }
    }
    TrainReport { stats, steps: step, early_stopped, last_chunk_loss }
}

/// The `update.rs::train_subset` shape: a sliding window over the
/// prepared examples, one optimizer step per window.
fn run_window(
    task: &mut dyn TrainTask,
    config: &TrainerConfig,
    rng: &mut StdRng,
    steps: usize,
    take: usize,
) -> TrainReport {
    let n = task.len();
    let params = task.params();
    let mut opt = Adam::new(params, config.lr);
    let mut last_chunk_loss = 0.0f64;
    let mut total_loss = 0.0f64;
    let mut samples = 0usize;
    for s in 0..steps {
        task.chunk_start();
        let batch: Vec<usize> =
            if n == 0 { Vec::new() } else { (s % n..n).take(take.min(n)).collect() };
        let mut batch_loss = 0.0f64;
        for &idx in &batch {
            let out = task.step(idx, rng);
            batch_loss += out.loss;
            total_loss += out.loss;
            samples += 1;
        }
        task.chunk_end();
        opt.set_lr(config.schedule.lr_at(config.lr, s as u64));
        opt.step();
        task.post_step();
        last_chunk_loss = batch_loss / batch.len().max(1) as f64;
    }
    let st = EpochStats {
        epoch: 0,
        loss: total_loss / samples.max(1) as f64,
        accuracy: 0.0,
        samples,
        steps: steps as u64,
        masked: 0,
        correct: 0,
        val: None,
    };
    TrainReport { stats: vec![st], steps: steps as u64, early_stopped: false, last_chunk_loss }
}
