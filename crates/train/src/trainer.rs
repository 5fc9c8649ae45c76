//! The [`Trainer`]: one deterministic, resumable driver for every
//! training loop in the workspace.

use std::io;

use preqr_nn::optim::Adam;
use preqr_nn::{Matrix, Tensor};
use preqr_obs as obs;
use rand::rngs::StdRng;
use rand::Rng;

use crate::checkpoint::{self, CheckpointConfig};
use crate::schedule::Schedule;
use crate::stats::{EpochStats, TrainReport};
use crate::task::TrainTask;

/// How examples are visited.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Plan {
    /// Classic epochs: visit every example each epoch, accumulating
    /// gradients over `chunk`-sized micro-batches, optionally shuffling
    /// the visit order with a Fisher–Yates pass per epoch.
    Epochs {
        /// Number of epochs.
        epochs: usize,
        /// Micro-batch size (one optimizer step per chunk).
        chunk: usize,
        /// Whether to Fisher–Yates-shuffle the visit order each epoch.
        shuffle: bool,
    },
    /// Sliding window over the example list (the incremental-update
    /// shape): at step `s`, train on examples `s % len ..` capped at
    /// `take`, one optimizer step per window. Counts as a single epoch.
    Window {
        /// Number of optimizer steps.
        steps: usize,
        /// Maximum examples per window.
        take: usize,
    },
}

/// Everything the [`Trainer`] needs besides the task itself.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    /// Visit plan (epochs or sliding window).
    pub plan: Plan,
    /// Base learning rate (the schedule modulates it per step).
    pub lr: f32,
    /// Learning-rate schedule.
    pub schedule: Schedule,
    /// Early stopping: stop after this many consecutive epochs without
    /// validation improvement. `None` disables early stopping (the
    /// validation metric is still recorded when the task evaluates one).
    pub patience: Option<usize>,
    /// Periodic checkpointing with crash-resume. `None` disables it;
    /// either way the run's results are the same.
    pub checkpoint: Option<CheckpointConfig>,
    /// Stop (with `halted = true`) once the global step counter reaches
    /// this value — used by smoke tests and the resume proptest to
    /// simulate an interrupted run.
    pub halt_after_steps: Option<u64>,
}

impl TrainerConfig {
    /// A plan at a base learning rate with a constant schedule, no early
    /// stopping, and no checkpointing — the common fine-tune setup.
    pub fn new(plan: Plan, lr: f32) -> Self {
        Self {
            plan,
            lr,
            schedule: Schedule::Constant,
            patience: None,
            checkpoint: None,
            halt_after_steps: None,
        }
    }

    /// Sets the learning-rate schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Enables periodic checkpointing.
    pub fn with_checkpoint(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }
}

/// Per-epoch f64/count accumulators, kept in the exact order the legacy
/// loops accumulated them so trajectories stay bit-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Totals {
    pub loss: f64,
    pub samples: usize,
    pub masked: usize,
    pub correct: usize,
}

/// Everything the loop carries from one optimizer step to the next. A
/// checkpoint is this record whole, plus the model, the optimizer and
/// the RNG; resuming continues from exactly this point.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct RunState {
    /// The epoch in progress (or about to start).
    pub epoch: usize,
    /// Chunks of `epoch` already trained; 0 means the epoch has not
    /// started (its visit order is not drawn yet).
    pub pos: usize,
    /// Global optimizer step.
    pub step: u64,
    /// The epoch's accumulators so far.
    pub totals: Totals,
    /// The global step at which `epoch` started.
    pub epoch_start_step: u64,
    /// The epoch's visit order (`Plan::Epochs` once started; empty
    /// otherwise).
    pub order: Vec<usize>,
    /// Statistics of every completed epoch.
    pub stats: Vec<EpochStats>,
    /// Consecutive epochs without validation improvement.
    pub patience: usize,
    /// Best validation value seen and the parameter values at it,
    /// restored when the run ends.
    pub best: Option<(f64, Vec<Matrix>)>,
    /// Mean loss of the last chunk trained.
    pub last_chunk_loss: f64,
}

/// The shared training driver. Construct with a [`TrainerConfig`], then
/// [`Trainer::fit`] a [`TrainTask`].
pub struct Trainer {
    config: TrainerConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainerConfig) -> Self {
        Self { config }
    }

    /// Trains the task to completion, panicking on checkpoint I/O errors
    /// (the common path for tasks that don't checkpoint — I/O is then
    /// impossible and this never panics).
    pub fn fit(&self, task: &mut dyn TrainTask, rng: &mut StdRng) -> TrainReport {
        self.try_fit(task, rng).expect("trainer checkpoint I/O failed")
    }

    /// Trains the task to completion, or until early stopping or a
    /// configured halt. Resumes from the configured checkpoint file when
    /// it exists. See the crate docs for the determinism contract.
    pub fn try_fit(&self, task: &mut dyn TrainTask, rng: &mut StdRng) -> io::Result<TrainReport> {
        let n = task.len();
        let (epochs, chunk_size, chunk_count) = match self.config.plan {
            Plan::Epochs { epochs, chunk, .. } => (epochs, chunk.max(1), n.div_ceil(chunk.max(1))),
            Plan::Window { steps, .. } => (1, 1, steps),
        };
        let params = task.params();
        let mut opt = Adam::new(params.clone(), self.config.lr);
        let ckpt = self.config.checkpoint.as_ref();
        // The checkpoint due after `step`, if any.
        let due =
            |step: u64| ckpt.filter(|ck| ck.every_steps > 0 && step.is_multiple_of(ck.every_steps));
        let halt_due = |step: u64| self.config.halt_after_steps.is_some_and(|h| step >= h);

        let mut run = RunState::default();
        if let Some(ck) = ckpt.filter(|ck| ck.path.exists()) {
            run = checkpoint::load(&ck.path, &params, &mut opt, rng)?;
            if matches!(self.config.plan, Plan::Epochs { .. })
                && run.pos > 0
                && run.order.len() != n
            {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "checkpoint visit order does not match the task",
                ));
            }
        }
        let mut early_stopped = false;
        let mut halted = false;

        obs::counter_add(obs::Metric::TrainRuns, 1);
        let mut run_span = obs::span("train.run")
            .field("task", task.name())
            .field("examples", n)
            .field("epochs", epochs)
            .field("lr", self.config.lr);

        'epochs: while run.epoch < epochs {
            let mut epoch_span =
                obs::span("train.epoch").field("task", task.name()).field("epoch", run.epoch);
            if run.pos == 0 {
                if let Plan::Epochs { shuffle, .. } = self.config.plan {
                    run.order = (0..n).collect();
                    if shuffle {
                        // Fisher–Yates with the caller's rng, in the
                        // exact draw order the legacy loops used.
                        for i in (1..n).rev() {
                            run.order.swap(i, rng.random_range(0..=i));
                        }
                    }
                }
            }

            while run.pos < chunk_count {
                let pos = run.pos;
                let idxs: Vec<usize> = match self.config.plan {
                    Plan::Epochs { .. } => {
                        run.order[pos * chunk_size..((pos + 1) * chunk_size).min(n)].to_vec()
                    }
                    Plan::Window { take, .. } => {
                        if n == 0 {
                            Vec::new()
                        } else {
                            (pos % n..n).take(take.min(n)).collect()
                        }
                    }
                };
                task.chunk_start();
                let mut chunk_loss = 0.0f64;
                for out in task.chunk(&idxs, rng) {
                    chunk_loss += out.loss;
                    run.totals.loss += out.loss;
                    run.totals.masked += out.masked;
                    run.totals.correct += out.correct;
                    run.totals.samples += 1;
                }
                task.chunk_end();
                run.last_chunk_loss = chunk_loss / idxs.len().max(1) as f64;
                opt.set_lr(self.config.schedule.lr_at(self.config.lr, run.step));
                opt.step();
                run.step += 1;
                run.pos += 1;
                task.post_step();

                // The epoch's last chunk saves and halts only after the
                // epoch bookkeeping, so the file records the completed epoch.
                if run.pos == chunk_count {
                    break;
                }
                if let Some(ck) = due(run.step) {
                    checkpoint::save(&ck.path, &run, rng, &opt, &params)?;
                }
                if halt_due(run.step) {
                    halted = true;
                    epoch_span.add_field("halted_at_step", run.step);
                    epoch_span.end();
                    break 'epochs;
                }
            }

            let totals = run.totals;
            let epoch_loss = totals.loss / totals.samples.max(1) as f64;
            let epoch_acc = totals.correct as f64 / totals.masked.max(1) as f64;
            let epoch_steps = run.step - run.epoch_start_step;
            obs::counter_add(obs::Metric::TrainEpochs, 1);
            obs::counter_add(obs::Metric::TrainSteps, epoch_steps);
            obs::counter_add(obs::Metric::TrainSamples, totals.samples as u64);
            obs::record_hist(obs::HistMetric::TrainEpochLoss, epoch_loss);
            epoch_span.add_field("loss", epoch_loss);
            epoch_span.add_field("accuracy", epoch_acc);
            epoch_span.add_field("samples", totals.samples);
            let val = task.eval();
            if let Some(v) = val {
                if v.is_finite() {
                    obs::record_hist(obs::HistMetric::TrainValMetric, v);
                }
                epoch_span.add_field("val", v);
            }
            let st = EpochStats {
                epoch: run.epoch,
                loss: epoch_loss,
                accuracy: epoch_acc,
                samples: totals.samples,
                steps: epoch_steps,
                masked: totals.masked,
                correct: totals.correct,
                val,
            };
            task.epoch_end(&st);
            epoch_span.end();
            run.stats.push(st);

            if let (Some(patience), Some(v)) = (self.config.patience, val) {
                if v < run.best.as_ref().map_or(f64::INFINITY, |(best, _)| *best) {
                    run.best = Some((v, params.iter().map(Tensor::value_clone).collect()));
                    run.patience = 0;
                } else {
                    run.patience += 1;
                    if run.patience >= patience {
                        obs::counter_add(obs::Metric::TrainEarlyStops, 1);
                        early_stopped = true;
                    }
                }
            }

            run.epoch += 1;
            run.pos = 0;
            run.totals = Totals::default();
            run.epoch_start_step = run.step;
            run.order.clear();
            // An epoch with no chunks took no step, so nothing is due.
            let stepped = chunk_count > 0;
            if let Some(ck) = due(run.step).filter(|_| stepped) {
                checkpoint::save(&ck.path, &run, rng, &opt, &params)?;
            }
            if early_stopped {
                break;
            }
            if stepped && halt_due(run.step) {
                halted = true;
                break;
            }
        }

        if !halted {
            if let Some((_, snap)) = &run.best {
                for (p, m) in params.iter().zip(snap) {
                    p.set_value(m.clone());
                }
            }
        }
        run_span.add_field("steps", run.step);
        run_span.end();
        Ok(TrainReport {
            stats: run.stats,
            steps: run.step,
            early_stopped,
            halted,
            last_chunk_loss: run.last_chunk_loss,
        })
    }
}
