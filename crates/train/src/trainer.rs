//! The [`Trainer`]: one deterministic driver for every training loop in
//! the workspace.

use preqr_nn::optim::Adam;
use preqr_nn::{Matrix, Tensor};
use preqr_obs as obs;
use rand::rngs::StdRng;
use rand::Rng;

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
}

impl TrainerConfig {
    /// A plan at a base learning rate with a constant schedule and no
    /// early stopping — the common fine-tune setup.
    pub fn new(plan: Plan, lr: f32) -> Self {
        Self { plan, lr, schedule: Schedule::Constant, patience: None }
    }

    /// Sets the learning-rate schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }
}

/// Per-epoch f64/count accumulators, kept in the exact order the legacy
/// loops accumulated them so trajectories stay bit-identical.
#[derive(Default)]
struct Totals {
    loss: f64,
    samples: usize,
    masked: usize,
    correct: usize,
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

    /// Trains the task to completion, or until early stopping. See the
    /// crate docs for the determinism contract.
    pub fn fit(&self, task: &mut dyn TrainTask, rng: &mut StdRng) -> TrainReport {
        let n = task.len();
        let (epochs, chunk_size, chunk_count) = match self.config.plan {
            Plan::Epochs { epochs, chunk, .. } => (epochs, chunk.max(1), n.div_ceil(chunk.max(1))),
            Plan::Window { steps, .. } => (1, 1, steps),
        };
        let params = task.params();
        let mut opt = Adam::new(params.clone(), self.config.lr);
        let mut step = 0u64;
        let mut stats = Vec::new();
        let mut patience = 0usize;
        // Best validation value seen and the parameter values at it,
        // restored when the run ends.
        let mut best: Option<(f64, Vec<Matrix>)> = None;
        let mut last_chunk_loss = 0.0f64;
        let mut early_stopped = false;

        obs::counter_add(obs::Metric::TrainRuns, 1);
        let mut run_span = obs::span("train.run")
            .field("task", task.name())
            .field("examples", n)
            .field("epochs", epochs)
            .field("lr", self.config.lr);

        for epoch in 0..epochs {
            let mut epoch_span =
                obs::span("train.epoch").field("task", task.name()).field("epoch", epoch);
            let epoch_start_step = step;
            let order: Vec<usize> = match self.config.plan {
                Plan::Epochs { shuffle, .. } => {
                    let mut order: Vec<usize> = (0..n).collect();
                    if shuffle {
                        // Fisher–Yates with the caller's rng, in the
                        // exact draw order the legacy loops used.
                        for i in (1..n).rev() {
                            order.swap(i, rng.random_range(0..=i));
                        }
                    }
                    order
                }
                Plan::Window { .. } => Vec::new(),
            };

            let mut totals = Totals::default();
            for pos in 0..chunk_count {
                let idxs: Vec<usize> = match self.config.plan {
                    Plan::Epochs { .. } => {
                        order[pos * chunk_size..((pos + 1) * chunk_size).min(n)].to_vec()
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
                    totals.loss += out.loss;
                    totals.masked += out.masked;
                    totals.correct += out.correct;
                    totals.samples += 1;
                }
                task.chunk_end();
                last_chunk_loss = chunk_loss / idxs.len().max(1) as f64;
                opt.set_lr(self.config.schedule.lr_at(self.config.lr, step));
                opt.step();
                step += 1;
                task.post_step();
            }

            let epoch_loss = totals.loss / totals.samples.max(1) as f64;
            let epoch_acc = totals.correct as f64 / totals.masked.max(1) as f64;
            let epoch_steps = step - epoch_start_step;
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
                epoch,
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
            stats.push(st);

            if let (Some(max_patience), Some(v)) = (self.config.patience, val) {
                if v < best.as_ref().map_or(f64::INFINITY, |(b, _)| *b) {
                    best = Some((v, params.iter().map(Tensor::value_clone).collect()));
                    patience = 0;
                } else {
                    patience += 1;
                    if patience >= max_patience {
                        obs::counter_add(obs::Metric::TrainEarlyStops, 1);
                        early_stopped = true;
                        break;
                    }
                }
            }
        }

        if let Some((_, snap)) = best {
            for (p, m) in params.iter().zip(snap) {
                p.set_value(m);
            }
        }
        run_span.add_field("steps", step);
        run_span.end();
        TrainReport { stats, steps: step, early_stopped, last_chunk_loss }
    }
}
