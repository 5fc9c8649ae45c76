//! The [`Trainer`]: one deterministic, resumable driver for every
//! training loop in the workspace.

use std::io;

use preqr_nn::optim::Adam;
use preqr_nn::{Matrix, Tensor};
use preqr_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::{self, CheckpointConfig, Saved};
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
    /// Periodic checkpointing with crash-resume. `None` disables it and
    /// leaves the RNG stream bit-identical to the legacy loops.
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
#[derive(Clone, Copy, Default)]
struct Totals {
    loss: f64,
    samples: usize,
    masked: usize,
    correct: usize,
}

/// Mid-epoch resume state restored from a checkpoint.
struct MidEpoch {
    pos: usize,
    totals: Totals,
    epoch_start_step: u64,
    order: Option<Vec<usize>>,
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

    /// The configuration this trainer runs with.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Trains the task to completion, panicking on checkpoint I/O errors
    /// (the common path for tasks that don't checkpoint — I/O is then
    /// impossible and this never panics).
    pub fn fit(&self, task: &mut dyn TrainTask, rng: &mut StdRng) -> TrainReport {
        self.try_fit(task, rng).expect("trainer checkpoint I/O failed")
    }

    /// Trains the task to completion, or until early stopping or a
    /// configured halt. See the crate docs for the determinism contract.
    pub fn try_fit(&self, task: &mut dyn TrainTask, rng: &mut StdRng) -> io::Result<TrainReport> {
        let n = task.len();
        let (epochs, chunk_size) = match self.config.plan {
            Plan::Epochs { epochs, chunk, .. } => (epochs, chunk.max(1)),
            Plan::Window { .. } => (1, 1),
        };
        let params = task.params();
        let mut opt = Adam::new(params.clone(), self.config.lr);

        let mut stats: Vec<EpochStats> = Vec::new();
        let mut step: u64 = 0;
        let mut patience_count: usize = 0;
        let mut best = f64::INFINITY;
        let mut best_snap: Option<Vec<Matrix>> = None;
        let mut last_chunk_loss = 0.0f64;
        let mut early_stopped = false;
        let mut halted = false;
        let mut start_epoch = 0usize;
        let mut mid_epoch: Option<MidEpoch> = None;

        if let Some(ck) = &self.config.checkpoint {
            if ck.resume && ck.path.exists() {
                let saved = checkpoint::load(&ck.path, &params)?;
                opt.restore_state(saved.adam_t, saved.m, saved.v);
                *rng = StdRng::seed_from_u64(saved.rng_seed);
                stats = saved.stats;
                step = saved.step;
                patience_count = saved.patience;
                best = saved.best.unwrap_or(f64::INFINITY);
                best_snap = saved.best_snap;
                last_chunk_loss = saved.last_chunk_loss;
                start_epoch = saved.epoch;
                if saved.pos > 0 {
                    mid_epoch = Some(MidEpoch {
                        pos: saved.pos,
                        totals: Totals {
                            loss: saved.loss_total,
                            samples: saved.samples,
                            masked: saved.masked,
                            correct: saved.correct,
                        },
                        epoch_start_step: saved.epoch_start_step,
                        order: saved.order,
                    });
                }
            }
        }

        obs::counter_add(obs::Metric::TrainRuns, 1);
        let mut run_span = obs::span("train.run")
            .field("task", task.name())
            .field("examples", n)
            .field("epochs", epochs)
            .field("lr", self.config.lr);

        'epochs: for epoch in start_epoch..epochs {
            let mut epoch_span =
                obs::span("train.epoch").field("task", task.name()).field("epoch", epoch);
            let (order, start_pos, mut totals, epoch_start_step) = match mid_epoch.take() {
                Some(mid) => {
                    let order = match (&self.config.plan, mid.order) {
                        (Plan::Window { .. }, _) => Vec::new(),
                        (Plan::Epochs { .. }, Some(order)) => order,
                        (Plan::Epochs { .. }, None) => {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                "mid-epoch checkpoint is missing the visit order",
                            ));
                        }
                    };
                    (order, mid.pos, mid.totals, mid.epoch_start_step)
                }
                None => {
                    let order = match self.config.plan {
                        Plan::Epochs { shuffle, .. } => {
                            let mut order: Vec<usize> = (0..n).collect();
                            if shuffle {
                                // Fisher–Yates with the caller's rng, in the
                                // exact draw order the legacy loops used.
                                for i in (1..order.len()).rev() {
                                    order.swap(i, rng.random_range(0..=i));
                                }
                            }
                            order
                        }
                        Plan::Window { .. } => Vec::new(),
                    };
                    (order, 0, Totals::default(), step)
                }
            };
            let chunk_count = match self.config.plan {
                Plan::Epochs { .. } => n.div_ceil(chunk_size),
                Plan::Window { steps, .. } => steps,
            };

            let mut pending_checkpoint: Option<u64> = None;
            let mut halt_requested = false;
            for pos in start_pos..chunk_count {
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
                for &idx in &idxs {
                    let out = task.step(idx, rng);
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

                if let Some(ck) = &self.config.checkpoint {
                    if ck.every_steps > 0 && step.is_multiple_of(ck.every_steps) {
                        // Reseed trick: one draw pins the whole RNG state.
                        let seed = rng.random::<u64>();
                        *rng = StdRng::seed_from_u64(seed);
                        if pos + 1 == chunk_count {
                            // Defer to after epoch bookkeeping so the file
                            // records the completed epoch.
                            pending_checkpoint = Some(seed);
                        } else {
                            let saved = Saved {
                                epoch,
                                pos: pos + 1,
                                step,
                                rng_seed: seed,
                                adam_t: opt.step_count(),
                                loss_total: totals.loss,
                                samples: totals.samples,
                                masked: totals.masked,
                                correct: totals.correct,
                                epoch_start_step,
                                patience: patience_count,
                                best: best_snap.as_ref().map(|_| best),
                                last_chunk_loss,
                                stats: stats.clone(),
                                order: match self.config.plan {
                                    Plan::Epochs { .. } => Some(order.clone()),
                                    Plan::Window { .. } => None,
                                },
                                m: opt.moments().0.to_vec(),
                                v: opt.moments().1.to_vec(),
                                best_snap: best_snap.clone(),
                            };
                            checkpoint::save(&ck.path, &saved, &params)?;
                            obs::counter_add(obs::Metric::TrainCheckpoints, 1);
                        }
                    }
                }
                if let Some(h) = self.config.halt_after_steps {
                    if step >= h {
                        halt_requested = true;
                        if pos + 1 != chunk_count {
                            halted = true;
                            epoch_span.add_field("halted_at_step", step);
                            epoch_span.end();
                            break 'epochs;
                        }
                        // Last chunk: finish epoch bookkeeping first.
                    }
                }
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

            let mut stop = false;
            if let (Some(patience), Some(v)) = (self.config.patience, val) {
                if v < best {
                    best = v;
                    best_snap = Some(params.iter().map(Tensor::value_clone).collect());
                    patience_count = 0;
                } else {
                    patience_count += 1;
                    if patience_count >= patience {
                        obs::counter_add(obs::Metric::TrainEarlyStops, 1);
                        early_stopped = true;
                        stop = true;
                    }
                }
            }

            if let Some(seed) = pending_checkpoint.take() {
                let ck = self.config.checkpoint.as_ref().expect("pending implies configured");
                let saved = Saved {
                    epoch: epoch + 1,
                    pos: 0,
                    step,
                    rng_seed: seed,
                    adam_t: opt.step_count(),
                    loss_total: 0.0,
                    samples: 0,
                    masked: 0,
                    correct: 0,
                    epoch_start_step: step,
                    patience: patience_count,
                    best: best_snap.as_ref().map(|_| best),
                    last_chunk_loss,
                    stats: stats.clone(),
                    order: None,
                    m: opt.moments().0.to_vec(),
                    v: opt.moments().1.to_vec(),
                    best_snap: best_snap.clone(),
                };
                checkpoint::save(&ck.path, &saved, &params)?;
                obs::counter_add(obs::Metric::TrainCheckpoints, 1);
            }
            if stop {
                break 'epochs;
            }
            if halt_requested {
                halted = true;
                break 'epochs;
            }
        }

        if !halted {
            if let Some(snap) = &best_snap {
                for (p, m) in params.iter().zip(snap) {
                    p.set_value(m.clone());
                }
            }
        }
        run_span.add_field("steps", step);
        run_span.end();
        Ok(TrainReport { stats, steps: step, early_stopped, halted, last_chunk_loss })
    }
}
