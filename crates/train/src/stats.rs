//! The shared per-epoch report type.
//!
//! Before the harness existed, three near-identical stats shapes lived in
//! the tree: `preqr::EpochStats` (epoch/loss/accuracy), the estimation
//! trainers' `history: Vec<f64>` of validation q-errors, and the ad-hoc
//! running-loss accumulators in the baseline tests. [`EpochStats`] is the
//! superset they all deduplicate onto; `preqr` re-exports it.

/// Statistics for one completed training epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Mean loss over the epoch's examples.
    pub loss: f64,
    /// Prediction accuracy (`correct / masked`; 0 when the task reports
    /// no per-token counts).
    pub accuracy: f64,
    /// Examples consumed this epoch.
    pub samples: usize,
    /// Optimizer steps taken this epoch.
    pub steps: u64,
    /// Masked positions this epoch (MLM tasks; 0 otherwise).
    pub masked: usize,
    /// Correctly predicted masked positions this epoch.
    pub correct: usize,
    /// Epoch-end validation metric, when the task evaluates one.
    pub val: Option<f64>,
}

/// Outcome of one [`crate::Trainer::fit`] run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainReport {
    /// Per-epoch statistics, in epoch order.
    pub stats: Vec<EpochStats>,
    /// Total optimizer steps taken (global step counter).
    pub steps: u64,
    /// Whether validation early stopping ended the run.
    pub early_stopped: bool,
    /// Mean loss of the last micro-batch (the incremental-update paths
    /// report this, matching the legacy `train_subset` return value).
    pub last_chunk_loss: f64,
}

impl TrainReport {
    /// The validation-metric trajectory (one entry per evaluated epoch),
    /// with non-evaluated epochs skipped.
    pub fn val_history(&self) -> Vec<f64> {
        self.stats.iter().filter_map(|s| s.val).collect()
    }

    /// Final epoch loss (0 when no epoch ran).
    pub fn final_loss(&self) -> f64 {
        self.stats.last().map_or(0.0, |s| s.loss)
    }
}
