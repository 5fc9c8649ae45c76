//! Learning-rate schedules.

/// A pluggable learning-rate schedule, evaluated per optimizer step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Schedule {
    /// The base learning rate at every step.
    Constant,
    /// Linear warmup to the base rate, then linear decay to zero (the
    /// BERT schedule).
    WarmupLinear {
        /// Steps spent warming up.
        warmup_steps: u64,
        /// Step at which the rate reaches zero.
        total_steps: u64,
    },
}

impl Schedule {
    /// The learning rate at `step` for a given base rate.
    pub fn lr_at(&self, base_lr: f32, step: u64) -> f32 {
        match *self {
            Schedule::Constant => base_lr,
            Schedule::WarmupLinear { warmup_steps, total_steps } => {
                let total_steps = total_steps.max(1);
                if warmup_steps > 0 && step < warmup_steps {
                    base_lr * (step + 1) as f32 / warmup_steps as f32
                } else {
                    let remaining = total_steps.saturating_sub(step) as f32;
                    let span = total_steps.saturating_sub(warmup_steps).max(1) as f32;
                    base_lr * (remaining / span).clamp(0.0, 1.0)
                }
            }
        }
    }

    /// The BERT-style warmup-linear schedule sized for an epoch plan:
    /// 5 % warmup (plus one step) over the exact step count.
    pub fn bert(epochs: usize, n_examples: usize, chunk: usize) -> Schedule {
        let total_steps = scheduled_steps(epochs, n_examples, chunk).max(1);
        Schedule::WarmupLinear { warmup_steps: total_steps / 20 + 1, total_steps }
    }
}

/// The exact number of optimizer steps an epoch plan takes:
/// `epochs × ⌈n / chunk⌉`.
///
/// This replaces the old `epochs * n.max(1) / 8 + 1` expression in
/// `SqlBert::pretrain`, which disagreed with the real chunk count
/// whenever `n % chunk != 0` and made the warmup-linear schedule end
/// early or late (tail steps trained at the wrong rate).
pub fn scheduled_steps(epochs: usize, n_examples: usize, chunk: usize) -> u64 {
    epochs as u64 * (n_examples as u64).div_ceil(chunk.max(1) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_flat() {
        for step in [0, 1, 10, 1_000_000] {
            assert_eq!(Schedule::Constant.lr_at(3e-4, step), 3e-4);
        }
    }

    #[test]
    fn warmup_schedule_shape() {
        let s = Schedule::WarmupLinear { warmup_steps: 10, total_steps: 100 };
        let lr = |step| s.lr_at(1.0, step);
        assert!(lr(0) < lr(5));
        assert!((lr(9) - 1.0).abs() < 1e-6);
        assert!(lr(50) < 1.0);
        assert!(lr(99) > 0.0);
        assert_eq!(lr(100), 0.0);
    }

    #[test]
    fn scheduled_steps_counts_real_chunks() {
        // The regression the old formula got wrong: len % chunk != 0.
        assert_eq!(scheduled_steps(3, 10, 8), 3 * 2, "ceil(10/8) = 2 chunks per epoch");
        assert_eq!(scheduled_steps(1, 8, 8), 1);
        assert_eq!(scheduled_steps(5, 0, 8), 0, "empty corpus takes no steps");
        assert_eq!(scheduled_steps(2, 17, 4), 2 * 5);
        // The old expression: epochs * n.max(1) / 8 + 1.
        let old = |epochs: usize, n: usize| (epochs * n.max(1) / 8 + 1) as u64;
        assert_ne!(scheduled_steps(3, 10, 8), old(3, 10), "old formula was off for 10 % 8 != 0");
        assert_ne!(scheduled_steps(1, 8, 8), old(1, 8), "old formula over-counted exact multiples");
    }
}
