//! Learning-rate schedules.

use preqr_nn::optim::WarmupLinearSchedule;

/// A pluggable learning-rate schedule, evaluated per optimizer step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Schedule {
    /// The base learning rate at every step.
    Constant,
    /// Linear warmup to the base rate, then linear decay to zero (the
    /// BERT schedule; delegates to
    /// [`preqr_nn::optim::WarmupLinearSchedule`] bit-for-bit).
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
                WarmupLinearSchedule::new(base_lr, warmup_steps, total_steps).lr_at(step)
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
    fn warmup_linear_matches_nn_schedule_bitwise() {
        let s = Schedule::WarmupLinear { warmup_steps: 7, total_steps: 91 };
        let nn = WarmupLinearSchedule::new(0.02, 7, 91);
        for step in 0..100 {
            assert_eq!(s.lr_at(0.02, step).to_bits(), nn.lr_at(step).to_bits(), "step {step}");
        }
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
