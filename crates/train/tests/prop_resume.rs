//! Interrupt/resume property test: a Trainer run halted at a random
//! step boundary and resumed from its latest checkpoint must finish
//! with epoch stats and final parameters **bit-identical** to the same
//! run with checkpointing off.
//!
//! A checkpoint stores the RNG's exact state and saving never draws
//! from it, so the resumed run replays the plain run's RNG stream
//! wherever the interruption lands (as long as at least one checkpoint
//! was written before the halt — steps after the last checkpoint are
//! rolled back by the resume load).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

use preqr_nn::layers::{Mlp, Module};
use preqr_nn::{ops, Matrix, Tensor};
use preqr_train::{CheckpointConfig, EpochStats, FnTask, Plan, StepOutput, Trainer, TrainerConfig};

fn examples(n: usize) -> Vec<(Tensor, f32)> {
    (0..n)
        .map(|i| {
            let x: Vec<f32> = (0..4).map(|j| ((i * 7 + j * 3) % 11) as f32 / 11.0).collect();
            let y = x.iter().sum::<f32>() / 4.0;
            (Tensor::constant(Matrix::from_vec(1, 4, x)), y)
        })
        .collect()
}

/// Builds a fresh model and runs one `fit` per entry of `halts` (`None`
/// = run to completion), checkpointing to `checkpoint` when given.
/// Returns the last report's stats, whether any phase halted, and the
/// final params.
fn run_phases(
    n: usize,
    epochs: usize,
    chunk: usize,
    checkpoint: Option<CheckpointConfig>,
    halts: &[Option<u64>],
) -> (Vec<EpochStats>, bool, Vec<Matrix>) {
    let mut init = StdRng::seed_from_u64(42);
    let mlp = Mlp::new(&[4, 6, 1], &mut init);
    let data = examples(n);
    let mut stats = Vec::new();
    let mut halted = false;
    for &halt in halts {
        let mut task = FnTask::new("prop.resume", n, mlp.params(), |idx, rng| {
            // The per-step draw makes the test sensitive to RNG-stream
            // replay, not just parameter restore.
            let jitter: f32 = rng.random();
            let (x, y) = &data[idx];
            let pred = mlp.forward(x);
            let target = Matrix::full(1, 1, *y * (1.0 + 0.01 * jitter));
            let loss = ops::mse_loss(&pred, &target);
            let scalar = f64::from(loss.value_clone().get(0, 0));
            loss.backward();
            StepOutput { loss: scalar, ..StepOutput::default() }
        });
        let mut config = TrainerConfig::new(Plan::Epochs { epochs, chunk, shuffle: true }, 1e-2);
        config.checkpoint = checkpoint.clone();
        config.halt_after_steps = halt;
        let mut rng = StdRng::seed_from_u64(7);
        let report = Trainer::new(config).fit(&mut task, &mut rng);
        halted |= report.halted;
        stats = report.stats;
    }
    (stats, halted, mlp.params().iter().map(Tensor::value_clone).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn interrupted_resume_is_bit_identical_to_uninterrupted(
        n in 4usize..12,
        epochs in 1usize..4,
        chunk in 1usize..5,
        every in 1u64..4,
        halt_off in 0u64..64,
    ) {
        let total = epochs as u64 * (n as u64).div_ceil(chunk as u64);
        // At least one checkpoint must land before the halt, and the
        // halt must interrupt the run (strictly before the last step).
        prop_assume!(total > every);
        let halt = every + halt_off % (total - every);

        let tag = format!("{}_{n}_{epochs}_{chunk}_{every}_{halt}", std::process::id());
        let path = std::env::temp_dir().join(format!("preqr_resume_{tag}.ckpt"));
        let _ = std::fs::remove_file(&path);

        let (base_stats, base_halted, base_params) = run_phases(n, epochs, chunk, None, &[None]);
        let checkpoint = CheckpointConfig::new(path.clone(), every);
        let (res_stats, res_halted, res_params) =
            run_phases(n, epochs, chunk, Some(checkpoint), &[Some(halt), None]);

        let _ = std::fs::remove_file(&path);

        prop_assert!(!base_halted, "plain run must not halt");
        prop_assert!(res_halted, "first phase must actually halt (halt={halt}, total={total})");
        prop_assert_eq!(&base_stats, &res_stats);
        prop_assert_eq!(base_params.len(), res_params.len());
        for (i, (a, b)) in base_params.iter().zip(&res_params).enumerate() {
            prop_assert_eq!(a.shape(), b.shape());
            let same = a.data().iter().zip(b.data()).all(|(p, q)| p.to_bits() == q.to_bits());
            prop_assert!(same, "param {} diverged after resume", i);
        }
    }
}
