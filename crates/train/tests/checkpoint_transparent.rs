//! Checkpointing never changes a run: an uninterrupted run that writes
//! checkpoints at any cadence, and one halted mid-run and resumed from
//! its checkpoint, end with the same report, the same final parameters
//! and the same caller-RNG state, bit for bit, as the run with
//! checkpointing off — under both plans, with a task whose every step
//! draws from the RNG.

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

use preqr_nn::layers::{Mlp, Module};
use preqr_nn::{ops, Matrix, Tensor};
use preqr_train::{
    CheckpointConfig, FnTask, Plan, StepOutput, TrainReport, Trainer, TrainerConfig,
};

const N: usize = 7;

/// Builds a fresh model and fits it under `plan` once per entry of
/// `halts` (`None` = run to completion), checkpointing to `checkpoint`
/// when given. Returns the last fit's report, the final parameters and
/// the last fit's caller-RNG next draw.
fn fit(
    plan: Plan,
    checkpoint: Option<CheckpointConfig>,
    halts: &[Option<u64>],
) -> (TrainReport, Vec<Matrix>, u64) {
    let mlp = Mlp::new(&[3, 5, 1], &mut StdRng::seed_from_u64(11));
    let xs: Vec<Tensor> = (0..N)
        .map(|i| {
            let x = (0..3).map(|j| ((i * 5 + j * 2) % 7) as f32 / 7.0).collect();
            Tensor::constant(Matrix::from_vec(1, 3, x))
        })
        .collect();
    let mut last = None;
    for &halt in halts {
        let mut task = FnTask::new("ckpt.transparent", N, mlp.params(), |idx, rng| {
            let target: f32 = rng.random();
            let loss = ops::mse_loss(&mlp.forward(&xs[idx]), &Matrix::full(1, 1, target));
            let scalar = f64::from(loss.value_clone().get(0, 0));
            loss.backward();
            StepOutput { loss: scalar, ..StepOutput::default() }
        });
        let mut config = TrainerConfig::new(plan, 1e-2);
        config.checkpoint = checkpoint.clone();
        config.halt_after_steps = halt;
        let mut rng = StdRng::seed_from_u64(3);
        let report = Trainer::new(config).fit(&mut task, &mut rng);
        assert_eq!(report.halted, halt.is_some(), "{plan:?} halt {halt:?}");
        last = Some((report, rng.random()));
    }
    let (report, next) = last.expect("at least one fit");
    (report, mlp.params().iter().map(Tensor::value_clone).collect(), next)
}

fn bits(params: &[Matrix]) -> Vec<Vec<u32>> {
    params.iter().map(|m| m.data().iter().map(|x| x.to_bits()).collect()).collect()
}

#[test]
fn checkpointed_run_equals_plain_run() {
    let plans =
        [Plan::Epochs { epochs: 3, chunk: 3, shuffle: true }, Plan::Window { steps: 7, take: 3 }];
    for plan in plans {
        let (plain, plain_params, plain_next) = fit(plan, None, &[None]);
        for every in 1..=3u64 {
            // Both plans take more than 4 steps, so halting there
            // interrupts the run after at least one checkpoint.
            for (how, halts) in [("checkpointed", &[None][..]), ("resumed", &[Some(4), None])] {
                let path = std::env::temp_dir()
                    .join(format!("preqr_ckpt_transparent_{}_{every}.ckpt", std::process::id()));
                let _ = std::fs::remove_file(&path);
                let checkpoint = CheckpointConfig::new(path.clone(), every);
                let (report, params, next) = fit(plan, Some(checkpoint), halts);
                let written = path.exists();
                let _ = std::fs::remove_file(&path);
                let what = format!("{plan:?} {how} every {every}");
                assert!(written, "{what}: no checkpoint written");
                assert_eq!(report, plain, "{what}: report");
                assert_eq!(bits(&params), bits(&plain_params), "{what}: params");
                assert_eq!(next, plain_next, "{what}: caller RNG");
            }
        }
    }
}
