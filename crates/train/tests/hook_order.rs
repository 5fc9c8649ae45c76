//! Per-chunk hook order: `chunk_start`, `step` per example, `chunk_end`,
//! the optimizer step, then `post_step` — under both plans, on a short
//! last chunk, and in `Trainer::fit` and in `reference::run` alike.

use rand::rngs::StdRng;
use rand::SeedableRng;

use preqr_nn::{Matrix, Tensor};
use preqr_train::{reference, Plan, StepOutput, TrainTask, Trainer, TrainerConfig};

#[derive(Clone, Copy, Debug, PartialEq)]
enum Hook {
    Start,
    Step(usize),
    End,
    Post,
}

/// One hook call: which hook, and the parameter's write version (the
/// optimizer step is the only write).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Call {
    hook: Hook,
    version: u64,
}

/// A task that records its hook calls. Every step puts a gradient on the
/// one parameter, so every optimizer step writes it.
struct Recorder {
    n: usize,
    param: Tensor,
    calls: Vec<Call>,
}

impl Recorder {
    fn new(n: usize) -> Self {
        Self { n, param: Tensor::param(Matrix::zeros(1, 1)), calls: Vec::new() }
    }

    fn record(&mut self, hook: Hook) {
        self.calls.push(Call { hook, version: self.param.version() });
    }

    /// The calls split into chunks, each checked for the hook order and
    /// for exactly one optimizer step between `chunk_end` and
    /// `post_step`. Returns each chunk's example indices.
    fn chunks(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for chunk in self.calls.split_inclusive(|c| c.hook == Hook::Post) {
            let hooks: Vec<Hook> = chunk.iter().map(|c| c.hook).collect();
            let k = hooks.len() - 3;
            assert_eq!(hooks[0], Hook::Start, "chunk opens with chunk_start: {hooks:?}");
            assert_eq!(&hooks[k + 1..], [Hook::End, Hook::Post], "chunk closes: {hooks:?}");
            let idxs: Vec<usize> = hooks[1..=k]
                .iter()
                .map(|h| match h {
                    Hook::Step(i) => *i,
                    other => panic!("{other:?} inside a chunk: {hooks:?}"),
                })
                .collect();
            let (start, end, post) = (chunk[0], chunk[k + 1], chunk[k + 2]);
            assert_eq!(end.version, start.version, "no optimizer step before chunk_end");
            assert_eq!(post.version, end.version + 1, "one optimizer step before post_step");
            out.push(idxs);
        }
        out
    }
}

impl TrainTask for Recorder {
    fn name(&self) -> &'static str {
        "hook.order"
    }

    fn len(&self) -> usize {
        self.n
    }

    fn params(&self) -> Vec<Tensor> {
        vec![self.param.clone()]
    }

    fn chunk_start(&mut self) {
        self.record(Hook::Start);
    }

    fn step(&mut self, idx: usize, _rng: &mut StdRng) -> StepOutput {
        self.param.accumulate_grad(&Matrix::full(1, 1, 1.0));
        self.record(Hook::Step(idx));
        StepOutput { loss: idx as f64, ..StepOutput::default() }
    }

    fn chunk_end(&mut self) {
        self.record(Hook::End);
    }

    fn post_step(&mut self) {
        self.record(Hook::Post);
    }
}

/// Fits a fresh recorder with the trainer and with the reference loop;
/// both must call the hooks identically.
fn fit_both(n: usize, plan: Plan) -> Recorder {
    let config = TrainerConfig::new(plan, 1e-2);
    let mut fitted = Recorder::new(n);
    Trainer::new(config.clone()).fit(&mut fitted, &mut StdRng::seed_from_u64(1));
    let mut legacy = Recorder::new(n);
    reference::run(&mut legacy, &config, &mut StdRng::seed_from_u64(1));
    assert_eq!(fitted.calls, legacy.calls, "trainer and reference hook calls");
    fitted
}

#[test]
fn epochs_with_a_short_last_chunk() {
    let rec = fit_both(7, Plan::Epochs { epochs: 2, chunk: 3, shuffle: false });
    let epoch = [vec![0, 1, 2], vec![3, 4, 5], vec![6]];
    assert_eq!(rec.chunks(), [epoch.clone(), epoch].concat());
}

#[test]
fn sliding_window() {
    let rec = fit_both(4, Plan::Window { steps: 5, take: 3 });
    let want = [vec![0, 1, 2], vec![1, 2, 3], vec![2, 3], vec![3], vec![0, 1, 2]];
    assert_eq!(rec.chunks(), want);
}
