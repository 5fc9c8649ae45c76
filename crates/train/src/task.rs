//! The [`TrainTask`] trait: what one training step *is*, independent of
//! how the [`crate::Trainer`] drives it.

use preqr_nn::Tensor;
use rand::rngs::StdRng;

use crate::stats::EpochStats;

/// What one example's training step produced.
///
/// The task computes the loss, calls `backward()` itself (gradients
/// accumulate on the task's parameters), and reports the scalar here so
/// the trainer can aggregate epoch statistics in the same f64 order the
/// legacy loops used.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepOutput {
    /// Scalar loss of this example (already backpropagated).
    pub loss: f64,
    /// Masked positions this example contributed (MLM tasks; 0 otherwise).
    pub masked: usize,
    /// Correctly predicted masked positions (MLM tasks; 0 otherwise).
    pub correct: usize,
}

/// A trainable workload, driven example-at-a-time by the [`crate::Trainer`].
///
/// The trainer owns ordering (deterministic Fisher–Yates shuffling),
/// gradient-accumulation chunking, the optimizer, the LR schedule and
/// early stopping; the task owns the forward/backward pass
/// and optional epoch-end evaluation. Hooks fire in a fixed order per
/// chunk — `chunk_start`, then `chunk` (by default `step` per example),
/// then `chunk_end`, then (after the optimizer update) `post_step` — and
/// per epoch — `eval`, then `epoch_end`.
///
/// Determinism contract for implementors: `step` must consume `rng`
/// identically given the same `(idx, rng state)`; `chunk` must consume it
/// and train exactly as `step` over its examples in order would; and
/// neither may read the RNG outside these two hooks. The trainer itself
/// draws only each epoch's shuffle, so a run's bits follow from the seed
/// alone, and the golden tests pin them against [`crate::reference`].
pub trait TrainTask {
    /// Short task name, used for the `train.run` and `train.epoch` spans.
    fn name(&self) -> &'static str;

    /// Number of training examples.
    fn len(&self) -> usize;

    /// Whether the task has no training examples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The parameters the optimizer updates (handles, not copies).
    fn params(&self) -> Vec<Tensor>;

    /// Called once before each gradient-accumulation chunk (e.g. to
    /// recompute schema node states shared within a micro-batch).
    fn chunk_start(&mut self) {}

    /// Runs forward + backward for example `idx` and reports the loss.
    fn step(&mut self, idx: usize, rng: &mut StdRng) -> StepOutput;

    /// Runs one chunk's examples, `idxs` in visit order, and reports each
    /// one's output in that order. The default calls `step` per example.
    /// An override may run the examples in any way (e.g. on several
    /// threads) as long as the draws from `rng`, the gradients and the
    /// outputs are exactly those of the default.
    fn chunk(&mut self, idxs: &[usize], rng: &mut StdRng) -> Vec<StepOutput> {
        idxs.iter().map(|&idx| self.step(idx, rng)).collect()
    }

    /// Called after the chunk's last `step` and before the optimizer
    /// update (e.g. to backpropagate gradients summed over the chunk
    /// through a side its examples share).
    fn chunk_end(&mut self) {}

    /// Called after each optimizer update (e.g. to clear stray gradients
    /// on parameters outside the optimized subset).
    fn post_step(&mut self) {}

    /// Epoch-end validation metric (lower is better). `None` disables
    /// validation tracking and early stopping for this task.
    fn eval(&mut self) -> Option<f64> {
        None
    }

    /// Called once per completed epoch with its statistics (e.g. to bump
    /// task-specific counters).
    fn epoch_end(&mut self, _stats: &EpochStats) {}
}

type StepFn<'a> = Box<dyn FnMut(usize, &mut StdRng) -> StepOutput + 'a>;
type HookFn<'a> = Box<dyn FnMut() + 'a>;
type EvalFn<'a> = Box<dyn FnMut() -> f64 + 'a>;

/// A [`TrainTask`] assembled from closures — the migration vehicle for
/// the small fine-tune loops (estimation heads, clustering, textgen,
/// baselines) that don't warrant a named task struct.
pub struct FnTask<'a> {
    name: &'static str,
    len: usize,
    params: Vec<Tensor>,
    step: StepFn<'a>,
    chunk_start: Option<HookFn<'a>>,
    chunk_end: Option<HookFn<'a>>,
    post_step: Option<HookFn<'a>>,
    eval: Option<EvalFn<'a>>,
}

impl<'a> FnTask<'a> {
    /// Creates a task from its required parts: a name, the example
    /// count, the optimized parameters, and the per-example step.
    pub fn new(
        name: &'static str,
        len: usize,
        params: Vec<Tensor>,
        step: impl FnMut(usize, &mut StdRng) -> StepOutput + 'a,
    ) -> Self {
        Self {
            name,
            len,
            params,
            step: Box::new(step),
            chunk_start: None,
            chunk_end: None,
            post_step: None,
            eval: None,
        }
    }

    /// Installs a chunk-start hook.
    pub fn with_chunk_start(mut self, f: impl FnMut() + 'a) -> Self {
        self.chunk_start = Some(Box::new(f));
        self
    }

    /// Installs a chunk-end (pre-optimizer-step) hook.
    pub fn with_chunk_end(mut self, f: impl FnMut() + 'a) -> Self {
        self.chunk_end = Some(Box::new(f));
        self
    }

    /// Installs a post-optimizer-step hook.
    pub fn with_post_step(mut self, f: impl FnMut() + 'a) -> Self {
        self.post_step = Some(Box::new(f));
        self
    }

    /// Installs an epoch-end validation metric (lower is better).
    pub fn with_eval(mut self, f: impl FnMut() -> f64 + 'a) -> Self {
        self.eval = Some(Box::new(f));
        self
    }
}

impl TrainTask for FnTask<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn len(&self) -> usize {
        self.len
    }

    fn params(&self) -> Vec<Tensor> {
        self.params.clone()
    }

    fn chunk_start(&mut self) {
        if let Some(f) = self.chunk_start.as_mut() {
            f();
        }
    }

    fn step(&mut self, idx: usize, rng: &mut StdRng) -> StepOutput {
        (self.step)(idx, rng)
    }

    fn chunk_end(&mut self) {
        if let Some(f) = self.chunk_end.as_mut() {
            f();
        }
    }

    fn post_step(&mut self) {
        if let Some(f) = self.post_step.as_mut() {
            f();
        }
    }

    fn eval(&mut self) -> Option<f64> {
        self.eval.as_mut().map(|f| f())
    }
}
