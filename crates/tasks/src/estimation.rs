//! Shared training/evaluation pipeline for the cardinality- and
//! cost-estimation tasks (§4.5, Tables 7–11).
//!
//! The paper's setup: learned models are trained on a large generated
//! workload (90 % train / 10 % validation, "trained until the validation
//! q-error will not decrease anymore"), then evaluated on the benchmark
//! workloads. The PreQR variants fine-tune the last SQLBERT layer
//! together with a simple 3-layer FC head (§4.3.2).

use rand::rngs::StdRng;
use rand::SeedableRng;

use preqr::SqlBert;
use preqr_baselines::lstm_est::{LstmEstimator, LstmVocab};
use preqr_baselines::mscn::{MscnFeatures, MscnFeaturizer, MscnModel};
use preqr_baselines::neurocard::SamplingEstimator;
use preqr_data::workloads::LabeledQuery;
use preqr_engine::estimator::PlanEstimate;
use preqr_engine::{BitmapSampler, CostModel, Database, PgEstimator, TableStats};
use preqr_nn::layers::{Mlp, Module};
use preqr_nn::{ops, Matrix, Tensor};
use preqr_obs as obs;
use preqr_sql::ast::Query;
use preqr_train::{FnTask, Plan, StepOutput, Trainer, TrainerConfig};

use crate::metrics::{qerror, QErrorStats};

/// Which quantity is being estimated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// Join cardinality.
    Cardinality,
    /// Plan cost.
    Cost,
}

impl Target {
    /// Ground-truth value of a labelled query.
    pub fn truth(&self, lq: &LabeledQuery) -> f64 {
        match self {
            Target::Cardinality => lq.card as f64,
            Target::Cost => lq.cost,
        }
    }

    /// Log-space regression target.
    pub fn log_truth(&self, lq: &LabeledQuery) -> f64 {
        self.truth(lq).max(1.0).log2()
    }

    /// Table row label: `prefix` + `Card` / `Cost`.
    fn row_name(&self, prefix: &str) -> String {
        match self {
            Target::Cardinality => format!("{prefix}Card"),
            Target::Cost => format!("{prefix}Cost"),
        }
    }
}

/// Log-target standardization fitted on the training set, with the
/// standard decode-side clamp to the observed target range (MSCN's
/// original implementation normalizes targets into a bounded interval,
/// which caps extrapolation blow-ups for every learned model equally).
#[derive(Clone, Copy, Debug)]
pub struct Normalizer {
    mean: f64,
    std: f64,
    lo: f64,
    hi: f64,
}

impl Normalizer {
    /// Fits on log targets.
    pub fn fit(values: &[f64]) -> Self {
        let n = values.len().max(1) as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            mean,
            std: var.sqrt().max(1e-6),
            lo: if lo.is_finite() { lo - 1.0 } else { 0.0 },
            hi: if hi.is_finite() { hi + 3.0 } else { 64.0 },
        }
    }

    /// Log target → normalized.
    pub fn encode(&self, log_v: f64) -> f32 {
        ((log_v - self.mean) / self.std) as f32
    }

    /// Normalized prediction → raw estimate, clamped to the training
    /// target range (±margin in log space). Deliberately *not* clamped to
    /// ≥ 1 so the same normalizer can decode sub-unit residual ratios —
    /// q-error clamps at evaluation time instead.
    pub fn decode(&self, norm: f32) -> f64 {
        let log_v = (f64::from(norm) * self.std + self.mean).clamp(self.lo, self.hi);
        log_v.exp2()
    }
}

/// Anything that can produce a raw estimate for a query.
pub trait Estimator {
    /// Display name (row label in the tables).
    fn name(&self) -> String;
    /// Raw estimate (cardinality or cost, matching the trained target).
    fn predict(&self, q: &Query) -> f64;
}

/// Evaluates an estimator on a labelled workload.
pub fn evaluate(est: &dyn Estimator, target: Target, workload: &[LabeledQuery]) -> QErrorStats {
    let preds: Vec<f64> = workload.iter().map(|lq| est.predict(&lq.query)).collect();
    let truths: Vec<f64> = workload.iter().map(|lq| target.truth(lq)).collect();
    QErrorStats::compute(&preds, &truths)
}

/// Builds the Trainer configuration every estimation fine-tuner shares:
/// insertion-order visits (no shuffling), one optimizer step per
/// `chunk` at a constant learning rate, patience-3 early stopping on the
/// validation q-error (skipped when there is no validation split,
/// matching the legacy trainers).
fn estimator_config(epochs: usize, chunk: usize, lr: f32, has_valid: bool) -> TrainerConfig {
    let mut config = TrainerConfig::new(Plan::Epochs { epochs, chunk, shuffle: false }, lr);
    if has_valid {
        config.patience = Some(3);
    }
    config
}

fn snapshot(params: &[Tensor]) -> Vec<Matrix> {
    params.iter().map(Tensor::value_clone).collect()
}

fn restore(params: &[Tensor], snap: &[Matrix]) {
    for (p, m) in params.iter().zip(snap) {
        p.set_value(m.clone());
    }
}

/// Walks the PG optimizer's plan for each `SELECT` of `q`, handing
/// `visit` the plan estimate and its modelled cost over the base tables.
fn for_each_pg_plan(
    db: &Database,
    stats: &TableStats,
    cost_model: &CostModel,
    q: &Query,
    mut visit: impl FnMut(&PlanEstimate, f64),
) {
    let est = PgEstimator::new(db, stats);
    for sel in q.selects() {
        let Ok(plan) = est.estimate_plan(sel) else { continue };
        let base: Vec<f64> =
            sel.tables().iter().map(|t| stats.row_count(&t.table) as f64).collect();
        visit(&plan, cost_model.plan_cost(&base, &plan.filtered, &plan.joins));
    }
}

/// The PostgreSQL baseline (`PGCard` / `PGCost`).
pub struct PgBaseline<'a> {
    db: &'a Database,
    stats: &'a TableStats,
    cost_model: CostModel,
    target: Target,
}

impl<'a> PgBaseline<'a> {
    /// Creates the baseline.
    pub fn new(db: &'a Database, stats: &'a TableStats, target: Target) -> Self {
        Self { db, stats, cost_model: CostModel::default(), target }
    }
}

impl Estimator for PgBaseline<'_> {
    fn name(&self) -> String {
        self.target.row_name("PG")
    }

    fn predict(&self, q: &Query) -> f64 {
        match self.target {
            Target::Cardinality => PgEstimator::new(self.db, self.stats).estimate(q).unwrap_or(1.0),
            Target::Cost => {
                let mut total = 0.0;
                for_each_pg_plan(self.db, self.stats, &self.cost_model, q, |_, cost| total += cost);
                total.max(1.0)
            }
        }
    }
}

/// Width of the aggregated bitmap-sampling feature block.
pub const SAMPLE_FEATURES: usize = 8;

/// The bitmap-sampling optimization of §4.3.2 applied to PreQR:
/// slot-free aggregates over the per-binding sample bitmaps, so they
/// extrapolate to join counts beyond the fine-tuning workload —
/// `Σ log2 |T|`, `Σ log2(|T|·sel)`, `Σ sel`, `min sel`, `#tables`,
/// `#joins`, and for cost (intermediate result sizes scale with these)
/// `log2 Σ |T|·sel` and `max log2(|T|·sel)`. (MSCN receives the same
/// information as per-table raw bitmaps attached to its table one-hot
/// sets.)
pub fn sample_features(db: &Database, sampler: &BitmapSampler, q: &Query) -> Vec<f32> {
    let tables = q.body.tables();
    let mut sum_log_rows = 0.0f64;
    let mut sum_log_sel_rows = 0.0f64;
    let mut sum_frac = 0.0f64;
    let mut min_frac = 1.0f64;
    let mut sum_sel_rows = 0.0f64;
    let mut max_log_sel_rows = 0.0f64;
    for (bi, t) in tables.iter().enumerate() {
        let rows = db.row_count(&t.table) as f64;
        let frac = sampler.selectivity(db, q, bi).unwrap_or(0.0);
        sum_log_rows += rows.max(1.0).log2();
        sum_log_sel_rows += (rows * frac).max(1.0).log2();
        sum_frac += frac;
        min_frac = min_frac.min(frac);
        sum_sel_rows += rows * frac;
        max_log_sel_rows = max_log_sel_rows.max((rows * frac).max(1.0).log2());
    }
    vec![
        sum_log_rows as f32,
        sum_log_sel_rows as f32,
        sum_frac as f32,
        min_frac as f32,
        tables.len() as f32,
        preqr_data::workloads::num_joins(q) as f32,
        sum_sel_rows.max(1.0).log2() as f32,
        max_log_sel_rows as f32,
    ]
}

/// Width of the optimizer-plan feature block.
pub const PLAN_FEATURES: usize = 4;

/// Optimizer plan statistics (log₂ scale): estimated total cardinality,
/// summed filtered sizes, summed join-step sizes, and modelled cost.
/// Faithful to the LSTM cost baseline, which consumes the optimizer's
/// per-node estimates (Sun & Li); PreQR replaces only the *query
/// encoding* of that model, inheriting these auxiliary inputs.
pub fn plan_features(
    db: &Database,
    stats: &TableStats,
    cost_model: &CostModel,
    q: &Query,
) -> Vec<f32> {
    let mut total = 0.0f64;
    let mut filtered = 0.0f64;
    let mut joins = 0.0f64;
    let mut cost = 0.0f64;
    for_each_pg_plan(db, stats, cost_model, q, |plan, plan_cost| {
        total += plan.total;
        filtered += plan.filtered.iter().sum::<f64>();
        joins += plan.joins.iter().sum::<f64>();
        cost += plan_cost;
    });
    vec![
        total.max(1.0).log2() as f32,
        filtered.max(1.0).log2() as f32,
        joins.max(1.0).log2() as f32,
        cost.max(1.0).log2() as f32,
    ]
}

/// A learned estimator as the one fit path sees it: how it featurizes a
/// query, and how it maps those features to a normalized prediction.
/// Features are a pure function of the query (sampler bits, plan
/// statistics, PreQR's frozen lower states), so [`fit`] computes them
/// once per training and validation query, and prediction reuses the
/// same featurizer.
trait Model {
    /// Trainer task name.
    const TASK: &'static str;
    /// Examples per optimizer step.
    const CHUNK: usize;
    /// Constant learning rate.
    const LR: f32;
    /// The cached per-query input of [`Model::forward`].
    type Features;

    /// The trained parameters.
    fn params(&self) -> Vec<Tensor>;
    /// The model's input for `q`.
    fn featurize(&self, q: &Query) -> Self::Features;
    /// `1 × 1` normalized prediction.
    fn forward(&self, f: &Self::Features) -> Tensor;
    /// Runs once after training, with the best weights restored.
    fn trained(&mut self) {}
}

/// A fitted learned estimator: MSCN, LSTM, PreQR, or the PreQR
/// correction of NeuroCard.
pub struct Predictor<'a> {
    name: String,
    predict: Box<dyn Fn(&Query) -> f64 + 'a>,
    /// Mean validation q-error after each epoch (Figure 8).
    pub history: Vec<f64>,
}

impl Estimator for Predictor<'_> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn predict(&self, q: &Query) -> f64 {
        (self.predict)(q)
    }
}

/// NeuroCard's estimate (clamped ≥ 1) for a residual model's query.
fn base_estimate(base: Option<&NeuroCardPredictor>, q: &Query) -> Option<f64> {
    base.map(|b| b.predict(q).max(1.0))
}

/// The raw estimate from features: the decoded head output, or, for a
/// residual model, the base estimate corrected by it.
fn estimate<M: Model>(model: &M, norm: &Normalizer, f: &M::Features, base: Option<f64>) -> f64 {
    let decoded = norm.decode(model.forward(f).value_clone().get(0, 0));
    match base {
        None => decoded,
        Some(base) => (base * decoded).max(1.0),
    }
}

/// The one fine-tuning path. Builds the model from the seeded RNG,
/// featurizes the training and validation queries once, fits the
/// [`Normalizer`] on the log targets, trains with one Huber step per
/// example and validation early stopping, and returns a predictor that
/// reuses the model's featurizer.
///
/// With a `base` estimator the model learns the residual instead: its
/// log target is `log2(truth / base)` (ratio clamped ≥ 1e-6), and
/// validation judges the corrected estimate against the truth.
#[allow(clippy::too_many_arguments)]
fn fit<'a, M: Model + 'a>(
    method: &str,
    name: String,
    build: impl FnOnce(&mut StdRng) -> M,
    base: Option<NeuroCardPredictor<'a>>,
    train: &[LabeledQuery],
    valid: &[LabeledQuery],
    target: Target,
    epochs: usize,
    seed: u64,
) -> Predictor<'a> {
    let _span = obs::span("est.train").field("method", method).field("epochs", epochs);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = build(&mut rng);
    let log_targets: Vec<f64> = train
        .iter()
        .map(|lq| match base_estimate(base.as_ref(), &lq.query) {
            None => target.log_truth(lq),
            Some(b) => (target.truth(lq) / b).max(1e-6).log2(),
        })
        .collect();
    let norm = Normalizer::fit(&log_targets);
    let train_set: Vec<(M::Features, f32)> = train
        .iter()
        .zip(&log_targets)
        .map(|(lq, &t)| (model.featurize(&lq.query), norm.encode(t)))
        .collect();
    let valid_set: Vec<(M::Features, Option<f64>)> = valid
        .iter()
        .map(|lq| (model.featurize(&lq.query), base_estimate(base.as_ref(), &lq.query)))
        .collect();
    let config = estimator_config(epochs, M::CHUNK, M::LR, !valid.is_empty());
    // Scoped so the task's borrows of the model end before it moves into
    // the predictor.
    let report = {
        let mut task = FnTask::new(M::TASK, train.len(), model.params(), |idx, _rng| {
            let (f, t) = &train_set[idx];
            let loss = ops::huber_loss(&model.forward(f), &Matrix::full(1, 1, *t), 1.0);
            let scalar = f64::from(loss.value_clone().get(0, 0));
            loss.backward();
            StepOutput { loss: scalar, ..StepOutput::default() }
        })
        .with_eval(|| {
            if valid.is_empty() {
                return f64::INFINITY;
            }
            valid
                .iter()
                .zip(&valid_set)
                .map(|(lq, (f, b))| qerror(estimate(&model, &norm, f, *b), target.truth(lq)))
                .sum::<f64>()
                / valid.len() as f64
        });
        Trainer::new(config).fit(&mut task, &mut rng)
    };
    model.trained();
    let predict = move |q: &Query| {
        estimate(&model, &norm, &model.featurize(q), base_estimate(base.as_ref(), q))
    };
    Predictor { name, predict: Box::new(predict), history: report.val_history() }
}

/// MSCN: one-hot table/join/predicate sets (⧺ per-table sample bitmaps).
struct Mscn<'a> {
    db: &'a Database,
    sampler: Option<&'a BitmapSampler>,
    featurizer: MscnFeaturizer,
    model: MscnModel,
}

impl Model for Mscn<'_> {
    const TASK: &'static str = "est.mscn";
    const CHUNK: usize = 16;
    const LR: f32 = 1e-3;
    type Features = MscnFeatures;

    fn params(&self) -> Vec<Tensor> {
        self.model.params()
    }

    fn featurize(&self, q: &Query) -> MscnFeatures {
        self.featurizer.featurize(self.db, q, self.sampler)
    }

    fn forward(&self, f: &MscnFeatures) -> Tensor {
        self.model.forward(f, &self.featurizer)
    }
}

/// Trains the MSCN baseline with validation early stopping.
pub fn train_mscn<'a>(
    db: &'a Database,
    sampler: Option<&'a BitmapSampler>,
    train: &[LabeledQuery],
    valid: &[LabeledQuery],
    target: Target,
    epochs: usize,
    seed: u64,
) -> Predictor<'a> {
    let build = |rng: &mut StdRng| {
        let featurizer = MscnFeaturizer::new(db, sampler.map_or(0, BitmapSampler::sample_size));
        let model = MscnModel::new(&featurizer, 32, rng);
        Mscn { db, sampler, featurizer, model }
    };
    fit("mscn", target.row_name("MSCN"), build, None, train, valid, target, epochs, seed)
}

/// The LSTM baseline's token ids, numeric values, per-token table
/// channel and side vector (pooled sample bits ⧺ plan statistics).
type LstmFeatures = (Vec<usize>, Vec<f32>, Vec<f32>, Vec<f32>);

/// The LSTM baseline with its form of the bitmap trick (§4.3.2): the raw
/// pooled sample bits appended to the encoder state, plus — for the cost
/// task, whose original (plan-level) formulation consumes the
/// optimizer's per-node estimates — the plan statistics.
struct Lstm<'a> {
    db: &'a Database,
    sampler: Option<&'a BitmapSampler>,
    vocab: LstmVocab,
    model: LstmEstimator,
    /// Width of the side vector.
    side_dim: usize,
    /// Plan-statistics input (cost target only).
    plan: Option<(TableStats, CostModel)>,
}

impl Model for Lstm<'_> {
    const TASK: &'static str = "est.lstm";
    const CHUNK: usize = 8;
    const LR: f32 = 1e-3;
    type Features = LstmFeatures;

    fn params(&self) -> Vec<Tensor> {
        self.model.params()
    }

    fn featurize(&self, q: &Query) -> LstmFeatures {
        let (ids, nums) = self.vocab.encode(q);
        let channel = self
            .sampler
            .map(|s| preqr_baselines::lstm_est::table_channel(self.db, s, q))
            .unwrap_or_else(|| vec![0.0; ids.len()]);
        let mut side = self
            .sampler
            .map(|s| LstmEstimator::pooled_bitmap(self.db, s, q, self.side_dim))
            .unwrap_or_default();
        if let Some((stats, cost_model)) = &self.plan {
            side.truncate(self.side_dim - PLAN_FEATURES);
            side.extend(plan_features(self.db, stats, cost_model, q));
        }
        (ids, nums, channel, side)
    }

    fn forward(&self, (ids, nums, channel, side): &LstmFeatures) -> Tensor {
        self.model.forward(ids, nums, channel, Some(side))
    }
}

/// Trains the LSTM baseline.
pub fn train_lstm<'a>(
    db: &'a Database,
    sampler: Option<&'a BitmapSampler>,
    train: &[LabeledQuery],
    valid: &[LabeledQuery],
    target: Target,
    epochs: usize,
    seed: u64,
) -> Predictor<'a> {
    let build = |rng: &mut StdRng| {
        let corpus: Vec<Query> = train.iter().map(|l| l.query.clone()).collect();
        let vocab = LstmVocab::build(&corpus);
        let plan =
            (target == Target::Cost).then(|| (TableStats::analyze(db), CostModel::default()));
        let plan_dim = if plan.is_some() { PLAN_FEATURES } else { 0 };
        let side_dim = sampler.map_or(0, BitmapSampler::sample_size) + plan_dim;
        let model = LstmEstimator::new(&vocab, 24, 32, side_dim, rng);
        Lstm { db, sampler, vocab, model, side_dim, plan }
    };
    fit("lstm", target.row_name("LSTM"), build, None, train, valid, target, epochs, seed)
}

/// PreQR fine-tuned for estimation (§4.3.2): frozen lower layers, the
/// last `Trm_g` layer and a 3-layer FC head on the `[CLS]` row ⧺
/// sum-pooled token rows ⧺ the sample features (when sampling) ⧺ the
/// plan statistics.
struct Preqr<'a> {
    db: &'a Database,
    sampler: Option<&'a BitmapSampler>,
    model: &'a SqlBert,
    nodes: Option<Tensor>,
    head: Mlp,
    stats: TableStats,
    cost_model: CostModel,
    /// The shared model's pre-trained last layer. Training updates the
    /// shared layer in place; [`Model::trained`] then keeps the result in
    /// `tuned` and hands the shared layer back at these weights, so
    /// successive fine-tunings all start from the same pre-trained state.
    pretrained: Vec<Matrix>,
    /// This predictor's own fine-tuned last layer, swapped in around
    /// every forward after training: the model is shared between
    /// predictors (e.g. the cardinality head and the NeuroCard correction).
    tuned: Option<Vec<Matrix>>,
}

impl<'a> Preqr<'a> {
    fn new(
        db: &'a Database,
        model: &'a SqlBert,
        sampler: Option<&'a BitmapSampler>,
        rng: &mut StdRng,
    ) -> Self {
        let side_dim = sampler.map_or(0, |_| SAMPLE_FEATURES) + PLAN_FEATURES;
        let head = Mlp::new(&[2 * model.config.output_dim() + side_dim, 64, 32, 1], rng);
        Self {
            db,
            sampler,
            model,
            nodes: model.cached_nodes(),
            head,
            stats: TableStats::analyze(db),
            cost_model: CostModel::default(),
            pretrained: snapshot(&model.last_layer_params()),
            tuned: None,
        }
    }
}

impl Model for Preqr<'_> {
    const TASK: &'static str = "est.preqr";
    const CHUNK: usize = 8;
    const LR: f32 = 5e-4;
    /// The frozen lower-layer states and the side vector.
    type Features = (Matrix, Vec<f32>);

    fn params(&self) -> Vec<Tensor> {
        let mut params = self.model.last_layer_params();
        params.extend(self.head.params());
        params
    }

    fn featurize(&self, q: &Query) -> (Matrix, Vec<f32>) {
        let lower = self.model.lower_states(&self.model.prepare(q), self.nodes.as_ref());
        let mut side = self.sampler.map(|s| sample_features(self.db, s, q)).unwrap_or_default();
        side.extend(plan_features(self.db, &self.stats, &self.cost_model, q));
        (lower, side)
    }

    /// Sum pooling (not mean) keeps the representation additive in the
    /// query's tokens, so log-cardinality — which grows roughly
    /// additively with each join — extrapolates to join counts beyond the
    /// fine-tuning workload (the Scale/JOB-light generalization the paper
    /// tests).
    fn forward(&self, (lower, side): &(Matrix, Vec<f32>)) -> Tensor {
        let encode = || self.model.last_layer_encode(lower, self.nodes.as_ref());
        let reps = match &self.tuned {
            None => encode(),
            Some(tuned) => {
                let live = self.model.last_layer_params();
                let current = snapshot(&live);
                restore(&live, tuned);
                let reps = encode();
                restore(&live, &current);
                reps
            }
        };
        let cls = ops::gather_rows(&reps, &[0]);
        let n = reps.shape().0 as f32;
        let pooled = ops::scale(&ops::mean_rows(&reps), n / 8.0);
        let side = Tensor::constant(Matrix::from_vec(1, side.len(), side.clone()));
        self.head.forward(&ops::concat_cols(&ops::concat_cols(&cls, &pooled), &side))
    }

    fn trained(&mut self) {
        let live = self.model.last_layer_params();
        self.tuned = Some(snapshot(&live));
        restore(&live, &self.pretrained);
    }
}

/// Fine-tunes PreQR for an estimation target: trains the last SQLBERT
/// layer together with the FC head (§4.3.2). `label` is the row label
/// (PreQRCard / BERTCard / PreQRNT…).
#[allow(clippy::too_many_arguments)]
pub fn train_preqr<'a>(
    db: &'a Database,
    model: &'a SqlBert,
    sampler: Option<&'a BitmapSampler>,
    train: &[LabeledQuery],
    valid: &[LabeledQuery],
    target: Target,
    epochs: usize,
    seed: u64,
    label: &str,
) -> Predictor<'a> {
    let build = |rng: &mut StdRng| Preqr::new(db, model, sampler, rng);
    fit(label, label.to_string(), build, None, train, valid, target, epochs, seed)
}

/// The NeuroCard-style data-driven estimator (cardinality only).
pub struct NeuroCardPredictor<'a> {
    est: SamplingEstimator<'a>,
}

impl<'a> NeuroCardPredictor<'a> {
    /// Builds the sampler-backed estimator.
    pub fn new(db: &'a Database, samples: usize, seed: u64) -> Self {
        Self { est: SamplingEstimator::new(db, samples, seed) }
    }
}

impl Estimator for NeuroCardPredictor<'_> {
    fn name(&self) -> String {
        "NeuroCard".into()
    }

    fn predict(&self, q: &Query) -> f64 {
        self.est.estimate(q).unwrap_or(1.0)
    }
}

/// Trains NeuroCard + PreQR error correction (§4.5.1): a PreQR-headed
/// model learns the residual `log2(truth / neurocard_estimate)`, and its
/// decoded output multiplies NeuroCard's estimate.
#[allow(clippy::too_many_arguments)]
pub fn train_corrected<'a>(
    db: &'a Database,
    model: &'a SqlBert,
    sampler: Option<&'a BitmapSampler>,
    train: &[LabeledQuery],
    valid: &[LabeledQuery],
    nc_samples: usize,
    epochs: usize,
    seed: u64,
) -> Predictor<'a> {
    let name = "NeuroCard+PreQR";
    let base = NeuroCardPredictor::new(db, nc_samples, seed);
    let build = |rng: &mut StdRng| Preqr::new(db, model, sampler, rng);
    let target = Target::Cardinality;
    fit(name, name.to_string(), build, Some(base), train, valid, target, epochs, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use preqr::{PreqrConfig, ValueBuckets};
    use preqr_data::imdb::{generate, ImdbConfig};
    use preqr_data::workloads;

    fn setup() -> (Database, Vec<LabeledQuery>) {
        let db = generate(ImdbConfig::tiny());
        let qs = workloads::synthetic(&db, 120, 3);
        let labeled = workloads::label(&db, &qs, &CostModel::default());
        (db, labeled)
    }

    #[test]
    fn sample_features_have_fixed_width_and_track_joins() {
        let (db, labeled) = setup();
        let sampler = BitmapSampler::new(&db, 32, 1);
        let zero_join = labeled.iter().find(|l| l.num_joins == 0).expect("0-join query");
        let two_join = labeled.iter().find(|l| l.num_joins == 2).expect("2-join query");
        let f0 = sample_features(&db, &sampler, &zero_join.query);
        let f2 = sample_features(&db, &sampler, &two_join.query);
        assert_eq!(f0.len(), SAMPLE_FEATURES);
        assert_eq!(f2.len(), SAMPLE_FEATURES);
        // #joins feature (index 5) reflects the query.
        assert_eq!(f0[5], 0.0);
        assert_eq!(f2[5], 2.0);
        // More tables → larger Σ log |T|.
        assert!(f2[0] > f0[0]);
    }

    #[test]
    fn plan_features_are_log_scale_and_finite() {
        let (db, labeled) = setup();
        let stats = TableStats::analyze(&db);
        let cm = CostModel::default();
        for lq in labeled.iter().take(20) {
            let f = plan_features(&db, &stats, &cm, &lq.query);
            assert_eq!(f.len(), PLAN_FEATURES);
            assert!(f.iter().all(|v| v.is_finite() && *v >= 0.0 && *v < 64.0), "{f:?}");
        }
    }

    #[test]
    fn normalizer_decode_is_clamped_to_training_range() {
        let n = Normalizer::fit(&[4.0, 6.0, 8.0]);
        // Far beyond the training range: clamped at hi = 8 + 3 = 11.
        assert!(n.decode(100.0) <= 2f64.powi(11) + 1.0);
        assert!(n.decode(-100.0) >= 2f64.powi(3) - 1.0);
    }

    #[test]
    fn normalizer_round_trips() {
        let n = Normalizer::fit(&[1.0, 3.0, 5.0]);
        let x = n.encode(4.0);
        assert!((n.decode(x) - 16.0).abs() < 0.01, "2^4 = 16");
    }

    #[test]
    fn pg_baseline_reports_for_both_targets() {
        let (db, labeled) = setup();
        let stats = TableStats::analyze(&db);
        for target in [Target::Cardinality, Target::Cost] {
            let pg = PgBaseline::new(&db, &stats, target);
            let s = evaluate(&pg, target, &labeled[..40]);
            assert!(s.mean >= 1.0 && s.mean.is_finite());
        }
    }

    #[test]
    fn mscn_training_fits_training_set_better_than_mean_predictor() {
        let (db, labeled) = setup();
        let train = &labeled[..100];
        // Evaluate on the training set with no validation early stopping:
        // a trained model must beat the geometric-mean predictor (what 0
        // epochs decodes to, since the head outputs ~0 before training).
        let valid: &[LabeledQuery] = &[];
        let trained = train_mscn(&db, None, train, valid, Target::Cardinality, 40, 1);
        let trained_stats = evaluate(&trained, Target::Cardinality, train);
        let untrained = train_mscn(&db, None, train, valid, Target::Cardinality, 0, 1);
        let untrained_stats = evaluate(&untrained, Target::Cardinality, train);
        assert!(
            trained_stats.mean < untrained_stats.mean * 0.9,
            "training must fit the train set: {} vs {}",
            trained_stats.mean,
            untrained_stats.mean
        );
    }

    #[test]
    fn preqr_pipeline_runs_end_to_end() {
        let (db, labeled) = setup();
        let corpus: Vec<Query> = labeled.iter().map(|l| l.query.clone()).collect();
        let mut buckets = ValueBuckets::new(6);
        for t in db.schema().tables() {
            for c in &t.columns {
                if let Some(col) = db.column(&t.name, &c.name) {
                    let samples: Vec<f64> = (0..col.len()).filter_map(|r| col.get_f64(r)).collect();
                    if !samples.is_empty() {
                        buckets.insert(&t.name, &c.name, samples);
                    }
                }
            }
        }
        let mut model = SqlBert::new(&corpus, db.schema(), buckets, PreqrConfig::test());
        model.pretrain(&corpus[..40], 1, 1e-3);
        let (train, rest) = labeled.split_at(80);
        let (valid, test) = rest.split_at(20);
        let pred =
            train_preqr(&db, &model, None, train, valid, Target::Cardinality, 3, 2, "PreQRCard");
        let stats = evaluate(&pred, Target::Cardinality, test);
        assert!(stats.mean.is_finite() && stats.mean >= 1.0);
        assert_eq!(pred.name(), "PreQRCard");
    }

    /// A one-parameter model: a learned constant.
    struct Constant(Tensor);

    impl Model for Constant {
        const TASK: &'static str = "est.constant";
        const CHUNK: usize = 4;
        const LR: f32 = 1e-2;
        type Features = ();

        fn params(&self) -> Vec<Tensor> {
            vec![self.0.clone()]
        }

        fn featurize(&self, _q: &Query) {}

        fn forward(&self, _f: &()) -> Tensor {
            ops::scale(&self.0, 1.0)
        }
    }

    #[test]
    fn residual_fit_validates_the_corrected_estimate_against_the_truth() {
        let (db, labeled) = setup();
        let (train, valid) = labeled.split_at(100);
        let base = NeuroCardPredictor::new(&db, 200, 3);
        let build = |_: &mut StdRng| Constant(Tensor::param(Matrix::full(1, 1, 0.0)));
        let target = Target::Cardinality;
        let pred = fit("constant", "C".into(), build, Some(base), train, valid, target, 6, 1);
        // The best epoch's weights are restored, and its validation score
        // is the corrected estimate's mean q-error against the truth.
        let best = pred.history.iter().copied().fold(f64::INFINITY, f64::min);
        let mean =
            valid.iter().map(|lq| qerror(pred.predict(&lq.query), target.truth(lq))).sum::<f64>()
                / valid.len() as f64;
        assert_eq!(best.to_bits(), mean.to_bits(), "{:?} vs {mean}", pred.history);
        assert!(valid.iter().all(|lq| pred.predict(&lq.query) >= 1.0));
    }

    #[test]
    fn corrected_predictor_improves_or_matches_neurocard_floor() {
        let (db, labeled) = setup();
        let nc = NeuroCardPredictor::new(&db, 200, 3);
        let stats = evaluate(&nc, Target::Cardinality, &labeled[..30]);
        assert!(stats.mean >= 1.0);
    }
}
