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
use preqr_baselines::mscn::{MscnFeaturizer, MscnModel};
use preqr_baselines::neurocard::SamplingEstimator;
use preqr_data::workloads::LabeledQuery;
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

/// Mean validation q-error (early-stopping criterion).
fn validation_qerror(
    predict: impl Fn(&LabeledQuery) -> f64,
    target: Target,
    valid: &[LabeledQuery],
) -> f64 {
    if valid.is_empty() {
        return f64::INFINITY;
    }
    valid.iter().map(|lq| qerror(predict(lq), target.truth(lq))).sum::<f64>() / valid.len() as f64
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
        match self.target {
            Target::Cardinality => "PGCard".into(),
            Target::Cost => "PGCost".into(),
        }
    }

    fn predict(&self, q: &Query) -> f64 {
        let est = PgEstimator::new(self.db, self.stats);
        match self.target {
            Target::Cardinality => est.estimate(q).unwrap_or(1.0),
            Target::Cost => {
                let mut total = 0.0;
                for s in q.selects() {
                    let Ok(plan) = est.estimate_plan(s) else { continue };
                    let base: Vec<f64> =
                        s.tables().iter().map(|t| self.stats.row_count(&t.table) as f64).collect();
                    total += self.cost_model.plan_cost(&base, &plan.filtered, &plan.joins);
                }
                total.max(1.0)
            }
        }
    }
}

/// Trained MSCN estimator.
pub struct MscnPredictor<'a> {
    db: &'a Database,
    featurizer: MscnFeaturizer,
    model: MscnModel,
    sampler: Option<&'a BitmapSampler>,
    norm: Normalizer,
    target: Target,
    /// Mean validation q-error after each epoch (Figure 8).
    pub history: Vec<f64>,
}

impl Estimator for MscnPredictor<'_> {
    fn name(&self) -> String {
        match self.target {
            Target::Cardinality => "MSCNCard".into(),
            Target::Cost => "MSCNCost".into(),
        }
    }

    fn predict(&self, q: &Query) -> f64 {
        let feats = self.featurizer.featurize(self.db, q, self.sampler);
        let out = self.model.forward(&feats, &self.featurizer).value_clone().get(0, 0);
        self.norm.decode(out)
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
) -> MscnPredictor<'a> {
    let _span = obs::span("est.train").field("method", "mscn").field("epochs", epochs);
    let bits = sampler.map_or(0, BitmapSampler::sample_size);
    let featurizer = MscnFeaturizer::new(db, bits);
    let mut rng = StdRng::seed_from_u64(seed);
    let model = MscnModel::new(&featurizer, 32, &mut rng);
    let norm = Normalizer::fit(&train.iter().map(|l| target.log_truth(l)).collect::<Vec<_>>());
    let feats: Vec<_> = train.iter().map(|l| featurizer.featurize(db, &l.query, sampler)).collect();
    let targets: Vec<f32> = train.iter().map(|l| norm.encode(target.log_truth(l))).collect();
    let config = estimator_config(epochs, 16, 1e-3, !valid.is_empty());
    // Scoped so the task's borrows of the model end before it is moved
    // into the predictor.
    let report = {
        let mut task = FnTask::new("est.mscn", train.len(), model.params(), |idx, _rng| {
            let pred = model.forward(&feats[idx], &featurizer);
            let loss = ops::huber_loss(&pred, &Matrix::full(1, 1, targets[idx]), 1.0);
            let scalar = f64::from(loss.value_clone().get(0, 0));
            loss.backward();
            StepOutput { loss: scalar, ..StepOutput::default() }
        })
        .with_eval(|| {
            validation_qerror(
                |lq| {
                    let f = featurizer.featurize(db, &lq.query, sampler);
                    norm.decode(model.forward(&f, &featurizer).value_clone().get(0, 0))
                },
                target,
                valid,
            )
        });
        Trainer::new(config).fit(&mut task, &mut rng)
    };
    let history = report.val_history();
    MscnPredictor { db, featurizer, model, sampler, norm, target, history }
}

/// Trained LSTM estimator.
pub struct LstmPredictor<'a> {
    db: &'a Database,
    vocab: LstmVocab,
    model: LstmEstimator,
    sampler: Option<&'a BitmapSampler>,
    bitmap_dim: usize,
    norm: Normalizer,
    target: Target,
    stats: TableStats,
    cost_model: CostModel,
    /// Mean validation q-error after each epoch (Figure 8).
    pub history: Vec<f64>,
}

impl Estimator for LstmPredictor<'_> {
    fn name(&self) -> String {
        match self.target {
            Target::Cardinality => "LSTMCard".into(),
            Target::Cost => "LSTMCost".into(),
        }
    }

    fn predict(&self, q: &Query) -> f64 {
        let (ids, nums) = self.vocab.encode(q);
        let channel = self
            .sampler
            .map(|s| preqr_baselines::lstm_est::table_channel(self.db, s, q))
            .unwrap_or_else(|| vec![0.0; ids.len()]);
        let plan_dim = if self.target == Target::Cost { PLAN_FEATURES } else { 0 };
        let mut bitmap = self
            .sampler
            .map(|s| LstmEstimator::pooled_bitmap(self.db, s, q, self.bitmap_dim))
            .unwrap_or_default();
        bitmap.truncate(self.bitmap_dim - plan_dim);
        if plan_dim > 0 {
            bitmap.extend(plan_features(self.db, &self.stats, &self.cost_model, q));
        }
        let out = self.model.forward(&ids, &nums, &channel, Some(&bitmap)).value_clone().get(0, 0);
        self.norm.decode(out)
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
) -> LstmPredictor<'a> {
    let _span = obs::span("est.train").field("method", "lstm").field("epochs", epochs);
    let corpus: Vec<Query> = train.iter().map(|l| l.query.clone()).collect();
    let vocab = LstmVocab::build(&corpus);
    // The LSTM baseline's form of the bitmap trick (§4.3.2): the raw
    // pooled sample bits appended to the encoder state, plus — for the
    // cost task, whose original (plan-level) formulation consumes the
    // optimizer's per-node estimates — the plan statistics.
    let use_plan = target == Target::Cost;
    let plan_dim = if use_plan { PLAN_FEATURES } else { 0 };
    let bitmap_dim = sampler.map_or(0, BitmapSampler::sample_size) + plan_dim;
    let table_stats = TableStats::analyze(db);
    let cost_model = CostModel::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = LstmEstimator::new(&vocab, 24, 32, bitmap_dim, &mut rng);
    let norm = Normalizer::fit(&train.iter().map(|l| target.log_truth(l)).collect::<Vec<_>>());
    let encoded: Vec<_> = train
        .iter()
        .map(|l| {
            let (ids, nums) = vocab.encode(&l.query);
            let channel = sampler
                .map(|s| preqr_baselines::lstm_est::table_channel(db, s, &l.query))
                .unwrap_or_else(|| vec![0.0; ids.len()]);
            let mut bitmap = sampler
                .map(|s| LstmEstimator::pooled_bitmap(db, s, &l.query, bitmap_dim))
                .unwrap_or_default();
            bitmap.truncate(bitmap_dim - plan_dim);
            if use_plan {
                bitmap.extend(plan_features(db, &table_stats, &cost_model, &l.query));
            }
            (ids, nums, channel, bitmap, norm.encode(target.log_truth(l)))
        })
        .collect();
    let config = estimator_config(epochs, 8, 1e-3, !valid.is_empty());
    // Scoped so the task's borrows of the model end before it is moved
    // into the predictor.
    let report = {
        let mut task = FnTask::new("est.lstm", train.len(), model.params(), |idx, _rng| {
            let (ids, nums, channel, bitmap, t) = &encoded[idx];
            let pred = model.forward(ids, nums, channel, Some(bitmap));
            let loss = ops::huber_loss(&pred, &Matrix::full(1, 1, *t), 1.0);
            let scalar = f64::from(loss.value_clone().get(0, 0));
            loss.backward();
            StepOutput { loss: scalar, ..StepOutput::default() }
        })
        .with_eval(|| {
            validation_qerror(
                |lq| {
                    let (ids, nums) = vocab.encode(&lq.query);
                    let channel = sampler
                        .map(|s| preqr_baselines::lstm_est::table_channel(db, s, &lq.query))
                        .unwrap_or_else(|| vec![0.0; ids.len()]);
                    let mut bitmap = sampler
                        .map(|s| LstmEstimator::pooled_bitmap(db, s, &lq.query, bitmap_dim))
                        .unwrap_or_default();
                    bitmap.truncate(bitmap_dim - plan_dim);
                    if use_plan {
                        bitmap.extend(plan_features(db, &table_stats, &cost_model, &lq.query));
                    }
                    norm.decode(
                        model.forward(&ids, &nums, &channel, Some(&bitmap)).value_clone().get(0, 0),
                    )
                },
                target,
                valid,
            )
        });
        Trainer::new(config).fit(&mut task, &mut rng)
    };
    let history = report.val_history();
    LstmPredictor {
        db,
        vocab,
        model,
        sampler,
        bitmap_dim,
        norm,
        target,
        stats: table_stats,
        cost_model,
        history,
    }
}

/// Trained PreQR estimator: frozen lower layers + fine-tuned last
/// `Trm_g` layer + a 3-layer FC head on the `[CLS]` representation
/// (⧺ pooled bitmap when sampling is enabled).
pub struct PreqrPredictor<'a> {
    db: &'a Database,
    model: &'a SqlBert,
    head: Mlp,
    nodes: Option<Tensor>,
    sampler: Option<&'a BitmapSampler>,
    bitmap_dim: usize,
    norm: Normalizer,
    /// The trained target (kept for introspection by harness code).
    pub target: Target,
    /// This predictor's own fine-tuned last-layer weights. The model is
    /// shared between predictors (e.g. the cardinality head and the
    /// NeuroCard-correction head), so each predictor swaps its weights in
    /// around every forward pass.
    layer_weights: Vec<Matrix>,
    stats: TableStats,
    cost_model: CostModel,
    /// Row label (PreQRCard / BERTCard / PreQRNT… set by the caller).
    pub label: String,
    /// Mean validation q-error after each epoch (Figure 8).
    pub history: Vec<f64>,
}

/// Width of the aggregated bitmap-sampling feature block.
pub const SAMPLE_FEATURES: usize = 8;

/// The bitmap-sampling optimization of §4.3.2 applied to PreQR:
/// slot-free aggregates over the per-binding sample bitmaps, so they
/// extrapolate to join counts beyond the fine-tuning workload —
/// `Σ log2 |T|`, `Σ log2(|T|·sel)`, `Σ sel`, `min sel`, `#tables`,
/// `#joins`. (MSCN receives the same information as per-table raw
/// bitmaps attached to its table one-hot sets.)
pub fn sample_features(db: &Database, sampler: &BitmapSampler, q: &Query) -> Vec<f32> {
    let tables = q.body.tables();
    let mut sum_log_rows = 0.0f64;
    let mut sum_log_sel_rows = 0.0f64;
    let mut sum_frac = 0.0f64;
    let mut min_frac = 1.0f64;
    for (bi, t) in tables.iter().enumerate() {
        let rows = db.row_count(&t.table) as f64;
        let frac = sampler.selectivity(db, q, bi).unwrap_or(0.0);
        sum_log_rows += rows.max(1.0).log2();
        sum_log_sel_rows += (rows * frac).max(1.0).log2();
        sum_frac += frac;
        min_frac = min_frac.min(frac);
    }
    let njoins = preqr_data::workloads::num_joins(q) as f64;
    // Cost-relevant aggregates: total and largest per-table filtered
    // sizes (intermediate result sizes scale with these).
    let mut sum_sel_rows = 0.0f64;
    let mut max_log_sel_rows = 0.0f64;
    for (bi, t) in tables.iter().enumerate() {
        let rows = db.row_count(&t.table) as f64;
        let frac = sampler.selectivity(db, q, bi).unwrap_or(0.0);
        sum_sel_rows += rows * frac;
        max_log_sel_rows = max_log_sel_rows.max((rows * frac).max(1.0).log2());
    }
    vec![
        sum_log_rows as f32,
        sum_log_sel_rows as f32,
        sum_frac as f32,
        min_frac as f32,
        tables.len() as f32,
        njoins as f32,
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
    let est = PgEstimator::new(db, stats);
    let mut total = 0.0f64;
    let mut filtered = 0.0f64;
    let mut joins = 0.0f64;
    let mut cost = 0.0f64;
    for sel in q.selects() {
        let Ok(plan) = est.estimate_plan(sel) else { continue };
        total += plan.total;
        filtered += plan.filtered.iter().sum::<f64>();
        joins += plan.joins.iter().sum::<f64>();
        let base: Vec<f64> =
            sel.tables().iter().map(|t| stats.row_count(&t.table) as f64).collect();
        cost += cost_model.plan_cost(&base, &plan.filtered, &plan.joins);
    }
    vec![
        total.max(1.0).log2() as f32,
        filtered.max(1.0).log2() as f32,
        joins.max(1.0).log2() as f32,
        cost.max(1.0).log2() as f32,
    ]
}

/// The head input: `[CLS]` row ⧺ *sum*-pooled token rows ⧺ the sample
/// features when sampling is enabled. Sum pooling (not mean) keeps the
/// representation additive in the query's tokens, so log-cardinality —
/// which grows roughly additively with each join — extrapolates to join
/// counts beyond the fine-tuning workload (the Scale/JOB-light
/// generalization the paper tests).
fn preqr_features(reps: &Tensor, bits: &[f32], bitmap_dim: usize) -> Tensor {
    let cls = ops::gather_rows(reps, &[0]);
    let n = reps.shape().0 as f32;
    let pooled = ops::scale(&ops::mean_rows(reps), n / 8.0);
    let x = ops::concat_cols(&cls, &pooled);
    if bitmap_dim > 0 {
        let mut padded = vec![0.0f32; bitmap_dim];
        padded[..bits.len().min(bitmap_dim)].copy_from_slice(&bits[..bits.len().min(bitmap_dim)]);
        ops::concat_cols(&x, &Tensor::constant(Matrix::from_vec(1, bitmap_dim, padded)))
    } else {
        x
    }
}

impl PreqrPredictor<'_> {
    fn features(&self, q: &Query) -> Tensor {
        let live = self.model.last_layer_params();
        let current = snapshot(&live);
        restore(&live, &self.layer_weights);
        let pq = self.model.prepare(q);
        let lower = self.model.lower_states(&pq, self.nodes.as_ref());
        let reps = self.model.last_layer_encode(&lower, self.nodes.as_ref());
        restore(&live, &current);
        let mut bits = self.sampler.map(|s| sample_features(self.db, s, q)).unwrap_or_default();
        bits.extend(plan_features(self.db, &self.stats, &self.cost_model, q));
        preqr_features(&reps, &bits, self.bitmap_dim)
    }
}

impl Estimator for PreqrPredictor<'_> {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn predict(&self, q: &Query) -> f64 {
        let out = self.head.forward(&self.features(q)).value_clone().get(0, 0);
        self.norm.decode(out)
    }
}

/// Fine-tunes PreQR for an estimation target: trains the last SQLBERT
/// layer together with the FC head (§4.3.2).
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
) -> PreqrPredictor<'a> {
    let _span = obs::span("est.train").field("method", label).field("epochs", epochs);
    let nodes = model.cached_nodes();
    // The shared model's last layer is trained here but restored before
    // returning, so successive fine-tunings all start from the same
    // pre-trained state.
    let pretrained_layer = snapshot(&model.last_layer_params());
    let bitmap_dim =
        if sampler.is_some() { SAMPLE_FEATURES + PLAN_FEATURES } else { PLAN_FEATURES };
    let in_dim = 2 * model.config.output_dim() + bitmap_dim;
    let table_stats = TableStats::analyze(db);
    let cost_model = CostModel::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let head = Mlp::new(&[in_dim, 64, 32, 1], &mut rng);
    let norm = Normalizer::fit(&train.iter().map(|l| target.log_truth(l)).collect::<Vec<_>>());
    // Cache the frozen lower-layer states and bitmaps once.
    let cached: Vec<(Matrix, Vec<f32>, f32)> = train
        .iter()
        .map(|l| {
            let pq = model.prepare(&l.query);
            let lower = model.lower_states(&pq, nodes.as_ref());
            let mut bits = sampler.map(|s| sample_features(db, s, &l.query)).unwrap_or_default();
            bits.extend(plan_features(db, &table_stats, &cost_model, &l.query));
            (lower, bits, norm.encode(target.log_truth(l)))
        })
        .collect();
    // Fine-tune the last SQLBERT layer together with the head (§4.3.2).
    let mut params = model.last_layer_params();
    params.extend(head.params());
    let forward = |lower: &Matrix, bits: &[f32]| -> Tensor {
        let reps = model.last_layer_encode(lower, nodes.as_ref());
        head.forward(&preqr_features(&reps, bits, bitmap_dim))
    };
    let config = estimator_config(epochs, 8, 5e-4, !valid.is_empty());
    // Scoped so the task's borrows of the head/nodes end before they are
    // moved into the predictor.
    let report = {
        let mut task = FnTask::new("est.preqr", train.len(), params, |idx, _rng| {
            let (lower, bits, t) = &cached[idx];
            let pred = forward(lower, bits);
            let loss = ops::huber_loss(&pred, &Matrix::full(1, 1, *t), 1.0);
            let scalar = f64::from(loss.value_clone().get(0, 0));
            loss.backward();
            StepOutput { loss: scalar, ..StepOutput::default() }
        })
        .with_eval(|| {
            validation_qerror(
                |lq| {
                    let pq = model.prepare(&lq.query);
                    let lower = model.lower_states(&pq, nodes.as_ref());
                    let mut bits =
                        sampler.map(|s| sample_features(db, s, &lq.query)).unwrap_or_default();
                    bits.extend(plan_features(db, &table_stats, &cost_model, &lq.query));
                    norm.decode(forward(&lower, &bits).value_clone().get(0, 0))
                },
                target,
                valid,
            )
        });
        Trainer::new(config).fit(&mut task, &mut rng)
    };
    let history = report.val_history();
    let layer_weights = snapshot(&model.last_layer_params());
    restore(&model.last_layer_params(), &pretrained_layer);
    PreqrPredictor {
        db,
        model,
        head,
        nodes,
        sampler,
        bitmap_dim,
        norm,
        target,
        layer_weights,
        stats: table_stats,
        cost_model,
        label: label.to_string(),
        history,
    }
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

/// NeuroCard + PreQR error correction (§4.5.1): a PreQR-headed model
/// learns the *residual* between NeuroCard's estimate and the truth.
pub struct CorrectedPredictor<'a> {
    base: NeuroCardPredictor<'a>,
    correction: PreqrPredictor<'a>,
}

impl Estimator for CorrectedPredictor<'_> {
    fn name(&self) -> String {
        "NeuroCard+PreQR".into()
    }

    fn predict(&self, q: &Query) -> f64 {
        let base = self.base.predict(q).max(1.0);
        // The correction head was trained on residual targets; its decode
        // returns 2^(log-residual + μ) — multiply onto the base estimate.
        let residual = self.correction.predict(q);
        (base * residual).max(1.0)
    }
}

/// Trains the NeuroCard+PreQR error-correction model: the head's target
/// is `truth / neurocard_estimate` in log space.
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
) -> CorrectedPredictor<'a> {
    let base = NeuroCardPredictor::new(db, nc_samples, seed);
    let residual_of = |lq: &LabeledQuery| -> LabeledQuery {
        let est = base.predict(&lq.query).max(1.0);
        let ratio = (lq.card as f64 / est).max(1e-6);
        LabeledQuery {
            query: lq.query.clone(),
            // Reuse the cardinality channel to carry the ratio target;
            // clamped ≥1 semantics don't apply to ratios, so shift into
            // positive range via scaling by 2^20 and decode-side inverse.
            card: ((ratio * (1 << 20) as f64) as u64).max(1),
            cost: lq.cost,
            num_joins: lq.num_joins,
        }
    };
    let train_res: Vec<LabeledQuery> = train.iter().map(residual_of).collect();
    let valid_res: Vec<LabeledQuery> = valid.iter().map(residual_of).collect();
    let mut correction = train_preqr(
        db,
        model,
        sampler,
        &train_res,
        &valid_res,
        Target::Cardinality,
        epochs,
        seed,
        "NeuroCard+PreQR",
    );
    // Fold the 2^20 shift into the normalizer by adjusting its decode
    // through a wrapper mean shift.
    correction.norm = Normalizer {
        mean: correction.norm.mean - 20.0,
        std: correction.norm.std,
        lo: correction.norm.lo - 20.0,
        hi: correction.norm.hi - 20.0,
    };
    CorrectedPredictor { base, correction }
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

    #[test]
    fn corrected_predictor_improves_or_matches_neurocard_floor() {
        let (db, labeled) = setup();
        let nc = NeuroCardPredictor::new(&db, 200, 3);
        let stats = evaluate(&nc, Target::Cardinality, &labeled[..30]);
        assert!(stats.mean >= 1.0);
    }
}
