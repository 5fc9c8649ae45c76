//! Golden-trajectory tests for the `preqr-train` Trainer.
//!
//! `preqr_train::reference` keeps an independently written copy of the
//! legacy hand-rolled loop shape (Fisher–Yates shuffle, fixed-chunk
//! gradient accumulation, per-item f64 loss accumulation, patience-3
//! early stopping with best-snapshot restore). These tests rebuild the
//! migrated workloads' task closures by hand, run them through the
//! reference loop, and pin the production paths — `SqlBert::pretrain`
//! and the estimation fine-tuners — against it **bit-for-bit**: same
//! loss curves, same validation history, same final parameters.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use preqr::{PreqrConfig, SqlBert};
use preqr_baselines::lstm_est::{LstmEstimator, LstmVocab};
use preqr_baselines::mscn::{MscnFeaturizer, MscnModel};
use preqr_data::imdb::{generate, ImdbConfig};
use preqr_data::workloads::{self, LabeledQuery};
use preqr_engine::{BitmapSampler, CostModel, Database, TableStats};
use preqr_nn::layers::{Mlp, Module};
use preqr_nn::{ops, Matrix, Tensor};
use preqr_sql::ast::Query;
use preqr_tasks::estimation::{self, Estimator, Normalizer, Target};
use preqr_tasks::metrics::qerror;
use preqr_train::{reference, FnTask, Plan, Schedule, StepOutput, TrainerConfig};

fn assert_params_bit_identical(a: &[Tensor], b: &[Tensor]) {
    assert_eq!(a.len(), b.len(), "parameter count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let (xv, yv) = (x.value_clone(), y.value_clone());
        assert_eq!(xv.shape(), yv.shape(), "param {i} shape");
        let same = xv.data().iter().zip(yv.data()).all(|(p, q)| p.to_bits() == q.to_bits());
        assert!(same, "param {i} diverged");
    }
}

/// The side-input configurations the estimation tables run: no sampler
/// (Figure 8's NS-rows) and the bitmap sampler (every Table 8/9 row),
/// each for cardinality and cost.
fn estimation_cases(sampler: &BitmapSampler) -> [(Option<&BitmapSampler>, Target); 4] {
    [
        (None, Target::Cardinality),
        (Some(sampler), Target::Cardinality),
        (None, Target::Cost),
        (Some(sampler), Target::Cost),
    ]
}

/// The estimation fine-tuners' Trainer configuration, written out.
fn estimation_config(epochs: usize, chunk: usize, lr: f32) -> TrainerConfig {
    let mut config = TrainerConfig::new(Plan::Epochs { epochs, chunk, shuffle: false }, lr);
    config.patience = Some(3);
    config
}

/// One Huber-loss step on a scalar prediction.
fn huber_step(pred: &Tensor, target: f32) -> StepOutput {
    let loss = ops::huber_loss(pred, &Matrix::full(1, 1, target), 1.0);
    let scalar = f64::from(loss.value_clone().get(0, 0));
    loss.backward();
    StepOutput { loss: scalar, ..StepOutput::default() }
}

/// Mean validation q-error, summed in workload order.
fn mean_qerror(valid: &[LabeledQuery], target: Target, predict: impl Fn(&Query) -> f64) -> f64 {
    valid.iter().map(|lq| qerror(predict(&lq.query), target.truth(lq))).sum::<f64>()
        / valid.len() as f64
}

fn log_normalizer(train: &[LabeledQuery], target: Target) -> Normalizer {
    Normalizer::fit(&train.iter().map(|l| target.log_truth(l)).collect::<Vec<_>>())
}

/// Bit-identical validation history, then bit-identical predictions.
fn assert_same_run(
    case: &str,
    history: &[f64],
    ref_history: &[f64],
    valid: &[LabeledQuery],
    pred: &dyn Estimator,
    reference: impl Fn(&Query) -> f64,
) {
    assert_eq!(history.len(), ref_history.len(), "{case}: epoch count");
    for (a, b) in history.iter().zip(ref_history) {
        assert_eq!(a.to_bits(), b.to_bits(), "{case}: validation q-error history diverged");
    }
    for lq in valid.iter().take(8) {
        assert_eq!(
            pred.predict(&lq.query).to_bits(),
            reference(&lq.query).to_bits(),
            "{case}: post-restore predictions diverged"
        );
    }
}

fn setup() -> (Database, Vec<LabeledQuery>) {
    let db = generate(ImdbConfig::tiny());
    let qs = workloads::synthetic(&db, 90, 3);
    let labeled = workloads::label(&db, &qs, &CostModel::default());
    (db, labeled)
}

const PRETRAIN_EPOCHS: usize = 2;
const PRETRAIN_LR: f32 = 1e-3;

fn pretrain_setup(config: PreqrConfig) -> (Vec<Query>, SqlBert, SqlBert) {
    let db = generate(ImdbConfig::tiny());
    let corpus = workloads::pretrain_corpus(&db, 22, 7);
    assert_ne!(corpus.len() % 8, 0, "corpus must not align with the chunk size");
    let buckets = preqr_tasks::setup::value_buckets_from_db(&db, 8);
    let trained = SqlBert::new(&corpus, db.schema(), buckets.clone(), config);
    let legacy = SqlBert::new(&corpus, db.schema(), buckets, config);
    (corpus, trained, legacy)
}

fn pretrain_config(corpus_len: usize) -> TrainerConfig {
    TrainerConfig::new(
        Plan::Epochs { epochs: PRETRAIN_EPOCHS, chunk: 8, shuffle: true },
        PRETRAIN_LR,
    )
    .with_schedule(Schedule::bert(PRETRAIN_EPOCHS, corpus_len, 8))
}

/// `SqlBert::pretrain` (Trainer path) against the hand-rolled legacy
/// loop shape: same shuffled visit order, same warmup-linear schedule,
/// same per-epoch stats, same final weights. The corpus length is
/// deliberately not a multiple of the chunk size (22 % 8 != 0) so the
/// schedule's `scheduled_steps` chunk counting is exercised end to end.
/// Each example masks and drops out from a stream of its own, seeded by
/// one draw from the loop's rng when the example runs; production draws
/// a chunk's seeds up front and runs its examples on every core.
///
/// The reference task shares each chunk's schema side the way
/// pre-training does, written here from the public tensor API: the
/// chunk's node states are computed once on the tape, every example
/// backpropagates into a detached leaf copy of them, and the chunk-end
/// hook runs one backward from the node states seeded with the leaf's
/// summed gradient, before the optimizer step.
#[test]
fn pretrain_matches_legacy_reference_bit_for_bit() {
    let (corpus, mut trained, legacy) = pretrain_setup(PreqrConfig::test());

    // Production path.
    let stats = trained.pretrain(&corpus, PRETRAIN_EPOCHS, PRETRAIN_LR);

    // Reference path: hand-built task closures, run by the reference loop.
    let mut rng = StdRng::seed_from_u64(legacy.config.seed.wrapping_add(1));
    let prepared: Vec<_> = corpus.iter().map(|q| legacy.prepare(q)).collect();
    let chunk: RefCell<Option<(Tensor, Tensor)>> = RefCell::new(None);
    let mut task = FnTask::new("pretrain", prepared.len(), legacy.params(), |idx, rng| {
        let chunk = chunk.borrow();
        let leaf = chunk.as_ref().map(|(_, leaf)| leaf);
        let mut example_rng = StdRng::seed_from_u64(rng.random());
        let (loss, masked, correct) = legacy.mlm_loss(&prepared[idx], leaf, &mut example_rng);
        let scalar = f64::from(loss.value_clone().get(0, 0));
        loss.backward();
        StepOutput { loss: scalar, masked, correct }
    })
    .with_chunk_start(|| {
        let nodes = legacy.node_states().expect("full PreQR has a schema module");
        let leaf = Tensor::param(nodes.value_clone());
        *chunk.borrow_mut() = Some((nodes, leaf));
    })
    .with_chunk_end(|| {
        let (nodes, leaf) = chunk.borrow_mut().take().expect("chunk_start ran");
        nodes.backward_with(leaf.take_grad().expect("every example reads the leaf"));
    });
    let report = reference::run(&mut task, &pretrain_config(corpus.len()), &mut rng);

    assert_eq!(stats, report.stats, "per-epoch loss/accuracy trajectory");
    assert_params_bit_identical(&trained.params(), &legacy.params());
}

/// PreQRNT (no schema module) against the legacy per-example task, whose
/// every example backpropagates through the node states itself: with no
/// schema side to share, pre-training runs exactly as it did before the
/// one-backward-per-chunk schema side, bit for bit, apart from the
/// per-example streams.
#[test]
fn pretrain_without_schema_matches_legacy_reference_bit_for_bit() {
    let (corpus, mut trained, legacy) = pretrain_setup(PreqrConfig::test().without_schema());
    assert!(legacy.node_states().is_none());

    let stats = trained.pretrain(&corpus, PRETRAIN_EPOCHS, PRETRAIN_LR);

    let mut rng = StdRng::seed_from_u64(legacy.config.seed.wrapping_add(1));
    let prepared: Vec<_> = corpus.iter().map(|q| legacy.prepare(q)).collect();
    let nodes = RefCell::new(None);
    let mut task = FnTask::new("pretrain", prepared.len(), legacy.params(), |idx, rng| {
        let mut example_rng = StdRng::seed_from_u64(rng.random());
        let nodes = nodes.borrow();
        let (loss, masked, correct) =
            legacy.mlm_loss(&prepared[idx], nodes.as_ref(), &mut example_rng);
        let scalar = f64::from(loss.value_clone().get(0, 0));
        loss.backward();
        StepOutput { loss: scalar, masked, correct }
    })
    .with_chunk_start(|| *nodes.borrow_mut() = legacy.node_states());
    let report = reference::run(&mut task, &pretrain_config(corpus.len()), &mut rng);

    assert_eq!(stats, report.stats, "per-epoch loss/accuracy trajectory");
    assert_params_bit_identical(&trained.params(), &legacy.params());
}

/// The MSCN fine-tuner against the reference loop: bit-identical
/// validation q-error history and predictions, with and without the
/// bitmap sampler, for cardinality and cost.
#[test]
fn mscn_finetune_matches_legacy_reference_bit_for_bit() {
    const EPOCHS: usize = 5;
    const SEED: u64 = 9;
    let (db, labeled) = setup();
    let (train, rest) = labeled.split_at(60);
    let valid = &rest[..20];
    let bitmaps = BitmapSampler::new(&db, 32, 1);

    for (sampler, target) in estimation_cases(&bitmaps) {
        let case = format!("MSCN {target:?}, sampler {}", sampler.is_some());
        // Production path.
        let pred = estimation::train_mscn(&db, sampler, train, valid, target, EPOCHS, SEED);

        // Legacy path: rebuild the identical model/featurizer/normalizer
        // and run the same closures through the reference loop.
        let featurizer = MscnFeaturizer::new(&db, sampler.map_or(0, BitmapSampler::sample_size));
        let mut rng = StdRng::seed_from_u64(SEED);
        let model = MscnModel::new(&featurizer, 32, &mut rng);
        let norm = log_normalizer(train, target);
        let feats: Vec<_> =
            train.iter().map(|l| featurizer.featurize(&db, &l.query, sampler)).collect();
        let targets: Vec<f32> = train.iter().map(|l| norm.encode(target.log_truth(l))).collect();
        let predict = |q: &Query| -> f64 {
            let f = featurizer.featurize(&db, q, sampler);
            norm.decode(model.forward(&f, &featurizer).value_clone().get(0, 0))
        };
        let mut task = FnTask::new("est.mscn", train.len(), model.params(), |idx, _rng| {
            huber_step(&model.forward(&feats[idx], &featurizer), targets[idx])
        })
        .with_eval(|| mean_qerror(valid, target, predict));
        let report = reference::run(&mut task, &estimation_config(EPOCHS, 16, 1e-3), &mut rng);

        assert_same_run(&case, &pred.history, &report.val_history(), valid, &pred, predict);
    }
}

/// The LSTM fine-tuner against the reference loop, with and without the
/// bitmap sampler, for cardinality and cost.
#[test]
fn lstm_finetune_matches_legacy_reference_bit_for_bit() {
    const EPOCHS: usize = 4;
    const SEED: u64 = 11;
    let (db, labeled) = setup();
    let (train, rest) = labeled.split_at(48);
    let valid = &rest[..16];
    let bitmaps = BitmapSampler::new(&db, 32, 1);
    let stats = TableStats::analyze(&db);
    let cost_model = CostModel::default();

    for (sampler, target) in estimation_cases(&bitmaps) {
        let case = format!("LSTM {target:?}, sampler {}", sampler.is_some());
        // Production path.
        let pred = estimation::train_lstm(&db, sampler, train, valid, target, EPOCHS, SEED);

        // Legacy path. The side channels: the per-token table channel and
        // the pooled sample bits when sampling, plus the optimizer's plan
        // statistics for the cost target.
        let plan_dim = if target == Target::Cost { estimation::PLAN_FEATURES } else { 0 };
        let bitmap_dim = sampler.map_or(0, BitmapSampler::sample_size) + plan_dim;
        let corpus: Vec<Query> = train.iter().map(|l| l.query.clone()).collect();
        let vocab = LstmVocab::build(&corpus);
        let mut rng = StdRng::seed_from_u64(SEED);
        let model = LstmEstimator::new(&vocab, 24, 32, bitmap_dim, &mut rng);
        let norm = log_normalizer(train, target);
        let encode = |q: &Query| {
            let (ids, nums) = vocab.encode(q);
            let channel = sampler
                .map(|s| preqr_baselines::lstm_est::table_channel(&db, s, q))
                .unwrap_or_else(|| vec![0.0; ids.len()]);
            let mut bitmap = sampler
                .map(|s| LstmEstimator::pooled_bitmap(&db, s, q, bitmap_dim))
                .unwrap_or_default();
            bitmap.truncate(bitmap_dim - plan_dim);
            if plan_dim > 0 {
                bitmap.extend(estimation::plan_features(&db, &stats, &cost_model, q));
            }
            (ids, nums, channel, bitmap)
        };
        let encoded: Vec<_> = train.iter().map(|l| encode(&l.query)).collect();
        let targets: Vec<f32> = train.iter().map(|l| norm.encode(target.log_truth(l))).collect();
        let predict = |q: &Query| -> f64 {
            let (ids, nums, channel, bitmap) = encode(q);
            norm.decode(model.forward(&ids, &nums, &channel, Some(&bitmap)).value_clone().get(0, 0))
        };
        let mut task = FnTask::new("est.lstm", train.len(), model.params(), |idx, _rng| {
            let (ids, nums, channel, bitmap) = &encoded[idx];
            huber_step(&model.forward(ids, nums, channel, Some(bitmap)), targets[idx])
        })
        .with_eval(|| mean_qerror(valid, target, predict));
        let report = reference::run(&mut task, &estimation_config(EPOCHS, 8, 1e-3), &mut rng);

        assert_same_run(&case, &pred.history, &report.val_history(), valid, &pred, predict);
    }
}

/// The PreQR fine-tuner with the bitmap sampler against the reference
/// loop, for cardinality and cost: the frozen lower layers, the last
/// `Trm_g` layer and the 3-layer FC head on `[CLS]` ⧺ sum-pooled tokens
/// ⧺ sample features ⧺ plan statistics, written from public primitives.
/// Also pins that fine-tuning hands the shared model back with its last
/// layer at the pre-trained bits.
#[test]
fn preqr_finetune_with_sampler_matches_legacy_reference_bit_for_bit() {
    const EPOCHS: usize = 3;
    const SEED: u64 = 13;
    let (db, labeled) = setup();
    let (train, rest) = labeled.split_at(40);
    let valid = &rest[..12];
    let sampler = BitmapSampler::new(&db, 32, 1);
    let stats = TableStats::analyze(&db);
    let cost_model = CostModel::default();
    let corpus = workloads::pretrain_corpus(&db, 30, 7);
    let buckets = preqr_tasks::setup::value_buckets_from_db(&db, 8);
    let model = SqlBert::new(&corpus, db.schema(), buckets, PreqrConfig::test());
    let pretrained: Vec<Matrix> =
        model.last_layer_params().iter().map(Tensor::value_clone).collect();

    for target in [Target::Cardinality, Target::Cost] {
        let case = format!("PreQR {target:?}, sampler true");
        // Production path.
        let pred = estimation::train_preqr(
            &db,
            &model,
            Some(&sampler),
            train,
            valid,
            target,
            EPOCHS,
            SEED,
            "PreQR",
        );
        let restored = model.last_layer_params();
        assert_eq!(restored.len(), pretrained.len(), "{case}: last-layer parameter count");
        for (i, (p, m)) in restored.iter().zip(&pretrained).enumerate() {
            let same = p
                .value_clone()
                .data()
                .iter()
                .zip(m.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{case}: last-layer param {i} not restored to its pre-trained bits");
        }

        // Legacy path: the shared model's last layer is fine-tuned in
        // place together with a fresh head.
        let nodes = model.cached_nodes();
        let bitmap_dim = estimation::SAMPLE_FEATURES + estimation::PLAN_FEATURES;
        let mut rng = StdRng::seed_from_u64(SEED);
        let head = Mlp::new(&[2 * model.config.output_dim() + bitmap_dim, 64, 32, 1], &mut rng);
        let norm = log_normalizer(train, target);
        let lower_and_bits = |q: &Query| {
            let lower = model.lower_states(&model.prepare(q), nodes.as_ref());
            let mut bits = estimation::sample_features(&db, &sampler, q);
            bits.extend(estimation::plan_features(&db, &stats, &cost_model, q));
            (lower, bits)
        };
        let forward = |lower: &Matrix, bits: &[f32]| -> Tensor {
            let reps = model.last_layer_encode(lower, nodes.as_ref());
            let cls = ops::gather_rows(&reps, &[0]);
            let n = reps.shape().0 as f32;
            let pooled = ops::scale(&ops::mean_rows(&reps), n / 8.0);
            let side = Tensor::constant(Matrix::from_vec(1, bitmap_dim, bits.to_vec()));
            head.forward(&ops::concat_cols(&ops::concat_cols(&cls, &pooled), &side))
        };
        let cached: Vec<_> = train.iter().map(|l| lower_and_bits(&l.query)).collect();
        let targets: Vec<f32> = train.iter().map(|l| norm.encode(target.log_truth(l))).collect();
        let predict = |q: &Query| -> f64 {
            let (lower, bits) = lower_and_bits(q);
            norm.decode(forward(&lower, &bits).value_clone().get(0, 0))
        };
        let mut params = model.last_layer_params();
        params.extend(head.params());
        let mut task = FnTask::new("est.preqr", train.len(), params, |idx, _rng| {
            let (lower, bits) = &cached[idx];
            huber_step(&forward(lower, bits), targets[idx])
        })
        .with_eval(|| mean_qerror(valid, target, predict));
        let report = reference::run(&mut task, &estimation_config(EPOCHS, 8, 5e-4), &mut rng);

        assert_same_run(&case, &pred.history, &report.val_history(), valid, &pred, predict);

        // Put the shared model back for the next target.
        for (p, m) in model.last_layer_params().iter().zip(&pretrained) {
            p.set_value(m.clone());
        }
    }
}
