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
use rand::SeedableRng;

use preqr::{PreqrConfig, SqlBert};
use preqr_baselines::lstm_est::{LstmEstimator, LstmVocab};
use preqr_baselines::mscn::{MscnFeaturizer, MscnModel};
use preqr_data::imdb::{generate, ImdbConfig};
use preqr_data::workloads::{self, LabeledQuery};
use preqr_engine::{CostModel, Database};
use preqr_nn::layers::Module;
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
        let (loss, masked, correct) = legacy.mlm_loss(&prepared[idx], leaf, rng);
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
/// one-backward-per-chunk schema side, bit for bit.
#[test]
fn pretrain_without_schema_matches_legacy_reference_bit_for_bit() {
    let (corpus, mut trained, legacy) = pretrain_setup(PreqrConfig::test().without_schema());
    assert!(legacy.node_states().is_none());

    let stats = trained.pretrain(&corpus, PRETRAIN_EPOCHS, PRETRAIN_LR);

    let mut rng = StdRng::seed_from_u64(legacy.config.seed.wrapping_add(1));
    let prepared: Vec<_> = corpus.iter().map(|q| legacy.prepare(q)).collect();
    let nodes = RefCell::new(None);
    let mut task = FnTask::new("pretrain", prepared.len(), legacy.params(), |idx, rng| {
        let (loss, masked, correct) = legacy.mlm_loss(&prepared[idx], nodes.borrow().as_ref(), rng);
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
/// validation q-error history and predictions.
#[test]
fn mscn_finetune_matches_legacy_reference_bit_for_bit() {
    const EPOCHS: usize = 5;
    const SEED: u64 = 9;
    let (db, labeled) = setup();
    let (train, rest) = labeled.split_at(60);
    let valid = &rest[..20];

    // Production path.
    let pred = estimation::train_mscn(&db, None, train, valid, Target::Cardinality, EPOCHS, SEED);

    // Legacy path: rebuild the identical model/featurizer/normalizer and
    // run the same closures through the reference loop.
    let featurizer = MscnFeaturizer::new(&db, 0);
    let mut rng = StdRng::seed_from_u64(SEED);
    let model = MscnModel::new(&featurizer, 32, &mut rng);
    let norm = Normalizer::fit(
        &train.iter().map(|l| Target::Cardinality.log_truth(l)).collect::<Vec<_>>(),
    );
    let feats: Vec<_> = train.iter().map(|l| featurizer.featurize(&db, &l.query, None)).collect();
    let targets: Vec<f32> =
        train.iter().map(|l| norm.encode(Target::Cardinality.log_truth(l))).collect();
    let predict = |model: &MscnModel, q: &Query| -> f64 {
        let f = featurizer.featurize(&db, q, None);
        norm.decode(model.forward(&f, &featurizer).value_clone().get(0, 0))
    };
    let mut task = FnTask::new("est.mscn", train.len(), model.params(), |idx, _rng| {
        let p = model.forward(&feats[idx], &featurizer);
        let loss = ops::huber_loss(&p, &Matrix::full(1, 1, targets[idx]), 1.0);
        let scalar = f64::from(loss.value_clone().get(0, 0));
        loss.backward();
        StepOutput { loss: scalar, ..StepOutput::default() }
    })
    .with_eval(|| {
        valid
            .iter()
            .map(|lq| qerror(predict(&model, &lq.query), Target::Cardinality.truth(lq)))
            .sum::<f64>()
            / valid.len() as f64
    });
    let mut config =
        TrainerConfig::new(Plan::Epochs { epochs: EPOCHS, chunk: 16, shuffle: false }, 1e-3);
    config.patience = Some(3);
    let report = reference::run(&mut task, &config, &mut rng);

    let ref_history = report.val_history();
    assert_eq!(pred.history.len(), ref_history.len(), "epoch count");
    for (a, b) in pred.history.iter().zip(&ref_history) {
        assert_eq!(a.to_bits(), b.to_bits(), "validation q-error history diverged");
    }
    for lq in valid.iter().take(8) {
        assert_eq!(
            pred.predict(&lq.query).to_bits(),
            predict(&model, &lq.query).to_bits(),
            "post-restore predictions diverged"
        );
    }
}

/// The LSTM fine-tuner against the reference loop.
#[test]
fn lstm_finetune_matches_legacy_reference_bit_for_bit() {
    const EPOCHS: usize = 4;
    const SEED: u64 = 11;
    let (db, labeled) = setup();
    let (train, rest) = labeled.split_at(48);
    let valid = &rest[..16];

    // Production path.
    let pred = estimation::train_lstm(&db, None, train, valid, Target::Cardinality, EPOCHS, SEED);

    // Legacy path. With no sampler and the cardinality target the side
    // channels are all-zero / empty, exactly as in the fine-tuner.
    let corpus: Vec<Query> = train.iter().map(|l| l.query.clone()).collect();
    let vocab = LstmVocab::build(&corpus);
    let mut rng = StdRng::seed_from_u64(SEED);
    let model = LstmEstimator::new(&vocab, 24, 32, 0, &mut rng);
    let norm = Normalizer::fit(
        &train.iter().map(|l| Target::Cardinality.log_truth(l)).collect::<Vec<_>>(),
    );
    let encoded: Vec<_> = train
        .iter()
        .map(|l| {
            let (ids, nums) = vocab.encode(&l.query);
            let channel = vec![0.0; ids.len()];
            (ids, nums, channel, norm.encode(Target::Cardinality.log_truth(l)))
        })
        .collect();
    let predict = |q: &Query| -> f64 {
        let (ids, nums) = vocab.encode(q);
        let channel = vec![0.0; ids.len()];
        norm.decode(model.forward(&ids, &nums, &channel, Some(&[])).value_clone().get(0, 0))
    };
    let mut task = FnTask::new("est.lstm", train.len(), model.params(), |idx, _rng| {
        let (ids, nums, channel, t) = &encoded[idx];
        let p = model.forward(ids, nums, channel, Some(&[]));
        let loss = ops::huber_loss(&p, &Matrix::full(1, 1, *t), 1.0);
        let scalar = f64::from(loss.value_clone().get(0, 0));
        loss.backward();
        StepOutput { loss: scalar, ..StepOutput::default() }
    })
    .with_eval(|| {
        valid
            .iter()
            .map(|lq| qerror(predict(&lq.query), Target::Cardinality.truth(lq)))
            .sum::<f64>()
            / valid.len() as f64
    });
    let mut config =
        TrainerConfig::new(Plan::Epochs { epochs: EPOCHS, chunk: 8, shuffle: false }, 1e-3);
    config.patience = Some(3);
    let report = reference::run(&mut task, &config, &mut rng);

    let ref_history = report.val_history();
    assert_eq!(pred.history.len(), ref_history.len(), "epoch count");
    for (a, b) in pred.history.iter().zip(&ref_history) {
        assert_eq!(a.to_bits(), b.to_bits(), "validation q-error history diverged");
    }
    for lq in valid.iter().take(8) {
        assert_eq!(
            pred.predict(&lq.query).to_bits(),
            predict(&lq.query).to_bits(),
            "post-restore predictions diverged"
        );
    }
}
