//! Cross-crate integration tests: the full PreQR pipeline from data
//! generation through pre-training to downstream evaluation.

use preqr::{PreqrConfig, SqlBert};
use preqr_data::imdb::{generate, ImdbConfig};
use preqr_data::workloads;
use preqr_engine::{execute, BitmapSampler, CostModel, TableStats};
use preqr_nn::layers::Module;
use preqr_nn::Tensor;
use preqr_tasks::estimation::{
    evaluate, train_corrected, train_preqr, Estimator, PgBaseline, Target,
};
use preqr_tasks::setup::{build_pretrained, value_buckets_from_db};

#[test]
fn pretrain_encode_finetune_evaluate() {
    let db = generate(ImdbConfig::tiny());
    let corpus = workloads::pretrain_corpus(&db, 60, 7);
    let (model, stats) = build_pretrained(&db, &corpus, PreqrConfig::test(), 2, 2e-3);
    assert!(stats[1].loss <= stats[0].loss * 1.1, "pre-training must not diverge");

    let cm = CostModel::default();
    let labeled = workloads::label(&db, &workloads::synthetic(&db, 120, 21), &cm);
    let (train, valid) = labeled.split_at(100);
    let sampler = BitmapSampler::new(&db, 32, 1);
    let pred = train_preqr(
        &db,
        &model,
        Some(&sampler),
        train,
        valid,
        Target::Cardinality,
        3,
        7,
        "PreQRCard",
    );
    let test = workloads::label(&db, &workloads::job_light(&db, 41), &cm);
    let s = evaluate(&pred, Target::Cardinality, &test);
    assert!(s.mean.is_finite() && s.median >= 1.0);

    // Fine-tuning must beat the untrained head (which decodes to the
    // training geometric mean), and land in the same order of magnitude
    // as the PG baseline even at this tiny test scale. (The full-scale
    // PG-beating result is the `repro table08` reproduction's job.)
    let untrained = train_preqr(
        &db,
        &model,
        Some(&sampler),
        train,
        valid,
        Target::Cardinality,
        0,
        7,
        "untrained",
    );
    let u = evaluate(&untrained, Target::Cardinality, &test);
    assert!(s.mean < u.mean, "training must help: {} vs {}", s.mean, u.mean);
    let tstats = TableStats::analyze(&db);
    let pg = PgBaseline::new(&db, &tstats, Target::Cardinality);
    let pg_stats = evaluate(&pg, Target::Cardinality, &test);
    assert!(
        s.mean < pg_stats.mean * 3.0,
        "PreQR ({}) should be within 3x of PG ({}) even at toy scale",
        s.mean,
        pg_stats.mean
    );
}

#[test]
fn shared_model_predictors_do_not_interfere() {
    // Heads fine-tuned from one shared model each train their own copy of
    // its last layer: the shared model is never written, and one head's
    // training cannot change another head's predictions.
    let db = generate(ImdbConfig::tiny());
    let corpus = workloads::pretrain_corpus(&db, 40, 7);
    let (model, _) = build_pretrained(&db, &corpus, PreqrConfig::test(), 1, 2e-3);
    let versions = || model.params().iter().map(Tensor::version).collect::<Vec<_>>();
    let pretrained = versions();
    let cm = CostModel::default();
    let labeled = workloads::label(&db, &workloads::synthetic(&db, 80, 21), &cm);
    let (train, valid) = labeled.split_at(64);
    let a = train_preqr(&db, &model, None, train, valid, Target::Cardinality, 2, 7, "A");
    assert_eq!(versions(), pretrained, "train_preqr wrote a shared-model weight");
    let q = &labeled[0].query;
    let before = a.predict(q);
    // Train two more heads on the same model.
    let _b = train_preqr(&db, &model, None, train, valid, Target::Cost, 2, 9, "B");
    let _c = train_corrected(&db, &model, None, train, valid, 200, 2, 11);
    assert_eq!(versions(), pretrained, "train_corrected wrote a shared-model weight");
    let after = a.predict(q);
    assert_eq!(before.to_bits(), after.to_bits(), "predictor A changed: {before} vs {after}");
}

#[test]
fn automaton_covers_generated_workloads() {
    let db = generate(ImdbConfig::tiny());
    let corpus = workloads::pretrain_corpus(&db, 80, 7);
    let buckets = value_buckets_from_db(&db, 8);
    let model = SqlBert::new(&corpus, db.schema(), buckets, PreqrConfig::test());
    // Unseen queries from the same families should have high structural
    // coverage through the merged automaton.
    let unseen = workloads::synthetic(&db, 40, 999);
    let mean_cov: f64 = unseen.iter().map(|q| model.prepare(q).structure_coverage).sum::<f64>()
        / unseen.len() as f64;
    assert!(mean_cov > 0.95, "automaton coverage too low: {mean_cov}");
}

#[test]
fn ground_truth_labels_are_execution_results() {
    let db = generate(ImdbConfig::tiny());
    let cm = CostModel::default();
    let qs = workloads::job_light(&db, 41);
    let labeled = workloads::label(&db, &qs, &cm);
    for lq in labeled.iter().take(10) {
        let r = execute(&db, &lq.query).unwrap();
        assert_eq!(lq.card, r.join_cardinality.max(1));
    }
}
