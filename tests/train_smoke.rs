//! CI train-smoke: one pretraining epoch plus one estimation fine-tune
//! through the shared `preqr-train` Trainer. Run by the CI `train-smoke`
//! job.

use preqr::{PreqrConfig, SqlBert};
use preqr_data::imdb::{generate, ImdbConfig};
use preqr_data::workloads;
use preqr_engine::CostModel;
use preqr_tasks::estimation::{train_mscn, Target};
use preqr_tasks::setup::value_buckets_from_db;

#[test]
fn one_pretrain_epoch_and_one_finetune_run() {
    let db = generate(ImdbConfig::tiny());
    let corpus = workloads::pretrain_corpus(&db, 16, 7);
    let buckets = value_buckets_from_db(&db, 8);
    let mut m = SqlBert::new(&corpus, db.schema(), buckets, PreqrConfig::test());
    let stats = m.pretrain(&corpus, 1, 1e-3);
    assert_eq!(stats.len(), 1);
    assert!(stats[0].loss.is_finite() && stats[0].loss > 0.0);
    assert!(stats[0].samples == corpus.len());

    let qs = workloads::synthetic(&db, 50, 3);
    let labeled = workloads::label(&db, &qs, &CostModel::default());
    let (train, valid) = labeled.split_at(40);
    let pred = train_mscn(&db, None, train, valid, Target::Cardinality, 2, 5);
    assert_eq!(pred.history.len(), 2);
    assert!(pred.history.iter().all(|v| v.is_finite()));
}
