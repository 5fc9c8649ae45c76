//! CI train-smoke: one pretraining epoch plus one estimation fine-tune
//! through the shared `preqr-train` Trainer, and the pretrain-level
//! checkpoint/halt/resume path. Run under `PREQR_THREADS={1,8}` by the
//! CI `train-smoke` job — every assertion here is thread-invariant.

use preqr::{PreqrConfig, PretrainOptions, SqlBert};
use preqr_data::imdb::{generate, ImdbConfig};
use preqr_data::workloads;
use preqr_engine::CostModel;
use preqr_nn::layers::Module;
use preqr_tasks::estimation::{train_mscn, Target};
use preqr_tasks::setup::value_buckets_from_db;
use preqr_train::CheckpointConfig;

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

/// Halting a pre-train mid-run and resuming from the periodic
/// checkpoint reproduces plain, never-checkpointed pre-training
/// bit-for-bit (a checkpoint stores the exact RNG state).
#[test]
fn pretrain_halt_resume_matches_uninterrupted() {
    const EPOCHS: usize = 2;
    let db = generate(ImdbConfig::tiny());
    // 20 examples / chunk 8 → 3 steps per epoch, 6 total; checkpoints
    // land at steps 2, 4, 6 and the halt at 3 interrupts mid-epoch.
    let corpus = workloads::pretrain_corpus(&db, 20, 7);
    let buckets = value_buckets_from_db(&db, 8);
    let path = std::env::temp_dir().join(format!("preqr_smoke_{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let mut base = SqlBert::new(&corpus, db.schema(), buckets.clone(), PreqrConfig::test());
    let base_stats = base.pretrain(&corpus, EPOCHS, 1e-3);

    let mut resumed = SqlBert::new(&corpus, db.schema(), buckets, PreqrConfig::test());
    let mut opts = PretrainOptions::new(EPOCHS, 1e-3);
    opts.checkpoint = Some(CheckpointConfig::new(path.clone(), 2));
    opts.halt_after_steps = Some(3);
    let partial = resumed.pretrain_with(&corpus, opts.clone());
    assert!(partial.len() < EPOCHS, "halt must interrupt the run");

    opts.halt_after_steps = None;
    let resumed_stats = resumed.pretrain_with(&corpus, opts);

    let _ = std::fs::remove_file(&path);

    assert_eq!(base_stats, resumed_stats, "loss/accuracy trajectory after resume");
    let (a, b) = (base.params(), resumed.params());
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        let (xv, yv) = (x.value_clone(), y.value_clone());
        assert_eq!(xv.shape(), yv.shape(), "param {i} shape");
        let same = xv.data().iter().zip(yv.data()).all(|(p, q)| p.to_bits() == q.to_bits());
        assert!(same, "param {i} diverged after halt/resume");
    }
}
