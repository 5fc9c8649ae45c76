//! Checkpointing: models rebuilt deterministically from the same corpus
//! accept each other's parameters and produce identical encodings.

use preqr::{PreqrConfig, SqlBert};
use preqr_data::imdb::{generate, ImdbConfig};
use preqr_data::workloads;
use preqr_nn::layers::Module;
use preqr_nn::serialize;
use preqr_tasks::setup::value_buckets_from_db;

#[test]
fn save_load_round_trip_reproduces_encodings() {
    let db = generate(ImdbConfig::tiny());
    let corpus = workloads::pretrain_corpus(&db, 40, 7);
    let buckets = value_buckets_from_db(&db, 8);
    let mut a = SqlBert::new(&corpus, db.schema(), buckets.clone(), PreqrConfig::test());
    a.pretrain(&corpus[..20], 1, 2e-3);

    let mut buf = Vec::new();
    serialize::write_params(&mut buf, &a.named_params("m")).unwrap();

    // A fresh model with the same deterministic build accepts the params.
    let b = SqlBert::new(&corpus, db.schema(), buckets, PreqrConfig::test());
    let loaded = serialize::read_params(&mut buf.as_slice()).unwrap();
    serialize::apply_params(&b.named_params("m"), &loaded).unwrap();

    let q = &corpus[3];
    assert_eq!(a.encode(q), b.encode(q), "loaded model must encode identically");
}

#[test]
fn save_load_file_helpers_round_trip() {
    let db = generate(ImdbConfig::tiny());
    let corpus = workloads::pretrain_corpus(&db, 30, 7);
    let buckets = value_buckets_from_db(&db, 8);
    let mut a = SqlBert::new(&corpus, db.schema(), buckets.clone(), PreqrConfig::test());
    a.pretrain(&corpus[..10], 1, 2e-3);
    // Unique per-process directory: concurrent test runs (or a stale file
    // from a crashed one) must never race on a shared fixed path.
    let dir = std::env::temp_dir().join(format!("preqr_ckpt_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.bin");
    a.save(&path).unwrap();
    let mut b = SqlBert::new(&corpus, db.schema(), buckets, PreqrConfig::test());
    b.load(&path).unwrap();
    assert_eq!(a.encode(&corpus[0]), b.encode(&corpus[0]));
    // Clean up on success only — a failure leaves the artifact for triage.
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn mismatched_architecture_is_rejected() {
    let db = generate(ImdbConfig::tiny());
    let corpus = workloads::pretrain_corpus(&db, 30, 7);
    let buckets = value_buckets_from_db(&db, 8);
    let a = SqlBert::new(&corpus, db.schema(), buckets.clone(), PreqrConfig::test());
    let mut buf = Vec::new();
    serialize::write_params(&mut buf, &a.named_params("m")).unwrap();
    let loaded = serialize::read_params(&mut buf.as_slice()).unwrap();
    // A different width must fail shape validation.
    let bigger = PreqrConfig { d_model: 64, ..PreqrConfig::test() };
    let b = SqlBert::new(&corpus, db.schema(), buckets, bigger);
    assert!(serialize::apply_params(&b.named_params("m"), &loaded).is_err());
}
