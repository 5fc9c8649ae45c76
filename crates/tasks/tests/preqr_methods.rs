//! Integration of the PreQR encoder with the clustering and generation
//! pipelines (the library paths Table 7's reproduction exercises at scale).

use preqr::{PreqrConfig, SqlBert};
use preqr_data::chdb::{generate, ChConfig};
use preqr_data::clustering::iit_bombay;
use preqr_data::text::{corpus, TextStyle};
use preqr_sql::ast::Query;
use preqr_tasks::clustering::{betacv_of, SimilarityMethod};
use preqr_tasks::setup::value_buckets_from_db;
use preqr_tasks::textgen::{train_generator, GenEncoder};

fn ch_model(extra: &[Query]) -> SqlBert {
    let db = generate(ChConfig::tiny());
    let mut corpus_q = iit_bombay().queries;
    corpus_q.extend(extra.iter().cloned());
    let buckets = value_buckets_from_db(&db, 6);
    let mut m = SqlBert::new(&corpus_q, db.schema(), buckets, PreqrConfig::test());
    m.pretrain(&corpus_q[..corpus_q.len().min(30)], 1, 2e-3);
    m
}

#[test]
fn preqr_similarity_separates_clusters_better_than_chance() {
    let ds = iit_bombay();
    let model = ch_model(&[]);
    let b = betacv_of(&SimilarityMethod::Preqr(&model), &ds.queries, &ds.labels);
    assert!(b.is_finite() && b > 0.0);
    assert!(b < 1.0, "within-cluster distances must beat between-cluster: {b}");
}

#[test]
fn preqr2seq_trains_and_generates() {
    let pairs = corpus(TextStyle::WikiSql, 12, 1);
    let queries: Vec<Query> = pairs.iter().map(|p| p.query.clone()).collect();
    let model = ch_model(&queries);
    let gen = train_generator(GenEncoder::Preqr2Seq(&model), &pairs, 16, 3, 5);
    assert_eq!(gen.name, "PreQR2Seq");
    let bleu = gen.evaluate(&pairs);
    assert!((0.0..=1.0).contains(&bleu));
    let words = gen.generate(&pairs[0].query, 16);
    assert!(words.len() <= 16);
}
