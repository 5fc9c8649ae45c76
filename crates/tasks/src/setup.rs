//! Convenience builders shared by the reproduction driver and tests.

use preqr::{PreqrConfig, SqlBert, ValueBuckets};
use preqr_engine::Database;
use preqr_sql::ast::Query;

/// Builds per-column value bucketizers from the actual column data
/// (§3.3.2's equi-depth ranges).
pub fn value_buckets_from_db(db: &Database, k: usize) -> ValueBuckets {
    let mut buckets = ValueBuckets::new(k);
    for t in db.schema().tables() {
        for c in &t.columns {
            let Some(col) = db.column(&t.name, &c.name) else { continue };
            let samples: Vec<f64> = (0..col.len()).filter_map(|r| col.get_f64(r)).collect();
            if !samples.is_empty() {
                buckets.insert(&t.name, &c.name, samples);
            }
        }
    }
    buckets
}

/// Builds and MLM-pre-trains a PreQR model on a corpus over `db`'s
/// schema. Returns the model together with its per-epoch statistics.
pub fn build_pretrained(
    db: &Database,
    corpus: &[Query],
    config: PreqrConfig,
    epochs: usize,
    lr: f32,
) -> (SqlBert, Vec<preqr::EpochStats>) {
    let buckets = value_buckets_from_db(db, config.value_buckets);
    let mut model = SqlBert::new(corpus, db.schema(), buckets, config);
    let stats = model.pretrain(corpus, epochs, lr);
    (model, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use preqr_data::imdb::{generate, ImdbConfig};
    use preqr_data::workloads;

    #[test]
    fn buckets_cover_numeric_columns() {
        let db = generate(ImdbConfig::tiny());
        let b = value_buckets_from_db(&db, 5);
        let tok = b.token_for("title", "production_year", &preqr_sql::ast::Value::Int(2015));
        assert!(tok.starts_with("title.production_year#r"), "{tok}");
    }

    #[test]
    fn build_pretrained_reduces_loss() {
        let db = generate(ImdbConfig::tiny());
        let corpus = workloads::pretrain_corpus(&db, 24, 1);
        let (model, stats) = build_pretrained(&db, &corpus, PreqrConfig::test(), 3, 3e-3);
        assert!(stats.last().unwrap().loss < stats.first().unwrap().loss);
        assert!(model.num_parameters() > 10_000);
    }
}
