//! Property test for the batch-invariance contract of
//! [`SqlBert::encode_batch`]: an embedding is a function of the query
//! alone — never of the batch it happened to ride in. The serving layer
//! (`crates/serve`) relies on this to keep responses bit-identical across
//! `max_batch` settings, so the property is pinned here at the model
//! layer where it is enforced.

use std::sync::OnceLock;

use proptest::prelude::*;

use preqr::{PreqrConfig, SqlBert, ValueBuckets};
use preqr_nn::Matrix;
use preqr_schema::{Column, ColumnType, ForeignKey, Schema, Table};
use preqr_sql::ast::Query;
use preqr_sql::parser::parse;

fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_table(Table::new(
        "title",
        vec![
            Column::primary("id", ColumnType::Int),
            Column::new("production_year", ColumnType::Int),
            Column::new("kind_id", ColumnType::Int),
        ],
    ));
    s.add_table(Table::new(
        "movie_companies",
        vec![
            Column::primary("id", ColumnType::Int),
            Column::new("movie_id", ColumnType::Int),
            Column::new("company_id", ColumnType::Int),
        ],
    ));
    s.add_foreign_key(ForeignKey {
        from_table: "movie_companies".into(),
        from_column: "movie_id".into(),
        to_table: "title".into(),
        to_column: "id".into(),
    });
    s
}

/// Query pool mixing templates, literals, and join shapes.
fn pool() -> Vec<Query> {
    let mut qs = Vec::new();
    for y in [1975, 1990, 2005, 2011] {
        qs.push(
            parse(&format!("SELECT COUNT(*) FROM title t WHERE t.production_year > {y}")).unwrap(),
        );
        qs.push(
            parse(&format!(
                "SELECT COUNT(*) FROM title t, movie_companies mc \
                 WHERE t.id = mc.movie_id AND t.production_year > {y}"
            ))
            .unwrap(),
        );
    }
    qs.push(parse("SELECT * FROM title t WHERE t.kind_id IN (1, 3, 5)").unwrap());
    qs.push(
        parse("SELECT MIN(t.id) FROM title t WHERE t.production_year BETWEEN 1990 AND 2000")
            .unwrap(),
    );
    qs
}

/// One model for the whole test binary, shared by every test thread:
/// building it per proptest case would dominate runtime.
fn model() -> &'static SqlBert {
    static MODEL: OnceLock<SqlBert> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut buckets = ValueBuckets::new(4);
        buckets.insert("title", "production_year", (1930..2020).map(f64::from).collect());
        buckets.insert("title", "kind_id", (1..8).map(f64::from).collect());
        buckets.insert("movie_companies", "company_id", (1..100).map(f64::from).collect());
        SqlBert::new(&pool(), &schema(), buckets, PreqrConfig::test())
    })
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any batch (composition, order, duplicates) yields the same bytes
    /// per query as encoding that query alone.
    #[test]
    fn batched_embeddings_are_batch_invariant(
        picks in proptest::collection::vec(0usize..10, 1..8),
    ) {
        let qs = pool();
        let batch: Vec<Query> = picks.iter().map(|&i| qs[i].clone()).collect();
        let m = model();
        let batched = m.encode_batch(&batch);
        assert_eq!(batched.len(), batch.len());
        for (q, b) in batch.iter().zip(&batched) {
            prop_assert_eq!(bits(&m.encode(q)), bits(b));
        }
    }

    /// Splitting one batch at an arbitrary point changes nothing.
    #[test]
    fn batch_split_points_do_not_change_embeddings(split in 0usize..10) {
        let qs = pool();
        let m = model();
        let whole = m.encode_batch(&qs);
        let (a, b) = qs.split_at(split.min(qs.len()));
        let mut parts = m.encode_batch(a);
        parts.extend(m.encode_batch(b));
        for (w, p) in whole.iter().zip(&parts) {
            prop_assert_eq!(bits(w), bits(p));
        }
    }
}
