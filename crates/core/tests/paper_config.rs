//! The paper's full configuration (L=4, H=256, A=4) must build and
//! encode. Pre-training at that size is a long-run job that no test or
//! reproduction artifact runs: `repro` pre-trains `PreqrConfig::small()`
//! and its variants at either `PREQR_SCALE`.

use preqr::{PreqrConfig, SqlBert, ValueBuckets};
use preqr_schema::{Column, ColumnType, ForeignKey, Schema, Table};
use preqr_sql::parser::parse;

fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_table(Table::new(
        "title",
        vec![
            Column::primary("id", ColumnType::Int),
            Column::new("production_year", ColumnType::Int),
        ],
    ));
    s.add_table(Table::new(
        "movie_companies",
        vec![Column::primary("id", ColumnType::Int), Column::new("movie_id", ColumnType::Int)],
    ));
    s.add_foreign_key(ForeignKey {
        from_table: "movie_companies".into(),
        from_column: "movie_id".into(),
        to_table: "title".into(),
        to_column: "id".into(),
    });
    s
}

#[test]
fn paper_configuration_builds_and_encodes() {
    let corpus = vec![
        parse("SELECT COUNT(*) FROM title t WHERE t.production_year > 2000").unwrap(),
        parse(
            "SELECT COUNT(*) FROM title t, movie_companies mc \
             WHERE t.id = mc.movie_id AND t.production_year > 2010",
        )
        .unwrap(),
    ];
    let mut buckets = ValueBuckets::new(10);
    buckets.insert("title", "production_year", (1930..2020).map(f64::from).collect());
    let config = PreqrConfig::paper();
    assert_eq!((config.layers, config.d_model, config.heads), (4, 256, 4));
    let model = SqlBert::new(&corpus, &schema(), buckets, config);
    // The paper reports ~40M parameters with the 30k WordPiece vocab; at
    // this tiny vocabulary the transformer stack alone is ~6M.
    assert!(model.num_parameters() > 3_000_000, "{}", model.num_parameters());
    let e = model.encode(&corpus[1]);
    assert_eq!(e.cols(), config.output_dim());
    assert!(e.data().iter().all(|v| v.is_finite()));
}

#[test]
fn encoding_is_deterministic_across_identical_builds() {
    let corpus =
        vec![parse("SELECT COUNT(*) FROM title t WHERE t.production_year > 2000").unwrap()];
    let mut buckets = ValueBuckets::new(6);
    buckets.insert("title", "production_year", (1930..2020).map(f64::from).collect());
    let a = SqlBert::new(&corpus, &schema(), buckets.clone(), PreqrConfig::test());
    let b = SqlBert::new(&corpus, &schema(), buckets, PreqrConfig::test());
    assert_eq!(a.encode(&corpus[0]), b.encode(&corpus[0]));
}
