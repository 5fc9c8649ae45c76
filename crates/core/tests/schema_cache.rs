//! The schema-side cache (node states and each layer's schema K/V) is
//! keyed on the weights' write versions and cleared by `update_schema`.
//! After every kind of write, `encode` must equal the tape-recording eval
//! `forward` — which recomputes the schema side from the weights — bit
//! for bit, and must differ from the embedding before the write.
//!
//! Each weight's packed matmul panels are cached until that weight's next
//! write; the same writes must leave no stale panels behind.

use rand::rngs::StdRng;
use rand::SeedableRng;

use preqr::{PreqrConfig, SqlBert, ValueBuckets};
use preqr_nn::layers::Module;
use preqr_nn::Matrix;
use preqr_schema::{Column, ColumnType, ForeignKey, Schema, Table};
use preqr_sql::parser::parse;
use preqr_sql::Query;

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

fn corpus() -> Vec<Query> {
    (0..8)
        .map(|i| {
            parse(&format!(
                "SELECT COUNT(*) FROM title t, movie_companies mc \
                 WHERE t.id = mc.movie_id AND t.production_year > {} AND mc.company_id = {}",
                1960 + i * 5,
                1 + i % 4
            ))
            .unwrap()
        })
        .collect()
}

fn config() -> PreqrConfig {
    PreqrConfig { layers: 2, ..PreqrConfig::test() }
}

fn model_with(config: PreqrConfig) -> SqlBert {
    let mut b = ValueBuckets::new(8);
    b.insert("title", "production_year", (1930..2020).map(f64::from).collect());
    b.insert("title", "kind_id", (1..8).map(f64::from).collect());
    b.insert("movie_companies", "company_id", (1..100).map(f64::from).collect());
    SqlBert::new(&corpus(), &schema(), b, config)
}

fn model() -> SqlBert {
    model_with(config())
}

/// The eval forward with the tape recording: no cache involved.
fn tracked(m: &SqlBert, q: &Query) -> Matrix {
    assert!(!preqr_nn::no_grad_active());
    let pq = m.prepare(q);
    m.forward(&pq, None, None, false, &mut StdRng::seed_from_u64(0)).value_clone()
}

/// Checks `encode` after a write: equal to the tracked forward, changed
/// from `before`, and `encode_batch` agrees.
fn assert_current(m: &SqlBert, q: &Query, before: &Matrix, write: &str) {
    let now = m.encode(q);
    assert_eq!(now, tracked(m, q), "after {write}: encode must equal the tracked forward");
    assert_ne!(&now, before, "after {write}: the embedding must change");
    assert_eq!(m.encode_batch(std::slice::from_ref(q))[0], now);
}

#[test]
fn pretrain_step_invalidates() {
    let mut m = model();
    let q = &corpus()[2];
    let before = m.encode(q);
    assert_eq!(before, tracked(&m, q));
    let nodes = m.cached_nodes().unwrap().id();
    m.pretrain(&corpus(), 1, 1e-2);
    assert_current(&m, q, &before, "pretrain");
    assert_ne!(m.cached_nodes().unwrap().id(), nodes, "a write must refill the cache");
}

#[test]
fn checkpoint_load_invalidates() {
    let mut trained = model();
    trained.pretrain(&corpus(), 2, 1e-2);
    let dir = std::env::temp_dir().join(format!("preqr_schema_cache_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trained.ckpt");
    trained.save(&path).unwrap();

    let mut m = model();
    let q = &corpus()[5];
    let before = m.encode(q);
    m.load(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_current(&m, q, &before, "load");
    assert_eq!(m.encode(q), trained.encode(q), "a loaded model encodes like its source");
}

#[test]
fn schema_update_clears() {
    let mut m = model();
    let q = &corpus()[0];
    let before = m.encode(q);
    let vertices = m.cached_nodes().unwrap().shape().0;
    let mut grown = schema();
    grown.add_table(Table::new(
        "company_name",
        vec![Column::primary("id", ColumnType::Int), Column::new("country", ColumnType::Varchar)],
    ));
    m.update_schema(&grown);
    assert_current(&m, q, &before, "update_schema");
    assert_eq!(m.cached_nodes().unwrap().shape().0, vertices + 3, "one table, two columns");
}

#[test]
fn direct_write_to_last_schema_key_projection_invalidates() {
    let m = model();
    let q = &corpus()[3];
    let before = m.encode(q);
    let last = config().layers - 1;
    let (_, wk) = m
        .named_params("m")
        .into_iter()
        .find(|(name, _)| name == &format!("m.layer{last}.g_attn.wk.w"))
        .expect("last layer's schema key projection");
    let nodes = m.cached_nodes().unwrap().id();
    wk.update_value(|w| w.scale_assign(1.5));
    assert_current(&m, q, &before, "a direct write to wk");
    // The node states do not depend on wk, but the cache is refilled as
    // a whole.
    assert_ne!(m.cached_nodes().unwrap().id(), nodes);
}

#[test]
fn cached_nodes_are_shared_until_a_write() {
    let m = model();
    let a = m.cached_nodes().unwrap();
    let _ = m.encode_batch(&corpus());
    let b = m.cached_nodes().unwrap();
    assert_eq!(a.id(), b.id(), "no write in between: the same cached tensor");
    assert!(!a.requires_grad(), "cached node states are detached");
    assert_eq!(a.value_clone(), m.node_states().unwrap().value_clone());
}

#[test]
fn model_without_schema_still_encodes() {
    let m = model_with(config().bert_only());
    let q = &corpus()[1];
    assert!(m.cached_nodes().is_none());
    let e = m.encode(q);
    assert_eq!(e.shape(), (m.prepare(q).len(), config().d_model));
    assert_eq!(e, tracked(&m, q));
    assert_eq!(m.cls_vector(q), e.row(0).to_vec());
}

#[test]
fn pretrain_after_an_encode_leaves_no_stale_weight_panels() {
    let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut m = model();
    let q = &corpus()[4];
    // 16+ token rows: the FFN's 32→128 and 128→32 products take the packed
    // path, so this encode fills their weights' panel caches.
    assert!(m.prepare(q).len() >= 16);
    let _ = m.encode(q);
    m.pretrain(&corpus(), 1, 1e-2);
    let after = m.encode(q);

    let dir = std::env::temp_dir().join(format!("preqr_panel_cache_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trained.ckpt");
    m.save(&path).unwrap();
    let mut fresh = model();
    fresh.load(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(bits(&after), bits(&fresh.encode(q)), "encode after pretrain == fresh load");
}
