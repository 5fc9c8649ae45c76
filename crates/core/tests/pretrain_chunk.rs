//! One pre-training chunk, two ways: the per-example path (every example
//! backpropagates through Schema2Graph) against [`preqr::ChunkNodes`]
//! (every example stops at a detached leaf of the node states, then one
//! Schema2Graph backward runs with the summed leaf gradient).
//!
//! Outside Schema2Graph the two paths run the same backward sweeps in the
//! same order, so every such gradient must match bit for bit. Inside it
//! the gradient is re-associated (summed before the backward instead of
//! after), so it must match to within float rounding. And it must exist:
//! a chunk that never flushes its leaf leaves Schema2Graph untrained.

use rand::rngs::StdRng;
use rand::SeedableRng;

use preqr::{PreqrConfig, SqlBert, ValueBuckets};
use preqr_nn::layers::Module;
use preqr_nn::{Matrix, Tensor};
use preqr_schema::{Column, ColumnType, ForeignKey, Schema, Table};
use preqr_sql::parser::parse;
use preqr_sql::Query;

/// Examples per chunk, as in `SqlBert::pretrain`.
const CHUNK: usize = 8;

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
    (0..CHUNK)
        .map(|i| {
            let sql = if i % 2 == 0 {
                format!(
                    "SELECT COUNT(*) FROM title t WHERE t.production_year > {} AND t.kind_id = {}",
                    1960 + i * 5,
                    1 + i % 7
                )
            } else {
                format!(
                    "SELECT COUNT(*) FROM title t, movie_companies mc \
                     WHERE t.id = mc.movie_id AND mc.company_id < {}",
                    10 + i * 9
                )
            };
            parse(&sql).unwrap()
        })
        .collect()
}

fn model(config: PreqrConfig) -> SqlBert {
    let mut b = ValueBuckets::new(config.value_buckets);
    b.insert("title", "production_year", (1930..2020).map(f64::from).collect());
    b.insert("title", "kind_id", (1..8).map(f64::from).collect());
    b.insert("movie_companies", "company_id", (1..100).map(f64::from).collect());
    SqlBert::new(&corpus(), &schema(), b, config)
}

/// The per-example path: one set of node states on the tape, and every
/// example's backward runs through Schema2Graph.
fn per_example_chunk(m: &SqlBert) {
    let mut rng = StdRng::seed_from_u64(3);
    let nodes = m.node_states();
    for q in corpus() {
        let (loss, _, _) = m.mlm_loss(&m.prepare(&q), nodes.as_ref(), &mut rng);
        loss.backward();
    }
}

/// The chunked path: examples stop at the leaf, one flush at the end.
fn leaf_and_flush_chunk(m: &SqlBert) {
    let mut rng = StdRng::seed_from_u64(3);
    let chunk = m.chunk_nodes().expect("the model has a schema module");
    for q in corpus() {
        let (loss, _, _) = m.mlm_loss(&m.prepare(&q), Some(chunk.leaf()), &mut rng);
        loss.backward();
    }
    chunk.backward();
}

fn max_abs(g: &Matrix) -> f32 {
    g.data().iter().fold(0.0f32, |acc, x| acc.max(x.abs()))
}

fn assert_chunk_gradients_match(config: PreqrConfig) {
    let (per_example, chunked) = (model(config), model(config));
    per_example_chunk(&per_example);
    leaf_and_flush_chunk(&chunked);

    let schema_ids: Vec<u64> = chunked.schema_params().iter().map(Tensor::id).collect();
    assert!(!schema_ids.is_empty());
    let mut schema_checked = 0;
    for ((name, a), (_, b)) in
        per_example.named_params("m").into_iter().zip(chunked.named_params("m"))
    {
        let (ga, gb) = (a.grad(), b.grad());
        if !schema_ids.contains(&b.id()) {
            let bits = |g: &Option<Matrix>| {
                g.as_ref().map(|g| g.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            };
            assert_eq!(bits(&ga), bits(&gb), "{name}: gradient outside Schema2Graph changed");
            continue;
        }
        let (ga, gb) = match (ga, gb) {
            (Some(ga), Some(gb)) => (ga, gb),
            // A relation with no edges in this schema gets no gradient.
            (None, None) => continue,
            (ga, _) => panic!("{name}: gradient on one path only (per-example: {})", ga.is_some()),
        };
        let scale = max_abs(&ga);
        let diff =
            ga.data().iter().zip(gb.data()).fold(0.0f32, |acc, (x, y)| acc.max((x - y).abs()));
        assert!(diff <= 1e-5 * scale, "{name}: max |Δg| {diff} against max |g| {scale}");
        schema_checked += 1;
    }
    assert!(schema_checked > 0, "the chunk never reached Schema2Graph");
}

#[test]
fn chunk_gradients_match_per_example_backward_at_test_config() {
    assert_chunk_gradients_match(PreqrConfig::test());
}

#[test]
fn chunk_gradients_match_per_example_backward_at_small_config() {
    assert_chunk_gradients_match(PreqrConfig::small());
}
