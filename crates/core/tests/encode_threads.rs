//! One model shared by many threads. `SqlBert` is `Send + Sync`, so
//! threads may encode through one `&SqlBert` at once — while its weight
//! panels and schema-side cache are still being filled, and once they are
//! warm — and every output must equal the serial `encode` bit for bit.
//! Encoding writes nothing into the shared weights: no parameter ends
//! up holding a gradient.

use std::sync::Barrier;

use preqr::{PreqrConfig, SqlBert, ValueBuckets};
use preqr_nn::layers::Module;
use preqr_nn::{Matrix, Tensor};
use preqr_schema::{Column, ColumnType, ForeignKey, Schema, Table};
use preqr_sql::parser::parse;
use preqr_sql::Query;

fn is_send_sync<T: Send + Sync>() {}

#[test]
fn model_types_are_send_and_sync() {
    is_send_sync::<Tensor>();
    is_send_sync::<Matrix>();
    is_send_sync::<SqlBert>();
}

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

/// Long and short queries, so the workers' shares differ in cost.
fn queries() -> Vec<Query> {
    let mut qs: Vec<Query> = (0..6)
        .map(|i| {
            parse(&format!(
                "SELECT COUNT(*) FROM title t, movie_companies mc \
                 WHERE t.id = mc.movie_id AND t.production_year > {} AND mc.company_id = {}",
                1960 + i * 5,
                1 + i % 4
            ))
            .unwrap()
        })
        .collect();
    qs.push(parse("SELECT * FROM title t WHERE t.kind_id IN (1, 3, 5)").unwrap());
    qs.push(parse("SELECT COUNT(*) FROM title t WHERE t.production_year > 1999").unwrap());
    qs
}

fn model() -> SqlBert {
    let mut b = ValueBuckets::new(8);
    b.insert("title", "production_year", (1930..2020).map(f64::from).collect());
    b.insert("title", "kind_id", (1..8).map(f64::from).collect());
    b.insert("movie_companies", "company_id", (1..100).map(f64::from).collect());
    SqlBert::new(&queries(), &schema(), b, PreqrConfig { layers: 2, ..PreqrConfig::test() })
}

/// Writes every weight, which empties every panel slot and invalidates
/// the schema side.
fn write_all(m: &SqlBert) {
    for p in m.params() {
        p.update_value(|w| w.scale_assign(0.75));
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// Two threads share `m`: one runs `encode` per query, the other
/// `encode_batch` over all of them (which fans out again). Both start
/// together, and each output must equal `want` bit for bit.
fn race(m: &SqlBert, qs: &[Query], want: &[Vec<u32>], what: &str) {
    let start = Barrier::new(2);
    let (solo, batched) = std::thread::scope(|s| {
        let solo = s.spawn(|| {
            start.wait();
            qs.iter().map(|q| m.encode(q)).collect::<Vec<_>>()
        });
        let batched = s.spawn(|| {
            start.wait();
            m.encode_batch(qs)
        });
        (solo.join().unwrap(), batched.join().unwrap())
    });
    for (i, w) in want.iter().enumerate() {
        assert_eq!(&bits(&solo[i]), w, "{what}: encode of query {i} on a second thread");
        assert_eq!(&bits(&batched[i]), w, "{what}: encode_batch output {i}");
    }
}

#[test]
fn threads_sharing_one_model_encode_like_serial_encode() {
    let qs = queries();
    // The FFN products of these queries take the packed path, so their
    // weights' panels are cached.
    let m = model();
    assert!(m.prepare(&qs[0]).len() >= 16);

    let twin = model();
    let _ = m.encode_batch(&qs);
    for round in 0..3 {
        // Reference: a twin with the same writes, encoded one query at a
        // time on this thread.
        write_all(&twin);
        let want: Vec<Vec<u32>> = qs.iter().map(|q| bits(&twin.encode(q))).collect();
        // Every cache is warm; after the write the race fills the panel
        // slots and the schema side afresh, and must never see the old
        // weights' panels.
        write_all(&m);
        race(&m, &qs, &want, &format!("round {round}, cold after a write"));
        race(&m, &qs, &want, &format!("round {round}, warm"));
        assert_eq!(m.encode_batch(&qs).iter().map(bits).collect::<Vec<_>>(), want);
    }

    for (name, p) in m.named_params("m") {
        assert!(p.grad().is_none(), "{name} holds a gradient after encoding");
    }
}
