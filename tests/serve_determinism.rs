//! Deterministic-serving acceptance test: replaying a fixed request
//! script must yield bit-identical embeddings per request and identical
//! traced event counts across micro-batch geometries (`max_batch`).
//!
//! Why this holds (see `DESIGN.md` §9): embeddings are batch-invariant
//! at the model layer, the serving worker replays cache operations in
//! FIFO submission order, and the only per-request trace event is the
//! `serve.request` span — batch geometry surfaces through counters and
//! histograms, which emit events only at `flush_metrics`, whose cost is
//! fixed by the closed registry.

use std::sync::Arc;

use preqr::{PreqrConfig, SqlBert, ValueBuckets};
use preqr_obs as obs;
use preqr_obs::{EventKind, HistMetric, Metric};
use preqr_schema::{Column, ColumnType, Schema, Table};
use preqr_serve::{ServeConfig, Service};
use preqr_sql::parser::parse;

/// Fixed request script: template repeats, literal variants, a malformed
/// line, and distinct join shapes.
const SCRIPT: [&str; 10] = [
    "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990",
    "SELECT COUNT(*) FROM title t WHERE t.production_year > 2005",
    "SELECT * FROM title t WHERE t.kind_id IN (1, 3)",
    "definitely not sql",
    "SELECT COUNT(*) FROM title t WHERE t.production_year > 1975",
    "SELECT * FROM title t WHERE t.kind_id IN (2, 6)",
    "SELECT MIN(t.id) FROM title t WHERE t.production_year BETWEEN 1990 AND 2000",
    "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990",
    "SELECT * FROM title t WHERE t.kind_id IN (1, 3)",
    "SELECT MIN(t.id) FROM title t WHERE t.production_year BETWEEN 1950 AND 1960",
];

fn serve_model() -> SqlBert {
    let mut s = Schema::new();
    s.add_table(Table::new(
        "title",
        vec![
            Column::primary("id", ColumnType::Int),
            Column::new("production_year", ColumnType::Int),
            Column::new("kind_id", ColumnType::Int),
        ],
    ));
    let corpus: Vec<_> = [
        "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990",
        "SELECT * FROM title t WHERE t.kind_id IN (1, 3, 5)",
        "SELECT MIN(t.id) FROM title t WHERE t.production_year BETWEEN 1990 AND 2000",
    ]
    .iter()
    .map(|q| parse(q).unwrap())
    .collect();
    let mut buckets = ValueBuckets::new(4);
    buckets.insert("title", "production_year", (1930..2020).map(f64::from).collect());
    buckets.insert("title", "kind_id", (1..8).map(f64::from).collect());
    SqlBert::new(&corpus, &s, buckets, PreqrConfig::test())
}

struct Replay {
    /// Per-request CLS bit patterns (`None` for the malformed request).
    outputs: Vec<Option<Vec<u32>>>,
    /// Full traced event stream of the run.
    events: Vec<obs::Event>,
    /// Serving counters from the metric registry.
    serve_counters: Vec<(&'static str, u64)>,
}

/// Replays `SCRIPT` through a fresh traced service under the given batch
/// geometry.
fn replay(max_batch: usize) -> Replay {
    let sink = Arc::new(obs::TestSink::new());
    obs::reset_metrics();
    obs::install_sink(sink.clone());

    let config = ServeConfig {
        max_batch,
        queue_capacity: SCRIPT.len() + 1, // the whole script fits: no rejections
        cache_capacity: 4,
        ..ServeConfig::default()
    };
    let svc = Service::spawn(config, |_| serve_model());
    let tickets: Vec<_> = SCRIPT.iter().map(|sql| svc.submit(sql).unwrap()).collect();
    let stats = svc.shutdown();
    assert_eq!(stats.processed, SCRIPT.len() as u64);
    let outputs = tickets
        .into_iter()
        .map(|t| t.wait().ok().map(|e| e.matrix.data().iter().map(|x| x.to_bits()).collect()))
        .collect();

    obs::flush_metrics();
    obs::clear_sink();
    let snap = obs::snapshot();
    obs::set_metrics_enabled(false);
    obs::reset_metrics();

    let serve_counters = Metric::ALL
        .iter()
        .map(|m| m.name())
        .filter(|n| n.starts_with("serve.") && *n != "serve.batches")
        .map(|n| (n, snap.counter(n).unwrap()))
        .collect();
    Replay { outputs, events: sink.events(), serve_counters }
}

#[test]
fn fixed_script_replays_identically_across_batching() {
    let base = replay(1);

    // The baseline itself: every parseable request answered, one span per
    // processed request, and the flush emits the full fixed registry.
    assert_eq!(base.outputs.iter().filter(|o| o.is_none()).count(), 1);
    let span_names: Vec<&str> =
        base.events.iter().filter(|e| e.kind == EventKind::Span).map(|e| e.name).collect();
    assert_eq!(span_names, vec!["serve.request"; SCRIPT.len()]);
    assert_eq!(
        base.events.len(),
        SCRIPT.len() + Metric::ALL.len() + HistMetric::ALL.len(),
        "event stream = one span per request + one fixed-registry flush"
    );

    let max_batch = 16;
    let run = replay(max_batch);
    assert_eq!(run.outputs, base.outputs, "embeddings diverged at max_batch={max_batch}");
    assert_eq!(
        run.events.len(),
        base.events.len(),
        "event count diverged at max_batch={max_batch}"
    );
    let kinds = |evs: &[obs::Event]| {
        let count = |k: EventKind| evs.iter().filter(|e| e.kind == k).count();
        (count(EventKind::Span), count(EventKind::Counter), count(EventKind::Hist))
    };
    assert_eq!(
        kinds(&run.events),
        kinds(&base.events),
        "event kinds diverged at max_batch={max_batch}"
    );
    assert_eq!(
        run.serve_counters, base.serve_counters,
        "serving counters diverged at max_batch={max_batch}"
    );

    // The cache did real work on this script (three repeated templates).
    let hits = base.serve_counters.iter().find(|(n, _)| *n == "serve.cache.hits").unwrap().1;
    assert!(hits >= 3, "script has repeated templates; got {hits} hits");
}
