//! Exact event-count tests for the observability layer.
//!
//! The determinism contract (see `preqr-obs` docs): spans sit at
//! deterministic program points and `flush_metrics` always emits the
//! full fixed registry, so the number of events a traced run emits is an
//! exact function of the work done. These tests pin those counts down.

use std::sync::{Arc, Mutex, MutexGuard};

use preqr::{PreqrConfig, SqlBert};
use preqr_data::imdb::{generate, ImdbConfig};
use preqr_data::workloads;
use preqr_engine::execute;
use preqr_obs as obs;
use preqr_obs::{EventKind, HistMetric, Metric};
use preqr_tasks::setup::value_buckets_from_db;

/// Obs state is process-global; tests in this binary serialize on it.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

const EPOCHS: usize = 2;

/// Runs a tiny traced pretrain; returns the emitted events and the final
/// metric snapshot.
fn traced_pretrain() -> (Vec<obs::Event>, obs::Snapshot) {
    let sink = Arc::new(obs::TestSink::new());
    obs::reset_metrics();
    obs::install_sink(sink.clone());

    let db = generate(ImdbConfig::tiny());
    let corpus = workloads::pretrain_corpus(&db, 24, 7);
    let buckets = value_buckets_from_db(&db, 8);
    let mut m = SqlBert::new(&corpus, db.schema(), buckets, PreqrConfig::test());
    m.pretrain(&corpus, EPOCHS, 1e-3);

    obs::clear_sink();
    let snap = obs::snapshot();
    obs::set_metrics_enabled(false);
    obs::reset_metrics();
    (sink.events(), snap)
}

#[test]
fn traced_pretrain_event_stream_is_exact() {
    let _g = lock();
    let (events, snap) = traced_pretrain();

    // `pretrain` emits one run span, one span per epoch, then flushes the
    // full registry: this count is exact.
    let expected = 1 + EPOCHS + Metric::ALL.len() + HistMetric::ALL.len();
    assert_eq!(events.len(), expected, "event count");
    let spans = events.iter().filter(|e| e.kind == EventKind::Span).count();
    assert_eq!(spans, 1 + EPOCHS, "span count");
    assert_eq!(events.iter().filter(|e| e.kind == EventKind::Counter).count(), Metric::ALL.len());
    assert_eq!(events.iter().filter(|e| e.kind == EventKind::Hist).count(), HistMetric::ALL.len());
    // Span order is the program order: the shared Trainer emits one
    // `train.epoch` span per epoch and closes `train.run` after them.
    let span_names: Vec<&str> =
        events.iter().filter(|e| e.kind == EventKind::Span).map(|e| e.name).collect();
    assert_eq!(span_names, ["train.epoch", "train.epoch", "train.run"]);

    assert_eq!(snap.counter("train.runs"), Some(1));
    assert_eq!(snap.counter("train.epochs"), Some(EPOCHS as u64));
    assert_eq!(snap.hist("train.epoch_loss").unwrap().count, EPOCHS as u64);
    assert!(snap.counter("train.samples").unwrap() > 0);
    assert!(snap.counter("train.steps").unwrap() > 0);
    assert!(snap.counter("pretrain.masked_tokens").unwrap() > 0);
    // Every matmul-family call is timed once.
    let calls = snap.counter("nn.matmul.calls").unwrap();
    assert!(calls > 0);
    assert_eq!(snap.hist("nn.matmul_us").unwrap().count, calls, "one matmul timing per call");
}

/// Runs a tiny traced MSCN fine-tune; returns the emitted events and the
/// final metric snapshot.
fn traced_finetune() -> (Vec<obs::Event>, obs::Snapshot) {
    let sink = Arc::new(obs::TestSink::new());
    obs::reset_metrics();
    obs::install_sink(sink.clone());

    let db = generate(ImdbConfig::tiny());
    let qs = workloads::synthetic(&db, 40, 3);
    let labeled = workloads::label(&db, &qs, &preqr_engine::CostModel::default());
    let (train, valid) = labeled.split_at(32);
    let _pred = preqr_tasks::estimation::train_mscn(
        &db,
        None,
        train,
        valid,
        preqr_tasks::estimation::Target::Cardinality,
        FT_EPOCHS,
        5,
    );
    obs::flush_metrics();

    obs::clear_sink();
    let snap = obs::snapshot();
    obs::set_metrics_enabled(false);
    obs::reset_metrics();
    (sink.events(), snap)
}

const FT_EPOCHS: usize = 2;

#[test]
fn traced_finetune_event_stream_is_exact() {
    let _g = lock();
    let (events, snap) = traced_finetune();

    // Per epoch one `train.epoch` span, then the Trainer's `train.run`,
    // then the fine-tuner's own `est.train` wrapper span, then the full
    // registry flush. (2 epochs never trip patience-3 early stopping, so
    // the count is exact.)
    let expected = FT_EPOCHS + 2 + Metric::ALL.len() + HistMetric::ALL.len();
    assert_eq!(events.len(), expected, "event count");
    let span_names: Vec<&str> =
        events.iter().filter(|e| e.kind == EventKind::Span).map(|e| e.name).collect();
    assert_eq!(span_names, ["train.epoch", "train.epoch", "train.run", "est.train"]);
    assert_eq!(snap.counter("train.runs"), Some(1));
    assert_eq!(snap.counter("train.epochs"), Some(FT_EPOCHS as u64));
    assert_eq!(
        snap.hist("train.val_metric").unwrap().count,
        FT_EPOCHS as u64,
        "one validation q-error per epoch"
    );
    // 32 training examples per epoch.
    assert_eq!(snap.counter("train.samples"), Some(32 * FT_EPOCHS as u64));
    assert!(snap.counter("train.steps").unwrap() > 0);
}

#[test]
fn engine_execution_emits_exact_counts() {
    let _g = lock();
    let sink = Arc::new(obs::TestSink::new());
    obs::reset_metrics();
    obs::install_sink(sink.clone());

    let db = generate(ImdbConfig::tiny());
    let queries = workloads::synthetic(&db, 20, 5);
    let ok = queries.iter().filter(|q| execute(&db, q).is_ok()).count();
    obs::flush_metrics();
    obs::clear_sink();
    let snap = obs::snapshot();
    obs::set_metrics_enabled(false);
    obs::reset_metrics();

    assert_eq!(snap.counter("engine.queries"), Some(queries.len() as u64));
    assert_eq!(snap.hist("engine.join_cardinality").unwrap().count, ok as u64);
    assert_eq!(
        snap.counter("engine.cap_hits").unwrap() + snap.counter("engine.errors").unwrap(),
        (queries.len() - ok) as u64
    );
    assert!(snap.counter("engine.rows_scanned").unwrap() > 0);
    // The flush is the entire event stream here — no spans in the engine.
    assert_eq!(sink.len(), Metric::ALL.len() + HistMetric::ALL.len());
}

#[test]
fn untraced_runs_stay_silent_and_free_of_state() {
    let _g = lock();
    obs::clear_sink();
    obs::set_metrics_enabled(false);
    obs::reset_metrics();

    let db = generate(ImdbConfig::tiny());
    let queries = workloads::synthetic(&db, 5, 5);
    for q in &queries {
        let _ = execute(&db, q);
    }
    let snap = obs::snapshot();
    assert_eq!(snap.counter("engine.queries"), Some(0), "disabled metrics must not aggregate");
    assert!(!obs::tracing_active());
}
