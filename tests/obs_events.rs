//! Exact event-count tests for the observability layer.
//!
//! The determinism contract (see `preqr-obs` docs): spans sit at
//! deterministic program points and `flush_metrics` always emits the
//! full fixed registry, so the number of events a traced run emits is an
//! exact function of the work done — never of thread interleaving. These
//! tests pin that down across worker-pool widths (the CI thread matrix
//! re-runs the whole binary under `PREQR_THREADS=1,2,8`).

use std::sync::{Arc, Mutex, MutexGuard};

use preqr::{PreqrConfig, SqlBert};
use preqr_data::imdb::{generate, ImdbConfig};
use preqr_data::workloads;
use preqr_engine::execute;
use preqr_nn::parallel;
use preqr_obs as obs;
use preqr_obs::{EventKind, HistMetric, Metric};
use preqr_tasks::setup::value_buckets_from_db;

/// Obs state is process-global; tests in this binary serialize on it.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

const EPOCHS: usize = 2;

/// Runs a tiny traced pretrain under `threads` workers; returns the
/// emitted events, the final metric snapshot, and the loss trajectory.
fn traced_pretrain(threads: usize) -> (Vec<obs::Event>, obs::Snapshot, Vec<f64>) {
    parallel::set_thread_override(Some(threads));
    let sink = Arc::new(obs::TestSink::new());
    obs::reset_metrics();
    obs::install_sink(sink.clone());

    let db = generate(ImdbConfig::tiny());
    let corpus = workloads::pretrain_corpus(&db, 24, 7);
    let buckets = value_buckets_from_db(&db, 8);
    let mut m = SqlBert::new(&corpus, db.schema(), buckets, PreqrConfig::test());
    let stats = m.pretrain(&corpus, EPOCHS, 1e-3);

    obs::clear_sink();
    let snap = obs::snapshot();
    obs::set_metrics_enabled(false);
    obs::reset_metrics();
    parallel::set_thread_override(None);
    (sink.events(), snap, stats.into_iter().map(|s| s.loss).collect())
}

#[test]
fn traced_pretrain_event_stream_is_exact_and_thread_invariant() {
    let _g = lock();
    let widths = [1usize, 2, 8];
    let runs: Vec<_> = widths.iter().map(|&t| traced_pretrain(t)).collect();

    // `pretrain` emits one run span, one span per epoch, then flushes the
    // full registry: this count is exact, for every pool width.
    let expected = 1 + EPOCHS + Metric::ALL.len() + HistMetric::ALL.len();
    for ((events, _, _), &t) in runs.iter().zip(&widths) {
        assert_eq!(events.len(), expected, "event count at {t} threads");
        let spans = events.iter().filter(|e| e.kind == EventKind::Span).count();
        assert_eq!(spans, 1 + EPOCHS, "span count at {t} threads");
        assert_eq!(
            events.iter().filter(|e| e.kind == EventKind::Counter).count(),
            Metric::ALL.len()
        );
        assert_eq!(
            events.iter().filter(|e| e.kind == EventKind::Hist).count(),
            HistMetric::ALL.len()
        );
        // Span order is the program order: the shared Trainer emits one
        // `train.epoch` span per epoch and closes `train.run` after them.
        let span_names: Vec<&str> =
            events.iter().filter(|e| e.kind == EventKind::Span).map(|e| e.name).collect();
        assert_eq!(span_names, ["train.epoch", "train.epoch", "train.run"]);
    }

    // Work metrics are thread-count-invariant. The serial/pool dispatch
    // *split* legitimately varies with width, but the total does not.
    let (_, base, base_losses) = &runs[0];
    for ((_, snap, losses), &t) in runs.iter().zip(&widths).skip(1) {
        assert_eq!(losses, base_losses, "loss trajectory diverged at {t} threads");
        for name in [
            "pretrain.masked_tokens",
            "pretrain.correct_tokens",
            "train.runs",
            "train.epochs",
            "train.steps",
            "train.samples",
            "nn.matmul.calls",
            "nn.matmul.packs",
        ] {
            assert_eq!(snap.counter(name), base.counter(name), "{name} at {t} threads");
        }
        let dispatch = |s: &obs::Snapshot| {
            s.counter("nn.dispatch.inline").unwrap() + s.counter("nn.dispatch.pool").unwrap()
        };
        assert_eq!(dispatch(snap), dispatch(base), "total dispatches at {t} threads");
        let mm = |s: &obs::Snapshot| s.hist("nn.matmul_us").unwrap().count;
        assert_eq!(mm(snap), mm(base), "matmul timer count at {t} threads");
    }
    let (_, snap, _) = &runs[0];
    assert_eq!(snap.counter("train.runs"), Some(1));
    assert_eq!(snap.counter("train.epochs"), Some(EPOCHS as u64));
    assert_eq!(snap.hist("train.epoch_loss").unwrap().count, EPOCHS as u64);
    assert!(snap.counter("train.samples").unwrap() > 0);
    assert!(snap.counter("nn.matmul.calls").unwrap() > 0);
}

/// Runs a tiny traced MSCN fine-tune under `threads` workers; returns
/// the emitted events and the final metric snapshot.
fn traced_finetune(threads: usize) -> (Vec<obs::Event>, obs::Snapshot) {
    parallel::set_thread_override(Some(threads));
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
    parallel::set_thread_override(None);
    (sink.events(), snap)
}

const FT_EPOCHS: usize = 2;

#[test]
fn traced_finetune_event_stream_is_exact_and_thread_invariant() {
    let _g = lock();
    let widths = [1usize, 2, 8];
    let runs: Vec<_> = widths.iter().map(|&t| traced_finetune(t)).collect();

    // Per epoch one `train.epoch` span, then the Trainer's `train.run`,
    // then the fine-tuner's own `est.train` wrapper span, then the full
    // registry flush. (2 epochs never trip patience-3 early stopping, so
    // the count is exact.)
    let expected = FT_EPOCHS + 2 + Metric::ALL.len() + HistMetric::ALL.len();
    let (base_events, base) = &runs[0];
    for ((events, snap), &t) in runs.iter().zip(&widths) {
        assert_eq!(events.len(), expected, "event count at {t} threads");
        let span_names: Vec<&str> =
            events.iter().filter(|e| e.kind == EventKind::Span).map(|e| e.name).collect();
        assert_eq!(span_names, ["train.epoch", "train.epoch", "train.run", "est.train"]);
        assert_eq!(snap.counter("train.runs"), Some(1), "train.runs at {t} threads");
        assert_eq!(
            snap.counter("train.epochs"),
            Some(FT_EPOCHS as u64),
            "train.epochs at {t} threads"
        );
        assert_eq!(
            snap.hist("train.val_metric").unwrap().count,
            FT_EPOCHS as u64,
            "one validation q-error per epoch at {t} threads"
        );
        for name in ["train.steps", "train.samples"] {
            assert_eq!(snap.counter(name), base.counter(name), "{name} at {t} threads");
        }
        assert_eq!(events.len(), base_events.len(), "event stream length at {t} threads");
    }
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
