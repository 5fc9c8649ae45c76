//! `preqr-obs` — zero-dependency, deterministic tracing/metrics layer.
//!
//! # Design
//!
//! Three primitives, one global pipeline:
//!
//! * **Spans** ([`span`]) — RAII wall-clock timers emitted as events at
//!   deterministic program points (epoch boundaries, training runs,
//!   bench phases). Durations are payload, never identity, so two runs
//!   emit the same event *stream shape* regardless of timing.
//! * **Counters** ([`counter_add`]) — monotonic, fixed-registry
//!   ([`Metric`]), lock-free. Aggregated in memory; written out only at
//!   [`flush_metrics`] points, so hot kernels never touch the sink.
//! * **Histograms** ([`record_hist`]) — per-value streams summarized as
//!   `count/p50/p95/max/sum` ([`HistMetric`]).
//!
//! Events flow to one pluggable [`Sink`]: a JSONL file when the
//! `PREQR_TRACE` environment variable names a path ([`init_from_env`]),
//! an in-memory [`TestSink`] installed by tests, or — the default —
//! nothing, at a cost of one relaxed atomic load per call site.
//!
//! # Determinism contract
//!
//! [`flush_metrics`] always emits one `counter` event per [`Metric`] and
//! one `hist` event per [`HistMetric`] — zero-valued ones included — in
//! registry order. Combined with spans sitting at deterministic program
//! points, the number of events a traced program emits is an exact
//! function of the work it did, never of thread interleaving or timing.
//! Tests therefore assert *exact* event counts; observability doubles as
//! a correctness oracle (see `tests/obs_events.rs` at the workspace
//! root).
//!
//! # Failure behavior
//!
//! A sink whose `record` fails is uninstalled on the spot: the layer
//! degrades to no-op, exactly one warning event is retained (retrieve
//! with [`take_warnings`]), the [`Metric::ObsSinkDegraded`] counter is
//! bumped, and the traced computation proceeds untouched.

#![warn(missing_docs)]

mod event;
mod metrics;
mod sink;

pub use event::{Event, EventKind, FieldValue};
pub use metrics::{HistMetric, HistSummary, Metric, Snapshot, HIST_CAP};
pub use sink::{JsonlSink, Sink, SinkError, TestSink};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::Instant;

/// Fast gate for the sink path: true iff a sink is installed.
static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Fast gate for metric aggregation.
static METRICS_ACTIVE: AtomicBool = AtomicBool::new(false);

static ENV_INIT: Once = Once::new();

fn sink_slot() -> &'static Mutex<Option<Arc<dyn Sink>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<dyn Sink>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn warning_slot() -> &'static Mutex<Vec<Event>> {
    static SLOT: OnceLock<Mutex<Vec<Event>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(Vec::new()))
}

/// Installs `sink` as the global event destination and enables metric
/// aggregation (a sink without metrics would flush empty registries).
pub fn install_sink(sink: Arc<dyn Sink>) {
    let mut slot = sink_slot().lock().unwrap_or_else(|e| e.into_inner());
    *slot = Some(sink);
    SINK_ACTIVE.store(true, Ordering::Release);
    METRICS_ACTIVE.store(true, Ordering::Release);
}

/// Uninstalls the sink (metric aggregation keeps its current setting).
pub fn clear_sink() {
    let mut slot = sink_slot().lock().unwrap_or_else(|e| e.into_inner());
    *slot = None;
    SINK_ACTIVE.store(false, Ordering::Release);
}

/// True iff events currently reach a sink.
pub fn tracing_active() -> bool {
    SINK_ACTIVE.load(Ordering::Acquire)
}

/// Turns metric aggregation on or off independently of any sink (bench
/// harnesses aggregate without tracing).
pub fn set_metrics_enabled(on: bool) {
    METRICS_ACTIVE.store(on, Ordering::Release);
}

/// True iff counters/histograms are aggregating.
pub fn metrics_enabled() -> bool {
    METRICS_ACTIVE.load(Ordering::Relaxed)
}

/// One-time `PREQR_TRACE` initialization: when the variable names a
/// path, installs a JSONL file sink there (and enables metrics). Called
/// lazily by [`span`]; binaries may call it eagerly. Unreadable paths
/// degrade to no-op with a retained warning rather than failing the run.
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        let Ok(path) = std::env::var("PREQR_TRACE") else { return };
        if path.is_empty() {
            return;
        }
        match JsonlSink::create(&path) {
            Ok(s) => install_sink(Arc::new(s)),
            Err(e) => {
                let mut w = Event::new(EventKind::Warn, "obs.sink.degraded", 1.0);
                w.fields.push(("error", FieldValue::Str(format!("PREQR_TRACE={path}: {e}"))));
                warning_slot().lock().unwrap_or_else(|p| p.into_inner()).push(w);
            }
        }
    });
}

/// Sends one event to the sink; on sink failure, degrades to no-op and
/// retains a single warning (see the module docs).
fn emit(event: Event) {
    if !tracing_active() {
        return;
    }
    let sink = {
        let slot = sink_slot().lock().unwrap_or_else(|e| e.into_inner());
        slot.clone()
    };
    let Some(sink) = sink else { return };
    if let Err(e) = sink.record(&event) {
        clear_sink();
        counter_add(Metric::ObsSinkDegraded, 1);
        let mut w = Event::new(EventKind::Warn, "obs.sink.degraded", 1.0);
        w.fields.push(("error", FieldValue::Str(e.message)));
        w.fields.push(("dropped", FieldValue::Str(event.name.to_string())));
        warning_slot().lock().unwrap_or_else(|p| p.into_inner()).push(w);
    }
}

/// Drains the retained out-of-band warnings (sink degradations).
pub fn take_warnings() -> Vec<Event> {
    std::mem::take(&mut *warning_slot().lock().unwrap_or_else(|e| e.into_inner()))
}

/// Adds `delta` to a counter (no-op unless metrics are enabled).
#[inline]
pub fn counter_add(m: Metric, delta: u64) {
    if metrics_enabled() {
        metrics::counter_add_raw(m, delta);
    }
}

/// Current counter total (0 while metrics are disabled — reads are
/// always allowed).
pub fn counter_get(m: Metric) -> u64 {
    metrics::counter_get_raw(m)
}

/// Records one histogram observation (no-op unless metrics are enabled).
#[inline]
pub fn record_hist(h: HistMetric, v: f64) {
    if metrics_enabled() {
        metrics::hist_record_raw(h, v);
    }
}

/// Point-in-time summary of one histogram.
pub fn hist_summary(h: HistMetric) -> HistSummary {
    metrics::summarize(h)
}

/// Deterministic snapshot of the full metric registry.
pub fn snapshot() -> Snapshot {
    metrics::snapshot_raw()
}

/// Zeroes every counter and histogram (tests and bench phase boundaries).
pub fn reset_metrics() {
    metrics::reset_raw();
}

/// Emits the full metric registry to the sink — exactly
/// `Metric::ALL.len()` counter events plus `HistMetric::ALL.len()` hist
/// events, in registry order, regardless of which metrics were touched —
/// then flushes the sink. No-op without a sink.
pub fn flush_metrics() {
    if !tracing_active() {
        return;
    }
    for &m in &Metric::ALL {
        emit(Event::new(EventKind::Counter, m.name(), counter_get(m) as f64));
    }
    for &h in &HistMetric::ALL {
        let s = metrics::summarize(h);
        let mut e = Event::new(EventKind::Hist, h.name(), s.count as f64);
        e.fields.push(("p50", FieldValue::F64(s.p50)));
        e.fields.push(("p95", FieldValue::F64(s.p95)));
        e.fields.push(("max", FieldValue::F64(s.max)));
        e.fields.push(("sum", FieldValue::F64(s.sum)));
        emit(e);
    }
    let sink = {
        let slot = sink_slot().lock().unwrap_or_else(|e| e.into_inner());
        slot.clone()
    };
    if let Some(s) = sink {
        if let Err(e) = s.flush() {
            clear_sink();
            counter_add(Metric::ObsSinkDegraded, 1);
            let mut w = Event::new(EventKind::Warn, "obs.sink.degraded", 1.0);
            w.fields.push(("error", FieldValue::Str(e.message)));
            warning_slot().lock().unwrap_or_else(|p| p.into_inner()).push(w);
        }
    }
}

/// An in-flight span. Emits one `span` event with the elapsed wall-clock
/// microseconds when dropped (or [`Span::end`]ed). Inert — no clock
/// read, no allocation — while tracing is inactive.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Span {
    /// Attaches a payload field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.add_field(key, value);
        self
    }

    /// Attaches a payload field to a span already in flight (e.g. a loss
    /// known only at the end of the epoch the span measures).
    pub fn add_field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.start.is_some() {
            self.fields.push((key, value.into()));
        }
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let us = start.elapsed().as_secs_f64() * 1e6;
            emit(Event {
                kind: EventKind::Span,
                name: self.name,
                value: us,
                fields: std::mem::take(&mut self.fields),
            });
        }
    }
}

/// Opens a span. The first span of the process also performs
/// [`init_from_env`], so setting `PREQR_TRACE` is all a binary needs.
pub fn span(name: &'static str) -> Span {
    init_from_env();
    if tracing_active() {
        Span { name, start: Some(Instant::now()), fields: Vec::new() }
    } else {
        Span { name, start: None, fields: Vec::new() }
    }
}

/// RAII histogram timer: records elapsed microseconds into `h` on drop.
/// Inert while metrics are disabled.
#[must_use = "a timer measures the scope it lives in"]
pub struct HistTimer {
    hist: HistMetric,
    start: Option<Instant>,
}

/// Starts a histogram timer (see [`HistTimer`]).
#[inline]
pub fn timer(h: HistMetric) -> HistTimer {
    HistTimer { hist: h, start: metrics_enabled().then(Instant::now) }
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            metrics::hist_record_raw(self.hist, start.elapsed().as_secs_f64() * 1e6);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global obs state is process-wide; tests that touch it serialize.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn fresh(sink: &Arc<TestSink>) {
        reset_metrics();
        take_warnings();
        install_sink(sink.clone() as Arc<dyn Sink>);
        sink.clear();
    }

    #[test]
    fn disabled_paths_are_inert() {
        let _g = lock();
        clear_sink();
        set_metrics_enabled(false);
        reset_metrics();
        counter_add(Metric::EngineQueries, 5);
        record_hist(HistMetric::EngineJoinCard, 1.0);
        let sp = span("x");
        drop(sp);
        assert_eq!(counter_get(Metric::EngineQueries), 0);
        assert_eq!(hist_summary(HistMetric::EngineJoinCard).count, 0);
    }

    #[test]
    fn span_emits_one_event_with_fields() {
        let _g = lock();
        let sink = Arc::new(TestSink::new());
        fresh(&sink);
        let mut sp = span("unit.span").field("k", 7u64);
        sp.add_field("s", "v");
        drop(sp);
        clear_sink();
        let evs = sink.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::Span);
        assert_eq!(evs[0].name, "unit.span");
        assert!(evs[0].value >= 0.0);
        assert_eq!(evs[0].field("k"), Some(&FieldValue::U64(7)));
        assert_eq!(evs[0].field("s"), Some(&FieldValue::Str("v".into())));
    }

    #[test]
    fn flush_always_emits_the_full_registry() {
        let _g = lock();
        let sink = Arc::new(TestSink::new());
        fresh(&sink);
        // Touch only one counter; the flush must still cover everything.
        counter_add(Metric::EngineQueries, 3);
        flush_metrics();
        clear_sink();
        let evs = sink.events();
        assert_eq!(evs.len(), Metric::ALL.len() + HistMetric::ALL.len());
        let q = evs.iter().find(|e| e.name == "engine.queries").unwrap();
        assert_eq!(q.value, 3.0);
        let untouched = evs.iter().find(|e| e.name == "serve.shard.panics").unwrap();
        assert_eq!(untouched.value, 0.0);
    }

    #[test]
    fn hist_summary_has_percentiles() {
        let _g = lock();
        let sink = Arc::new(TestSink::new());
        fresh(&sink);
        for i in 1..=100 {
            record_hist(HistMetric::TrainValMetric, f64::from(i));
        }
        let s = hist_summary(HistMetric::TrainValMetric);
        clear_sink();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 51.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.sum, 5050.0);
    }

    /// Writer that fails after a byte budget.
    struct FailingWriter {
        budget: usize,
    }

    impl std::io::Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.len() > self.budget {
                return Err(std::io::Error::other("disk full"));
            }
            self.budget -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failing_sink_degrades_to_noop_with_one_warning() {
        let _g = lock();
        reset_metrics();
        take_warnings();
        install_sink(Arc::new(JsonlSink::new(FailingWriter { budget: 40 })));
        for _ in 0..10 {
            drop(span("will.fail"));
        }
        assert!(!tracing_active(), "failing sink must uninstall itself");
        let warnings = take_warnings();
        assert_eq!(warnings.len(), 1, "exactly one degradation warning");
        assert_eq!(warnings[0].kind, EventKind::Warn);
        assert_eq!(counter_get(Metric::ObsSinkDegraded), 1);
        set_metrics_enabled(false);
        reset_metrics();
    }

    #[test]
    fn snapshot_covers_full_registry_in_order() {
        let _g = lock();
        let snap = snapshot();
        assert_eq!(snap.counters.len(), Metric::ALL.len());
        assert_eq!(snap.hists.len(), HistMetric::ALL.len());
        assert_eq!(snap.counters[0].0, Metric::ALL[0].name());
        assert!(snap.counter("engine.queries").is_some());
        assert!(snap.hist("nn.matmul_us").is_some());
    }
}
