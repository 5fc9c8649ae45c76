//! Fixed-registry monotonic counters and histogram summaries.
//!
//! The metric namespace is a closed enum rather than an open string
//! registry: every counter and histogram exists from process start, is
//! addressed by a compile-time index (one relaxed atomic op on the hot
//! path, no hashing), and is always present in snapshots and flushes —
//! including zero-valued ones. That last property is what makes flush
//! event counts *exactly* deterministic regardless of which code paths
//! ran (e.g. a run whose trace sink never fails never touches
//! `obs.sink.degraded`, but the counter still appears in every flush).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Monotonic counters, in stable flush order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// `Matrix::matmul` family entry calls (all variants).
    NnMatmulCalls,
    /// Weight operands packed into microkernel panels (`pack_b_panels`,
    /// `pack_bt_panels`); a parameter's cached forward panels count once
    /// per write, not once per call.
    NnMatmulPacks,
    /// Tokens masked for the MLM objective.
    PretrainMaskedTokens,
    /// Masked tokens the model predicted correctly.
    PretrainCorrectTokens,
    /// Trainer runs started (`preqr-train`, any workload).
    TrainRuns,
    /// Trainer epochs completed (any workload).
    TrainEpochs,
    /// Trainer optimizer steps taken (any workload).
    TrainSteps,
    /// Examples consumed by trainer runs (any workload).
    TrainSamples,
    /// Trainer runs ended by validation early stopping.
    TrainEarlyStops,
    /// Queries executed by the engine.
    EngineQueries,
    /// Base-table rows scanned by the engine (pre-filter).
    EngineRowsScanned,
    /// Executions aborted by the intermediate-size safety cap.
    EngineCapHits,
    /// Executions that failed for any other reason.
    EngineErrors,
    /// Requests accepted into the serving queue.
    ServeRequests,
    /// Requests rejected at admission (queue full).
    ServeRejected,
    /// Requests that failed SQL parsing inside the serving worker.
    ServeParseErrors,
    /// Encoder forward passes run by the serving worker (cache misses).
    ServeEncoded,
    /// Serving cache hits (embedding returned without a forward pass).
    ServeCacheHits,
    /// Serving cache misses.
    ServeCacheMisses,
    /// Serving cache evictions (LRU capacity pressure).
    ServeCacheEvictions,
    /// Micro-batches drained by the serving collector.
    ServeBatches,
    /// Serving worker shards that died by panic (isolation events).
    ServeShardPanics,
    /// Trace sinks that failed and degraded to no-op.
    ObsSinkDegraded,
}

impl Metric {
    /// Every counter, in flush order.
    pub const ALL: [Metric; 23] = [
        Metric::NnMatmulCalls,
        Metric::NnMatmulPacks,
        Metric::PretrainMaskedTokens,
        Metric::PretrainCorrectTokens,
        Metric::TrainRuns,
        Metric::TrainEpochs,
        Metric::TrainSteps,
        Metric::TrainSamples,
        Metric::TrainEarlyStops,
        Metric::EngineQueries,
        Metric::EngineRowsScanned,
        Metric::EngineCapHits,
        Metric::EngineErrors,
        Metric::ServeRequests,
        Metric::ServeRejected,
        Metric::ServeParseErrors,
        Metric::ServeEncoded,
        Metric::ServeCacheHits,
        Metric::ServeCacheMisses,
        Metric::ServeCacheEvictions,
        Metric::ServeBatches,
        Metric::ServeShardPanics,
        Metric::ObsSinkDegraded,
    ];

    /// Stable dotted event name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::NnMatmulCalls => "nn.matmul.calls",
            Metric::NnMatmulPacks => "nn.matmul.packs",
            Metric::PretrainMaskedTokens => "pretrain.masked_tokens",
            Metric::PretrainCorrectTokens => "pretrain.correct_tokens",
            Metric::TrainRuns => "train.runs",
            Metric::TrainEpochs => "train.epochs",
            Metric::TrainSteps => "train.steps",
            Metric::TrainSamples => "train.samples",
            Metric::TrainEarlyStops => "train.early_stops",
            Metric::EngineQueries => "engine.queries",
            Metric::EngineRowsScanned => "engine.rows_scanned",
            Metric::EngineCapHits => "engine.cap_hits",
            Metric::EngineErrors => "engine.errors",
            Metric::ServeRequests => "serve.requests",
            Metric::ServeRejected => "serve.rejected",
            Metric::ServeParseErrors => "serve.parse_errors",
            Metric::ServeEncoded => "serve.encoded",
            Metric::ServeCacheHits => "serve.cache.hits",
            Metric::ServeCacheMisses => "serve.cache.misses",
            Metric::ServeCacheEvictions => "serve.cache.evictions",
            Metric::ServeBatches => "serve.batches",
            Metric::ServeShardPanics => "serve.shard.panics",
            Metric::ObsSinkDegraded => "obs.sink.degraded",
        }
    }
}

/// Histogram-summarized value streams, in stable flush order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum HistMetric {
    /// Wall-clock microseconds per `Matrix::matmul` family call.
    NnMatmulUs,
    /// Mean loss per trainer epoch (any workload).
    TrainEpochLoss,
    /// Epoch-end validation metric per trainer epoch (any workload).
    TrainValMetric,
    /// Pre-aggregation join cardinality per executed query.
    EngineJoinCard,
    /// Requests per drained serving micro-batch.
    ServeBatchSize,
    /// Queue depth observed at each serving batch collection.
    ServeQueueDepth,
    /// Wall-clock microseconds per serving encoder forward (batched or
    /// solo).
    ServeEncodeUs,
}

impl HistMetric {
    /// Every histogram, in flush order.
    pub const ALL: [HistMetric; 7] = [
        HistMetric::NnMatmulUs,
        HistMetric::TrainEpochLoss,
        HistMetric::TrainValMetric,
        HistMetric::EngineJoinCard,
        HistMetric::ServeBatchSize,
        HistMetric::ServeQueueDepth,
        HistMetric::ServeEncodeUs,
    ];

    /// Stable dotted event name.
    pub fn name(self) -> &'static str {
        match self {
            HistMetric::NnMatmulUs => "nn.matmul_us",
            HistMetric::TrainEpochLoss => "train.epoch_loss",
            HistMetric::TrainValMetric => "train.val_metric",
            HistMetric::EngineJoinCard => "engine.join_cardinality",
            HistMetric::ServeBatchSize => "serve.batch_size",
            HistMetric::ServeQueueDepth => "serve.queue_depth",
            HistMetric::ServeEncodeUs => "serve.encode_us",
        }
    }
}

const N_COUNTERS: usize = Metric::ALL.len();
const N_HISTS: usize = HistMetric::ALL.len();

/// Reservoir cap per histogram: percentiles come from the first
/// `HIST_CAP` observations; `count`/`sum`/`max` cover every observation.
pub const HIST_CAP: usize = 1 << 16;

static COUNTERS: [AtomicU64; N_COUNTERS] = [const { AtomicU64::new(0) }; N_COUNTERS];

struct HistState {
    values: Vec<f64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl HistState {
    const fn new() -> Self {
        HistState { values: Vec::new(), count: 0, sum: 0.0, max: f64::NEG_INFINITY }
    }
}

static HISTS: [Mutex<HistState>; N_HISTS] = [const { Mutex::new(HistState::new()) }; N_HISTS];

pub(crate) fn counter_add_raw(m: Metric, delta: u64) {
    COUNTERS[m as usize].fetch_add(delta, Ordering::Relaxed);
}

pub(crate) fn counter_get_raw(m: Metric) -> u64 {
    COUNTERS[m as usize].load(Ordering::Relaxed)
}

pub(crate) fn hist_record_raw(h: HistMetric, v: f64) {
    let mut st = HISTS[h as usize].lock().unwrap_or_else(|e| e.into_inner());
    st.count += 1;
    st.sum += v;
    if v > st.max {
        st.max = v;
    }
    if st.values.len() < HIST_CAP {
        st.values.push(v);
    }
}

pub(crate) fn reset_raw() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for h in &HISTS {
        let mut st = h.lock().unwrap_or_else(|e| e.into_inner());
        *st = HistState::new();
    }
}

/// Point-in-time summary of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSummary {
    /// Metric name.
    pub name: &'static str,
    /// Total observations (beyond the percentile reservoir too).
    pub count: u64,
    /// Median of the reservoir (0 when empty).
    pub p50: f64,
    /// 95th percentile of the reservoir (0 when empty).
    pub p95: f64,
    /// Maximum over all observations (0 when empty).
    pub max: f64,
    /// Sum over all observations.
    pub sum: f64,
}

/// Deterministic snapshot of every counter and histogram, in registry
/// order, zero-valued entries included.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// `(name, total)` for every counter.
    pub counters: Vec<(&'static str, u64)>,
    /// Summary for every histogram.
    pub hists: Vec<HistSummary>,
}

impl Snapshot {
    /// Looks up a counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram summary by name.
    pub fn hist(&self, name: &str) -> Option<&HistSummary> {
        self.hists.iter().find(|h| h.name == name)
    }
}

/// Nearest-rank percentile of a sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub(crate) fn summarize(h: HistMetric) -> HistSummary {
    let st = HISTS[h as usize].lock().unwrap_or_else(|e| e.into_inner());
    let mut sorted = st.values.clone();
    let (count, sum, max) = (st.count, st.sum, st.max);
    drop(st);
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    HistSummary {
        name: h.name(),
        count,
        p50: percentile(&sorted, 50.0),
        p95: percentile(&sorted, 95.0),
        max: if count == 0 { 0.0 } else { max },
        sum,
    }
}

pub(crate) fn snapshot_raw() -> Snapshot {
    Snapshot {
        counters: Metric::ALL.iter().map(|&m| (m.name(), counter_get_raw(m))).collect(),
        hists: HistMetric::ALL.iter().map(|&h| summarize(h)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_dotted() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.extend(HistMetric::ALL.iter().map(|h| h.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
        assert!(names.iter().all(|n| n.contains('.')));
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }
}
