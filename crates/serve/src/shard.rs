//! One worker shard: a bounded queue, a greedy batch collector, and a
//! slice of the template cache, all owned by a dedicated thread.
//!
//! The sharded service is N copies of the original single-worker
//! pipeline glued together by [`crate::router`]: admission parses and
//! normalizes the request, routes it by template hash, and the owning
//! shard drains whatever is queued (up to `max_batch`) and serves it in
//! one FIFO pass. Shards share nothing mutable — each has its own queue
//! mutex, condvar, cache slice, and counters — so a panic, a stall, or
//! queue pressure on one shard never touches another.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use preqr::SqlBert;
use preqr_nn::Matrix;
use preqr_obs as obs;
use preqr_sql::ast::Query;

use crate::cache::LruCache;
use crate::config::ServeConfig;
use crate::service::{resolve, Embedding, ServeError, TicketState};

/// What admission resolved for a request before routing it.
///
/// Parsing and template normalization happen once, on the submitting
/// thread — the router needs the template anyway, and shipping the
/// parsed payload means the shard never re-lexes the SQL.
pub(crate) enum Payload {
    /// Parsed fine; the shard serves it from its cache slice or encoder.
    Query { query: Box<Query>, template: String },
    /// Failed to parse. The shard still resolves it in FIFO position —
    /// parse diagnostics count as processed work, exactly as in
    /// unsharded serving.
    Malformed { position: usize, message: String },
}

pub(crate) struct Pending {
    pub(crate) payload: Payload,
    pub(crate) ticket: Arc<TicketState>,
}

#[derive(Default)]
pub(crate) struct QueueState {
    pub(crate) items: VecDeque<Pending>,
    pub(crate) draining: bool,
    pub(crate) poisoned: bool,
}

/// One shard's cross-thread state. Everything here is per-shard: two
/// shards never contend on a lock.
pub(crate) struct ShardState {
    pub(crate) queue: Mutex<QueueState>,
    pub(crate) cv: Condvar,
}

impl ShardState {
    pub(crate) fn new() -> ShardState {
        ShardState { queue: Mutex::new(QueueState::default()), cv: Condvar::new() }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Per-shard statistics, returned by
/// [`crate::Service::shutdown_detailed`]. Field meanings match the
/// aggregate [`crate::ServeStats`]; summing any counter over all shards
/// yields the aggregate value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// This shard's index in `0..config.shards`.
    pub shard: usize,
    /// Requests this shard resolved (ok or malformed).
    pub processed: u64,
    /// Requests that failed SQL parsing.
    pub parse_errors: u64,
    /// Batches this shard drained.
    pub batches: u64,
    /// Encoder forward passes this shard ran.
    pub encoded: u64,
    /// Hits in this shard's cache slice.
    pub cache_hits: u64,
    /// Misses in this shard's cache slice.
    pub cache_misses: u64,
    /// Evictions from this shard's cache slice.
    pub cache_evictions: u64,
    /// True when this shard's worker panicked instead of draining; its
    /// other counters are then zero (lost with the thread).
    pub panicked: bool,
}

/// Resolves this shard's queued tickets with `WorkerFailed` if its
/// worker unwinds, and poisons only this shard — siblings keep serving.
struct PanicGuard<'a> {
    shard: &'a ShardState,
    armed: bool,
}

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        obs::counter_add(obs::Metric::ServeShardPanics, 1);
        let mut q = self.shard.lock();
        q.poisoned = true;
        for p in q.items.drain(..) {
            resolve(&p.ticket, Err(ServeError::WorkerFailed));
        }
    }
}

/// The shard worker loop: build a model replica, then drain and serve
/// batches until the service shuts down.
pub(crate) fn worker_main<F: Fn(usize) -> SqlBert>(
    shard: &ShardState,
    idx: usize,
    config: &ServeConfig,
    factory: &F,
) -> ShardStats {
    let mut guard = PanicGuard { shard, armed: true };
    let model = factory(idx);
    // Cache-off is no cache at all: no counted lookups, counters (0, 0, 0).
    let capacity = config.shard_cache_capacity();
    let mut cache = (capacity > 0).then(|| LruCache::<Matrix>::new(capacity));
    let mut stats = ShardStats { shard: idx, ..ShardStats::default() };
    while let Some(batch) = collect_batch(shard, config) {
        stats.batches += 1;
        obs::counter_add(obs::Metric::ServeBatches, 1);
        obs::record_hist(obs::HistMetric::ServeBatchSize, batch.len() as f64);
        serve_batch(&model, cache.as_mut(), batch, idx, &mut stats);
    }
    let c = cache.map(|c| c.counters()).unwrap_or_default();
    stats.cache_hits = c.hits;
    stats.cache_misses = c.misses;
    stats.cache_evictions = c.evictions;
    guard.armed = false;
    stats
}

/// Blocks until this shard has queued work, then drains up to
/// `max_batch` requests at once; `None` once the service is draining and
/// this shard's queue is empty (worker exit).
fn collect_batch(shard: &ShardState, config: &ServeConfig) -> Option<Vec<Pending>> {
    let mut q = shard.lock();
    while q.items.is_empty() {
        if q.draining {
            return None;
        }
        q = shard.cv.wait(q).unwrap_or_else(|e| e.into_inner());
    }
    obs::record_hist(obs::HistMetric::ServeQueueDepth, q.items.len() as f64);
    let n = q.items.len().min(config.max_batch);
    Some(q.items.drain(..n).collect())
}

/// Serves one drained batch in this shard's FIFO order, resolving each
/// ticket as soon as its request is served.
///
/// Each parseable request runs the exact lookup → encode → insert
/// sequence a batch-of-one service would, so counters, recency order and
/// embeddings never depend on `max_batch`. Because routing is by
/// template, a template's entire counted-operation sequence lives on one
/// shard, in that shard's submission order.
fn serve_batch(
    model: &SqlBert,
    mut cache: Option<&mut LruCache<Matrix>>,
    batch: Vec<Pending>,
    shard_idx: usize,
    stats: &mut ShardStats,
) {
    for p in batch {
        let mut span = obs::span("serve.request");
        span.add_field("shard", shard_idx as u64);
        stats.processed += 1;
        let result = match p.payload {
            Payload::Malformed { position, message } => {
                span.add_field("outcome", "parse_error");
                stats.parse_errors += 1;
                obs::counter_add(obs::Metric::ServeParseErrors, 1);
                Err(ServeError::Malformed { position, message })
            }
            Payload::Query { query, template } => {
                span.add_field("outcome", "ok");
                let e = serve_query(model, cache.as_deref_mut(), &query, template, stats);
                span.add_field("cached", u64::from(e.cache_hit));
                Ok(e)
            }
        };
        resolve(&p.ticket, result);
        span.end();
    }
}

/// One parseable request: a counted lookup in the cache slice (none with
/// the cache off), and on a miss a forward whose result is inserted.
fn serve_query(
    model: &SqlBert,
    cache: Option<&mut LruCache<Matrix>>,
    query: &Query,
    template: String,
    stats: &mut ShardStats,
) -> Embedding {
    let Some(cache) = cache else {
        return Embedding { matrix: encode(model, query, stats), cache_hit: false };
    };
    if let Some(hit) = cache.get(&template) {
        obs::counter_add(obs::Metric::ServeCacheHits, 1);
        return Embedding { matrix: hit.clone(), cache_hit: true };
    }
    obs::counter_add(obs::Metric::ServeCacheMisses, 1);
    let matrix = encode(model, query, stats);
    if cache.insert(template, matrix.clone()).is_some() {
        obs::counter_add(obs::Metric::ServeCacheEvictions, 1);
    }
    Embedding { matrix, cache_hit: false }
}

/// One tape-free forward, timed and counted.
fn encode(model: &SqlBert, query: &Query, stats: &mut ShardStats) -> Matrix {
    let matrix = {
        let _t = obs::timer(obs::HistMetric::ServeEncodeUs);
        model.encode(query)
    };
    stats.encoded += 1;
    obs::counter_add(obs::Metric::ServeEncoded, 1);
    matrix
}
