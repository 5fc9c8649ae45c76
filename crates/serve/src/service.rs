//! The inference service: parse + route at admission → per-shard bounded
//! queue → greedy batch drain → one FIFO pass over the per-shard template
//! cache slice and the tape-free encoder, on `shards` dedicated worker
//! threads.
//!
//! # Determinism contract
//!
//! Responses are a function of the *submission order* alone, for every
//! shard count:
//!
//! * Embeddings are bit-identical no matter how requests land in
//!   batches, because every shard serves its queue strictly in FIFO
//!   order, one request at a time, and `SqlBert::encode` depends on the
//!   query alone.
//! * Requests are routed by a fixed hash of their normalized template
//!   ([`crate::router`]), so one template's cache entry and counters
//!   live on exactly one shard. Absent capacity pressure (no
//!   evictions), per-template hit/miss counts are therefore identical
//!   across shard counts, and so are embeddings. Under eviction pressure
//!   the shard slices evict independently, so counters may differ, and
//!   so may the embedding a literal-variant hit serves (a hit serves
//!   its template's most recent miss); exact repeats stay bit-identical.
//! * Every processed request emits exactly one `serve.request` span
//!   (carrying its shard index), so traced event counts depend on the
//!   request script, never on `max_batch`, `shards` or timing. Batch and shard geometry surface only through counters
//!   and histograms, whose *flush* cost is fixed by the closed
//!   `preqr-obs` registry.
//!
//! # Failure behavior
//!
//! Malformed SQL resolves that request's ticket with a structured
//! [`ServeError::Malformed`] — the owning shard keeps serving. A
//! panicking shard (e.g. a model factory that dies) poisons *only
//! itself*: its queued tickets resolve with [`ServeError::WorkerFailed`]
//! instead of hanging, later submissions routed to it are refused, and
//! sibling shards keep serving their templates. Shutdown stops admission
//! on every shard atomically — a submission can never observe
//! `QueueFull` after any other submission observed `ShuttingDown` — and
//! then drains each shard: every accepted ticket resolves before
//! [`Service::shutdown`] returns.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use preqr::SqlBert;
use preqr_nn::Matrix;
use preqr_obs as obs;
use preqr_sql::normalize::template_text;
use preqr_sql::parser::parse;

use crate::config::ServeConfig;
use crate::router;
use crate::shard::{self, Payload, Pending, ShardState, ShardStats};

/// Why a submission was refused at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The target shard's bounded queue is at capacity — backpressure,
    /// try again later.
    QueueFull,
}

/// Structured serving failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Refused at admission; the request was never queued.
    Rejected(RejectReason),
    /// The SQL text failed to parse.
    Malformed {
        /// Token index where parsing failed.
        position: usize,
        /// Parser diagnostic.
        message: String,
    },
    /// The service no longer accepts work (shutdown in progress).
    ShuttingDown,
    /// The owning shard's worker thread died; the request cannot be
    /// served (sibling shards are unaffected).
    WorkerFailed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected(RejectReason::QueueFull) => write!(f, "rejected: queue full"),
            ServeError::Malformed { position, message } => {
                write!(f, "malformed SQL at token {position}: {message}")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::WorkerFailed => write!(f, "serving worker failed"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A served embedding.
#[derive(Clone, Debug, PartialEq)]
pub struct Embedding {
    /// The `n_tokens × output_dim` representation matrix.
    pub matrix: Matrix,
    /// Whether the template cache supplied it without a forward pass.
    pub cache_hit: bool,
}

impl Embedding {
    /// The `[CLS]` row — the aggregate query representation.
    pub fn cls(&self) -> &[f32] {
        self.matrix.row(0)
    }
}

/// Outcome of one request.
pub type ServeResult = Result<Embedding, ServeError>;

pub(crate) struct TicketState {
    slot: Mutex<Option<ServeResult>>,
    cv: Condvar,
}

/// Handle to one in-flight request; [`Ticket::wait`] blocks for the
/// response.
pub struct Ticket(Arc<TicketState>);

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let resolved = self.0.slot.lock().unwrap_or_else(|e| e.into_inner()).is_some();
        f.debug_struct("Ticket").field("resolved", &resolved).finish()
    }
}

impl Ticket {
    /// Blocks until the owning shard resolves this request.
    pub fn wait(self) -> ServeResult {
        let mut slot = self.0.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            slot = self.0.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

pub(crate) fn resolve(ticket: &Arc<TicketState>, result: ServeResult) {
    let mut slot = ticket.slot.lock().unwrap_or_else(|e| e.into_inner());
    *slot = Some(result);
    ticket.cv.notify_all();
}

struct Shared {
    shards: Vec<ShardState>,
    accepted: AtomicU64,
    rejected: AtomicU64,
}

/// Aggregate service statistics, returned by [`Service::shutdown`].
/// Worker-side counters are sums over all shards; see
/// [`Service::shutdown_detailed`] for the per-shard breakdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Submissions accepted into a shard queue.
    pub accepted: u64,
    /// Submissions refused with `QueueFull`.
    pub rejected: u64,
    /// Requests the shards resolved (ok or malformed).
    pub processed: u64,
    /// Requests that failed SQL parsing.
    pub parse_errors: u64,
    /// Batches drained across all shards.
    pub batches: u64,
    /// Encoder forward passes actually run.
    pub encoded: u64,
    /// Template-cache hits (all slices).
    pub cache_hits: u64,
    /// Template-cache misses (all slices).
    pub cache_misses: u64,
    /// Template-cache evictions (all slices).
    pub cache_evictions: u64,
    /// How many shard workers panicked instead of draining cleanly.
    pub failed_shards: u64,
    /// True when any shard worker panicked (`failed_shards > 0`).
    pub worker_panicked: bool,
}

/// The batched, sharded SQL-embedding inference service.
///
/// Construction takes a *model factory* rather than a model: `SqlBert`
/// is intentionally `!Send` (its autograd graph is `Rc`-based), so each
/// shard thread builds — or rebuilds from transferred parameter
/// matrices, which are plain `Send` data — its own replica. Model
/// construction is deterministic given the same corpus/schema/config, so
/// every replica encodes bit-identically to the original.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<ShardStats>>,
    config: ServeConfig,
}

impl Service {
    /// Spawns one worker thread per configured shard. `factory` runs
    /// once on each shard thread (receiving the shard index) and must
    /// produce the model replica that shard serves.
    pub fn spawn<F>(config: ServeConfig, factory: F) -> Service
    where
        F: Fn(usize) -> SqlBert + Send + Sync + 'static,
    {
        let config = config.normalized();
        let shared = Arc::new(Shared {
            shards: (0..config.shards).map(|_| ShardState::new()).collect(),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        let factory = Arc::new(factory);
        let workers = (0..config.shards)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let factory = Arc::clone(&factory);
                std::thread::Builder::new()
                    .name(format!("preqr-serve-shard-{i}"))
                    .spawn(move || shard::worker_main(&shared.shards[i], i, &config, &*factory))
                    .expect("spawn serving shard")
            })
            .collect();
        Service { shared, workers, config }
    }

    /// Submits one SQL text for encoding. The request is parsed and
    /// routed here, on the submitting thread: its normalized template
    /// picks the owning shard ([`crate::router::route`]); text that
    /// fails to parse routes by the raw SQL and resolves with the
    /// structured error in FIFO position. Returns a [`Ticket`] on
    /// admission; rejects with `QueueFull` backpressure when the target
    /// shard's bounded queue is at capacity, `ShuttingDown` after a
    /// drain began, or `WorkerFailed` once the owning shard died.
    pub fn submit(&self, sql: &str) -> Result<Ticket, ServeError> {
        let (shard_idx, payload) = match parse(sql) {
            Ok(query) => {
                let template = template_text(&query);
                let idx = router::route(&template, self.config.shards);
                (idx, Payload::Query { query: Box::new(query), template })
            }
            Err(e) => (
                router::route(sql, self.config.shards),
                Payload::Malformed { position: e.position, message: e.message },
            ),
        };
        let shard = &self.shared.shards[shard_idx];
        let mut q = shard.lock();
        // Rejection precedence: poisoned and draining are checked before
        // capacity, under the same lock `shutdown` holds while stopping
        // admission — once any caller has seen `ShuttingDown`, no caller
        // can see `QueueFull`.
        if q.poisoned {
            return Err(ServeError::WorkerFailed);
        }
        if q.draining {
            return Err(ServeError::ShuttingDown);
        }
        if q.items.len() >= self.config.shard_queue_capacity() {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            obs::counter_add(obs::Metric::ServeRejected, 1);
            return Err(ServeError::Rejected(RejectReason::QueueFull));
        }
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        obs::counter_add(obs::Metric::ServeRequests, 1);
        let ticket = Arc::new(TicketState { slot: Mutex::new(None), cv: Condvar::new() });
        q.items.push_back(Pending { payload, ticket: Arc::clone(&ticket) });
        drop(q);
        shard.cv.notify_one();
        Ok(Ticket(ticket))
    }

    /// Convenience: submit and block for the response.
    pub fn encode_blocking(&self, sql: &str) -> ServeResult {
        self.submit(sql)?.wait()
    }

    /// Stops admission on every shard without blocking: subsequent
    /// submissions fail with [`ServeError::ShuttingDown`] while already
    /// accepted work keeps draining. The flags are flipped while holding
    /// every shard lock, so the transition is atomic across shards — no
    /// submission can observe one shard draining and another still
    /// accepting. Idempotent; [`Service::shutdown`] still joins the
    /// workers.
    pub fn begin_drain(&self) {
        {
            let mut guards: Vec<_> = self.shared.shards.iter().map(|s| s.lock()).collect();
            for g in &mut guards {
                g.draining = true;
            }
        }
        for s in &self.shared.shards {
            s.cv.notify_all();
        }
    }

    /// Stops admission on every shard, drains every accepted request,
    /// joins the workers, and returns aggregate statistics. Accepted
    /// work is never dropped: each queued ticket resolves before its
    /// shard exits.
    pub fn shutdown(self) -> ServeStats {
        self.shutdown_detailed().0
    }

    /// Like [`Service::shutdown`], also returning one [`ShardStats`]
    /// per shard (indexed by shard).
    pub fn shutdown_detailed(mut self) -> (ServeStats, Vec<ShardStats>) {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> (ServeStats, Vec<ShardStats>) {
        self.begin_drain();
        let mut stats = ServeStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            ..ServeStats::default()
        };
        let mut per_shard = Vec::with_capacity(self.shared.shards.len());
        for (i, worker) in std::mem::take(&mut self.workers).into_iter().enumerate() {
            match worker.join() {
                Ok(s) => {
                    stats.processed += s.processed;
                    stats.parse_errors += s.parse_errors;
                    stats.batches += s.batches;
                    stats.encoded += s.encoded;
                    stats.cache_hits += s.cache_hits;
                    stats.cache_misses += s.cache_misses;
                    stats.cache_evictions += s.cache_evictions;
                    per_shard.push(s);
                }
                Err(_) => {
                    stats.failed_shards += 1;
                    per_shard.push(ShardStats {
                        shard: i,
                        panicked: true,
                        ..ShardStats::default()
                    });
                }
            }
        }
        stats.worker_panicked = stats.failed_shards > 0;
        (stats, per_shard)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            let _ = self.shutdown_inner();
        }
    }
}
