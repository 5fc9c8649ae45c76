//! `preqr-serve`: batched, sharded SQL-embedding inference service.
//!
//! Wraps a [`preqr::SqlBert`] encoder in a synchronous-API service with
//! `shards` internal worker threads:
//!
//! * **Template-affinity sharding** — admission parses and normalizes
//!   each request, then routes it to a shard by a fixed hash of its
//!   template text ([`router`]). One template's cache entry and
//!   counters live on exactly one shard, which is what keeps sharded
//!   serving deterministic (see [`service`]).
//! * **Greedy batching** — each shard's worker sleeps until work is
//!   queued, then drains up to `max_batch` requests at once and serves
//!   them in one FIFO pass, resolving each ticket as soon as it is
//!   served. Batch boundaries never change a response.
//! * **Tape-free encoding** — each cache miss runs one
//!   `SqlBert::encode` under `preqr_nn::no_grad`, skipping autograd
//!   bookkeeping while staying bit-identical to the training-mode eval
//!   forward.
//! * **Template cache** — an exact-counter LRU ([`cache::LruCache`])
//!   keyed on [`preqr_sql::normalize::template_text`], split into
//!   per-shard slices, so queries differing only in
//!   literals/whitespace/case share one embedding.
//! * **Admission control and isolation** — each shard's bounded queue
//!   slice rejects overload with [`ServeError::Rejected`] backpressure;
//!   a panicking shard fails only its own requests; shutdown stops
//!   admission on all shards atomically and drains every accepted
//!   request before the workers exit.
//!
//! See `DESIGN.md` §9 for the determinism and failure contracts, and
//! [`service`] for the per-module details.
//!
//! # Quickstart
//!
//! ```no_run
//! use preqr_serve::{ServeConfig, Service};
//! # fn build_model() -> preqr::SqlBert { unimplemented!() }
//!
//! let config = ServeConfig { shards: 4, ..ServeConfig::default() };
//! let service = Service::spawn(config, |_shard| build_model());
//! let embedding = service.encode_blocking("SELECT a FROM t WHERE b > 7").unwrap();
//! println!("CLS dim = {}", embedding.cls().len());
//! let stats = service.shutdown();
//! assert_eq!(stats.processed, stats.accepted);
//! ```

pub mod cache;
pub mod config;
pub mod router;
pub mod service;
mod shard;

pub use cache::{CacheCounters, LruCache};
pub use config::ServeConfig;
pub use router::{affinity_hash, route};
pub use service::{Embedding, RejectReason, ServeError, ServeResult, ServeStats, Service, Ticket};
pub use shard::ShardStats;
