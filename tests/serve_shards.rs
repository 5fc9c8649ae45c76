//! Sharded-serving acceptance test: replaying a fixed request script
//! must yield bit-identical embeddings, identical per-request cache-hit
//! flags, identical per-template cache counters, and identical traced
//! event counts across shard counts {1, 2, 4, 8}.
//!
//! Why this holds (see `DESIGN.md` §9): embeddings are batch-invariant
//! at the model layer and every shard replica is built deterministically;
//! template-affinity routing ([`preqr_serve::route`]) keeps each
//! template's entire counted-operation sequence on one shard, in
//! submission order; and absent eviction pressure the per-shard cache
//! slices behave exactly like disjoint regions of the single cache.
//! Under eviction pressure the slices evict independently, so counters
//! — and even embeddings for literal-*variant* repeats, since a cache
//! hit serves the template representative computed from the first
//! variant's literals — may legitimately differ across shard counts.
//! What still holds, and the final sweep checks, is exact-repeat
//! determinism: when every occurrence of a template carries the same
//! literals, hit-vs-recompute is bit-neutral and embeddings stay
//! identical at every shard count even while eviction patterns diverge.

use std::collections::BTreeMap;
use std::sync::Arc;

use preqr::{PreqrConfig, SqlBert, ValueBuckets};
use preqr_obs as obs;
use preqr_obs::{EventKind, HistMetric, Metric};
use preqr_schema::{Column, ColumnType, Schema, Table};
use preqr_serve::{route, ServeConfig, ServeStats, Service, ShardStats};
use preqr_sql::normalize::template_text;
use preqr_sql::parser::parse;

/// Fixed request script: five template classes with literal variants
/// (including multi-byte string literals) plus one malformed line.
const SCRIPT: [&str; 16] = [
    "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990",
    "SELECT * FROM title t WHERE t.kind_id IN (1, 3)",
    "SELECT COUNT(*) FROM title t WHERE t.production_year > 2005",
    "SELECT MIN(t.id) FROM title t WHERE t.production_year BETWEEN 1990 AND 2000",
    "no parse at all",
    "SELECT COUNT(*) FROM title t WHERE t.note = 'café'",
    "SELECT * FROM title t WHERE t.kind_id IN (2, 6)",
    "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990",
    "SELECT COUNT(*) FROM title t WHERE t.note = '北京市'",
    "SELECT MAX(t.id) FROM title t WHERE t.kind_id IN (1, 2, 3)",
    "SELECT * FROM title t WHERE t.kind_id IN (5, 7, 2, 4)",
    "SELECT COUNT(*) FROM title t WHERE t.note = 'plain'",
    "SELECT MIN(t.id) FROM title t WHERE t.production_year BETWEEN 1950 AND 1960",
    "SELECT COUNT(*) FROM title t WHERE t.production_year > 1975",
    "SELECT MAX(t.id) FROM title t WHERE t.kind_id IN (4, 5, 6)",
    "SELECT * FROM title t WHERE t.kind_id IN (1, 3)",
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

/// Exact-repeat pressure script: six distinct templates cycled twice
/// with *identical* literals per occurrence, against a cache budget of 2
/// — heavy eviction churn, but hit-vs-recompute cannot change bits.
const EXACT_REPEAT: [&str; 12] = [
    "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990",
    "SELECT * FROM title t WHERE t.kind_id IN (1, 3)",
    "SELECT MIN(t.id) FROM title t WHERE t.production_year BETWEEN 1990 AND 2000",
    "SELECT COUNT(*) FROM title t WHERE t.note = 'café'",
    "SELECT MAX(t.id) FROM title t WHERE t.kind_id IN (1, 2, 3)",
    "SELECT * FROM title t WHERE t.kind_id IN (5, 7, 2, 4)",
    "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990",
    "SELECT * FROM title t WHERE t.kind_id IN (1, 3)",
    "SELECT MIN(t.id) FROM title t WHERE t.production_year BETWEEN 1990 AND 2000",
    "SELECT COUNT(*) FROM title t WHERE t.note = 'café'",
    "SELECT MAX(t.id) FROM title t WHERE t.kind_id IN (1, 2, 3)",
    "SELECT * FROM title t WHERE t.kind_id IN (5, 7, 2, 4)",
];

/// Per-request outcome: embedding bit pattern + cache-hit flag (`None`
/// for the malformed request).
type Outputs = Vec<Option<(Vec<u32>, bool)>>;

struct Replay {
    outputs: Outputs,
    events: Vec<obs::Event>,
    serve_counters: Vec<(&'static str, u64)>,
    stats: ServeStats,
    per_shard: Vec<ShardStats>,
}

/// Replays `script` through a fresh service with the given shard count
/// and global cache budget; `traced` wires up the obs sink + registry.
fn replay(script: &[&str], shards: usize, cache_capacity: usize, traced: bool) -> Replay {
    let sink = Arc::new(obs::TestSink::new());
    if traced {
        obs::reset_metrics();
        obs::install_sink(sink.clone());
    }
    let config = ServeConfig {
        shards,
        max_batch: 4,
        queue_capacity: script.len() * 8, // every shard slice fits the whole script
        cache_capacity,
    };
    let svc = Service::spawn(config, |_| serve_model());
    let tickets: Vec<_> = script.iter().map(|sql| svc.submit(sql).unwrap()).collect();
    let (stats, per_shard) = svc.shutdown_detailed();
    assert_eq!(stats.processed, script.len() as u64);
    let outputs = tickets
        .into_iter()
        .map(|t| {
            t.wait()
                .ok()
                .map(|e| (e.matrix.data().iter().map(|x| x.to_bits()).collect(), e.cache_hit))
        })
        .collect();

    let serve_counters = if traced {
        obs::flush_metrics();
        obs::clear_sink();
        let snap = obs::snapshot();
        obs::set_metrics_enabled(false);
        obs::reset_metrics();
        Metric::ALL
            .iter()
            .map(|m| m.name())
            .filter(|n| n.starts_with("serve.") && *n != "serve.batches")
            .map(|n| (n, snap.counter(n).unwrap()))
            .collect()
    } else {
        Vec::new()
    };
    Replay { outputs, events: sink.events(), serve_counters, stats, per_shard }
}

/// Per-template `(hits, misses)`, reconstructed from the per-request
/// cache-hit flags the service returned. Because every request reports
/// whether its template was cached, identical flags across shard counts
/// mean identical per-template counter sequences.
fn per_template_counters(outputs: &Outputs) -> BTreeMap<String, (u64, u64)> {
    let mut m = BTreeMap::new();
    for (sql, out) in SCRIPT.iter().zip(outputs) {
        // (the traced sweeps always replay SCRIPT)
        if let Some((_, hit)) = out {
            let e = m.entry(template_text(&parse(sql).unwrap())).or_insert((0u64, 0u64));
            if *hit {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
    }
    m
}

/// The shard each script line must land on, per [`route`]: parseable
/// requests by template, malformed ones by raw text — mirroring
/// admission exactly.
fn predicted_processed(shards: usize) -> Vec<u64> {
    let mut predicted = vec![0u64; shards];
    for sql in SCRIPT {
        let key = match parse(sql) {
            Ok(q) => template_text(&q),
            Err(_) => sql.to_string(),
        };
        predicted[route(&key, shards)] += 1;
    }
    predicted
}

#[test]
fn fixed_script_replays_identically_across_shard_counts() {
    let base = replay(&SCRIPT, 1, 64, true);
    // Baseline sanity: one malformed request, one span per processed
    // request, and one full fixed-registry flush.
    assert_eq!(base.outputs.iter().filter(|o| o.is_none()).count(), 1);
    let spans = base.events.iter().filter(|e| e.kind == EventKind::Span).count();
    assert_eq!(spans, SCRIPT.len());
    assert_eq!(base.events.len(), SCRIPT.len() + Metric::ALL.len() + HistMetric::ALL.len());
    assert_eq!(
        base.stats.cache_evictions, 0,
        "precondition: the workload must fit the cache, or counter invariance cannot hold"
    );
    let base_templates = per_template_counters(&base.outputs);
    assert!(base_templates.values().any(|&(hits, _)| hits > 0), "script repeats templates");

    for shards in [2usize, 4, 8] {
        let run = replay(&SCRIPT, shards, 64, true);
        assert_eq!(
            run.outputs, base.outputs,
            "embeddings or cache-hit flags diverged at shards={shards}"
        );
        assert_eq!(
            per_template_counters(&run.outputs),
            base_templates,
            "per-template cache counters diverged at shards={shards}"
        );
        assert_eq!(run.events.len(), base.events.len(), "event count diverged at shards={shards}");
        assert_eq!(
            run.serve_counters, base.serve_counters,
            "serve.* counters diverged at shards={shards}"
        );

        // Shard accounting: routing places work exactly where `route`
        // says, and per-shard counters sum to the aggregates.
        assert_eq!(run.per_shard.len(), shards);
        let processed: Vec<u64> = run.per_shard.iter().map(|s| s.processed).collect();
        assert_eq!(processed, predicted_processed(shards), "routing mismatch at shards={shards}");
        assert_eq!(run.per_shard.iter().map(|s| s.cache_hits).sum::<u64>(), run.stats.cache_hits);
        assert_eq!(
            run.per_shard.iter().map(|s| s.cache_misses).sum::<u64>(),
            run.stats.cache_misses
        );
        assert_eq!(run.per_shard.iter().map(|s| s.batches).sum::<u64>(), run.stats.batches);
        assert!(run.per_shard.iter().all(|s| !s.panicked));
    }

    // Under eviction pressure (global budget 2) the shard slices evict
    // independently, so hit/miss patterns — and, for literal-variant
    // repeats, even the served representative — may differ across shard
    // counts. Exact-repeat requests close that loophole: hit or
    // recompute, the bits are the same, so embeddings must stay
    // identical at every shard count even while counters diverge.
    let pressured = replay(&EXACT_REPEAT, 1, 2, false);
    assert!(pressured.stats.cache_evictions > 0, "budget 2 must actually evict on this script");
    let bits_only = |o: &Outputs| -> Vec<Option<Vec<u32>>> {
        o.iter().map(|x| x.as_ref().map(|(b, _)| b.clone())).collect()
    };
    for shards in [2usize, 4, 8] {
        let run = replay(&EXACT_REPEAT, shards, 2, false);
        assert_eq!(
            bits_only(&run.outputs),
            bits_only(&pressured.outputs),
            "embeddings diverged under eviction pressure at shards={shards}"
        );
    }
}
