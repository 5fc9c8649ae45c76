//! `serve_shards` — shard-scaling probe feeding
//! `results/BENCH_serve_shards.json`.
//!
//! Replays a cache-miss-heavy workload (every request a distinct
//! template, so each one costs an encoder forward) through `preqr-serve`
//! at shard counts {1, 2, 4, 8} and appends best-of-N wall-clock timings
//! plus serving counters to the trajectory file. The worker pool is
//! pinned to one thread so shard workers are the only parallelism axis:
//! on a multi-core host throughput should scale with shard count until
//! cores run out, while on a single core the sweep degenerates into an
//! overhead check (sharding must not make serving slower).

use std::path::Path;
use std::time::Instant;

use preqr::{PreqrConfig, SqlBert, ValueBuckets};
use preqr_bench::trajectory::{append, PipelineEntry};
use preqr_nn::parallel;
use preqr_schema::{Column, ColumnType, Schema, Table};
use preqr_serve::{route, ServeConfig, ServeStats, Service};
use preqr_sql::normalize::template_text;
use preqr_sql::parser::parse;

const REPS: usize = 2;
/// Requests per replay — all distinct templates (three aggregate shapes
/// crossed with IN-list arities), so the cache never amortizes a forward.
const REQUESTS: usize = 96;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

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
    s
}

/// `i`-th request: aggregate shape `i % 3` × IN-list arity `i / 3 + 1`,
/// every combination a distinct normalized template.
fn request(i: usize) -> String {
    let arity = i / 3 + 1;
    let vals: Vec<String> = (0..arity).map(|v| (1 + v % 7).to_string()).collect();
    let in_list = vals.join(", ");
    match i % 3 {
        0 => format!("SELECT COUNT(*) FROM title t WHERE t.kind_id IN ({in_list})"),
        1 => format!("SELECT MIN(t.id) FROM title t WHERE t.kind_id IN ({in_list})"),
        _ => format!("SELECT MAX(t.production_year) FROM title t WHERE t.kind_id IN ({in_list})"),
    }
}

/// A query routed to `shard`: `production_year` IN-lists of arity ≥ 100,
/// disjoint from every workload template, scanned until the router picks
/// the wanted shard. Used to force each shard's model replica to build
/// before the clock starts.
fn warmup_sql(shard: usize, shards: usize) -> String {
    for arity in 100..100 + 64 * shards {
        let vals: Vec<String> = (0..arity).map(|v| (1900 + v % 90).to_string()).collect();
        let sql = format!(
            "SELECT COUNT(*) FROM title t WHERE t.production_year IN ({})",
            vals.join(", ")
        );
        if route(&template_text(&parse(&sql).unwrap()), shards) == shard {
            return sql;
        }
    }
    unreachable!("xor-folded routing covers every shard within the scan budget")
}

fn model() -> SqlBert {
    let corpus: Vec<_> = (0..6).map(|i| parse(&request(i)).unwrap()).collect();
    let mut buckets = ValueBuckets::new(4);
    buckets.insert("title", "production_year", (1930..2020).map(f64::from).collect());
    buckets.insert("title", "kind_id", (1..12).map(f64::from).collect());
    SqlBert::new(&corpus, &schema(), buckets, PreqrConfig::test())
}

/// Replays the workload once; returns (serving seconds, final stats).
/// Warmup touches every shard so all model replicas exist before the
/// clock starts.
fn replay(config: ServeConfig) -> (f64, ServeStats) {
    let svc = Service::spawn(config, |_| model());
    let warmups: Vec<_> = (0..config.shards)
        .map(|s| svc.submit(&warmup_sql(s, config.shards)).expect("warmup admits"))
        .collect();
    for w in warmups {
        w.wait().expect("warmup");
    }
    let t0 = Instant::now();
    let tickets: Vec<_> =
        (0..REQUESTS).map(|i| svc.submit(&request(i)).expect("queue sized for script")).collect();
    for t in tickets {
        t.wait().expect("workload is all parseable");
    }
    let secs = t0.elapsed().as_secs_f64();
    (secs, svc.shutdown())
}

fn bench(shards: usize) -> (f64, ServeStats) {
    let config = ServeConfig {
        shards,
        max_batch: 8,
        queue_capacity: (REQUESTS + SHARD_COUNTS[SHARD_COUNTS.len() - 1]) * shards,
        cache_capacity: 2 * REQUESTS, // misses come from distinct templates, not evictions
    };
    let mut best = f64::INFINITY;
    let mut stats = ServeStats::default();
    for _ in 0..REPS {
        let (secs, s) = replay(config);
        if secs < best {
            best = secs;
            stats = s;
        }
    }
    println!(
        "shards={shards}: {best:.4}s  ({:.0} req/s)  encoded={} misses={} batches={}",
        REQUESTS as f64 / best,
        stats.encoded,
        stats.cache_misses,
        stats.batches
    );
    (best, stats)
}

fn entry(shards: usize, secs: f64, stats: &ServeStats) -> PipelineEntry {
    PipelineEntry {
        label: "serve_shards".into(),
        phase: format!("shards{shards}"),
        threads: parallel::effective_threads(),
        trace: false,
        seconds: secs,
        counters: vec![
            ("serve.shards".into(), shards as u64),
            ("serve.requests".into(), stats.accepted),
            ("serve.encoded".into(), stats.encoded),
            ("serve.batches".into(), stats.batches),
            ("serve.cache.misses".into(), stats.cache_misses),
            ("serve.cache.evictions".into(), stats.cache_evictions),
        ],
    }
}

fn main() {
    // One nn thread per shard worker: shard count is the parallelism axis.
    parallel::set_thread_override(Some(1));
    println!(
        "serve_shards bench: {REQUESTS} distinct-template requests (cache-miss-heavy), \
         cores={}",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    let mut rows = Vec::new();
    let mut baseline = f64::NAN;
    for shards in SHARD_COUNTS {
        let (secs, stats) = bench(shards);
        if shards == 1 {
            baseline = secs;
        } else {
            println!("  scaling vs shards=1: {:.2}x", baseline / secs);
        }
        rows.push(entry(shards, secs, &stats));
    }
    let path = Path::new("results/BENCH_serve_shards.json");
    append(path, &rows).expect("write trajectory");
    println!("appended {} entries -> {}", rows.len(), path.display());
}
