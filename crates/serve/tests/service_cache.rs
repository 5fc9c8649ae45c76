//! Cache-semantics tests through the live service: template sharing,
//! non-collision, exact counters, eviction, and the batch-parity
//! contract (stats identical across `max_batch`).

use preqr::{PreqrConfig, SqlBert, ValueBuckets};
use preqr_schema::{Column, ColumnType, ForeignKey, Schema, Table};
use preqr_serve::{ServeConfig, ServeStats, Service};
use preqr_sql::normalize::template_text;
use preqr_sql::parser::parse;

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
    s.add_table(Table::new(
        "movie_companies",
        vec![
            Column::primary("id", ColumnType::Int),
            Column::new("movie_id", ColumnType::Int),
            Column::new("company_id", ColumnType::Int),
        ],
    ));
    s.add_foreign_key(ForeignKey {
        from_table: "movie_companies".into(),
        from_column: "movie_id".into(),
        to_table: "title".into(),
        to_column: "id".into(),
    });
    s
}

/// Builds the worker's model replica. Runs on the worker thread;
/// construction is deterministic, so every replica encodes identically.
fn test_model() -> SqlBert {
    let corpus: Vec<_> = [
        "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990",
        "SELECT COUNT(*) FROM title t, movie_companies mc \
         WHERE t.id = mc.movie_id AND t.production_year > 1990",
        "SELECT * FROM title t WHERE t.kind_id IN (1, 3, 5)",
    ]
    .iter()
    .map(|s| parse(s).unwrap())
    .collect();
    let mut buckets = ValueBuckets::new(4);
    buckets.insert("title", "production_year", (1930..2020).map(f64::from).collect());
    buckets.insert("title", "kind_id", (1..8).map(f64::from).collect());
    SqlBert::new(&corpus, &schema(), buckets, PreqrConfig::test())
}

fn spawn(config: ServeConfig) -> Service {
    Service::spawn(config, |_| test_model())
}

fn bits(m: &preqr_nn::Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn normalization_equivalent_queries_share_one_cache_entry() {
    // Same template, different literals / whitespace / keyword case.
    let base = "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990";
    let variants = [
        "SELECT COUNT(*) FROM title t WHERE t.production_year > 2005",
        "select   count(*) from title t where t.production_year > 1975",
        "SELECT COUNT(*)  FROM  title  t  WHERE  t.production_year  >  1990",
    ];
    for v in variants {
        assert_eq!(
            template_text(&parse(base).unwrap()),
            template_text(&parse(v).unwrap()),
            "precondition: {v:?} must normalize to the base template"
        );
    }

    let svc = spawn(ServeConfig::default());
    let first = svc.encode_blocking(base).unwrap();
    assert!(!first.cache_hit, "first occurrence must be a miss");
    for v in variants {
        let e = svc.encode_blocking(v).unwrap();
        assert!(e.cache_hit, "template-equivalent request must hit: {v:?}");
        assert_eq!(bits(&e.matrix), bits(&first.matrix), "cached entry must be shared");
    }
    let stats = svc.shutdown();
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, variants.len() as u64);
    assert_eq!(stats.encoded, 1, "one forward pass serves the whole template class");
}

#[test]
fn unicode_literals_share_one_cache_entry_end_to_end() {
    // Multi-byte literals exercise the full lex → template → cache-key
    // path: 'café' (2-byte char), '北京市' (3-byte chars), and an escaped
    // quote next to an emoji must all collapse into one `<STR>` template
    // and therefore one cache entry. A lexer that decoded literals
    // byte-at-a-time would corrupt the key (or split the class).
    let base = "SELECT COUNT(*) FROM title t WHERE t.note = 'café'";
    let variants = [
        "SELECT COUNT(*) FROM title t WHERE t.note = '北京市'",
        "SELECT COUNT(*) FROM title t WHERE t.note = 'plain ascii'",
        "SELECT COUNT(*) FROM title t WHERE t.note = 'O''Brien ☕'",
    ];
    for v in variants {
        assert_eq!(
            template_text(&parse(base).unwrap()),
            template_text(&parse(v).unwrap()),
            "precondition: {v:?} must share the base template"
        );
    }
    let svc = spawn(ServeConfig::default());
    let first = svc.encode_blocking(base).unwrap();
    assert!(!first.cache_hit, "first occurrence must be a miss");
    for v in variants {
        let e = svc.encode_blocking(v).unwrap();
        assert!(e.cache_hit, "unicode-literal variant must hit: {v:?}");
        assert_eq!(bits(&e.matrix), bits(&first.matrix), "cached entry must be shared");
    }
    let stats = svc.shutdown();
    assert_eq!((stats.cache_misses, stats.cache_hits, stats.encoded), (1, 3, 1));
}

#[test]
fn structurally_distinct_queries_never_collide() {
    let a = "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990";
    let b = "SELECT COUNT(*) FROM title t, movie_companies mc \
             WHERE t.id = mc.movie_id AND t.production_year > 1990";
    assert_ne!(template_text(&parse(a).unwrap()), template_text(&parse(b).unwrap()));

    let svc = spawn(ServeConfig::default());
    let ea = svc.encode_blocking(a).unwrap();
    let eb = svc.encode_blocking(b).unwrap();
    assert!(!ea.cache_hit && !eb.cache_hit);
    assert_ne!(bits(&ea.matrix), bits(&eb.matrix), "distinct queries must not share an entry");
    // Re-requests hit, and each template returns its *own* embedding.
    let ra = svc.encode_blocking(a).unwrap();
    let rb = svc.encode_blocking(b).unwrap();
    assert!(ra.cache_hit && rb.cache_hit);
    assert_eq!(bits(&ra.matrix), bits(&ea.matrix));
    assert_eq!(bits(&rb.matrix), bits(&eb.matrix));
    let stats = svc.shutdown();
    assert_eq!((stats.cache_hits, stats.cache_misses), (2, 2));
}

#[test]
fn hits_plus_misses_account_for_every_parseable_request() {
    let script = [
        "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990",
        "SELECT COUNT(*) FROM title t WHERE t.production_year > 2005",
        "SELECT * FROM title t WHERE t.kind_id IN (1, 3)",
        "SELECT COUNT(*) FROM title t WHERE t.production_year > 1930",
        "SELECT * FROM title t WHERE t.kind_id IN (2, 4)",
        "THIS IS NOT SQL",
    ];
    let svc = spawn(ServeConfig::default());
    let mut parseable = 0u64;
    for sql in script {
        if svc.encode_blocking(sql).is_ok() {
            parseable += 1;
        }
    }
    let stats = svc.shutdown();
    assert_eq!(stats.processed, script.len() as u64);
    assert_eq!(stats.parse_errors, 1);
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        parseable,
        "every parseable request performs exactly one counted lookup"
    );
}

#[test]
fn tiny_cache_evicts_in_lru_order_and_recomputes_identically() {
    let config = ServeConfig { cache_capacity: 1, ..ServeConfig::default() };
    let a = "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990";
    let b = "SELECT * FROM title t WHERE t.kind_id IN (1, 3)";
    let svc = spawn(config);
    let first_a = svc.encode_blocking(a).unwrap();
    let _ = svc.encode_blocking(b).unwrap(); // evicts a
    let again_a = svc.encode_blocking(a).unwrap(); // recomputed, evicts b
    let _ = svc.encode_blocking(b).unwrap(); // recomputed, evicts a
    assert!(!again_a.cache_hit, "evicted template must recompute");
    assert_eq!(bits(&again_a.matrix), bits(&first_a.matrix), "recompute must be bit-identical");
    let stats = svc.shutdown();
    assert_eq!(stats.cache_misses, 4);
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_evictions, 3);
    assert_eq!(stats.encoded, 4);
}

#[test]
fn cache_off_mode_recomputes_every_request_bit_identically() {
    let config = ServeConfig { cache_capacity: 0, ..ServeConfig::default() };
    let sql = "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990";
    let svc = spawn(config);
    let first = svc.encode_blocking(sql).unwrap();
    let second = svc.encode_blocking(sql).unwrap();
    assert!(!first.cache_hit && !second.cache_hit);
    assert_eq!(bits(&first.matrix), bits(&second.matrix));
    let stats = svc.shutdown();
    assert_eq!(stats.encoded, 2);
    assert_eq!((stats.cache_hits, stats.cache_misses, stats.cache_evictions), (0, 0, 0));
}

/// The batch-parity contract: because the worker replays cache
/// operations in FIFO order, every statistic except the batch count is
/// identical whether requests ride in micro-batches or one at a time.
#[test]
fn stats_are_invariant_across_max_batch() {
    let script = [
        "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990",
        "SELECT COUNT(*) FROM title t WHERE t.production_year > 2005",
        "SELECT * FROM title t WHERE t.kind_id IN (1, 3)",
        "SELECT COUNT(*) FROM title t WHERE t.production_year > 1975",
        "not sql at all",
        "SELECT * FROM title t WHERE t.kind_id IN (9, 9)",
        "SELECT COUNT(*) FROM title t WHERE t.production_year > 1930",
        "SELECT * FROM title t WHERE t.kind_id IN (1, 3)",
    ];
    let run = |max_batch: usize| -> (ServeStats, Vec<Option<Vec<u32>>>) {
        let config = ServeConfig {
            max_batch,
            cache_capacity: 2, // small enough to exercise eviction replay
            ..ServeConfig::default()
        };
        let svc = spawn(config);
        let tickets: Vec<_> = script.iter().map(|sql| svc.submit(sql).unwrap()).collect();
        let stats = svc.shutdown(); // drains every accepted ticket
        let outs =
            tickets.into_iter().map(|t| t.wait().ok().map(|e| bits(&e.matrix))).collect::<Vec<_>>();
        (stats, outs)
    };
    let (base_stats, base_out) = run(1);
    for max_batch in [4, 16] {
        let (stats, out) = run(max_batch);
        assert_eq!(out, base_out, "embeddings diverged at max_batch={max_batch}");
        let neutral = |s: ServeStats| ServeStats { batches: 0, ..s }; // batch geometry may differ
        assert_eq!(neutral(stats), neutral(base_stats), "stats diverged at max_batch={max_batch}");
    }
    assert_eq!(base_stats.accepted, script.len() as u64);
    assert_eq!(base_stats.parse_errors, 1);
}

/// The representative-embedding contract under batching: the cache keys
/// on the template, which drops literals, so a hit serves the embedding
/// of its template's most recent miss — even when the hit's own literal
/// falls in another value bucket and would embed differently. Every
/// miss is the request's own `SqlBert::encode`, bit for bit, and both
/// rules hold at every `max_batch`, under eviction pressure.
#[test]
fn hits_serve_their_templates_latest_miss_at_every_max_batch() {
    let year = |y: u32| format!("SELECT COUNT(*) FROM title t WHERE t.production_year > {y}");
    let join = |y: u32| {
        format!(
            "SELECT COUNT(*) FROM title t, movie_companies mc \
             WHERE t.id = mc.movie_id AND t.production_year > {y}"
        )
    };
    let kind = "SELECT * FROM title t WHERE t.kind_id IN (1, 3)".to_string();
    // Three templates through a two-entry cache: hits carry other
    // buckets' literals, and evictions force re-misses on new variants.
    let script = [
        year(1935),
        year(2010),
        join(1960),
        year(1985),
        kind.clone(),
        year(1960),
        join(2010),
        join(1935),
        kind,
        year(2010),
        year(1935),
        join(1985),
    ];
    let model = test_model();
    let key = |sql: &str| -> Vec<(usize, usize)> {
        let pq = model.prepare(&parse(sql).unwrap());
        pq.tokens.iter().map(|t| (t.vocab_id, t.state_id)).collect()
    };
    for variants in [[1935, 1960, 1985, 2010].map(year), [1935, 1960, 1985, 2010].map(join)] {
        for (i, a) in variants.iter().enumerate() {
            for b in &variants[i + 1..] {
                assert_ne!(key(a), key(b), "precondition: {a:?} and {b:?} must prepare apart");
            }
        }
    }

    for max_batch in [1, 4, 16] {
        let config = ServeConfig { max_batch, cache_capacity: 2, ..ServeConfig::default() };
        let svc = spawn(config);
        let tickets: Vec<_> = script.iter().map(|sql| svc.submit(sql).unwrap()).collect();
        let stats = svc.shutdown();
        assert!(stats.cache_hits > 0 && stats.cache_evictions > 0, "script must hit and evict");
        let mut latest_miss = std::collections::HashMap::new();
        let mut foreign_hits = 0;
        for (sql, ticket) in script.iter().zip(tickets) {
            let query = parse(sql).unwrap();
            let served = ticket.wait().unwrap();
            let template = template_text(&query);
            let own = bits(&model.encode(&query));
            if served.cache_hit {
                assert_eq!(
                    Some(&bits(&served.matrix)),
                    latest_miss.get(&template),
                    "hit must serve its template's latest miss at max_batch={max_batch}: {sql}"
                );
                foreign_hits += usize::from(bits(&served.matrix) != own);
            } else {
                assert_eq!(
                    bits(&served.matrix),
                    own,
                    "miss must be its own encode at max_batch={max_batch}: {sql}"
                );
                latest_miss.insert(template, own);
            }
        }
        assert!(foreign_hits > 0, "some hit must serve another bucket's embedding");
    }
}
