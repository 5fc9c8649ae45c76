//! Deterministic LRU cache keyed by normalized query templates.
//!
//! Classic intrusive-list LRU over a slab: `get`/`insert` are O(1), the
//! recency order is a pure function of the operation sequence, and the
//! hit/miss/eviction counters are exact — `hits + misses` equals the
//! number of lookups, always. The serving layer keys this cache on
//! [`preqr_sql::normalize::template_text`], so queries that differ only
//! in literals, whitespace, or keyword case share one entry, while
//! structurally distinct queries can never collide (distinct template
//! strings are distinct keys).

use std::collections::HashMap;

/// Sentinel for "no neighbour" in the intrusive recency list.
const NIL: usize = usize::MAX;

struct Entry<V> {
    key: String,
    value: V,
    prev: usize,
    next: usize,
}

/// Exact lookup/eviction counters of an [`LruCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
}

/// A fixed-capacity least-recently-used map from template strings to
/// cached values. Capacity 0 disables the cache: every lookup misses and
/// inserts are dropped.
pub struct LruCache<V> {
    cap: usize,
    map: HashMap<String, usize>,
    slab: Vec<Entry<V>>,
    free: Vec<usize>,
    /// Most recently used entry (NIL when empty).
    head: usize,
    /// Least recently used entry (NIL when empty).
    tail: usize,
    counters: CacheCounters,
}

impl<V> LruCache<V> {
    /// Creates a cache holding at most `cap` entries.
    pub fn new(cap: usize) -> Self {
        LruCache {
            cap,
            map: HashMap::with_capacity(cap.min(1 << 16)),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            counters: CacheCounters::default(),
        }
    }

    /// Capacity the cache was built with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Exact counters since construction.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Counted lookup: on hit the entry moves to the front of the
    /// recency order and its value is returned.
    pub fn get(&mut self, key: &str) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.counters.hits += 1;
                self.unlink(idx);
                self.push_front(idx);
                Some(&self.slab[idx].value)
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, making it most recently used.
    /// Returns the key evicted to make room, if any.
    pub fn insert(&mut self, key: String, value: V) -> Option<String> {
        if self.cap == 0 {
            return None;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return None;
        }
        let evicted = if self.map.len() >= self.cap {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "non-empty cache has a tail");
            self.unlink(lru);
            let old = std::mem::take(&mut self.slab[lru].key);
            self.map.remove(&old);
            self.free.push(lru);
            self.counters.evictions += 1;
            Some(old)
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Entry { key: key.clone(), value, prev: NIL, next: NIL };
                i
            }
            None => {
                self.slab.push(Entry { key: key.clone(), value, prev: NIL, next: NIL });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Keys from most to least recently used (test/debug introspection).
    pub fn recency_order(&self) -> Vec<&str> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.slab[cur].key.as_str());
            cur = self.slab[cur].next;
        }
        out
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_follows_lru_order_exactly() {
        let mut c: LruCache<u32> = LruCache::new(3);
        assert_eq!(c.insert("a".into(), 1), None);
        assert_eq!(c.insert("b".into(), 2), None);
        assert_eq!(c.insert("c".into(), 3), None);
        assert_eq!(c.recency_order(), ["c", "b", "a"]);
        // Touch `a`: it becomes most recent, so `b` is now the victim.
        assert_eq!(c.get("a"), Some(&1));
        assert_eq!(c.insert("d".into(), 4), Some("b".to_string()));
        assert_eq!(c.recency_order(), ["d", "a", "c"]);
        assert_eq!(c.insert("e".into(), 5), Some("c".to_string()));
        assert_eq!(c.insert("f".into(), 6), Some("a".to_string()));
        assert_eq!(c.len(), 3);
        assert_eq!(c.counters().evictions, 3);
    }

    #[test]
    fn counters_account_for_every_lookup() {
        let mut c: LruCache<u32> = LruCache::new(2);
        let mut lookups = 0u64;
        for key in ["x", "y", "x", "z", "y", "x", "x"] {
            if c.get(key).is_none() {
                c.insert(key.into(), 0);
            }
            lookups += 1;
        }
        let ct = c.counters();
        assert_eq!(ct.hits + ct.misses, lookups);
        assert!(ct.hits > 0 && ct.misses > 0);
    }

    #[test]
    fn reinsert_replaces_value_without_eviction() {
        let mut c: LruCache<u32> = LruCache::new(2);
        c.insert("a".into(), 1);
        c.insert("b".into(), 2);
        assert_eq!(c.insert("a".into(), 9), None, "replacing must not evict");
        assert_eq!(c.get("a"), Some(&9));
        assert_eq!(c.recency_order(), ["a", "b"]);
        assert_eq!(c.counters().evictions, 0);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut c: LruCache<u32> = LruCache::new(0);
        assert_eq!(c.insert("a".into(), 1), None);
        assert_eq!(c.get("a"), None);
        assert!(c.is_empty());
        assert_eq!(c.counters(), CacheCounters { hits: 0, misses: 1, evictions: 0 });
    }

    #[test]
    fn reinsert_at_full_capacity_neither_evicts_nor_grows() {
        // The capacity edge: a key already present in a *full* cache must
        // take the replace path — a naive "full ⇒ evict LRU first"
        // implementation would evict a sibling (or the key itself) and
        // bump the eviction counter for what is only an update.
        let mut c: LruCache<u32> = LruCache::new(2);
        c.insert("a".into(), 1);
        c.insert("b".into(), 2);
        let slab_before = c.slab.len();
        assert_eq!(c.insert("a".into(), 10), None, "update of LRU key at capacity");
        assert_eq!(c.insert("b".into(), 20), None, "update of MRU key at capacity");
        assert_eq!(c.len(), 2);
        assert_eq!(c.slab.len(), slab_before, "updates must not allocate new slots");
        assert_eq!(c.counters().evictions, 0);
        assert_eq!(c.recency_order(), ["b", "a"]);
        assert_eq!(c.get("a"), Some(&10));
        assert_eq!(c.get("b"), Some(&20));
    }

    #[test]
    fn zero_capacity_counters_stay_exact_over_long_sequences() {
        // `hits + misses == lookups` must hold even when every insert is
        // dropped: a capacity-0 cache that secretly admitted entries (or
        // skipped counting) would silently skew serving statistics.
        let mut c: LruCache<u32> = LruCache::new(0);
        let mut lookups = 0u64;
        for round in 0..3 {
            for i in 0..16u32 {
                if c.get(&format!("k{i}")).is_none() {
                    c.insert(format!("k{i}"), round * 100 + i);
                }
                lookups += 1;
            }
        }
        let ct = c.counters();
        assert_eq!(ct.hits, 0, "nothing can ever be admitted at capacity 0");
        assert_eq!(ct.misses, lookups);
        assert_eq!(ct.hits + ct.misses, lookups);
        assert_eq!(ct.evictions, 0, "dropped inserts are not evictions");
        assert!(c.is_empty());
        assert_eq!(c.slab.len(), 0, "capacity 0 must not allocate slots");
    }

    #[test]
    fn slab_slots_are_reused_after_eviction() {
        let mut c: LruCache<u32> = LruCache::new(2);
        for i in 0..100u32 {
            c.insert(format!("k{i}"), i);
        }
        assert_eq!(c.len(), 2);
        assert!(c.slab.len() <= 3, "evicted slots must be recycled, not leaked");
        assert_eq!(c.recency_order(), ["k99", "k98"]);
    }
}
