//! Serving configuration.

/// Tuning knobs for a [`crate::Service`].
///
/// `queue_capacity` and `cache_capacity` are *global* budgets: the
/// service splits them evenly across `shards` (ceiling division), so
/// raising the shard count never shrinks the service below one queue
/// slot or cache entry per shard.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Most requests a shard drains from its queue at once (min 1). A
    /// shard never waits to fill a batch; draining frees queue slots, so
    /// a shard holds at most `max_batch` accepted requests beyond its
    /// queue slice.
    pub max_batch: usize,
    /// Global bounded-admission budget: each shard's queue holds at most
    /// [`ServeConfig::shard_queue_capacity`] requests, and a submission
    /// is rejected with `QueueFull` when its *target* shard is full.
    pub queue_capacity: usize,
    /// Global embedding-cache budget, keyed by normalized template and
    /// split into per-shard LRU slices. 0 disables caching entirely.
    pub cache_capacity: usize,
    /// Worker shards (min 1). Requests are routed to a shard by a
    /// deterministic hash of their normalized template text
    /// ([`crate::router::route`]), so each template's cache entries and
    /// counters live on exactly one shard.
    pub shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { max_batch: 16, queue_capacity: 256, cache_capacity: 1024, shards: 1 }
    }
}

impl ServeConfig {
    /// Copy with invalid fields clamped to their minimum legal values.
    pub(crate) fn normalized(self) -> Self {
        ServeConfig { max_batch: self.max_batch.max(1), shards: self.shards.max(1), ..self }
    }

    /// One shard's slice of the admission queue: `queue_capacity` split by
    /// ceiling division. A zero global budget stays zero (admission
    /// always rejects), matching the unsharded semantics.
    pub fn shard_queue_capacity(&self) -> usize {
        self.queue_capacity.div_ceil(self.shards.max(1))
    }

    /// One shard's slice of the template cache: `cache_capacity` split by
    /// ceiling division; 0 stays 0 (cache disabled on every shard).
    pub fn shard_cache_capacity(&self) -> usize {
        self.cache_capacity.div_ceil(self.shards.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_clamps_batch_and_shards_to_one() {
        let c = ServeConfig { max_batch: 0, shards: 0, ..ServeConfig::default() }.normalized();
        assert_eq!(c.max_batch, 1);
        assert_eq!(c.shards, 1);
        assert_eq!(ServeConfig::default().normalized().max_batch, 16);
        assert_eq!(ServeConfig::default().normalized().shards, 1);
    }

    #[test]
    fn capacity_splits_cover_the_budget_without_starving_a_shard() {
        let c = ServeConfig {
            queue_capacity: 10,
            cache_capacity: 10,
            shards: 4,
            ..ServeConfig::default()
        };
        // Ceiling split: 10 across 4 shards is 3 each (12 total ≥ 10).
        assert_eq!(c.shard_queue_capacity(), 3);
        assert_eq!(c.shard_cache_capacity(), 3);
        // More shards than budget: every shard still gets one slot.
        let tiny = ServeConfig { queue_capacity: 2, cache_capacity: 1, shards: 8, ..c };
        assert_eq!(tiny.shard_queue_capacity(), 1);
        assert_eq!(tiny.shard_cache_capacity(), 1);
    }

    #[test]
    fn single_shard_split_is_the_unsharded_capacity() {
        let c = ServeConfig::default();
        assert_eq!(c.shard_queue_capacity(), c.queue_capacity);
        assert_eq!(c.shard_cache_capacity(), c.cache_capacity);
    }

    #[test]
    fn zero_budgets_stay_zero_on_every_shard() {
        let c = ServeConfig {
            queue_capacity: 0,
            cache_capacity: 0,
            shards: 4,
            ..ServeConfig::default()
        };
        assert_eq!(c.shard_queue_capacity(), 0, "zero queue budget must still reject everything");
        assert_eq!(c.shard_cache_capacity(), 0, "zero cache budget must stay disabled");
    }
}
