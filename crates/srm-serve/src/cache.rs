//! The content-addressed fit cache.
//!
//! Results are keyed by [`crate::job::JobSpec::cache_key`] — an
//! FNV-1a digest over everything that determines the posterior
//! bit-for-bit: dataset hash, model, prior (family and limits), MCMC
//! shape, seed, and the kind-specific knobs (horizon, θ_max). Worker
//! thread count is deliberately *excluded*: the engine produces
//! bit-identical draws for any thread count, so one entry serves all
//! parallelism levels. A hit returns the stored result document
//! unchanged, so repeated identical jobs are served without
//! re-sampling.
//!
//! The cache is hash-sharded (shard = FNV-1a of the key, modulo `N`)
//! so concurrent lookups don't serialize on one lock, and bounded:
//! each shard holds at most `ceil(capacity / N)` entries and evicts
//! its **least recently used** entry beyond that — a hit refreshes
//! recency, so a hot posterior is never pushed out by a burst of
//! one-off requests. Evictions are counted and exported as
//! `srm_store_evictions_total`.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use srm_obs::json::Value;
use srm_obs::{lock_ignoring_poison, Counter};

use crate::job::DEFAULT_SHARDS;

/// Default number of result documents retained.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

#[derive(Debug, Default)]
struct CacheShard {
    entries: HashMap<String, Value>,
    /// Keys ordered by recency; the front is least recently used.
    order: VecDeque<String>,
}

impl CacheShard {
    /// Moves `key` to the most-recently-used position.
    fn touch(&mut self, key: &str) {
        if let Some(at) = self.order.iter().position(|k| k == key) {
            let Some(entry) = self.order.remove(at) else {
                return;
            };
            self.order.push_back(entry);
        }
    }
}

/// A bounded, sharded, in-memory LRU result cache with hit/miss and
/// eviction counters.
#[derive(Debug)]
pub struct FitCache {
    shards: Vec<Mutex<CacheShard>>,
    per_shard_capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl Default for FitCache {
    fn default() -> Self {
        Self::new()
    }
}

impl FitCache {
    /// An empty cache with [`DEFAULT_CACHE_CAPACITY`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// An empty cache holding at most `capacity` results.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_shards(capacity, DEFAULT_SHARDS)
    }

    /// An empty cache with an explicit shard count (1 = a single LRU
    /// list with exact global ordering; useful for eviction tests and
    /// contention benchmarks). Total capacity is split evenly, so each
    /// shard keeps at most `ceil(capacity / shards)` entries.
    #[must_use]
    pub fn with_capacity_and_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity = capacity.max(1);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(CacheShard::default()))
                .collect(),
            per_shard_capacity: capacity.div_ceil(shards),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<CacheShard> {
        let index = srm_store::fnv1a64(key.as_bytes()) as usize % self.shards.len();
        &self.shards[index]
    }

    /// Looks up a result, recording a hit or a miss. A hit refreshes
    /// the entry's recency (LRU).
    pub fn lookup(&self, key: &str) -> Option<Value> {
        let mut shard = lock_ignoring_poison(self.shard(key));
        let found = shard.entries.get(key).cloned();
        if found.is_some() {
            shard.touch(key);
            drop(shard);
            self.hits.incr();
        } else {
            drop(shard);
            self.misses.incr();
        }
        found
    }

    /// Stores a completed job's result under its cache key, evicting
    /// the shard's least recently used entry beyond capacity.
    /// Overwriting an existing key also refreshes its recency.
    pub fn insert(&self, key: &str, result: Value) {
        let mut evicted = 0u64;
        {
            let mut shard = lock_ignoring_poison(self.shard(key));
            if shard.entries.insert(key.to_owned(), result).is_some() {
                shard.touch(key);
            } else {
                shard.order.push_back(key.to_owned());
                while shard.entries.len() > self.per_shard_capacity {
                    let Some(lru) = shard.order.pop_front() else {
                        break;
                    };
                    shard.entries.remove(&lru);
                    evicted += 1;
                }
            }
        }
        for _ in 0..evicted {
            self.evictions.incr();
        }
    }

    /// Every `(key, result)` pair, in shard order then recency order —
    /// the snapshot writer's feed. Recency order within a shard is
    /// preserved so a restored cache evicts in the same order the live
    /// one would have.
    #[must_use]
    pub fn entries(&self) -> Vec<(String, Value)> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let shard = lock_ignoring_poison(shard);
            for key in &shard.order {
                if let Some(result) = shard.entries.get(key) {
                    all.push((key.clone(), result.clone()));
                }
            }
        }
        all
    }

    /// Cache hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries evicted so far (capacity pressure, not overwrites).
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Number of stored results.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_ignoring_poison(s).entries.len())
            .sum()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = FitCache::new();
        assert!(cache.lookup("k").is_none());
        cache.insert("k", Value::Num(1.0));
        assert_eq!(cache.lookup("k"), Some(Value::Num(1.0)));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn insert_overwrites() {
        let cache = FitCache::new();
        cache.insert("k", Value::Num(1.0));
        cache.insert("k", Value::Num(2.0));
        assert_eq!(cache.lookup("k"), Some(Value::Num(2.0)));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn evicts_least_recently_used_entry_beyond_capacity() {
        // One shard so the LRU order is globally exact.
        let cache = FitCache::with_capacity_and_shards(2, 1);
        cache.insert("a", Value::Num(1.0));
        cache.insert("b", Value::Num(2.0));
        // Touch `a`: it is now more recent than `b`.
        assert_eq!(cache.lookup("a"), Some(Value::Num(1.0)));
        cache.insert("c", Value::Num(3.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("b").is_none(), "LRU entry should be evicted");
        assert_eq!(cache.lookup("a"), Some(Value::Num(1.0)));
        assert_eq!(cache.lookup("c"), Some(Value::Num(3.0)));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn overwrite_refreshes_recency() {
        let cache = FitCache::with_capacity_and_shards(2, 1);
        cache.insert("a", Value::Num(1.0));
        cache.insert("b", Value::Num(2.0));
        // Overwrite `a`: `b` becomes the LRU entry.
        cache.insert("a", Value::Num(9.0));
        cache.insert("c", Value::Num(3.0));
        assert!(cache.lookup("b").is_none());
        assert_eq!(cache.lookup("a"), Some(Value::Num(9.0)));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn entries_preserve_recency_order_for_snapshots() {
        let cache = FitCache::with_capacity_and_shards(8, 1);
        cache.insert("a", Value::Num(1.0));
        cache.insert("b", Value::Num(2.0));
        cache.insert("c", Value::Num(3.0));
        let _ = cache.lookup("a");
        let keys: Vec<String> = cache.entries().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["b", "c", "a"]);
    }

    #[test]
    fn sharded_cache_keeps_roughly_capacity_entries() {
        let cache = FitCache::with_capacity_and_shards(16, 4);
        for i in 0..200 {
            cache.insert(&format!("key-{i}"), Value::Num(i as f64));
        }
        // Each of the 4 shards caps at 4 entries.
        assert!(cache.len() <= 16);
        assert!(cache.evictions() >= 184);
    }
}
