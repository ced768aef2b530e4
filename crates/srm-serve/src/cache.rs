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
//! The cache is one LRU list behind one lock, bounded at `capacity`
//! entries: beyond that it evicts its **least recently used** entry —
//! a hit refreshes recency, so a hot posterior is never pushed out by
//! a burst of one-off requests. Evictions are counted and exported as
//! `srm_store_evictions_total`.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use srm_obs::json::Value;
use srm_obs::{lock_ignoring_poison, Counter};

/// Result documents a [`FitCache::new`] cache (the server's) retains.
const DEFAULT_CACHE_CAPACITY: usize = 256;

#[derive(Debug, Default)]
struct Lru {
    entries: HashMap<String, Value>,
    /// Keys ordered by recency; the front is least recently used.
    order: VecDeque<String>,
}

impl Lru {
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

/// A bounded, in-memory LRU result cache with hit/miss and eviction
/// counters.
#[derive(Debug)]
pub struct FitCache {
    lru: Mutex<Lru>,
    capacity: usize,
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
    /// An empty cache holding at most `DEFAULT_CACHE_CAPACITY` results.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// An empty cache holding at most `capacity` results (at least 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            lru: Mutex::new(Lru::default()),
            capacity: capacity.max(1),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// Looks up a result, recording a hit or a miss. A hit refreshes
    /// the entry's recency (LRU).
    pub fn lookup(&self, key: &str) -> Option<Value> {
        let mut lru = lock_ignoring_poison(&self.lru);
        let found = lru.entries.get(key).cloned();
        if found.is_some() {
            lru.touch(key);
            drop(lru);
            self.hits.incr();
        } else {
            drop(lru);
            self.misses.incr();
        }
        found
    }

    /// Stores a completed job's result under its cache key, evicting
    /// the least recently used entry beyond capacity. Overwriting an
    /// existing key also refreshes its recency.
    pub fn insert(&self, key: &str, result: Value) {
        let mut evicted = 0u64;
        {
            let mut lru = lock_ignoring_poison(&self.lru);
            if lru.entries.insert(key.to_owned(), result).is_some() {
                lru.touch(key);
            } else {
                lru.order.push_back(key.to_owned());
                while lru.entries.len() > self.capacity {
                    let Some(oldest) = lru.order.pop_front() else {
                        break;
                    };
                    lru.entries.remove(&oldest);
                    evicted += 1;
                }
            }
        }
        for _ in 0..evicted {
            self.evictions.incr();
        }
    }

    /// Every `(key, result)` pair in recency order — the snapshot
    /// writer's feed. Recency order is preserved so a restored cache
    /// evicts in the same order the live one would have.
    #[must_use]
    pub fn entries(&self) -> Vec<(String, Value)> {
        let lru = lock_ignoring_poison(&self.lru);
        lru.order
            .iter()
            .filter_map(|key| lru.entries.get(key).map(|v| (key.clone(), v.clone())))
            .collect()
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
        lock_ignoring_poison(&self.lru).entries.len()
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
        let cache = FitCache::with_capacity(2);
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
        let cache = FitCache::with_capacity(2);
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
        let cache = FitCache::with_capacity(8);
        cache.insert("a", Value::Num(1.0));
        cache.insert("b", Value::Num(2.0));
        cache.insert("c", Value::Num(3.0));
        let _ = cache.lookup("a");
        let keys: Vec<String> = cache.entries().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["b", "c", "a"]);
    }

    #[test]
    fn cache_holds_exactly_its_capacity() {
        let cache = FitCache::new();
        for i in 0..256 {
            cache.insert(&format!("key-{i}"), Value::Num(f64::from(i)));
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 256);
        assert!(cache.lookup("key-0").is_some(), "first key evicted");

        let cache = FitCache::with_capacity(10);
        for i in 0..200 {
            cache.insert(&format!("key-{i}"), Value::Num(f64::from(i)));
        }
        assert_eq!(cache.len(), 10);
        assert_eq!(cache.evictions(), 190);
    }
}
