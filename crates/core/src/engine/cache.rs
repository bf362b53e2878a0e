//! A bounded, thread-safe, content-addressed in-memory result cache.
//!
//! Keys are `"<backend>:<content-hash>"` strings built by the engine from
//! [`super::Scenario::content_hash`], so a cached value is valid for
//! exactly the scenarios that would recompute it. Only successful
//! evaluations are cached — errors are recomputed every time, so a
//! transient failure (e.g. a deadline) cannot poison later runs.
//! Persistence across processes is the durable store's job
//! ([`snoop_store::DiskStore`], attached with `Engine::with_store`).

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use super::evaluation::Evaluation;

/// Default capacity (entries) of a [`ResultCache`].
pub const DEFAULT_CAPACITY: usize = 16_384;

/// Hit/miss accounting of a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to be computed.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (`0.0` when nothing was looked
    /// up yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<String, Evaluation>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<String>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded thread-safe map from content keys to [`Evaluation`]s.
///
/// Eviction is FIFO: when full, the oldest *inserted* entry leaves first.
/// (Recency tracking would make `get` reorder state and perturb nothing
/// but benchmarks; sweep workloads are scans, where FIFO ≡ LRU.)
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::new(DEFAULT_CAPACITY)
    }
}

impl ResultCache {
    /// An empty cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ResultCache { inner: Mutex::new(Inner::default()), capacity: capacity.max(1) }
    }

    /// Looks up `key`, counting a hit or a miss. A returned clone has
    /// `provenance.cached = true`.
    pub fn get(&self, key: &str) -> Option<Evaluation> {
        let mut inner = self.inner.lock().expect("cache lock");
        match inner.map.get(key).cloned() {
            Some(mut eval) => {
                inner.hits += 1;
                eval.provenance.cached = true;
                Some(eval)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores `evaluation` under `key` (no hit/miss accounting) and
    /// returns how many entries it evicted. Inserting an existing key
    /// refreshes the value without growing the cache.
    pub fn insert(&self, key: &str, evaluation: Evaluation) -> u64 {
        let mut inner = self.inner.lock().expect("cache lock");
        let mut evicted = 0;
        if inner.map.insert(key.to_string(), evaluation).is_none() {
            inner.order.push_back(key.to_string());
            while inner.map.len() > self.capacity {
                if let Some(oldest) = inner.order.pop_front() {
                    inner.map.remove(&oldest);
                    evicted += 1;
                }
            }
        }
        inner.evictions += evicted;
        evicted
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
            evictions: inner.evictions,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::super::evaluation::{BackendId, Evaluation, Provenance};
    use super::*;

    fn eval(n: usize) -> Evaluation {
        Evaluation {
            backend: BackendId::Mva,
            n,
            r: 6.5 + n as f64,
            speedup: 0.8 * n as f64,
            speedup_half_width: None,
            bus_utilization: 0.5,
            memory_utilization: Some(0.1),
            w_bus: Some(1.0),
            w_mem: Some(0.1),
            q_bus: Some(1.2),
            provenance: Provenance::new(9, 0, 0),
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = ResultCache::default();
        assert!(cache.get("mva:1").is_none());
        cache.insert("mva:1", eval(4));
        let hit = cache.get("mva:1").unwrap();
        assert!(hit.provenance.cached);
        assert_eq!(hit, eval(4)); // equality ignores the cached flag
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let cache = ResultCache::new(2);
        cache.insert("a", eval(1));
        cache.insert("b", eval(2));
        cache.insert("c", eval(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_none(), "oldest entry should have left");
        assert!(cache.get("b").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinserting_a_key_refreshes_without_growth() {
        let cache = ResultCache::new(2);
        cache.insert("a", eval(1));
        cache.insert("a", eval(5));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("a").unwrap().n, 5);
        assert_eq!(cache.stats().evictions, 0);
    }
}
