//! A bounded, thread-safe, content-addressed in-memory result cache.
//!
//! Keys are [`CacheKey`]s — a backend id plus
//! [`super::Scenario::content_hash`] — so a cached value is valid for
//! exactly the scenarios that would recompute it. Only successful
//! evaluations are cached — errors are recomputed every time, so a
//! failed job is never served from the cache.
//! Persistence across processes is the durable store's job
//! ([`snoop_store::DiskStore`], attached with `Engine::with_store`).

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

use super::evaluation::{BackendId, Evaluation};

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

/// The identity of one cached result: the backend that computes it and
/// the content hash of its scenario. Its text form,
/// `"<backend>:<hash as 16 hex digits>"`, is the durable store's key and
/// the `key` field of `snoop serve` answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The backend that computes the value.
    pub backend: BackendId,
    /// [`super::Scenario::content_hash`] of the scenario.
    pub hash: u64,
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{:016x}", self.backend, self.hash)
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Resident entries in insertion order until the ring is full; from
    /// then on `oldest` is the slot the next new key overwrites.
    slots: Vec<(CacheKey, Evaluation)>,
    /// Key → slot in `slots`.
    index: HashMap<CacheKey, usize>,
    oldest: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded thread-safe map from content keys to [`Evaluation`]s.
///
/// Eviction is FIFO: when full, the oldest *inserted* entry leaves first.
/// (Recency tracking would make `get` reorder state and perturb nothing
/// but benchmarks; sweep workloads are scans, where FIFO ≡ LRU.) The
/// entries live in one ring of at most `capacity` slots, so a new key in
/// a full cache overwrites the oldest slot in place and the memory held
/// stays fixed under churn.
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
    pub fn get(&self, key: &CacheKey) -> Option<Evaluation> {
        let mut inner = self.inner.lock().expect("cache lock");
        match inner.index.get(key) {
            Some(&slot) => {
                let mut eval = inner.slots[slot].1.clone();
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
    /// refreshes the value in place, without growing the cache or
    /// changing its eviction order.
    pub fn insert(&self, key: CacheKey, evaluation: Evaluation) -> u64 {
        let mut inner = self.inner.lock().expect("cache lock");
        if let Some(&slot) = inner.index.get(&key) {
            inner.slots[slot].1 = evaluation;
            return 0;
        }
        if inner.slots.len() < self.capacity {
            let slot = inner.slots.len();
            inner.slots.push((key, evaluation));
            inner.index.insert(key, slot);
            return 0;
        }
        let slot = inner.oldest;
        let (evicted, _) = std::mem::replace(&mut inner.slots[slot], (key, evaluation));
        inner.index.remove(&evicted);
        inner.index.insert(key, slot);
        inner.oldest = (slot + 1) % self.capacity;
        inner.evictions += 1;
        1
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.slots.len(),
            evictions: inner.evictions,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").slots.len()
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
    use proptest::prelude::*;
    use std::collections::VecDeque;

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

    fn key(hash: u64) -> CacheKey {
        CacheKey { backend: BackendId::Mva, hash }
    }

    #[test]
    fn key_text_is_backend_colon_sixteen_hex_digits() {
        assert_eq!(key(0xab).to_string(), "mva:00000000000000ab");
        let key = CacheKey { backend: BackendId::ResilientMva, hash: u64::MAX };
        assert_eq!(key.to_string(), "mva-resilient:ffffffffffffffff");
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = ResultCache::default();
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), eval(4));
        let hit = cache.get(&key(1)).unwrap();
        assert!(hit.provenance.cached);
        assert_eq!(hit, eval(4)); // equality ignores the cached flag
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let cache = ResultCache::new(2);
        cache.insert(key(1), eval(1));
        cache.insert(key(2), eval(2));
        assert_eq!(cache.insert(key(3), eval(3)), 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1)).is_none(), "oldest entry should have left");
        assert!(cache.get(&key(2)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinserting_a_key_refreshes_without_growth() {
        let cache = ResultCache::new(2);
        cache.insert(key(1), eval(1));
        assert_eq!(cache.insert(key(1), eval(5)), 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(1)).unwrap().n, 5);
        assert_eq!(cache.stats().evictions, 0);
        // Keys differing only in backend are distinct entries.
        cache.insert(CacheKey { backend: BackendId::Sim, hash: 1 }, eval(6));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(1)).unwrap().n, 5);
    }

    /// The reference: a map plus a queue of keys in insertion order,
    /// evicting from the front — the layout the ring replaced.
    #[derive(Default)]
    struct FifoModel {
        map: HashMap<CacheKey, Evaluation>,
        order: VecDeque<CacheKey>,
        stats: CacheStats,
    }

    impl FifoModel {
        fn get(&mut self, key: &CacheKey) -> Option<Evaluation> {
            let found = self.map.get(key).cloned();
            match found {
                Some(_) => self.stats.hits += 1,
                None => self.stats.misses += 1,
            }
            found
        }

        fn insert(&mut self, capacity: usize, key: CacheKey, evaluation: Evaluation) -> u64 {
            let mut evicted = 0;
            if self.map.insert(key, evaluation).is_none() {
                self.order.push_back(key);
                while self.map.len() > capacity {
                    let oldest = self.order.pop_front().expect("queue tracks the map");
                    self.map.remove(&oldest);
                    evicted += 1;
                }
            }
            self.stats.evictions += evicted;
            self.stats.entries = self.map.len();
            evicted
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random insert/get sequences (op 0 = get, else insert; keys
        /// drawn from a pool of 12 across two backends) leave the ring
        /// and the reference model in the same state after every step.
        #[test]
        fn ring_matches_the_fifo_model(
            capacity in 1usize..=8,
            ops in prop::collection::vec((0u8..3, 0u64..12, 0usize..100), 1..80),
        ) {
            let cache = ResultCache::new(capacity);
            let mut model = FifoModel::default();
            for (op, k, n) in ops {
                let backend = if k % 2 == 0 { BackendId::Mva } else { BackendId::Gtpn };
                let key = CacheKey { backend, hash: k / 2 };
                if op == 0 {
                    let got = cache.get(&key);
                    let want = model.get(&key);
                    prop_assert_eq!(got.as_ref().map(|e| e.n), want.as_ref().map(|e| e.n));
                    prop_assert!(got.iter().all(|e| e.provenance.cached));
                } else {
                    prop_assert_eq!(cache.insert(key, eval(n)), model.insert(capacity, key, eval(n)));
                }
                prop_assert_eq!(cache.stats(), model.stats);
                let inner = cache.inner.lock().unwrap();
                let mut resident: Vec<(u64, BackendId, usize)> =
                    inner.slots.iter().map(|(k, e)| (k.hash, k.backend, e.n)).collect();
                let mut want: Vec<(u64, BackendId, usize)> =
                    model.map.iter().map(|(k, e)| (k.hash, k.backend, e.n)).collect();
                resident.sort();
                want.sort();
                prop_assert_eq!(resident, want);
                prop_assert_eq!(inner.index.len(), inner.slots.len());
                for (slot, (key, _)) in inner.slots.iter().enumerate() {
                    prop_assert_eq!(inner.index.get(key), Some(&slot));
                }
            }
        }
    }
}
