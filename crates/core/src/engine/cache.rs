//! A bounded, thread-safe, content-addressed result cache with an
//! optional JSON spill format.
//!
//! Keys are `"<backend>:<content-hash>"` strings built by the engine from
//! [`super::Scenario::content_hash`], so a cached value is valid for
//! exactly the scenarios that would recompute it. Only successful
//! evaluations are cached — errors are recomputed every time, so a
//! transient failure (e.g. a deadline) cannot poison later runs.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use snoop_numeric::json::JsonValue;

use super::evaluation::Evaluation;

/// Schema identifier written to cache spill files.
pub const CACHE_SCHEMA: &str = "snoop-cache-v1";

/// Schema identifier written by earlier releases; still accepted on load
/// (the entry format is unchanged, only the tag was renamed).
pub const LEGACY_CACHE_SCHEMA: &str = "snoop-eval-cache-v1";

/// Default capacity (entries) of a [`ResultCache`].
pub const DEFAULT_CAPACITY: usize = 16_384;

/// Why a spill document was rejected outright (entry-level damage does
/// not reject the document — damaged entries are counted in
/// [`LoadOutcome::rejected`] and the rest load).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheLoadError {
    /// The document is not valid JSON.
    Parse {
        /// Byte offset of the first parse failure.
        offset: usize,
        /// Parser diagnostic.
        message: String,
    },
    /// The document carries no `"schema"` string.
    MissingSchema,
    /// The document's schema tag is not one this build reads.
    UnsupportedSchema {
        /// The tag found in the document.
        found: String,
    },
    /// The document has no `"entries"` array.
    MissingEntries,
}

impl std::fmt::Display for CacheLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheLoadError::Parse { offset, message } => {
                write!(f, "invalid JSON at byte {offset}: {message}")
            }
            CacheLoadError::MissingSchema => {
                write!(f, "missing \"schema\" tag, expected {CACHE_SCHEMA:?}")
            }
            CacheLoadError::UnsupportedSchema { found } => {
                write!(f, "unsupported cache schema {found:?}, expected {CACHE_SCHEMA:?}")
            }
            CacheLoadError::MissingEntries => write!(f, "missing \"entries\" array"),
        }
    }
}

impl std::error::Error for CacheLoadError {}

/// What a spill load did: entries merged in, entries refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadOutcome {
    /// Entries merged into the cache.
    pub loaded: usize,
    /// Entries rejected (malformed key or evaluation). The document
    /// still loads: one damaged entry costs that entry, not the spill.
    pub rejected: usize,
}

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

    /// Serializes every entry as a [`CACHE_SCHEMA`] document, sorted by
    /// key so the spill file is deterministic.
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock().expect("cache lock");
        let mut keys: Vec<&String> = inner.map.keys().collect();
        keys.sort();
        let mut out = format!("{{\"schema\":\"{CACHE_SCHEMA}\",\"entries\":[\n");
        for (i, key) in keys.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"key\":\"");
            out.push_str(key);
            out.push_str("\",\"evaluation\":");
            out.push_str(&inner.map[*key].to_json());
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Merges entries from a [`CACHE_SCHEMA`] (or [`LEGACY_CACHE_SCHEMA`])
    /// document produced by [`ResultCache::to_json`]. Loaded entries do
    /// not count as hits or misses; existing keys are kept (the live
    /// value wins). Malformed *entries* are counted in
    /// [`LoadOutcome::rejected`] and skipped — one damaged entry costs
    /// that entry, never the document.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CacheLoadError`] for document-level problems:
    /// unparseable JSON, a missing or unknown schema tag, or a missing
    /// entries array.
    pub fn load_json(&self, text: &str) -> Result<LoadOutcome, CacheLoadError> {
        let doc = JsonValue::parse(text)
            .map_err(|e| CacheLoadError::Parse { offset: e.offset, message: e.message })?;
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some(CACHE_SCHEMA) | Some(LEGACY_CACHE_SCHEMA) => {}
            Some(found) => {
                return Err(CacheLoadError::UnsupportedSchema { found: found.to_string() })
            }
            None => return Err(CacheLoadError::MissingSchema),
        }
        let entries = doc
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or(CacheLoadError::MissingEntries)?;
        let mut outcome = LoadOutcome::default();
        let mut inner = self.inner.lock().expect("cache lock");
        for entry in entries {
            let key = entry.get("key").and_then(JsonValue::as_str);
            let evaluation =
                entry.get("evaluation").and_then(|v| Evaluation::from_json(v).ok());
            let (Some(key), Some(evaluation)) = (key, evaluation) else {
                outcome.rejected += 1;
                continue;
            };
            if inner.map.len() >= self.capacity && !inner.map.contains_key(key) {
                // Respect the bound even when the file outgrew it.
                continue;
            }
            if inner.map.insert(key.to_string(), evaluation).is_none() {
                inner.order.push_back(key.to_string());
                outcome.loaded += 1;
            }
        }
        Ok(outcome)
    }

    /// Writes the spill document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Merges the spill document at `path` if it exists; a missing file
    /// loads zero entries (first run of a warm-cache workflow).
    ///
    /// # Errors
    ///
    /// Returns a message for unreadable or malformed files.
    pub fn load_file(&self, path: &std::path::Path) -> Result<LoadOutcome, String> {
        if !path.exists() {
            return Ok(LoadOutcome::default());
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        self.load_json(&text).map_err(|e| format!("{}: {e}", path.display()))
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

    #[test]
    fn spill_round_trips_deterministically() {
        let cache = ResultCache::default();
        cache.insert("mva:b", eval(8));
        cache.insert("mva:a", eval(4));
        let text = cache.to_json();
        assert!(text.contains(CACHE_SCHEMA));
        // Sorted by key regardless of insertion order.
        assert!(text.find("mva:a").unwrap() < text.find("mva:b").unwrap());

        let restored = ResultCache::default();
        assert_eq!(restored.load_json(&text).unwrap(), LoadOutcome { loaded: 2, rejected: 0 });
        assert_eq!(restored.get("mva:a").unwrap(), eval(4));
        assert_eq!(restored.to_json(), text);
        // Loading counts no hits/misses (the get above counted one hit).
        assert_eq!(restored.stats().misses, 0);
    }

    #[test]
    fn load_rejects_other_schemas_with_typed_errors() {
        let cache = ResultCache::default();
        assert_eq!(
            cache.load_json(r#"{"schema":"nope","entries":[]}"#),
            Err(CacheLoadError::UnsupportedSchema { found: "nope".into() })
        );
        assert_eq!(
            cache.load_json(r#"{"entries":[]}"#),
            Err(CacheLoadError::MissingSchema)
        );
        assert_eq!(
            cache.load_json(&format!(r#"{{"schema":"{CACHE_SCHEMA}"}}"#)),
            Err(CacheLoadError::MissingEntries)
        );
        assert!(matches!(
            cache.load_json("{not json"),
            Err(CacheLoadError::Parse { .. })
        ));
        // The schema tags show up in the rendered diagnostics.
        let err = cache.load_json(r#"{"schema":"nope","entries":[]}"#).unwrap_err();
        assert!(err.to_string().contains("snoop-cache-v1"), "{err}");
    }

    #[test]
    fn legacy_schema_tag_still_loads() {
        let cache = ResultCache::default();
        cache.insert("mva:x", eval(2));
        let legacy = cache.to_json().replace(CACHE_SCHEMA, LEGACY_CACHE_SCHEMA);
        let restored = ResultCache::default();
        assert_eq!(
            restored.load_json(&legacy).unwrap(),
            LoadOutcome { loaded: 1, rejected: 0 }
        );
        // New spills carry the new tag.
        assert!(restored.to_json().contains("\"schema\":\"snoop-cache-v1\""));
    }

    #[test]
    fn damaged_entries_are_counted_and_skipped_not_fatal() {
        let cache = ResultCache::default();
        cache.insert("mva:good", eval(3));
        let spill = cache.to_json();
        // Splice in two damaged entries around the good one: one with no
        // key, one whose evaluation is not an object.
        let damaged = spill.replace(
            "\"entries\":[\n",
            "\"entries\":[\n{\"evaluation\":{}},{\"key\":\"mva:bad\",\"evaluation\":7},\n",
        );
        let restored = ResultCache::default();
        assert_eq!(
            restored.load_json(&damaged).unwrap(),
            LoadOutcome { loaded: 1, rejected: 2 }
        );
        assert_eq!(restored.get("mva:good").unwrap(), eval(3));
        assert!(restored.get("mva:bad").is_none());
    }

    #[test]
    fn missing_spill_file_is_empty_not_an_error() {
        let cache = ResultCache::default();
        let loaded =
            cache.load_file(std::path::Path::new("/nonexistent/spill.json")).unwrap();
        assert_eq!(loaded, LoadOutcome::default());
    }
}
