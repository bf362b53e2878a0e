//! `snoop-store` — a durable, sharded, crash-safe on-disk result store.
//!
//! The evaluation engine's in-memory `ResultCache` lives and dies with
//! its process; this crate is the only tier that outlives it. It
//! replaced an earlier single-file JSON spill, where one torn write lost
//! the whole result set and a killed sweep restarted from zero, with
//! real storage infrastructure sized for million-scenario design-space
//! exploration:
//!
//! * **Sharded layout** — entries live under `shards/<hh>/`, where `hh`
//!   is the first byte of the key's FNV-1a hash in hex, so no directory
//!   ever holds more than ~1/256 of the store and listing stays cheap;
//! * **Crash-safe writes** — every entry is written to `tmp/`, then
//!   atomically `rename(2)`d into its shard. A reader never observes a
//!   half-written entry under its final name; a crash leaves only `tmp/`
//!   debris, which the next open sweeps away;
//! * **Per-entry checksums** — each entry file carries its payload
//!   length and FNV-1a checksum. Torn writes, truncation and bit flips
//!   are detected on read and the damaged file is **quarantined** (moved
//!   to `quarantine/`), never served and never fatal: a corrupt entry
//!   costs recomputation of that entry, not the store;
//! * **Lock-free sharing** — any number of processes may read and write
//!   one store at once. Entries publish by atomic rename and the keys
//!   are content hashes of deterministic results, so two writers of one
//!   key can only duplicate work: neither can tear or change the entry;
//! * **Size-bounded eviction** — an optional `max_entries` bound evicts
//!   the oldest entries (by modification time) after inserts;
//! * **Fault injection** — all filesystem access goes through the
//!   [`StoreFs`] trait. [`RealFs`] is the production implementation;
//!   [`FaultyFs`] is the adversary, injecting the deterministic
//!   [`snoop_numeric::fault::StoragePlan`] failure modes (torn write,
//!   ENOSPC, short read, bit flip) so every robustness claim above is
//!   proven by a test, the same discipline `snoop-numeric::fault`
//!   applies to the solve pipeline.
//!
//! The store is a plain byte-oriented key-value map — it knows nothing
//! about `Evaluation`s. The engine layers its content-addressed keys and
//! JSON payloads on top, which keeps the dependency graph acyclic
//! (`snoop-numeric` ← `snoop-store` ← `snoop-mva`).
//!
//! # Example
//!
//! ```
//! use snoop_store::DiskStore;
//!
//! let dir = std::env::temp_dir().join("snoop-store-doc-example");
//! let _ = std::fs::remove_dir_all(&dir);
//! let store = DiskStore::open(&dir).unwrap();
//! store.put("mva:00000000deadbeef", b"{\"speedup\":5.3}").unwrap();
//! assert_eq!(store.get("mva:00000000deadbeef").unwrap(), b"{\"speedup\":5.3}");
//! assert!(store.get("mva:0000000000000000").is_none());
//!
//! // A second open (another process) sees the same entry.
//! let other = DiskStore::open(&dir).unwrap();
//! assert!(other.contains("mva:00000000deadbeef"));
//! ```

mod entry;
mod fs;
mod store;

pub use entry::{decode_entry, encode_entry, fnv1a64, DecodeError, Fnv1a64, ENTRY_MAGIC};
pub use fs::{FaultyFs, RealFs, StoreFs};
pub use store::{
    DiskStore, RecoveryReport, StoreConfig, StoreError, StoreStats, KILL_AFTER_PUTS_ENV,
    STORE_MARKER, STORE_VERSION,
};
