//! [`DiskStore`]: the durable, sharded, crash-safe key-value store.
//!
//! # Layout
//!
//! ```text
//! <root>/
//!   snoop-store.version      # marker: "snoop-store-v1\n"
//!   shards/<hh>/<name>.entry # hh = top byte of fnv1a64(key), hex
//!   tmp/                     # write-temp-then-rename staging
//!   quarantine/              # corrupt entries, moved aside on detection
//! ```
//!
//! # Crash-safety invariants
//!
//! 1. An entry file only ever appears under its final name via an atomic
//!    `rename(2)` from `tmp/`; readers never observe partial writes.
//! 2. Every entry carries a length and checksum covering its key and
//!    payload; any decode failure quarantines the file and reads as a
//!    miss — corruption is never served and never fatal.
//! 3. `open` never aborts on damage: it sweeps `tmp/` debris and leaves
//!    entry validation to reads (or an explicit [`DiskStore::recover`]
//!    scan). The worst outcome of any single-file damage is
//!    recomputation of that one entry.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::entry::{decode_entry, encode_entry, fnv1a64};
use crate::fs::{RealFs, StoreFs};

/// Contents (first line) of the store marker file.
pub const STORE_VERSION: &str = "snoop-store-v1";

/// File name of the store marker.
pub const STORE_MARKER: &str = "snoop-store.version";

/// Test-only crash hook: when this environment variable holds `N`, the
/// process exits with status 3 immediately after the `N`-th successful
/// entry publish. Deterministic kill-point tests use it to die at an
/// exact persistence boundary; production runs never set it.
pub const KILL_AFTER_PUTS_ENV: &str = "SNOOP_STORE_KILL_AFTER_PUTS";

/// A failure the store could not absorb (all *entry-level* damage is
/// absorbed and surfaces as misses + quarantine instead).
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// What the store was doing.
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error text.
        error: String,
    },
    /// The directory exists but is not a compatible store.
    NotAStore {
        /// The directory that was opened.
        path: PathBuf,
        /// The marker contents found (`None`: unreadable).
        found: Option<String>,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, path, error } => {
                write!(f, "store: cannot {op} {}: {error}", path.display())
            }
            StoreError::NotAStore { path, found } => write!(
                f,
                "store: {} is not a {STORE_VERSION} store (marker: {found:?})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Store configuration.
#[derive(Debug, Clone, Default)]
pub struct StoreConfig {
    /// Evict oldest entries beyond this bound after writes (`None`:
    /// unbounded).
    pub max_entries: Option<usize>,
}

/// Monotonic operation accounting (since open).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Reads served with a validated entry.
    pub hits: u64,
    /// Reads that found nothing (or only damage).
    pub misses: u64,
    /// Entries successfully published.
    pub writes: u64,
    /// Writes that failed before publish (torn write, ENOSPC, …).
    pub write_errors: u64,
    /// Damaged files moved to `quarantine/`.
    pub quarantined: u64,
    /// Reads that failed once but succeeded on the one retry
    /// (transient short reads).
    pub transient_reads: u64,
    /// Entries removed by the size bound.
    pub evictions: u64,
    /// `tmp/` debris files swept at open.
    pub recovered_tmp: u64,
}

/// Result of a full [`DiskStore::recover`] scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Entry files examined.
    pub scanned: usize,
    /// Entries that decoded and verified.
    pub intact: usize,
    /// Damaged files moved to `quarantine/`.
    pub quarantined: usize,
}

/// The durable sharded result store. Thread-safe: worker threads persist
/// entries concurrently; cross-process safety comes from rename
/// atomicity and per-entry validation, not locking.
pub struct DiskStore {
    root: PathBuf,
    fs: Arc<dyn StoreFs>,
    config: StoreConfig,
    stats: Mutex<StoreStats>,
    /// Approximate entry count (exact while this process is the only
    /// writer; resynced by `recover`).
    entries: AtomicUsize,
    /// Unique temp-file discriminator within this process.
    temp_seq: AtomicU64,
    /// Successful publishes, for the kill-point hook. While the hook is
    /// armed its lock is held across every publish, so no thread can
    /// publish between the N-th publish and the exit.
    puts: Mutex<u64>,
    kill_after: Option<u64>,
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStore")
            .field("root", &self.root)
            .field("entries", &self.entries.load(Ordering::Relaxed))
            .finish()
    }
}

impl DiskStore {
    /// Opens (creating if necessary) a store on the real filesystem with
    /// default configuration.
    ///
    /// # Errors
    ///
    /// Fails only for directory-level problems: unwritable root, or a
    /// root that carries a foreign marker. Entry damage never fails an
    /// open.
    pub fn open(root: impl AsRef<Path>) -> Result<DiskStore, StoreError> {
        DiskStore::open_with(root, StoreConfig::default(), Arc::new(RealFs))
    }

    /// Opens on the real filesystem with explicit configuration.
    ///
    /// # Errors
    ///
    /// See [`DiskStore::open`].
    pub fn open_config(
        root: impl AsRef<Path>,
        config: StoreConfig,
    ) -> Result<DiskStore, StoreError> {
        DiskStore::open_with(root, config, Arc::new(RealFs))
    }

    /// Opens with explicit configuration and filesystem (tests inject
    /// [`crate::FaultyFs`] here).
    ///
    /// # Errors
    ///
    /// See [`DiskStore::open`].
    pub fn open_with(
        root: impl AsRef<Path>,
        config: StoreConfig,
        fs: Arc<dyn StoreFs>,
    ) -> Result<DiskStore, StoreError> {
        let root = root.as_ref().to_path_buf();
        let io = |op: &'static str, path: &Path| {
            let path = path.to_path_buf();
            move |e: std::io::Error| StoreError::Io { op, path, error: e.to_string() }
        };
        for sub in ["shards", "tmp", "quarantine"] {
            let dir = root.join(sub);
            fs.create_dir_all(&dir).map_err(io("create", &dir))?;
        }

        // Marker: verify a compatible store, or stamp a fresh one.
        let marker = root.join(STORE_MARKER);
        if fs.exists(&marker) {
            let bytes = fs.read(&marker).map_err(io("read", &marker))?;
            let found = String::from_utf8_lossy(&bytes).lines().next().unwrap_or("").to_string();
            if found != STORE_VERSION {
                return Err(StoreError::NotAStore { path: root, found: Some(found) });
            }
        } else {
            // create_new tolerates a concurrent opener stamping first.
            match fs.create_new(&marker, format!("{STORE_VERSION}\n").as_bytes()) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(io("stamp", &marker)(e)),
            }
        }

        let mut stats = StoreStats::default();

        // Crash recovery: anything in tmp/ is debris from a died writer.
        let tmp = root.join("tmp");
        for leftover in fs.read_dir_sorted(&tmp).map_err(io("list", &tmp))? {
            if fs.remove_file(&leftover).is_ok() {
                stats.recovered_tmp += 1;
            }
        }

        // Entry count: one counting read_dir per populated shard.
        let mut entries = 0usize;
        let shards = root.join("shards");
        for shard in fs.read_dir_sorted(&shards).map_err(io("list", &shards))? {
            entries += fs.count_suffix(&shard, ".entry").unwrap_or(0);
        }

        let kill_after = std::env::var(KILL_AFTER_PUTS_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok());

        Ok(DiskStore {
            root,
            fs,
            config,
            stats: Mutex::new(stats),
            entries: AtomicUsize::new(entries),
            temp_seq: AtomicU64::new(0),
            puts: Mutex::new(0),
            kill_after,
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> StoreStats {
        *self.stats.lock().expect("store stats lock")
    }

    /// Approximate number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        let hash = fnv1a64(key.as_bytes());
        self.root
            .join("shards")
            .join(format!("{:02x}", hash >> 56))
            .join(format!("{}-{hash:016x}.entry", sanitize(key)))
    }

    /// Looks up `key`, fully validating the entry. Damage quarantines
    /// the file and reads as a miss. A decode failure is retried once
    /// (reads are not atomic against concurrent writers on every
    /// filesystem), so a transient short read does not quarantine an
    /// intact entry.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        let path = self.entry_path(key);
        for attempt in 0..2 {
            let bytes = match self.fs.read(&path) {
                Ok(bytes) => bytes,
                Err(_) => {
                    // Missing or unreadable: a miss, nothing to quarantine.
                    self.stat(|s| s.misses += 1);
                    return None;
                }
            };
            match decode_entry(&bytes, Some(key)) {
                Ok((_, payload)) => {
                    self.stat(|s| {
                        s.hits += 1;
                        if attempt > 0 {
                            s.transient_reads += 1;
                        }
                    });
                    return Some(payload);
                }
                Err(_) if attempt == 0 => continue,
                Err(reason) => {
                    self.quarantine(&path, &reason.to_string());
                    snoop_numeric::probe::counter_add("store.quarantined", 1);
                    self.stat(|s| s.misses += 1);
                    return None;
                }
            }
        }
        unreachable!("loop returns on every path");
    }

    /// Whether an entry file exists for `key` (no validation, no
    /// accounting — used for resume planning).
    pub fn contains(&self, key: &str) -> bool {
        self.fs.exists(&self.entry_path(key))
    }

    /// Durably publishes `payload` under `key`: write to `tmp/`, then
    /// atomic rename into the shard. Re-putting a key replaces its entry
    /// atomically.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the write or rename fails; the
    /// store is unchanged (a torn temp file is removed, and swept at the
    /// next open even if the process dies first).
    pub fn put(&self, key: &str, payload: &[u8]) -> Result<(), StoreError> {
        let final_path = self.entry_path(key);
        let temp_path = self.root.join("tmp").join(format!(
            "{}.{}.{}.tmp",
            final_path.file_stem().and_then(|s| s.to_str()).unwrap_or("entry"),
            std::process::id(),
            self.temp_seq.fetch_add(1, Ordering::Relaxed),
        ));
        let encoded = encode_entry(key, payload);

        if let Err(e) = self.fs.write(&temp_path, &encoded) {
            self.stat(|s| s.write_errors += 1);
            let _ = self.fs.remove_file(&temp_path); // best effort
            return Err(StoreError::Io {
                op: "write",
                path: temp_path,
                error: e.to_string(),
            });
        }
        // Shard directories materialize on first use (256 up-front mkdirs
        // would dwarf most stores).
        if let Some(shard) = final_path.parent() {
            if let Err(e) = self.fs.create_dir_all(shard) {
                self.stat(|s| s.write_errors += 1);
                let _ = self.fs.remove_file(&temp_path);
                return Err(StoreError::Io {
                    op: "create shard",
                    path: shard.to_path_buf(),
                    error: e.to_string(),
                });
            }
        }
        // Deterministic kill point for crash tests (see KILL_AFTER_PUTS_ENV):
        // publishing and counting form one critical section.
        let kill_gate =
            self.kill_after.map(|limit| (limit, self.puts.lock().expect("store puts lock")));
        let existed = self.fs.exists(&final_path);
        if let Err(e) = self.fs.rename(&temp_path, &final_path) {
            self.stat(|s| s.write_errors += 1);
            let _ = self.fs.remove_file(&temp_path);
            return Err(StoreError::Io {
                op: "publish",
                path: final_path,
                error: e.to_string(),
            });
        }
        if !existed {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        self.stat(|s| s.writes += 1);
        self.enforce_bound();

        if let Some((limit, mut puts)) = kill_gate {
            *puts += 1;
            if *puts == limit {
                // Exits with the gate held: threads waiting to publish
                // never get to.
                eprintln!("store: injected kill after {limit} put(s)");
                std::process::exit(3);
            }
        }
        Ok(())
    }

    /// Full integrity scan: decodes every entry, quarantining damage.
    /// Also resynchronizes the entry counter (another process may have
    /// written since open).
    pub fn recover(&self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let shards = self.root.join("shards");
        for shard in self.fs.read_dir_sorted(&shards).unwrap_or_default() {
            for file in self.fs.read_dir_sorted(&shard).unwrap_or_default() {
                if file.extension().is_none_or(|e| e != "entry") {
                    continue;
                }
                report.scanned += 1;
                let intact = match self.fs.read(&file) {
                    Ok(bytes) => decode_entry(&bytes, None).is_ok(),
                    Err(_) => false,
                };
                if intact {
                    report.intact += 1;
                } else {
                    self.quarantine(&file, "recovery scan");
                    report.quarantined += 1;
                }
            }
        }
        self.entries.store(report.intact, Ordering::Relaxed);
        report
    }

    /// Moves a damaged file into `quarantine/`, keeping it for autopsy
    /// instead of deleting. Never fails: if even the rename fails the
    /// file is removed, and if that fails too the entry simply stays
    /// (and keeps reading as a miss).
    fn quarantine(&self, path: &Path, reason: &str) {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("entry");
        let dest = self.root.join("quarantine").join(format!(
            "{}.{}.{}",
            name,
            std::process::id(),
            self.temp_seq.fetch_add(1, Ordering::Relaxed),
        ));
        let moved = self.fs.rename(path, &dest).is_ok();
        if !moved && self.fs.remove_file(path).is_err() && self.fs.exists(path) {
            return; // nothing worked; leave it (still never served)
        }
        eprintln!("store: quarantined {name} ({reason})");
        self.stat(|s| s.quarantined += 1);
        let before = self.entries.load(Ordering::Relaxed);
        if before > 0 {
            self.entries.store(before - 1, Ordering::Relaxed);
        }
    }

    /// Evicts oldest entries (by modification time, then name) while the
    /// store exceeds `max_entries`.
    fn enforce_bound(&self) {
        let Some(max) = self.config.max_entries else { return };
        if self.entries.load(Ordering::Relaxed) <= max {
            return;
        }
        // Collect (mtime, file name, path) across all shards; oldest
        // leave first. The file name — sanitize(key) + key hash — is
        // the tie-break, so among same-mtime entries (coarse filesystem
        // timestamps, same-batch writes) the eviction set is a pure
        // function of the keys, not of shard layout or enumeration
        // order.
        let mut candidates: Vec<(std::time::SystemTime, std::ffi::OsString, PathBuf)> =
            Vec::new();
        let shards = self.root.join("shards");
        for shard in self.fs.read_dir_sorted(&shards).unwrap_or_default() {
            for file in self.fs.read_dir_sorted(&shard).unwrap_or_default() {
                if file.extension().is_none_or(|e| e != "entry") {
                    continue;
                }
                let mtime =
                    self.fs.modified(&file).unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                let name = file.file_name().map(ToOwned::to_owned).unwrap_or_default();
                candidates.push((mtime, name, file));
            }
        }
        candidates.sort();
        let excess = candidates.len().saturating_sub(max);
        let mut evicted = 0u64;
        for (_, _, path) in candidates.into_iter().take(excess) {
            if self.fs.remove_file(&path).is_ok() {
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.stat(|s| s.evictions += evicted);
            let now = self.entries.load(Ordering::Relaxed);
            self.entries.store(now.saturating_sub(evicted as usize), Ordering::Relaxed);
        }
    }

    fn stat(&self, update: impl FnOnce(&mut StoreStats)) {
        update(&mut self.stats.lock().expect("store stats lock"));
    }
}

/// Filesystem-safe rendering of a key (the exact key lives inside the
/// entry; collisions are disambiguated by the appended hash and caught
/// by the embedded-key check).
fn sanitize(key: &str) -> String {
    key.chars()
        .take(64)
        .map(|c| if c.is_ascii_alphanumeric() || "._-".contains(c) { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::FaultyFs;
    use snoop_numeric::fault::{StorageFault, StoragePlan};
    use std::time::{Duration, SystemTime};

    fn fresh(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("snoop-store-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn faulty(dir: &Path, plan: StoragePlan) -> DiskStore {
        DiskStore::open_with(dir, StoreConfig::default(), FaultyFs::real(plan)).unwrap()
    }

    #[test]
    fn put_get_round_trip_and_persistence() {
        let dir = fresh("round-trip");
        let store = DiskStore::open(&dir).unwrap();
        assert!(store.is_empty());
        store.put("mva:00aa", b"one").unwrap();
        store.put("sim:00bb", b"two").unwrap();
        assert_eq!(store.get("mva:00aa").unwrap(), b"one");
        assert_eq!(store.len(), 2);
        assert!(store.get("gtpn:none").is_none());
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.writes), (1, 1, 2));

        // A second open (same or another process) sees everything.
        let reopened = DiskStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get("sim:00bb").unwrap(), b"two");
        assert!(reopened.contains("mva:00aa"));
    }

    #[test]
    fn reput_replaces_atomically_without_growth() {
        let dir = fresh("reput");
        let store = DiskStore::open(&dir).unwrap();
        store.put("k", b"v1").unwrap();
        store.put("k", b"v2").unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get("k").unwrap(), b"v2");
    }

    #[test]
    fn awkward_keys_round_trip() {
        let dir = fresh("awkward");
        let store = DiskStore::open(&dir).unwrap();
        for key in ["mva:0123456789abcdef", "a/b\\c d:e", "ключ", "..", ""] {
            store.put(key, key.as_bytes()).unwrap();
        }
        for key in ["mva:0123456789abcdef", "a/b\\c d:e", "ключ", "..", ""] {
            assert_eq!(store.get(key).unwrap(), key.as_bytes(), "{key:?}");
        }
        // Sanitization collisions resolve by hash suffix: these two keys
        // sanitize identically but stay distinct entries.
        store.put("x:y", b"colon").unwrap();
        store.put("x_y", b"underscore").unwrap();
        assert_eq!(store.get("x:y").unwrap(), b"colon");
        assert_eq!(store.get("x_y").unwrap(), b"underscore");
    }

    #[test]
    fn torn_write_publishes_nothing_and_recovers() {
        let dir = fresh("torn");
        let store = faulty(
            &dir,
            // Write op 1 is the first entry's temp write (the marker is
            // stamped with create_new, which is not faultable).
            StoragePlan::new().with_fault(StorageFault::TornWrite { op: 1, keep: 10 }),
        );
        let err = store.put("mva:aa", b"payload").unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        assert!(store.get("mva:aa").is_none());
        assert_eq!(store.stats().write_errors, 1);
        // The failed put left no entry and the next put succeeds.
        store.put("mva:aa", b"payload").unwrap();
        assert_eq!(store.get("mva:aa").unwrap(), b"payload");
        assert_eq!(store.len(), 1);
        // Even if the torn temp file had survived (process death before
        // cleanup), a reopen sweeps tmp/ — simulate the debris.
        std::fs::write(dir.join("tmp").join("debris.tmp"), b"partial").unwrap();
        let reopened = DiskStore::open(&dir).unwrap();
        assert_eq!(reopened.stats().recovered_tmp, 1);
        assert!(DiskStore::open(&dir).unwrap().stats().recovered_tmp == 0);
    }

    #[test]
    fn enospc_is_a_clean_error() {
        let dir = fresh("enospc");
        let store =
            faulty(&dir, StoragePlan::new().with_fault(StorageFault::Enospc { op: 1 }));
        let err = store.put("k", b"v").unwrap_err();
        assert!(err.to_string().contains("space"), "{err}");
        assert!(store.is_empty());
        store.put("k", b"v").unwrap();
        assert_eq!(store.get("k").unwrap(), b"v");
    }

    #[test]
    fn bit_flip_is_detected_and_quarantined() {
        let dir = fresh("bitflip");
        let store = faulty(
            &dir,
            StoragePlan::new().with_fault(StorageFault::BitFlip { op: 1, byte: 40 }),
        );
        store.put("mva:bb", b"supposedly durable bytes").unwrap(); // "succeeds"
        // Both read attempts see the same damaged file: quarantine.
        assert!(store.get("mva:bb").is_none());
        let s = store.stats();
        assert_eq!(s.quarantined, 1);
        assert_eq!(store.len(), 0);
        // The damaged file is kept for autopsy, not deleted.
        let quarantined: Vec<_> =
            std::fs::read_dir(dir.join("quarantine")).unwrap().collect();
        assert_eq!(quarantined.len(), 1);
        // The store still works.
        store.put("mva:bb", b"supposedly durable bytes").unwrap();
        assert_eq!(store.get("mva:bb").unwrap(), b"supposedly durable bytes");
    }

    #[test]
    fn transient_short_read_does_not_quarantine() {
        let dir = fresh("shortread");
        let store = faulty(
            &dir,
            // Read op 1 is the first get attempt; the in-place retry is
            // read op 2 and sees the intact file.
            StoragePlan::new().with_fault(StorageFault::ShortRead { op: 1, keep: 8 }),
        );
        store.put("k", b"intact on disk").unwrap();
        // First read is short, the retry decodes: served, not quarantined.
        assert_eq!(store.get("k").unwrap(), b"intact on disk");
        let s = store.stats();
        assert_eq!((s.hits, s.quarantined, s.transient_reads), (1, 0, 1));
    }

    #[test]
    fn persistent_truncation_quarantines_on_read() {
        let dir = fresh("truncate");
        let store = DiskStore::open(&dir).unwrap();
        store.put("k", b"0123456789").unwrap();
        // Truncate the entry on disk (what a torn write under rename-less
        // storage, or `truncate(1)`, would leave).
        let path = store.entry_path("k");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(store.get("k").is_none());
        assert_eq!(store.stats().quarantined, 1);
    }

    #[test]
    fn recover_scan_quarantines_only_the_damaged() {
        let dir = fresh("recover");
        let store = DiskStore::open(&dir).unwrap();
        for i in 0..6 {
            store.put(&format!("mva:{i:04x}"), format!("value {i}").as_bytes()).unwrap();
        }
        // Damage two entries on disk: flip a bit in one, truncate another.
        let flip_path = store.entry_path("mva:0001");
        let mut bytes = std::fs::read(&flip_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&flip_path, &bytes).unwrap();
        let trunc_path = store.entry_path("mva:0004");
        let bytes = std::fs::read(&trunc_path).unwrap();
        std::fs::write(&trunc_path, &bytes[..10]).unwrap();

        let reopened = DiskStore::open(&dir).unwrap();
        let report = reopened.recover();
        assert_eq!(report, RecoveryReport { scanned: 6, intact: 4, quarantined: 2 });
        assert_eq!(reopened.len(), 4);
        // Intact entries still serve; damaged read as misses.
        assert_eq!(reopened.get("mva:0000").unwrap(), b"value 0");
        assert!(reopened.get("mva:0001").is_none());
        assert!(reopened.get("mva:0004").is_none());
        // A second scan finds a fully intact store.
        assert_eq!(reopened.recover(), RecoveryReport { scanned: 4, intact: 4, quarantined: 0 });
    }

    #[test]
    fn open_counts_only_entry_files() {
        let dir = fresh("count");
        let store = DiskStore::open(&dir).unwrap();
        for i in 0..40 {
            store.put(&format!("mva:{i:016x}"), b"v").unwrap();
        }
        drop(store);
        // Debris a count must skip: stray files in a shard (one only
        // contains the suffix) and a leftover temp file.
        let shard = std::fs::read_dir(dir.join("shards")).unwrap().next().unwrap().unwrap().path();
        std::fs::write(shard.join("notes.txt"), b"x").unwrap();
        std::fs::write(shard.join("a.entry.tmp"), b"x").unwrap();
        std::fs::write(dir.join("tmp").join("debris.tmp"), b"partial").unwrap();
        let on_disk = entry_names(&dir).len();
        assert_eq!(on_disk, 40);

        // RealFs's own count, and the trait's default (FaultyFs keeps it,
        // so fault plans see the listing), agree with the files.
        let counted: usize = std::fs::read_dir(dir.join("shards"))
            .unwrap()
            .map(|shard| RealFs.count_suffix(&shard.unwrap().path(), ".entry").unwrap())
            .sum();
        assert_eq!(counted, on_disk);
        assert_eq!(DiskStore::open(&dir).unwrap().len(), on_disk);
        let faulty = faulty(&dir, StoragePlan::new());
        assert_eq!(faulty.len(), on_disk);
        assert_eq!(RealFs.count_suffix(&dir.join("missing"), ".entry").unwrap(), 0);
    }

    #[test]
    fn eviction_enforces_the_entry_bound() {
        let dir = fresh("eviction");
        let config = StoreConfig { max_entries: Some(3) };
        let store = DiskStore::open_with(&dir, config, Arc::new(RealFs)).unwrap();
        for i in 0..8 {
            store.put(&format!("k{i}"), b"v").unwrap();
        }
        assert!(store.len() <= 3, "len = {}", store.len());
        assert!(store.stats().evictions >= 5);
        // Reopen agrees with the on-disk population.
        assert!(DiskStore::open(&dir).unwrap().len() <= 3);
    }

    /// Delegates to [`RealFs`] but reports the same mtime for every
    /// file, modelling coarse filesystem timestamps where a whole batch
    /// of writes lands in one tick.
    struct ConstantMtimeFs;

    impl StoreFs for ConstantMtimeFs {
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            RealFs.read(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            RealFs.write(path, bytes)
        }
        fn create_new(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            RealFs.create_new(path, bytes)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            RealFs.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            RealFs.remove_file(path)
        }
        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            RealFs.create_dir_all(path)
        }
        fn read_dir_sorted(&self, path: &Path) -> std::io::Result<Vec<PathBuf>> {
            RealFs.read_dir_sorted(path)
        }
        fn modified(&self, _path: &Path) -> std::io::Result<SystemTime> {
            Ok(SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000))
        }
        fn exists(&self, path: &Path) -> bool {
            RealFs.exists(path)
        }
    }

    /// Every `.entry` file name under `root/shards`, sorted.
    fn entry_names(root: &Path) -> Vec<String> {
        let mut names = Vec::new();
        for shard in std::fs::read_dir(root.join("shards")).unwrap() {
            for file in std::fs::read_dir(shard.unwrap().path()).unwrap() {
                let name = file.unwrap().file_name().to_string_lossy().into_owned();
                if name.ends_with(".entry") {
                    names.push(name);
                }
            }
        }
        names.sort();
        names
    }

    #[test]
    fn same_mtime_eviction_is_deterministic_by_key_not_shard_layout() {
        // The differing character leads the key: FNV's high bits (the
        // shard) barely change for trailing-character differences, and
        // same-shard entries cannot distinguish name order from path
        // order.
        let keys: Vec<String> = (0..12).map(|i| format!("k{i}:mva")).collect();

        // Reference pass, unbounded: learn every entry's file name and
        // derive the expected survivors — the 3 largest *names* (the
        // name embeds the sanitized key + key hash, so this order is a
        // pure function of the keys; the old full-path sort ordered by
        // shard directory instead).
        let reference = fresh("eviction-tie-reference");
        let unbounded =
            DiskStore::open_with(&reference, StoreConfig::default(), Arc::new(ConstantMtimeFs))
                .unwrap();
        for key in &keys {
            unbounded.put(key, b"v").unwrap();
        }
        let all_names = entry_names(&reference);
        assert_eq!(all_names.len(), keys.len());
        let expected: Vec<String> = all_names[all_names.len() - 3..].to_vec();

        // Bounded passes: forward and reverse insertion orders must
        // evict down to exactly those survivors.
        for (label, order) in [
            ("forward", keys.clone()),
            ("reverse", keys.iter().rev().cloned().collect::<Vec<_>>()),
        ] {
            let dir = fresh(&format!("eviction-tie-{label}"));
            let config = StoreConfig { max_entries: Some(3) };
            let store =
                DiskStore::open_with(&dir, config, Arc::new(ConstantMtimeFs)).unwrap();
            for key in &order {
                store.put(key, b"v").unwrap();
            }
            assert_eq!(entry_names(&dir), expected, "{label} insertion order");
        }
    }

    #[test]
    fn concurrent_readers_and_writers_stay_coherent() {
        let dir = fresh("concurrent");
        let store = Arc::new(DiskStore::open(&dir).unwrap());
        store.put("shared", b"warm").unwrap();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        let key = format!("t{t}:{i}");
                        store.put(&key, key.as_bytes()).unwrap();
                        assert_eq!(store.get(&key).unwrap(), key.as_bytes());
                        assert_eq!(store.get("shared").unwrap(), b"warm");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 101);
        assert_eq!(store.stats().write_errors, 0);
    }

    #[test]
    fn foreign_marker_is_rejected() {
        let dir = fresh("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(STORE_MARKER), "some-other-format-v9\n").unwrap();
        let err = DiskStore::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::NotAStore { .. }), "{err}");
        assert!(err.to_string().contains("some-other-format-v9"));
    }

    #[test]
    fn stats_are_coherent_after_mixed_traffic() {
        let dir = fresh("stats");
        let store = DiskStore::open(&dir).unwrap();
        store.put("a", b"1").unwrap();
        store.put("b", b"2").unwrap();
        store.get("a");
        store.get("missing");
        let s = store.stats();
        assert_eq!((s.writes, s.hits, s.misses), (2, 1, 1));
        assert_eq!(s.write_errors + s.quarantined + s.evictions, 0);
    }
}
