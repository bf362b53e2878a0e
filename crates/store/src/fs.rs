//! Filesystem access behind a trait, so the adversary can sit where the
//! kernel would.
//!
//! [`RealFs`] forwards to `std::fs`. [`FaultyFs`] wraps any other
//! [`StoreFs`] and injects the deterministic storage failure modes of a
//! [`snoop_numeric::fault::StoragePlan`]: torn writes, `ENOSPC`, short
//! reads and silent bit flips, scheduled purely by operation count so
//! every failure is reproducible.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use snoop_numeric::fault::{StorageFault, StoragePlan};

/// The filesystem operations the store needs. Implementations must be
/// thread-safe: the engine persists entries from worker threads.
pub trait StoreFs: Send + Sync {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Writes a whole file (create or truncate). **Not** atomic — the
    /// store only ever calls this on `tmp/` paths and publishes with
    /// [`StoreFs::rename`].
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Creates a file that must not already exist (used to stamp the
    /// store's version marker; `O_CREAT | O_EXCL` semantics).
    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` to `to` (same filesystem).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file (missing files are an error, as in `std::fs`).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Recursively creates a directory.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Lists a directory's entries, **sorted by file name** so scans are
    /// deterministic. A missing directory lists as empty.
    fn read_dir_sorted(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
    /// Counts a directory's entries whose file name ends in `suffix`. A
    /// missing directory counts as zero.
    fn count_suffix(&self, path: &Path, suffix: &str) -> io::Result<usize> {
        Ok(self
            .read_dir_sorted(path)?
            .iter()
            .filter(|p| {
                p.file_name().is_some_and(|n| n.as_encoded_bytes().ends_with(suffix.as_bytes()))
            })
            .count())
    }
    /// A file's last-modification time.
    fn modified(&self, path: &Path) -> io::Result<SystemTime>;
    /// Whether a path exists.
    fn exists(&self, path: &Path) -> bool;
}

/// The production implementation: plain `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl StoreFs for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().write(true).create_new(true).open(path)?;
        f.write_all(bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read_dir_sorted(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries = Vec::new();
        match std::fs::read_dir(path) {
            Ok(dir) => {
                for entry in dir {
                    entries.push(entry?.path());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        entries.sort();
        Ok(entries)
    }

    /// One plain `read_dir` pass: no paths built, nothing collected or
    /// sorted (the store counts its entries this way at every open).
    fn count_suffix(&self, path: &Path, suffix: &str) -> io::Result<usize> {
        let dir = match std::fs::read_dir(path) {
            Ok(dir) => dir,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut count = 0;
        for entry in dir {
            if entry?.file_name().as_encoded_bytes().ends_with(suffix.as_bytes()) {
                count += 1;
            }
        }
        Ok(count)
    }

    fn modified(&self, path: &Path) -> io::Result<SystemTime> {
        std::fs::metadata(path)?.modified()
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// The storage adversary: wraps an inner [`StoreFs`] and injects the
/// faults of a [`StoragePlan`], scheduled deterministically by operation
/// count (reads and writes counted independently).
///
/// * [`StorageFault::TornWrite`] — the inner write persists only a
///   prefix, then the call fails with [`io::ErrorKind::Interrupted`]
///   (the caller believes nothing landed — exactly what a crash
///   mid-`write(2)` looks like after restart);
/// * [`StorageFault::Enospc`] — the write fails with an ENOSPC-style
///   error and persists nothing;
/// * [`StorageFault::ShortRead`] — the read silently returns a prefix;
/// * [`StorageFault::BitFlip`] — the write silently persists one flipped
///   bit and reports success.
///
/// Only `read` and `write` are faultable: `rename` is atomic by
/// contract, and claim/removal faults are not part of the matrix the
/// store promises to survive (a lost claim file only costs duplicated
/// work, never correctness).
pub struct FaultyFs<F = RealFs> {
    inner: F,
    plan: Mutex<StoragePlan>,
}

impl<F: StoreFs> FaultyFs<F> {
    /// Wraps `inner`, injecting `plan`'s faults.
    pub fn new(inner: F, plan: StoragePlan) -> Self {
        FaultyFs { inner, plan: Mutex::new(plan) }
    }

    /// `(reads, writes)` the adversary has seen.
    pub fn ops(&self) -> (usize, usize) {
        self.plan.lock().expect("fault plan lock").ops()
    }
}

impl FaultyFs<RealFs> {
    /// An adversary over the real filesystem.
    pub fn real(plan: StoragePlan) -> Arc<Self> {
        Arc::new(FaultyFs::new(RealFs, plan))
    }
}

impl<F: StoreFs> StoreFs for FaultyFs<F> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let fault = self.plan.lock().expect("fault plan lock").begin_read();
        let mut bytes = self.inner.read(path)?;
        if let Some(StorageFault::ShortRead { keep, .. }) = fault {
            bytes.truncate(keep);
        }
        Ok(bytes)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let fault = self.plan.lock().expect("fault plan lock").begin_write();
        match fault {
            Some(StorageFault::TornWrite { keep, .. }) => {
                let keep = keep.min(bytes.len());
                self.inner.write(path, &bytes[..keep])?;
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("injected torn write after {keep} bytes"),
                ))
            }
            Some(StorageFault::Enospc { .. }) => {
                Err(io::Error::other("injected ENOSPC: no space left on device"))
            }
            Some(StorageFault::BitFlip { byte, .. }) if !bytes.is_empty() => {
                let mut damaged = bytes.to_vec();
                let index = byte % damaged.len();
                damaged[index] ^= 1;
                self.inner.write(path, &damaged)
            }
            _ => self.inner.write(path, bytes),
        }
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.create_new(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read_dir_sorted(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir_sorted(path)
    }

    fn modified(&self, path: &Path) -> io::Result<SystemTime> {
        self.inner.modified(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("snoop-store-fs-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn real_fs_round_trips_and_lists_sorted() {
        let dir = tmp("realfs");
        let _ = std::fs::remove_dir_all(&dir);
        let fs = RealFs;
        fs.create_dir_all(&dir).unwrap();
        fs.write(&dir.join("b.x"), b"bee").unwrap();
        fs.write(&dir.join("a.x"), b"ay").unwrap();
        assert_eq!(fs.read(&dir.join("a.x")).unwrap(), b"ay");
        let listed = fs.read_dir_sorted(&dir).unwrap();
        assert_eq!(
            listed.iter().map(|p| p.file_name().unwrap().to_str().unwrap()).collect::<Vec<_>>(),
            vec!["a.x", "b.x"]
        );
        // Missing directories list empty, matching scan semantics.
        assert!(fs.read_dir_sorted(&dir.join("missing")).unwrap().is_empty());
    }

    #[test]
    fn torn_write_persists_a_prefix_and_errors() {
        let path = tmp("torn.bin");
        let _ = std::fs::remove_file(&path);
        let fs = FaultyFs::new(
            RealFs,
            StoragePlan::new().with_fault(StorageFault::TornWrite { op: 1, keep: 4 }),
        );
        let err = fs.write(&path, b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(std::fs::read(&path).unwrap(), b"0123");
        // The next write is clean.
        fs.write(&path, b"0123456789").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"0123456789");
    }

    #[test]
    fn enospc_persists_nothing() {
        let path = tmp("enospc.bin");
        let _ = std::fs::remove_file(&path);
        let fs = FaultyFs::new(
            RealFs,
            StoragePlan::new().with_fault(StorageFault::Enospc { op: 1 }),
        );
        assert!(fs.write(&path, b"data").is_err());
        assert!(!path.exists());
    }

    #[test]
    fn short_read_truncates_silently() {
        let path = tmp("short.bin");
        std::fs::write(&path, b"full contents").unwrap();
        let fs = FaultyFs::new(
            RealFs,
            StoragePlan::new().with_fault(StorageFault::ShortRead { op: 2, keep: 4 }),
        );
        assert_eq!(fs.read(&path).unwrap(), b"full contents");
        assert_eq!(fs.read(&path).unwrap(), b"full");
        assert_eq!(fs.read(&path).unwrap(), b"full contents");
    }

    #[test]
    fn bit_flip_reports_success_with_damaged_bytes() {
        let path = tmp("flip.bin");
        let fs = FaultyFs::new(
            RealFs,
            StoragePlan::new().with_fault(StorageFault::BitFlip { op: 1, byte: 2 }),
        );
        fs.write(&path, b"abcd").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"ab\x62d"); // 'c' ^ 1 = 'b'
    }
}
