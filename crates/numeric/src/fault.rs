//! Deterministic storage-fault schedules.
//!
//! A crash-safe store must survive torn writes, a full volume, short reads
//! and silent bit flips. [`StoragePlan`] schedules those failures by
//! operation count, so every run is deterministic and every failure
//! reproducible; `snoop-store`'s `FaultyFs` consults it on each filesystem
//! operation.
//!
//! # Example
//!
//! ```
//! use snoop_numeric::fault::{StorageFault, StoragePlan};
//!
//! // The second write tears after 4 bytes; reads are never faulted.
//! let mut plan = StoragePlan::new().with_fault(StorageFault::TornWrite { op: 2, keep: 4 });
//! assert_eq!(plan.begin_write(), None);
//! assert_eq!(plan.begin_read(), None);
//! assert_eq!(plan.begin_write(), Some(StorageFault::TornWrite { op: 2, keep: 4 }));
//! ```

/// A single scheduled storage fault. Operation counts are 1-based and
/// counted *per class*: the first write the store performs is write-op 1,
/// the first read is read-op 1 — so a plan is deterministic no matter how
/// reads and writes interleave.
///
/// The four variants are the classic storage failure modes a crash-safe
/// store must survive:
///
/// * **torn write** — the process (or kernel) dies mid-`write(2)`; the
///   file keeps a prefix of the intended bytes and the caller sees an
///   error (or nothing at all, if the crash takes the process with it);
/// * **ENOSPC** — the volume fills; nothing (or only a prefix) lands;
/// * **short read** — a reader sees a truncated view (concurrent
///   truncation, torn page, buggy NFS);
/// * **bit flip** — silent media corruption: the write *appears* to
///   succeed but one bit differs on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// Write-op `op` persists only the first `keep` bytes, then fails.
    TornWrite {
        /// 1-based write-operation number at which to inject.
        op: usize,
        /// Bytes that make it to disk before the tear.
        keep: usize,
    },
    /// Write-op `op` fails with `ENOSPC` before persisting anything.
    Enospc {
        /// 1-based write-operation number at which to inject.
        op: usize,
    },
    /// Read-op `op` returns only the first `keep` bytes of the file.
    ShortRead {
        /// 1-based read-operation number at which to inject.
        op: usize,
        /// Bytes the reader sees.
        keep: usize,
    },
    /// Write-op `op` silently flips the lowest bit of byte `byte`
    /// (modulo the payload length) and reports success.
    BitFlip {
        /// 1-based write-operation number at which to inject.
        op: usize,
        /// Byte index to corrupt (taken modulo the payload length).
        byte: usize,
    },
}

impl StorageFault {
    /// Whether this fault fires on read operations (else on writes).
    pub fn is_read_fault(&self) -> bool {
        matches!(self, StorageFault::ShortRead { .. })
    }

    /// The 1-based operation number this fault is scheduled for.
    pub fn op(&self) -> usize {
        match *self {
            StorageFault::TornWrite { op, .. }
            | StorageFault::Enospc { op }
            | StorageFault::ShortRead { op, .. }
            | StorageFault::BitFlip { op, .. } => op,
        }
    }
}

/// A deterministic storage-fault schedule: counts read and write
/// operations independently and reports which fault (if any) fires on
/// each. The storage adversary (`snoop-store`'s `FaultyFs`) consults the
/// plan on every filesystem operation, so a given plan produces exactly
/// the same failure in every run.
#[derive(Debug, Clone, Default)]
pub struct StoragePlan {
    faults: Vec<StorageFault>,
    reads: usize,
    writes: usize,
}

impl StoragePlan {
    /// An empty plan (no faults ever fire).
    pub fn new() -> Self {
        StoragePlan::default()
    }

    /// Adds a fault to the schedule (builder style).
    pub fn with_fault(mut self, fault: StorageFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Registers the next read operation and returns the fault that
    /// fires on it, if any.
    pub fn begin_read(&mut self) -> Option<StorageFault> {
        self.reads += 1;
        let n = self.reads;
        self.faults.iter().copied().find(|f| f.is_read_fault() && f.op() == n)
    }

    /// Registers the next write operation and returns the fault that
    /// fires on it, if any.
    pub fn begin_write(&mut self) -> Option<StorageFault> {
        self.writes += 1;
        let n = self.writes;
        self.faults.iter().copied().find(|f| !f.is_read_fault() && f.op() == n)
    }

    /// `(reads, writes)` seen so far.
    pub fn ops(&self) -> (usize, usize) {
        (self.reads, self.writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_plan_counts_reads_and_writes_independently() {
        let mut plan = StoragePlan::new()
            .with_fault(StorageFault::ShortRead { op: 2, keep: 4 })
            .with_fault(StorageFault::Enospc { op: 2 });
        // Read 1: clean. Write 1: clean. Read 2: short read fires even
        // though only one write happened. Write 2: ENOSPC fires.
        assert_eq!(plan.begin_read(), None);
        assert_eq!(plan.begin_write(), None);
        assert_eq!(plan.begin_read(), Some(StorageFault::ShortRead { op: 2, keep: 4 }));
        assert_eq!(plan.begin_write(), Some(StorageFault::Enospc { op: 2 }));
        // Later operations are clean again.
        assert_eq!(plan.begin_read(), None);
        assert_eq!(plan.begin_write(), None);
        assert_eq!(plan.ops(), (3, 3));
    }

    #[test]
    fn storage_plan_replays_identically() {
        let build = || {
            StoragePlan::new()
                .with_fault(StorageFault::TornWrite { op: 1, keep: 7 })
                .with_fault(StorageFault::BitFlip { op: 3, byte: 12 })
        };
        let run = |mut plan: StoragePlan| {
            (0..5).map(|_| plan.begin_write()).collect::<Vec<_>>()
        };
        assert_eq!(run(build()), run(build()));
        assert_eq!(
            run(build()),
            vec![
                Some(StorageFault::TornWrite { op: 1, keep: 7 }),
                None,
                Some(StorageFault::BitFlip { op: 3, byte: 12 }),
                None,
                None
            ]
        );
    }
}
