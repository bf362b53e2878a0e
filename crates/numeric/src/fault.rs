//! Fault injection for fixed-point maps.
//!
//! The fixed-point layer claims that a solver built on
//! [`crate::fixed_point`] never panics and never returns non-finite values,
//! no matter how the underlying map misbehaves. This module provides the
//! adversary for proving that: [`FaultyMap`] wraps any fixed-point map and
//! injects the three numeric failure modes seen in practice —
//!
//! * **NaN** — a one-shot non-finite output (e.g. `0/0` on a degenerate
//!   input), which the solver must diagnose as
//!   [`crate::DivergenceReason::NonFinite`] rather than propagate;
//! * **spikes** — periodic multiplicative perturbations (e.g. a table lookup
//!   gone wrong), which a damped solver should ride out;
//! * **stalls** — a component frozen at a stale value (e.g. a cached
//!   intermediate never invalidated), which shifts the fixed point but must
//!   still end in a finite result or a structured failure.
//!
//! Injection is scheduled purely by call count, so every run is
//! deterministic and every failure reproducible.
//!
//! # Example
//!
//! ```
//! use snoop_numeric::fault::{Fault, FaultyMap};
//! use snoop_numeric::fixed_point::{FixedPoint, Options};
//! use snoop_numeric::NumericError;
//!
//! // A benign contraction, sabotaged with a NaN on its 5th evaluation.
//! let mut faulty = FaultyMap::new(|x: &[f64], out: &mut [f64]| {
//!     out[0] = 0.5 * x[0] + 1.0;
//! })
//! .with_fault(Fault::Nan { component: 0, call: 5 });
//!
//! let err = FixedPoint::new(Options::default())
//!     .solve(vec![0.0], |x, out| faulty.apply(x, out))
//!     .unwrap_err();
//! assert!(matches!(err, NumericError::Diverged(_)));
//! ```

/// A single scheduled fault. Call counts are 1-based: the first evaluation
/// of the wrapped map is call 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Replace `component`'s output with NaN on exactly the given call.
    Nan {
        /// Index of the component to corrupt.
        component: usize,
        /// 1-based call number at which to inject.
        call: usize,
    },
    /// Multiply `component`'s output by `factor` on every call whose number
    /// is a multiple of `period` (a `period` of 0 never fires).
    Spike {
        /// Index of the component to perturb.
        component: usize,
        /// Injection period in calls.
        period: usize,
        /// Multiplicative perturbation (e.g. `100.0` or `-1.0`).
        factor: f64,
    },
    /// Freeze `component` at the value it produces on call `from`: every
    /// later call replays that stale value regardless of the input.
    Stall {
        /// Index of the component to freeze.
        component: usize,
        /// 1-based call number from which the output is frozen.
        from: usize,
    },
}

/// A fixed-point map wrapper that injects scheduled [`Fault`]s.
///
/// Wraps any `FnMut(&[f64], &mut [f64])` map; pass
/// `|x, out| faulty.apply(x, out)` to [`crate::fixed_point::FixedPoint::solve`].
/// Faults naming a component outside the map's dimension are ignored.
#[derive(Debug, Clone)]
pub struct FaultyMap<F> {
    inner: F,
    faults: Vec<Fault>,
    /// Stale values captured by `Stall` faults, parallel to `faults`.
    stall_values: Vec<Option<f64>>,
    calls: usize,
}

impl<F: FnMut(&[f64], &mut [f64])> FaultyMap<F> {
    /// Wraps `inner` with an empty fault schedule.
    pub fn new(inner: F) -> Self {
        FaultyMap { inner, faults: Vec::new(), stall_values: Vec::new(), calls: 0 }
    }

    /// Adds a fault to the schedule (builder style).
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self.stall_values.push(None);
        self
    }

    /// Number of times the wrapped map has been evaluated.
    pub fn calls(&self) -> usize {
        self.calls
    }

    /// Evaluates the wrapped map, then applies every scheduled fault that
    /// fires on this call.
    pub fn apply(&mut self, x: &[f64], out: &mut [f64]) {
        self.calls += 1;
        (self.inner)(x, out);
        for (fault, stale) in self.faults.iter().zip(self.stall_values.iter_mut()) {
            match *fault {
                Fault::Nan { component, call } if call == self.calls => {
                    if let Some(v) = out.get_mut(component) {
                        *v = f64::NAN;
                    }
                }
                Fault::Spike { component, period, factor }
                    if period > 0 && self.calls.is_multiple_of(period) =>
                {
                    if let Some(v) = out.get_mut(component) {
                        *v *= factor;
                    }
                }
                Fault::Stall { component, from } if self.calls >= from => {
                    if let Some(v) = out.get_mut(component) {
                        *v = *stale.get_or_insert(*v);
                    }
                }
                _ => {}
            }
        }
    }
}

/// A single scheduled **storage** fault, the on-disk counterpart of
/// [`Fault`]. Operation counts are 1-based and counted *per class*: the
/// first write the store performs is write-op 1, the first read is
/// read-op 1 — so a plan is deterministic no matter how reads and writes
/// interleave.
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
/// the same failure in every run — the same discipline [`FaultyMap`]
/// applies to numeric maps.
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
    use crate::fixed_point::{DivergenceReason, FixedPoint, Options};
    use crate::NumericError;

    /// The benign 2-d contraction used as the substrate for injection.
    fn benign(x: &[f64], out: &mut [f64]) {
        out[0] = 0.5 * x[0] + 0.25 * x[1] + 1.0;
        out[1] = 0.25 * x[0] + 0.5 * x[1] + 0.5;
    }

    #[test]
    fn clean_map_converges() {
        let mut faulty = FaultyMap::new(benign);
        let sol = FixedPoint::new(Options::default())
            .solve(vec![0.0, 0.0], |x, out| faulty.apply(x, out))
            .unwrap();
        assert!(sol.values.iter().all(|v| v.is_finite()));
        assert_eq!(faulty.calls(), sol.iterations);
    }

    #[test]
    fn nan_fault_is_diagnosed_not_propagated() {
        let mut faulty =
            FaultyMap::new(benign).with_fault(Fault::Nan { component: 1, call: 3 });
        let err = FixedPoint::new(Options::default())
            .solve(vec![0.0, 0.0], |x, out| faulty.apply(x, out))
            .unwrap_err();
        match err {
            NumericError::Diverged(failure) => {
                assert_eq!(failure.reason, DivergenceReason::NonFinite { component: 1 });
                assert_eq!(failure.iterations, 3);
                assert!(failure.last_finite.iter().all(|v| v.is_finite()));
            }
            other => panic!("expected non-finite diagnosis, got {other:?}"),
        }
    }

    #[test]
    fn spike_fault_is_ridden_out() {
        // A 10× spike every 7 calls perturbs the trajectory but the
        // contraction pulls it back: the solver still converges and the
        // result is finite.
        let mut faulty = FaultyMap::new(benign)
            .with_fault(Fault::Spike { component: 0, period: 7, factor: 10.0 });
        let sol = FixedPoint::new(Options {
            max_iterations: 5_000,
            tolerance: 1e-9,
            ..Options::default()
        })
        .solve(vec![0.0, 0.0], |x, out| faulty.apply(x, out));
        // Either it converged between spikes (finite values), or it
        // reported a structured failure — never a panic, never NaN.
        match sol {
            Ok(s) => assert!(s.values.iter().all(|v| v.is_finite())),
            Err(NumericError::Diverged(f)) => {
                assert!(f.last_finite.iter().all(|v| v.is_finite()));
            }
            Err(NumericError::NoConvergence { residual, .. }) => assert!(residual.is_finite()),
            Err(other) => panic!("unexpected error class: {other:?}"),
        }
    }

    #[test]
    fn stall_fault_shifts_fixed_point_but_stays_finite() {
        let mut faulty =
            FaultyMap::new(benign).with_fault(Fault::Stall { component: 1, from: 2 });
        let sol = FixedPoint::new(Options::default())
            .solve(vec![0.0, 0.0], |x, out| faulty.apply(x, out))
            .unwrap();
        // Component 1 froze at its call-2 value; the rest of the system
        // still reaches a (shifted) fixed point with finite values.
        assert!(sol.values.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn out_of_range_component_is_ignored() {
        let mut faulty =
            FaultyMap::new(benign).with_fault(Fault::Nan { component: 99, call: 1 });
        let sol = FixedPoint::new(Options::default())
            .solve(vec![0.0, 0.0], |x, out| faulty.apply(x, out))
            .unwrap();
        assert!(sol.values.iter().all(|v| v.is_finite()));
    }

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

    #[test]
    fn schedule_is_deterministic() {
        let run = || {
            let mut faulty = FaultyMap::new(benign)
                .with_fault(Fault::Spike { component: 0, period: 5, factor: -3.0 })
                .with_fault(Fault::Stall { component: 1, from: 4 });
            FixedPoint::new(Options { max_iterations: 200, ..Options::default() })
                .solve(vec![0.0, 0.0], |x, out| faulty.apply(x, out))
        };
        assert_eq!(format!("{:?}", run()), format!("{:?}", run()));
    }
}
