//! The five workloads and the machinery they share: the unit loop, the
//! traced/untraced phases, probe-snapshot readers and the scratch
//! directory.
//!
//! A unit-based workload runs seeded units `0, 1, 2, …` until the time
//! budget is spent, but always at least its first `min_units` units —
//! the *prefix*. Accuracy metrics, program counts and the output digest
//! cover only the prefix, so they are identical for a seed on every
//! commit however fast it is. A traced run first replays the prefix
//! untraced, then runs the measured phase with benchmark spans and a
//! probe session; comparing the two prefixes gives the tracing overhead
//! and checks that tracing leaves outputs untouched.

mod calibrate;
mod eval;
mod serve;

use std::path::PathBuf;
use std::time::Instant;

use snoop_numeric::probe::{self, Snapshot};

use crate::metrics::Report;
use crate::spans::Tracer;
use crate::stats;

/// Workload names, in the order `all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "sweep-file",
    "serve-zipf",
    "des-validate",
    "gtpn-exact",
    "trace-calibrate",
];

/// How one run is configured.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The only source of randomness.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
}

/// Runs one workload in this process.
///
/// # Errors
///
/// Set-up failures that leave nothing to measure (I/O, bind).
pub fn run(workload: &str, opts: &Options) -> Result<(Report, Tracer), String> {
    let (mut report, tracer) = match workload {
        "sweep-file" => eval::sweep_file(opts),
        "serve-zipf" => serve::run(opts),
        "des-validate" => eval::des_validate(opts),
        "gtpn-exact" => eval::gtpn_exact(opts),
        "trace-calibrate" => calibrate::run(opts),
        other => Err(format!(
            "unknown workload {other:?}; have {}, all",
            WORKLOADS.join(", ")
        )),
    }?;
    match peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb),
        None => report
            .violations
            .push("cannot read VmHWM from /proc/self/status".into()),
    }
    for (name, t) in tracer.totals() {
        report.notes.push(format!(
            "span {name}: {} calls, {} s total, {} s self",
            t.count, t.total_s, t.self_s
        ));
    }
    Ok((report, tracer))
}

/// One measured unit.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Wall time of the unit's user-visible operation, seconds.
    pub latency_s: f64,
    /// Throughput operations the unit completed.
    pub ops: f64,
}

/// What [`drive`] measured.
pub struct Driven {
    /// The measured phase.
    pub timed: Vec<Unit>,
    /// The resource the host-speed reference exercises.
    pub resource: Resource,
    /// Seconds [`host_reference`] took before the measured phase's first
    /// unit and after each of its units: unit `i` ran between samples `i`
    /// and `i + 1`.
    pub reference: Vec<f64>,
    /// Seconds the workload's set-up step took (the mean of its
    /// repetitions), re-run after each unit of the measured phase.
    pub setup: Vec<f64>,
    /// Seconds the [`Resource::Compute`] kernel took right before each
    /// set-up sample.
    pub setup_reference: Vec<f64>,
    /// Traced runs: the untraced replay of the prefix.
    pub untraced_prefix: Vec<Unit>,
    /// Traced runs: probe snapshot right after the prefix.
    pub prefix_probe: Option<Snapshot>,
    /// Traced runs: probe snapshot at the end of the measured phase.
    pub probe: Option<Snapshot>,
    /// The measured phase's spans.
    pub tracer: Tracer,
}

/// A workload's set-up step, re-timed after every unit: `reps`
/// back-to-back runs of `step` make one sample, so a short step is timed
/// over milliseconds. Each sample is scaled by the [`Resource::Compute`]
/// kernel timed right before it.
pub struct Setup<S> {
    /// Runs per sample.
    pub reps: usize,
    /// The step.
    pub step: S,
}

/// Runs `unit(index, tracer)` over the phases described in the module
/// docs. The tracer passed to `unit` is enabled only in a traced run's
/// measured phase. Before the first unit and after every unit it times
/// [`host_reference`] for the unit's resource, and after every unit the
/// workload's set-up step, right after the [`Resource::Compute`] kernel,
/// so all are sampled across the whole run
/// rather than only at its start.
///
/// # Errors
///
/// The first error a unit or the set-up step returns.
pub fn drive<S, F>(
    opts: &Options,
    min_units: usize,
    resource: Resource,
    mut setup: Setup<S>,
    mut unit: F,
) -> Result<Driven, String>
where
    S: FnMut() -> Result<(), String>,
    F: FnMut(usize, &mut Tracer) -> Result<Unit, String>,
{
    let started = Instant::now();
    let epoch = Instant::now();
    let (mut reference, mut setup_s, mut setup_reference) = (Vec::new(), Vec::new(), Vec::new());
    let mut loop_units =
        |budget: f64, tracer: &mut Tracer, mut at_prefix: Box<dyn FnMut() + '_>| {
            let phase = Instant::now();
            let mut units = Vec::new();
            reference.clear();
            setup_s.clear();
            setup_reference.clear();
            reference.push(host_reference(resource));
            while units.len() < min_units || phase.elapsed().as_secs_f64() < budget {
                units.push(unit(units.len(), tracer)?);
                if units.len() == min_units {
                    at_prefix();
                }
                let here = host_reference(resource);
                reference.push(here);
                setup_reference.push(if resource == Resource::Compute {
                    here
                } else {
                    host_reference(Resource::Compute)
                });
                let step = Instant::now();
                for _ in 0..setup.reps {
                    (setup.step)()?;
                }
                setup_s.push(step.elapsed().as_secs_f64() / setup.reps as f64);
            }
            Ok::<_, String>(units)
        };
    if !opts.traced {
        let mut tracer = Tracer::new(false, epoch);
        let timed = loop_units(opts.seconds, &mut tracer, Box::new(|| {}))?;
        return Ok(Driven {
            timed,
            resource,
            reference,
            setup: setup_s,
            setup_reference,
            untraced_prefix: Vec::new(),
            prefix_probe: None,
            probe: None,
            tracer,
        });
    }
    let untraced_prefix = loop_units(0.0, &mut Tracer::new(false, epoch), Box::new(|| {}))?;
    let _session = probe::session();
    let mut tracer = Tracer::new(true, epoch);
    let mut prefix_probe = None;
    let remaining = (opts.seconds - started.elapsed().as_secs_f64()).max(0.0);
    let timed = loop_units(
        remaining,
        &mut tracer,
        Box::new(|| prefix_probe = Some(probe::snapshot())),
    )?;
    Ok(Driven {
        timed,
        resource,
        reference,
        setup: setup_s,
        setup_reference,
        untraced_prefix,
        prefix_probe,
        probe: Some(probe::snapshot()),
        tracer,
    })
}

impl Driven {
    /// How much slower than nominal the host ran during the measured
    /// phase: the median [`host_reference`] time over its nominal time.
    pub fn host_factor(&self) -> f64 {
        stats::median(&self.reference) / self.resource.nominal_s()
    }

    /// Sets the end-to-end metrics — `ops_per_s`, `p50_ms` and `setup_s`
    /// — scaled to nominal host speed, plus, for a traced run, the tracing
    /// overhead. Each unit is scaled by the mean of the kernel samples
    /// either side of it, and each set-up sample by the one before it, so
    /// the scaling follows the host's drift within a run as well as
    /// between runs; the metrics are medians of the scaled samples, so a
    /// unit slowed by a burst on the host does not move them. The set-up
    /// step tracks the `Compute` kernel, whatever the unit's resource.
    /// Notes record the values as measured.
    pub fn report_units(&self, report: &mut Report, op: &str) {
        let around: Vec<f64> = self
            .reference
            .windows(2)
            .map(|pair| (pair[0] + pair[1]) / 2.0)
            .collect();
        let latency_s: Vec<f64> = self.timed.iter().map(|u| u.latency_s).collect();
        let scaled_s = scale(&latency_s, &around, self.resource);
        let rate = |latency_s: &[f64]| {
            let rates: Vec<f64> = self
                .timed
                .iter()
                .zip(latency_s)
                .map(|(u, s)| u.ops / s)
                .collect();
            stats::median(&rates)
        };
        let setup = scale(&self.setup, &self.setup_reference, Resource::Compute);
        report.set("ops_per_s", rate(&scaled_s));
        report.set("p50_ms", stats::median(&scaled_s) * 1e3);
        report.set("setup_s", stats::median(&setup));
        report.set("bench.units", self.timed.len() as f64);
        report.notes.push(format!(
            "ops_per_s is the median per-unit rate of {op}; p50_ms the median unit latency; {} units",
            latency_s.len()
        ));
        report.notes.push(format!(
            "host factor {} ({:?} reference median {} ms); as measured: ops_per_s {} p50_ms {} \
             setup_s {}",
            self.host_factor(),
            self.resource,
            stats::median(&self.reference) * 1e3,
            rate(&latency_s),
            stats::median(&latency_s) * 1e3,
            stats::median(&self.setup)
        ));
        report.notes.push(format!(
            "samples as measured: unit latency s {latency_s:?}; unit ops {:?}; reference s {:?}; \
             set-up s {:?}; set-up reference s {:?}",
            self.timed.iter().map(|u| u.ops).collect::<Vec<_>>(),
            self.reference,
            self.setup,
            self.setup_reference
        ));
        if !self.untraced_prefix.is_empty() {
            let sum = |units: &[Unit]| units.iter().map(|u| u.latency_s).sum::<f64>();
            let k = self.untraced_prefix.len();
            let overhead = sum(&self.timed[..k]) / sum(&self.untraced_prefix) - 1.0;
            report.set("bench.trace_overhead_pct", overhead * 100.0);
        }
    }

    /// The end-of-phase probe snapshot (empty for untraced runs).
    pub fn probe(&self) -> Snapshot {
        self.probe.clone().unwrap_or_else(empty_snapshot)
    }

    /// The after-prefix probe snapshot (empty for untraced runs).
    pub fn prefix_probe(&self) -> Snapshot {
        self.prefix_probe.clone().unwrap_or_else(empty_snapshot)
    }
}

/// The host resource a workload's units mostly wait on, which its
/// reference kernel exercises.
///
/// The host this benchmark runs on is shared. Its speed drifts over
/// minutes, and not evenly: when another tenant streams memory, scanning
/// large buffers slows by a third while arithmetic and hash-map work slow
/// by a few percent. Each unit workload is therefore scaled by a kernel of
/// its own dominant kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// Arithmetic, hashing and hash-map updates (DES, GTPN, trace replay).
    Compute,
    /// Streaming validation of large text buffers (batch-file parsing).
    Scan,
}

impl Resource {
    /// Seconds the kernel takes on the host the baseline was recorded on,
    /// at its usual speed.
    fn nominal_s(self) -> f64 {
        match self {
            Resource::Compute => 0.030,
            Resource::Scan => 0.020,
        }
    }
}

thread_local! {
    /// The reference kernels' buffers, allocated once so that timing them
    /// measures arithmetic and caches, not page faults: words to hash, a
    /// hash map, and 512 KB of batch-file-like text.
    static REFERENCE_STATE: std::cell::RefCell<(Vec<u64>, std::collections::HashMap<u64, u32>, String)> =
        std::cell::RefCell::new((
            (0..200_000).collect(),
            std::collections::HashMap::with_capacity(1 << 17),
            "{\"protocol\":\"WO+1+2\",\"sharing\":\"5\",\"n\":17},\n".repeat(12_000),
        ));
}

/// A fixed piece of work owned by the benchmark, timed after every unit to
/// measure how fast the host is running the kind of work the workload
/// does. No change to the program can change it. Ten rounds (20–30 ms)
/// average over the host's millisecond-scale jitter. Returns seconds.
pub fn host_reference(resource: Resource) -> f64 {
    REFERENCE_STATE.with(|state| {
        let (words, counts, text) = &mut *state.borrow_mut();
        let started = Instant::now();
        for round in 0..10u64 {
            match resource {
                Resource::Compute => {
                    let mut hash: u64 = 0xcbf2_9ce4_8422_2325 ^ round;
                    for w in words.iter_mut() {
                        hash = (hash ^ *w).wrapping_mul(0x100_0000_01b3);
                        *w = hash;
                    }
                    let mut x = 1.0f64;
                    for i in 0..400_000 {
                        x = (x * 1.000_000_1 + f64::from(i).sqrt()) % 1e9;
                    }
                    counts.clear();
                    for i in 0..40_000u64 {
                        *counts
                            .entry(hash.wrapping_add(i * 7919) % 100_000)
                            .or_insert(0) += 1;
                    }
                    std::hint::black_box((x, counts.len()));
                }
                Resource::Scan => {
                    let bytes = text.as_bytes();
                    let valid = (0..90).filter(|k| std::str::from_utf8(&bytes[k * 1000..]).is_ok());
                    std::hint::black_box(valid.count());
                }
            }
        }
        started.elapsed().as_secs_f64()
    })
}

/// `times` scaled to nominal host speed: `times[i]` over how much slower
/// than nominal [`host_reference`]`(resource)` ran when timed next to it,
/// `reference[i]` seconds.
pub fn scale(times: &[f64], reference: &[f64], resource: Resource) -> Vec<f64> {
    times
        .iter()
        .zip(reference)
        .map(|(t, r)| t * resource.nominal_s() / r)
        .collect()
}

fn empty_snapshot() -> Snapshot {
    Snapshot {
        spans: Vec::new(),
        counters: Vec::new(),
        events: Vec::new(),
        hists: Vec::new(),
    }
}

/// Summed seconds and calls of every probe span path ending in `leaf`.
pub fn probe_span(snap: &Snapshot, leaf: &str) -> (f64, u64) {
    snap.spans
        .iter()
        .filter(|(path, _)| path == leaf || path.ends_with(&format!("/{leaf}")))
        .fold((0.0, 0), |(s, c), (_, st)| {
            (s + st.total_ns as f64 / 1e9, c + st.count)
        })
}

/// A probe counter (0 when never incremented).
pub fn probe_counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Per-unit output digests of the prefix. A traced run visits each prefix
/// unit twice (untraced, then traced); the two outputs must agree.
#[derive(Debug)]
pub struct Prefix {
    digests: Vec<Option<u64>>,
}

impl Prefix {
    /// Digests for the first `units` units.
    pub fn new(units: usize) -> Self {
        Prefix {
            digests: vec![None; units],
        }
    }

    /// Whether `index` is in the prefix.
    pub fn covers(&self, index: usize) -> bool {
        index < self.digests.len()
    }

    /// Records unit `index`'s output; `false` when it differs from an
    /// earlier visit.
    pub fn record(&mut self, index: usize, output: &[u8]) -> bool {
        let Some(slot) = self.digests.get_mut(index) else {
            return true;
        };
        let digest = crate::fnv1a(output);
        *slot.get_or_insert(digest) == digest
    }

    /// The digest of all prefix outputs, in unit order.
    pub fn digest(&self) -> u64 {
        let bytes: Vec<u8> = self
            .digests
            .iter()
            .flat_map(|d| d.unwrap_or(0).to_le_bytes())
            .collect();
        crate::fnv1a(&bytes)
    }
}

/// A scratch directory inside the run's working directory, removed on
/// drop.
pub struct WorkDir {
    /// The directory.
    pub path: PathBuf,
}

impl WorkDir {
    /// Creates `.bench_work/<name>-<pid>` under the current directory.
    ///
    /// # Errors
    ///
    /// File-system errors.
    pub fn new(name: &str) -> Result<WorkDir, String> {
        let path = PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Median wall time of `reps` runs of `step`, seconds.
///
/// # Errors
///
/// The first error `step` returns.
pub fn median_secs(
    reps: usize,
    mut step: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        step()?;
        times.push(started.elapsed().as_secs_f64());
    }
    Ok(stats::median(&times))
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_runs_the_prefix_and_replays_it_when_traced() {
        let opts = Options {
            seed: 1,
            seconds: 0.0,
            traced: false,
        };
        let mut steps = 0;
        let driven = drive(
            &opts,
            3,
            Resource::Scan,
            Setup {
                reps: 4,
                step: || {
                    steps += 1;
                    Ok(())
                },
            },
            |_, t| {
                assert!(!t.enabled());
                Ok(Unit {
                    latency_s: 0.5,
                    ops: 2.0,
                })
            },
        )
        .unwrap();
        assert_eq!(driven.timed.len(), 3);
        let mut report = Report::new("w", 1, false);
        driven.report_units(&mut report, "things");
        // One kernel sample before the units and one after each.
        assert_eq!(driven.reference.len(), 4);
        let around: Vec<f64> = driven
            .reference
            .windows(2)
            .map(|p| (p[0] + p[1]) / 2.0)
            .collect();
        let p50_s = stats::median(&scale(&[0.5; 3], &around, Resource::Scan));
        assert!((report.values["p50_ms"] - p50_s * 1e3).abs() < 1e-9);
        assert!((report.values["ops_per_s"] - 2.0 / p50_s).abs() < 1e-9);
        assert_eq!(driven.setup.len(), 3);
        assert_eq!(driven.setup_reference.len(), 3);
        assert_eq!(steps, 12);
        let setup = scale(&driven.setup, &driven.setup_reference, Resource::Compute);
        assert_eq!(report.values["setup_s"], stats::median(&setup));
        assert_eq!(scale(&[2.0], &[0.06], Resource::Compute), vec![1.0]);

        let traced = Options {
            traced: true,
            ..opts
        };
        let mut visits = Vec::new();
        let driven = drive(
            &traced,
            2,
            Resource::Compute,
            Setup {
                reps: 1,
                step: || Ok(()),
            },
            |i, t| {
                visits.push((i, t.enabled()));
                t.span("unit", i as u64, |_| ());
                Ok(Unit {
                    latency_s: 1.0,
                    ops: 1.0,
                })
            },
        )
        .unwrap();
        assert_eq!(visits, vec![(0, false), (1, false), (0, true), (1, true)]);
        assert_eq!(driven.tracer.spans().len(), 2);
        assert!(driven.prefix_probe.is_some() && driven.probe.is_some());
    }

    #[test]
    fn prefix_flags_outputs_that_change_between_visits() {
        let mut p = Prefix::new(2);
        assert!(p.record(0, b"a") && p.record(0, b"a"));
        assert!(!p.record(0, b"b"));
        assert!(p.record(5, b"outside the prefix"));
        assert!(p.covers(1) && !p.covers(2));
        let mut q = Prefix::new(2);
        q.record(0, b"a");
        assert_eq!(p.digest(), q.digest());
    }
}
