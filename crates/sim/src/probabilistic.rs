//! The probabilistic-workload discrete-event simulator.
//!
//! Each processor cycles through: exponential think time (mean `τ`) →
//! memory reference (drawn by [`snoop_workload::synth::ReferenceGenerator`])
//! → response (local, broadcast, or remote read) → one `T_supply` cycle →
//! think again. The simulator resolves exactly the mechanisms the MVA model
//! approximates:
//!
//! * the **bus** is a real FCFS queue (the MVA's Eq. 5 waiting time is an
//!   approximation of this queue);
//! * **memory modules** are real resources: a broadcast holds the bus until
//!   its target module is free, then occupies the module for `d_mem`
//!   cycles; block write-backs occupy a module in the background (matching
//!   the Eq. 12 accounting, which charges each memory-updating operation
//!   to one of the `m` interleaved modules);
//! * **snoop (cache) interference** is resolved per transaction: each other
//!   cache holds a referenced shared block with probability 0.5 (the same
//!   constant the Appendix-B equations use), a supplier is picked among the
//!   holders, and the affected caches are busied briefly (invalidation) or
//!   for the whole transaction (supply/update), delaying their processors'
//!   local requests.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use snoop_protocol::Modification;
use snoop_workload::synth::{ReferenceEvent, ReferenceGenerator, Stream};

use crate::config::SimConfig;
use crate::event::Calendar;
use crate::stats::SimMeasures;
use crate::SimError;

/// Probability that a given other cache holds a copy of a referenced
/// shared block — kept equal to the Appendix-B constant so the simulator
/// and the analytic interference submodel describe the same system.
const HOLDS_COPY: f64 = 0.5;

#[derive(Debug, Clone, Copy)]
enum Event {
    /// The processor's think time elapsed; it issues its next reference.
    Issue(usize),
    /// The bus transaction at the queue head completes.
    BusRelease,
}

#[derive(Debug, Clone, Copy)]
enum BusJob {
    /// A broadcast (`write-word`/`invalidate`).
    Broadcast {
        proc: usize,
        enqueued: f64,
        /// Whether the broadcast targets a shared-writable block (and so
        /// concerns other caches).
        shared: bool,
    },
    /// A remote `read`/`read-mod` with its resolved context.
    RemoteRead { proc: usize, enqueued: f64, reference: ReferenceEvent },
}

impl BusJob {
    fn proc(&self) -> usize {
        match *self {
            BusJob::Broadcast { proc, .. } | BusJob::RemoteRead { proc, .. } => proc,
        }
    }

    fn enqueued(&self) -> f64 {
        match *self {
            BusJob::Broadcast { enqueued, .. } | BusJob::RemoteRead { enqueued, .. } => enqueued,
        }
    }
}

/// The per-reference samples behind a [`WaitProfile`].
#[derive(Default)]
struct Samples {
    bus_waits: Vec<f64>,
    response_times: Vec<f64>,
}

struct Machine {
    config: SimConfig,
    calendar: Calendar<Event>,
    generator: ReferenceGenerator<SmallRng>,
    rng: SmallRng,
    bus_queue: VecDeque<BusJob>,
    bus_busy: bool,
    /// Completion time of the current bus transaction's full window
    /// (used for snoop busy times).
    module_busy: Vec<f64>,
    cache_busy: Vec<f64>,
    /// Per-processor completed references.
    completed: Vec<usize>,
    /// Per-processor time of warm-up completion / measurement completion.
    warm_at: Vec<Option<f64>>,
    done_at: Vec<Option<f64>>,
    /// How many entries of `done_at` are set (the run ends when all are).
    finished: usize,
    /// Global measurement window start (all processors warm).
    meas_start: Option<f64>,
    /// Bus busy time accumulated after `meas_start`.
    bus_busy_time: f64,
    module_busy_time: f64,
    /// Bus transactions granted within measurement, the sum of their
    /// waiting times (grant − enqueue) and how many of them waited.
    bus_grants: u64,
    bus_wait_sum: f64,
    bus_queue_waits: u64,
    /// Issue timestamp of each processor's in-flight reference.
    issued_at: Vec<f64>,
    /// Per-reference samples, kept only for [`simulate_with_profile`]:
    /// bus waiting times and response times (completion − issue) within
    /// measurement.
    profile: Option<Samples>,
    mod1: bool,
    mod2: bool,
    mod3: bool,
    mod4: bool,
}

impl Machine {
    fn new(config: SimConfig) -> Self {
        let n = config.n;
        let mods = config.mods;
        Machine {
            generator: ReferenceGenerator::new(
                config.params,
                SmallRng::seed_from_u64(config.seed),
            ),
            rng: SmallRng::seed_from_u64(config.seed.wrapping_mul(0x9e37_79b9).wrapping_add(1)),
            config,
            calendar: Calendar::new(),
            bus_queue: VecDeque::new(),
            bus_busy: false,
            module_busy: vec![0.0; 4],
            cache_busy: vec![0.0; n],
            completed: vec![0; n],
            warm_at: vec![None; n],
            done_at: vec![None; n],
            finished: 0,
            meas_start: None,
            bus_busy_time: 0.0,
            module_busy_time: 0.0,
            bus_grants: 0,
            bus_wait_sum: 0.0,
            bus_queue_waits: 0,
            issued_at: vec![0.0; n],
            profile: None,
            mod1: mods.contains(Modification::ExclusiveLoad),
            mod2: mods.contains(Modification::CacheSupply),
            mod3: mods.contains(Modification::InvalidateOnWrite),
            mod4: mods.contains(Modification::DistributedWrite),
        }
    }

    fn run(&mut self) -> Result<SimMeasures, SimError> {
        for p in 0..self.config.n {
            let think = self.generator.think_time();
            self.calendar.schedule(think, Event::Issue(p));
        }

        let mut events: u64 = 0;
        while let Some((now, event)) = self.calendar.next() {
            events += 1;
            match event {
                Event::Issue(p) => self.issue(now, p),
                Event::BusRelease => self.release_bus(now),
            }
            if self.finished == self.config.n {
                break;
            }
        }
        // Observational only.
        if snoop_numeric::probe::enabled() {
            snoop_numeric::probe::counter_add("sim.events", events);
            snoop_numeric::probe::counter_add("sim.bus_transactions", self.bus_grants);
            snoop_numeric::probe::counter_add("sim.bus_queue_waits", self.bus_queue_waits);
            let completed: usize = self.completed.iter().sum();
            snoop_numeric::probe::counter_add("sim.references", completed as u64);
        }
        self.finish()
    }

    /// The processor issues a reference at `now`.
    fn issue(&mut self, now: f64, p: usize) {
        self.issued_at[p] = now;
        let reference = self.generator.next_reference();
        let needs_bus = self.classify(&reference);
        match needs_bus {
            None => {
                // Local: wait for the cache to finish servicing snooped
                // traffic, then one supply cycle.
                let done = now.max(self.cache_busy[p]) + self.config.timing.t_supply;
                self.complete(done, p);
            }
            Some(job_kind) => {
                let job = match job_kind {
                    JobKind::Broadcast { shared } => {
                        BusJob::Broadcast { proc: p, enqueued: now, shared }
                    }
                    JobKind::RemoteRead => {
                        BusJob::RemoteRead { proc: p, enqueued: now, reference }
                    }
                };
                self.bus_queue.push_back(job);
                if !self.bus_busy {
                    self.dispatch(now);
                }
            }
        }
    }

    /// Routes a reference: `None` = local, otherwise the bus job kind.
    ///
    /// The routing mirrors `ModelInputs::derive` exactly — see that
    /// function for the per-modification rationale.
    fn classify(&mut self, r: &ReferenceEvent) -> Option<JobKind> {
        if !r.hits {
            return Some(JobKind::RemoteRead);
        }
        if !r.is_write {
            return None;
        }
        match r.stream {
            Stream::Private => {
                if r.already_modified || self.mod1 {
                    None
                } else {
                    // Write-Once write-through of a private block: no other
                    // cache holds it, so the broadcast snoops nobody.
                    Some(JobKind::Broadcast { shared: false })
                }
            }
            Stream::SharedReadOnly => None, // sro is never written
            Stream::SharedWritable => {
                if self.mod4 {
                    Some(JobKind::Broadcast { shared: true })
                } else if r.already_modified {
                    None
                } else {
                    Some(JobKind::Broadcast { shared: true })
                }
            }
        }
    }

    /// Grants the bus to the queue head.
    fn dispatch(&mut self, now: f64) {
        let Some(job) = self.bus_queue.pop_front() else {
            return;
        };
        self.bus_busy = true;
        if self.meas_start.is_some() {
            let wait = now - job.enqueued();
            self.bus_grants += 1;
            self.bus_wait_sum += wait;
            if wait >= 1e-9 {
                // Shorter waits count as none (`zero_wait_fraction`).
                self.bus_queue_waits += 1;
            }
            if let Some(samples) = &mut self.profile {
                samples.bus_waits.push(wait);
            }
        }
        let timing = self.config.timing;

        let release = match job {
            BusJob::Broadcast { shared, .. } => {
                let release = if self.mod3 {
                    // Invalidate / memory-skipping broadcast: one bus cycle.
                    now + timing.t_write
                } else {
                    // Write-through: hold the bus until the target module
                    // accepts the word, then occupy the module.
                    let m = self.rng.random_range(0..self.module_busy.len());
                    let module_free = now.max(self.module_busy[m]);
                    self.occupy_module(m, module_free);
                    module_free + timing.t_write
                };
                if shared {
                    self.snoop_broadcast(now, release, job.proc());
                }
                release
            }
            BusJob::RemoteRead { reference, proc, .. } => {
                let mut duration = if reference.supplier_exists {
                    timing.cache_read_cycles()
                } else {
                    timing.memory_read_cycles()
                };
                if reference.supplier_dirty && !self.mod2 {
                    // Write-Once: the dirty snooper updates memory first.
                    duration += timing.writeback_cycles();
                    let m = self.rng.random_range(0..self.module_busy.len());
                    self.occupy_module(m, now + duration);
                }
                if reference.victim_dirty {
                    duration += timing.writeback_cycles();
                    let m = self.rng.random_range(0..self.module_busy.len());
                    self.occupy_module(m, now + duration);
                }
                // A modification-4 write miss that found other copies is
                // followed by the broadcast of the written word.
                if self.mod4 && reference.is_write && reference.supplier_exists {
                    duration += timing.t_write;
                }
                let release = now + duration;
                self.snoop_remote_read(now, release, proc, &reference);
                release
            }
        };

        if self.meas_start.is_some() {
            self.bus_busy_time += release - now;
        }
        self.calendar.schedule(release, Event::BusRelease);
        // The completion time is already final, so the reference completes
        // now (its next issue goes on the calendar).
        self.complete(release + timing.t_supply, job.proc());
    }

    /// Background memory-module occupancy starting at `from`.
    fn occupy_module(&mut self, m: usize, from: f64) {
        let start = from.max(self.module_busy[m]);
        let end = start + self.config.timing.memory_latency;
        if self.meas_start.is_some() {
            self.module_busy_time += end - start;
        }
        self.module_busy[m] = end;
    }

    /// Snoop effects of a shared broadcast on the other caches.
    fn snoop_broadcast(&mut self, start: f64, release: f64, source: usize) {
        for q in 0..self.config.n {
            if q == source {
                continue;
            }
            if self.rng.random_bool(HOLDS_COPY) {
                let until = if self.mod4 {
                    release // update: busy for the whole transaction
                } else {
                    start + 1.0 // invalidation: brief
                };
                self.cache_busy[q] = self.cache_busy[q].max(until);
            }
        }
    }

    /// Snoop effects of a remote read on the other caches.
    fn snoop_remote_read(
        &mut self,
        start: f64,
        release: f64,
        source: usize,
        reference: &ReferenceEvent,
    ) {
        if reference.stream == Stream::Private {
            return; // no other cache holds private blocks
        }
        let mut supplier: Option<usize> = None;
        if reference.supplier_exists && self.config.n > 1 {
            // Pick the supplier uniformly among the other caches ("a block
            // supplied by a cache is equally likely to be supplied by any
            // of the other caches").
            let mut pick = self.rng.random_range(0..self.config.n - 1);
            if pick >= source {
                pick += 1;
            }
            supplier = Some(pick);
        }
        for q in 0..self.config.n {
            if q == source {
                continue;
            }
            if Some(q) == supplier {
                self.cache_busy[q] = self.cache_busy[q].max(release);
            } else if self.rng.random_bool(HOLDS_COPY) {
                self.cache_busy[q] = self.cache_busy[q].max(start + 1.0);
            }
        }
    }

    fn release_bus(&mut self, now: f64) {
        self.bus_busy = false;
        if !self.bus_queue.is_empty() {
            self.dispatch(now);
        }
    }

    /// Records a completed reference and schedules the next think/issue.
    fn complete(&mut self, done: f64, p: usize) {
        if let (Some(_), Some(samples)) = (self.meas_start, &mut self.profile) {
            samples.response_times.push(done - self.issued_at[p]);
        }
        self.completed[p] += 1;
        if self.completed[p] == self.config.warmup_references {
            self.warm_at[p] = Some(done);
            if self.warm_at.iter().all(Option::is_some) {
                self.meas_start = Some(done);
            }
        }
        if self.completed[p]
            == self.config.warmup_references + self.config.measured_references
            && self.done_at[p].is_none()
        {
            self.done_at[p] = Some(done);
            self.finished += 1;
        }
        let think = self.generator.think_time();
        self.calendar.schedule(done + think, Event::Issue(p));
    }

    fn finish(&self) -> Result<SimMeasures, SimError> {
        let timing = self.config.timing;
        let cycle = self.config.params.tau + timing.t_supply;
        // Per-processor R over its own measurement window. A processor
        // with no warm-up or done timestamp means the run ended before
        // its measurement window closed — report typed progress instead
        // of panicking (this used to be `expect("warmed")`).
        let mut rs = Vec::with_capacity(self.config.n);
        let mut ends = Vec::with_capacity(self.config.n);
        for p in 0..self.config.n {
            let (Some(start), Some(end)) = (self.warm_at[p], self.done_at[p]) else {
                return Err(SimError::InsufficientRun {
                    warmup: self.config.warmup_references,
                    measured: self.config.measured_references,
                    progress: self.completed.clone(),
                });
            };
            rs.push((end - start) / self.config.measured_references as f64);
            ends.push(end);
        }
        let speedup: f64 = rs.iter().map(|r| cycle / r).sum();
        let r_mean = self.config.n as f64 / rs.iter().map(|r| 1.0 / r).sum::<f64>();

        let t0 = self.meas_start.unwrap_or(0.0);
        let t1 = ends.iter().copied().fold(0.0_f64, f64::max);
        let window = (t1 - t0).max(1e-9);
        let mean_w_bus = if self.bus_grants == 0 {
            0.0
        } else {
            self.bus_wait_sum / self.bus_grants as f64
        };

        Ok(SimMeasures {
            n: self.config.n,
            r: r_mean,
            speedup,
            bus_utilization: (self.bus_busy_time / window).min(1.0),
            memory_utilization: (self.module_busy_time
                / (window * self.module_busy.len() as f64))
                .min(1.0),
            w_bus: mean_w_bus,
            references: self.config.n * self.config.measured_references,
        })
    }
}

#[derive(Debug, Clone, Copy)]
enum JobKind {
    Broadcast { shared: bool },
    RemoteRead,
}

/// Runs one simulation.
///
/// # Errors
///
/// Propagates configuration validation failures, and returns
/// [`SimError::InsufficientRun`] (with per-processor progress) when the
/// run ends before every processor completes its warm-up and
/// measurement windows.
pub fn simulate(config: &SimConfig) -> Result<SimMeasures, SimError> {
    config.validate()?;
    let _probe_span = snoop_numeric::probe::span("sim_run");
    Machine::new(*config).run()
}

/// Distribution of the measured bus waiting times (the quantity the MVA's
/// Eq. 5 summarizes by its mean).
#[derive(Debug, Clone)]
pub struct WaitProfile {
    /// The full histogram (40 bins over the observed range).
    pub histogram: snoop_numeric::histogram::Histogram,
    /// Median wait.
    pub p50: f64,
    /// 95th-percentile wait.
    pub p95: f64,
    /// Largest observed wait.
    pub max: f64,
    /// Fraction of transactions that waited not at all (< 1e−9 cycles).
    pub zero_wait_fraction: f64,
    /// Distribution of full response times (completion − issue) per
    /// reference — the per-request view of the paper's `R`.
    pub response_times: snoop_numeric::histogram::Histogram,
}

impl WaitProfile {
    /// Samples that fell outside the bin ranges of either histogram
    /// (underflow + overflow). Nonzero means the quantiles and means
    /// above exclude data and the profile should say so.
    pub fn out_of_range(&self) -> u64 {
        self.histogram.underflow()
            + self.histogram.overflow()
            + self.response_times.underflow()
            + self.response_times.overflow()
    }
}

/// Runs one simulation and also returns the bus-wait and response-time
/// distributions.
///
/// # Errors
///
/// Propagates configuration validation failures and
/// [`SimError::InsufficientRun`]; a run whose measurement window
/// contains no bus transactions yields an all-zero profile.
pub fn simulate_with_profile(config: &SimConfig) -> Result<(SimMeasures, WaitProfile), SimError> {
    config.validate()?;
    let _probe_span = snoop_numeric::probe::span("sim_run");
    let mut machine = Machine::new(*config);
    machine.profile = Some(Samples::default());
    let measures = machine.run()?;
    let Samples { bus_waits: waits, response_times } = machine.profile.unwrap_or_default();
    let build = |samples: &[f64]| {
        let max = samples.iter().copied().fold(0.0_f64, f64::max);
        let mut histogram =
            snoop_numeric::histogram::Histogram::new(0.0, (max * 1.01).max(1.0), 40)
                .expect("valid range");
        histogram.extend(samples.iter().copied());
        histogram
    };
    let histogram = build(&waits);
    let response_times = build(&response_times);
    let quantile = |q: f64| histogram.quantile(q).unwrap_or(0.0);
    let max = waits.iter().copied().fold(0.0_f64, f64::max);
    let zero = machine.bus_grants - machine.bus_queue_waits;
    let profile = WaitProfile {
        p50: quantile(0.5),
        p95: quantile(0.95),
        max,
        zero_wait_fraction: if waits.is_empty() { 0.0 } else { zero as f64 / waits.len() as f64 },
        histogram,
        response_times,
    };
    Ok((measures, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoop_protocol::ModSet;
    use snoop_workload::params::{SharingLevel, WorkloadParams};

    fn quick_config(n: usize, level: SharingLevel, mods: &[u8]) -> SimConfig {
        let mut c = SimConfig::for_protocol(
            n,
            WorkloadParams::appendix_a(level),
            ModSet::from_numbers(mods).unwrap(),
        );
        c.warmup_references = 500;
        c.measured_references = 8_000;
        c
    }

    #[test]
    fn one_reference_run_returns_insufficient_run_error() {
        // warmup = 0, measured = 1: the measurement window can never
        // open (it opens at a warm-up completion event), so the old code
        // panicked in `finish()` via `expect("warmed")`. Now it must be
        // a typed error carrying per-processor progress.
        let mut config = quick_config(2, SharingLevel::Five, &[]);
        config.warmup_references = 0;
        config.measured_references = 1;
        let err = simulate(&config).unwrap_err();
        assert_eq!(
            err,
            SimError::InsufficientRun { warmup: 0, measured: 1, progress: vec![0, 0] }
        );
        assert!(simulate_with_profile(&config).is_err());
    }

    #[test]
    fn single_processor_matches_mva_closely() {
        // With one processor there is no queueing at all, so simulator and
        // MVA should agree to sampling noise.
        let m = simulate(&quick_config(1, SharingLevel::Five, &[])).unwrap();
        assert!((m.speedup - 0.855).abs() < 0.02, "speedup = {}", m.speedup);
        assert!(m.w_bus < 1e-9);
    }

    #[test]
    fn speedup_grows_with_processors() {
        let s1 = simulate(&quick_config(1, SharingLevel::Five, &[])).unwrap().speedup;
        let s4 = simulate(&quick_config(4, SharingLevel::Five, &[])).unwrap().speedup;
        let s10 = simulate(&quick_config(10, SharingLevel::Five, &[])).unwrap().speedup;
        assert!(s4 > 2.5 * s1, "{s1} {s4}");
        assert!(s10 > s4, "{s4} {s10}");
    }

    #[test]
    fn bus_saturates_at_scale() {
        let m = simulate(&quick_config(30, SharingLevel::Five, &[])).unwrap();
        assert!(m.bus_utilization > 0.9, "U_bus = {}", m.bus_utilization);
    }

    #[test]
    fn mod1_beats_write_once() {
        let wo = simulate(&quick_config(10, SharingLevel::Five, &[])).unwrap();
        let m1 = simulate(&quick_config(10, SharingLevel::Five, &[1])).unwrap();
        assert!(m1.speedup > wo.speedup, "{} vs {}", m1.speedup, wo.speedup);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = simulate(&quick_config(4, SharingLevel::Twenty, &[])).unwrap();
        let b = simulate(&quick_config(4, SharingLevel::Twenty, &[])).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = simulate(&quick_config(4, SharingLevel::Twenty, &[])).unwrap();
        let mut c = quick_config(4, SharingLevel::Twenty, &[]);
        c.seed = 12345;
        let b = simulate(&c).unwrap();
        assert_ne!(a, b);
        // ...but only slightly.
        assert!((a.speedup - b.speedup).abs() / a.speedup < 0.05);
    }

    #[test]
    fn utilizations_are_probabilities() {
        for n in [1, 4, 16] {
            let m = simulate(&quick_config(n, SharingLevel::Twenty, &[])).unwrap();
            assert!((0.0..=1.0).contains(&m.bus_utilization));
            assert!((0.0..=1.0).contains(&m.memory_utilization));
            assert!(m.speedup <= n as f64 + 1e-9);
        }
    }

    #[test]
    fn wait_profile_is_consistent_with_measures() {
        let (m, profile) = simulate_with_profile(&quick_config(8, SharingLevel::Five, &[]))
            .unwrap();
        // The histogram's mean is the same data as m.w_bus.
        assert!((profile.histogram.mean() - m.w_bus).abs() < 1e-9);
        assert!(profile.p50 <= profile.p95);
        assert!(profile.p95 <= profile.max + 1e-9);
        assert!(profile.zero_wait_fraction > 0.0 && profile.zero_wait_fraction < 1.0);
    }

    #[test]
    fn response_time_distribution_matches_r() {
        // Mean response time over the distribution is R − τ (R counts the
        // think time, the per-request response does not).
        let (m, profile) = simulate_with_profile(&quick_config(6, SharingLevel::Five, &[]))
            .unwrap();
        let mean_response = profile.response_times.mean();
        let expected = m.r - 2.5;
        assert!(
            (mean_response - expected).abs() / expected < 0.02,
            "mean response {mean_response} vs R − τ = {expected}"
        );
        // Local hits dominate: the median response is the 1-cycle supply.
        let p50 = profile.response_times.quantile(0.5).unwrap();
        assert!(p50 < 2.0, "p50 = {p50}");
        // The tail is bus-bound and much longer.
        let p99 = profile.response_times.quantile(0.99).unwrap();
        assert!(p99 > 5.0, "p99 = {p99}");
    }

    #[test]
    fn single_processor_profile_is_all_zero_waits() {
        let (_, profile) =
            simulate_with_profile(&quick_config(1, SharingLevel::Five, &[])).unwrap();
        assert_eq!(profile.zero_wait_fraction, 1.0);
        assert_eq!(profile.max, 0.0);
    }

    #[test]
    fn mod3_reduces_memory_utilization() {
        let wo = simulate(&quick_config(10, SharingLevel::Twenty, &[])).unwrap();
        let m3 = simulate(&quick_config(10, SharingLevel::Twenty, &[3])).unwrap();
        assert!(
            m3.memory_utilization < wo.memory_utilization,
            "{} vs {}",
            m3.memory_utilization,
            wo.memory_utilization
        );
    }
}
