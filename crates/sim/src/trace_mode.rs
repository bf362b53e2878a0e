//! Trace-driven simulation: real caches, real protocol transitions.
//!
//! Where [`crate::probabilistic`] draws hit/miss outcomes from the workload
//! parameters (like the analytic models), this mode simulates actual
//! set-associative LRU caches executing the [`snoop_protocol`] state
//! machines over an address trace — the \[ArBa86\]/\[KEWP85\] style of
//! evaluation the paper compares against in Section 4.4. Hit rates, shared
//! lines, cache supply and write-backs all *emerge* from the block states
//! instead of being parameters, so this mode cross-checks the workload
//! model itself, not just the queueing approximations.
//!
//! The trace comes from any [`TraceSource`]: the synthetic
//! [`TraceGenerator`] (the original mode, driven by
//! [`simulate_trace_source`] with [`TraceSimConfig::generator`]) or the
//! file-backed readers of [`snoop_workload::ingest`], which replay real
//! address traces through the same caches and state machines with bounded
//! memory.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use snoop_protocol::{BusOp, CacheState, MissContext, ModSet, Protocol};
use snoop_workload::params::WorkloadParams;
use snoop_workload::synth::Stream;
use snoop_workload::timing::TimingModel;
use snoop_workload::trace::{TraceConfig, TraceGenerator, TraceRecord, TraceSource};

use crate::event::Calendar;
use snoop_workload::measure::ParameterCounters;
use crate::window::RunWindow;
use crate::SimError;

/// Policy for distributed-write (modification 4) broadcasts.
///
/// The RWB protocol "includes the capability to switch between
/// invalidation and broadcast write operations" (paper Section 2.2):
/// updating copies nobody reads again is wasted bus bandwidth, so an
/// adaptive policy falls back to invalidation for blocks whose broadcasts
/// keep finding no other holders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePolicy {
    /// Always broadcast (plain modification 4, Dragon-style).
    AlwaysUpdate,
    /// Per-block saturating counter of consecutive *useless* broadcasts
    /// (no other cache held a copy); at the limit, switch that block to
    /// invalidation until it becomes shared again.
    Adaptive {
        /// Useless broadcasts tolerated before switching (RWB used small
        /// values; 2–4 are typical).
        useless_limit: u8,
    },
}

/// Configuration of a trace-driven run.
#[derive(Debug, Clone, Copy)]
pub struct TraceSimConfig {
    /// Number of processors.
    pub n: usize,
    /// Protocol modification set.
    pub mods: ModSet,
    /// Broadcast policy (only meaningful with modification 4).
    pub update_policy: UpdatePolicy,
    /// Bus/memory timing.
    pub timing: TimingModel,
    /// Workload mix driving the trace generator (`tau` supplies the think
    /// time; the hit-rate parameters shape the trace's locality).
    pub params: WorkloadParams,
    /// Address-space shape.
    pub trace: TraceConfig,
    /// Cache sets per processor.
    pub sets: usize,
    /// Cache associativity (ways per set).
    pub ways: usize,
    /// RNG seed.
    pub seed: u64,
    /// References per processor discarded as warm-up.
    pub warmup_references: usize,
    /// References per processor measured.
    pub measured_references: usize,
}

impl TraceSimConfig {
    /// A small default configuration for `n` processors.
    pub fn new(n: usize, mods: ModSet) -> Self {
        TraceSimConfig {
            n,
            mods,
            update_policy: UpdatePolicy::AlwaysUpdate,
            timing: TimingModel::default(),
            params: WorkloadParams::default(),
            trace: TraceConfig { processors: n, ..TraceConfig::default() },
            sets: 256,
            ways: 2,
            seed: 0xcab1e,
            warmup_references: 5_000,
            measured_references: 20_000,
        }
    }

    /// The [`TraceSource`]-based driving configuration this legacy
    /// configuration describes (`tau` is taken from the workload
    /// parameters, everything else carries over).
    pub fn drive_config(&self) -> TraceDriveConfig {
        TraceDriveConfig {
            n: self.n,
            mods: self.mods,
            update_policy: self.update_policy,
            timing: self.timing,
            tau: self.params.tau,
            sets: self.sets,
            ways: self.ways,
            seed: self.seed,
            warmup_references: self.warmup_references,
            measured_references: self.measured_references,
        }
    }

    /// The synthetic [`TraceGenerator`] this configuration describes,
    /// seeded from [`TraceSimConfig::seed`]; run it with
    /// `simulate_trace_source(&c.drive_config(), c.generator()?)`.
    ///
    /// # Errors
    ///
    /// Propagates workload-parameter validation failures.
    pub fn generator(&self) -> Result<TraceGenerator<SmallRng>, SimError> {
        self.params.validate()?;
        if self.trace.processors == 0 {
            return Err(SimError::InvalidConfig("need at least one processor".into()));
        }
        Ok(TraceGenerator::new(self.params, self.trace, SmallRng::seed_from_u64(self.seed)))
    }
}

/// Configuration of a [`TraceSource`]-driven simulation run.
///
/// Unlike the legacy [`TraceSimConfig`] this says nothing about where
/// references come from — address-space shape and reference mix live in
/// the source; only machine structure (caches, timing, protocol) and run
/// control (think time, warm-up/measurement windows) remain.
#[derive(Debug, Clone, Copy)]
pub struct TraceDriveConfig {
    /// Number of processors (must match the source).
    pub n: usize,
    /// Protocol modification set.
    pub mods: ModSet,
    /// Broadcast policy (only meaningful with modification 4).
    pub update_policy: UpdatePolicy,
    /// Bus/memory timing.
    pub timing: TimingModel,
    /// Mean think time between references (cycles, exponentially
    /// distributed). File-backed sources measure one — see
    /// [`TraceSource::measured_tau`].
    pub tau: f64,
    /// Cache sets per processor.
    pub sets: usize,
    /// Cache associativity (ways per set).
    pub ways: usize,
    /// Seed of the think-time RNG.
    pub seed: u64,
    /// References per processor discarded as warm-up.
    pub warmup_references: usize,
    /// References per processor measured.
    pub measured_references: usize,
}

impl TraceDriveConfig {
    /// A small default configuration for `n` processors.
    pub fn new(n: usize, mods: ModSet) -> Self {
        TraceSimConfig::new(n, mods).drive_config()
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.n == 0 {
            return Err(SimError::InvalidConfig("need at least one processor".into()));
        }
        if self.sets == 0 || self.ways == 0 {
            return Err(SimError::InvalidConfig("cache needs sets and ways".into()));
        }
        if self.measured_references == 0 {
            return Err(SimError::InvalidConfig("need a measurement phase".into()));
        }
        if !(self.tau.is_finite() && self.tau > 0.0) {
            return Err(SimError::InvalidConfig(format!(
                "think time tau must be positive and finite, got {}",
                self.tau
            )));
        }
        self.timing.validate()?;
        Ok(())
    }
}

/// Results of a trace-driven run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSimMeasures {
    /// Number of processors.
    pub n: usize,
    /// Mean time between references.
    pub r: f64,
    /// Speedup `Σ_p (τ + T_supply)/R_p`.
    pub speedup: f64,
    /// Bus utilization over the measurement window.
    pub bus_utilization: f64,
    /// Emergent hit rate over measured references.
    pub hit_rate: f64,
    /// Emergent fraction of misses supplied by another cache.
    pub cache_supply_rate: f64,
    /// Bus transactions per reference.
    pub bus_ops_per_reference: f64,
    /// Emergent hit rate of the private stream.
    pub hit_rate_private: f64,
    /// Emergent hit rate of the shared read-only stream.
    pub hit_rate_sro: f64,
    /// Emergent hit rate of the shared-writable stream.
    pub hit_rate_sw: f64,
    /// Snoop-induced invalidations per measured reference.
    pub invalidations_per_reference: f64,
}

/// One cache line.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    state: CacheState,
    /// LRU stamp (higher = more recent).
    lru: u64,
}

/// A set-associative cache with LRU replacement.
#[derive(Debug, Clone)]
struct Cache {
    sets: usize,
    ways: usize,
    lines: Vec<Line>,
    tick: u64,
}

impl Cache {
    fn new(sets: usize, ways: usize) -> Self {
        Cache { sets, ways, lines: vec![Line::default(); sets * ways], tick: 0 }
    }

    fn set_range(&self, block: u64) -> std::ops::Range<usize> {
        let set = (block % self.sets as u64) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// State of `block` in this cache (Invalid if absent).
    fn state(&self, block: u64) -> CacheState {
        self.lines[self.set_range(block)]
            .iter()
            .find(|l| l.tag == block && l.state.is_valid())
            .map_or(CacheState::Invalid, |l| l.state)
    }

    /// Updates the state of a resident block (touches LRU).
    fn set_state(&mut self, block: u64, state: CacheState) {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(block);
        if let Some(l) =
            self.lines[range].iter_mut().find(|l| l.tag == block && l.state.is_valid())
        {
            if state.is_valid() {
                l.state = state;
                l.lru = tick;
            } else {
                l.state = CacheState::Invalid;
            }
        }
    }

    /// Installs `block` with `state`, evicting LRU; returns the evicted
    /// block if it was valid and dirty (needs a write-back).
    fn fill(&mut self, block: u64, state: CacheState) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(block);
        // Re-use the block's own line or an invalid line if present.
        let lines = &mut self.lines[range];
        let victim = if let Some(i) = lines
            .iter()
            .position(|l| (l.tag == block && l.state.is_valid()) || !l.state.is_valid())
        {
            i
        } else {
            lines
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("ways > 0")
        };
        let evicted = lines[victim];
        lines[victim] = Line { tag: block, state, lru: tick };
        if evicted.state.is_valid() && evicted.state.is_dirty() && evicted.tag != block {
            Some(evicted.tag)
        } else {
            None
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Issue(usize),
    BusRelease,
}

#[derive(Debug, Clone, Copy)]
struct BusJob {
    proc: usize,
    op: BusOp,
    block: u64,
    is_write: bool,
    stream: Stream,
}

struct TraceMachine<S> {
    config: TraceDriveConfig,
    protocol: Protocol,
    calendar: Calendar<Event>,
    source: S,
    words_per_block: u64,
    /// Set when a processor's stream runs dry *before* it completed its
    /// measurement window; the run aborts and reports
    /// [`SimError::InsufficientRun`]. A processor that runs dry after
    /// finishing merely parks (stops issuing) while the others catch up —
    /// finite sources with uneven drain rates are normal for file traces.
    exhausted: bool,
    rng: SmallRng,
    caches: Vec<Cache>,
    bus_queue: VecDeque<BusJob>,
    bus_busy: bool,
    window: RunWindow,
    bus_busy_time: f64,
    hits: usize,
    misses: usize,
    cache_supplied: usize,
    bus_ops: usize,
    /// (hits, total) per stream: [private, sro, sw].
    stream_hits: [(usize, usize); 3],
    invalidations: usize,
    counters: ParameterCounters,
    /// Per-block consecutive useless broadcasts (adaptive RWB policy).
    useless_broadcasts: std::collections::HashMap<u64, u8>,
}

impl<S: TraceSource> TraceMachine<S> {
    fn new(config: TraceDriveConfig, source: S) -> Self {
        let n = config.n;
        TraceMachine {
            protocol: Protocol::new(config.mods),
            words_per_block: source.words_per_block().max(1),
            source,
            exhausted: false,
            rng: SmallRng::seed_from_u64(config.seed ^ 0xdead_beef),
            config,
            calendar: Calendar::new(),
            caches: (0..n).map(|_| Cache::new(config.sets, config.ways)).collect(),
            bus_queue: VecDeque::new(),
            bus_busy: false,
            window: RunWindow::new(n, config.warmup_references, config.measured_references),
            bus_busy_time: 0.0,
            hits: 0,
            misses: 0,
            cache_supplied: 0,
            bus_ops: 0,
            stream_hits: [(0, 0); 3],
            invalidations: 0,
            counters: ParameterCounters::default(),
            useless_broadcasts: std::collections::HashMap::new(),
        }
    }

    fn think(&mut self) -> f64 {
        let u: f64 = self.rng.random();
        -self.config.tau * (1.0 - u).ln()
    }

    fn run(&mut self) -> Result<TraceSimMeasures, SimError> {
        for p in 0..self.config.n {
            let t = self.think();
            self.calendar.schedule(t, Event::Issue(p));
        }
        while let Some((now, event)) = self.calendar.next() {
            match event {
                Event::Issue(p) => self.issue(now, p),
                Event::BusRelease => self.release_bus(now),
            }
            // A source that ran dry mid-window makes completion impossible —
            // abort rather than let the surviving processors spin forever.
            if self.window.all_done() || self.exhausted {
                break;
            }
        }
        self.finish()
    }

    fn shared_line(&self, block: u64, except: usize) -> bool {
        self.caches
            .iter()
            .enumerate()
            .any(|(q, c)| q != except && c.state(block).is_valid())
    }

    fn issue(&mut self, now: f64, p: usize) {
        let Some(TraceRecord { address, is_write, stream, .. }) = self.source.next_for(p)
        else {
            // Done processors park silently; an unfinished one dooms the run.
            if !self.window.is_done(p) {
                self.exhausted = true;
            }
            return;
        };
        let block = address / self.words_per_block;
        let state = self.caches[p].state(block);
        let ctx = MissContext { shared_line: self.shared_line(block, p) };
        let transition = if is_write {
            self.protocol.processor_write(state, ctx)
        } else {
            self.protocol.processor_read(state, ctx)
        };

        // Reference-side counts start at each processor's own warm-up
        // (an open window implies every processor is warm).
        if self.window.is_warm(p) {
            if transition.hit {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            let stream_idx = stream_index(stream);
            self.stream_hits[stream_idx].1 += 1;
            if transition.hit {
                self.stream_hits[stream_idx].0 += 1;
            }
            // Parameter-measurement counters (reference-side).
            self.counters.refs[stream_idx] += 1;
            if !is_write {
                self.counters.reads[stream_idx] += 1;
            }
            if transition.hit {
                self.counters.hits[stream_idx] += 1;
                if is_write {
                    self.counters.write_hits[stream_idx] += 1;
                    if state.is_dirty() {
                        self.counters.write_hits_modified[stream_idx] += 1;
                    }
                }
            } else {
                self.counters.misses[stream_idx] += 1;
            }
        }

        match transition.bus_op {
            None => {
                self.caches[p].set_state(block, transition.next_state);
                let done = now + self.config.timing.t_supply;
                self.complete(done, p);
            }
            Some(op) => {
                // For a hit the state change applies when the bus op
                // completes; for a miss the fill (and any victim
                // write-back) is resolved at dispatch time.
                self.bus_queue.push_back(BusJob { proc: p, op, block, is_write, stream });
                if !self.bus_busy {
                    self.dispatch(now);
                }
            }
        }
    }

    fn dispatch(&mut self, now: f64) {
        let Some(job) = self.bus_queue.pop_front() else {
            return;
        };
        self.bus_busy = true;
        self.bus_ops += 1;
        let timing = self.config.timing;
        let p = job.proc;

        // Adaptive RWB policy: a broadcast for a block whose recent
        // broadcasts found no other holders is demoted to an invalidation
        // (which, with nobody holding a copy, silently regains
        // exclusivity for the writer).
        let mut op = job.op;
        let mut adaptive_invalidate = false;
        if op == BusOp::WriteWord {
            if let UpdatePolicy::Adaptive { useless_limit } = self.config.update_policy {
                let useless =
                    self.useless_broadcasts.get(&job.block).copied().unwrap_or(0);
                if useless >= useless_limit {
                    op = BusOp::Invalidate;
                    adaptive_invalidate = true;
                }
            }
        }

        // Snoop every other cache; gather shared line / supplier / memory
        // write-back facts from the actual states.
        let mut any_shared = false;
        let mut supplier_writes_memory = false;
        let mut supplied = false;
        let mut supplier_was_dirty = false;
        for q in 0..self.config.n {
            if q == p {
                continue;
            }
            let state = self.caches[q].state(job.block);
            if state == CacheState::Invalid {
                continue;
            }
            let response = self.protocol.snoop(state, op);
            if self.window.measuring()
                && state.is_valid()
                && response.next_state == CacheState::Invalid
            {
                self.invalidations += 1;
            }
            if response.raises_shared {
                any_shared = true;
            }
            if response.can_supply && !supplied && op.requests_data() {
                supplied = true;
                supplier_writes_memory = response.writes_memory;
                supplier_was_dirty = state.is_dirty();
            }
            self.caches[q].set_state(job.block, response.next_state);
        }

        // Maintain the adaptive policy's per-block usefulness counter.
        if matches!(self.config.update_policy, UpdatePolicy::Adaptive { .. }) {
            match op {
                BusOp::WriteWord => {
                    if any_shared {
                        self.useless_broadcasts.remove(&job.block);
                    } else {
                        let c = self.useless_broadcasts.entry(job.block).or_insert(0);
                        *c = c.saturating_add(1);
                    }
                }
                // A new reader makes broadcasts potentially useful again.
                BusOp::Read | BusOp::ReadMod => {
                    self.useless_broadcasts.remove(&job.block);
                }
                _ => {}
            }
        }

        // Duration of the transaction.
        let mut duration = match op {
            BusOp::WriteWord | BusOp::Invalidate => timing.t_write,
            BusOp::WriteBlock => timing.writeback_cycles(),
            BusOp::Read | BusOp::ReadMod => {
                if supplied {
                    timing.cache_read_cycles()
                } else {
                    timing.memory_read_cycles()
                }
            }
        };
        if supplier_writes_memory {
            duration += timing.writeback_cycles();
        }

        // Apply the requester's own state change / fill.
        let resident = self.caches[p].state(job.block).is_valid();
        if op.requests_data() && !resident {
            if self.window.measuring() && supplied {
                self.cache_supplied += 1;
            }
            let ctx = MissContext { shared_line: any_shared };
            let fill = self.protocol.fill_state(op, ctx);
            let dirty_victim = self.caches[p].fill(job.block, fill).is_some();
            if self.window.measuring() {
                let stream_idx = stream_index(job.stream);
                self.counters.fills[stream_idx] += 1;
                if dirty_victim {
                    self.counters.fills_dirty_victim[stream_idx] += 1;
                }
                if supplied {
                    self.counters.misses_supplied[stream_idx] += 1;
                    if supplier_was_dirty {
                        self.counters.misses_supplied_dirty[stream_idx] += 1;
                    }
                }
            }
            if dirty_victim {
                // Dirty victim rides the same transaction as a write-back.
                duration += timing.writeback_cycles();
            }
            // A modification-4 write miss that found copies broadcasts the
            // written word right after the fill.
            if job.is_write && self.protocol.write_miss_broadcasts(ctx) {
                duration += timing.t_write;
                for q in 0..self.config.n {
                    if q != p {
                        let s = self.caches[q].state(job.block);
                        if s.is_valid() {
                            let r = self.protocol.snoop(s, BusOp::WriteWord);
                            self.caches[q].set_state(job.block, r.next_state);
                        }
                    }
                }
            }
        } else if resident {
            if adaptive_invalidate {
                // The broadcast was demoted to an invalidation: the writer
                // regains an exclusive, modified copy.
                self.caches[p].set_state(job.block, CacheState::ExclusiveDirty);
            } else {
                // Consistency announcement: recompute the transition now
                // that the bus op is performed (states may have moved since
                // issue, e.g. an intervening invalidation — re-resolve
                // honestly).
                let state = self.caches[p].state(job.block);
                let ctx = MissContext { shared_line: any_shared };
                let transition = if job.is_write {
                    self.protocol.processor_write(state, ctx)
                } else {
                    self.protocol.processor_read(state, ctx)
                };
                self.caches[p].set_state(job.block, transition.next_state);
            }
        } else {
            // The block was invalidated between issue and grant and this
            // was an announcement op; fall back to a fresh fill.
            let ctx = MissContext { shared_line: any_shared };
            let fill = self.protocol.fill_state(
                if job.is_write { BusOp::ReadMod } else { BusOp::Read },
                ctx,
            );
            duration += timing.memory_read_cycles() - timing.t_write.min(duration);
            if self.caches[p].fill(job.block, fill).is_some() {
                duration += timing.writeback_cycles();
            }
        }

        let release = now + duration.max(timing.t_write);
        if self.window.measuring() {
            self.bus_busy_time += release - now;
        }
        self.calendar.schedule(release, Event::BusRelease);
        self.complete(release + timing.t_supply, p);
    }

    fn release_bus(&mut self, now: f64) {
        self.bus_busy = false;
        if !self.bus_queue.is_empty() {
            self.dispatch(now);
        }
    }

    fn complete(&mut self, done: f64, p: usize) {
        self.window.complete(p, done);
        let think = self.think();
        self.calendar.schedule(done + think, Event::Issue(p));
    }

    fn finish(&self) -> Result<TraceSimMeasures, SimError> {
        let window = self.window.finish(self.config.tau + self.config.timing.t_supply)?;
        let total_refs = (self.hits + self.misses).max(1);

        let stream_rate = |idx: usize| {
            let (h, t) = self.stream_hits[idx];
            if t > 0 {
                h as f64 / t as f64
            } else {
                0.0
            }
        };
        Ok(TraceSimMeasures {
            n: self.config.n,
            r: window.r,
            speedup: window.speedup,
            bus_utilization: (self.bus_busy_time / window.length).min(1.0),
            hit_rate: self.hits as f64 / total_refs as f64,
            cache_supply_rate: if self.misses > 0 {
                self.cache_supplied as f64 / self.misses as f64
            } else {
                0.0
            },
            bus_ops_per_reference: self.bus_ops as f64 / total_refs as f64,
            hit_rate_private: stream_rate(0),
            hit_rate_sro: stream_rate(1),
            hit_rate_sw: stream_rate(2),
            invalidations_per_reference: self.invalidations as f64 / total_refs as f64,
        })
    }
}

fn stream_index(stream: Stream) -> usize {
    match stream {
        Stream::Private => 0,
        Stream::SharedReadOnly => 1,
        Stream::SharedWritable => 2,
    }
}

fn check_source<S: TraceSource>(config: &TraceDriveConfig, source: &S) -> Result<(), SimError> {
    config.validate()?;
    if source.processors() != config.n {
        return Err(SimError::InvalidConfig(format!(
            "source has {} processors but the configuration asks for {}",
            source.processors(),
            config.n
        )));
    }
    Ok(())
}

/// Runs one trace-driven simulation over any [`TraceSource`].
///
/// # Errors
///
/// Configuration validation failures, a processor-count mismatch between
/// `config` and `source`, or [`SimError::InsufficientRun`] when a finite
/// source runs dry before every processor completes its warm-up and
/// measurement windows.
pub fn simulate_trace_source<S: TraceSource>(
    config: &TraceDriveConfig,
    source: S,
) -> Result<TraceSimMeasures, SimError> {
    check_source(config, &source)?;
    TraceMachine::new(*config, source).run()
}

/// Runs one trace-driven simulation over any [`TraceSource`] and also
/// *measures* the workload parameters from the observed behaviour (the
/// paper's closing "workload measurement studies" — see
/// [`snoop_workload::measure`]).
///
/// # Errors
///
/// As [`simulate_trace_source`], plus workload validation of the measured
/// parameters.
pub fn simulate_trace_source_measuring<S: TraceSource>(
    config: &TraceDriveConfig,
    source: S,
) -> Result<(TraceSimMeasures, WorkloadParams), SimError> {
    check_source(config, &source)?;
    let mut machine = TraceMachine::new(*config, source);
    let measures = machine.run()?;
    let params = machine.counters.estimate(config.tau);
    params.validate().map_err(SimError::Workload)?;
    Ok((measures, params))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(n: usize, mods: &[u8]) -> TraceSimConfig {
        let mut c = TraceSimConfig::new(n, ModSet::from_numbers(mods).unwrap());
        c.warmup_references = 2_000;
        c.measured_references = 8_000;
        c
    }

    /// Runs a legacy configuration through the `TraceSource` path.
    fn run_cfg(c: &TraceSimConfig) -> Result<TraceSimMeasures, SimError> {
        simulate_trace_source(&c.drive_config(), c.generator()?)
    }

    /// A finite source replaying a fixed record list, round-robin.
    struct VecSource {
        records: Vec<TraceRecord>,
        cursor: Vec<usize>,
        n: usize,
    }

    impl VecSource {
        fn new(n: usize, records: Vec<TraceRecord>) -> Self {
            VecSource { records, cursor: vec![0; n], n }
        }
    }

    impl TraceSource for VecSource {
        fn processors(&self) -> usize {
            self.n
        }

        fn words_per_block(&self) -> u64 {
            4
        }

        fn next_for(&mut self, processor: usize) -> Option<TraceRecord> {
            let skip = self.cursor[processor];
            let found = self
                .records
                .iter()
                .filter(|r| r.processor == processor)
                .nth(skip)
                .copied()?;
            self.cursor[processor] += 1;
            Some(found)
        }
    }

    #[test]
    fn exhausted_source_reports_insufficient_run() {
        // Two processors, but far fewer records than warmup + measured:
        // the run must abort with per-processor progress, not hang or
        // panic.
        let records: Vec<TraceRecord> = (0..40)
            .map(|i| TraceRecord {
                processor: i % 2,
                address: (i as u64) * 8,
                is_write: i % 5 == 0,
                stream: Stream::Private,
            })
            .collect();
        let mut config = TraceDriveConfig::new(2, ModSet::new());
        config.warmup_references = 10;
        config.measured_references = 100;
        let err = simulate_trace_source(&config, VecSource::new(2, records)).unwrap_err();
        let SimError::InsufficientRun { warmup, measured, progress } = err else {
            panic!("expected InsufficientRun, got {err:?}");
        };
        assert_eq!((warmup, measured), (10, 100));
        assert_eq!(progress.len(), 2);
        assert!(progress.iter().all(|&c| c <= 20), "{progress:?}");
    }

    #[test]
    fn source_processor_mismatch_is_rejected() {
        let config = TraceDriveConfig::new(4, ModSet::new());
        let records = vec![TraceRecord {
            processor: 0,
            address: 0,
            is_write: false,
            stream: Stream::Private,
        }];
        let err = simulate_trace_source(&config, VecSource::new(2, records)).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn per_stream_hit_rates_are_ordered_sensibly() {
        // Private and sro reuse is high; sw blocks get invalidated by other
        // writers, so their emergent hit rate is the lowest — the ordering
        // the Appendix-A parameters encode (0.95/0.95/0.5).
        let m = run_cfg(&quick(4, &[])).unwrap();
        assert!(m.hit_rate_private > 0.8, "private {}", m.hit_rate_private);
        assert!(m.hit_rate_sro > 0.8, "sro {}", m.hit_rate_sro);
        assert!(
            m.hit_rate_sw < m.hit_rate_private,
            "sw {} vs private {}",
            m.hit_rate_sw,
            m.hit_rate_private
        );
    }

    #[test]
    fn update_protocol_raises_sw_hit_rate() {
        // Modification 4's whole premise (the h_sw 0.5 → 0.95 adjustment):
        // copies stop being invalidated, so the sw hit rate climbs. The
        // trace simulator shows the mechanism emergently.
        let inv = run_cfg(&quick(4, &[1])).unwrap();
        let upd = run_cfg(&quick(4, &[1, 4])).unwrap();
        assert!(
            upd.hit_rate_sw > inv.hit_rate_sw,
            "update {} vs invalidate {}",
            upd.hit_rate_sw,
            inv.hit_rate_sw
        );
        assert!(upd.invalidations_per_reference < inv.invalidations_per_reference);
    }

    #[test]
    fn hit_rate_emerges_near_parameters() {
        // The trace generator's locality targets the Appendix-A hit rates;
        // with a roomy cache the emergent hit rate should be in the same
        // neighbourhood (weighted ≈ 0.94 at the 5% mix).
        let m = run_cfg(&quick(2, &[])).unwrap();
        assert!(m.hit_rate > 0.85 && m.hit_rate < 0.99, "hit rate {}", m.hit_rate);
    }

    #[test]
    fn speedup_scales() {
        let s1 = run_cfg(&quick(1, &[])).unwrap().speedup;
        let s4 = run_cfg(&quick(4, &[])).unwrap().speedup;
        assert!(s1 > 0.6 && s1 <= 1.0, "s1 = {s1}");
        assert!(s4 > 2.0 * s1, "s1 = {s1}, s4 = {s4}");
    }

    #[test]
    fn mod1_reduces_bus_ops() {
        // Modification 1's whole point: private write hits stop
        // broadcasting.
        let wo = run_cfg(&quick(4, &[])).unwrap();
        let m1 = run_cfg(&quick(4, &[1])).unwrap();
        assert!(
            m1.bus_ops_per_reference < wo.bus_ops_per_reference,
            "{} vs {}",
            m1.bus_ops_per_reference,
            wo.bus_ops_per_reference
        );
        assert!(m1.speedup > wo.speedup);
    }

    #[test]
    fn coherence_invariants_hold_under_simulation() {
        // Run a small hot configuration and verify the cross-cache
        // invariants on every shared block afterwards.
        let mut c = quick(3, &[2, 3]);
        c.trace.sw_blocks = 16;
        c.trace.sro_blocks = 16;
        c.warmup_references = 500;
        c.measured_references = 4_000;
        c.drive_config().validate().unwrap();
        let mut machine = TraceMachine::new(c.drive_config(), c.generator().unwrap());
        let measures = machine.run().unwrap();
        assert!(measures.speedup > 0.0);
        // Check invariants over the sw region blocks.
        let wpb = c.trace.words_per_block;
        for block_idx in 0..c.trace.sw_blocks {
            let addr = machine.source.address_map().sw_address(block_idx, 0);
            let block = addr / wpb;
            let states: Vec<CacheState> =
                machine.caches.iter().map(|cache| cache.state(block)).collect();
            assert!(
                snoop_protocol::invariants::is_coherent(&states, c.mods),
                "block {block}: {states:?}"
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = run_cfg(&quick(2, &[])).unwrap();
        let b = run_cfg(&quick(2, &[])).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_policy_cuts_useless_broadcasts() {
        // A mostly-private workload under an update protocol: most
        // broadcasts find no other holder, so the adaptive policy should
        // reduce bus operations without hurting speedup.
        let mut base = quick(4, &[1, 4]);
        base.params = WorkloadParams::builder()
            .streams(0.99, 0.005, 0.005)
            .build()
            .unwrap();
        let always = run_cfg(&base).unwrap();
        let mut adaptive_cfg = base;
        adaptive_cfg.update_policy = UpdatePolicy::Adaptive { useless_limit: 2 };
        let adaptive = run_cfg(&adaptive_cfg).unwrap();
        assert!(
            adaptive.bus_ops_per_reference <= always.bus_ops_per_reference,
            "adaptive {} vs always {}",
            adaptive.bus_ops_per_reference,
            always.bus_ops_per_reference
        );
        assert!(adaptive.speedup >= always.speedup * 0.98);
    }

    #[test]
    fn adaptive_policy_is_neutral_without_mod4() {
        let base = quick(3, &[]);
        let a = run_cfg(&base).unwrap();
        let mut cfg = base;
        cfg.update_policy = UpdatePolicy::Adaptive { useless_limit: 1 };
        let b = run_cfg(&cfg).unwrap();
        // No WriteWord broadcasts survive to be demoted under heavy-sharing
        // Write-Once? They do exist (write-through), but private broadcasts
        // finding no holders get demoted to invalidations of nobody — the
        // measures stay statistically close either way.
        assert!((a.speedup - b.speedup).abs() / a.speedup < 0.05);
    }

    #[test]
    fn adaptive_system_stays_coherent() {
        let mut cfg = quick(3, &[1, 4]);
        cfg.update_policy = UpdatePolicy::Adaptive { useless_limit: 1 };
        cfg.trace.sw_blocks = 16;
        let mut machine = TraceMachine::new(cfg.drive_config(), cfg.generator().unwrap());
        machine.run().unwrap();
        let wpb = cfg.trace.words_per_block;
        for block_idx in 0..cfg.trace.sw_blocks {
            let addr = machine.source.address_map().sw_address(block_idx, 0);
            let block = addr / wpb;
            let states: Vec<CacheState> =
                machine.caches.iter().map(|c| c.state(block)).collect();
            assert!(
                snoop_protocol::invariants::is_coherent(&states, cfg.mods),
                "block {block}: {states:?}"
            );
        }
    }

    #[test]
    fn validation_catches_mismatched_processors() {
        let mut c = quick(2, &[]);
        c.trace.processors = 3;
        assert!(run_cfg(&c).is_err());
    }

    #[test]
    fn small_cache_lowers_hit_rate() {
        let big = run_cfg(&quick(2, &[])).unwrap();
        let mut small_cfg = quick(2, &[]);
        small_cfg.sets = 8;
        small_cfg.ways = 1;
        let small = run_cfg(&small_cfg).unwrap();
        assert!(small.hit_rate < big.hit_rate, "{} vs {}", small.hit_rate, big.hit_rate);
        assert!(small.speedup < big.speedup);
    }
}
