//! Appendix-A workload-parameter estimation from address traces.
//!
//! The paper closes: "The model can be put to good use for evaluating the
//! protocols more thoroughly — all that is needed are workload measurement
//! studies to aid in the assignment of parameter values." This module is
//! that measurement study: it replays any [`TraceSource`] through a small
//! per-processor coherence-aware cache model and estimates every basic
//! parameter of [`WorkloadParams`] from the observed behaviour — stream
//! mix, read fractions, per-stream hit rates, already-modified
//! probabilities, cache-supply and dirty-supplier probabilities, and
//! replacement write-back probabilities — then derives the headline model
//! inputs (`p_local`, `p_bc`) through [`ModelInputs`].
//!
//! Measurement is *windowed*: the post-warmup stretch of the trace is cut
//! into equal windows, each estimated independently, and the across-window
//! spread yields Student-t confidence half-widths for the headline
//! statistics. Per-window derivation runs through the deterministic
//! parallel executor, so results are bit-identical at any thread count.

use snoop_numeric::exec::{par_map, ExecOptions};
use snoop_numeric::stats::{t_critical, RunningStats};
use snoop_protocol::ModSet;

use crate::block_hash::BlockSet;
use crate::derived::ModelInputs;
use crate::params::WorkloadParams;
use crate::synth::Stream;
use crate::timing::TimingModel;
use crate::trace::TraceSource;
use crate::WorkloadError;

/// Raw event counters, one accumulator per estimated parameter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParameterCounters {
    /// References per stream `[private, sro, sw]`.
    pub refs: [u64; 3],
    /// Reads per stream.
    pub reads: [u64; 3],
    /// Hits per stream.
    pub hits: [u64; 3],
    /// Write hits per stream.
    pub write_hits: [u64; 3],
    /// Write hits that found the block already modified, per stream.
    pub write_hits_modified: [u64; 3],
    /// Misses per stream.
    pub misses: [u64; 3],
    /// Misses that found a copy in another cache, per stream.
    pub misses_supplied: [u64; 3],
    /// Supplied misses whose supplier held the block dirty, per stream.
    pub misses_supplied_dirty: [u64; 3],
    /// Fills that evicted a dirty victim, per incoming stream.
    pub fills_dirty_victim: [u64; 3],
    /// Fills total, per incoming stream.
    pub fills: [u64; 3],
}

impl ParameterCounters {
    /// Total recorded references.
    pub fn total(&self) -> u64 {
        self.refs.iter().sum()
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &ParameterCounters) {
        let pairs: [(&mut [u64; 3], &[u64; 3]); 10] = [
            (&mut self.refs, &other.refs),
            (&mut self.reads, &other.reads),
            (&mut self.hits, &other.hits),
            (&mut self.write_hits, &other.write_hits),
            (&mut self.write_hits_modified, &other.write_hits_modified),
            (&mut self.misses, &other.misses),
            (&mut self.misses_supplied, &other.misses_supplied),
            (&mut self.misses_supplied_dirty, &other.misses_supplied_dirty),
            (&mut self.fills_dirty_victim, &other.fills_dirty_victim),
            (&mut self.fills, &other.fills),
        ];
        for (dst, src) in pairs {
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
    }

    /// Converts the counters into workload parameters, keeping `tau` from
    /// the driving configuration (think time is an input, not a
    /// measurement).
    ///
    /// Empty counters fall back to neutral values (rates of 0, stream mix
    /// of the input) rather than dividing by zero.
    pub fn estimate(&self, tau: f64) -> WorkloadParams {
        let total = self.total().max(1) as f64;
        let rate = |num: u64, den: u64| if den > 0 { num as f64 / den as f64 } else { 0.0 };
        let private_dirty = self.fills_dirty_victim[0] + self.fills_dirty_victim[1];
        let private_fills = self.fills[0] + self.fills[1];

        let mut p = WorkloadParams {
            tau,
            p_private: self.refs[0] as f64 / total,
            p_sro: self.refs[1] as f64 / total,
            p_sw: self.refs[2] as f64 / total,
            h_private: rate(self.hits[0], self.refs[0]),
            h_sro: rate(self.hits[1], self.refs[1]),
            h_sw: rate(self.hits[2], self.refs[2]),
            r_private: rate(self.reads[0], self.refs[0]),
            r_sw: rate(self.reads[2], self.refs[2]),
            amod_private: rate(self.write_hits_modified[0], self.write_hits[0]),
            amod_sw: rate(self.write_hits_modified[2], self.write_hits[2]),
            csupply_sro: rate(self.misses_supplied[1], self.misses[1]),
            csupply_sw: rate(self.misses_supplied[2], self.misses[2]),
            wb_csupply: rate(self.misses_supplied_dirty[2], self.misses_supplied[2]),
            rep_p: rate(private_dirty, private_fills),
            rep_sw: rate(self.fills_dirty_victim[2], self.fills[2]),
        };
        // Normalize the stream mix exactly (guards the validate() sum).
        let sum = p.p_private + p.p_sro + p.p_sw;
        if sum > 0.0 {
            p.p_private /= sum;
            p.p_sro /= sum;
            p.p_sw /= sum;
        } else {
            p.p_private = 1.0;
            p.p_sro = 0.0;
            p.p_sw = 0.0;
        }
        p
    }
}

/// Why a measurement run could not produce an estimate.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasureError {
    /// The source never exhausts and no `max_references` cap was set, so
    /// the run would not terminate.
    UnboundedSource,
    /// The trace is too short for the requested warmup + window layout.
    TooFewReferences {
        /// References the source actually delivered.
        available: u64,
        /// Minimum needed (warmup plus one reference per window).
        needed: u64,
    },
    /// The estimated parameters failed model-input derivation.
    Workload(WorkloadError),
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::UnboundedSource => write!(
                f,
                "trace source is unbounded; set MeasureConfig::max_references"
            ),
            MeasureError::TooFewReferences { available, needed } => write!(
                f,
                "trace too short to measure: {available} references, need at least {needed}"
            ),
            MeasureError::Workload(e) => write!(f, "measured parameters are unusable: {e}"),
        }
    }
}

impl std::error::Error for MeasureError {}

impl From<WorkloadError> for MeasureError {
    fn from(e: WorkloadError) -> Self {
        MeasureError::Workload(e)
    }
}

/// Configuration of a measurement run.
#[derive(Debug, Clone)]
pub struct MeasureConfig {
    /// Cache sets per processor in the measurement cache model.
    pub sets: usize,
    /// Associativity of the measurement caches.
    pub ways: usize,
    /// Number of measurement windows the post-warmup trace is cut into.
    pub windows: usize,
    /// Fraction of the trace spent warming the caches before counting.
    pub warmup_fraction: f64,
    /// Hard cap on total references consumed. Required for unbounded
    /// (synthetic) sources; for file traces it may trim the tail.
    pub max_references: Option<u64>,
    /// Protocol modifications used when deriving `p_local` / `p_bc`.
    pub mods: ModSet,
    /// Timing model used when deriving `p_local` / `p_bc`.
    pub timing: TimingModel,
    /// Fallback think time when the source measures none
    /// ([`TraceSource::measured_tau`] returns `None`).
    pub tau: f64,
    /// Executor options for the per-window derivation pass.
    pub exec: ExecOptions,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            sets: 64,
            ways: 2,
            windows: 8,
            warmup_fraction: 0.1,
            max_references: None,
            mods: ModSet::new(),
            timing: TimingModel::default(),
            tau: WorkloadParams::default().tau,
            exec: ExecOptions::default(),
        }
    }
}

/// Per-window estimate.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// References counted in this window.
    pub references: u64,
    /// Parameters estimated from this window alone.
    pub params: WorkloadParams,
    /// Derived probability a reference completes locally.
    pub p_local: f64,
    /// Derived expected broadcasts per reference.
    pub p_bc: f64,
}

/// Across-window summary of one headline statistic.
#[derive(Debug, Clone)]
pub struct HeadlineStat {
    /// Statistic name.
    pub name: &'static str,
    /// Across-window mean.
    pub mean: f64,
    /// Across-window sample standard deviation.
    pub std_dev: f64,
    /// Student-t 95% confidence half-width on the mean.
    pub half_width: f64,
}

/// Everything measured beyond the pooled parameter point estimate.
#[derive(Debug, Clone)]
pub struct MeasureDiagnostics {
    /// Processors in the source.
    pub processors: usize,
    /// References consumed in total (warmup + measured).
    pub total_references: u64,
    /// References spent warming the caches.
    pub warmup_references: u64,
    /// References actually counted.
    pub measured_references: u64,
    /// Distinct cache blocks touched.
    pub distinct_blocks: u64,
    /// Per-window estimates, in trace order.
    pub windows: Vec<WindowStats>,
    /// Across-window confidence summaries for the headline statistics.
    pub headline: Vec<HeadlineStat>,
    /// Whether `tau` came from the trace itself (vs the config fallback).
    pub tau_measured: bool,
}

/// A measured workload: pooled parameters plus diagnostics.
#[derive(Debug, Clone)]
pub struct MeasuredWorkload {
    /// Parameters estimated from the pooled post-warmup counters.
    pub params: WorkloadParams,
    /// `p_local` derived from the pooled parameters.
    pub p_local: f64,
    /// `p_bc` derived from the pooled parameters.
    pub p_bc: f64,
    /// Windowed diagnostics.
    pub diagnostics: MeasureDiagnostics,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MState {
    Clean,
    Dirty,
}

/// One processor's measurement cache: set-associative, LRU within a set
/// (front = most recent), invalidation-based coherence.
#[derive(Debug, Clone)]
struct MeasureCache {
    sets: u64,
    ways: usize,
    lines: Vec<Vec<(u64, MState)>>,
}

impl MeasureCache {
    fn new(sets: usize, ways: usize) -> Self {
        MeasureCache { sets: sets as u64, ways, lines: vec![Vec::new(); sets] }
    }

    fn set_of(&self, block: u64) -> usize {
        (block % self.sets) as usize
    }

    fn state(&self, block: u64) -> Option<MState> {
        let set = self.set_of(block);
        self.lines[set].iter().find(|(b, _)| *b == block).map(|(_, s)| *s)
    }

    /// Moves `block` to MRU and sets its state. The block must be present.
    fn touch(&mut self, block: u64, state: MState) {
        let set = self.set_of(block);
        let pos = self.lines[set].iter().position(|(b, _)| *b == block).expect("present");
        self.lines[set].remove(pos);
        self.lines[set].insert(0, (block, state));
    }

    /// Inserts `block` as MRU, returning the evicted victim if the set was
    /// full.
    fn fill(&mut self, block: u64, state: MState) -> Option<(u64, MState)> {
        let set = self.set_of(block);
        self.lines[set].insert(0, (block, state));
        if self.lines[set].len() > self.ways {
            self.lines[set].pop()
        } else {
            None
        }
    }

    fn invalidate(&mut self, block: u64) {
        let set = self.set_of(block);
        self.lines[set].retain(|(b, _)| *b != block);
    }

    /// Downgrades a dirty copy to clean (supplier wrote back).
    fn clean(&mut self, block: u64) {
        let set = self.set_of(block);
        if let Some(entry) = self.lines[set].iter_mut().find(|(b, _)| *b == block) {
            entry.1 = MState::Clean;
        }
    }
}

fn stream_index(stream: Stream) -> usize {
    match stream {
        Stream::Private => 0,
        Stream::SharedReadOnly => 1,
        Stream::SharedWritable => 2,
    }
}

/// Measures Appendix-A workload parameters from a [`TraceSource`].
///
/// Replays the trace round-robin across processors through per-processor
/// set-associative LRU caches with invalidation coherence, counting the
/// events each parameter is a rate of. The post-warmup stretch is cut into
/// [`MeasureConfig::windows`] equal windows whose independent estimates
/// give the confidence diagnostics.
///
/// # Errors
///
/// [`MeasureError::UnboundedSource`] when neither the source nor the
/// config bounds the run, [`MeasureError::TooFewReferences`] when the
/// trace cannot fill warmup plus one reference per window, and
/// [`MeasureError::Workload`] when the pooled estimate fails model-input
/// derivation.
pub fn measure_source<S: TraceSource>(
    source: &mut S,
    config: &MeasureConfig,
) -> Result<MeasuredWorkload, MeasureError> {
    let n = source.processors();
    let windows = config.windows.max(1);

    // Bound the run: the source's own count, the config cap, or error.
    let hint: Option<u64> = (0..n).try_fold(0u64, |acc, p| {
        source.remaining_hint(p).map(|r| acc + r)
    });
    let total = match (hint, config.max_references) {
        (Some(h), Some(cap)) => h.min(cap),
        (Some(h), None) => h,
        (None, Some(cap)) => cap,
        (None, None) => return Err(MeasureError::UnboundedSource),
    };
    let warmup = (total as f64 * config.warmup_fraction.clamp(0.0, 0.9)) as u64;
    let needed = warmup + windows as u64;
    if total < needed {
        return Err(MeasureError::TooFewReferences { available: total, needed });
    }
    let window_size = ((total - warmup) / windows as u64).max(1);

    let mut caches: Vec<MeasureCache> =
        (0..n).map(|_| MeasureCache::new(config.sets.max(1), config.ways.max(1))).collect();
    let mut window_counters = vec![ParameterCounters::default(); windows];
    let mut blocks_seen = BlockSet::default();
    let words_per_block = source.words_per_block().max(1);

    let mut alive: Vec<bool> = vec![true; n];
    let mut consumed = 0u64;
    'replay: while consumed < total {
        let mut progressed = false;
        for (p, alive_p) in alive.iter_mut().enumerate() {
            if consumed >= total {
                break 'replay;
            }
            if !*alive_p {
                continue;
            }
            let Some(record) = source.next_for(p) else {
                *alive_p = false;
                continue;
            };
            progressed = true;
            let block = record.address / words_per_block;
            let s = stream_index(record.stream);
            blocks_seen.insert(block);

            // Counting target: None during warmup, else the active window
            // (the last window absorbs the remainder).
            let counters = if consumed >= warmup {
                let idx = (((consumed - warmup) / window_size) as usize).min(windows - 1);
                Some(&mut window_counters[idx])
            } else {
                None
            };
            replay_reference(&mut caches, p, block, record.is_write, s, counters);
            consumed += 1;
        }
        if !progressed {
            break;
        }
    }

    let measured: u64 = window_counters.iter().map(ParameterCounters::total).sum();
    if consumed < needed || measured == 0 {
        return Err(MeasureError::TooFewReferences { available: consumed, needed });
    }

    let tau_measured = source.measured_tau();
    let tau = tau_measured.unwrap_or(config.tau);

    // Per-window estimates: independent, so derive them in parallel — the
    // deterministic executor keeps output bit-identical at any thread
    // count. A window whose estimate cannot be derived (e.g. an all-miss
    // degenerate stretch) is dropped from diagnostics rather than failing
    // the pooled measurement.
    let derived: Vec<Option<WindowStats>> =
        par_map(&window_counters, &config.exec, |counters| {
            let params = counters.estimate(tau);
            let inputs = ModelInputs::derive(&params, config.mods, &config.timing).ok()?;
            Some(WindowStats {
                references: counters.total(),
                params,
                p_local: inputs.p_local,
                p_bc: inputs.p_bc,
            })
        });
    let window_stats: Vec<WindowStats> = derived.into_iter().flatten().collect();

    let mut pooled = ParameterCounters::default();
    for c in &window_counters {
        pooled.merge(c);
    }
    let params = pooled.estimate(tau);
    let inputs = ModelInputs::derive(&params, config.mods, &config.timing)?;

    let headline = headline_stats(&window_stats);
    Ok(MeasuredWorkload {
        params,
        p_local: inputs.p_local,
        p_bc: inputs.p_bc,
        diagnostics: MeasureDiagnostics {
            processors: n,
            total_references: consumed,
            warmup_references: warmup,
            measured_references: measured,
            distinct_blocks: blocks_seen.len() as u64,
            windows: window_stats,
            headline,
            tau_measured: tau_measured.is_some(),
        },
    })
}

/// One reference through the coherence-aware cache model. `counters` is
/// `None` during warmup (caches update, nothing is counted).
fn replay_reference(
    caches: &mut [MeasureCache],
    p: usize,
    block: u64,
    is_write: bool,
    s: usize,
    counters: Option<&mut ParameterCounters>,
) {
    let own_state = caches[p].state(block);
    let mut c = ParameterCounters::default();
    c.refs[s] = 1;
    if !is_write {
        c.reads[s] = 1;
    }

    match own_state {
        Some(state) => {
            c.hits[s] = 1;
            if is_write {
                c.write_hits[s] = 1;
                if state == MState::Dirty {
                    c.write_hits_modified[s] = 1;
                }
                caches[p].touch(block, MState::Dirty);
                for (q, cache) in caches.iter_mut().enumerate() {
                    if q != p {
                        cache.invalidate(block);
                    }
                }
            } else {
                caches[p].touch(block, state);
            }
        }
        None => {
            c.misses[s] = 1;
            let mut supplied = false;
            let mut dirty_supplier = false;
            for (q, cache) in caches.iter().enumerate() {
                if q == p {
                    continue;
                }
                match cache.state(block) {
                    Some(MState::Dirty) => {
                        supplied = true;
                        dirty_supplier = true;
                    }
                    Some(MState::Clean) => supplied = true,
                    None => {}
                }
            }
            if supplied {
                c.misses_supplied[s] = 1;
                if dirty_supplier {
                    c.misses_supplied_dirty[s] = 1;
                }
            }
            if is_write {
                for (q, cache) in caches.iter_mut().enumerate() {
                    if q != p {
                        cache.invalidate(block);
                    }
                }
            } else if dirty_supplier {
                // The dirty supplier writes back and keeps a clean copy.
                for (q, cache) in caches.iter_mut().enumerate() {
                    if q != p {
                        cache.clean(block);
                    }
                }
            }
            let state = if is_write { MState::Dirty } else { MState::Clean };
            let victim = caches[p].fill(block, state);
            c.fills[s] = 1;
            if matches!(victim, Some((_, MState::Dirty))) {
                c.fills_dirty_victim[s] = 1;
            }
        }
    }

    if let Some(counters) = counters {
        counters.merge(&c);
    }
}

fn headline_stats(windows: &[WindowStats]) -> Vec<HeadlineStat> {
    let hit_rate = |w: &WindowStats| {
        let p = &w.params;
        p.p_private * p.h_private + p.p_sro * p.h_sro + p.p_sw * p.h_sw
    };
    let write_fraction = |w: &WindowStats| {
        let p = &w.params;
        p.p_private * (1.0 - p.r_private) + p.p_sw * (1.0 - p.r_sw)
    };
    type Statistic<'a> = (&'static str, &'a dyn Fn(&WindowStats) -> f64);
    let statistics: [Statistic<'_>; 5] = [
        ("hit_rate", &hit_rate),
        ("write_fraction", &write_fraction),
        ("sharing_fraction", &|w| w.params.p_sro + w.params.p_sw),
        ("p_local", &|w| w.p_local),
        ("p_bc", &|w| w.p_bc),
    ];
    statistics
        .iter()
        .map(|(name, value)| {
            let mut stats = RunningStats::new();
            for w in windows {
                stats.push(value(w));
            }
            let k = stats.count();
            let half_width = if k >= 2 {
                t_critical(k - 1, 0.05) * stats.sample_std_dev() / (k as f64).sqrt()
            } else {
                f64::INFINITY
            };
            HeadlineStat {
                name,
                mean: stats.mean(),
                std_dev: if k >= 2 { stats.sample_std_dev() } else { 0.0 },
                half_width,
            }
        })
        .collect()
}

/// Renders the diagnostics as an aligned text table for the CLI.
pub fn render_diagnostics(d: &MeasureDiagnostics) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "windows: {} x ~{} references ({} measured after {} warmup, {} distinct blocks)",
        d.windows.len(),
        if d.windows.is_empty() { 0 } else { d.measured_references / d.windows.len() as u64 },
        d.measured_references,
        d.warmup_references,
        d.distinct_blocks,
    );
    let _ = writeln!(out, "  {:<18} {:>10} {:>10} {:>10}", "statistic", "mean", "std", "+/-95%");
    for h in &d.headline {
        let _ = writeln!(
            out,
            "  {:<18} {:>10.4} {:>10.4} {:>10.4}",
            h.name, h.mean, h.std_dev, h.half_width
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceConfig, TraceGenerator};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn empty_counters_estimate_safely() {
        let c = ParameterCounters::default();
        let p = c.estimate(2.5);
        p.validate().unwrap();
        assert_eq!(p.p_private, 1.0);
        assert_eq!(p.h_sw, 0.0);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn simple_counters_produce_expected_rates() {
        let mut c = ParameterCounters::default();
        c.refs = [80, 10, 10];
        c.reads = [60, 10, 5];
        c.hits = [72, 9, 5];
        c.write_hits = [16, 0, 2];
        c.write_hits_modified = [8, 0, 1];
        c.misses = [8, 1, 5];
        c.misses_supplied = [0, 1, 4];
        c.misses_supplied_dirty = [0, 0, 2];
        c.fills = [8, 1, 5];
        c.fills_dirty_victim = [2, 0, 1];
        let p = c.estimate(2.5);
        p.validate().unwrap();
        assert!((p.p_private - 0.8).abs() < 1e-12);
        assert!((p.h_private - 0.9).abs() < 1e-12);
        assert!((p.r_private - 0.75).abs() < 1e-12);
        assert!((p.amod_private - 0.5).abs() < 1e-12);
        assert!((p.csupply_sw - 0.8).abs() < 1e-12);
        assert!((p.wb_csupply - 0.5).abs() < 1e-12);
        assert!((p.rep_sw - 0.2).abs() < 1e-12);
        // rep_p pools private and sro fills: 2 dirty of 9.
        assert!((p.rep_p - 2.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_elementwise() {
        let mut a = ParameterCounters { refs: [1, 2, 3], hits: [1, 0, 0], ..Default::default() };
        let b = ParameterCounters { refs: [10, 0, 0], hits: [5, 5, 5], ..Default::default() };
        a.merge(&b);
        assert_eq!(a.refs, [11, 2, 3]);
        assert_eq!(a.hits, [6, 5, 5]);
        assert_eq!(a.total(), 16);
    }

    fn synthetic_source(seed: u64) -> TraceGenerator<SmallRng> {
        TraceGenerator::new(
            WorkloadParams::default(),
            TraceConfig { private_blocks: 512, ..TraceConfig::default() },
            SmallRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn unbounded_source_without_cap_is_rejected() {
        let mut source = synthetic_source(1);
        let err = measure_source(&mut source, &MeasureConfig::default()).unwrap_err();
        assert_eq!(err, MeasureError::UnboundedSource);
    }

    #[test]
    fn too_short_trace_is_rejected() {
        let mut source = synthetic_source(2);
        let config = MeasureConfig { max_references: Some(5), ..MeasureConfig::default() };
        let err = measure_source(&mut source, &config).unwrap_err();
        assert!(matches!(err, MeasureError::TooFewReferences { .. }), "{err:?}");
    }

    #[test]
    fn measures_synthetic_workload_near_its_parameters() {
        let mut source = synthetic_source(3);
        let config = MeasureConfig { max_references: Some(120_000), ..MeasureConfig::default() };
        let m = measure_source(&mut source, &config).unwrap();
        m.params.validate().unwrap();
        let truth = WorkloadParams::default();
        // Stream mix and read fractions are direct frequencies — tight.
        assert!((m.params.p_private - truth.p_private).abs() < 0.01, "{:?}", m.params);
        assert!((m.params.r_private - truth.r_private).abs() < 0.02);
        // tau is carried from the generator, not the config fallback.
        assert!(m.diagnostics.tau_measured);
        assert_eq!(m.params.tau, truth.tau);
        assert!(m.p_local > 0.5 && m.p_local < 1.0, "p_local {}", m.p_local);
        assert_eq!(m.diagnostics.windows.len(), 8);
        assert_eq!(m.diagnostics.total_references, 120_000);
        assert!(m.diagnostics.distinct_blocks > 100);
    }

    #[test]
    fn window_estimates_are_consistent_with_pooled() {
        let mut source = synthetic_source(4);
        let config = MeasureConfig { max_references: Some(60_000), ..MeasureConfig::default() };
        let m = measure_source(&mut source, &config).unwrap();
        let hit = m.diagnostics.headline.iter().find(|h| h.name == "hit_rate").unwrap();
        let pooled_hit = m.params.p_private * m.params.h_private
            + m.params.p_sro * m.params.h_sro
            + m.params.p_sw * m.params.h_sw;
        assert!((hit.mean - pooled_hit).abs() < 0.05, "{} vs {}", hit.mean, pooled_hit);
        assert!(hit.half_width.is_finite() && hit.half_width >= 0.0);
    }

    #[test]
    fn measurement_is_deterministic_across_thread_counts() {
        let measure = |threads: usize| {
            let mut source = synthetic_source(5);
            let config = MeasureConfig {
                max_references: Some(30_000),
                exec: ExecOptions::with_threads(threads),
                ..MeasureConfig::default()
            };
            measure_source(&mut source, &config).unwrap()
        };
        let one = measure(1);
        let two = measure(2);
        let eight = measure(8);
        assert_eq!(format!("{:?}", one.params), format!("{:?}", two.params));
        assert_eq!(format!("{:?}", one.params), format!("{:?}", eight.params));
        assert_eq!(
            format!("{:?}", one.diagnostics.headline),
            format!("{:?}", two.diagnostics.headline)
        );
        assert_eq!(
            format!("{:?}", one.diagnostics.headline),
            format!("{:?}", eight.diagnostics.headline)
        );
    }

    #[test]
    fn render_diagnostics_lists_every_headline() {
        let mut source = synthetic_source(6);
        let config = MeasureConfig { max_references: Some(20_000), ..MeasureConfig::default() };
        let m = measure_source(&mut source, &config).unwrap();
        let text = render_diagnostics(&m.diagnostics);
        for name in ["hit_rate", "write_fraction", "sharing_fraction", "p_local", "p_bc"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }
}
