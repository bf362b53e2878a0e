//! Synthetic address-trace generation for the trace-driven simulator mode.
//!
//! The paper's workload is purely probabilistic, but independent studies it
//! compares against (\[ArBa86\], \[KEWP85\]) are trace-driven. To let the
//! simulator run in a trace-driven mode (real set-associative caches with
//! LRU replacement, emergent hit rates), this module synthesizes address
//! streams with the same three-substream structure: each processor owns a
//! private block pool, all processors share an sro pool and an sw pool, and
//! temporal locality is produced with an LRU-stack re-reference model whose
//! re-use probability maps (approximately) onto the paper's hit-rate
//! parameters.

use rand::{Rng, RngExt};

use crate::params::WorkloadParams;
use crate::synth::Stream;

/// One trace record: a processor touching a word address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Issuing processor.
    pub processor: usize,
    /// Word address.
    pub address: u64,
    /// Whether the access is a write.
    pub is_write: bool,
    /// Substream the address belongs to (derivable from the address map;
    /// carried for convenience).
    pub stream: Stream,
}

/// A stream of memory references that can drive the trace-driven simulator
/// or the workload-parameter estimator.
///
/// This is the seam between *where references come from* and *what consumes
/// them*: the synthetic [`TraceGenerator`] is one implementor, and the
/// file-backed readers in [`crate::ingest`] are others. Consumers pull
/// records per processor so that interleaving is under their control (the
/// simulator interleaves by simulated time, the estimator round-robins).
///
/// Implementations must stream with bounded memory: a conforming source
/// never needs to materialize the whole trace, only per-processor read
/// positions, bounded buffers and whatever classification state it builds
/// up front.
pub trait TraceSource {
    /// Number of processors issuing references.
    fn processors(&self) -> usize;

    /// Words per block of the address space the records refer to.
    ///
    /// Consumers use this to map the word addresses in [`TraceRecord`]s to
    /// cache blocks.
    fn words_per_block(&self) -> u64;

    /// Produces the next reference issued by `processor`, or `None` once
    /// that processor's stream is exhausted. Synthetic sources are
    /// inexhaustible and never return `None`.
    fn next_for(&mut self, processor: usize) -> Option<TraceRecord>;

    /// How many references `processor` still has, when the source knows
    /// (file-backed sources count during their prescan; synthetic sources
    /// return `None` = unbounded).
    fn remaining_hint(&self, processor: usize) -> Option<u64> {
        let _ = processor;
        None
    }

    /// Mean processing (think) cycles between references, when the source
    /// carries that information — e.g. assignment-format traces interleave
    /// non-memory instruction counts, and the synthetic generator knows its
    /// configured `tau`. `None` when the trace has no timing content.
    fn measured_tau(&self) -> Option<f64> {
        None
    }
}

/// Lends a source to a consumer that takes it by value, so the caller can
/// inspect it afterwards (e.g. [`crate::ingest::FileTrace::replay_error`]).
impl<S: TraceSource + ?Sized> TraceSource for &mut S {
    fn processors(&self) -> usize {
        (**self).processors()
    }

    fn words_per_block(&self) -> u64 {
        (**self).words_per_block()
    }

    fn next_for(&mut self, processor: usize) -> Option<TraceRecord> {
        (**self).next_for(processor)
    }

    fn remaining_hint(&self, processor: usize) -> Option<u64> {
        (**self).remaining_hint(processor)
    }

    fn measured_tau(&self) -> Option<f64> {
        (**self).measured_tau()
    }
}

/// Configuration of the synthetic address space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Number of processors.
    pub processors: usize,
    /// Words per block (block-aligned addressing).
    pub words_per_block: u64,
    /// Blocks in each processor's private pool.
    pub private_blocks: u64,
    /// Blocks in the shared read-only pool.
    pub sro_blocks: u64,
    /// Blocks in the shared-writable pool.
    pub sw_blocks: u64,
    /// Depth of the per-stream LRU re-reference stack.
    pub locality_depth: usize,
    /// Probability that a reference continues a sequential run (next word
    /// of the previous address in the same stream) — spatial locality, as
    /// in the \[ArBa86\] traces. 0 disables it.
    pub sequential_run: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            processors: 4,
            words_per_block: 4,
            private_blocks: 4096,
            sro_blocks: 1024,
            sw_blocks: 256,
            locality_depth: 64,
            sequential_run: 0.3,
        }
    }
}

/// Layout of the synthetic address space (word addresses).
///
/// `[0, private_span)` is carved into one private region per processor;
/// the sro pool follows, then the sw pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddressMap {
    config: TraceConfig,
}

impl AddressMap {
    /// Builds the map for a configuration.
    pub fn new(config: TraceConfig) -> Self {
        AddressMap { config }
    }

    fn private_words_per_cpu(&self) -> u64 {
        self.config.private_blocks * self.config.words_per_block
    }

    fn sro_base(&self) -> u64 {
        self.private_words_per_cpu() * self.config.processors as u64
    }

    fn sw_base(&self) -> u64 {
        self.sro_base() + self.config.sro_blocks * self.config.words_per_block
    }

    /// Total words in the address space.
    pub fn total_words(&self) -> u64 {
        self.sw_base() + self.config.sw_blocks * self.config.words_per_block
    }

    /// Word address of private block `block` of `processor`.
    pub fn private_address(&self, processor: usize, block: u64, word: u64) -> u64 {
        debug_assert!(block < self.config.private_blocks);
        processor as u64 * self.private_words_per_cpu()
            + block * self.config.words_per_block
            + word
    }

    /// Word address of sro block `block`.
    pub fn sro_address(&self, block: u64, word: u64) -> u64 {
        debug_assert!(block < self.config.sro_blocks);
        self.sro_base() + block * self.config.words_per_block + word
    }

    /// Word address of sw block `block`.
    pub fn sw_address(&self, block: u64, word: u64) -> u64 {
        debug_assert!(block < self.config.sw_blocks);
        self.sw_base() + block * self.config.words_per_block + word
    }

    /// Classifies a word address back into its substream.
    pub fn classify(&self, address: u64) -> Stream {
        if address < self.sro_base() {
            Stream::Private
        } else if address < self.sw_base() {
            Stream::SharedReadOnly
        } else {
            Stream::SharedWritable
        }
    }
}

/// Per-stream LRU stack used to synthesize temporal locality.
#[derive(Debug, Clone)]
struct LocalityStack {
    recent: Vec<u64>,
    depth: usize,
}

impl LocalityStack {
    fn new(depth: usize) -> Self {
        LocalityStack { recent: Vec::with_capacity(depth), depth }
    }

    fn touch(&mut self, block: u64) {
        if let Some(pos) = self.recent.iter().position(|&b| b == block) {
            self.recent.remove(pos);
        }
        self.recent.insert(0, block);
        self.recent.truncate(self.depth);
    }

    /// Picks a recently used block (geometric preference for the most
    /// recent), or `None` if the stack is empty.
    fn pick<R: Rng>(&self, rng: &mut R) -> Option<u64> {
        if self.recent.is_empty() {
            return None;
        }
        let mut idx = 0usize;
        while idx + 1 < self.recent.len() && rng.random_bool(0.5) {
            idx += 1;
        }
        Some(self.recent[idx])
    }
}

/// Generates a merged synthetic trace for all processors.
#[derive(Debug, Clone)]
pub struct TraceGenerator<R> {
    params: WorkloadParams,
    map: AddressMap,
    config: TraceConfig,
    rng: R,
    // One private stack per processor, one shared stack per shared pool per
    // processor (locality is a property of the referencing processor).
    private_stacks: Vec<LocalityStack>,
    sro_stacks: Vec<LocalityStack>,
    sw_stacks: Vec<LocalityStack>,
    /// Last word offset referenced per processor per stream (sequential
    /// runs continue from here).
    last_word: Vec<[Option<(u64, u64)>; 3]>,
    next_processor: usize,
}

impl<R: Rng> TraceGenerator<R> {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation or `config.processors == 0`.
    pub fn new(params: WorkloadParams, config: TraceConfig, rng: R) -> Self {
        params.validate().expect("workload parameters must be valid");
        assert!(config.processors > 0, "need at least one processor");
        let stacks = |_| LocalityStack::new(config.locality_depth);
        TraceGenerator {
            params,
            map: AddressMap::new(config),
            config,
            rng,
            private_stacks: (0..config.processors).map(stacks).collect(),
            sro_stacks: (0..config.processors).map(stacks).collect(),
            sw_stacks: (0..config.processors).map(stacks).collect(),
            last_word: vec![[None; 3]; config.processors],
            next_processor: 0,
        }
    }

    /// The address map in use.
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Generates the next record, round-robining processors (interleaved
    /// trace as in \[ArBa86\]).
    pub fn next_record(&mut self) -> TraceRecord {
        let processor = self.next_processor;
        self.next_processor = (self.next_processor + 1) % self.config.processors;
        self.record_for(processor)
    }

    /// Generates the next record for a specific processor.
    pub fn record_for(&mut self, processor: usize) -> TraceRecord {
        assert!(processor < self.config.processors, "processor out of range");
        let p = self.params;
        let u: f64 = self.rng.random();
        let (stream, reuse, pool, is_write) = if u < p.p_private {
            let w = !self.rng.random_bool(p.r_private);
            (Stream::Private, p.h_private, self.config.private_blocks, w)
        } else if u < p.p_private + p.p_sro {
            (Stream::SharedReadOnly, p.h_sro, self.config.sro_blocks, false)
        } else {
            let w = !self.rng.random_bool(p.r_sw);
            (Stream::SharedWritable, p.h_sw, self.config.sw_blocks, w)
        };

        let stream_idx = match stream {
            Stream::Private => 0,
            Stream::SharedReadOnly => 1,
            Stream::SharedWritable => 2,
        };
        // Spatial locality: continue a sequential run with the configured
        // probability (advancing one word, wrapping within the pool).
        if self.config.sequential_run > 0.0 && self.rng.random_bool(self.config.sequential_run)
        {
            if let Some((block, word)) = self.last_word[processor][stream_idx] {
                let (block, word) = if word + 1 < self.config.words_per_block {
                    (block, word + 1)
                } else {
                    ((block + 1) % pool, 0)
                };
                self.last_word[processor][stream_idx] = Some((block, word));
                let stack = match stream {
                    Stream::Private => &mut self.private_stacks[processor],
                    Stream::SharedReadOnly => &mut self.sro_stacks[processor],
                    Stream::SharedWritable => &mut self.sw_stacks[processor],
                };
                stack.touch(block);
                let address = match stream {
                    Stream::Private => self.map.private_address(processor, block, word),
                    Stream::SharedReadOnly => self.map.sro_address(block, word),
                    Stream::SharedWritable => self.map.sw_address(block, word),
                };
                return TraceRecord { processor, address, is_write, stream };
            }
        }
        let stack = match stream {
            Stream::Private => &mut self.private_stacks[processor],
            Stream::SharedReadOnly => &mut self.sro_stacks[processor],
            Stream::SharedWritable => &mut self.sw_stacks[processor],
        };
        // With probability ≈ the hit rate re-reference a recent block,
        // otherwise jump to a uniformly random block of the pool.
        let block = if self.rng.random_bool(reuse) {
            stack.pick(&mut self.rng).unwrap_or_else(|| self.rng.random_range(0..pool))
        } else {
            self.rng.random_range(0..pool)
        };
        stack.touch(block);

        let word = self.rng.random_range(0..self.config.words_per_block);
        self.last_word[processor][stream_idx] = Some((block, word));
        let address = match stream {
            Stream::Private => self.map.private_address(processor, block, word),
            Stream::SharedReadOnly => self.map.sro_address(block, word),
            Stream::SharedWritable => self.map.sw_address(block, word),
        };
        TraceRecord { processor, address, is_write, stream }
    }
}

impl<R: Rng> TraceSource for TraceGenerator<R> {
    fn processors(&self) -> usize {
        self.config.processors
    }

    fn words_per_block(&self) -> u64 {
        self.config.words_per_block
    }

    fn next_for(&mut self, processor: usize) -> Option<TraceRecord> {
        Some(self.record_for(processor))
    }

    fn measured_tau(&self) -> Option<f64> {
        Some(self.params.tau)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn generator_is_an_inexhaustible_trace_source() {
        let mut g = generator(7);
        let mut direct = generator(7);
        assert_eq!(TraceSource::processors(&g), 4);
        assert_eq!(g.words_per_block(), 4);
        assert_eq!(g.measured_tau(), Some(WorkloadParams::default().tau));
        assert_eq!(g.remaining_hint(0), None);
        for p in [0usize, 3, 1] {
            assert_eq!(g.next_for(p), Some(direct.record_for(p)));
        }
    }

    fn generator(seed: u64) -> TraceGenerator<SmallRng> {
        TraceGenerator::new(
            WorkloadParams::default(),
            TraceConfig::default(),
            SmallRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn address_regions_do_not_overlap() {
        let map = AddressMap::new(TraceConfig::default());
        let a = map.private_address(3, 4095, 3);
        assert_eq!(map.classify(a), Stream::Private);
        let b = map.sro_address(0, 0);
        assert_eq!(map.classify(b), Stream::SharedReadOnly);
        assert!(b > a);
        let c = map.sw_address(255, 3);
        assert_eq!(map.classify(c), Stream::SharedWritable);
        assert!(c < map.total_words());
    }

    #[test]
    fn classify_round_trips_generated_addresses() {
        let mut g = generator(1);
        for _ in 0..20_000 {
            let r = g.next_record();
            assert_eq!(g.address_map().classify(r.address), r.stream);
        }
    }

    #[test]
    fn stream_mix_matches_parameters() {
        let mut g = generator(2);
        let n = 200_000;
        let mut private = 0u32;
        let mut sw = 0u32;
        for _ in 0..n {
            match g.next_record().stream {
                Stream::Private => private += 1,
                Stream::SharedWritable => sw += 1,
                Stream::SharedReadOnly => {}
            }
        }
        assert!((private as f64 / n as f64 - 0.95).abs() < 0.005);
        assert!((sw as f64 / n as f64 - 0.02).abs() < 0.003);
    }

    #[test]
    fn sro_records_are_never_writes() {
        let mut g = generator(3);
        for _ in 0..50_000 {
            let r = g.next_record();
            if r.stream == Stream::SharedReadOnly {
                assert!(!r.is_write);
            }
        }
    }

    #[test]
    fn round_robin_covers_all_processors() {
        let mut g = generator(4);
        let mut seen = [false; 4];
        for _ in 0..8 {
            seen[g.next_record().processor] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn private_addresses_are_disjoint_across_processors() {
        let map = AddressMap::new(TraceConfig::default());
        let hi0 = map.private_address(0, 4095, 3);
        let lo1 = map.private_address(1, 0, 0);
        assert!(hi0 < lo1);
    }

    #[test]
    fn locality_produces_reuse() {
        // With high reuse probability, consecutive same-stream references
        // should frequently repeat blocks.
        let params = WorkloadParams::builder()
            .streams(1.0, 0.0, 0.0)
            .h_private(0.95)
            .build()
            .unwrap();
        let mut g = TraceGenerator::new(
            params,
            TraceConfig { processors: 1, ..TraceConfig::default() },
            SmallRng::seed_from_u64(5),
        );
        let n = 20_000;
        let mut repeats = 0u32;
        let mut last_block = u64::MAX;
        for _ in 0..n {
            let r = g.next_record();
            let block = r.address / 4;
            if block == last_block {
                repeats += 1;
            }
            last_block = block;
        }
        // Far more repeats than the uniform-random baseline (~1/4096).
        assert!(repeats as f64 / n as f64 > 0.1, "repeats {repeats}");
    }

    #[test]
    fn sequential_runs_produce_adjacent_addresses() {
        let params = WorkloadParams::builder().streams(1.0, 0.0, 0.0).build().unwrap();
        let adjacency = |sequential_run: f64| {
            let config =
                TraceConfig { processors: 1, sequential_run, ..TraceConfig::default() };
            let mut g = TraceGenerator::new(params, config, SmallRng::seed_from_u64(9));
            let n = 20_000;
            let mut adjacent = 0u32;
            let mut last = None;
            for _ in 0..n {
                let r = g.next_record();
                if let Some(prev) = last {
                    if r.address == prev + 1 {
                        adjacent += 1;
                    }
                }
                last = Some(r.address);
            }
            adjacent as f64 / n as f64
        };
        // With sequential_run = 0.9 most references continue the run; with
        // it disabled, adjacency is rare.
        assert!(adjacency(0.9) > 0.6, "high {}", adjacency(0.9));
        assert!(adjacency(0.0) < 0.3, "low {}", adjacency(0.0));
    }

    #[test]
    fn sequential_runs_stay_in_their_region() {
        let mut g = TraceGenerator::new(
            WorkloadParams::default(),
            TraceConfig { sequential_run: 0.8, ..TraceConfig::default() },
            SmallRng::seed_from_u64(10),
        );
        for _ in 0..30_000 {
            let r = g.next_record();
            assert_eq!(g.address_map().classify(r.address), r.stream);
            assert!(r.address < g.address_map().total_words());
        }
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        let _ = TraceGenerator::new(
            WorkloadParams::default(),
            TraceConfig { processors: 0, ..TraceConfig::default() },
            SmallRng::seed_from_u64(0),
        );
    }
}
