//! The [`Engine`]: batches scenarios over backends, dedups against the
//! content-addressed cache and fans the rest through the deterministic
//! parallel executor, one job per task.
//!
//! A batch run proceeds in three phases:
//!
//! 1. **enumerate** — every (scenario, backend) pair becomes a job with a
//!    content key ([`CacheKey`]: backend id plus scenario hash);
//! 2. **dedup** — each job is looked up in the [`ResultCache`] (every
//!    lookup counts toward hit/miss stats) and then the durable store;
//!    only the first job per unique missing key is computed;
//! 3. **execute** — each unique miss is one [`snoop_numeric::exec::par_map`]
//!    item, the costliest first: it runs [`Evaluator::evaluate`] and
//!    publishes its result to the cache and the store inside its own
//!    task. Results are scattered back to all duplicate jobs and returned
//!    in input order.
//!
//! Because `par_map` preserves ordering and every backend is
//! deterministic, a batched run is result-identical to evaluating each
//! job one at a time — at 1, 2 or 8 threads.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use snoop_numeric::exec::{par_map, ExecOptions};
use snoop_numeric::json::JsonValue;
use snoop_numeric::probe::trace;
use snoop_store::DiskStore;

use super::backends::{self, Evaluator};
use super::cache::{CacheKey, CacheStats, ResultCache};
use super::evaluation::{BackendId, EvalError, Evaluation};
use super::scenario::Scenario;

/// The outcome of one (scenario, backend) job of a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineResult {
    /// Index of the scenario in the submitted batch.
    pub scenario: usize,
    /// The backend that (would have) produced the value.
    pub backend: BackendId,
    /// The content-addressed cache key of the job.
    pub key: CacheKey,
    /// The evaluation, or why it could not be produced.
    pub result: Result<Evaluation, EvalError>,
}

/// One batch's own cache and store traffic. Concurrent batches share the
/// cache and the store, so a delta of their global counters taken over
/// one batch's run would also count every overlapping batch's traffic;
/// each batch counts what it did itself instead.
#[derive(Debug, Default)]
struct Tally {
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    store_writes: AtomicU64,
}

impl Tally {
    fn add(counter: &AtomicU64, delta: u64) {
        counter.fetch_add(delta, Ordering::Relaxed);
    }

    /// Folds the tally into the metrics snapshot.
    fn publish(&self) {
        for (name, counter) in [
            ("engine.cache.hits", &self.cache_hits),
            ("engine.cache.misses", &self.cache_misses),
            ("engine.cache.evictions", &self.cache_evictions),
        ] {
            snoop_numeric::probe::counter_add(name, counter.load(Ordering::Relaxed));
        }
    }

    /// Folds the store part of the tally into the metrics snapshot.
    fn publish_store(&self) {
        for (name, counter) in [
            ("store.hits", &self.store_hits),
            ("store.misses", &self.store_misses),
            ("store.writes", &self.store_writes),
        ] {
            snoop_numeric::probe::counter_add(name, counter.load(Ordering::Relaxed));
        }
    }
}

/// Evaluates batches of [`Scenario`]s across a set of backends with
/// content-addressed caching.
///
/// # Example
///
/// ```
/// use snoop_mva::engine::{Engine, MvaBackend, Scenario};
/// use snoop_protocol::ModSet;
/// use snoop_workload::params::SharingLevel;
///
/// let engine = Engine::new().with_backend(MvaBackend);
/// let scenario = Scenario::appendix_a(ModSet::new(), SharingLevel::Five, 10);
/// let results = engine.evaluate_batch(&[scenario]);
/// let eval = results[0].result.as_ref().unwrap();
/// assert!((eval.speedup - 5.30).abs() < 0.15); // Table 4.1(a)
/// // A repeated batch is served from the cache.
/// assert!(engine.evaluate_batch(&[scenario])[0].result.as_ref().unwrap().provenance.cached);
/// ```
pub struct Engine {
    backends: Vec<Box<dyn Evaluator>>,
    cache: ResultCache,
    /// Optional second cache tier: the durable on-disk store. Misses in
    /// the in-memory cache read through to it; computed results write
    /// through as each job completes, so a killed sweep keeps them.
    store: Option<Arc<DiskStore>>,
    exec: ExecOptions,
}

/// A thread-safe shared handle to one warm engine. `evaluate_batch`
/// takes `&self` and every tier locks internally (cache mutex, store
/// atomics), so one engine can serve concurrent callers — this is the
/// handle the serve daemon's request workers share.
pub type SharedEngine = Arc<Engine>;

// Compile-time proof that the shared handle is actually shareable: any
// field change that costs `Engine` its `Send + Sync` fails here, not in
// a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>()
};

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with no backends, a default-capacity cache and serial
    /// execution.
    pub fn new() -> Self {
        Engine {
            backends: Vec::new(),
            cache: ResultCache::default(),
            store: None,
            exec: ExecOptions::SERIAL,
        }
    }

    /// Adds a backend. Batch results are ordered scenario-major, then by
    /// backend registration order.
    pub fn with_backend(mut self, backend: impl Evaluator + 'static) -> Self {
        self.backends.push(Box::new(backend));
        self
    }

    /// Sets the executor for residual (uncached) work.
    pub fn with_exec(mut self, exec: ExecOptions) -> Self {
        self.exec = exec;
        self
    }

    /// Adds the standard evaluator for each id, in order, from the one
    /// backend registry: the MVA (under either of its ids), the
    /// simulator's replications on the engine's executor and the GTPN
    /// expansion on its thread count. Call after [`Engine::with_exec`]:
    /// the evaluators capture the executor set at registration.
    pub fn with_backends(mut self, ids: &[BackendId]) -> Self {
        let exec = self.exec;
        self.backends.extend(ids.iter().map(|&id| backends::evaluator(id, exec)));
        self
    }

    /// Attaches a durable store as a second cache tier. In-memory misses
    /// read through to it; each computed job writes through as soon as
    /// it completes, so a killed sweep keeps everything finished so far.
    /// Several engine processes may share one store: entries publish by
    /// atomic rename and every backend is deterministic, so concurrent
    /// writers can only duplicate work, never tear or change an entry.
    pub fn with_store(mut self, store: Arc<DiskStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached durable store, if any.
    pub fn store(&self) -> Option<&Arc<DiskStore>> {
        self.store.as_ref()
    }

    /// Current cache accounting.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The durable store's key of one (scenario, backend) job: the text
    /// form of its [`CacheKey`].
    pub fn job_key(backend: BackendId, scenario: &Scenario) -> String {
        CacheKey { backend, hash: scenario.content_hash() }.to_string()
    }

    /// Evaluates one scenario on every registered backend.
    pub fn evaluate(&self, scenario: &Scenario) -> Vec<EngineResult> {
        self.evaluate_batch(std::slice::from_ref(scenario))
    }

    /// Evaluates every scenario on every registered backend, returning one
    /// [`EngineResult`] per (scenario, backend) pair, scenario-major, in
    /// input order.
    ///
    /// Duplicate jobs (same content key) are computed once; repeated jobs
    /// within one batch still count as cache misses because the value was
    /// not available when the batch started.
    pub fn evaluate_batch(&self, scenarios: &[Scenario]) -> Vec<EngineResult> {
        let _span = snoop_numeric::probe::span("engine.batch");
        let _trace = trace::span_with("engine.batch", || {
            vec![
                ("scenarios", scenarios.len().to_string()),
                ("backends", self.backends.len().to_string()),
            ]
        });
        let tally = Tally::default();
        // Phase 1: enumerate jobs scenario-major.
        let mut jobs: Vec<(usize, usize, CacheKey)> =
            Vec::with_capacity(scenarios.len() * self.backends.len());
        for (si, scenario) in scenarios.iter().enumerate() {
            let hash = scenario.content_hash();
            for (bi, backend) in self.backends.iter().enumerate() {
                jobs.push((si, bi, CacheKey { backend: backend.id(), hash }));
            }
        }

        // Phase 2: consult the cache; keep the first job per missing key.
        // Every job gets a timeline span tagged with its identity and
        // cache outcome (the compute time of misses shows up later under
        // the backend spans).
        let mut outcomes: Vec<Option<Result<Evaluation, EvalError>>> = Vec::new();
        let mut first_seen: HashMap<CacheKey, usize> = HashMap::new();
        let mut missing: Vec<usize> = Vec::new();
        for (ji, (si, _, key)) in jobs.iter().enumerate() {
            let mut job_trace = trace::span_with("engine.job", || {
                vec![
                    ("scenario", format!("{:016x}", key.hash)),
                    ("backend", key.backend.to_string()),
                    ("n", scenarios[*si].n.to_string()),
                ]
            });
            // The consult is timed only while collection is on, so the
            // lookup histogram costs nothing in normal runs (and, like
            // every probe value, never feeds back into the solve).
            let consult_started =
                snoop_numeric::probe::enabled().then(std::time::Instant::now);
            let cached = self.cache.get(key);
            let counter = if cached.is_some() { &tally.cache_hits } else { &tally.cache_misses };
            Tally::add(counter, 1);
            let hit_tier = match cached {
                Some(hit) => {
                    job_trace.arg("cache", "hit");
                    outcomes.push(Some(Ok(hit)));
                    Some("engine.cache.hit_ms")
                }
                // In-memory miss: read through to the durable store. A
                // store hit fills the in-memory tier, so later duplicates
                // in this batch hit there.
                None => match self.store_get(*key, &tally) {
                    Some(eval) => {
                        job_trace.arg("cache", "store");
                        outcomes.push(Some(Ok(eval)));
                        Some("store.hit_ms")
                    }
                    None => {
                        job_trace.arg("cache", "miss");
                        if let Entry::Vacant(slot) = first_seen.entry(*key) {
                            slot.insert(ji);
                            missing.push(ji);
                        }
                        outcomes.push(None);
                        None
                    }
                },
            };
            if let (Some(started), Some(series)) = (consult_started, hit_tier) {
                snoop_numeric::probe::hist_record(
                    series,
                    started.elapsed().as_secs_f64() * 1e3,
                );
            }
        }
        snoop_numeric::probe::counter_add("engine.jobs", jobs.len() as u64);

        // Phase 3: execute. One unique miss is one executor task, and it
        // persists its own result, so a process killed mid-batch keeps
        // every job completed before the kill (the durability boundary
        // the --resume mode builds on).
        //
        // `par_map` claims items in index order, so the misses go longest
        // first: a costly job claimed last would leave the other workers
        // idle behind it. Results are scattered back by job index, so the
        // order changes wall time only.
        missing.sort_by_key(|&ji| {
            let (si, _, key) = jobs[ji];
            std::cmp::Reverse(cost_rank(key.backend, &scenarios[si]))
        });
        let execute = |&ji: &usize| {
            let (si, bi, key) = jobs[ji];
            let result = self.backends[bi].evaluate(&scenarios[si]);
            if let Ok(eval) = &result {
                if snoop_numeric::probe::enabled() {
                    // Per-backend wall-time distribution. The registry's
                    // histogram merge is order-independent, so concurrent
                    // executor tasks still snapshot bit-identically.
                    let series = format!("engine.job_ms.{}", key.backend);
                    snoop_numeric::probe::hist_record(&series, eval.provenance.wall_ms);
                }
                Tally::add(&tally.cache_evictions, self.cache.insert(key, eval.clone()));
                if let Some(store) = &self.store {
                    // Publish failures (ENOSPC, torn write) are absorbed:
                    // the result still returns in-memory, it just won't
                    // survive this process.
                    if store.put(&key.to_string(), eval.to_json().as_bytes()).is_ok() {
                        Tally::add(&tally.store_writes, 1);
                    }
                }
            }
            result
        };
        let computed = par_map(&missing, &self.exec, execute);
        snoop_numeric::probe::counter_add("engine.computed", computed.len() as u64);
        for (&ji, result) in missing.iter().zip(computed) {
            outcomes[ji] = Some(result);
        }
        for ji in 0..jobs.len() {
            if outcomes[ji].is_none() {
                let first = first_seen[&jobs[ji].2];
                outcomes[ji] = outcomes[first].clone();
            }
        }

        // Fold this batch's own cache and store traffic into the metrics
        // snapshot (the store counts its quarantines itself).
        if snoop_numeric::probe::enabled() {
            tally.publish();
            snoop_numeric::probe::record("engine.cache.entries", self.cache.len() as f64);
            if self.store.is_some() {
                tally.publish_store();
            }
        }

        jobs.into_iter()
            .zip(outcomes)
            .map(|((si, bi, key), result)| {
                let backend = self.backends[bi].id();
                EngineResult {
                    scenario: si,
                    backend,
                    // Every enumerated job is resolved by the cache pass
                    // or the execute pass; if that invariant ever breaks,
                    // report it as a typed per-job error rather than
                    // panicking under a caller (CLI command or serve
                    // request handler).
                    result: result.unwrap_or_else(|| {
                        Err(EvalError::MissingResult { backend, scenario: key.to_string() })
                    }),
                    key,
                }
            })
            .collect()
    }

    /// Looks `key` up in the durable store (when attached), decoding the
    /// stored JSON back into an [`Evaluation`] and filling the in-memory
    /// tier. The store itself quarantines checksum-level damage; an
    /// entry that passes the checksum but no longer parses (schema
    /// drift) reads as a miss and is recomputed and overwritten.
    fn store_get(&self, key: CacheKey, tally: &Tally) -> Option<Evaluation> {
        let store = self.store.as_ref()?;
        let Some(bytes) = store.get(&key.to_string()) else {
            Tally::add(&tally.store_misses, 1);
            return None;
        };
        Tally::add(&tally.store_hits, 1);
        let eval = std::str::from_utf8(&bytes)
            .ok()
            .and_then(|text| JsonValue::parse(text).ok())
            .and_then(|doc| Evaluation::from_json(&doc).ok());
        match eval {
            Some(mut eval) => {
                Tally::add(&tally.cache_evictions, self.cache.insert(key, eval.clone()));
                eval.provenance.cached = true;
                Some(eval)
            }
            None => {
                snoop_numeric::probe::counter_add("store.decode_errors", 1);
                None
            }
        }
    }

    /// Convenience: evaluates a batch and returns only successful
    /// evaluations (in job order), logging nothing. Callers that need the
    /// per-job errors use [`Engine::evaluate_batch`].
    pub fn evaluate_batch_ok(&self, scenarios: &[Scenario]) -> Vec<Evaluation> {
        self.evaluate_batch(scenarios)
            .into_iter()
            .filter_map(|r| r.result.ok())
            .collect()
    }
}

/// How costly one job is expected to be, for the longest-first order of
/// phase 3 (larger runs earlier; equal ranks keep their input order).
/// Simulations rank by the references they simulate
/// (N × (warm-up + measured) × replications); every other backend shares
/// rank 0.
fn cost_rank(backend: BackendId, scenario: &Scenario) -> usize {
    match backend {
        BackendId::Sim => {
            let sim = &scenario.sim;
            (sim.warmup_references.saturating_add(sim.measured_references))
                .saturating_mul(scenario.n)
                .saturating_mul(sim.replications)
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::super::backends::{GtpnBackend, MvaBackend, SimBackend};
    use super::*;
    use snoop_store::RecoveryReport;
    use snoop_protocol::ModSet;
    use snoop_workload::params::SharingLevel;

    fn scenario(n: usize) -> Scenario {
        let mut s = Scenario::appendix_a(ModSet::new(), SharingLevel::Five, n);
        s.sim.warmup_references = 300;
        s.sim.measured_references = 2_000;
        s
    }

    #[test]
    fn batch_results_are_scenario_major_and_complete() {
        let engine = Engine::new().with_backend(MvaBackend).with_backend(GtpnBackend::default());
        let scenarios = [scenario(2), scenario(3)];
        let results = engine.evaluate_batch(&scenarios);
        assert_eq!(results.len(), 4);
        let order: Vec<(usize, BackendId)> =
            results.iter().map(|r| (r.scenario, r.backend)).collect();
        assert_eq!(
            order,
            vec![
                (0, BackendId::Mva),
                (0, BackendId::Gtpn),
                (1, BackendId::Mva),
                (1, BackendId::Gtpn)
            ]
        );
        assert!(results.iter().all(|r| r.result.is_ok()));
    }

    #[test]
    fn with_backends_builds_every_id_in_registration_order() {
        let ids = [BackendId::Gtpn, BackendId::Mva, BackendId::Sim, BackendId::ResilientMva];
        let exec = ExecOptions::with_threads(2);
        let engine = Engine::new().with_exec(exec).with_backends(&ids);
        let scenarios = [scenario(2), scenario(3)];
        let results = engine.evaluate_batch(&scenarios);
        let order: Vec<(usize, BackendId)> =
            results.iter().map(|r| (r.scenario, r.backend)).collect();
        let want: Vec<(usize, BackendId)> =
            (0..2).flat_map(|si| ids.map(|id| (si, id))).collect();
        // Each result's backend is its evaluator's `id()`, so this also
        // checks that every id round-trips through the registry.
        assert_eq!(order, want);
        // The registry builds the same evaluators as wiring them by hand;
        // `mva-resilient` is the MVA evaluator under its own id.
        let by_hand = Engine::new()
            .with_exec(exec)
            .with_backend(GtpnBackend { threads: exec.threads })
            .with_backend(MvaBackend)
            .with_backend(SimBackend { exec })
            .with_backend(MvaBackend);
        for (got, want) in results.iter().zip(by_hand.evaluate_batch(&scenarios)) {
            let want = want.result.unwrap();
            assert_eq!(got.result.as_ref().unwrap(), &Evaluation { backend: got.backend, ..want });
        }
    }

    #[test]
    fn repeat_batch_is_served_entirely_from_cache() {
        let engine = Engine::new().with_backend(MvaBackend);
        let scenarios = [scenario(4), scenario(8)];
        let first = engine.evaluate_batch(&scenarios);
        assert!(first.iter().all(|r| !r.result.as_ref().unwrap().provenance.cached));
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));

        let second = engine.evaluate_batch(&scenarios);
        assert!(second.iter().all(|r| r.result.as_ref().unwrap().provenance.cached));
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
        // Cached values equal computed ones (equality ignores the flag).
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn duplicate_jobs_in_one_batch_compute_once_and_count_as_misses() {
        let engine = Engine::new().with_backend(MvaBackend);
        let scenarios = [scenario(4), scenario(8), scenario(4)];
        let results = engine.evaluate_batch(&scenarios);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 3, 2));
        assert_eq!(results[0].key, results[2].key);
        assert_eq!(results[0].result, results[2].result);
    }

    #[test]
    fn batched_equals_one_at_a_time_at_every_thread_count() {
        let shuffled =
            [scenario(2), scenario(5), scenario(3), scenario(8), scenario(4), scenario(16)];
        // N ascending is the order longest-first execution reverses most.
        let ascending = [scenario(2), scenario(3), scenario(4), scenario(8), scenario(16)];
        let cases: [(&[BackendId], &[Scenario]); 2] = [
            (&[BackendId::Mva, BackendId::ResilientMva], &shuffled),
            (&[BackendId::Mva, BackendId::Sim], &ascending),
        ];
        for (backends, scenarios) in cases {
            let serial: Vec<EngineResult> = scenarios
                .iter()
                .flat_map(|s| Engine::new().with_backends(backends).evaluate(s))
                .collect();
            for threads in [1, 2, 8] {
                let engine = Engine::new()
                    .with_exec(ExecOptions::with_threads(threads))
                    .with_backends(backends);
                let batched = engine.evaluate_batch(scenarios);
                assert_eq!(batched.len(), serial.len());
                for (i, (b, s)) in batched.iter().zip(&serial).enumerate() {
                    let at = format!("{backends:?}, {threads} threads, job {i}");
                    assert_eq!(
                        (b.scenario, b.backend),
                        (i / backends.len(), backends[i % backends.len()]),
                        "{at}"
                    );
                    assert_eq!(b.key, s.key, "{at}");
                    let (b, s) = (b.result.as_ref().unwrap(), s.result.as_ref().unwrap());
                    assert_eq!(b.speedup.to_bits(), s.speedup.to_bits(), "{at}");
                    assert_eq!(b.r.to_bits(), s.r.to_bits(), "{at}");
                    assert_eq!(b, s, "{at}");
                }
            }
        }
    }

    /// Records which thread received which job, in the order each thread
    /// received them, and returns a placeholder evaluation.
    struct Recorder {
        id: BackendId,
        log: Arc<std::sync::Mutex<Vec<(std::thread::ThreadId, CacheKey)>>>,
    }

    impl Evaluator for Recorder {
        fn id(&self) -> BackendId {
            self.id
        }

        fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, EvalError> {
            let key = CacheKey { backend: self.id, hash: scenario.content_hash() };
            self.log.lock().unwrap().push((std::thread::current().id(), key));
            Ok(Evaluation {
                backend: self.id,
                n: scenario.n,
                r: 1.0,
                speedup: 1.0,
                speedup_half_width: None,
                bus_utilization: 0.0,
                memory_utilization: None,
                w_bus: None,
                w_mem: None,
                q_bus: None,
                provenance: super::super::evaluation::Provenance::new(0, 0, 0),
            })
        }
    }

    #[test]
    fn misses_run_longest_first_with_ties_in_input_order() {
        // N ascending, with a second N = 4 scenario that differs only in
        // its seed: its jobs tie with the first N = 4 scenario's.
        let mut reseeded = scenario(4);
        reseeded.sim.seed += 1;
        let scenarios = [scenario(2), scenario(4), reseeded, scenario(8), scenario(16)];
        let backends = [BackendId::Mva, BackendId::Sim, BackendId::Gtpn];
        let key = |bi: usize, si: usize| CacheKey {
            backend: backends[bi],
            hash: scenarios[si].content_hash(),
        };
        let input_order: Vec<CacheKey> =
            (0..5).flat_map(|si| (0..3).map(move |bi| key(bi, si))).collect();
        // Simulations by simulated references, the two N = 4 scenarios in
        // their input order; then the MVA and GTPN jobs, which share one
        // rank, in input order.
        let longest_first: Vec<CacheKey> = [4, 3, 1, 2, 0]
            .map(|si| key(1, si))
            .into_iter()
            .chain((0..5).flat_map(|si| [key(0, si), key(2, si)]))
            .collect();

        for threads in [1, 2, 8] {
            let log = Arc::new(std::sync::Mutex::new(Vec::new()));
            let engine = backends.iter().fold(
                Engine::new().with_exec(ExecOptions::with_threads(threads)),
                |engine, &id| engine.with_backend(Recorder { id, log: Arc::clone(&log) }),
            );
            let results = engine.evaluate_batch(&scenarios);
            let keys: Vec<CacheKey> = results.iter().map(|r| r.key).collect();
            assert_eq!(keys, input_order, "results come back in input order");
            let log = log.lock().unwrap().clone();
            let mut received: Vec<CacheKey> = log.iter().map(|&(_, key)| key).collect();
            // Each participant claims ever later items of `par_map`'s
            // input, so whatever one thread received must appear in that
            // thread's order in the longest-first list.
            let position = |key: &CacheKey| longest_first.iter().position(|k| k == key).unwrap();
            for (thread, _) in &log {
                let positions: Vec<usize> = log
                    .iter()
                    .filter(|(t, _)| t == thread)
                    .map(|(_, key)| position(key))
                    .collect();
                assert!(positions.is_sorted(), "{threads} threads: {positions:?}");
            }
            received.sort_by_key(position);
            assert_eq!(received, longest_first, "{threads} threads: every miss ran once");
        }
    }

    #[test]
    fn mixed_backend_batch_returns_one_result_per_pair() {
        let engine = Engine::new()
            .with_backend(MvaBackend)
            .with_backend(SimBackend::default())
            .with_backend(GtpnBackend::default());
        let scenarios = [scenario(2), scenario(3)];
        let results = engine.evaluate_batch(&scenarios);
        assert_eq!(results.len(), scenarios.len() * 3);
        for (si, _) in scenarios.iter().enumerate() {
            for backend in [BackendId::Mva, BackendId::Sim, BackendId::Gtpn] {
                let matching: Vec<_> = results
                    .iter()
                    .filter(|r| r.scenario == si && r.backend == backend)
                    .collect();
                assert_eq!(matching.len(), 1, "{backend} for scenario {si}");
                assert!(matching[0].result.is_ok());
            }
        }
    }

    #[test]
    fn errors_are_reported_per_job_and_not_cached() {
        let mut tiny = scenario(3);
        tiny.gtpn.max_states = 4; // forces a state-budget failure
        let engine = Engine::new().with_backend(MvaBackend).with_backend(GtpnBackend::default());
        let results = engine.evaluate_batch(&[tiny]);
        assert!(results[0].result.is_ok());
        assert!(matches!(
            results[1].result,
            Err(EvalError::Failed { backend: BackendId::Gtpn, .. })
        ));
        // Only the MVA success was cached; the GTPN failure is retried.
        assert_eq!(engine.cache_stats().entries, 1);
        let again = engine.evaluate_batch(&[tiny]);
        assert!(again[0].result.as_ref().unwrap().provenance.cached);
        assert!(again[1].result.is_err());
    }

    fn fresh_store_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("snoop-engine-store-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_tier_serves_bit_identical_results_across_engines() {
        let dir = fresh_store_dir("roundtrip");
        let scenarios = [scenario(4), scenario(8)];

        let store = Arc::new(DiskStore::open(&dir).unwrap());
        let first = Engine::new().with_backend(MvaBackend).with_store(Arc::clone(&store));
        let a = first.evaluate_batch(&scenarios);
        assert_eq!(store.stats().writes, 2, "write-through persists every success");

        // A separate engine (fresh in-memory cache, fresh store handle —
        // i.e. another process) computes nothing: everything reads
        // through from disk, bit-identical.
        let store = Arc::new(DiskStore::open(&dir).unwrap());
        let second = Engine::new().with_backend(MvaBackend).with_store(Arc::clone(&store));
        let b = second.evaluate_batch(&scenarios);
        assert_eq!(store.stats().hits, 2);
        assert_eq!(store.stats().writes, 0, "nothing recomputed");
        for (x, y) in a.iter().zip(&b) {
            let (x, y) = (x.result.as_ref().unwrap(), y.result.as_ref().unwrap());
            assert_eq!(x, y);
            assert_eq!(x.speedup.to_bits(), y.speedup.to_bits());
            assert_eq!(x.r.to_bits(), y.r.to_bits());
            assert!(y.provenance.cached, "store hits carry the cached flag");
        }

        // Within the second engine, a repeat batch hits the in-memory
        // tier, not the disk again.
        second.evaluate_batch(&scenarios);
        assert_eq!(store.stats().hits, 2);
    }

    #[test]
    fn corrupt_store_entry_is_quarantined_and_recomputed() {
        let dir = fresh_store_dir("corrupt");
        let scenarios = [scenario(4)];
        {
            let store = Arc::new(DiskStore::open(&dir).unwrap());
            let engine = Engine::new().with_backend(MvaBackend).with_store(store);
            engine.evaluate_batch(&scenarios);
        }
        // Flip one payload bit in the only entry on disk.
        let entry = walk_entries(&dir.join("shards")).pop().expect("one entry");
        let mut bytes = std::fs::read(&entry).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x04;
        std::fs::write(&entry, &bytes).unwrap();

        let store = Arc::new(DiskStore::open(&dir).unwrap());
        let engine = Engine::new().with_backend(MvaBackend).with_store(Arc::clone(&store));
        let results = engine.evaluate_batch(&scenarios);
        assert!(results[0].result.is_ok());
        assert!(!results[0].result.as_ref().unwrap().provenance.cached, "recomputed");
        let s = store.stats();
        assert_eq!((s.quarantined, s.writes), (1, 1), "damage costs one recompute");
        // The re-published entry serves the next engine.
        let store = Arc::new(DiskStore::open(&dir).unwrap());
        let engine = Engine::new().with_backend(MvaBackend).with_store(Arc::clone(&store));
        assert!(engine.evaluate_batch(&scenarios)[0]
            .result
            .as_ref()
            .unwrap()
            .provenance
            .cached);
    }

    fn walk_entries(shards: &std::path::Path) -> Vec<std::path::PathBuf> {
        let mut found = Vec::new();
        for shard in std::fs::read_dir(shards).unwrap() {
            for file in std::fs::read_dir(shard.unwrap().path()).unwrap() {
                let path = file.unwrap().path();
                if path.extension().is_some_and(|e| e == "entry") {
                    found.push(path);
                }
            }
        }
        found
    }

    #[test]
    fn store_publish_failures_do_not_fail_the_batch() {
        use snoop_numeric::fault::{StorageFault, StoragePlan};
        let dir = fresh_store_dir("enospc");
        let store = DiskStore::open_with(
            &dir,
            snoop_store::StoreConfig::default(),
            snoop_store::FaultyFs::real(
                StoragePlan::new().with_fault(StorageFault::Enospc { op: 1 }),
            ),
        )
        .unwrap();
        let store = Arc::new(store);
        let engine = Engine::new().with_backend(MvaBackend).with_store(Arc::clone(&store));
        let results = engine.evaluate_batch(&[scenario(4)]);
        assert!(results[0].result.is_ok(), "the result still returns in-memory");
        assert_eq!(store.stats().write_errors, 1);
        // The next batch re-persists it (the write fault was one-shot).
        let second = Engine::new().with_backend(MvaBackend).with_store(Arc::clone(&store));
        assert!(second.evaluate_batch(&[scenario(4)])[0].result.is_ok());
        assert_eq!(store.stats().writes, 1);
    }

    #[test]
    fn store_with_a_leftover_claims_directory_serves_every_entry() {
        // Stores written before claims were retired carry a `claims/`
        // directory, possibly with a claim file a killed run left behind.
        // Neither may stop a later engine from serving every entry.
        let dir = fresh_store_dir("legacy-claims");
        let scenarios = [scenario(2), scenario(4), scenario(8)];
        let first = Engine::new()
            .with_backend(MvaBackend)
            .with_store(Arc::new(DiskStore::open(&dir).unwrap()));
        let computed = first.evaluate_batch(&scenarios);
        std::fs::create_dir_all(dir.join("claims")).unwrap();
        let token = Engine::job_key(BackendId::Mva, &scenarios[0]).replace(':', "_");
        std::fs::write(dir.join("claims").join(format!("{token}.claim")), b"pid 1\n").unwrap();

        let store = Arc::new(DiskStore::open(&dir).unwrap());
        let engine = Engine::new().with_backend(MvaBackend).with_store(Arc::clone(&store));
        let served = engine.evaluate_batch(&scenarios);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.writes), (3, 0, 0));
        for (a, b) in computed.iter().zip(&served) {
            let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert!(b.provenance.cached);
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn concurrent_engines_on_one_store_agree_and_leave_it_intact() {
        // Two engines with their own store handles (as two processes
        // would have) run the same batch at once. They may both compute
        // a job, but both publish the same bytes by atomic rename, so
        // each returns the same results and every entry stays intact.
        let dir = fresh_store_dir("concurrent-engines");
        let mut scenarios = Vec::new();
        for protocol in ["WO", "WO+1", "dragon", "illinois"] {
            for sharing in [SharingLevel::Five, SharingLevel::Twenty] {
                for n in 1..=25 {
                    scenarios.push(Scenario::appendix_a(protocol.parse().unwrap(), sharing, n));
                }
            }
        }
        assert_eq!(scenarios.len(), 200);
        let start = std::sync::Barrier::new(2);
        let [a, b] = std::thread::scope(|scope| {
            [0, 1].map(|_| {
                scope.spawn(|| {
                    let store = Arc::new(DiskStore::open(&dir).unwrap());
                    let engine = Engine::new().with_backend(MvaBackend).with_store(store);
                    start.wait();
                    engine.evaluate_batch(&scenarios)
                })
            })
            .map(|worker| worker.join().unwrap())
        });
        assert_eq!(a.len(), 200);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
            let (x, y) = (x.result.as_ref().unwrap(), y.result.as_ref().unwrap());
            assert_eq!(x.speedup.to_bits(), y.speedup.to_bits());
            assert_eq!(x.r.to_bits(), y.r.to_bits());
            assert_eq!(x, y);
        }
        let report = DiskStore::open(&dir).unwrap().recover();
        assert_eq!(report, RecoveryReport { scanned: 200, intact: 200, quarantined: 0 });
    }

    #[test]
    fn engine_output_is_bit_identical_across_threads_with_histograms_enabled() {
        // The telemetry plane must stay observational: collecting job
        // wall-time and cache-latency histograms from concurrently
        // executing workers cannot perturb the solve.
        //
        // The probe registry is process-wide, so any other engine test
        // running on a sibling thread would feed the same histogram. The
        // test therefore re-runs itself alone in a child process, where
        // the job count asserted below is exact.
        const ISOLATED: &str = "SNOOP_PROBE_TEST_ISOLATED";
        if std::env::var_os(ISOLATED).is_none() {
            let name = "engine::batch::tests::\
                        engine_output_is_bit_identical_across_threads_with_histograms_enabled";
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args(["--exact", name, "--test-threads=1"])
                .env(ISOLATED, "1")
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success() && stdout.contains("1 passed"),
                "isolated run failed:\n{stdout}{}",
                String::from_utf8_lossy(&out.stderr)
            );
            return;
        }
        let _session = snoop_numeric::probe::session();
        let scenarios = [scenario(2), scenario(4), scenario(8), scenario(16)];
        let run = |threads: usize| {
            let engine = Engine::new()
                .with_backend(MvaBackend)
                .with_exec(ExecOptions::with_threads(threads));
            engine.evaluate_batch(&scenarios)
        };
        let serial = run(1);
        for threads in [2, 8] {
            let parallel = run(threads);
            for (a, b) in serial.iter().zip(&parallel) {
                let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
                assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "{threads} threads");
                assert_eq!(a.provenance.iterations, b.provenance.iterations);
            }
        }
        // And collection really ran: every computed job fed the
        // per-backend wall-time histogram (3 cold runs x 4 scenarios).
        let snap = snoop_numeric::probe::snapshot();
        let hist = snap.hists.iter().find(|(n, _)| n == "engine.job_ms.mva");
        let count = hist.map(|(_, h)| h.count());
        assert_eq!(count, Some(12), "job histogram populated");
    }
}
