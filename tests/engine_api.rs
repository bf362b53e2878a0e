//! Integration tests for the unified evaluation engine through the
//! `snoop` facade: content-hash stability, cache accounting, mixed-backend
//! batches, and the batched-vs-one-at-a-time determinism guarantee.

use snoop::engine::{BackendId, Engine, GtpnBackend, MvaBackend, Scenario, SimBackend, SCHEMA};
use snoop::numeric::exec::ExecOptions;
use snoop::protocol::ModSet;
use snoop::workload::params::SharingLevel;

fn wo(n: usize) -> Scenario {
    Scenario::appendix_a(ModSet::new(), SharingLevel::Five, n)
}

/// A scenario whose simulation settings are small enough for test-speed
/// DES runs.
fn quick_sim(protocol: &str, n: usize) -> Scenario {
    let mut s =
        Scenario::appendix_a(protocol.parse::<ModSet>().unwrap(), SharingLevel::Five, n);
    s.sim.warmup_references = 300;
    s.sim.measured_references = 2_000;
    s.sim.replications = 2;
    s
}

#[test]
fn content_hash_is_stable_across_field_reordering_in_the_batch_file() {
    let canonical = Scenario::batch_to_json(&[wo(6)]);
    assert!(canonical.contains(SCHEMA));
    let hash = Scenario::parse_batch(&canonical).unwrap()[0].content_hash();

    // The same scenario, hand-written with every object's keys in a
    // different order than the canonical serialization emits.
    let reordered = r#"{
        "scenarios": [
            {
                "n": 6,
                "solver": {"damping": 1.0, "tolerance": 1e-12, "max_iterations": 10000},
                "sharing": "5",
                "protocol": "WO"
            }
        ],
        "schema": "snoop-scenario-v1"
    }"#;
    let parsed = Scenario::parse_batch(reordered).unwrap();
    assert_eq!(parsed[0].content_hash(), hash);
    assert_eq!(parsed[0], wo(6));
}

#[test]
fn mod_set_spellings_share_one_cache_line() {
    // "WO+3+1" and "WO+1+3" are the same protocol; the canonical Display
    // ordering keeps them on one cache key.
    let a = Scenario::appendix_a("WO+3+1".parse::<ModSet>().unwrap(), SharingLevel::Five, 4);
    let b = Scenario::appendix_a("WO+1+3".parse::<ModSet>().unwrap(), SharingLevel::Five, 4);
    assert_eq!(a.protocol.to_string(), "WO+1+3");
    assert_eq!(a.content_hash(), b.content_hash());
    assert_eq!(a.canonical_json(), b.canonical_json());

    let engine = Engine::new().with_backend(MvaBackend);
    let results = engine.evaluate_batch(&[a, b]);
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 2, "both jobs probe an empty cache");
    assert_eq!(stats.entries, 1, "one entry serves both spellings");
    assert_eq!(
        results[0].result.as_ref().unwrap().speedup,
        results[1].result.as_ref().unwrap().speedup
    );
}

#[test]
fn cache_accounting_distinguishes_hits_misses_and_entries() {
    let engine = Engine::new().with_backend(MvaBackend);
    // Three jobs, two unique scenarios: every probe of the cold cache is a
    // miss, but only two evaluations (and entries) happen.
    let batch = [wo(3), wo(5), wo(3)];
    let first = engine.evaluate_batch(&batch);
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 3, 2));
    // The duplicate is the same value, marked as deduplicated.
    assert_eq!(
        first[0].result.as_ref().unwrap().speedup,
        first[2].result.as_ref().unwrap().speedup
    );

    // Re-running the batch is all hits, no new entries.
    let second = engine.evaluate_batch(&batch);
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (3, 3, 2));
    for (f, s) in first.iter().zip(&second) {
        let (f, s) = (f.result.as_ref().unwrap(), s.result.as_ref().unwrap());
        assert_eq!(f.speedup, s.speedup);
        assert!(s.provenance.cached);
    }
}

#[test]
fn mixed_backend_batch_yields_one_result_per_scenario_backend_pair() {
    let engine = Engine::new()
        .with_backend(MvaBackend)
        .with_backends(&[BackendId::ResilientMva])
        .with_backend(SimBackend::default())
        .with_backend(GtpnBackend::default());
    let scenarios = [quick_sim("WO", 2), quick_sim("WO+1", 2)];
    let results = engine.evaluate_batch(&scenarios);
    assert_eq!(results.len(), scenarios.len() * 4);
    // Scenario-major, backend-minor ordering, every job succeeding.
    for (si, chunk) in results.chunks(4).enumerate() {
        let ids: Vec<String> = chunk.iter().map(|r| r.backend.to_string()).collect();
        assert_eq!(ids, ["mva", "mva-resilient", "sim", "gtpn"]);
        for r in chunk {
            assert_eq!(r.scenario, si);
            let eval = r.result.as_ref().unwrap_or_else(|e| panic!("{}: {e}", r.backend));
            assert_eq!(eval.n, 2);
            assert!(eval.speedup > 0.0);
        }
    }
    // The plain and resilient MVA agree on the solution itself.
    let (plain, resilient) =
        (results[0].result.as_ref().unwrap(), results[1].result.as_ref().unwrap());
    assert_eq!(plain.speedup, resilient.speedup);
}

#[test]
fn batched_evaluation_is_bit_identical_to_one_at_a_time_at_every_thread_count() {
    let scenarios: Vec<Scenario> = vec![
        quick_sim("WO", 1),
        quick_sim("WO", 3),
        quick_sim("WO+1", 2),
        quick_sim("dragon", 4),
        quick_sim("WO", 3), // duplicate — served from the cache
    ];

    // Reference: a fresh serial engine per scenario (no batching, no
    // shared cache).
    let reference: Vec<_> = scenarios
        .iter()
        .map(|s| {
            Engine::new()
                .with_backend(MvaBackend)
                .with_backend(SimBackend::default())
                .evaluate(s)
                .into_iter()
                .map(|r| r.result.unwrap())
                .collect::<Vec<_>>()
        })
        .collect();

    for threads in [1usize, 2, 8] {
        let exec = ExecOptions::with_threads(threads);
        let engine = Engine::new()
            .with_backend(MvaBackend)
            .with_backend(SimBackend { exec })
            .with_exec(exec);
        let batched = engine.evaluate_batch(&scenarios);
        let mut it = batched.into_iter();
        for per_scenario in &reference {
            for want in per_scenario {
                let got = it.next().unwrap().result.unwrap();
                // PartialEq on Evaluation ignores wall-clock and cache
                // provenance, so this is a bit-identity check on every
                // reported measure.
                assert_eq!(&got, want, "threads={threads}");
            }
        }
    }
}
