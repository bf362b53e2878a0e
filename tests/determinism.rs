//! Determinism contract of the parallel evaluation engine: for every
//! thread count, parallel evaluation is **bit-identical** to serial — on
//! the Table 4.1 sweep grid, the sensitivity analysis, the GTPN
//! reachability/steady-state pipeline and the simulator's independent
//! replications.
//!
//! CI runs this suite under `SNOOP_THREADS=1` and `SNOOP_THREADS=4`; the
//! explicit thread counts below make the contract hold regardless of the
//! environment.

use snoop::engine::{figure_4_1_grid, BackendId, Engine, Evaluation, Scenario};
use snoop::gtpn::models::coherence::CoherenceNet;
use snoop::gtpn::reachability::{explore, ReachabilityOptions};
use snoop::mva::paper::TABLE_N;
use snoop::numeric::exec::{par_map, ExecOptions};
use snoop::protocol::ModSet;
use snoop::sim::runner::replicate_exec;
use snoop::sim::SimConfig;
use snoop::workload::derived::ModelInputs;
use snoop::workload::params::{SharingLevel, WorkloadParams};
use snoop::workload::timing::TimingModel;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Every Figure 4.1 grid cell at every size in `sizes`, in grid order.
fn figure_scenarios(sizes: &[usize]) -> Vec<Scenario> {
    figure_4_1_grid()
        .into_iter()
        .flat_map(|(mods, sharing)| {
            sizes.iter().map(move |&n| Scenario::appendix_a(mods, sharing, n))
        })
        .collect()
}

/// Evaluates `scenarios` on a fresh engine holding only the `backend`
/// registry evaluator.
fn evaluate(backend: BackendId, exec: ExecOptions, scenarios: &[Scenario]) -> Vec<Evaluation> {
    let evaluations =
        Engine::new().with_exec(exec).with_backends(&[backend]).evaluate_batch_ok(scenarios);
    assert_eq!(evaluations.len(), scenarios.len(), "a grid point failed");
    evaluations
}

#[test]
fn figure_4_1_grid_identical_across_thread_counts() {
    let scenarios = figure_scenarios(&[1, 4, 10, 20]);
    let serial = evaluate(BackendId::Mva, ExecOptions::SERIAL, &scenarios);
    for threads in THREAD_COUNTS {
        let parallel = evaluate(BackendId::Mva, ExecOptions::with_threads(threads), &scenarios);
        for ((s, a), b) in scenarios.iter().zip(&serial).zip(&parallel) {
            assert_eq!(
                a.speedup.to_bits(),
                b.speedup.to_bits(),
                "{} {:?} N={}: {threads} threads diverged",
                s.protocol,
                s.sharing,
                s.n
            );
        }
    }
}

#[test]
fn content_hashes_identical_across_thread_counts() {
    // Each thread formats floats through its own memo; distinct tau
    // values make the threads' memos fill, collide and evict differently.
    let scenarios: Vec<Scenario> = figure_scenarios(&[1, 4, 10, 20])
        .into_iter()
        .enumerate()
        .flat_map(|(i, s)| {
            let mut custom = s;
            custom.params.tau = 1.0 + i as f64 / 7.0;
            [s, custom]
        })
        .collect();
    let serial: Vec<u64> = scenarios.iter().map(Scenario::content_hash).collect();
    let execs = THREAD_COUNTS.map(ExecOptions::with_threads);
    for exec in execs.into_iter().chain([ExecOptions::default()]) {
        assert_eq!(par_map(&scenarios, &exec, Scenario::content_hash), serial, "{exec:?}");
    }
}

#[test]
fn resilient_sweeps_identical_on_all_table_4_1_configs() {
    // Each cell's sweep, evaluated alone and serially, must be
    // reproduced cell for cell — iteration counts included — when the
    // whole grid runs as one batch on any number of threads.
    let family = figure_scenarios(&TABLE_N);
    let batches: Vec<Vec<Evaluation>> = THREAD_COUNTS
        .iter()
        .map(|&threads| evaluate(BackendId::ResilientMva, ExecOptions::with_threads(threads), &family))
        .collect();
    for (cell, (mods, sharing)) in figure_4_1_grid().into_iter().enumerate() {
        let cell_scenarios: Vec<Scenario> =
            TABLE_N.iter().map(|&n| Scenario::appendix_a(mods, sharing, n)).collect();
        let serial = evaluate(BackendId::ResilientMva, ExecOptions::SERIAL, &cell_scenarios);
        let range = cell * TABLE_N.len()..(cell + 1) * TABLE_N.len();
        for (threads, batch) in THREAD_COUNTS.iter().zip(&batches) {
            assert_eq!(
                serial.as_slice(),
                &batch[range.clone()],
                "{mods} {sharing}: {threads} threads diverged"
            );
        }
    }
}

#[test]
fn sensitivities_identical_across_thread_counts() {
    let base = WorkloadParams::appendix_a(SharingLevel::Five);
    let serial =
        snoop::mva::sensitivity::sensitivities_exec(&base, ModSet::new(), 10, 0.01, &ExecOptions::SERIAL)
            .unwrap();
    for threads in THREAD_COUNTS {
        let parallel = snoop::mva::sensitivity::sensitivities_exec(
            &base,
            ModSet::new(),
            10,
            0.01,
            &ExecOptions::with_threads(threads),
        )
        .unwrap();
        assert_eq!(serial, parallel, "{threads} threads diverged");
    }
}

#[test]
fn gtpn_pipeline_identical_across_thread_counts() {
    let inputs = ModelInputs::derive_adjusted(
        &WorkloadParams::appendix_a(SharingLevel::Five),
        ModSet::new(),
        &TimingModel::default(),
    )
    .unwrap();
    let net = CoherenceNet::build(&inputs, 2).unwrap();
    let serial_graph = explore(
        &net.net,
        &ReachabilityOptions { threads: 1, ..ReachabilityOptions::default() },
    )
    .unwrap();
    let serial = net
        .solve(&ReachabilityOptions { threads: 1, ..ReachabilityOptions::default() })
        .unwrap();
    for threads in THREAD_COUNTS {
        let options = ReachabilityOptions { threads, ..ReachabilityOptions::default() };
        let graph = explore(&net.net, &options).unwrap();
        assert_eq!(serial_graph, graph, "{threads} threads: graph diverged");
        let solved = net.solve(&options).unwrap();
        assert_eq!(
            serial.speedup.to_bits(),
            solved.speedup.to_bits(),
            "{threads} threads: speedup diverged"
        );
        assert_eq!(
            serial.bus_utilization.to_bits(),
            solved.bus_utilization.to_bits(),
            "{threads} threads: bus utilization diverged"
        );
        assert_eq!(serial.states, solved.states);
    }
}

#[test]
fn metrics_collection_does_not_change_any_output_bit() {
    // First compute reference results with the probe registry disabled,
    // then recompute everything with collection enabled at every thread
    // count: all outputs must stay bit-identical, because the probe layer
    // is strictly observational.
    let scenarios = figure_scenarios(&[1, 4, 10]);
    let figure_ref = evaluate(BackendId::Mva, ExecOptions::SERIAL, &scenarios);
    let resilient_ref = evaluate(BackendId::ResilientMva, ExecOptions::SERIAL, &scenarios);

    let inputs = ModelInputs::derive_adjusted(
        &WorkloadParams::appendix_a(SharingLevel::Five),
        ModSet::new(),
        &TimingModel::default(),
    )
    .unwrap();
    let net = CoherenceNet::build(&inputs, 2).unwrap();
    let gtpn_ref = net
        .solve(&ReachabilityOptions { threads: 1, ..ReachabilityOptions::default() })
        .unwrap();

    let mut sim_config = SimConfig::for_protocol(
        2,
        WorkloadParams::appendix_a(SharingLevel::Five),
        ModSet::new(),
    );
    sim_config.warmup_references = 300;
    sim_config.measured_references = 2_000;
    let sim_ref = replicate_exec(&sim_config, 3, 0.95, &ExecOptions::SERIAL).unwrap();

    let _session = snoop::numeric::probe::session();
    for threads in THREAD_COUNTS {
        let exec = ExecOptions::with_threads(threads);
        let figure = evaluate(BackendId::Mva, exec, &scenarios);
        for (a, b) in figure_ref.iter().zip(&figure) {
            assert_eq!(
                a.speedup.to_bits(),
                b.speedup.to_bits(),
                "{threads} threads with metrics: figure diverged"
            );
        }
        let resilient = evaluate(BackendId::ResilientMva, exec, &scenarios);
        assert_eq!(resilient_ref, resilient, "{threads} threads with metrics: resilient diverged");
        let gtpn = net
            .solve(&ReachabilityOptions { threads, ..ReachabilityOptions::default() })
            .unwrap();
        assert_eq!(gtpn_ref.speedup.to_bits(), gtpn.speedup.to_bits());
        assert_eq!(gtpn_ref.bus_utilization.to_bits(), gtpn.bus_utilization.to_bits());
        assert_eq!(gtpn_ref.states, gtpn.states);
        let sim = replicate_exec(&sim_config, 3, 0.95, &exec).unwrap();
        for (a, b) in sim_ref.replications.iter().zip(&sim.replications) {
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
            assert_eq!(a.w_bus.to_bits(), b.w_bus.to_bits());
        }
        assert_eq!(sim_ref.speedup.mean.to_bits(), sim.speedup.mean.to_bits());
    }
    // And the instrumentation did actually collect something.
    let snapshot = snoop::numeric::probe::snapshot();
    assert!(
        snapshot.spans.iter().any(|(p, _)| p.contains("mva_solve")),
        "no mva_solve span collected"
    );
    assert!(
        snapshot.spans.iter().any(|(p, _)| p.contains("gtpn_reachability")),
        "no gtpn_reachability span collected"
    );
    assert!(
        snapshot.spans.iter().any(|(p, _)| p.contains("sim_replications")),
        "no sim_replications span collected"
    );
}

#[test]
fn tracing_does_not_change_any_engine_output_bit() {
    // Tracing, like the probe registry, is strictly observational: with a
    // trace session active, the engine must produce bit-identical
    // evaluations at every thread count — on a fresh cache each time, so
    // every backend genuinely re-solves under the recorder.
    use snoop::engine::{GtpnBackend, MvaBackend, SimBackend};
    use snoop::numeric::probe::trace;

    let quick = |protocol: &str, sharing: SharingLevel, n: usize| {
        let mut s = Scenario::appendix_a(protocol.parse::<ModSet>().unwrap(), sharing, n);
        s.sim.warmup_references = 300;
        s.sim.measured_references = 1_000;
        s.sim.replications = 2;
        s
    };
    let scenarios = vec![
        quick("WO", SharingLevel::Five, 2),
        quick("WO+3", SharingLevel::Twenty, 2),
        quick("WO+1", SharingLevel::Five, 3),
    ];

    let fresh_engine = |threads: usize| {
        Engine::new()
            .with_backend(MvaBackend)
            .with_backends(&[BackendId::ResilientMva])
            .with_backend(SimBackend::default())
            .with_backend(GtpnBackend::default())
            .with_exec(ExecOptions::with_threads(threads))
    };

    // Reference run: serial, tracing off.
    assert!(!trace::enabled());
    let reference = fresh_engine(1).evaluate_batch(&scenarios);
    assert!(reference.iter().all(|r| r.result.is_ok()));

    let _session = trace::session();
    for threads in THREAD_COUNTS {
        let traced = fresh_engine(threads).evaluate_batch(&scenarios);
        assert_eq!(reference.len(), traced.len());
        for (a, b) in reference.iter().zip(&traced) {
            assert_eq!(a.backend, b.backend);
            let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(
                a.speedup.to_bits(),
                b.speedup.to_bits(),
                "{} N={}: {threads} threads with tracing diverged",
                a.backend,
                a.n
            );
            assert_eq!(a.r.to_bits(), b.r.to_bits());
            assert_eq!(a.bus_utilization.to_bits(), b.bus_utilization.to_bits());
        }
    }

    // And the recorder did actually see the work: every begin has its
    // end, and the per-job spans are present.
    let collected = trace::drain();
    assert!(!collected.events.is_empty(), "no trace events collected");
    let begins = collected.events.iter().filter(|e| e.phase == 'B').count();
    let ends = collected.events.iter().filter(|e| e.phase == 'E').count();
    assert_eq!(begins, ends, "unmatched begin/end events");
    assert!(
        collected.events.iter().any(|e| e.name == "engine.job"),
        "no engine.job span collected"
    );
    assert!(
        collected.events.iter().any(|e| e.name.starts_with("solve.")),
        "no solve.* span collected"
    );
}

#[test]
fn sim_replications_identical_across_thread_counts() {
    let mut config = SimConfig::for_protocol(
        4,
        WorkloadParams::appendix_a(SharingLevel::Five),
        ModSet::new(),
    );
    config.warmup_references = 300;
    config.measured_references = 3_000;
    let serial = replicate_exec(&config, 4, 0.95, &ExecOptions::SERIAL).unwrap();
    for threads in THREAD_COUNTS {
        let parallel =
            replicate_exec(&config, 4, 0.95, &ExecOptions::with_threads(threads)).unwrap();
        for (a, b) in serial.replications.iter().zip(&parallel.replications) {
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "{threads} threads");
            assert_eq!(a.w_bus.to_bits(), b.w_bus.to_bits(), "{threads} threads");
            assert_eq!(
                a.bus_utilization.to_bits(),
                b.bus_utilization.to_bits(),
                "{threads} threads"
            );
        }
        assert_eq!(serial.speedup.mean.to_bits(), parallel.speedup.mean.to_bits());
        assert_eq!(
            serial.speedup.half_width.to_bits(),
            parallel.speedup.half_width.to_bits()
        );
    }
}
