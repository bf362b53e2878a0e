//! Wall-clock bounds on the parallel executor. Timing depends on the
//! host, so these tests are `#[ignore]`d and run on demand (CI runs them
//! in release mode):
//!
//! ```text
//! cargo test --release --test timing -- --ignored
//! ```
//!
//! Each timed section is run three times and its fastest run kept, so a
//! single descheduling does not decide the verdict.

use std::time::Instant;

use snoop::engine::{Engine, ResilientMvaBackend, Scenario};
use snoop::gtpn::models::coherence::CoherenceNet;
use snoop::gtpn::reachability::{explore, ReachabilityOptions};
use snoop::mva::sweep::figure_4_1_grid;
use snoop::numeric::exec::{hardware_parallelism, par_map, ExecOptions};
use snoop::protocol::ModSet;
use snoop::workload::derived::ModelInputs;
use snoop::workload::params::{SharingLevel, WorkloadParams};
use snoop::workload::timing::TimingModel;

/// Fastest of three runs of `f`, in seconds.
fn best_of_three(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "timing; run with --ignored"]
fn exec_dispatch_costs_under_20_us_per_job() {
    // Trivial jobs, so the measured cost is scheduling (chunk claiming,
    // wakeup, result scatter), not work. Host-independent: even a 1-core
    // machine must schedule a trivial job in well under 20 µs.
    let items: Vec<u64> = (0..4096).collect();
    let repetitions = 400;
    let exec = ExecOptions::with_threads(4);
    let job = |&x: &u64| x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
    let mut checksum = 0u64;
    let mut run = |exec: &ExecOptions| {
        for _ in 0..repetitions {
            let mapped = par_map(&items, exec, job);
            checksum ^= mapped.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        }
    };
    // Warm-up: the first parallel call spawns the pool's workers.
    run(&exec);
    let serial = best_of_three(|| run(&ExecOptions::SERIAL));
    let parallel = best_of_three(|| run(&exec));
    let jobs = (repetitions * items.len()) as f64;
    let dispatch_ns = ((parallel - serial) * 1e9 / jobs).max(0.0);
    assert!(
        dispatch_ns < 20_000.0,
        "dispatch overhead {dispatch_ns:.0} ns/job (checksum {checksum:#x})"
    );
}

#[test]
#[ignore = "timing; run with --ignored"]
fn four_threads_at_least_double_sweep_and_gtpn_throughput() {
    // A 4-thread run on a 1- or 2-core host cannot reach 2x.
    let host = hardware_parallelism();
    if host < 4 {
        eprintln!("skip: hardware parallelism {host} < 4, 4-thread speedup is unmeasurable");
        return;
    }

    // The Figure 4.1 grid through the warm-chained resilient backend, on
    // a fresh engine each run so nothing is served from the cache.
    let sizes: Vec<usize> = (1..=20).chain([30, 50, 100]).collect();
    let scenarios: Vec<Scenario> = figure_4_1_grid()
        .into_iter()
        .flat_map(|(mods, sharing)| {
            sizes.iter().map(move |&n| Scenario::appendix_a(mods, sharing, n))
        })
        .collect();
    let backend = ResilientMvaBackend { warm_start_chains: true, ..Default::default() };
    let sweep = |threads: usize| {
        best_of_three(|| {
            let engine =
                Engine::new().with_backend(backend).with_exec(ExecOptions::with_threads(threads));
            assert_eq!(engine.evaluate_batch_ok(&scenarios).len(), scenarios.len());
        })
    };
    let speedup = sweep(1) / sweep(4);
    assert!(speedup >= 2.0, "sweep grid: 4-thread speedup {speedup:.2}x < 2.0x");

    // Reachability exploration of the N = 8 Write-Once coherence GTPN,
    // whose counted-net waves hold ~360 states; at N = 3 they hold ~30,
    // too few for four workers to pay off.
    let inputs = ModelInputs::derive_adjusted(
        &WorkloadParams::appendix_a(SharingLevel::Five),
        ModSet::new(),
        &TimingModel::default(),
    )
    .unwrap();
    let net = CoherenceNet::build(&inputs, 8).unwrap();
    let gtpn = |threads: usize| {
        let options = ReachabilityOptions { threads, ..ReachabilityOptions::default() };
        best_of_three(|| {
            explore(&net.net, &options).unwrap();
        })
    };
    let speedup = gtpn(1) / gtpn(4);
    assert!(speedup >= 2.0, "gtpn explore: 4-thread speedup {speedup:.2}x < 2.0x");
}
