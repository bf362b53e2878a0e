//! Cross-model agreement: the MVA equations, the GTPN engine and the
//! discrete-event simulator must describe the same system.
//!
//! This is the repository-level restatement of the paper's validation
//! methodology: a cheap analytic model is trusted because detailed models
//! of the same assumptions corroborate it.

use snoop::gtpn::models::coherence::CoherenceNet;
use snoop::gtpn::reachability::ReachabilityOptions;
use snoop::mva::{MvaModel, SolverOptions};
use snoop::protocol::ModSet;
use snoop::sim::{simulate, SimConfig};
use snoop::workload::params::{SharingLevel, WorkloadParams};

fn mva_speedup(params: &WorkloadParams, mods: ModSet, n: usize) -> f64 {
    MvaModel::for_protocol(params, mods)
        .expect("valid")
        .solve(n, &SolverOptions::default())
        .expect("converges")
        .speedup
}

#[test]
fn mva_vs_simulator_across_the_table_range() {
    // The paper's claim grade: within ~3%, max ≈ 4.25%; we allow 6% to
    // absorb simulation noise at a single seed.
    let mut worst: f64 = 0.0;
    for sharing in SharingLevel::ALL {
        for mods in [&[][..], &[1], &[1, 4]] {
            let mods = ModSet::from_numbers(mods).expect("valid");
            for n in [1usize, 4, 10, 20] {
                let params = WorkloadParams::appendix_a(sharing);
                let mva = mva_speedup(&params, mods, n);
                let sim = simulate(&SimConfig::for_protocol(n, params, mods))
                    .expect("valid config")
                    .speedup;
                let err = (mva - sim).abs() / sim;
                worst = worst.max(err);
                assert!(
                    err < 0.06,
                    "{sharing} {mods} N={n}: MVA {mva:.3} vs DES {sim:.3} ({:.1}%)",
                    err * 100.0
                );
            }
        }
    }
    println!("worst MVA-vs-DES error: {:.2}%", worst * 100.0);
}

#[test]
fn mva_vs_gtpn_at_small_n() {
    for sharing in SharingLevel::ALL {
        for mods in [&[][..], &[1], &[2], &[3], &[2, 3]] {
            let mods = ModSet::from_numbers(mods).expect("valid");
            let params = WorkloadParams::appendix_a(sharing);
            let model = MvaModel::for_protocol(&params, mods).expect("valid");
            for n in [1usize, 2] {
                let mva =
                    model.solve(n, &SolverOptions::default()).expect("converges").speedup;
                let net = CoherenceNet::build(model.inputs(), n).expect("builds");
                let gtpn = net.solve(&ReachabilityOptions::default()).expect("solves");
                let err = (mva - gtpn.speedup).abs() / gtpn.speedup;
                assert!(
                    err < 0.05,
                    "{sharing} {mods} N={n}: MVA {mva:.3} vs GTPN {:.3} ({:.1}%)",
                    gtpn.speedup,
                    err * 100.0
                );
            }
        }
    }
}

#[test]
fn gtpn_vs_simulator_at_n2() {
    // The two *detailed* models agree with each other too.
    let params = WorkloadParams::appendix_a(SharingLevel::Five);
    let model = MvaModel::for_protocol(&params, ModSet::new()).expect("valid");
    let net = CoherenceNet::build(model.inputs(), 2).expect("builds");
    let gtpn = net.solve(&ReachabilityOptions::default()).expect("solves");
    let sim = simulate(&SimConfig::for_protocol(2, params, ModSet::new()))
        .expect("valid config");
    let err = (gtpn.speedup - sim.speedup).abs() / sim.speedup;
    assert!(
        err < 0.05,
        "GTPN {:.3} vs DES {:.3} ({:.1}%)",
        gtpn.speedup,
        sim.speedup,
        err * 100.0
    );
}

#[test]
fn stress_test_section_4_3() {
    // "The speedup estimates of the MVA model agreed, within 5% relative
    // error, with the speedup estimates in the GTPN" under the
    // interference-maximizing workload. The simulator referees here, and
    // resolves snoop busy times per transaction, more literally than the
    // paper's GTPN: the worst error is −5.76% at N = 4. The DES is seeded,
    // so every MVA-vs-DES error is pinned to ±0.05 percentage points.
    let stress = WorkloadParams::stress();
    // A second variant: maximal broadcast pressure (every shared
    // reference a first write to a block another cache supplies).
    let write_heavy = WorkloadParams::builder()
        .streams(0.5, 0.0, 0.5)
        .r_sw(0.1)
        .h_sw(0.6)
        .amod_sw(0.0)
        .csupply_sw(1.0)
        .build()
        .expect("valid");
    let cases = [
        ("stress", stress, 1usize, -0.12),
        ("stress", stress, 2, -2.58),
        ("stress", stress, 4, -5.76),
        ("stress", stress, 6, -1.55),
        ("stress", stress, 8, 1.27),
        ("stress", stress, 10, 2.18),
        ("stress", stress, 15, 3.15),
        ("stress", stress, 20, 2.91),
        ("write-heavy", write_heavy, 2, 2.12),
        ("write-heavy", write_heavy, 6, 2.84),
        ("write-heavy", write_heavy, 10, 5.03),
    ];
    for (label, params, n, pinned_pct) in cases {
        let mva = mva_speedup(&params, ModSet::new(), n);
        let sim = simulate(&SimConfig::for_protocol(n, params, ModSet::new()))
            .expect("valid config")
            .speedup;
        let err_pct = (mva / sim - 1.0) * 100.0;
        assert!(
            (err_pct - pinned_pct).abs() <= 0.05,
            "{label} N={n}: MVA {mva:.3} vs DES {sim:.3} ({err_pct:+.3}%, pinned {pinned_pct:+.2}%)"
        );
    }
}

#[test]
fn simulator_bus_waits_track_mva() {
    // Beyond speedup: the component the MVA computes with Eqs. 5-10.
    let params = WorkloadParams::appendix_a(SharingLevel::Five);
    let model = MvaModel::for_protocol(&params, ModSet::new()).expect("valid");
    for n in [4usize, 8] {
        let mva = model.solve(n, &SolverOptions::default()).expect("converges");
        let sim =
            simulate(&SimConfig::for_protocol(n, params, ModSet::new())).expect("valid");
        let err = (mva.w_bus - sim.w_bus).abs() / sim.w_bus.max(0.1);
        assert!(
            err < 0.25,
            "N={n}: MVA w_bus {:.3} vs DES {:.3}",
            mva.w_bus,
            sim.w_bus
        );
    }
}
