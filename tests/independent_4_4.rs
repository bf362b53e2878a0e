//! Section 4.4: the MVA against three independent studies. Each result,
//! a percentage, is pinned to ±0.05 percentage points of the value this
//! reproduction computes, so drift in the model fails here.
//!
//! 1. Processing power of the protocol with modifications 1+2+3 at N = 9,
//!    5% sharing (paper: MVA 4.32, GTPN 4.1, agreeing with Papamarcos &
//!    Patel's model for block size 4).
//! 2. Bus utilization of Write-Once over modifications 2+3 at ~99%
//!    sharing, unsaturated (paper: "a 10% increase", matching the
//!    trace-driven results of Katz et al.).
//! 3. With `amod_p = 0.95` (the Archibald & Baer setting), modification 2
//!    performs roughly equal to modification 1 at 1% sharing.

use snoop::mva::paper::{PROCESSING_POWER_GTPN, PROCESSING_POWER_MVA};
use snoop::mva::{MvaModel, MvaSolution, SolverOptions};
use snoop::protocol::ModSet;
use snoop::workload::params::{SharingLevel, WorkloadParams};
use snoop::workload::timing::TimingModel;

fn solve(params: &WorkloadParams, mods: &[u8], timing: &TimingModel, n: usize) -> MvaSolution {
    MvaModel::with_timing(params, ModSet::from_numbers(mods).expect("valid"), timing)
        .expect("valid")
        .solve(n, &SolverOptions::default())
        .expect("converges")
}

fn assert_pinned(label: &str, actual_pct: f64, pinned_pct: f64) {
    assert!(
        (actual_pct - pinned_pct).abs() <= 0.05,
        "{label}: {actual_pct:+.3}% vs pinned {pinned_pct:+.2}%"
    );
}

#[test]
fn processing_power_with_modifications_1_2_3() {
    let params = WorkloadParams::appendix_a(SharingLevel::Five);
    let s = solve(&params, &[1, 2, 3], &TimingModel::default(), 9);
    // Processing power = speedup × τ / (τ + T_supply), τ = 2.5, T_supply = 1.
    assert!((s.processing_power - s.speedup * 2.5 / 3.5).abs() < 1e-12);
    // 4.26: between the paper's GTPN (4.1) and its MVA (4.32).
    assert!(PROCESSING_POWER_GTPN < s.processing_power);
    let vs_paper_mva = (s.processing_power / PROCESSING_POWER_MVA - 1.0) * 100.0;
    assert_pinned("processing power vs paper MVA", vs_paper_mva, -1.39);
}

#[test]
fn write_once_bus_utilization_over_modifications_2_and_3() {
    // Write-Once keeps writing shared blocks through, so a write hit
    // finds the block modified far less often than under modifications
    // 2+3; and a `write-word` holds the bus two cycles where an
    // `invalidate` takes one. The paper's workload is unpublished and the
    // gap scales with the shared hit rate, so the band is pinned.
    let base = WorkloadParams::high_sharing();
    let wo_timing = TimingModel { t_write: 2.0, ..TimingModel::default() };
    for (h_sw, pinned_pct) in [(0.5, 2.34), (0.6, 5.18), (0.7, 9.84)] {
        let wo = solve(&WorkloadParams { amod_sw: 0.1, h_sw, ..base }, &[], &wo_timing, 2);
        let m23 = solve(
            &WorkloadParams { amod_sw: 0.7, h_sw, ..base },
            &[2, 3],
            &TimingModel::default(),
            2,
        );
        let increase_pct = (wo.bus_utilization / m23.bus_utilization - 1.0) * 100.0;
        assert_pinned(&format!("h_sw = {h_sw}"), increase_pct, pinned_pct);
    }
}

#[test]
fn high_amod_p_closes_the_gap_between_modifications_1_and_2() {
    let base = WorkloadParams::appendix_a(SharingLevel::One);
    let timing = TimingModel::default();
    let gap_pct = |params: &WorkloadParams| {
        let m1 = solve(params, &[1], &timing, 10).speedup;
        let m2 = solve(params, &[2], &timing, 10).speedup;
        (m1 / m2 - 1.0) * 100.0
    };
    assert_pinned("amod_p = 0.70", gap_pct(&base), 20.48);
    assert_pinned("amod_p = 0.95", gap_pct(&WorkloadParams { amod_private: 0.95, ..base }), 1.18);
}
