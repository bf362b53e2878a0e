//! Reproduces the **Section 3.2 efficiency claims**:
//!
//! * MVA solution time is (nearly) independent of system size — "on the
//!   order of one second of CPU time for systems of arbitrary size" (we
//!   measure microseconds on modern hardware);
//! * detailed-model cost climbs steeply with the number of processors —
//!   "the time to solve the GTPN model increases exponentially" (state
//!   counts and wall time measured on our GTPN engine, whose counted net
//!   reaches the paper's N = 10), and "simulation is equivalently
//!   expensive";
//! * the equations "converged within 15 iterations in all experiments".
//!
//! ```text
//! cargo run -p snoop-bench --release --bin efficiency_3_2
//! ```

use std::time::Instant;

use snoop_gtpn::models::coherence::CoherenceNet;
use snoop_gtpn::reachability::ReachabilityOptions;
use snoop_mva::{MvaModel, SolverOptions};
use snoop_protocol::ModSet;
use snoop_sim::{simulate, SimConfig};
use snoop_workload::params::{SharingLevel, WorkloadParams};

fn main() {
    let params = WorkloadParams::appendix_a(SharingLevel::Five);
    let model = MvaModel::for_protocol(&params, ModSet::new()).expect("valid");

    println!("MVA solve time vs system size (tolerance 1e-12, safeguarded Newton):");
    for n in [1usize, 2, 10, 100, 1_000, 10_000] {
        let start = Instant::now();
        let reps = 100;
        let mut iterations = 0;
        for _ in 0..reps {
            iterations = model
                .solve(n, &SolverOptions::default())
                .expect("converges")
                .iterations;
        }
        let per_solve = start.elapsed().as_secs_f64() / reps as f64;
        println!("  N = {n:<6} {:>10.1} µs/solve   {iterations} iterations", per_solve * 1e6);
    }

    println!();
    println!("plain-substitution iterations at the paper's engineering tolerance (N ≤ 10):");
    let mut worst = 0usize;
    for n in [1usize, 2, 4, 6, 8, 10] {
        let (_, history) = model.solve_traced(n, &SolverOptions::paper()).expect("converges");
        let iterations = history.len() - 1;
        worst = worst.max(iterations);
        print!("  N={n}:{iterations} ");
    }
    println!("\n  worst: {worst} (paper: \"converged within 15 iterations\")");

    println!();
    println!("GTPN cost vs system size (the detailed model):");
    for n in [1usize, 2, 4, 6, 8, 10] {
        let net = CoherenceNet::build(model.inputs(), n).expect("valid inputs");
        let start = Instant::now();
        let options =
            ReachabilityOptions { max_states: 2_000_000, ..ReachabilityOptions::default() };
        match net.solve(&options) {
            Ok(m) => println!(
                "  N = {n}: {:>8} states, {:>8.1} ms, speedup {:.3}",
                m.states,
                start.elapsed().as_secs_f64() * 1e3,
                m.speedup
            ),
            Err(e) => {
                println!("  N = {n}: {e}");
                break;
            }
        }
    }

    println!();
    println!("simulation cost for ±1%-grade estimates:");
    for n in [2usize, 10] {
        let config = SimConfig::for_protocol(n, params, ModSet::new());
        let start = Instant::now();
        let m = simulate(&config).expect("valid config");
        println!(
            "  N = {n:<3} {:>8.1} ms for {} references (speedup {:.3})",
            start.elapsed().as_secs_f64() * 1e3,
            m.references,
            m.speedup
        );
    }
}
