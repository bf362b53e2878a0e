//! Capacity planning with the asymptotic analysis: how many processors is
//! this bus worth, and which protocol stretches it furthest?
//!
//! Uses the closed-form N → ∞ speedup (Section 4.1's extension of Table
//! 4.1 to arbitrary sizes) and a binary search for the "knee": the
//! smallest N whose speedup reaches 90% of the asymptote.
//!
//! ```text
//! cargo run --example capacity_planning
//! ```

use snoop::mva::asymptote::asymptotic;
use snoop::mva::{MvaModel, SolverOptions};
use snoop::protocol::ModSet;
use snoop::workload::params::{SharingLevel, WorkloadParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("bus capacity planning (Appendix-A workloads)");
    println!(
        "{:<10} {:<9} {:>10} {:>12} {:>14}",
        "protocol", "sharing", "limit", "knee (90%)", "util at knee"
    );

    for mods_str in ["WO", "WO+1", "WO+1+4"] {
        let mods: ModSet = mods_str.parse()?;
        for sharing in SharingLevel::ALL {
            let params = WorkloadParams::appendix_a(sharing);
            let model = MvaModel::for_protocol(&params, mods)?;
            let limit = asymptotic(model.inputs()).speedup;
            let target = 0.9 * limit;

            // Speedup increases with N up to saturation, so the smallest N
            // that reaches the target splits 1..=200 in two.
            let (mut knee, mut hi) = (1usize, 200usize);
            while knee < hi {
                let mid = (knee + hi) / 2;
                if model.solve(mid, &SolverOptions::default())?.speedup >= target {
                    hi = mid;
                } else {
                    knee = mid + 1;
                }
            }
            let util = model.solve(knee, &SolverOptions::default())?.bus_utilization;
            println!(
                "{:<10} {:<9} {:>10.3} {:>12} {:>14.3}",
                mods_str,
                sharing.to_string(),
                limit,
                knee,
                util
            );
        }
    }

    println!();
    println!("Reading: beyond the knee, extra processors mostly queue at the bus.");
    println!("Modification 1+4 both raises the ceiling and (at high sharing) moves");
    println!("the knee out — the paper's asymptotic extension of Table 4.1(c).");
    Ok(())
}
