//! Quickstart: describe one configuration as a [`Scenario`], evaluate it
//! through the unified [`Engine`], and sweep it across system sizes as a
//! single deduplicated batch.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use snoop::engine::{Engine, MvaBackend, Scenario};
use snoop::protocol::ModSet;
use snoop::workload::params::SharingLevel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Appendix-A workload at 5% sharing, plain Write-Once.
    let engine = Engine::new().with_backend(MvaBackend);
    let scenario = Scenario::appendix_a(ModSet::new(), SharingLevel::Five, 10);

    // One solve: 10 processors, like the GTPN-comparison range.
    let solution = engine.evaluate(&scenario).remove(0).result?;
    println!("{scenario}:");
    println!("{}", solution.summary());
    println!();

    // A sweep: where does adding processors stop helping? One batch — the
    // N = 10 point is already in the cache from the solve above.
    let sizes = [1usize, 2, 4, 8, 10, 16, 32, 64];
    let sweep: Vec<Scenario> =
        sizes.iter().map(|&n| Scenario::appendix_a(ModSet::new(), SharingLevel::Five, n)).collect();
    println!("{:>4} {:>9} {:>7} {:>7}", "N", "speedup", "U_bus", "w_bus");
    for s in engine.evaluate_batch_ok(&sweep) {
        println!(
            "{:>4} {:>9.3} {:>7.3} {:>7.3}",
            s.n,
            s.speedup,
            s.bus_utilization,
            s.w_bus.unwrap_or(f64::NAN)
        );
    }
    let stats = engine.cache_stats();
    println!();
    println!("The bus saturates around 15-20 processors for this workload —");
    println!("exactly the knee the paper's Figure 4.1 shows.");
    println!(
        "(engine cache: {} hits, {} misses — repeated scenarios are never re-solved)",
        stats.hits, stats.misses
    );
    Ok(())
}
