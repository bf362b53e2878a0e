//! Design-space exploration: what the MVA model's speed makes possible.
//!
//! The paper argues the model's point is interactivity — "the
//! computational efficiency of the MVA approach allows a wide range of
//! design alternatives to be interactively investigated". This example
//! sweeps two architectural knobs across hundreds of configurations in
//! milliseconds: cache effectiveness (private hit rate) and block size.
//!
//! ```text
//! cargo run --example design_space
//! ```

use snoop::engine::{BackendId, Engine, Scenario};
use snoop::mva::{MvaModel, SolverOptions};
use snoop::protocol::ModSet;
use snoop::workload::params::{SharingLevel, WorkloadParams};
use snoop::workload::timing::TimingModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = WorkloadParams::appendix_a(SharingLevel::Five);

    // Knob 1: private hit rate (cache size / organization proxy).
    println!("speedup at N = 16 vs private hit rate (Write-Once vs Illinois-like):");
    println!("{:>8} {:>10} {:>10}", "h_priv", "WO", "WO+1+2+3");
    let hit_rates = [0.80, 0.85, 0.90, 0.95, 0.98, 0.995];
    let protocols = [ModSet::new(), ModSet::from_numbers(&[1, 2, 3])?];
    // One engine batch: every (hit rate, protocol) pair at N = 16.
    let scenarios: Vec<Scenario> = hit_rates
        .iter()
        .flat_map(|&h_private| {
            let params = WorkloadParams { h_private, ..base };
            protocols.map(|mods| Scenario::with_params(mods, params, 16))
        })
        .collect();
    let speedups = Engine::new()
        .with_backends(&[BackendId::Mva])
        .evaluate_batch(&scenarios)
        .into_iter()
        .map(|r| r.result.map(|e| e.speedup))
        .collect::<Result<Vec<_>, _>>()?;
    for (h, pair) in hit_rates.iter().zip(speedups.chunks(2)) {
        println!("{h:>8.3} {:>10.3} {:>10.3}", pair[0], pair[1]);
    }
    println!("(higher hit rates widen modification 1's advantage: the remaining bus");
    println!(" traffic is write-through, exactly what it removes)");
    println!();

    // Knob 2: block size (changes both transfer time and module count).
    println!("speedup at N = 16 vs block size (words):");
    println!("{:>6} {:>10} {:>10}", "words", "WO", "WO+1");
    for words in [2u32, 4, 8, 16] {
        let timing = TimingModel { words_per_block: words, ..TimingModel::default() };
        let wo = MvaModel::with_timing(&base, ModSet::new(), &timing)?
            .solve(16, &SolverOptions::default())?;
        let m1 = MvaModel::with_timing(&base, ModSet::from_numbers(&[1])?, &timing)?
            .solve(16, &SolverOptions::default())?;
        println!("{words:>6} {:>10.3} {:>10.3}", wo.speedup, m1.speedup);
    }
    println!("(bigger blocks monopolize the bus longer per miss; without a");
    println!(" miss-rate benefit — not modeled here — smaller blocks win, matching");
    println!(" the era's block-size studies [Smit85b])");
    println!();

    // A 2-d sweep to show the cost: hundreds of solves, wall time printed.
    let start = std::time::Instant::now();
    let mut best = (0.0f64, 0.0f64, 0u32);
    let mut count = 0usize;
    for h in 0..20 {
        let h_private = 0.80 + h as f64 * 0.01;
        for words in [2u32, 4, 8, 16] {
            let params = WorkloadParams { h_private, ..base };
            let timing = TimingModel { words_per_block: words, ..TimingModel::default() };
            let s = MvaModel::with_timing(&params, ModSet::from_numbers(&[1])?, &timing)?
                .solve(16, &SolverOptions::default())?;
            count += 1;
            if s.speedup > best.0 {
                best = (s.speedup, h_private, words);
            }
        }
    }
    println!(
        "swept {count} configurations in {:.1} ms; best: speedup {:.3} at h_private = {:.2}, \
         {}-word blocks",
        start.elapsed().as_secs_f64() * 1e3,
        best.0,
        best.1,
        best.2
    );
    Ok(())
}
