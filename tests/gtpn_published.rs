//! The paper's published GTPN column at N = 6, 8 and 10, checked through
//! the engine. Each cell must solve within the default state budget, and
//! its error against the published speedup is pinned to ±0.05 percentage
//! points of the value measured when the counted net made these sizes
//! reachable. The pins track drift in either direction; they are not an
//! accuracy bound. Write-Once drifts furthest because the net omits memory
//! contention and cache interference. The 27 solves take a few seconds in
//! a release build and under half a minute in a debug one:
//!
//! ```text
//! cargo test --release --test gtpn_published
//! ```

use snoop::engine::{BackendId, Engine, Scenario};
use snoop::mva::paper::{table_4_1, TABLE_N};

/// Pinned signed errors `(ours / published − 1)·100` for N = 6, 8, 10,
/// one row per published row in `table_4_1()` order: Write-Once, WO+1,
/// WO+1+4, each at 1%, 5% and 20% sharing.
const PINNED_ERR_PCT: [[f64; 3]; 9] = [
    [2.50, 4.82, 7.68],
    [1.38, 2.73, 4.63],
    [1.07, 1.74, 3.24],
    [1.72, 2.51, 3.07],
    [0.81, 0.70, 0.72],
    [0.79, -0.04, -1.88],
    [1.19, 1.86, 2.71],
    [0.31, 0.38, 0.60],
    [0.89, 1.01, 1.25],
];

/// Table columns of N = 6, 8 and 10.
const COLUMNS: [usize; 3] = [3, 4, 5];

#[test]
fn published_gtpn_cells_at_six_to_ten_processors() {
    let rows = table_4_1();
    assert_eq!(rows.len(), PINNED_ERR_PCT.len());
    let mut scenarios = Vec::new();
    let mut cells = Vec::new();
    for (row, pinned) in rows.iter().zip(PINNED_ERR_PCT) {
        for (col, pinned) in COLUMNS.into_iter().zip(pinned) {
            scenarios.push(Scenario::appendix_a(row.mods(), row.sharing, TABLE_N[col]));
            cells.push((row, col, pinned));
        }
    }
    let budget = scenarios[0].gtpn.max_states;
    let results = Engine::new().with_backends(&[BackendId::Gtpn]).evaluate_batch(&scenarios);
    assert_eq!(results.len(), cells.len());

    let mut failures = Vec::new();
    for (result, (row, col, pinned)) in results.iter().zip(cells) {
        let label = format!("panel {} {} N={}", row.panel, row.sharing, TABLE_N[col]);
        let eval = match &result.result {
            Ok(eval) => eval,
            Err(e) => {
                failures.push(format!("{label}: {e}"));
                continue;
            }
        };
        assert!(eval.provenance.states <= budget, "{label}: {} states", eval.provenance.states);
        let published = row.gtpn[col].expect("published for N ≤ 10");
        let err_pct = (eval.speedup / published - 1.0) * 100.0;
        println!(
            "{label}: GTPN {:.3} vs published {published} ({err_pct:+.2}%, {} states)",
            eval.speedup, eval.provenance.states
        );
        if (err_pct - pinned).abs() > 0.05 {
            failures.push(format!("{label}: error {err_pct:+.3}% vs pinned {pinned:+.2}%"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
