//! Equivalence tests for the arena-interned reachability expansion.
//!
//! The state arena replaced a `HashMap<TimedState, usize>` intern index;
//! these tests pin the contract that refactor must keep on a real model —
//! the N = 3 Write-Once coherence net (254 states, in waves wide enough
//! for the parallel expansion): no state is interned twice, the graph is
//! a proper stochastic matrix, the parallel frontier expansion reproduces
//! the serial graph bit for bit, and the embedded chain still solves to
//! the same stationary distribution by both the dense and sparse paths.

use std::collections::HashSet;

use snoop_gtpn::chain::transition_matrix;
use snoop_gtpn::models::coherence::CoherenceNet;
use snoop_gtpn::reachability::{explore, ReachabilityOptions, StateGraph};
use snoop_numeric::markov::{steady_state_dense, steady_state_sparse, SparseOptions};
use snoop_protocol::ModSet;
use snoop_workload::derived::ModelInputs;
use snoop_workload::params::{SharingLevel, WorkloadParams};
use snoop_workload::timing::TimingModel;

fn write_once_graph(threads: usize) -> StateGraph {
    let inputs = ModelInputs::derive_adjusted(
        &WorkloadParams::appendix_a(SharingLevel::Five),
        ModSet::new(),
        &TimingModel::default(),
    )
    .expect("appendix A inputs derive");
    let net = CoherenceNet::build(&inputs, 3).expect("N = 3 write-once net builds");
    let options = ReachabilityOptions { threads, ..ReachabilityOptions::default() };
    explore(&net.net, &options).expect("graph fits default budgets")
}

#[test]
fn arena_interning_yields_distinct_states_and_stochastic_edges() {
    let graph = write_once_graph(1);
    assert!(graph.len() > 100, "unexpectedly small graph: {}", graph.len());

    // The intern table must never hand out two ids for one state.
    let distinct: HashSet<_> = graph.states.iter().collect();
    assert_eq!(distinct.len(), graph.len(), "duplicate interned states");

    for (s, row) in graph.edges.iter().enumerate() {
        let sum: f64 = row.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-9, "state {s} row sums to {sum}");
        for &(target, p) in row {
            assert!(target < graph.len(), "state {s} edge to out-of-range {target}");
            assert!(p > 0.0, "state {s} carries a non-positive edge");
        }
    }
    for &(s, p) in &graph.initial {
        assert!(s < graph.len());
        assert!(p > 0.0);
    }
}

#[test]
fn parallel_expansion_reproduces_the_serial_graph() {
    let serial = write_once_graph(1);
    for threads in [2, 4] {
        let parallel = write_once_graph(threads);
        assert_eq!(serial, parallel, "{threads}-thread graph diverged");
    }
}

#[test]
fn arena_graph_solves_to_the_same_stationary_distribution() {
    let graph = write_once_graph(1);
    let p = transition_matrix(&graph).expect("transition matrix builds");
    let dense = steady_state_dense(&p).expect("dense steady state");

    let mut initial = vec![0.0; graph.len()];
    for &(s, prob) in &graph.initial {
        initial[s] += prob;
    }
    // Force the iterative sparse path for a genuine cross-solver check.
    let options = SparseOptions {
        dense_threshold: 0,
        dense_fallback_limit: 0,
        ..SparseOptions::default()
    };
    let sparse =
        steady_state_sparse(&p, Some(&initial), &options).expect("sparse steady state");

    let max_diff = dense
        .iter()
        .zip(&sparse.pi)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    assert!(max_diff < 1e-9, "dense and sparse solutions diverge: {max_diff:.3e}");
}
