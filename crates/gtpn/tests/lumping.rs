//! Lumping equivalence: the counted coherence net against the
//! per-processor net it folds.
//!
//! `CoherenceNet` builds one counted subnet for all N processors. The
//! oracle here is the net it replaced — one subnet per processor, every
//! place and transition suffixed `-i` — kept only as a test fixture. The
//! symmetry map sends an unfolded state to the lumped one by summing
//! tokens and pooling in-flight firings over the suffixes; both nets use
//! the same base names, so the map is a name lookup.
//!
//! The quick checks run in the default test pass: every mod-set at N = 1
//! and 2 (with memory contention too at N = 2), a sample at N = 3 and 4.
//! The full matrix at N = 3 (with and without memory contention) and
//! N = 4, and the random-routing property at N = 3, are `#[ignore]`d and
//! meant for release builds:
//!
//! ```text
//! cargo test --release -p snoop-gtpn --test lumping -- --ignored
//! ```

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use snoop_gtpn::chain::transition_matrix;
use snoop_gtpn::marking::{ActiveFiring, TimedState};
use snoop_gtpn::models::coherence::{CoherenceMeasures, CoherenceNet, CoherenceNetOptions};
use snoop_gtpn::net::{Firing, Net, NetBuilder, PlaceId, TransitionId};
use snoop_gtpn::reachability::{explore, ReachabilityOptions, StateGraph};
use snoop_numeric::markov::{steady_state_dense, steady_state_sparse, SparseOptions};
use snoop_protocol::ModSet;
use snoop_workload::derived::ModelInputs;
use snoop_workload::params::{SharingLevel, WorkloadParams};
use snoop_workload::timing::TimingModel;

/// The per-processor coherence net: the construction `CoherenceNet` used
/// before it was folded, one subnet per processor.
fn unfolded_net(inputs: &ModelInputs, n: usize, options: CoherenceNetOptions) -> Net {
    let mut b = NetBuilder::new();
    let bus_free = b.place("bus-free", 1);
    let mem_free = if options.model_memory && inputs.bc_updates_memory {
        Some(b.place("mem-free", inputs.memory_modules))
    } else {
        None
    };
    let think_p = (1.0 / inputs.tau).min(1.0);
    let frac_cs = if inputs.p_rr > 0.0 { inputs.csupply_weighted_mass / inputs.p_rr } else { 0.0 };
    let p_csupwb = inputs.p_csupwb_rr;
    let p_cache_only = (frac_cs - p_csupwb).max(0.0);
    let p_mem = (1.0 - frac_cs).max(0.0);
    let (t_cache, t_mem, t_wb) = (4u32, 8u32, 4u32);

    for i in 0..n {
        let ready = b.place(&format!("ready-{i}"), 1);
        let classify = b.place(&format!("classify-{i}"), 0);
        let supplied = b.place(&format!("supplied-{i}"), 0);
        b.timed(&format!("think-{i}"), Firing::Geometric(think_p), &[(ready, 1)], &[(classify, 1)]);
        if inputs.p_local > 0.0 {
            b.immediate_weighted(
                &format!("local-{i}"),
                inputs.p_local,
                0,
                &[(classify, 1)],
                &[(supplied, 1)],
            );
        }
        if inputs.p_bc > 0.0 {
            let bc_wait = b.place(&format!("bc-wait-{i}"), 0);
            b.immediate_weighted(
                &format!("bc-{i}"),
                inputs.p_bc,
                0,
                &[(classify, 1)],
                &[(bc_wait, 1)],
            );
            let t_write = (inputs.t_write.round() as u32).max(1);
            match mem_free {
                None => {
                    b.timed(
                        &format!("bc-serve-{i}"),
                        Firing::Deterministic(t_write),
                        &[(bc_wait, 1), (bus_free, 1)],
                        &[(bus_free, 1), (supplied, 1)],
                    );
                }
                Some(mem) => {
                    let mem_hold = b.place(&format!("mem-hold-{i}"), 0);
                    b.timed(
                        &format!("bc-serve-{i}"),
                        Firing::Deterministic(t_write),
                        &[(bc_wait, 1), (bus_free, 1), (mem, 1)],
                        &[(bus_free, 1), (supplied, 1), (mem_hold, 1)],
                    );
                    let tail = ((inputs.d_mem - inputs.t_write).round() as u32).max(1);
                    b.timed(
                        &format!("mem-release-{i}"),
                        Firing::Deterministic(tail),
                        &[(mem_hold, 1)],
                        &[(mem, 1)],
                    );
                }
            }
        }
        if inputs.p_rr > 0.0 {
            let rr_wait = b.place(&format!("rr-wait-{i}"), 0);
            let rr_done = b.place(&format!("rr-done-{i}"), 0);
            b.immediate_weighted(
                &format!("rr-{i}"),
                inputs.p_rr,
                0,
                &[(classify, 1)],
                &[(rr_wait, 1)],
            );
            for (name, weight, ticks) in [
                ("rr-mem", p_mem, t_mem),
                ("rr-cache", p_cache_only, t_cache),
                ("rr-cache-wb", p_csupwb, t_cache + t_wb),
            ] {
                if weight > 1e-12 {
                    b.timed_weighted(
                        &format!("{name}-{i}"),
                        weight,
                        Firing::Deterministic(ticks),
                        &[(rr_wait, 1), (bus_free, 1)],
                        &[(rr_done, 1)],
                    );
                }
            }
            if inputs.p_reqwb_rr < 1.0 {
                b.immediate_weighted(
                    &format!("release-{i}"),
                    (1.0 - inputs.p_reqwb_rr).max(1e-12),
                    0,
                    &[(rr_done, 1)],
                    &[(bus_free, 1), (supplied, 1)],
                );
            }
            if inputs.p_reqwb_rr > 1e-12 {
                let wb = b.place(&format!("wb-{i}"), 0);
                b.immediate_weighted(
                    &format!("req-wb-{i}"),
                    inputs.p_reqwb_rr,
                    0,
                    &[(rr_done, 1)],
                    &[(wb, 1)],
                );
                b.timed(
                    &format!("wb-serve-{i}"),
                    Firing::Deterministic(t_wb),
                    &[(wb, 1)],
                    &[(bus_free, 1), (supplied, 1)],
                );
            }
        }
        let t_supply = (inputs.t_supply.round() as u32).max(1);
        b.timed(
            &format!("supply-{i}"),
            Firing::Deterministic(t_supply),
            &[(supplied, 1)],
            &[(ready, 1)],
        );
    }
    b.build().expect("the per-processor net builds")
}

/// A place or transition name without its processor suffix.
fn base(name: &str) -> &str {
    match name.rsplit_once('-') {
        Some((stem, index)) if index.bytes().all(|b| b.is_ascii_digit()) => stem,
        _ => name,
    }
}

/// No branch is pruned: the two nets enumerate different race orderings,
/// so a probability floor would trim different mass from each.
fn exact() -> ReachabilityOptions {
    ReachabilityOptions { probability_floor: 0.0, ..ReachabilityOptions::default() }
}

/// Graph and stationary distribution; dense LU unless the chain is
/// larger than `dense_limit` states.
struct Solved {
    graph: StateGraph,
    pi: Vec<f64>,
}

fn solve(net: &Net, dense_limit: usize) -> Solved {
    let graph = explore(net, &exact()).expect("fits the default budget");
    let p = transition_matrix(&graph).expect("stochastic");
    let pi = if graph.len() <= dense_limit {
        steady_state_dense(&p).expect("dense steady state")
    } else {
        let mut initial = vec![0.0; graph.len()];
        for &(s, prob) in &graph.initial {
            initial[s] += prob;
        }
        // Far below the production tolerance, so the iterate is accurate
        // even for the rare transition kinds' small throughputs.
        let options = SparseOptions {
            tolerance: 1e-16,
            dense_threshold: 0,
            dense_fallback_limit: 0,
            ..SparseOptions::default()
        };
        steady_state_sparse(&p, Some(&initial), &options).expect("sparse steady state").pi
    };
    Solved { graph, pi }
}

/// Every measure, summed over processors by base name: throughput and
/// utilization per transition kind, mean tokens per place kind.
#[derive(Debug, Default)]
struct Kinds {
    throughput: BTreeMap<String, f64>,
    utilization: BTreeMap<String, f64>,
    tokens: BTreeMap<String, f64>,
}

impl Kinds {
    fn of(net: &Net, solved: &Solved) -> Kinds {
        let mut k = Kinds::default();
        for (s, (state, &p)) in solved.graph.states.iter().zip(&solved.pi).enumerate() {
            for (place, &tokens) in state.marking.iter().enumerate() {
                *k.tokens.entry(base(&net.places()[place].name).into()).or_default() +=
                    p * f64::from(tokens);
            }
            for f in &state.active {
                *k.utilization
                    .entry(base(&net.transitions()[f.transition].name).into())
                    .or_default() += p;
            }
            for (t, &count) in solved.graph.firing_rates[s].iter().enumerate() {
                *k.throughput.entry(base(&net.transitions()[t].name).into()).or_default() +=
                    p * count;
            }
        }
        k
    }

    /// The paper's measures, formed as `CoherenceNet::measures` forms them
    /// from the kinds its handles name.
    fn measures(&self, net: &CoherenceNet) -> (f64, f64, f64) {
        let transition = |t: TransitionId| &net.net.transitions()[t.index()].name;
        let place = |p: PlaceId| &net.net.places()[p.index()].name;
        let think = self.throughput[transition(net.think)];
        let bus = net.bus_transitions.iter().filter_map(|&t| self.utilization.get(transition(t)));
        let queue = net.wait_places.iter().map(|&p| self.tokens[place(p)]);
        (think * (net.tau + net.t_supply), bus.sum(), queue.sum())
    }
}

fn assert_close(what: &str, a: f64, b: f64, tol: f64) {
    let scale = a.abs().max(b.abs());
    assert!(
        (a - b).abs() <= tol * scale + 1e-300,
        "{what}: {a} vs {b} (rel {:.2e})",
        (a - b).abs() / scale
    );
}

/// Sends an unfolded state through the symmetry map.
fn lump_state(unfolded: &Net, lumped: &Net, state: &TimedState) -> TimedState {
    let mut marking = vec![0u32; lumped.places().len()];
    for (place, &tokens) in state.marking.iter().enumerate() {
        let to = lumped.place_by_name(base(&unfolded.places()[place].name)).expect("place kind");
        marking[to.index()] += tokens;
    }
    let active = state
        .active
        .iter()
        .map(|f| ActiveFiring {
            transition: lumped
                .transition_by_name(base(&unfolded.transitions()[f.transition].name))
                .expect("transition kind")
                .index(),
            remaining: f.remaining,
        })
        .collect();
    TimedState::new(marking, active)
}

/// Solves both nets at `n` and checks that the unfolded π, aggregated by
/// the symmetry map, is the lumped π (to 1e-12), and that every kind's
/// throughput, utilization and token mean, plus the production measures,
/// agree to `tol` relative.
fn check_lumping(
    label: &str,
    inputs: &ModelInputs,
    n: usize,
    options: CoherenceNetOptions,
    tol: f64,
) {
    let what = |m: &str| format!("{label}, N = {n}, memory {}: {m}", options.model_memory);
    let unfolded = unfolded_net(inputs, n, options);
    let lumped = CoherenceNet::build_with_options(inputs, n, options).expect("builds");
    // Dense LU on both sides up to N = 3 (≤ ~1.5k unfolded states).
    let dense_limit = 2000;
    let u = solve(&unfolded, dense_limit);
    let l = solve(&lumped.net, dense_limit);

    let index: HashMap<&TimedState, usize> =
        l.graph.states.iter().enumerate().map(|(i, s)| (s, i)).collect();
    let mut aggregated = vec![0.0; l.graph.len()];
    for (state, &p) in u.graph.states.iter().zip(&u.pi) {
        let image = lump_state(&unfolded, &lumped.net, state);
        let id = index.get(&image).unwrap_or_else(|| {
            panic!("{}", what(&format!("state {state:?} has no lumped image {image:?}")))
        });
        aggregated[*id] += p;
    }
    for (s, (&a, &p)) in aggregated.iter().zip(&l.pi).enumerate() {
        assert!((a - p).abs() <= 1e-12, "{}", what(&format!("state {s}: π {a} vs {p}")));
    }

    let (u, l) = (Kinds::of(&unfolded, &u), Kinds::of(&lumped.net, &l));
    for (kind, map_u, map_l) in [
        ("throughput", &u.throughput, &l.throughput),
        ("utilization", &u.utilization, &l.utilization),
        ("tokens", &u.tokens, &l.tokens),
    ] {
        let keys_u: Vec<_> = map_u.keys().collect();
        let keys_l: Vec<_> = map_l.keys().collect();
        assert_eq!(keys_u, keys_l, "{}", what(kind));
        for (name, &a) in map_u {
            assert_close(&what(&format!("{kind} of {name}")), a, map_l[name], tol);
        }
    }
    let production: CoherenceMeasures =
        lumped.solve(&ReachabilityOptions::default()).expect("production solve");
    let (speedup, bus, queue) = u.measures(&lumped);
    assert_close(&what("speedup"), speedup, production.speedup, tol);
    assert_close(&what("bus utilization"), bus, production.bus_utilization, tol);
    assert_close(&what("mean bus queue"), queue, production.mean_bus_queue, tol);
}

/// Appendix-A inputs for every modification set at every sharing level.
fn all_configs() -> Vec<(String, ModelInputs)> {
    let mut out = Vec::new();
    for mask in 0u8..16 {
        let numbers: Vec<u8> = (1..=4).filter(|k| mask & (1 << (k - 1)) != 0).collect();
        let mods = ModSet::from_numbers(&numbers).expect("modifications 1-4 exist");
        for level in SharingLevel::ALL {
            let inputs = ModelInputs::derive_adjusted(
                &WorkloadParams::appendix_a(level),
                mods,
                &TimingModel::default(),
            )
            .expect("appendix A inputs derive");
            out.push((format!("{mods} at {level:?}"), inputs));
        }
    }
    out
}

fn config(mods: &[u8], level: SharingLevel) -> ModelInputs {
    ModelInputs::derive_adjusted(
        &WorkloadParams::appendix_a(level),
        ModSet::from_numbers(mods).unwrap(),
        &TimingModel::default(),
    )
    .unwrap()
}

const PLAIN: CoherenceNetOptions = CoherenceNetOptions { model_memory: false };
const MEMORY: CoherenceNetOptions = CoherenceNetOptions { model_memory: true };

#[test]
fn every_mod_set_lumps_exactly_at_one_and_two_processors() {
    for (name, inputs) in all_configs() {
        for n in 1..=2 {
            check_lumping(&name, &inputs, n, PLAIN, 1e-12);
        }
        check_lumping(&name, &inputs, 2, MEMORY, 1e-12);
    }
}

#[test]
fn write_once_lumps_exactly_at_three_processors() {
    // One model: dense LU on the ~1.2k-state unfolded chain is the slow
    // part of a debug build. The release matrix covers every mod-set.
    check_lumping("WO at Five", &config(&[], SharingLevel::Five), 3, PLAIN, 1e-12);
}

#[test]
fn a_few_mod_sets_lump_at_four_processors() {
    // The unfolded chain is past the dense limit here and goes through
    // the iterative solve, so measures agree to its accuracy.
    for mods in [&[][..], &[1, 2, 3, 4]] {
        check_lumping(&format!("{mods:?}"), &config(mods, SharingLevel::Twenty), 4, PLAIN, 1e-8);
    }
}

#[test]
fn unfolded_to_lumped_state_ratio_grows_with_n() {
    let inputs = config(&[], SharingLevel::Five);
    let ratios: Vec<f64> = (1..=4)
        .map(|n| {
            let options = ReachabilityOptions::default();
            let unfolded = explore(&unfolded_net(&inputs, n, PLAIN), &options).unwrap().len();
            let lumped =
                explore(&CoherenceNet::build(&inputs, n).unwrap().net, &options).unwrap().len();
            unfolded as f64 / lumped as f64
        })
        .collect();
    assert_eq!(ratios[0], 1.0, "one processor folds to itself");
    assert!(ratios.windows(2).all(|w| w[1] > w[0]), "ratios {ratios:?}");
}

/// Appendix-A inputs with the routing and think time replaced.
fn custom_inputs(tau: f64, weights: (f64, f64, f64), p_reqwb_rr: f64) -> ModelInputs {
    let mut inputs = config(&[], SharingLevel::Five);
    let total = weights.0 + weights.1 + weights.2;
    inputs.tau = tau;
    inputs.p_local = weights.0 / total;
    inputs.p_bc = weights.1 / total;
    inputs.p_rr = weights.2 / total;
    inputs.p_reqwb_rr = p_reqwb_rr;
    // Keep the remote-read variant split well-formed for the new p_rr.
    inputs.csupply_weighted_mass = 0.3 * inputs.p_rr;
    inputs.p_csupwb_rr = 0.1;
    inputs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_routings_lump_exactly_at_two_processors(
        tau in 1.0f64..8.0,
        p_local in 0.05f64..1.0,
        p_bc in 0.05f64..1.0,
        p_rr in 0.05f64..1.0,
        p_reqwb_rr in 0.0f64..1.0,
    ) {
        let inputs = custom_inputs(tau, (p_local, p_bc, p_rr), p_reqwb_rr);
        check_lumping("random routing", &inputs, 2, PLAIN, 1e-12);
    }

    #[test]
    #[ignore = "dense LU at N = 3; run in release with --ignored"]
    fn random_routings_lump_exactly_at_three_processors(
        tau in 1.0f64..8.0,
        p_local in 0.05f64..1.0,
        p_bc in 0.05f64..1.0,
        p_rr in 0.05f64..1.0,
        p_reqwb_rr in 0.0f64..1.0,
    ) {
        let inputs = custom_inputs(tau, (p_local, p_bc, p_rr), p_reqwb_rr);
        check_lumping("random routing", &inputs, 3, PLAIN, 1e-12);
    }
}

#[test]
#[ignore = "full matrix; run in release with --ignored"]
fn every_mod_set_lumps_exactly_at_three_and_four_processors() {
    for (name, inputs) in all_configs() {
        check_lumping(&name, &inputs, 3, PLAIN, 1e-12);
        check_lumping(&name, &inputs, 3, MEMORY, 1e-12);
        check_lumping(&name, &inputs, 4, PLAIN, 1e-8);
    }
}
