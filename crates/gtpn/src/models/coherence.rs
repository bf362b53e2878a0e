//! The snooping-cache multiprocessor GTPN — the detailed comparator model.
//!
//! Structure (one processor's cycle):
//!
//! ```text
//! ready ──think (geometric, mean τ)──▶ classify
//!   classify ──[p_local]──▶ supplied
//!   classify ──[p_bc]────▶ bc-wait ──(bus, T_write)──▶ supplied
//!   classify ──[p_rr]────▶ rr-wait ──(bus, 4/8/8+4)──▶ rr-done
//!     rr-done ──[1−p_reqwb]──▶ supplied (bus released)
//!     rr-done ──[p_reqwb]───▶ wb ──(bus, 4)──▶ supplied
//!   supplied ──(T_supply = 1)──▶ ready
//! ```
//!
//! The processors are identical, so the net holds this cycle once, as a
//! *counted* subnet: `ready` starts with N tokens, and a marking records
//! how many processors are in each local state plus the multiset of their
//! in-flight firings (concurrent think and supply firings run side by
//! side). That is the standard symmetry lumping of GSPN folding, exact
//! because no measure tells processors apart: the state space grows
//! polynomially in N instead of about 6× per processor. A folded bus race
//! must still weigh each request class by how many processors queue in
//! it, so the bus-serve transitions take a per-token race weight
//! ([`NetBuilder::weight_by_tokens`]).
//!
//! The single `bus-free` token serializes all bus transactions; enabled
//! bus transitions race with weights, giving the random-order service of
//! the \[VeHo86\] GTPN (which has the same mean waits as the MVA's FCFS —
//! paper Section 2.1). Remote-read durations use the same reconstruction
//! as the MVA inputs: cache-supplied 4 cycles, memory-supplied 8, plus 4
//! per appended block write-back.
//!
//! Deliberate simplifications relative to the full \[VeHo86\] net, chosen to
//! keep the state space within reach while preserving the contended
//! resources (documented in DESIGN.md): memory-module contention and cache
//! (snoop) interference are not modeled — the MVA solutions show both
//! contribute only fractions of a cycle for the Appendix-A workloads. The
//! discrete-event simulator (`snoop-sim`) models both, so each detailed
//! comparator covers the other's blind spot.

use snoop_workload::derived::ModelInputs;

use crate::net::{Firing, Net, NetBuilder, PlaceId, TransitionId};
use crate::reachability::ReachabilityOptions;
use crate::solve::{solve_with_options, GtpnSolution};
use crate::GtpnError;

/// The multiprocessor net plus the handles needed to extract measures.
#[derive(Debug, Clone)]
pub struct CoherenceNet {
    /// The underlying net.
    pub net: Net,
    /// Number of processors.
    pub n: usize,
    /// Mean think time τ (for the speedup formula).
    pub tau: f64,
    /// `T_supply` (for the speedup formula).
    pub t_supply: f64,
    /// The think transition; its throughput counts every processor's
    /// requests, so it is `N/R`.
    pub think: TransitionId,
    /// The bus-free place (its emptiness is bus utilization).
    pub bus_free: PlaceId,
    /// All bus-holding timed transitions (their summed utilization is bus
    /// utilization).
    pub bus_transitions: Vec<TransitionId>,
    /// The bus wait places (queued requests).
    pub wait_places: Vec<PlaceId>,
}

/// Performance measures extracted from a solved coherence net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoherenceMeasures {
    /// Mean time between memory requests (cycles).
    pub r: f64,
    /// Speedup `N·(τ + T_supply)/R`.
    pub speedup: f64,
    /// Bus utilization.
    pub bus_utilization: f64,
    /// Mean number of requests waiting for the bus (tokens in the wait
    /// places) — comparable to the MVA's `Q̄_bus` minus the request in
    /// service.
    pub mean_bus_queue: f64,
    /// Size of the expanded state space (the cost driver).
    pub states: usize,
}

/// Optional refinements of the coherence net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoherenceNetOptions {
    /// Model memory-module contention: broadcasts must additionally
    /// acquire one of the interleaved module tokens, which stays busy for
    /// `d_mem` after the bus moves on. Grows the state space; used to
    /// quantify how little the default omission costs.
    pub model_memory: bool,
}

impl CoherenceNet {
    /// Builds the net for `n` processors from derived model inputs.
    ///
    /// Durations are rounded to integer ticks; with the default timing
    /// model they already are integers (4 and 8 cycles).
    ///
    /// # Errors
    ///
    /// Returns [`GtpnError::InvalidInput`] if `n == 0` or `tau` is not
    /// positive, and propagates net-construction failures.
    pub fn build(inputs: &ModelInputs, n: usize) -> Result<Self, GtpnError> {
        Self::build_with_options(inputs, n, CoherenceNetOptions::default())
    }

    /// Like [`CoherenceNet::build`] with explicit refinements.
    ///
    /// # Errors
    ///
    /// Returns [`GtpnError::InvalidInput`] if `n == 0` or `tau` is not
    /// positive, and propagates net-construction failures.
    pub fn build_with_options(
        inputs: &ModelInputs,
        n: usize,
        options: CoherenceNetOptions,
    ) -> Result<Self, GtpnError> {
        if n == 0 {
            return Err(GtpnError::InvalidInput("need at least one processor".into()));
        }
        if inputs.tau.is_nan() || inputs.tau <= 0.0 {
            return Err(GtpnError::InvalidInput(format!(
                "geometric think time needs positive tau, got {}",
                inputs.tau
            )));
        }
        let mut b = NetBuilder::new();
        let bus_free = b.place("bus-free", 1);
        // Aggregated memory modules: m interchangeable tokens (per-module
        // identity would multiply the state space for no insight at these
        // loads).
        let mem_free = if options.model_memory && inputs.bc_updates_memory {
            Some(b.place("mem-free", inputs.memory_modules))
        } else {
            None
        };
        let think_p = (1.0 / inputs.tau).min(1.0);

        // Remote-read duration split (probabilities conditional on rr).
        let frac_cs = if inputs.p_rr > 0.0 {
            inputs.csupply_weighted_mass / inputs.p_rr
        } else {
            0.0
        };
        let p_csupwb = inputs.p_csupwb_rr; // cache supply + supplier write-back
        let p_cache_only = (frac_cs - p_csupwb).max(0.0);
        let p_mem = (1.0 - frac_cs).max(0.0);
        let t_cache = 4u32;
        let t_mem = 8u32;
        let t_wb = 4u32;

        // An `n` past the explorer's token bound fails there as an
        // unbounded place rather than wrapping here.
        let ready = b.place("ready", u32::try_from(n).unwrap_or(u32::MAX));
        let classify = b.place("classify", 0);
        let supplied = b.place("supplied", 0);
        let think = b.timed("think", Firing::Geometric(think_p), &[(ready, 1)], &[(classify, 1)]);

        // Classification (immediate, weights = routing probabilities). All
        // branches read the one classify place, so each queued token is
        // routed independently by these weights, as in per-processor copies;
        // the explorer settles them as one routing group.
        let mut bus_transitions = Vec::new();
        let mut wait_places = Vec::new();
        if inputs.p_local > 0.0 {
            b.immediate_weighted("local", inputs.p_local, 0, &[(classify, 1)], &[(supplied, 1)]);
        }
        if inputs.p_bc > 0.0 {
            let bc_wait = b.place("bc-wait", 0);
            wait_places.push(bc_wait);
            b.immediate_weighted("bc", inputs.p_bc, 0, &[(classify, 1)], &[(bc_wait, 1)]);
            let t_write = (inputs.t_write.round() as u32).max(1);
            let serve = match mem_free {
                None => b.timed(
                    "bc-serve",
                    Firing::Deterministic(t_write),
                    &[(bc_wait, 1), (bus_free, 1)],
                    &[(bus_free, 1), (supplied, 1)],
                ),
                Some(mem) => {
                    // The word goes to a module, which stays busy for the
                    // rest of d_mem after the bus releases.
                    let mem_hold = b.place("mem-hold", 0);
                    let serve = b.timed(
                        "bc-serve",
                        Firing::Deterministic(t_write),
                        &[(bc_wait, 1), (bus_free, 1), (mem, 1)],
                        &[(bus_free, 1), (supplied, 1), (mem_hold, 1)],
                    );
                    let tail = ((inputs.d_mem - inputs.t_write).round() as u32).max(1);
                    b.timed(
                        "mem-release",
                        Firing::Deterministic(tail),
                        &[(mem_hold, 1)],
                        &[(mem, 1)],
                    );
                    serve
                }
            };
            // Each queued broadcaster bids for the bus with weight 1.
            b.weight_by_tokens(serve, bc_wait);
            bus_transitions.push(serve);
        }
        if inputs.p_rr > 0.0 {
            let rr_wait = b.place("rr-wait", 0);
            wait_places.push(rr_wait);
            let rr_done = b.place("rr-done", 0);
            b.immediate_weighted("rr", inputs.p_rr, 0, &[(classify, 1)], &[(rr_wait, 1)]);
            // Three service variants race; their weights sum to 1 per
            // queued reader, so bus arbitration stays fair between
            // processors.
            for (name, weight, ticks) in [
                ("rr-mem", p_mem, t_mem),
                ("rr-cache", p_cache_only, t_cache),
                ("rr-cache-wb", p_csupwb, t_cache + t_wb),
            ] {
                if weight > 1e-12 {
                    let serve = b.timed_weighted(
                        name,
                        weight,
                        Firing::Deterministic(ticks),
                        &[(rr_wait, 1), (bus_free, 1)],
                        &[(rr_done, 1)],
                    );
                    b.weight_by_tokens(serve, rr_wait);
                    bus_transitions.push(serve);
                }
            }

            // Release or extend with the requester's write-back.
            if inputs.p_reqwb_rr < 1.0 {
                b.immediate_weighted(
                    "release",
                    (1.0 - inputs.p_reqwb_rr).max(1e-12),
                    0,
                    &[(rr_done, 1)],
                    &[(bus_free, 1), (supplied, 1)],
                );
            }
            if inputs.p_reqwb_rr > 1e-12 {
                let wb = b.place("wb", 0);
                b.immediate_weighted("req-wb", inputs.p_reqwb_rr, 0, &[(rr_done, 1)], &[(wb, 1)]);
                bus_transitions.push(b.timed(
                    "wb-serve",
                    Firing::Deterministic(t_wb),
                    &[(wb, 1)],
                    &[(bus_free, 1), (supplied, 1)],
                ));
            }
        }

        let t_supply = (inputs.t_supply.round() as u32).max(1);
        b.timed("supply", Firing::Deterministic(t_supply), &[(supplied, 1)], &[(ready, 1)]);

        Ok(CoherenceNet {
            net: b.build()?,
            n,
            tau: inputs.tau,
            t_supply: inputs.t_supply,
            think,
            bus_free,
            bus_transitions,
            wait_places,
        })
    }

    /// Solves the net and extracts the paper's measures.
    ///
    /// # Errors
    ///
    /// Propagates exploration/solution failures (notably
    /// [`GtpnError::StateSpaceExplosion`] for large `n` — the paper's
    /// point — and [`GtpnError::UnboundedPlace`] for an `n` past the token
    /// bound).
    pub fn solve(&self, options: &ReachabilityOptions) -> Result<CoherenceMeasures, GtpnError> {
        let sol = solve_with_options(&self.net, options)?;
        Ok(self.measures(&sol))
    }

    /// Extracts measures from an already-solved net.
    pub fn measures(&self, sol: &GtpnSolution) -> CoherenceMeasures {
        let total_throughput = sol.throughput(self.think);
        let r = self.n as f64 / total_throughput;
        let speedup = total_throughput * (self.tau + self.t_supply);
        let bus_utilization: f64 =
            self.bus_transitions.iter().map(|&t| sol.utilization(t)).sum();
        let mean_bus_queue: f64 =
            self.wait_places.iter().map(|&p| sol.mean_tokens(p)).sum();
        CoherenceMeasures {
            r,
            speedup,
            bus_utilization,
            mean_bus_queue,
            states: sol.state_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoop_protocol::ModSet;
    use snoop_workload::params::{SharingLevel, WorkloadParams};
    use snoop_workload::timing::TimingModel;

    fn inputs(level: SharingLevel, mods: &[u8]) -> ModelInputs {
        ModelInputs::derive_adjusted(
            &WorkloadParams::appendix_a(level),
            ModSet::from_numbers(mods).unwrap(),
            &TimingModel::default(),
        )
        .unwrap()
    }

    #[test]
    fn single_processor_matches_renewal_argument() {
        let i = inputs(SharingLevel::Five, &[]);
        let net = CoherenceNet::build(&i, 1).unwrap();
        let m = net.solve(&ReachabilityOptions::default()).unwrap();
        // With no contention, R = τ + T_supply + p_bc·T_write + p_rr·E[t_read]
        // where E[t_read] uses the integer-rounded durations.
        assert!((m.speedup - 0.85).abs() < 0.02, "speedup = {}", m.speedup);
        assert!(m.bus_utilization < 0.2);
    }

    #[test]
    fn two_processors_nearly_double() {
        let i = inputs(SharingLevel::Five, &[]);
        let net = CoherenceNet::build(&i, 2).unwrap();
        let m = net.solve(&ReachabilityOptions::default()).unwrap();
        // Table 4.1(a): 1.67 at N = 2 (MVA); the GTPN should be close.
        assert!((m.speedup - 1.67).abs() < 0.08, "speedup = {}", m.speedup);
    }

    #[test]
    fn lumped_state_space_grows_polynomially() {
        let i = inputs(SharingLevel::Five, &[]);
        let states: Vec<usize> = (1..=4)
            .map(|n| {
                CoherenceNet::build(&i, n)
                    .unwrap()
                    .solve(&ReachabilityOptions::default())
                    .unwrap()
                    .states
            })
            .collect();
        assert_eq!(states, [27, 103, 254, 505]);
    }

    #[test]
    fn oversized_net_fails_fast_instead_of_accumulating_leaves() {
        // At N = 8 the counted net has about 3,000 states, so a 500-state
        // budget must stop the exploration promptly with the budget error.
        // The routing groups settle each classification burst as one
        // multinomial draw, so here interning is what trips; the guard on
        // pre-dedup leaves is tested on a race no reduction merges
        // (`reachability::tests::successor_budget_stops_an_unreducible_race`).
        let i = inputs(SharingLevel::Twenty, &[]);
        let net = CoherenceNet::build(&i, 8).unwrap();
        let start = std::time::Instant::now();
        let err = net
            .solve(&ReachabilityOptions { max_states: 500, ..ReachabilityOptions::default() })
            .unwrap_err();
        assert!(
            matches!(err, GtpnError::StateSpaceExplosion { limit: 500 }),
            "expected a state-space explosion, got {err:?}"
        );
        assert!(start.elapsed().as_secs() < 30, "explosion must be detected promptly");
    }

    #[test]
    fn unrepresentable_inputs_are_typed_errors() {
        let mut i = inputs(SharingLevel::Five, &[]);
        let err = CoherenceNet::build(&i, 0).unwrap_err();
        assert!(matches!(err, GtpnError::InvalidInput(_)), "{err:?}");
        i.tau = 0.0;
        let err = CoherenceNet::build(&i, 2).unwrap_err();
        assert!(matches!(err, GtpnError::InvalidInput(ref r) if r.contains("tau")), "{err:?}");
    }

    #[test]
    fn processors_past_the_token_bound_are_rejected() {
        let i = inputs(SharingLevel::Five, &[]);
        for n in [5_000, usize::MAX] {
            let err = CoherenceNet::build(&i, n)
                .unwrap()
                .solve(&ReachabilityOptions::default())
                .unwrap_err();
            assert!(matches!(err, GtpnError::UnboundedPlace { .. }), "N = {n}: {err:?}");
        }
    }

    #[test]
    fn bus_queue_tracks_mva_estimate() {
        // Beyond speedup: the GTPN's time-averaged wait-place population
        // should sit near the MVA's queue estimate. The MVA's Q̄ counts
        // requests in the whole bus phase (waiting + in service), so
        // compare against queue + utilization.
        use snoop_mva::{MvaModel, SolverOptions};
        let i = inputs(SharingLevel::Five, &[]);
        let net = CoherenceNet::build(&i, 2).unwrap();
        let g = net.solve(&ReachabilityOptions::default()).unwrap();
        let mva = MvaModel::new(i).solve(2, &SolverOptions::default()).unwrap();
        let gtpn_bus_phase = g.mean_bus_queue + g.bus_utilization;
        // Q̄_bus is the *other*-cache population (N−1 scaling); both are
        // small at N = 2 — agreement within a third of a request.
        assert!(
            (gtpn_bus_phase - 2.0 / 1.0 * mva.q_bus).abs() < 0.35,
            "GTPN bus phase {gtpn_bus_phase} vs MVA 2·Q̄ {}",
            2.0 * mva.q_bus
        );
        assert!(g.mean_bus_queue >= 0.0);
    }

    #[test]
    fn memory_contention_barely_moves_the_needle() {
        // Quantifies DESIGN.md's omission: adding memory-module contention
        // to the net changes the 2-processor speedup by well under 2% for
        // the Appendix-A workloads (the MVA's w_mem is a fraction of a
        // cycle here), at the price of a larger state space.
        let i = inputs(SharingLevel::Twenty, &[]);
        let plain = CoherenceNet::build(&i, 2)
            .unwrap()
            .solve(&ReachabilityOptions::default())
            .unwrap();
        let with_memory =
            CoherenceNet::build_with_options(&i, 2, CoherenceNetOptions { model_memory: true })
                .unwrap()
                .solve(&ReachabilityOptions::default())
                .unwrap();
        let delta = (plain.speedup - with_memory.speedup).abs() / plain.speedup;
        assert!(delta < 0.02, "memory contention changed speedup by {:.2}%", delta * 100.0);
        assert!(with_memory.states >= plain.states);
    }

    #[test]
    fn mod1_outperforms_write_once_in_gtpn_too() {
        let wo = CoherenceNet::build(&inputs(SharingLevel::Five, &[]), 2)
            .unwrap()
            .solve(&ReachabilityOptions::default())
            .unwrap();
        let m1 = CoherenceNet::build(&inputs(SharingLevel::Five, &[1]), 2)
            .unwrap()
            .solve(&ReachabilityOptions::default())
            .unwrap();
        assert!(m1.speedup > wo.speedup, "{} vs {}", m1.speedup, wo.speedup);
    }
}
