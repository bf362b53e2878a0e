//! Reachability analysis: expanding the timed state graph.
//!
//! Discrete-time GTPN semantics, one tick per state transition:
//!
//! 1. **Completions** — deterministic firings whose countdown reaches zero
//!    deposit their output tokens; each memoryless (geometric) firing
//!    completes independently with its probability, branching the
//!    successor distribution.
//! 2. **Zero-time activity** — enabled immediate transitions fire (highest
//!    priority class first, conflicts resolved probabilistically by
//!    weight), then enabled timed transitions *start* (consuming their
//!    input tokens), also racing by weight — this reproduces the
//!    random-order bus service of the \[VeHo86\] models. The activity repeats
//!    until the state is quiescent ("settled").
//!
//! Every state in the graph is settled, so each edge represents exactly one
//! time unit and the embedded Markov chain's stationary distribution *is*
//! the time-average distribution.
//!
//! Two exact reductions keep the enumeration from visiting orderings that
//! cannot change the successor distribution:
//!
//! * **Commuting starts.** A timed start only consumes tokens, so it can
//!   neither enable nor reweight another candidate. A start candidate
//!   whose input places no other candidate shares (token weights are read
//!   from input places, so this covers them too) fires in every ordering
//!   of the race and leaves the others' relative odds untouched; it is
//!   fired with probability 1 instead of branching.
//! * **Binomial completions.** `k` concurrent memoryless firings of one
//!   transition are exchangeable, so the step branches over how many
//!   complete, `j = 0..=k` with probability `C(k,j)·p^j·(1−p)^(k−j)`,
//!   instead of over the `2^k` subsets that merge into those `k + 1`
//!   successors anyway.

use std::cell::RefCell;

use snoop_numeric::exec::{par_map, ExecOptions};

use crate::arena::StateArena;
use crate::marking::{ActiveFiring, Remaining, TimedState};
use crate::net::{Firing, Net};
use crate::GtpnError;

/// Budgets for the expansion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReachabilityOptions {
    /// Maximum number of distinct states before giving up.
    pub max_states: usize,
    /// Maximum tokens allowed in any single place (unboundedness guard).
    pub token_bound: u32,
    /// Probability below which a branch is discarded (and the remaining
    /// mass renormalized).
    pub probability_floor: f64,
    /// Maximum zero-time firings along one settling path (immediate-cycle
    /// livelock guard).
    pub max_zero_time_firings: usize,
    /// Worker threads for the frontier expansion (`0` = auto via
    /// [`ExecOptions`], `1` = serial). The expanded graph is bit-identical
    /// for every thread count; see [`explore`].
    pub threads: usize,
}

impl Default for ReachabilityOptions {
    fn default() -> Self {
        ReachabilityOptions {
            max_states: 200_000,
            token_bound: 4096,
            probability_floor: 1e-12,
            max_zero_time_firings: 10_000,
            threads: 1,
        }
    }
}

/// The expanded state graph with edge probabilities and per-state expected
/// firing counts.
#[derive(Debug, Clone, PartialEq)]
pub struct StateGraph {
    /// All settled states.
    pub states: Vec<TimedState>,
    /// `edges[s]` = successor distribution of state `s` (probabilities sum
    /// to 1).
    pub edges: Vec<Vec<(usize, f64)>>,
    /// `firing_rates[s][t]` = expected number of firings of transition `t`
    /// during one tick taken from state `s` (completions for timed
    /// transitions, fires for immediate ones).
    pub firing_rates: Vec<Vec<f64>>,
    /// Index of the initial settled state... states reached by settling the
    /// initial marking, with their probabilities.
    pub initial: Vec<(usize, f64)>,
}

impl StateGraph {
    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the graph is empty (never true for a successful expansion).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// Frontier size below which a wave is stepped inline: spawning workers
/// for a handful of states costs more than the steps themselves.
const PARALLEL_WAVE_MIN: usize = 16;

/// Expands the reachable timed state graph of `net`.
///
/// The expansion is breadth-first in *waves*: every state of the current
/// frontier is stepped (a pure function of the net), then the successors
/// are interned sequentially in frontier order. Because interning order is
/// exactly the serial visit order, the resulting graph — state IDs, edges,
/// firing rates, and any budget error — is bit-identical for every value
/// of [`ReachabilityOptions::threads`]; only wall-clock time changes.
///
/// # Errors
///
/// Returns [`GtpnError::StateSpaceExplosion`], [`GtpnError::UnboundedPlace`]
/// or [`GtpnError::ImmediateLivelock`] when a budget is violated.
pub fn explore(net: &Net, options: &ReachabilityOptions) -> Result<StateGraph, GtpnError> {
    // Observational only: the probe registry is write-only from here, so
    // metrics collection cannot change visit order or state IDs.
    let _probe_span = snoop_numeric::probe::span("gtpn_reachability");
    if let Some(place) = net.initial_marking().iter().position(|&t| t > options.token_bound) {
        return Err(GtpnError::UnboundedPlace { place });
    }
    let mut explorer = Explorer::new(net, options);

    // Settle the initial marking (zero-time activity only; firing counts
    // during the transient settle are not attributed to any state).
    let mut initial_counts = vec![0.0; net.transitions().len()];
    let mut settled = Vec::new();
    let mut settle_work = Vec::new();
    explorer.settle(
        net.initial_marking(),
        Vec::new(),
        1.0,
        0,
        &mut initial_counts,
        &mut settled,
        &mut settle_work,
    )?;
    let initial: Vec<(usize, f64)> = {
        let mut acc: Vec<(usize, f64)> = Vec::new();
        for (state, prob) in settled {
            let id = explorer.intern(&state)?;
            match acc.iter_mut().find(|(s, _)| *s == id) {
                Some((_, p)) => *p += prob,
                None => acc.push((id, prob)),
            }
        }
        acc
    };

    // Breadth-first wave expansion: step the whole frontier (in parallel
    // when it is wide enough), then intern successors in frontier order.
    // `step` reads only the net, the options and the stepped state's
    // arena slices, never the intern index, so the intern call sequence —
    // and with it every state ID — matches the one-state-at-a-time serial
    // expansion exactly.
    let exec = ExecOptions::with_threads(options.threads);
    let mut edges: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut firing_rates: Vec<Vec<f64>> = Vec::new();
    let mut next_unexpanded = 0usize;
    while next_unexpanded < explorer.arena.len() {
        let wave_end = explorer.arena.len();
        let wave: Vec<usize> = (next_unexpanded..wave_end).collect();
        snoop_numeric::probe::counter_add("gtpn.reachability_waves", 1);
        snoop_numeric::probe::record("gtpn.wave_size", wave.len() as f64);
        let outcomes: Vec<Result<StepOutcome, GtpnError>> =
            if wave.len() >= PARALLEL_WAVE_MIN && exec.resolved_threads() > 1 {
                par_map(&wave, &exec, |&id| {
                    explorer.step(explorer.arena.marking(id), explorer.arena.active(id))
                })
            } else {
                wave.iter()
                    .map(|&id| {
                        explorer.step(explorer.arena.marking(id), explorer.arena.active(id))
                    })
                    .collect()
            };
        for outcome in outcomes {
            let (dist, counts) = outcome?;
            let mut row: Vec<(usize, f64)> = Vec::new();
            for (s, p) in dist {
                let id = explorer.intern(&s)?;
                match row.iter_mut().find(|(t, _)| *t == id) {
                    Some((_, q)) => *q += p,
                    None => row.push((id, p)),
                }
            }
            // Renormalize (the probability floor may have trimmed mass).
            let total: f64 = row.iter().map(|(_, p)| p).sum();
            if total > 0.0 {
                for (_, p) in &mut row {
                    *p /= total;
                }
            }
            edges.push(row);
            firing_rates.push(counts);
        }
        next_unexpanded = wave_end;
    }

    snoop_numeric::probe::counter_add("gtpn.states", explorer.arena.len() as u64);
    Ok(StateGraph { states: explorer.arena.into_states(), edges, firing_rates, initial })
}

/// Successor distribution and expected per-transition firing counts of
/// one tick.
type StepOutcome = (Vec<(TimedState, f64)>, Vec<f64>);

/// A queued zero-time settling branch: marking, active firings, branch
/// probability, zero-time firings so far.
type SettleItem = (Vec<u32>, Vec<ActiveFiring>, f64, usize);

/// Per-thread scratch for [`Explorer::step`]: the classification lists
/// and the geometric-branch partitions are reused across every state a
/// worker steps (pool threads are persistent, so these warm up once per
/// process), replacing the per-successor `Vec` clones the recursion used
/// to make.
#[derive(Default)]
struct StepScratch {
    advanced: Vec<ActiveFiring>,
    det_completions: Vec<usize>,
    /// Memoryless firings as `(transition, concurrent count)` runs.
    geometrics: Vec<(usize, u32)>,
    completed_geo: Vec<usize>,
    surviving_geo: Vec<usize>,
    settle_work: Vec<SettleItem>,
}

/// `n × n` matrix over the transitions, true where two transitions share
/// an input place. A start whose row is false against every other
/// enabled candidate commutes with the whole race.
fn shared_inputs(net: &Net) -> Vec<bool> {
    let ts = net.transitions();
    let mut shares = vec![false; ts.len() * ts.len()];
    for (i, a) in ts.iter().enumerate() {
        for (j, b) in ts.iter().enumerate() {
            shares[i * ts.len() + j] =
                a.inputs.iter().any(|&(p, _)| b.inputs.iter().any(|&(q, _)| p == q));
        }
    }
    shares
}

/// `C(k, j)·p^j·(1−p)^(k−j)`: the probability that exactly `j` of `k`
/// concurrent memoryless firings with completion probability `p`
/// complete in one tick.
fn binomial(k: u32, j: u32, p: f64) -> f64 {
    let choose = (0..j).fold(1.0, |c, i| c * f64::from(k - i) / f64::from(i + 1));
    // `powi` is exact for the trivial exponents, so `p = 1` gives 1 for
    // `j = k` and 0 otherwise.
    choose * p.powi(j as i32) * (1.0 - p).powi((k - j) as i32)
}

thread_local! {
    static STEP_SCRATCH: RefCell<StepScratch> = RefCell::new(StepScratch::default());
}

struct Explorer<'a> {
    net: &'a Net,
    options: &'a ReachabilityOptions,
    /// [`shared_inputs`] of the net.
    shares_input: Vec<bool>,
    arena: StateArena,
}

impl<'a> Explorer<'a> {
    fn new(net: &'a Net, options: &'a ReachabilityOptions) -> Self {
        Explorer {
            net,
            options,
            shares_input: shared_inputs(net),
            arena: StateArena::new(net.initial_marking().len()),
        }
    }

    /// Most leaves one state's successor distribution may hold before the
    /// expansion is declared an explosion. Pre-dedup leaves are allowed a
    /// generous multiple of `max_states` because weight races reach the
    /// same settled state along many orderings.
    fn successor_budget(&self) -> usize {
        self.options.max_states.saturating_mul(8)
    }

    fn intern(&mut self, state: &TimedState) -> Result<usize, GtpnError> {
        let (hash, found) = self.arena.lookup(state);
        if let Some(id) = found {
            return Ok(id);
        }
        if self.arena.len() >= self.options.max_states {
            return Err(GtpnError::StateSpaceExplosion { limit: self.options.max_states });
        }
        Ok(self.arena.insert(hash, state))
    }

    /// One tick from a settled state (given as its marking and active
    /// slices): returns the successor distribution and the expected
    /// firing counts.
    fn step(&self, marking: &[u32], active: &[ActiveFiring]) -> Result<StepOutcome, GtpnError> {
        let mut counts = vec![0.0; self.net.transitions().len()];
        let mut out = Vec::new();

        STEP_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.advanced.clear();
            scratch.det_completions.clear();
            scratch.geometrics.clear();
            scratch.completed_geo.clear();
            scratch.surviving_geo.clear();

            // Split active firings into deterministic (advance their
            // clocks) and geometric (branch over completion counts). The
            // active list is sorted, so concurrent memoryless firings of
            // one transition are adjacent and collapse into one run.
            for f in active {
                match f.remaining {
                    Remaining::Ticks(1) => scratch.det_completions.push(f.transition),
                    Remaining::Ticks(k) => scratch.advanced.push(ActiveFiring {
                        transition: f.transition,
                        remaining: Remaining::Ticks(k - 1),
                    }),
                    Remaining::Memoryless => match scratch.geometrics.last_mut() {
                        Some((t, k)) if *t == f.transition => *k += 1,
                        _ => scratch.geometrics.push((f.transition, 1)),
                    },
                }
            }

            self.branch_geometrics(
                marking,
                &scratch.advanced,
                &scratch.det_completions,
                &scratch.geometrics,
                0,
                &mut scratch.completed_geo,
                &mut scratch.surviving_geo,
                1.0,
                &mut counts,
                &mut out,
                &mut scratch.settle_work,
            )
        })?;
        Ok((out, counts))
    }

    /// Recursively branches over how many of each run of concurrent
    /// memoryless firings complete this tick, then applies completions
    /// and settles. `completed_geo` and `surviving_geo` partition the
    /// firings of the first `i` runs of `geometrics` (one entry per
    /// firing, so concurrent completions are each counted); both are
    /// push/truncate backtracking buffers — each recursion level appends
    /// its choice before descending and removes it after, so no
    /// per-branch clones are made.
    #[allow(clippy::too_many_arguments)]
    fn branch_geometrics(
        &self,
        marking: &[u32],
        advanced: &[ActiveFiring],
        det_completions: &[usize],
        geometrics: &[(usize, u32)],
        i: usize,
        completed_geo: &mut Vec<usize>,
        surviving_geo: &mut Vec<usize>,
        prob: f64,
        counts: &mut [f64],
        out: &mut Vec<(TimedState, f64)>,
        settle_work: &mut Vec<SettleItem>,
    ) -> Result<(), GtpnError> {
        if prob < self.options.probability_floor {
            return Ok(());
        }
        if let Some(&(t, k)) = geometrics.get(i) {
            let p = match self.net.transitions()[t].firing {
                Firing::Geometric(p) => p,
                _ => unreachable!("memoryless firing of non-geometric transition"),
            };
            // Most completions first, as the subset recursion visited them.
            for j in (0..=k).rev() {
                let weight = binomial(k, j, p);
                if weight == 0.0 {
                    continue;
                }
                let (done, kept) = (completed_geo.len(), surviving_geo.len());
                completed_geo.extend(std::iter::repeat_n(t, j as usize));
                surviving_geo.extend(std::iter::repeat_n(t, (k - j) as usize));
                self.branch_geometrics(
                    marking,
                    advanced,
                    det_completions,
                    geometrics,
                    i + 1,
                    completed_geo,
                    surviving_geo,
                    prob * weight,
                    counts,
                    out,
                    settle_work,
                )?;
                completed_geo.truncate(done);
                surviving_geo.truncate(kept);
            }
            return Ok(());
        }

        // All geometric outcomes decided: build the post-tick marking.
        let mut marking = marking.to_vec();
        let mut active = Vec::with_capacity(advanced.len() + surviving_geo.len());
        active.extend_from_slice(advanced);
        for &t in surviving_geo.iter() {
            active.push(ActiveFiring { transition: t, remaining: Remaining::Memoryless });
        }
        for &t in det_completions.iter().chain(completed_geo.iter()) {
            counts[t] += prob;
            for &(p, k) in &self.net.transitions()[t].outputs {
                marking[p.index()] = marking[p.index()].saturating_add(k);
                if marking[p.index()] > self.options.token_bound {
                    return Err(GtpnError::UnboundedPlace { place: p.index() });
                }
            }
        }

        self.settle(marking, active, prob, 0, counts, out, settle_work)
    }

    /// Zero-time activity: immediate firings (priority then weight race),
    /// then timed starts (commuting starts fired outright, the rest in a
    /// weight race), until quiescent. Iterative with an explicit worklist
    /// — livelocked nets would otherwise recurse until the stack overflows
    /// before the firing budget triggers. The worklist itself (`work`) is
    /// caller-provided scratch so its allocation is reused across every
    /// leaf of a step; it is always drained (or abandoned on error) before
    /// returning.
    #[allow(clippy::too_many_arguments)]
    fn settle(
        &self,
        marking: Vec<u32>,
        active: Vec<ActiveFiring>,
        prob: f64,
        zero_time_firings: usize,
        counts: &mut [f64],
        out: &mut Vec<(TimedState, f64)>,
        work: &mut Vec<SettleItem>,
    ) -> Result<(), GtpnError> {
        work.clear();
        work.push((marking, active, prob, zero_time_firings));
        let mut candidates: Vec<usize> = Vec::new();

        while let Some((mut marking, mut active, prob, mut fired)) = work.pop() {
            if prob < self.options.probability_floor {
                continue;
            }
            if fired > self.options.max_zero_time_firings {
                return Err(GtpnError::ImmediateLivelock);
            }

            // Highest-priority enabled immediate class.
            let mut best_priority = None;
            for t in self.net.transitions() {
                if matches!(t.firing, Firing::Immediate) && t.enabled(&marking) {
                    best_priority =
                        Some(best_priority.map_or(t.priority, |b: u32| b.max(t.priority)));
                }
            }
            candidates.clear();
            if let Some(prio) = best_priority {
                candidates.extend(
                    self.net
                        .transitions()
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| {
                            matches!(t.firing, Firing::Immediate)
                                && t.priority == prio
                                && t.enabled(&marking)
                        })
                        .map(|(i, _)| i),
                );
            } else {
                // No immediates: race the enabled timed transitions to start.
                candidates.extend(
                    self.net
                        .transitions()
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| {
                            !matches!(t.firing, Firing::Immediate) && t.enabled(&marking)
                        })
                        .map(|(i, _)| i),
                );
                // Commuting starts fire until disabled, with probability 1;
                // only the candidates that share an input place still race.
                let n = self.net.transitions().len();
                for &c in &candidates {
                    let row = &self.shares_input[c * n..(c + 1) * n];
                    if candidates.iter().all(|&u| u == c || !row[u]) {
                        while self.net.transitions()[c].enabled(&marking) {
                            self.fire_candidate(c, prob, &mut marking, &mut active, counts)?;
                            fired += 1;
                        }
                    }
                }
                candidates.retain(|&c| self.net.transitions()[c].enabled(&marking));
            }

            if candidates.is_empty() {
                // Guard the successor accumulator itself: the race
                // enumeration below is factorial in the number of enabled
                // transitions, so a large system can build a distribution
                // of billions of (mostly duplicate) leaves — exhausting
                // memory long before `intern` ever sees a state and checks
                // `max_states`. A distribution wider than the entire
                // permitted state space cannot contain new information
                // (post-dedup it collapses to at most `max_states`
                // states), so it is reported as the same explosion.
                if out.len() >= self.successor_budget() {
                    return Err(GtpnError::StateSpaceExplosion {
                        limit: self.options.max_states,
                    });
                }
                out.push((TimedState::new(marking, active), prob));
                continue;
            }

            // Weights are read from the pre-fire marking.
            let weight = |ti: usize| self.net.transitions()[ti].race_weight(&marking);
            let total_weight: f64 = candidates.iter().map(|&i| weight(i)).sum();
            // All but the last branch clone the pre-fire marking/active;
            // the last one takes them by move (push order — and therefore
            // the settle visit order — is unchanged).
            let (&last, rest) = candidates.split_last().expect("candidates is non-empty");
            for &ti in rest {
                let branch_prob = prob * weight(ti) / total_weight;
                let mut m = marking.clone();
                let mut a = active.clone();
                self.fire_candidate(ti, branch_prob, &mut m, &mut a, counts)?;
                work.push((m, a, branch_prob, fired + 1));
            }
            let branch_prob = prob * weight(last) / total_weight;
            let mut m = marking;
            let mut a = active;
            self.fire_candidate(last, branch_prob, &mut m, &mut a, counts)?;
            work.push((m, a, branch_prob, fired + 1));
        }
        Ok(())
    }

    /// Applies one zero-time candidate firing: consumes its input tokens,
    /// then either deposits outputs (immediate) or starts the timer /
    /// memoryless firing (timed).
    fn fire_candidate(
        &self,
        ti: usize,
        branch_prob: f64,
        marking: &mut [u32],
        active: &mut Vec<ActiveFiring>,
        counts: &mut [f64],
    ) -> Result<(), GtpnError> {
        let t = &self.net.transitions()[ti];
        for &(p, k) in &t.inputs {
            marking[p.index()] -= k;
        }
        match t.firing {
            Firing::Immediate => {
                counts[ti] += branch_prob;
                for &(p, k) in &t.outputs {
                    marking[p.index()] = marking[p.index()].saturating_add(k);
                    if marking[p.index()] > self.options.token_bound {
                        return Err(GtpnError::UnboundedPlace { place: p.index() });
                    }
                }
            }
            Firing::Deterministic(d) => {
                active.push(ActiveFiring { transition: ti, remaining: Remaining::Ticks(d) });
            }
            Firing::Geometric(_) => {
                active.push(ActiveFiring { transition: ti, remaining: Remaining::Memoryless });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::net::{Firing, NetBuilder};

    #[test]
    fn deterministic_cycle_has_period_states() {
        let mut b = NetBuilder::new();
        let w = b.place("working", 1);
        let r = b.place("resting", 0);
        b.timed("finish", Firing::Deterministic(2), &[(w, 1)], &[(r, 1)]);
        b.timed("restart", Firing::Deterministic(1), &[(r, 1)], &[(w, 1)]);
        let net = b.build().unwrap();
        let g = explore(&net, &ReachabilityOptions::default()).unwrap();
        assert_eq!(g.len(), 3);
        // Every edge distribution is a single successor with probability 1.
        for row in &g.edges {
            assert_eq!(row.len(), 1);
            assert!((row[0].1 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn geometric_branches_two_ways() {
        let mut b = NetBuilder::new();
        let a = b.place("a", 1);
        let z = b.place("z", 0);
        b.timed("go", Firing::Geometric(0.25), &[(a, 1)], &[(z, 1)]);
        let net = b.build().unwrap();
        let g = explore(&net, &ReachabilityOptions::default()).unwrap();
        // States: firing-in-progress, and absorbed (token in z, quiescent).
        assert_eq!(g.len(), 2);
        let firing_state = &g.states[g.initial[0].0];
        assert_eq!(firing_state.active.len(), 1);
        let row = &g.edges[g.initial[0].0];
        assert_eq!(row.len(), 2);
        let p_complete: f64 =
            row.iter().find(|(s, _)| g.states[*s].marking[1] == 1).map(|(_, p)| *p).unwrap();
        assert!((p_complete - 0.25).abs() < 1e-12);
    }

    #[test]
    fn immediate_race_splits_by_weight() {
        let mut b = NetBuilder::new();
        let src = b.place("src", 1);
        let left = b.place("left", 0);
        let right = b.place("right", 0);
        b.immediate_weighted("go-left", 1.0, 0, &[(src, 1)], &[(left, 1)]);
        b.immediate_weighted("go-right", 3.0, 0, &[(src, 1)], &[(right, 1)]);
        // Tick timers so the settled states are distinguishable and live.
        b.timed("l", Firing::Deterministic(1), &[(left, 1)], &[(src, 1)]);
        b.timed("r", Firing::Deterministic(1), &[(right, 1)], &[(src, 1)]);
        let net = b.build().unwrap();
        let g = explore(&net, &ReachabilityOptions::default()).unwrap();
        // Initial settle: src → (left | right) → timer starts: two states.
        assert_eq!(g.initial.len(), 2);
        let probs: Vec<f64> = g.initial.iter().map(|&(_, p)| p).collect();
        let min = probs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = probs.iter().cloned().fold(0.0, f64::max);
        assert!((min - 0.25).abs() < 1e-12);
        assert!((max - 0.75).abs() < 1e-12);
    }

    #[test]
    fn priority_beats_weight() {
        let mut b = NetBuilder::new();
        let src = b.place("src", 1);
        let hi = b.place("hi", 0);
        let lo = b.place("lo", 0);
        b.immediate_weighted("high", 0.001, 5, &[(src, 1)], &[(hi, 1)]);
        b.immediate_weighted("low", 1000.0, 0, &[(src, 1)], &[(lo, 1)]);
        b.timed("recycle", Firing::Deterministic(1), &[(hi, 1)], &[(src, 1)]);
        b.timed("recycle2", Firing::Deterministic(1), &[(lo, 1)], &[(src, 1)]);
        let net = b.build().unwrap();
        let g = explore(&net, &ReachabilityOptions::default()).unwrap();
        // Only the high-priority branch is ever taken.
        assert_eq!(g.initial.len(), 1);
        for s in &g.states {
            assert_eq!(s.marking[2], 0, "low-priority output reached: {s:?}");
        }
    }

    #[test]
    fn dead_state_self_loops() {
        let mut b = NetBuilder::new();
        let a = b.place("a", 1);
        let z = b.place("z", 0);
        b.timed("end", Firing::Deterministic(1), &[(a, 1)], &[(z, 1)]);
        let net = b.build().unwrap();
        let g = explore(&net, &ReachabilityOptions::default()).unwrap();
        // The absorbed state (token in z) has itself as its only successor.
        let dead = g
            .states
            .iter()
            .position(|s| s.marking[1] == 1 && s.active.is_empty())
            .expect("absorbed state exists");
        assert_eq!(g.edges[dead], vec![(dead, 1.0)]);
    }

    #[test]
    fn immediate_livelock_is_detected() {
        let mut b = NetBuilder::new();
        let a = b.place("a", 1);
        let c = b.place("b", 0);
        b.immediate("ping", &[(a, 1)], &[(c, 1)]);
        b.immediate("pong", &[(c, 1)], &[(a, 1)]);
        let net = b.build().unwrap();
        let err = explore(&net, &ReachabilityOptions::default()).unwrap_err();
        assert_eq!(err, GtpnError::ImmediateLivelock);
    }

    #[test]
    fn state_budget_is_enforced() {
        // A counter that keeps growing a place: unbounded, but the token
        // bound triggers first unless states explode; use a tiny budget.
        let mut b = NetBuilder::new();
        let clock = b.place("clock", 1);
        let acc = b.place("acc", 0);
        b.timed("tick", Firing::Deterministic(1), &[(clock, 1)], &[(clock, 1), (acc, 1)]);
        let net = b.build().unwrap();
        let err = explore(
            &net,
            &ReachabilityOptions { max_states: 10, ..ReachabilityOptions::default() },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            GtpnError::StateSpaceExplosion { limit: 10 } | GtpnError::UnboundedPlace { .. }
        ));
    }

    #[test]
    fn token_bound_detects_unbounded_place() {
        let mut b = NetBuilder::new();
        let clock = b.place("clock", 1);
        let acc = b.place("acc", 0);
        b.timed("tick", Firing::Deterministic(1), &[(clock, 1)], &[(clock, 1), (acc, 1)]);
        let net = b.build().unwrap();
        let err = explore(
            &net,
            &ReachabilityOptions { token_bound: 50, ..ReachabilityOptions::default() },
        )
        .unwrap_err();
        assert_eq!(err, GtpnError::UnboundedPlace { place: 1 });
    }

    #[test]
    fn token_bound_applies_to_the_initial_marking() {
        let mut b = NetBuilder::new();
        let crowd = b.place("crowd", 51);
        b.timed("leave", Firing::Deterministic(1), &[(crowd, 1)], &[]);
        let net = b.build().unwrap();
        let options = ReachabilityOptions { token_bound: 50, ..ReachabilityOptions::default() };
        assert_eq!(explore(&net, &options).unwrap_err(), GtpnError::UnboundedPlace { place: 0 });
    }

    #[test]
    fn edge_probabilities_sum_to_one() {
        let mut b = NetBuilder::new();
        let a = b.place("a", 2);
        let z = b.place("z", 0);
        b.timed("go", Firing::Geometric(0.3), &[(a, 1)], &[(z, 1)]);
        b.timed("back", Firing::Geometric(0.6), &[(z, 1)], &[(a, 1)]);
        let net = b.build().unwrap();
        let g = explore(&net, &ReachabilityOptions::default()).unwrap();
        for (i, row) in g.edges.iter().enumerate() {
            let sum: f64 = row.iter().map(|(_, p)| p).sum();
            assert!((sum - 1.0).abs() < 1e-9, "state {i}: {sum}");
        }
    }

    #[test]
    fn independent_starts_settle_to_one_leaf() {
        // Six starts that share no input place: every one of the 6!
        // orderings reaches the same state, so settling takes one path.
        let mut b = NetBuilder::new();
        for i in 0..6 {
            let p = b.place(&format!("p{i}"), 1);
            b.timed(&format!("t{i}"), Firing::Deterministic(i + 1), &[(p, 1)], &[(p, 1)]);
        }
        let net = b.build().unwrap();
        let options = ReachabilityOptions::default();
        let mut counts = vec![0.0; 6];
        let mut out = Vec::new();
        Explorer::new(&net, &options)
            .settle(
                net.initial_marking(),
                Vec::new(),
                1.0,
                0,
                &mut counts,
                &mut out,
                &mut Vec::new(),
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0.active.len(), 6);
        assert_eq!(out[0].1, 1.0);
    }

    #[test]
    fn concurrent_geometric_firings_branch_binomially() {
        let p = 0.3;
        let mut b = NetBuilder::new();
        let a = b.place("a", 0);
        let z = b.place("z", 0);
        let go = b.timed("go", Firing::Geometric(p), &[(a, 1)], &[(z, 1)]);
        let net = b.build().unwrap();
        let options = ReachabilityOptions::default();
        let active =
            vec![ActiveFiring { transition: go.index(), remaining: Remaining::Memoryless }; 5];
        let (out, counts) = Explorer::new(&net, &options).step(&[0, 0], &active).unwrap();
        // One leaf per completion count, not one per subset of firings.
        assert_eq!(out.len(), 6);
        let mut choose = 1.0;
        for j in 0..=5u32 {
            let (state, prob) =
                out.iter().find(|(s, _)| s.marking[1] == j).expect("a leaf per count");
            assert_eq!(state.active.len(), 5 - j as usize);
            let expected = choose * p.powi(j as i32) * (1.0 - p).powi(5 - j as i32);
            assert!((prob - expected).abs() < 1e-15, "j = {j}: {prob} vs {expected}");
            choose = choose * f64::from(5 - j) / f64::from(j + 1);
        }
        assert!((counts[go.index()] - 5.0 * p).abs() < 1e-15);
    }

    #[test]
    fn token_weighted_race_splits_by_queue_length() {
        // One queued token against two: the classes win the bus 1:2.
        let mut b = NetBuilder::new();
        let bus = b.place("bus-free", 1);
        let one = b.place("one", 1);
        let two = b.place("two", 2);
        let serve_one = b.timed("serve-one", Firing::Deterministic(1), &[(one, 1), (bus, 1)], &[]);
        let serve_two = b.timed("serve-two", Firing::Deterministic(1), &[(two, 1), (bus, 1)], &[]);
        b.weight_by_tokens(serve_one, one);
        b.weight_by_tokens(serve_two, two);
        let net = b.build().unwrap();
        let g = explore(&net, &ReachabilityOptions::default()).unwrap();
        assert_eq!(g.initial.len(), 2);
        for &(s, prob) in &g.initial {
            let winner = g.states[s].active[0].transition;
            let expected = if winner == serve_one.index() { 1.0 / 3.0 } else { 2.0 / 3.0 };
            assert!((prob - expected).abs() < 1e-15, "{prob} vs {expected}");
        }
    }

    /// The successor distribution by brute force, with no reduction: every
    /// subset of memoryless completions and every ordering of every race.
    fn reference_successors(net: &Net, state: &TimedState) -> HashMap<TimedState, f64> {
        fn settle(
            net: &Net,
            m: Vec<u32>,
            a: Vec<ActiveFiring>,
            prob: f64,
            out: &mut HashMap<TimedState, f64>,
        ) {
            let enabled = |imm: bool| -> Vec<usize> {
                (0..net.transitions().len())
                    .filter(|&i| {
                        let t = &net.transitions()[i];
                        matches!(t.firing, Firing::Immediate) == imm && t.enabled(&m)
                    })
                    .collect()
            };
            let mut candidates = enabled(true);
            if let Some(top) = candidates.iter().map(|&i| net.transitions()[i].priority).max() {
                candidates.retain(|&i| net.transitions()[i].priority == top);
            } else {
                candidates = enabled(false);
            }
            if candidates.is_empty() {
                *out.entry(TimedState::new(m, a)).or_default() += prob;
                return;
            }
            let total: f64 = candidates.iter().map(|&i| net.transitions()[i].weight).sum();
            for &i in &candidates {
                let t = &net.transitions()[i];
                let (mut m, mut a) = (m.clone(), a.clone());
                for &(p, k) in &t.inputs {
                    m[p.index()] -= k;
                }
                match t.firing {
                    Firing::Immediate => {
                        for &(p, k) in &t.outputs {
                            m[p.index()] += k;
                        }
                    }
                    Firing::Deterministic(d) => {
                        a.push(ActiveFiring { transition: i, remaining: Remaining::Ticks(d) })
                    }
                    Firing::Geometric(_) => {
                        a.push(ActiveFiring { transition: i, remaining: Remaining::Memoryless })
                    }
                }
                settle(net, m, a, prob * t.weight / total, out);
            }
        }
        let mut out = HashMap::new();
        let geometrics: Vec<usize> = state
            .active
            .iter()
            .filter(|f| f.remaining == Remaining::Memoryless)
            .map(|f| f.transition)
            .collect();
        for subset in 0u32..1 << geometrics.len() {
            let mut m = state.marking.clone();
            let mut a = Vec::new();
            let mut prob = 1.0;
            let complete = |t: usize, m: &mut [u32]| {
                for &(p, k) in &net.transitions()[t].outputs {
                    m[p.index()] += k;
                }
            };
            for f in &state.active {
                if let Remaining::Ticks(k) = f.remaining {
                    if k == 1 {
                        complete(f.transition, &mut m);
                    } else {
                        a.push(ActiveFiring {
                            transition: f.transition,
                            remaining: Remaining::Ticks(k - 1),
                        });
                    }
                }
            }
            for (bit, &t) in geometrics.iter().enumerate() {
                let Firing::Geometric(p) = net.transitions()[t].firing else { unreachable!() };
                if subset & (1 << bit) != 0 {
                    prob *= p;
                    complete(t, &mut m);
                } else {
                    prob *= 1.0 - p;
                    a.push(ActiveFiring { transition: t, remaining: Remaining::Memoryless });
                }
            }
            if prob > 0.0 {
                settle(net, m, a, prob, &mut out);
            }
        }
        out
    }

    #[test]
    fn reductions_leave_unweighted_graphs_unchanged() {
        use crate::models::classic::MachineRepairman;
        let mut nets: Vec<Net> =
            (1..=3).map(|n| MachineRepairman::build(n, 0.4, 3).unwrap().net).collect();
        // Concurrent geometric firings of one transition, racing starts.
        let mut b = NetBuilder::new();
        let a = b.place("a", 3);
        let z = b.place("z", 0);
        let bus = b.place("bus", 1);
        b.timed("go", Firing::Geometric(0.3), &[(a, 1)], &[(z, 1)]);
        b.timed_weighted(
            "fast",
            2.0,
            Firing::Deterministic(1),
            &[(z, 1), (bus, 1)],
            &[(a, 1), (bus, 1)],
        );
        b.timed("slow", Firing::Deterministic(3), &[(z, 1), (bus, 1)], &[(a, 1), (bus, 1)]);
        nets.push(b.build().unwrap());
        for net in &nets {
            let g = explore(net, &ReachabilityOptions::default()).unwrap();
            for (s, row) in g.edges.iter().enumerate() {
                let expected = reference_successors(net, &g.states[s]);
                assert_eq!(row.len(), expected.len(), "state {s}: successor count");
                for &(t, p) in row {
                    let q = expected[&g.states[t]];
                    assert!((p - q).abs() < 1e-15, "state {s} → {t}: {p} vs {q}");
                }
            }
        }
    }
}
