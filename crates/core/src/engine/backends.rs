//! The [`Evaluator`] trait and its four implementations: plain MVA,
//! resilient MVA, discrete-event simulation and GTPN.
//!
//! Every backend answers the same [`Scenario`] with the same
//! [`Evaluation`] currency, so callers compare models by swapping a
//! backend rather than rewriting glue. Each impl is a thin adapter over
//! the corresponding solver crate — the blessed conversions on
//! [`Scenario`] are the only construction paths used.

use std::time::Instant;

use snoop_gtpn::reachability::ReachabilityOptions;
use snoop_numeric::exec::ExecOptions;
use snoop_numeric::probe::trace;
use snoop_sim::runner::replicate_exec;

use super::evaluation::{BackendId, EvalError, Evaluation, Provenance};
use super::scenario::Scenario;
use crate::resilient::ResilientOptions;
use crate::solver::MvaModel;
use crate::MvaError;

/// Opens the standard per-solve timeline span: named after the backend,
/// tagged with the scenario's content hash, family hash and system size.
fn solve_trace(backend: BackendId, scenario: &Scenario) -> trace::TraceSpan {
    let name = match backend {
        BackendId::Mva => "solve.mva",
        BackendId::ResilientMva => "solve.mva-resilient",
        BackendId::Sim => "solve.sim",
        BackendId::Gtpn => "solve.gtpn",
    };
    trace::span_with(name, || {
        vec![
            ("scenario", format!("{:016x}", scenario.content_hash())),
            ("family", format!("{:016x}", scenario.family_hash())),
            ("backend", backend.to_string()),
            ("n", scenario.n.to_string()),
        ]
    })
}

/// A model backend that can evaluate scenarios.
///
/// Implementations must be pure in the deterministic sense: the same
/// scenario always produces the same [`Evaluation`] (up to the
/// non-semantic `wall_ms`/`cached` provenance fields), no matter whether
/// it is evaluated alone, inside a batch, or on how many threads.
pub trait Evaluator: Send + Sync {
    /// The backend's identity (used in cache keys and provenance).
    fn id(&self) -> BackendId;

    /// Evaluates one scenario.
    ///
    /// # Errors
    ///
    /// [`EvalError::InvalidScenario`] for malformed inputs,
    /// [`EvalError::Unsupported`] when the backend declines the scenario,
    /// [`EvalError::Failed`] when the underlying solver fails.
    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, EvalError>;

    /// Scenarios with equal keys may be evaluated together by
    /// [`Evaluator::evaluate_group`] (e.g. one model build shared across
    /// a sweep over `N`). `None` (the default) means "no grouping".
    fn group_key(&self, _scenario: &Scenario) -> Option<u64> {
        None
    }

    /// Evaluates a group of scenarios that share a
    /// [`Evaluator::group_key`], returning one result per scenario in
    /// order. The default simply maps [`Evaluator::evaluate`]; overrides
    /// must stay result-identical to that (shared work is allowed, shared
    /// *state that changes answers* is not — the resilient backend's
    /// warm-start chains are the documented, opt-in exception).
    fn evaluate_group(&self, scenarios: &[&Scenario]) -> Vec<Result<Evaluation, EvalError>> {
        scenarios.iter().map(|s| self.evaluate(s)).collect()
    }
}

/// Converts an MVA solution into the common currency.
fn mva_evaluation(
    backend: BackendId,
    s: &crate::outputs::MvaSolution,
    iterations: usize,
    strategy: Option<String>,
    wall_ms: f64,
) -> Evaluation {
    Evaluation {
        backend,
        n: s.n,
        r: s.r,
        speedup: s.speedup,
        speedup_half_width: None,
        bus_utilization: s.bus_utilization,
        memory_utilization: Some(s.memory_utilization),
        w_bus: Some(s.w_bus),
        w_mem: Some(s.w_mem),
        q_bus: Some(s.q_bus),
        provenance: Provenance { iterations, strategy, wall_ms, ..Provenance::new(0, 0, 0) },
    }
}

/// The paper's customized MVA fixed point, solved with the scenario's
/// plain [`crate::SolverOptions`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MvaBackend;

impl Evaluator for MvaBackend {
    fn id(&self) -> BackendId {
        BackendId::Mva
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, EvalError> {
        let started = Instant::now();
        let _span = snoop_numeric::probe::span("engine.mva");
        let _trace = solve_trace(BackendId::Mva, scenario);
        let model = scenario.to_mva_model()?;
        let solution = model
            .solve(scenario.n, &scenario.solver_options())
            .map_err(|e| EvalError::Failed { backend: BackendId::Mva, reason: e.to_string() })?;
        Ok(mva_evaluation(
            BackendId::Mva,
            &solution,
            solution.iterations,
            None,
            started.elapsed().as_secs_f64() * 1e3,
        ))
    }

    fn group_key(&self, scenario: &Scenario) -> Option<u64> {
        // Scenarios differing only in N share one model build.
        Some(scenario.family_hash())
    }

    fn evaluate_group(&self, scenarios: &[&Scenario]) -> Vec<Result<Evaluation, EvalError>> {
        let Some(first) = scenarios.first() else {
            return Vec::new();
        };
        // One model build for the whole family; `solve` is pure, so each
        // result is bit-identical to a standalone `evaluate`.
        let model = match first.to_mva_model() {
            Ok(model) => model,
            Err(e) => return scenarios.iter().map(|_| Err(e.clone())).collect(),
        };
        scenarios
            .iter()
            .map(|scenario| {
                let started = Instant::now();
                let _trace = solve_trace(BackendId::Mva, scenario);
                let solution = model
                    .solve(scenario.n, &scenario.solver_options())
                    .map_err(|e| EvalError::Failed {
                        backend: BackendId::Mva,
                        reason: e.to_string(),
                    })?;
                Ok(mva_evaluation(
                    BackendId::Mva,
                    &solution,
                    solution.iterations,
                    None,
                    started.elapsed().as_secs_f64() * 1e3,
                ))
            })
            .collect()
    }
}

/// The MVA behind the resilient escalation ladder
/// ([`MvaModel::solve_resilient`]), optionally warm-starting sweep-adjacent
/// batch members from each other.
#[derive(Debug, Clone, Copy)]
pub struct ResilientMvaBackend {
    /// Retries beyond the first plain attempt (the ladder depth).
    pub max_damping_retries: usize,
    /// Optional wall-clock deadline per attempt.
    pub deadline: Option<std::time::Duration>,
    /// Warm-start each group member from the previous member's converged
    /// state (members are ordered by `N` by the engine), retrying a failed
    /// warm solve cold. This can change iteration *counts* (not solutions
    /// beyond the solver tolerance), so it is off by default.
    pub warm_start_chains: bool,
}

impl Default for ResilientMvaBackend {
    fn default() -> Self {
        let defaults = ResilientOptions::default();
        ResilientMvaBackend {
            max_damping_retries: defaults.max_damping_retries,
            deadline: defaults.deadline,
            warm_start_chains: false,
        }
    }
}

impl ResilientMvaBackend {
    fn options(&self, scenario: &Scenario) -> ResilientOptions {
        ResilientOptions {
            base: scenario.solver_options(),
            max_damping_retries: self.max_damping_retries,
            deadline: self.deadline,
        }
    }

    /// Solves one system size on `model`, warm-started from `seed`: a
    /// failed warm solve is retried cold before being reported as failed.
    fn solve_chained(
        &self,
        model: &MvaModel,
        scenario: &Scenario,
        seed: Option<[f64; 3]>,
    ) -> Result<crate::resilient::ResilientSolution, MvaError> {
        model
            .solve_resilient_seeded(scenario.n, seed, &self.options(scenario))
            .or_else(|e| {
                if seed.is_some() && !matches!(e, MvaError::InvalidSystemSize(_)) {
                    model.solve_resilient(scenario.n, &self.options(scenario))
                } else {
                    Err(e)
                }
            })
    }

    fn package(
        &self,
        result: Result<crate::resilient::ResilientSolution, MvaError>,
        started: Instant,
    ) -> Result<Evaluation, EvalError> {
        let resilient = result.map_err(|e| EvalError::Failed {
            backend: BackendId::ResilientMva,
            reason: e.to_string(),
        })?;
        Ok(mva_evaluation(
            BackendId::ResilientMva,
            &resilient.solution,
            resilient.diagnostics.total_iterations(),
            resilient.diagnostics.winning_strategy().map(|s| s.to_string()),
            started.elapsed().as_secs_f64() * 1e3,
        ))
    }
}

impl Evaluator for ResilientMvaBackend {
    fn id(&self) -> BackendId {
        BackendId::ResilientMva
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, EvalError> {
        let started = Instant::now();
        let _span = snoop_numeric::probe::span("engine.mva_resilient");
        let _trace = solve_trace(BackendId::ResilientMva, scenario);
        let model = scenario.to_mva_model()?;
        self.package(model.solve_resilient(scenario.n, &self.options(scenario)), started)
    }

    fn group_key(&self, scenario: &Scenario) -> Option<u64> {
        self.warm_start_chains.then(|| scenario.family_hash())
    }

    fn evaluate_group(&self, scenarios: &[&Scenario]) -> Vec<Result<Evaluation, EvalError>> {
        if !self.warm_start_chains {
            return scenarios.iter().map(|s| self.evaluate(s)).collect();
        }
        let Some(first) = scenarios.first() else {
            return Vec::new();
        };
        let model = match first.to_mva_model() {
            Ok(model) => model,
            Err(e) => return scenarios.iter().map(|_| Err(e.clone())).collect(),
        };
        // The warm chain: seed each size from the previous converged
        // [w_bus, w_mem, R], dropping the seed after a failure.
        let mut seed: Option<[f64; 3]> = None;
        scenarios
            .iter()
            .map(|scenario| {
                let started = Instant::now();
                let mut member_trace = solve_trace(BackendId::ResilientMva, scenario);
                member_trace.arg("warm", seed.is_some().to_string());
                let result = self.solve_chained(&model, scenario, seed);
                seed = result
                    .as_ref()
                    .ok()
                    .map(|r| [r.solution.w_bus, r.solution.w_mem, r.solution.r]);
                self.package(result, started)
            })
            .collect()
    }
}

/// The discrete-event simulator with independent replications and
/// Student-t intervals.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimBackend {
    /// Executor for the independent replications (results are
    /// bit-identical for every thread count).
    pub exec: ExecOptions,
}

impl Evaluator for SimBackend {
    fn id(&self) -> BackendId {
        BackendId::Sim
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, EvalError> {
        let started = Instant::now();
        let _span = snoop_numeric::probe::span("engine.sim");
        let _trace = solve_trace(BackendId::Sim, scenario);
        let config = scenario.to_sim_config();
        config
            .validate()
            .map_err(|e| EvalError::InvalidScenario(e.to_string()))?;
        let replications = scenario.sim.replications;
        let measures = replicate_exec(&config, replications, scenario.sim.confidence, &self.exec)
            .map_err(|e| EvalError::Failed { backend: BackendId::Sim, reason: e.to_string() })?;
        let mean = |f: fn(&snoop_sim::SimMeasures) -> f64| {
            measures.replications.iter().map(f).sum::<f64>() / measures.replications.len() as f64
        };
        Ok(Evaluation {
            backend: BackendId::Sim,
            n: scenario.n,
            r: mean(|m| m.r),
            speedup: measures.speedup.mean,
            speedup_half_width: Some(measures.speedup.half_width),
            bus_utilization: measures.bus_utilization.mean,
            memory_utilization: Some(mean(|m| m.memory_utilization)),
            w_bus: Some(measures.w_bus.mean),
            w_mem: None,
            q_bus: None,
            provenance: Provenance {
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
                ..Provenance::new(0, replications, 0)
            },
        })
    }
}

/// The generalized timed Petri net, solved by exhaustive reachability
/// expansion — exact, and polynomial in `N` only because the processors
/// are folded into one counted subnet (seconds at the paper's N = 10).
#[derive(Debug, Clone, Copy)]
pub struct GtpnBackend {
    /// Worker threads for the frontier expansion (`1` = serial, `0` =
    /// auto). The expanded graph is bit-identical for every thread count.
    pub threads: usize,
}

impl Default for GtpnBackend {
    fn default() -> Self {
        GtpnBackend { threads: 1 }
    }
}

impl Evaluator for GtpnBackend {
    fn id(&self) -> BackendId {
        BackendId::Gtpn
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, EvalError> {
        let started = Instant::now();
        let _span = snoop_numeric::probe::span("engine.gtpn");
        let _trace = solve_trace(BackendId::Gtpn, scenario);
        if scenario.n == 0 {
            return Err(EvalError::InvalidScenario("need at least one processor".to_string()));
        }
        let net = scenario.to_coherence_net()?;
        let options = ReachabilityOptions {
            max_states: scenario.gtpn.max_states,
            threads: self.threads,
            ..ReachabilityOptions::default()
        };
        let measures = net
            .solve(&options)
            .map_err(|e| EvalError::Failed { backend: BackendId::Gtpn, reason: e.to_string() })?;
        Ok(Evaluation {
            backend: BackendId::Gtpn,
            n: scenario.n,
            r: measures.r,
            speedup: measures.speedup,
            speedup_half_width: None,
            bus_utilization: measures.bus_utilization,
            memory_utilization: None,
            w_bus: None,
            w_mem: None,
            q_bus: Some(measures.mean_bus_queue),
            provenance: Provenance {
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
                ..Provenance::new(0, 0, measures.states)
            },
        })
    }
}

/// The backend registry behind [`super::Engine::with_backends`]: the
/// standard evaluator for `id`, with default knobs, running its inner
/// parallelism (simulator replications, GTPN frontier expansion) on
/// `exec`.
pub(super) fn evaluator(id: BackendId, exec: ExecOptions) -> Box<dyn Evaluator> {
    match id {
        BackendId::Mva => Box::new(MvaBackend),
        BackendId::ResilientMva => Box::new(ResilientMvaBackend::default()),
        BackendId::Sim => Box::new(SimBackend { exec }),
        BackendId::Gtpn => Box::new(GtpnBackend { threads: exec.threads }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoop_protocol::ModSet;
    use snoop_workload::params::SharingLevel;

    fn scenario(n: usize) -> Scenario {
        let mut s = Scenario::appendix_a(ModSet::new(), SharingLevel::Five, n);
        s.sim.warmup_references = 300;
        s.sim.measured_references = 3_000;
        s
    }

    #[test]
    fn mva_backend_matches_direct_solve() {
        let s = scenario(10);
        let eval = MvaBackend.evaluate(&s).unwrap();
        let direct = s.to_mva_model().unwrap().solve(10, &s.solver_options()).unwrap();
        assert_eq!(eval.speedup.to_bits(), direct.speedup.to_bits());
        assert_eq!(eval.r.to_bits(), direct.r.to_bits());
        assert_eq!(eval.provenance.iterations, direct.iterations);
        assert_eq!(eval.backend, BackendId::Mva);
        // Table 4.1(a): MVA speedup 5.30 at N = 10, 5% sharing.
        assert!((eval.speedup - 5.30).abs() < 0.15);
    }

    #[test]
    fn mva_group_is_identical_to_one_at_a_time() {
        let scenarios = [scenario(4), scenario(8), scenario(16)];
        let refs: Vec<&Scenario> = scenarios.iter().collect();
        let grouped = MvaBackend.evaluate_group(&refs);
        for (scenario, grouped) in scenarios.iter().zip(&grouped) {
            let single = MvaBackend.evaluate(scenario).unwrap();
            assert_eq!(grouped.as_ref().unwrap(), &single);
        }
    }

    #[test]
    fn resilient_backend_reports_strategy_and_iterations() {
        let eval = ResilientMvaBackend::default().evaluate(&scenario(10)).unwrap();
        assert_eq!(eval.backend, BackendId::ResilientMva);
        assert_eq!(eval.provenance.strategy.as_deref(), Some("plain"));
        assert!(eval.provenance.iterations > 0);
        // Same fixed point as the plain backend on an easy workload.
        let plain = MvaBackend.evaluate(&scenario(10)).unwrap();
        assert!((eval.speedup - plain.speedup).abs() < 1e-9);
    }

    #[test]
    fn resilient_warm_chain_matches_the_sweep_solutions() {
        let backend = ResilientMvaBackend { warm_start_chains: true, ..Default::default() };
        let scenarios = [scenario(2), scenario(4), scenario(8)];
        let refs: Vec<&Scenario> = scenarios.iter().collect();
        let chained = backend.evaluate_group(&refs);
        for (scenario, chained) in scenarios.iter().zip(&chained) {
            let cold = ResilientMvaBackend::default().evaluate(scenario).unwrap();
            let chained = chained.as_ref().unwrap();
            // Same solution within tolerance; iteration counts may differ.
            assert!((chained.speedup - cold.speedup).abs() < 1e-6 * cold.speedup);
        }
    }

    /// Iterations summed over a warm- or cold-chained resilient run of
    /// one (protocol, sharing) series through the engine; panics on any
    /// failed point.
    fn chained_iterations(mods: ModSet, sharing: SharingLevel, warm: bool) -> usize {
        let engine = super::super::Engine::new().with_backend(ResilientMvaBackend {
            warm_start_chains: warm,
            ..Default::default()
        });
        let scenarios: Vec<Scenario> = crate::paper::TABLE_N
            .iter()
            .map(|&n| Scenario::appendix_a(mods, sharing, n))
            .collect();
        let results = engine.evaluate_batch(&scenarios);
        assert_eq!(results.len(), crate::paper::TABLE_N.len());
        results
            .iter()
            .map(|r| match &r.result {
                Ok(e) => e.provenance.iterations,
                Err(err) => panic!("{mods} {sharing} scenario {} (warm={warm}): {err}", r.scenario),
            })
            .sum()
    }

    #[test]
    fn warm_start_beats_cold_on_table_4_1_configs() {
        // Over the paper's Table 4.1 protocol/sharing grid, warm-chained
        // sweeps spend strictly fewer total iterations than cold ones.
        for (mods, sharing) in crate::sweep::figure_4_1_grid() {
            let warm = chained_iterations(mods, sharing, true);
            let cold = chained_iterations(mods, sharing, false);
            assert!(warm < cold, "{mods} {sharing}: warm {warm} vs cold {cold}");
        }
    }

    #[test]
    fn failed_points_degrade_gracefully() {
        // An unreachable tolerance defeats every strategy at every size:
        // the chain must still return one (failed) result per size rather
        // than aborting, and each failure must carry a reason.
        let engine = super::super::Engine::new()
            .with_backend(ResilientMvaBackend { warm_start_chains: true, ..Default::default() });
        let scenarios: Vec<Scenario> = [1, 2, 4]
            .iter()
            .map(|&n| {
                let mut s = scenario(n);
                s.solver.max_iterations = 8;
                s.solver.tolerance = 0.0;
                s.solver.damping = 1.0;
                s
            })
            .collect();
        let results = engine.evaluate_batch(&scenarios);
        assert_eq!(results.len(), 3);
        for r in &results {
            match &r.result {
                Err(EvalError::Failed { backend, reason }) => {
                    assert_eq!(*backend, BackendId::ResilientMva);
                    assert!(!reason.is_empty());
                }
                other => panic!("expected a failed point, got {other:?}"),
            }
        }
    }

    #[test]
    fn sim_backend_carries_interval_and_replication_count() {
        let s = scenario(4);
        let eval = SimBackend::default().evaluate(&s).unwrap();
        assert_eq!(eval.backend, BackendId::Sim);
        assert_eq!(eval.provenance.replications, 3);
        assert!(eval.speedup_half_width.unwrap() > 0.0);
        assert!(eval.memory_utilization.unwrap() > 0.0);
        // Simulation brackets the MVA estimate loosely.
        let mva = MvaBackend.evaluate(&s).unwrap();
        assert!((eval.speedup - mva.speedup).abs() / mva.speedup < 0.1);
    }

    #[test]
    fn sim_backend_is_thread_count_invariant() {
        let s = scenario(2);
        let serial = SimBackend { exec: ExecOptions::SERIAL }.evaluate(&s).unwrap();
        let parallel = SimBackend { exec: ExecOptions::with_threads(4) }.evaluate(&s).unwrap();
        assert_eq!(serial.speedup.to_bits(), parallel.speedup.to_bits());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn gtpn_backend_reports_state_count() {
        let s = scenario(3);
        let eval = GtpnBackend::default().evaluate(&s).unwrap();
        assert_eq!(eval.backend, BackendId::Gtpn);
        assert!(eval.provenance.states > 0);
        assert!(eval.q_bus.is_some());
        let mva = MvaBackend.evaluate(&s).unwrap();
        assert!((eval.speedup - mva.speedup).abs() / mva.speedup < 0.1);
    }

    #[test]
    fn gtpn_state_budget_failure_is_typed() {
        let mut s = scenario(3);
        s.gtpn.max_states = 4;
        let err = GtpnBackend::default().evaluate(&s).unwrap_err();
        assert!(matches!(err, EvalError::Failed { backend: BackendId::Gtpn, .. }), "{err}");
    }
}
