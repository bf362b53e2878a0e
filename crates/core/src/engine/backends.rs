//! The [`Evaluator`] trait and its implementations: the MVA (one
//! evaluator behind the `mva` and `mva-resilient` ids), discrete-event
//! simulation and GTPN.
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

/// Opens the standard per-solve timeline span: named after the backend,
/// tagged with the scenario's content hash and system size.
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
}

/// The paper's customized MVA fixed point, solved by
/// [`crate::solver::MvaModel::solve`] with the scenario's
/// [`crate::SolverOptions`]. Provenance reports the solve's iterations.
#[derive(Debug, Clone, Copy, Default)]
pub struct MvaBackend;

impl Evaluator for MvaBackend {
    fn id(&self) -> BackendId {
        BackendId::Mva
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, EvalError> {
        Mva(BackendId::Mva).evaluate(scenario)
    }
}

/// The one MVA evaluator behind both registry ids: `mva` ([`MvaBackend`])
/// and `mva-resilient`, which differ only in the id they report.
#[derive(Debug, Clone, Copy)]
struct Mva(BackendId);

impl Evaluator for Mva {
    fn id(&self) -> BackendId {
        self.0
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, EvalError> {
        let started = Instant::now();
        let _span = snoop_numeric::probe::span(match self.0 {
            BackendId::ResilientMva => "engine.mva_resilient",
            _ => "engine.mva",
        });
        let _trace = solve_trace(self.0, scenario);
        let s = scenario
            .to_mva_model()?
            .solve(scenario.n, &scenario.solver)
            .map_err(|e| EvalError::Failed { backend: self.0, reason: e.to_string() })?;
        Ok(Evaluation {
            backend: self.0,
            n: s.n,
            r: s.r,
            speedup: s.speedup,
            speedup_half_width: None,
            bus_utilization: s.bus_utilization,
            memory_utilization: Some(s.memory_utilization),
            w_bus: Some(s.w_bus),
            w_mem: Some(s.w_mem),
            q_bus: Some(s.q_bus),
            provenance: Provenance {
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
                ..Provenance::new(s.iterations, 0, 0)
            },
        })
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
        BackendId::ResilientMva => Box::new(Mva(BackendId::ResilientMva)),
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
        let direct = s.to_mva_model().unwrap().solve(10, &s.solver).unwrap();
        assert_eq!(eval.speedup.to_bits(), direct.speedup.to_bits());
        assert_eq!(eval.r.to_bits(), direct.r.to_bits());
        assert_eq!(eval.provenance.iterations, direct.iterations);
        assert_eq!(eval.backend, BackendId::Mva);
        // Table 4.1(a): MVA speedup 5.30 at N = 10, 5% sharing.
        assert!((eval.speedup - 5.30).abs() < 0.15);
    }

    #[test]
    fn resilient_backend_reports_its_id_and_iterations() {
        let eval = Mva(BackendId::ResilientMva).evaluate(&scenario(10)).unwrap();
        assert_eq!(eval.backend, BackendId::ResilientMva);
        assert!(eval.provenance.iterations > 0);
        // The same evaluator as `mva`: the same answer, bit for bit.
        let direct = MvaBackend.evaluate(&scenario(10)).unwrap();
        assert_eq!(Evaluation { backend: BackendId::Mva, ..eval }, direct);
    }

    #[test]
    fn failed_points_degrade_gracefully() {
        // A budget of one evaluation cannot bracket the root at N = 2 and
        // 4, where F(R₀) < 0 and nothing above R₀ is tried: the batch must
        // still return one (failed) result per size rather than aborting,
        // and each failure must carry a reason. At N = 1 nothing waits, so
        // the first evaluation, at the zero-wait R₀, is the exact root.
        let engine = super::super::Engine::new().with_backends(&[BackendId::ResilientMva]);
        let scenarios: Vec<Scenario> = [1, 2, 4]
            .iter()
            .map(|&n| {
                let mut s = scenario(n);
                s.solver.max_iterations = 1;
                s
            })
            .collect();
        let results = engine.evaluate_batch(&scenarios);
        assert_eq!(results.len(), 3);
        let single = results[0].result.as_ref().unwrap();
        assert_eq!((single.n, single.provenance.iterations, single.w_bus), (1, 1, Some(0.0)));
        for r in &results[1..] {
            match &r.result {
                Err(EvalError::Failed { backend, reason }) => {
                    assert_eq!(*backend, BackendId::ResilientMva);
                    assert!(reason.contains("no convergence after 1 iterations"), "{reason}");
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

    #[test]
    fn gtpn_zero_think_time_is_a_typed_failure() {
        // τ = 0 is a valid workload (MVA and DES solve it) but has no
        // geometric think time, so the GTPN must refuse it, not panic.
        let mut s = scenario(2);
        s.params.tau = 0.0;
        assert!(MvaBackend.evaluate(&s).is_ok());
        let err = GtpnBackend::default().evaluate(&s).unwrap_err();
        assert!(
            matches!(err, EvalError::Failed { backend: BackendId::Gtpn, ref reason } if reason.contains("tau")),
            "{err}"
        );
    }
}
