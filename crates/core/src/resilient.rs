//! The resilient solve pipeline: an escalation ladder around the
//! mean-value fixed point with full per-attempt diagnostics.
//!
//! The paper's claim that the customized MVA equations converge "within 15
//! iterations" holds for its studied workloads — but the queueing map's
//! contraction rate approaches 1 near bus saturation (large `N`, slow
//! memory), where plain successive substitution oscillates or diverges.
//! [`MvaModel::solve_resilient`] runs a fixed **escalation ladder** of
//! solve strategies, stopping at the first that converges to a finite
//! solution. It is the only ladder: [`MvaModel::solve`] runs it and drops
//! the diagnostics. Every rung runs from the scenario's own
//! [`SolverOptions`] (`max_iterations`, `tolerance`, `damping`); the
//! ladder has no settings of its own.
//!
//! 1. **newton** — the paper's plain step, taken from a Newton point
//!    whenever the map moves that point less than the current iterate;
//! 2. **damping 0.5** plain under-relaxation, which stabilizes oscillation;
//! 3. **damping 0.25** for harder oscillation;
//! 4. **damped restart** — damping 0.125, restarted from the last finite
//!    iterate of the most recent failed attempt rather than from cold.
//!
//! Every attempt is recorded in a [`SolveDiagnostics`] — which strategy
//! ran, how many iterations it spent, the residual it reached, and how it
//! failed — so a production caller can see *why* a configuration was
//! expensive, not just that it was. If the whole ladder fails, the
//! diagnostics come back inside [`MvaError::SolveExhausted`]; the pipeline
//! never panics and never returns non-finite values. Every solve starts
//! cold, from zero waiting times, so its result depends on the model, `N`
//! and the options alone.

use std::fmt;

use snoop_numeric::fixed_point::Options;
use snoop_numeric::NumericError;

use crate::outputs::MvaSolution;
use crate::solver::{fixed_point_options, MvaModel, SolverOptions};
use crate::MvaError;

/// A solve strategy on the escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Safeguarded Newton steps (plain steps taken from the Newton point
    /// when it moves less), damped by the base damping.
    Newton,
    /// Under-relaxed iteration with the given damping factor, from cold.
    Damped(f64),
    /// Under-relaxed iteration with the given damping factor, restarted
    /// from the last finite iterate of the previous failed attempt.
    DampedRestart(f64),
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Newton => write!(f, "newton"),
            Strategy::Damped(d) => write!(f, "damped({d})"),
            Strategy::DampedRestart(d) => write!(f, "damped-restart({d})"),
        }
    }
}

/// Record of one attempt on the ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// The strategy that ran.
    pub strategy: Strategy,
    /// Iterations the attempt spent.
    pub iterations: usize,
    /// Relative residual when the attempt ended (below the tolerance on
    /// success).
    pub residual: f64,
    /// `None` on success; the typed failure otherwise.
    pub error: Option<NumericError>,
}

/// Diagnostics of a whole resilient solve: every attempt, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveDiagnostics {
    /// System size that was solved.
    pub n: usize,
    /// Every attempt, in ladder order. The last entry is the one that
    /// converged (when the solve succeeded).
    pub attempts: Vec<AttemptRecord>,
}

impl SolveDiagnostics {
    /// The strategy that produced the returned solution, if any converged.
    pub fn winning_strategy(&self) -> Option<Strategy> {
        self.attempts.iter().find(|a| a.error.is_none()).map(|a| a.strategy)
    }

    /// Number of retries beyond the first attempt.
    pub fn retries(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }

    /// Iterations summed over every attempt — the real cost of the solve.
    pub fn total_iterations(&self) -> usize {
        self.attempts.iter().map(|a| a.iterations).sum()
    }
}

impl fmt::Display for SolveDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N={}: {} attempt(s), {} total iterations",
            self.n,
            self.attempts.len(),
            self.total_iterations()
        )?;
        for a in &self.attempts {
            match &a.error {
                None => write!(f, "; {} converged in {}", a.strategy, a.iterations)?,
                Some(e) => write!(f, "; {} failed after {} ({e})", a.strategy, a.iterations)?,
            }
        }
        Ok(())
    }
}

/// A solution together with the diagnostics of the ladder that produced it.
///
/// [`MvaSolution`] itself stays a plain `Copy` record; the diagnostics ride
/// alongside it here.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientSolution {
    /// The converged solution (all outputs finite).
    pub solution: MvaSolution,
    /// How it was obtained.
    pub diagnostics: SolveDiagnostics,
}

impl MvaModel {
    /// Solves the model for `n` processors through the escalation ladder.
    /// `options.damping` scales the ladder's damped rungs;
    /// `options.max_iterations` and `options.tolerance` apply to every
    /// attempt.
    ///
    /// # Errors
    ///
    /// Returns [`MvaError::InvalidSystemSize`] for `n = 0`,
    /// [`MvaError::Numeric`] for a damping outside `(0, 1]`, and
    /// [`MvaError::SolveExhausted`] — carrying the per-attempt
    /// diagnostics — when every strategy on the ladder fails. Never
    /// panics; a returned solution always has finite outputs.
    pub fn solve_resilient(
        &self,
        n: usize,
        options: &SolverOptions,
    ) -> Result<ResilientSolution, MvaError> {
        if n == 0 {
            return Err(MvaError::InvalidSystemSize(0));
        }
        let base_damping = options.damping;
        if !(base_damping > 0.0 && base_damping <= 1.0) {
            return Err(NumericError::InvalidArgument(format!(
                "damping must lie in (0, 1], got {base_damping}"
            ))
            .into());
        }
        // Observational only — the probe registry is never read back, so
        // collection cannot steer the escalation ladder.
        let _probe_span = snoop_numeric::probe::span("resilient_solve");
        let ladder = [
            Strategy::Newton,
            Strategy::Damped(0.5 * base_damping),
            Strategy::Damped(0.25 * base_damping),
            Strategy::DampedRestart(0.125 * base_damping),
        ];

        let mut diagnostics = SolveDiagnostics { n, attempts: Vec::new() };
        // Restart point harvested from the most recent structured failure.
        let mut last_finite: Option<Vec<f64>> = None;

        for strategy in &ladder {
            snoop_numeric::probe::counter_add("mva.resilient_attempts", 1);
            if !diagnostics.attempts.is_empty() {
                snoop_numeric::probe::counter_add("mva.resilient_escalations", 1);
            }
            let (damping, newton, initial) = match *strategy {
                Strategy::Newton => (base_damping, true, None),
                Strategy::Damped(d) => (d, false, None),
                Strategy::DampedRestart(d) => (d, false, last_finite.clone()),
            };
            let initial = initial.unwrap_or_else(|| self.zero_wait_state());
            let fp_options = Options { newton, ..fixed_point_options(options, damping) };

            match self.run_map(n, initial, &fp_options) {
                Ok(converged) => {
                    let solution =
                        self.package_solution(n, &converged.values, converged.iterations);
                    let finite = [
                        solution.r,
                        solution.speedup,
                        solution.bus_utilization,
                        solution.memory_utilization,
                        solution.w_bus,
                        solution.w_mem,
                    ]
                    .iter()
                    .all(|v| v.is_finite());
                    if finite {
                        diagnostics.attempts.push(AttemptRecord {
                            strategy: *strategy,
                            iterations: converged.iterations,
                            residual: converged.residual,
                            error: None,
                        });
                        snoop_numeric::probe::counter_add("mva.resilient_solves", 1);
                        snoop_numeric::probe::record(
                            "mva.attempts_per_solve",
                            diagnostics.attempts.len() as f64,
                        );
                        return Ok(ResilientSolution { solution, diagnostics });
                    }
                    // Converged onto a non-finite packaging (degenerate
                    // inputs): record it as a failure and escalate.
                    diagnostics.attempts.push(AttemptRecord {
                        strategy: *strategy,
                        iterations: converged.iterations,
                        residual: converged.residual,
                        error: Some(NumericError::InvalidArgument(
                            "converged state packages to non-finite outputs".into(),
                        )),
                    });
                }
                Err(e) => {
                    let (iterations, residual) = match &e {
                        NumericError::Diverged(failure) => {
                            if failure.last_finite.len() == 3 && failure.last_finite[2] > 0.0 {
                                last_finite = Some(failure.last_finite.clone());
                            }
                            (failure.iterations, failure.residual)
                        }
                        NumericError::NoConvergence { iterations, residual } => {
                            (*iterations, *residual)
                        }
                        _ => (0, f64::NAN),
                    };
                    diagnostics.attempts.push(AttemptRecord {
                        strategy: *strategy,
                        iterations,
                        residual,
                        error: Some(e),
                    });
                }
            }
        }

        snoop_numeric::probe::counter_add("mva.resilient_exhausted", 1);
        Err(MvaError::SolveExhausted(Box::new(diagnostics)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoop_protocol::ModSet;
    use snoop_workload::params::{SharingLevel, WorkloadParams};

    fn model(level: SharingLevel) -> MvaModel {
        MvaModel::for_protocol(&WorkloadParams::appendix_a(level), ModSet::new()).unwrap()
    }

    #[test]
    fn newton_strategy_wins_on_easy_workloads() {
        let r = model(SharingLevel::Five)
            .solve_resilient(10, &SolverOptions::default())
            .unwrap();
        assert_eq!(r.diagnostics.winning_strategy(), Some(Strategy::Newton));
        assert_eq!(r.diagnostics.retries(), 0);
        // Matches `solve` exactly: same first attempt, same start.
        let direct = model(SharingLevel::Five)
            .solve(10, &SolverOptions::default())
            .unwrap();
        assert_eq!(r.solution, direct);
    }

    #[test]
    fn rejects_zero_processors() {
        let err = model(SharingLevel::Five)
            .solve_resilient(0, &SolverOptions::default())
            .unwrap_err();
        assert!(matches!(err, MvaError::InvalidSystemSize(0)));
    }

    #[test]
    fn rejects_damping_outside_the_unit_interval() {
        for damping in [0.0, -1.0, 1.5, f64::NAN] {
            let base = SolverOptions { damping, ..SolverOptions::default() };
            let err = model(SharingLevel::Five).solve(10, &base).unwrap_err();
            assert!(err.to_string().contains(&format!("got {damping}")), "{err}");
        }
    }

    #[test]
    fn saturation_regime_never_returns_non_finite() {
        // N ≥ 64 with slow memory: deep saturation, the regime the ladder
        // exists for.
        let slow = WorkloadParams::stress();
        let m = MvaModel::for_protocol(&slow, ModSet::new()).unwrap();
        for n in [64, 256, 1024] {
            match m.solve_resilient(n, &SolverOptions::default()) {
                Ok(r) => {
                    assert!(r.solution.r.is_finite(), "N={n}");
                    assert!(r.solution.speedup.is_finite(), "N={n}");
                    assert!(r.solution.speedup > 0.0, "N={n}");
                }
                Err(MvaError::SolveExhausted(d)) => {
                    // Clean failure is acceptable; silent garbage is not.
                    assert_eq!(d.attempts.len(), 4, "N={n}: {d}");
                }
                Err(other) => panic!("N={n}: unexpected error {other}"),
            }
        }
    }

    #[test]
    fn exhausted_ladder_records_every_rung() {
        // With a tolerance of 0 nothing can converge: all four rungs run,
        // in ladder order, each scaled by the base damping.
        let options = SolverOptions { max_iterations: 10, tolerance: 0.0, damping: 0.5 };
        match model(SharingLevel::Five).solve_resilient(10, &options).unwrap_err() {
            MvaError::SolveExhausted(d) => {
                let rungs: Vec<Strategy> = d.attempts.iter().map(|a| a.strategy).collect();
                assert_eq!(
                    rungs,
                    [
                        Strategy::Newton,
                        Strategy::Damped(0.25),
                        Strategy::Damped(0.125),
                        Strategy::DampedRestart(0.0625)
                    ],
                    "{d}"
                );
                assert!(d.attempts.iter().all(|a| a.error.is_some()));
                assert_eq!(d.winning_strategy(), None);
            }
            other => panic!("expected exhaustion, got {other}"),
        }
    }

    #[test]
    fn diagnostics_display_is_readable() {
        let m = model(SharingLevel::Five);
        let r = m.solve_resilient(4, &SolverOptions::default()).unwrap();
        let text = r.diagnostics.to_string();
        assert!(text.contains("N=4"), "{text}");
        assert!(text.contains("newton converged"), "{text}");
    }
}
