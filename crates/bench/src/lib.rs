//! Shared helpers for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md's per-experiment index).

use snoop_mva::{MvaError, MvaModel, MvaSolution, ResilientOptions, ResilientSolution};
use snoop_protocol::ModSet;
use snoop_workload::params::{SharingLevel, WorkloadParams};

/// Solves the MVA model for an Appendix-A workload through the resilient
/// escalation ladder, returning the solution together with its
/// [`snoop_mva::SolveDiagnostics`].
///
/// # Errors
///
/// Returns the error of the last ladder strategy when every strategy
/// fails (its display includes the per-attempt diagnostics).
pub fn try_solve_mva(
    sharing: SharingLevel,
    mods: ModSet,
    n: usize,
) -> Result<ResilientSolution, MvaError> {
    MvaModel::for_protocol(&WorkloadParams::appendix_a(sharing), mods)?
        .solve_resilient(n, &ResilientOptions::default())
}

/// Solves the MVA model for an Appendix-A workload.
///
/// Routed through the resilient escalation ladder: a solve that needed
/// escalation reports its diagnostics on stderr, and a solve that defeats
/// the whole ladder yields a NaN-valued sentinel row (also diagnosed on
/// stderr) so an experiment binary finishes its table instead of aborting
/// mid-way.
pub fn solve_mva(sharing: SharingLevel, mods: ModSet, n: usize) -> MvaSolution {
    match try_solve_mva(sharing, mods, n) {
        Ok(resilient) => {
            if resilient.diagnostics.retries() > 0 {
                eprintln!(
                    "solve_mva({sharing}, {mods}, N={n}) escalated:\n{}",
                    resilient.diagnostics
                );
            }
            resilient.solution
        }
        Err(e) => {
            eprintln!("solve_mva({sharing}, {mods}, N={n}) failed: {e}");
            failed_solution(n)
        }
    }
}

/// The NaN sentinel row emitted for an unsolvable configuration.
fn failed_solution(n: usize) -> MvaSolution {
    MvaSolution {
        n,
        r: f64::NAN,
        speedup: f64::NAN,
        processing_power: f64::NAN,
        bus_utilization: f64::NAN,
        memory_utilization: f64::NAN,
        w_bus: f64::NAN,
        w_mem: f64::NAN,
        q_bus: f64::NAN,
        n_interference: f64::NAN,
        t_interference: f64::NAN,
        r_local: f64::NAN,
        r_broadcast: f64::NAN,
        r_remote_read: f64::NAN,
        iterations: 0,
    }
}

/// Formats a signed relative error in percent.
pub fn rel_err(model: f64, reference: f64) -> f64 {
    (model - reference) / reference * 100.0
}

/// Returns the largest absolute relative error (percent) across
/// `(model, reference)` pairs.
pub fn worst_abs_err<'a, I>(pairs: I) -> f64
where
    I: IntoIterator<Item = &'a (f64, f64)>,
{
    pairs
        .into_iter()
        .map(|&(model, reference)| rel_err(model, reference).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_mva_matches_published_ballpark() {
        let s = solve_mva(SharingLevel::Five, ModSet::new(), 10);
        assert!((s.speedup - 5.30).abs() < 0.1);
    }

    #[test]
    fn try_solve_mva_reports_diagnostics() {
        let r = try_solve_mva(SharingLevel::Five, ModSet::new(), 10).unwrap();
        assert!((r.solution.speedup - 5.30).abs() < 0.1);
        assert!(!r.diagnostics.attempts.is_empty());
        assert!(r.diagnostics.winning_strategy().is_some());
    }

    #[test]
    fn rel_err_signs() {
        assert!(rel_err(1.1, 1.0) > 0.0);
        assert!(rel_err(0.9, 1.0) < 0.0);
        assert!((rel_err(1.05, 1.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn worst_err_picks_max() {
        let pairs = [(1.0, 1.0), (1.1, 1.0), (0.8, 1.0)];
        assert!((worst_abs_err(&pairs) - 20.0).abs() < 1e-9);
    }
}
