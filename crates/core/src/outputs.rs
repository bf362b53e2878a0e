//! The performance measures produced by a converged model solution.

use std::fmt;

/// All steady-state measures of one MVA solution.
///
/// Produced by [`crate::MvaModel::solve`]; every field is a converged
/// steady-state mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MvaSolution {
    /// Number of processors `N`.
    pub n: usize,
    /// Mean time between memory requests, `R` (Eq. 1).
    pub r: f64,
    /// Speedup, `N·(τ + T_supply)/R` (Section 4).
    pub speedup: f64,
    /// Processing power, `N·τ/R` — the sum of processor utilizations
    /// (Section 4.4).
    pub processing_power: f64,
    /// Bus utilization `U_bus` (Eq. 7).
    pub bus_utilization: f64,
    /// Memory-module utilization `U_mem` (Eq. 12).
    pub memory_utilization: f64,
    /// Mean bus waiting time `w_bus` (Eq. 5).
    pub w_bus: f64,
    /// Mean memory waiting time `w_mem` (Eq. 11).
    pub w_mem: f64,
    /// Mean bus queue length seen by an arrival `Q̄_bus` (Eq. 6).
    pub q_bus: f64,
    /// Mean number of bus requests delaying a local request (Eq. 13).
    pub n_interference: f64,
    /// Mean cache occupancy per interfering request (Appendix B).
    pub t_interference: f64,
    /// Weighted local response-time contribution `R_local` (Eq. 2).
    pub r_local: f64,
    /// Weighted broadcast response-time contribution `R_broadcast` (Eq. 3).
    pub r_broadcast: f64,
    /// Weighted remote-read response-time contribution `R_RemoteRead`
    /// (Eq. 4).
    pub r_remote_read: f64,
    /// Iterations to convergence: evaluations of the scalar map
    /// `F(R) = R − R′(R)` for [`crate::MvaModel::solve`], applications of
    /// the 3-D mean-value map for [`crate::MvaModel::solve_traced`]. Both
    /// cost about the same.
    pub iterations: usize,
}

impl MvaSolution {
    /// Per-processor utilization (`τ/R` — the fraction of time a processor
    /// executes rather than waits).
    pub fn processor_utilization(&self) -> f64 {
        self.processing_power / self.n as f64
    }

    /// Sanity check: all utilizations and probabilities are in range and
    /// the response-time components are consistent with `R`.
    pub fn is_physical(&self, tau: f64, t_supply: f64) -> bool {
        let parts = tau + t_supply + self.r_local + self.r_broadcast + self.r_remote_read;
        self.r > 0.0
            && (0.0..=1.0).contains(&self.bus_utilization)
            && (0.0..=1.0).contains(&self.memory_utilization)
            && self.speedup <= self.n as f64 + 1e-9
            && self.w_bus >= 0.0
            && self.w_mem >= 0.0
            && (parts - self.r).abs() < 1e-6 * self.r.max(1.0)
    }
}

impl fmt::Display for MvaSolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "N = {:<4} R = {:.4}  speedup = {:.3}", self.n, self.r, self.speedup)?;
        writeln!(
            f,
            "  U_bus = {:.3}  U_mem = {:.3}  w_bus = {:.3}  w_mem = {:.3}  Q_bus = {:.3}",
            self.bus_utilization, self.memory_utilization, self.w_bus, self.w_mem, self.q_bus
        )?;
        write!(
            f,
            "  R_local = {:.4}  R_bc = {:.4}  R_rr = {:.4}  ({} iterations)",
            self.r_local, self.r_broadcast, self.r_remote_read, self.iterations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MvaSolution {
        MvaSolution {
            n: 10,
            r: 6.0,
            speedup: 10.0 * 3.5 / 6.0,
            processing_power: 10.0 * 2.5 / 6.0,
            bus_utilization: 0.8,
            memory_utilization: 0.2,
            w_bus: 1.0,
            w_mem: 0.1,
            q_bus: 1.5,
            n_interference: 0.05,
            t_interference: 1.2,
            r_local: 0.9 * 0.05 * 1.2,
            r_broadcast: 0.3,
            r_remote_read: 6.0 - 3.5 - 0.9 * 0.05 * 1.2 - 0.3,
            iterations: 9,
        }
    }

    #[test]
    fn physicality_check_passes_for_consistent_solution() {
        assert!(sample().is_physical(2.5, 1.0));
    }

    #[test]
    fn physicality_check_fails_on_overspeedup() {
        let mut s = sample();
        s.speedup = 11.0;
        assert!(!s.is_physical(2.5, 1.0));
    }

    #[test]
    fn physicality_check_fails_on_inconsistent_parts() {
        let mut s = sample();
        s.r_broadcast += 1.0;
        assert!(!s.is_physical(2.5, 1.0));
    }

    #[test]
    fn processor_utilization() {
        let s = sample();
        assert!((s.processor_utilization() - 2.5 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn display_contains_key_figures() {
        let text = sample().to_string();
        assert!(text.contains("speedup"));
        assert!(text.contains("U_bus"));
        assert!(text.contains("iterations"));
    }
}
