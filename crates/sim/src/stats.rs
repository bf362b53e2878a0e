//! Simulation output measures.

use std::fmt;

/// Steady-state estimates from one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMeasures {
    /// Number of processors.
    pub n: usize,
    /// Mean time between memory requests (harmonic mean across
    /// processors, consistent with the throughput-based speedup).
    pub r: f64,
    /// Speedup `Σ_p (τ + T_supply)/R_p`.
    pub speedup: f64,
    /// Fraction of the measurement window the bus was busy.
    pub bus_utilization: f64,
    /// Mean per-module busy fraction.
    pub memory_utilization: f64,
    /// Mean bus waiting time (grant − enqueue) over measured transactions.
    pub w_bus: f64,
    /// Total measured references across processors.
    pub references: usize,
}

impl fmt::Display for SimMeasures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N = {:<4} R = {:.4}  speedup = {:.3}  U_bus = {:.3}  U_mem = {:.3}  w_bus = {:.3}  ({} refs)",
            self.n, self.r, self.speedup, self.bus_utilization, self.memory_utilization,
            self.w_bus, self.references
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let m = SimMeasures {
            n: 2,
            r: 4.0,
            speedup: 1.7,
            bus_utilization: 0.3,
            memory_utilization: 0.05,
            w_bus: 0.4,
            references: 100,
        };
        let s = m.to_string();
        assert!(s.contains("speedup"));
        assert!(s.contains("U_bus"));
    }
}
