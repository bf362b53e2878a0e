//! Customized mean-value-analysis (MVA) models of snooping cache-consistency
//! protocols — the primary contribution of Vernon, Lazowska & Zahorjan
//! (ISCA 1988).
//!
//! The model expresses the mean time between memory requests `R` of each of
//! `N` identical processors through a small set of equations capturing three
//! interference sources:
//!
//! * **bus interference** — an M/G/1-like waiting time at the FCFS shared
//!   bus (paper Eqs. 5–10),
//! * **memory interference** — waiting for the interleaved main-memory
//!   module targeted by a broadcast write (Eqs. 11–12),
//! * **cache interference** — bus requests holding the dual-directory cache
//!   and delaying local hits (Eq. 13 and Appendix B).
//!
//! The equations are cyclically interdependent and are solved by fixed-point
//! iteration from zero waiting times (Section 3.2: "Solution of the
//! equations converged within 15 iterations in all experiments…, yielding
//! results in under one second of cpu time, independent of the size of the
//! system analyzed").
//!
//! # Example
//!
//! ```
//! use snoop_mva::{MvaModel, SolverOptions};
//! use snoop_protocol::ModSet;
//! use snoop_workload::params::{SharingLevel, WorkloadParams};
//!
//! # fn main() -> Result<(), snoop_mva::MvaError> {
//! let params = WorkloadParams::appendix_a(SharingLevel::Five);
//! let model = MvaModel::for_protocol(&params, ModSet::new())?;
//! let solution = model.solve(10, &SolverOptions::default())?;
//! // Table 4.1(a), 5% sharing, 10 processors: MVA speedup 5.30.
//! assert!((solution.speedup - 5.30).abs() < 0.15);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asymptote;
pub mod calibration;
pub mod engine;
pub mod equations;
pub mod interference;
pub mod outputs;
pub mod paper;
pub mod report;
pub mod sensitivity;
pub mod solver;
pub mod traffic;

mod error;

pub use error::MvaError;
pub use outputs::MvaSolution;
pub use solver::{MvaModel, SolverOptions};
