//! Numeric substrate for the `snoop-mva` model suite.
//!
//! This crate provides the numerical machinery that the analytic models and
//! the detailed comparator models are built on:
//!
//! * [`fault`] — deterministic storage-fault schedules
//!   ([`fault::StoragePlan`]) for the store's crash-safety tests.
//! * [`exec`] — a dependency-free chunked parallel executor on scoped
//!   threads ([`exec::par_map`]), with deterministic result ordering and a
//!   process-wide ceiling on helper threads, used by the engine batch,
//!   simulation-replication and GTPN reachability layers.
//! * [`matrix`] / [`lu`] — dense matrices and LU decomposition with partial
//!   pivoting: the dense reference that tests check the sparse
//!   steady-state solver against.
//! * [`sparse`] — compressed-sparse-row matrices for the reachability-graph
//!   Markov chains produced by the GTPN engine.
//! * [`markov`] — the sparse iterative steady-state solver for the GTPN's
//!   embedded Markov chains, and its dense-LU reference.
//! * [`stats`] — streaming sample statistics and Student-t confidence
//!   intervals for the discrete-event simulator.
//! * [`probe`] — a zero-dependency observability layer (span timers,
//!   counters, bounded event recorders) behind a global registry that the
//!   solver crates instrument their hot paths with; disabled by default
//!   and strictly observational, so it cannot perturb solver output.
//!
//! # Example
//!
//! The steady state of a two-state Markov chain, the kind of solve the
//! GTPN runs on its reachability graph:
//!
//! ```
//! use snoop_numeric::markov::steady_state_sparse;
//! use snoop_numeric::sparse::{CsrMatrix, Triplet};
//!
//! # fn main() -> Result<(), snoop_numeric::NumericError> {
//! let p = CsrMatrix::from_triplets(2, 2, &[
//!     Triplet { row: 0, col: 0, value: 0.9 },
//!     Triplet { row: 0, col: 1, value: 0.1 },
//!     Triplet { row: 1, col: 0, value: 0.2 },
//!     Triplet { row: 1, col: 1, value: 0.8 },
//! ])?;
//! let pi = steady_state_sparse(&p, None)?.pi;
//! assert!((pi[0] - 2.0 / 3.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The dense/sparse kernels use index-based loops on purpose: they mirror
// the textbook formulations and keep row/column roles explicit.
#![allow(clippy::needless_range_loop)]

pub mod exec;
pub mod fault;
pub mod histogram;
pub mod json;
pub mod lu;
pub mod markov;
pub mod matrix;
pub mod probe;
pub mod sparse;
pub mod stats;

mod error;

pub use error::NumericError;
