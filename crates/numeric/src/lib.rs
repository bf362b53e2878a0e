//! Numeric substrate for the `snoop-mva` model suite.
//!
//! This crate provides the numerical machinery that the analytic models and
//! the detailed comparator models are built on:
//!
//! * [`fixed_point`] — a damped fixed-point iteration framework with
//!   convergence tracking and early divergence detection, used to solve the
//!   cyclic mean-value equations of the paper (its Section 3.2 reports
//!   convergence within 15 iterations).
//! * [`fault`] — a deterministic fault-injection wrapper ([`fault::FaultyMap`])
//!   for proving that solvers built on [`fixed_point`] fail cleanly under
//!   NaN, spike and stall corruption.
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
//! Solving a tiny fixed point `x = cos(x)`:
//!
//! ```
//! use snoop_numeric::fixed_point::{FixedPoint, Options};
//!
//! let solution = FixedPoint::new(Options::default())
//!     .solve(vec![0.0], |x, out| out[0] = x[0].cos())
//!     .expect("converges");
//! assert!((solution.values[0] - 0.739_085).abs() < 1e-5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The dense/sparse kernels use index-based loops on purpose: they mirror
// the textbook formulations and keep row/column roles explicit.
#![allow(clippy::needless_range_loop)]

pub mod exec;
pub mod fault;
pub mod fixed_point;
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
pub use fixed_point::{ConvergenceFailure, DivergenceReason};
