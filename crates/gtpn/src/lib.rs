//! A Generalized Timed Petri Net (GTPN) engine — the paper's *detailed
//! comparator*.
//!
//! The MVA model of `snoop-mva` is validated in the paper against the GTPN
//! models of Vernon & Holliday \[VeHo86\], solved with the tool of \[HoVe85\].
//! This crate implements a discrete-time GTPN engine in the same spirit:
//!
//! * **nets** with immediate transitions (probabilistic conflict resolution
//!   by weight, priority classes) and timed transitions (deterministic
//!   integer durations or geometric/memoryless completion),
//! * **reachability analysis** producing the timed state graph (markings ×
//!   in-flight firings),
//! * an **embedded discrete-time Markov chain** whose steady state (solved
//!   directly or iteratively via `snoop-numeric`) yields time-averaged
//!   token populations and transition throughputs.
//!
//! The cost of this pipeline climbs steeply with the number of processors
//! modeled — the paper's Section 3.2 point ("the time to solve the GTPN
//! model increases exponentially with the number of processors"); the
//! benchmark harness measures that growth.
//!
//! [`models::coherence`] builds the snooping-cache GTPN as one counted
//! subnet for all processors, which keeps the state space polynomial in
//! N and reaches the paper's largest GTPN size, N = 10;
//! [`models::classic`] holds textbook nets with known solutions used to
//! validate the engine itself.
//!
//! # Example
//!
//! ```
//! use snoop_gtpn::net::{Firing, NetBuilder};
//! use snoop_gtpn::solve::solve_net;
//!
//! # fn main() -> Result<(), snoop_gtpn::GtpnError> {
//! // A two-phase cycle: work for 2 cycles, rest for 1 cycle.
//! let mut b = NetBuilder::new();
//! let working = b.place("working", 1);
//! let resting = b.place("resting", 0);
//! let finish = b.timed("finish", Firing::Deterministic(2), &[(working, 1)], &[(resting, 1)]);
//! let restart = b.timed("restart", Firing::Deterministic(1), &[(resting, 1)], &[(working, 1)]);
//! let net = b.build()?;
//! let solution = solve_net(&net)?;
//! // The token spends 2 of every 3 cycles inside the `finish` firing.
//! assert!((solution.utilization(finish) - 2.0 / 3.0).abs() < 1e-9);
//! assert!((solution.throughput(finish) - 1.0 / 3.0).abs() < 1e-9);
//! assert!((solution.throughput(restart) - 1.0 / 3.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;

pub mod chain;
pub mod dot;
pub mod marking;
pub mod models;
pub mod net;
pub mod reachability;
pub mod solve;
pub mod transient;

mod error;

pub use error::GtpnError;
