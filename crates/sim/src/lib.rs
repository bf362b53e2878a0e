//! Discrete-event simulation of the shared-bus snooping multiprocessor —
//! the second detailed comparator (the role \[ArBa86\]'s simulator plays in
//! the paper's Section 4.4).
//!
//! Two modes are provided:
//!
//! * [`probabilistic`] — each processor alternates exponential think times
//!   with memory references drawn from the same workload parameters the
//!   MVA model consumes ([`snoop_workload::synth`]). The simulator resolves
//!   what the MVA approximates analytically: an exact FCFS bus queue,
//!   per-module memory occupancy, and per-cache snoop busy times. Agreement
//!   with the MVA solution is therefore a direct check of the paper's
//!   approximations (Eqs. 5–13).
//! * [`trace_mode`] — a full cache simulation: per-processor
//!   set-associative LRU caches execute the protocol state machines of
//!   [`snoop_protocol`] over synthetic address traces, with hit rates and
//!   bus traffic *emerging* from the trace rather than being parameters.
//!
//! Output analysis (warm-up removal, independent replications with
//! Student-t confidence intervals) lives in [`stats`] and [`runner`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod event;
pub mod probabilistic;
pub mod runner;
pub mod stats;
pub mod trace_mode;

mod error;

pub use config::SimConfig;
pub use error::SimError;
pub use probabilistic::{simulate, simulate_with_profile, WaitProfile};
pub use stats::SimMeasures;
