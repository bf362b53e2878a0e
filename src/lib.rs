//! # snoop — mean-value analysis of snooping cache-consistency protocols
//!
//! Facade crate for a reproduction of Vernon, Lazowska & Zahorjan,
//! *"An Accurate and Efficient Performance Analysis Technique for
//! Multiprocessor Snooping Cache-Consistency Protocols"* (ISCA 1988).
//!
//! Each subsystem is re-exported under a short module name:
//!
//! * [`engine`] — the unified evaluation engine: [`engine::Scenario`]
//!   descriptions, the [`engine::Evaluator`] backends over MVA /
//!   simulation / GTPN, and the batching, caching [`engine::Engine`];
//! * [`mva`] — the paper's customized mean-value model (equations,
//!   solver, asymptotics, sensitivity, the published Table 4.1 data);
//! * [`protocol`] — Write-Once and its four modifications as executable
//!   state machines, coherence invariants, scenario DSL;
//! * [`workload`] — the three-substream workload model: parameters,
//!   derived MVA inputs, reference/trace generators, parameter files;
//! * [`gtpn`] — the Generalized Timed Petri Net engine (detailed
//!   comparator #1);
//! * [`sim`] — the discrete-event simulator (detailed comparator #2), in
//!   probabilistic and trace-driven modes, plus workload measurement;
//! * [`numeric`] — linear algebra, Markov chains, the parallel executor,
//!   statistics, the probe layer.
//!
//! # Example
//!
//! Evaluate the Illinois protocol at 5% sharing through the engine:
//!
//! ```
//! use snoop::engine::{Engine, MvaBackend, Scenario};
//! use snoop::protocol::ModSet;
//! use snoop::workload::params::SharingLevel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = Engine::new().with_backend(MvaBackend);
//! let scenario = Scenario::appendix_a("illinois".parse::<ModSet>()?, SharingLevel::Five, 10);
//! let evals = engine.evaluate_batch_ok(&[scenario]);
//! assert!(evals[0].speedup > 5.0 && evals[0].speedup < 7.0);
//! // The same scenario evaluated again is a content-addressed cache hit.
//! assert!(engine.evaluate(&scenario)[0].result.as_ref().unwrap().provenance.cached);
//! # Ok(())
//! # }
//! ```
//!
//! See `README.md` for the full tour, `DESIGN.md` for the system inventory
//! and reconstruction decisions, and `EXPERIMENTS.md` for paper-vs-measured
//! results of every table and figure.

#![forbid(unsafe_code)]

pub use snoop_gtpn as gtpn;
pub use snoop_mva::engine;
pub use snoop_mva as mva;
pub use snoop_numeric as numeric;
pub use snoop_protocol as protocol;
pub use snoop_sim as sim;
pub use snoop_workload as workload;
