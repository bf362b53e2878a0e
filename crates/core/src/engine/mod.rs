//! The unified evaluation engine: one [`Scenario`]/[`Evaluator`] API over
//! the MVA, the discrete-event simulator and the GTPN.
//!
//! Before this module, each consumer hand-wired the three model stacks:
//! the CLI built `MvaModel`s, `SimConfig`s and `CoherenceNet`s with its
//! own glue, the examples with slightly different glue, and nothing
//! remembered work it had already done. The engine replaces that with
//! three pieces:
//!
//! * [`Scenario`] — a complete, hashable description of one evaluation
//!   (protocol, workload, `N`, backend knobs) with a canonical
//!   serialization (`snoop-scenario-v1`) and blessed conversions
//!   ([`Scenario::to_mva_model`], [`Scenario::to_sim_config`],
//!   [`Scenario::to_coherence_net`]) — the only supported paths from a
//!   description to a concrete model;
//! * [`Evaluator`] — the backend trait, implemented by [`MvaBackend`],
//!   [`SimBackend`] and [`GtpnBackend`], all returning the common
//!   [`Evaluation`] currency with provenance (the `mva-resilient` id is
//!   the same MVA evaluator reporting under its own id);
//! * [`Engine`] — a batch planner that dedups jobs against a bounded
//!   content-addressed [`ResultCache`] (optionally backed by the durable
//!   [`DiskStore`]) and fans each remaining job, as its own task,
//!   through the deterministic parallel executor — batched results are
//!   bit-identical to one-at-a-time evaluation at any thread count.
//!   [`Engine::with_backends`] registers backends by [`BackendId`]: the
//!   one place an id maps to its evaluator.
//!
//! [`Engine::evaluate_batch`] is the only way the CLI turns a scenario
//! into an MVA result, apart from `solve` and `convergence`, which print
//! fields [`Evaluation`] does not carry. Sweeps (fixed and size-dependent),
//! sensitivity perturbations and the MVA halves of `stress` and `waits`
//! are all batches here, so they share its dedup, caching and
//! instrumentation. [`series`] holds the Figure 4.1 grid and the series
//! renderers.
//!
//! # Example
//!
//! ```
//! use snoop_mva::engine::{Engine, MvaBackend, Scenario};
//! use snoop_protocol::ModSet;
//! use snoop_workload::params::SharingLevel;
//!
//! let engine = Engine::new().with_backend(MvaBackend);
//! let scenarios: Vec<Scenario> = [1, 5, 10]
//!     .map(|n| Scenario::appendix_a(ModSet::new(), SharingLevel::Five, n))
//!     .to_vec();
//! let evals = engine.evaluate_batch_ok(&scenarios);
//! assert_eq!(evals.len(), 3);
//! // Table 4.1(a): MVA speedup 5.30 at N = 10, 5% sharing.
//! assert!((evals[2].speedup - 5.30).abs() < 0.15);
//! // Re-evaluating anything already seen is a cache hit.
//! assert!(engine.evaluate(&scenarios[0])[0].result.as_ref().unwrap().provenance.cached);
//! ```

mod backends;
mod batch;
mod cache;
mod decode;
mod evaluation;
mod scenario;

pub mod series;

pub use backends::{Evaluator, GtpnBackend, MvaBackend, SimBackend};
pub use batch::{Engine, EngineResult, SharedEngine};
pub use cache::{CacheKey, CacheStats, ResultCache, DEFAULT_CAPACITY};
// The durable second cache tier (re-exported so engine users don't need
// a direct snoop-store dependency).
pub use snoop_store::{DiskStore, RecoveryReport, StoreConfig, StoreError, StoreStats};
pub use evaluation::{BackendId, EvalError, Evaluation, Provenance, SummaryLine};
pub use scenario::{GtpnSettings, Scenario, SimSettings, SCHEMA};
pub use series::{figure_4_1_grid, EvaluationSeries};
