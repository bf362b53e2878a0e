//! The workload model of the paper (Section 2.3 and Appendix A).
//!
//! The memory-reference stream of each processor is the probabilistic merge
//! of three substreams — **private**, **shared read-only** (sro), and
//! **shared-writable** (sw) blocks — following Vernon & Holliday \[VeHo86\]
//! (itself based on Dubois & Briggs \[DuBr82\]). This crate provides:
//!
//! * [`params::WorkloadParams`] — the basic parameters of Appendix A, with a
//!   builder, validation, and the paper's presets (three sharing levels, the
//!   Section 4.3 stress test, the Section 4.4 high-sharing case);
//! * [`timing::TimingModel`] — bus/memory transaction timings (block size 4,
//!   four interleaved memory modules, 3-cycle memory latency);
//! * [`streams::ReferenceRates`] — the per-reference event masses (hits,
//!   first writes, misses, per substream) that every downstream model
//!   consumes;
//! * [`adjust`] — the per-modification parameter adjustments prescribed in
//!   Appendix A (e.g. `rep_p` 0.2 → 0.3 under modification 1);
//! * [`derived::ModelInputs`] — the paper's computed model inputs
//!   (`p_local`, `p_bc`, `p_rr`, `t_read`, `p_csupwb|rr`, `p_reqwb|rr`, and
//!   the Appendix-B interference masses) for a given protocol;
//! * [`synth::ReferenceGenerator`] — a random-reference sampler driving the
//!   probabilistic discrete-event simulator;
//! * [`trace::TraceSource`] — the trait every address-trace producer
//!   implements, with [`trace::TraceGenerator`] as the synthetic
//!   implementor and the file-backed readers in [`ingest`] parsing the two
//!   external trace formats;
//! * [`measure`] — the Appendix-A parameter estimator: windowed
//!   measurement of hit rates, write fraction, sharing, `p_local`, `p_bc`
//!   from any [`trace::TraceSource`], with confidence diagnostics.
//!
//! # Example
//!
//! ```
//! use snoop_protocol::ModSet;
//! use snoop_workload::derived::ModelInputs;
//! use snoop_workload::params::{SharingLevel, WorkloadParams};
//! use snoop_workload::timing::TimingModel;
//!
//! let params = WorkloadParams::appendix_a(SharingLevel::Five);
//! let inputs = ModelInputs::derive(&params, ModSet::new(), &TimingModel::default()).unwrap();
//! // Roughly 6% of references miss and need a remote read at 5% sharing.
//! assert!(inputs.p_rr > 0.05 && inputs.p_rr < 0.07);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjust;
pub mod derived;
pub mod file;
pub mod ingest;
pub mod measure;
pub mod params;
pub mod sharing;
pub mod streams;
pub mod synth;
pub mod timing;
pub mod trace;

mod block_hash;
mod error;

pub use error::WorkloadError;
