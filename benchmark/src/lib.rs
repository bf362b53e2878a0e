//! The repository benchmark: five seeded workloads driven through the
//! program's public library APIs, end-to-end metrics from untraced runs,
//! a per-layer breakdown from traced runs, and a comparison tool.
//!
//! See `README.md` for the workloads, metrics and measurement protocol.

pub mod compare;
pub mod gen;
pub mod http;
pub mod memtrace;
pub mod metrics;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod workloads;

/// 64-bit FNV-1a, the digest of every workload's outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}
