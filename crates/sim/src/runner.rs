//! Output analysis: independent replications with Student-t intervals.

use snoop_numeric::exec::{par_map, ExecOptions};
use snoop_numeric::stats::{confidence_interval, ConfidenceInterval, RunningStats};

use crate::config::SimConfig;
use crate::probabilistic::simulate;
use crate::stats::SimMeasures;
use crate::SimError;

/// Aggregated results of several independent replications.
#[derive(Debug, Clone)]
pub struct ReplicatedMeasures {
    /// Per-replication measures.
    pub replications: Vec<SimMeasures>,
    /// Confidence interval on the speedup.
    pub speedup: ConfidenceInterval,
    /// Confidence interval on the bus utilization.
    pub bus_utilization: ConfidenceInterval,
    /// Confidence interval on the mean bus wait.
    pub w_bus: ConfidenceInterval,
}

/// Runs `replications` independent simulations (seeds derived from the
/// base configuration's seed) and aggregates them with Student-t intervals
/// at the given confidence level, running the replications on `exec`.
///
/// Each replication's seed is derived from the root seed and its index, so
/// a replication computes the same sample path no matter which worker runs
/// it: the aggregated measures are bit-identical to the serial path for
/// any thread count.
///
/// # Errors
///
/// Propagates simulation errors; requires at least two replications and
/// a confidence level inside `(0, 1)` for the intervals.
pub fn replicate_exec(
    config: &SimConfig,
    replications: usize,
    level: f64,
    exec: &ExecOptions,
) -> Result<ReplicatedMeasures, SimError> {
    if replications < 2 {
        return Err(SimError::InvalidConfig("need at least two replications".into()));
    }
    // Validate the level here rather than letting `confidence_interval`
    // fail after the replications have already been paid for (the old
    // code `expect`ed its way past that error and panicked).
    if !(level > 0.0 && level < 1.0) {
        return Err(SimError::InvalidConfig(format!(
            "confidence level must lie in (0, 1), got {level}"
        )));
    }
    let _probe_span = snoop_numeric::probe::span("sim_replications");
    snoop_numeric::probe::counter_add("sim.replications", replications as u64);
    // Derive every seed from the root seed and the replication index up
    // front; the runs are then fully independent work items.
    let configs: Vec<SimConfig> = (0..replications)
        .map(|i| {
            let mut c = *config;
            c.seed =
                config.seed.wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(i as u64 + 1));
            c
        })
        .collect();
    let results: Vec<SimMeasures> = par_map(&configs, exec, simulate)
        .into_iter()
        .collect::<Result<_, _>>()?;

    let collect = |f: fn(&SimMeasures) -> f64| -> RunningStats {
        results.iter().map(f).collect()
    };
    let ci = |stats: RunningStats| -> Result<ConfidenceInterval, SimError> {
        confidence_interval(&stats, level).map_err(|e| SimError::InvalidConfig(e.to_string()))
    };

    Ok(ReplicatedMeasures {
        speedup: ci(collect(|m| m.speedup))?,
        bus_utilization: ci(collect(|m| m.bus_utilization))?,
        w_bus: ci(collect(|m| m.w_bus))?,
        replications: results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoop_protocol::ModSet;
    use snoop_workload::params::{SharingLevel, WorkloadParams};

    fn quick_config(n: usize) -> SimConfig {
        let mut c = SimConfig::for_protocol(
            n,
            WorkloadParams::appendix_a(SharingLevel::Five),
            ModSet::new(),
        );
        c.warmup_references = 300;
        c.measured_references = 3_000;
        c
    }

    #[test]
    fn replications_produce_tight_interval() {
        let r = replicate_exec(&quick_config(4), 5, 0.95, &ExecOptions::SERIAL).unwrap();
        assert_eq!(r.replications.len(), 5);
        // Speedup around the MVA's 3.12 with a small relative half-width.
        assert!(r.speedup.contains(r.speedup.mean));
        assert!(
            r.speedup.relative_half_width() < 0.05,
            "half-width {}",
            r.speedup.relative_half_width()
        );
        assert!((r.speedup.mean - 3.12).abs() < 0.25, "{}", r.speedup.mean);
    }

    #[test]
    fn needs_two_replications() {
        assert!(replicate_exec(&quick_config(2), 1, 0.95, &ExecOptions::SERIAL).is_err());
    }

    #[test]
    fn invalid_level_is_an_error_not_a_panic() {
        // This used to reach the `.expect("... valid level")` inside the
        // aggregation step and abort the process.
        let err = replicate_exec(&quick_config(2), 4, 1.5, &ExecOptions::SERIAL).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
        let err = replicate_exec(&quick_config(2), 4, 0.0, &ExecOptions::SERIAL).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn parallel_replications_are_bit_identical_to_serial() {
        let config = quick_config(2);
        let serial = replicate_exec(&config, 4, 0.95, &ExecOptions::SERIAL).unwrap();
        for threads in [2, 8] {
            let parallel =
                replicate_exec(&config, 4, 0.95, &ExecOptions::with_threads(threads)).unwrap();
            let serial_speedups: Vec<u64> =
                serial.replications.iter().map(|m| m.speedup.to_bits()).collect();
            let parallel_speedups: Vec<u64> =
                parallel.replications.iter().map(|m| m.speedup.to_bits()).collect();
            assert_eq!(serial_speedups, parallel_speedups, "{threads} threads diverged");
            assert_eq!(serial.speedup.mean.to_bits(), parallel.speedup.mean.to_bits());
            assert_eq!(
                serial.speedup.half_width.to_bits(),
                parallel.speedup.half_width.to_bits()
            );
        }
    }

    #[test]
    fn replications_use_distinct_seeds() {
        let r = replicate_exec(&quick_config(2), 3, 0.95, &ExecOptions::SERIAL).unwrap();
        let speedups: Vec<f64> = r.replications.iter().map(|m| m.speedup).collect();
        assert!(speedups.windows(2).any(|w| w[0] != w[1]), "{speedups:?}");
    }
}
