//! Parameter sweeps: the Figure 4.1 grid, the size-dependent-sharing
//! speedup series and one-parameter sensitivity sweeps.
//!
//! Fixed-input speedup curves (Figure 4.1, Table 4.1, `snoop sweep`) run
//! through [`crate::engine`], one job per system size; what stays here
//! are the sweeps whose inputs change from point to point.

use snoop_protocol::ModSet;
use snoop_workload::params::{SharingLevel, WorkloadParams};

use crate::solver::{MvaModel, SolverOptions};
use crate::{MvaError, MvaSolution};

/// One speedup-vs-N series for a (protocol, sharing level) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupSeries {
    /// Modification set of the protocol.
    pub mods: ModSet,
    /// Sharing level of the workload.
    pub sharing: SharingLevel,
    /// Solutions, parallel to the requested `n` values.
    pub points: Vec<MvaSolution>,
}

impl SpeedupSeries {
    /// The speedups of the series.
    pub fn speedups(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.speedup).collect()
    }
}

/// The (protocol, sharing) grid of Figure 4.1: the three protocols the
/// paper plots (Write-Once, modification 1, modifications 1+4), each at
/// the three sharing levels, in plot order.
pub fn figure_4_1_grid() -> Vec<(ModSet, SharingLevel)> {
    use snoop_protocol::Modification;
    let protocols = [
        ModSet::new(),
        ModSet::new().with(Modification::ExclusiveLoad),
        ModSet::new().with(Modification::ExclusiveLoad).with(Modification::DistributedWrite),
    ];
    let mut grid = Vec::with_capacity(protocols.len() * SharingLevel::ALL.len());
    for mods in protocols {
        for sharing in SharingLevel::ALL {
            grid.push((mods, sharing));
        }
    }
    grid
}

/// Solves one series with the size-dependent sharing refinement (the
/// \[GrMi87\] improvement the paper's Section 2.3 calls for), anchored so
/// the Appendix-A `csupply` values hold exactly at `reference_n`.
///
/// Unlike a fixed-input sweep, the derived inputs change with `N`: the
/// probability that some other cache can supply a shared block grows as
/// `1 − (1 − q)^(N−1)`.
///
/// # Errors
///
/// Propagates model construction and solver errors.
pub fn refined_speedup_series(
    mods: ModSet,
    sharing: SharingLevel,
    sizes: &[usize],
    options: &SolverOptions,
    reference_n: usize,
) -> Result<SpeedupSeries, MvaError> {
    let base = WorkloadParams::appendix_a(sharing);
    let refinement =
        snoop_workload::sharing::SizeDependentSharing::anchored(&base, reference_n)?;
    let points = sizes
        .iter()
        .map(|&n| {
            let params = refinement.at_size(&base, n);
            MvaModel::for_protocol(&params, mods)?.solve(n, options)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SpeedupSeries { mods, sharing, points })
}

/// Sweeps one scalar workload parameter, returning `(value, speedup)`
/// pairs. `set` mutates a copy of `base` for each swept value.
///
/// # Errors
///
/// Propagates model construction and solver errors (e.g. an invalid swept
/// value).
pub fn parameter_sweep<F>(
    base: &WorkloadParams,
    mods: ModSet,
    n: usize,
    values: &[f64],
    options: &SolverOptions,
    mut set: F,
) -> Result<Vec<(f64, MvaSolution)>, MvaError>
where
    F: FnMut(&mut WorkloadParams, f64),
{
    values
        .iter()
        .map(|&v| {
            let mut params = *base;
            set(&mut params, v);
            let model = MvaModel::for_protocol(&params, mods)?;
            Ok((v, model.solve(n, options)?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed-input (Appendix-A) solutions of Write-Once at 20% sharing.
    fn fixed_series(sizes: &[usize]) -> Vec<MvaSolution> {
        let model = MvaModel::for_protocol(
            &WorkloadParams::appendix_a(SharingLevel::Twenty),
            ModSet::new(),
        )
        .unwrap();
        sizes.iter().map(|&n| model.solve(n, &SolverOptions::default()).unwrap()).collect()
    }

    #[test]
    fn refined_series_anchors_at_reference() {
        let fixed = fixed_series(&[2, 10, 50]);
        let refined = refined_speedup_series(
            ModSet::new(),
            SharingLevel::Twenty,
            &[2, 10, 50],
            &SolverOptions::default(),
            10,
        )
        .unwrap();
        assert_eq!(refined.speedups().len(), 3);
        // At the anchor the two models coincide.
        assert!(
            (fixed[1].speedup - refined.points[1].speedup).abs() < 1e-9,
            "anchor mismatch: {} vs {}",
            fixed[1].speedup,
            refined.points[1].speedup
        );
        // Away from it they differ (csupply moved).
        assert!((fixed[0].speedup - refined.points[0].speedup).abs() > 1e-6);
        assert!((fixed[2].speedup - refined.points[2].speedup).abs() > 1e-6);
    }

    #[test]
    fn refinement_helps_at_scale_for_write_once() {
        // More caches holding copies means more cache-supplied (fast)
        // misses at large N — with Write-Once partially offset by extra
        // supplier write-backs; the net effect is positive for the
        // Appendix-A workload.
        let fixed = fixed_series(&[100]);
        let refined = refined_speedup_series(
            ModSet::new(),
            SharingLevel::Twenty,
            &[100],
            &SolverOptions::default(),
            10,
        )
        .unwrap();
        assert!(
            refined.points[0].speedup > fixed[0].speedup,
            "refined {} vs fixed {}",
            refined.points[0].speedup,
            fixed[0].speedup
        );
    }

    #[test]
    fn grid_has_nine_distinct_cells() {
        let grid = figure_4_1_grid();
        assert_eq!(grid.len(), 9);
        let mut keys: Vec<String> =
            grid.iter().map(|(m, s)| format!("{m}/{s}")).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 9);
    }

    #[test]
    fn parameter_sweep_tracks_hit_rate() {
        let sweep = parameter_sweep(
            &WorkloadParams::default(),
            ModSet::new(),
            10,
            &[0.80, 0.90, 0.99],
            &SolverOptions::default(),
            |p, v| p.h_private = v,
        )
        .unwrap();
        assert_eq!(sweep.len(), 3);
        // Higher private hit rate, higher speedup.
        assert!(sweep[2].1.speedup > sweep[0].1.speedup);
    }

    #[test]
    fn parameter_sweep_propagates_invalid_values() {
        let err = parameter_sweep(
            &WorkloadParams::default(),
            ModSet::new(),
            4,
            &[1.5],
            &SolverOptions::default(),
            |p, v| p.h_private = v,
        );
        assert!(err.is_err());
    }
}
