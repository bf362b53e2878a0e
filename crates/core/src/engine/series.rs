//! Series of engine [`Evaluation`]s, the Figure 4.1 grid, and the
//! table/CSV/gnuplot renderers the CLI's `figure` command prints.

use std::fmt::Write as _;

use snoop_protocol::{ModSet, Modification};
use snoop_workload::params::SharingLevel;

use super::evaluation::Evaluation;

/// Evaluations of one (protocol, sharing level) across system sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationSeries {
    /// The protocol evaluated.
    pub mods: ModSet,
    /// The sharing level the workload came from.
    pub sharing: SharingLevel,
    /// One evaluation per system size, in sweep order.
    pub points: Vec<Evaluation>,
}

/// The (protocol, sharing) grid of Figure 4.1: the three protocols the
/// paper plots (Write-Once, modification 1, modifications 1+4), each at
/// the three sharing levels, in plot order.
pub fn figure_4_1_grid() -> Vec<(ModSet, SharingLevel)> {
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

/// Renders series as a Table-4.1-style fixed-width table: one row per
/// (sharing level, protocol) with speedups across `N`.
pub fn speedup_table(title: &str, series: &[EvaluationSeries]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    if series.is_empty() {
        let _ = writeln!(out, "(no data)");
        return out;
    }
    let _ = write!(out, "{:<10} {:<10}", "sharing", "protocol");
    for p in &series[0].points {
        let _ = write!(out, " {:>7}", p.n);
    }
    let _ = writeln!(out);
    for s in series {
        let _ = write!(out, "{:<10} {:<10}", s.sharing.to_string(), s.mods.to_string());
        for p in &s.points {
            let _ = write!(out, " {:>7.3}", p.speedup);
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders series as CSV:
/// `protocol,sharing,n,speedup,bus_utilization,memory_utilization,w_bus,r`.
///
/// Measures a backend does not report render as `NaN` (the MVA fills
/// every column).
pub fn speedup_csv(series: &[EvaluationSeries]) -> String {
    let mut out =
        String::from("protocol,sharing,n,speedup,bus_utilization,memory_utilization,w_bus,r\n");
    for s in series {
        for p in &s.points {
            let _ = writeln!(
                out,
                "{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6}",
                s.mods,
                s.sharing,
                p.n,
                p.speedup,
                p.bus_utilization,
                p.memory_utilization.unwrap_or(f64::NAN),
                p.w_bus.unwrap_or(f64::NAN),
                p.r
            );
        }
    }
    out
}

/// Renders a gnuplot script (with inline data blocks) that draws the
/// series as a Figure-4.1-style plot.
pub fn gnuplot_script(title: &str, series: &[EvaluationSeries]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "set terminal svg size 800,560 dynamic");
    let _ = writeln!(out, "set output 'figure.svg'");
    let _ = writeln!(out, "set title {title:?}");
    let _ = writeln!(out, "set xlabel 'Number of processors'");
    let _ = writeln!(out, "set ylabel 'Speedup'");
    let _ = writeln!(out, "set key bottom right");
    let _ = writeln!(out, "set grid");
    for (i, s) in series.iter().enumerate() {
        let _ = writeln!(out, "$data{i} << EOD");
        for p in &s.points {
            let _ = writeln!(out, "{} {}", p.n, p.speedup);
        }
        let _ = writeln!(out, "EOD");
    }
    let plots: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!("$data{i} using 1:2 with linespoints title '{} {}'", s.mods, s.sharing)
        })
        .collect();
    let _ = writeln!(out, "plot {}", plots.join(", \\\n     "));
    out
}

#[cfg(test)]
mod tests {
    use super::super::backends::MvaBackend;
    use super::super::batch::Engine;
    use super::super::scenario::Scenario;
    use super::*;

    /// Write-Once at 5% sharing over `sizes`, solved through the engine.
    fn sample_series(sizes: &[usize]) -> Vec<EvaluationSeries> {
        let engine = Engine::new().with_backend(MvaBackend);
        let scenarios: Vec<Scenario> = sizes
            .iter()
            .map(|&n| Scenario::appendix_a(ModSet::new(), SharingLevel::Five, n))
            .collect();
        let points = engine.evaluate_batch_ok(&scenarios);
        assert_eq!(points.len(), sizes.len());
        vec![EvaluationSeries { mods: ModSet::new(), sharing: SharingLevel::Five, points }]
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
    fn table_contains_headers_and_values() {
        let t = speedup_table("Table 4.1(a)", &sample_series(&[1, 10]));
        assert!(t.contains("Table 4.1(a)"));
        assert!(t.contains("5%"));
        assert!(t.contains("WO"));
        assert!(t.lines().count() >= 3);
    }

    #[test]
    fn empty_series_render_a_placeholder() {
        assert!(speedup_table("t", &[]).contains("(no data)"));
    }

    #[test]
    fn csv_has_one_line_per_point_plus_header() {
        let csv = speedup_csv(&sample_series(&[1, 10]));
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("protocol,sharing,n,"));
        assert!(csv.contains("WO,5%,1,"));
    }

    #[test]
    fn gnuplot_script_is_well_formed() {
        let script = gnuplot_script("Figure 4.1", &sample_series(&[1, 10]));
        assert!(script.contains("set output"));
        assert!(script.contains("$data0 << EOD"));
        assert!(script.contains("plot "));
        // One data block per series, terminated.
        assert_eq!(script.matches("<< EOD").count(), 1);
        assert_eq!(script.matches("\nEOD\n").count(), 1);
        // Data rows: n and speedup per point.
        assert!(script.contains("\n1 "));
        assert!(script.contains("\n10 "));
    }
}
