//! Paper-vs-model comparison tables (the speedup table, CSV and gnuplot
//! renderers live in [`crate::engine::series`]).

use std::fmt::Write as _;

/// Renders a paper-vs-model comparison table with relative errors; rows are
/// `(label, paper_value, model_value)`.
pub fn comparison_table(title: &str, rows: &[(String, f64, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{:<28} {:>9} {:>9} {:>8}", "case", "paper", "model", "err%");
    let mut worst: f64 = 0.0;
    for (label, paper, model) in rows {
        let err = if *paper != 0.0 { (model - paper) / paper * 100.0 } else { f64::NAN };
        worst = worst.max(err.abs());
        let _ = writeln!(out, "{label:<28} {paper:>9.3} {model:>9.3} {err:>+8.2}");
    }
    let _ = writeln!(out, "maximum |error|: {worst:.2}%");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_table_reports_worst_error() {
        let rows = vec![
            ("a".to_string(), 1.0, 1.01),
            ("b".to_string(), 2.0, 1.9),
        ];
        let t = comparison_table("cmp", &rows);
        assert!(t.contains("maximum |error|: 5.00%"));
        assert!(t.contains("+1.00"));
        assert!(t.contains("-5.00"));
    }
}
