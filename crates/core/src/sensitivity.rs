//! Parameter sensitivity analysis.
//!
//! The paper closes by noting the model "can be put to good use for
//! evaluating the protocols more thoroughly — all that is needed are
//! workload measurement studies to aid in the assignment of parameter
//! values". Sensitivities tell the measurement effort where to go: a
//! parameter with elasticity near zero does not need a precise estimate.
//!
//! [`sensitivities_exec`] computes, by central finite differences, the
//! *elasticity* of speedup with respect to each basic workload parameter:
//! `(∂S/S) / (∂θ/θ)` — the percent change in speedup per percent change in
//! the parameter.

use snoop_numeric::exec::ExecOptions;
use snoop_protocol::ModSet;
use snoop_workload::params::WorkloadParams;

use crate::engine::{BackendId, Engine, EvalError, Scenario};

/// Elasticity of speedup with respect to one parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Sensitivity {
    /// Parameter name as in the paper.
    pub parameter: &'static str,
    /// Base value of the parameter.
    pub value: f64,
    /// Elasticity `d ln S / d ln θ`; `None` when the parameter is zero
    /// (elasticity undefined) or perturbation leaves the valid domain.
    pub elasticity: Option<f64>,
}

/// The perturbable parameters, with accessors.
type Field = (&'static str, fn(&WorkloadParams) -> f64, fn(&mut WorkloadParams, f64));

fn fields() -> Vec<Field> {
    vec![
        ("tau", |p| p.tau, |p, v| p.tau = v),
        ("h_private", |p| p.h_private, |p, v| p.h_private = v),
        ("h_sro", |p| p.h_sro, |p, v| p.h_sro = v),
        ("h_sw", |p| p.h_sw, |p, v| p.h_sw = v),
        ("r_private", |p| p.r_private, |p, v| p.r_private = v),
        ("r_sw", |p| p.r_sw, |p, v| p.r_sw = v),
        ("amod_private", |p| p.amod_private, |p, v| p.amod_private = v),
        ("amod_sw", |p| p.amod_sw, |p, v| p.amod_sw = v),
        ("csupply_sro", |p| p.csupply_sro, |p, v| p.csupply_sro = v),
        ("csupply_sw", |p| p.csupply_sw, |p, v| p.csupply_sw = v),
        ("wb_csupply", |p| p.wb_csupply, |p, v| p.wb_csupply = v),
        ("rep_p", |p| p.rep_p, |p, v| p.rep_p = v),
        ("rep_sw", |p| p.rep_sw, |p, v| p.rep_sw = v),
    ]
}

/// Computes speedup elasticities for every basic parameter at the given
/// operating point, using a relative step of `step` (e.g. `0.01` = ±1%).
/// The base point and every parameter's ± perturbation are one engine
/// batch on `exec`, so the result is bit-identical for any thread count.
/// Rows are sorted by the magnitude [`render`] prints, `|e|` to four
/// decimals, and otherwise keep the parameter order, so the order does not
/// depend on last-bit noise in the solve.
///
/// # Errors
///
/// Returns the base point's evaluation error; individual perturbations
/// that leave the valid domain yield `elasticity: None` instead of
/// failing the whole analysis.
pub fn sensitivities_exec(
    base: &WorkloadParams,
    mods: ModSet,
    n: usize,
    step: f64,
    exec: &ExecOptions,
) -> Result<Vec<Sensitivity>, EvalError> {
    let fields = fields();
    // Scenario 0 is the base point; parameter i is perturbed up in
    // scenario 2i + 1 and down in 2i + 2.
    let mut scenarios = vec![Scenario::with_params(mods, *base, n)];
    for &(_, get, set) in &fields {
        let v = get(base);
        for delta in [v * step, -v * step] {
            let mut params = *base;
            set(&mut params, v + delta);
            scenarios.push(Scenario::with_params(mods, params, n));
        }
    }
    let engine = Engine::new().with_exec(*exec).with_backends(&[BackendId::Mva]);
    let results = engine.evaluate_batch(&scenarios);
    let speedup = |i: usize| results[i].result.as_ref().map(|e| e.speedup);
    let s0 = speedup(0).map_err(Clone::clone)?;
    let mut out: Vec<Sensitivity> = fields
        .iter()
        .enumerate()
        .map(|(i, &(name, get, _))| {
            let v = get(base);
            let elasticity = if v == 0.0 || s0 == 0.0 {
                None
            } else {
                let dv = v * step;
                match (speedup(2 * i + 1), speedup(2 * i + 2)) {
                    (Ok(su), Ok(sd)) => Some(((su - sd) / (2.0 * dv)) * (v / s0)),
                    _ => None, // perturbation left the valid domain
                }
            };
            Sensitivity { parameter: name, value: v, elasticity }
        })
        .collect();
    sort_by_printed_magnitude(&mut out);
    Ok(out)
}

/// Most influential first, by `|e|` as [`render`] prints it; a stable sort,
/// so rows that print equal keep their order. Undefined elasticities last.
fn sort_by_printed_magnitude(rows: &mut [Sensitivity]) {
    let printed = |r: &Sensitivity| {
        r.elasticity.map_or(-1.0, |e| format!("{:.4}", e.abs()).parse().unwrap_or(f64::NAN))
    };
    rows.sort_by(|a, b| printed(b).total_cmp(&printed(a)));
}

/// Renders a sensitivity report.
pub fn render(rows: &[Sensitivity]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:<14} {:>8} {:>12}", "parameter", "value", "elasticity");
    for r in rows {
        match r.elasticity {
            Some(e) => {
                let _ = writeln!(out, "{:<14} {:>8.3} {:>+12.4}", r.parameter, r.value, e);
            }
            None => {
                let _ = writeln!(out, "{:<14} {:>8.3} {:>12}", r.parameter, r.value, "-");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoop_workload::params::SharingLevel;

    fn run(n: usize) -> Vec<Sensitivity> {
        sensitivities_exec(
            &WorkloadParams::appendix_a(SharingLevel::Five),
            ModSet::new(),
            n,
            0.01,
            &ExecOptions::SERIAL,
        )
        .unwrap()
    }

    #[test]
    fn covers_every_parameter() {
        let rows = run(10);
        assert_eq!(rows.len(), 13);
        let mut names: Vec<_> = rows.iter().map(|r| r.parameter).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn hit_rates_dominate() {
        // The private hit rate is the workload's most influential knob at
        // saturation (misses are the bus traffic).
        let rows = run(20);
        let top: Vec<_> = rows.iter().take(3).map(|r| r.parameter).collect();
        assert!(top.contains(&"h_private"), "top 3: {top:?}");
    }

    #[test]
    fn hit_rate_elasticity_is_positive_replacements_negative() {
        let rows = run(10);
        let by_name = |n: &str| {
            rows.iter().find(|r| r.parameter == n).unwrap().elasticity.unwrap()
        };
        assert!(by_name("h_private") > 0.0);
        assert!(by_name("rep_p") < 0.0);
        assert!(by_name("rep_sw") < 0.0);
    }

    #[test]
    fn tau_elasticity_small_at_single_processor() {
        // At N = 1 speedup = (τ+1)/R with R ≈ τ + overheads: raising τ
        // *helps* the ratio slightly (overhead amortized).
        let rows = sensitivities_exec(
            &WorkloadParams::appendix_a(SharingLevel::Five),
            ModSet::new(),
            1,
            0.01,
            &ExecOptions::SERIAL,
        )
        .unwrap();
        let tau = rows.iter().find(|r| r.parameter == "tau").unwrap();
        assert!(tau.elasticity.unwrap().abs() < 0.3);
    }

    #[test]
    fn boundary_parameters_yield_none_or_value() {
        // h_private at 1.0: +1% perturbation is invalid, elasticity None.
        let params = WorkloadParams::builder().h_private(1.0).build().unwrap();
        let rows = sensitivities_exec(&params, ModSet::new(), 4, 0.01, &ExecOptions::SERIAL).unwrap();
        let h = rows.iter().find(|r| r.parameter == "h_private").unwrap();
        assert!(h.elasticity.is_none());
    }

    #[test]
    fn render_is_table_shaped() {
        let text = render(&run(10));
        assert!(text.contains("elasticity"));
        assert_eq!(text.lines().count(), 14);
    }

    #[test]
    fn parallel_rows_are_bit_identical_to_serial() {
        let base = WorkloadParams::appendix_a(SharingLevel::Twenty);
        let serial =
            sensitivities_exec(&base, ModSet::new(), 10, 0.01, &ExecOptions::SERIAL).unwrap();
        for threads in [2, 8] {
            let parallel = sensitivities_exec(
                &base,
                ModSet::new(),
                10,
                0.01,
                &ExecOptions::with_threads(threads),
            )
            .unwrap();
            assert_eq!(serial, parallel, "{threads} threads diverged");
        }
    }

    #[test]
    fn rows_that_print_equal_keep_parameter_order() {
        // +0.39994 and −0.39986 both print as 0.3999 (in magnitude): the
        // larger raw magnitude must not jump ahead of the earlier row.
        let row = |parameter, elasticity| Sensitivity { parameter, value: 0.7, elasticity };
        let mut rows = vec![
            row("r_private", Some(-0.399_86)),
            row("rep_p", None),
            row("amod_private", Some(0.399_94)),
            row("tau", Some(0.5)),
        ];
        sort_by_printed_magnitude(&mut rows);
        let order: Vec<_> = rows.iter().map(|r| r.parameter).collect();
        assert_eq!(order, ["tau", "r_private", "amod_private", "rep_p"]);
    }

    #[test]
    fn rows_sorted_by_magnitude() {
        let rows = run(10);
        let mags: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.elasticity)
            .map(|e| format!("{:.4}", e.abs()).parse().unwrap())
            .collect();
        for w in mags.windows(2) {
            assert!(w[0] >= w[1], "{mags:?}");
        }
    }
}
